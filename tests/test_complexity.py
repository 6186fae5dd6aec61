"""Counted complexity gates: how the work of each hot path grows with its size.

A child process runs each row's operation at three sizes under a
``sys.settrace`` hook that counts line events in frames whose file is under
``src/factorlab``.  Line events are deterministic, so the counts are the same
on every run and machine speed does not enter.  Each successive log-log slope
of count against size must be at most the row's declared exponent plus
``SLACK``.  The inputs are worst-case families, not random draws.

Raising an exponent or ``SLACK`` needs a ``CHANGES.md`` entry that says why;
a change that earns it lowers the exponent.  The gate times nothing, so it
supports no speed claim: speed claims stay with the benchmark.

    python tests/test_complexity.py             # prints {row: [[size, count], ...]}
    python tests/test_complexity.py --bench N   # writes BENCH_N.json at the repo root

A ``BENCH_N.json`` file records these counts for one commit: its SHA (and
whether ``src/`` differed from it), the Python version and, per row,
the sizes, the counts, the successive slopes and the declared exponent.  A
row whose operation the checkout cannot run is recorded with ``null``
counts and the error.  ``timed`` stays ``null``: the files hold counts of
work, not timings.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = str(ROOT / "src" / "factorlab")

SLACK = 0.15

#: row -> (declared exponent, sizes)
ROWS = {
    "monoid.normalize((b a a)^k)": (3, (25, 50, 100)),
    "monoid.multiply((a^3 b)^k a, (a b)^2k)": (3, (8, 16, 32)),
    "monoid.normalize(parse_word(b^k a^2 b^k))": (0, (10**3, 10**4, 10**5)),
    "groups.left_quotient(b^k, b^k a^2 b^3)": (0, (10**3, 10**4, 10**5)),
    "groups.embed((b a^2)^k)": (1, (250, 500, 1000)),
    "groups.parse_membership(embed((b a)^k))": (1, (250, 500, 1000)),
    "monoid.divisible_by_all_b_powers(b^k)": (0, (10**3, 10**4, 10**5)),
    "monoid.verify_accp_failure(depth)": (1, (50, 100, 200)),
    "pi_matrix.peel_chain(demo_matrix(), steps)": (1, (50, 100, 200)),
    "pi_matrix.Mat2.det(four dense n-term entries)": (2, (8, 16, 32)),
    "xy_poly.parse_laurent_poly(n-term sum over n keys)": (1, (250, 500, 1000)),
    "ore.check_skew_laws(weyl, pairs)": (1, (100, 200, 400)),
    "ore.check_skew_laws(qplane:q=2, pairs)": (1, (100, 200, 400)),
    "ore.check_skew_laws(qtorus:q=3, pairs)": (1, (100, 200, 400)),
    "ore.ore_mul(weyl, n dense x-coefficients)": (2, (8, 16, 32)),
    "ore.ore_mul(qplane:q=2, n dense x-coefficients)": (2, (8, 16, 32)),
}


def _operations():
    """row -> a function of the size that returns the operation to count,
    with its input built outside the count."""
    from fractions import Fraction

    from factorlab import groups, monoid, ore, pi_matrix
    from factorlab.xy_poly import LaurentPoly2, parse_laurent_poly
    from factorlab.groups import ALPHABET, NormalForm
    from factorlab.words import parse_word

    def normalize(k):
        word = parse_word(" ".join(["b a^2"] * k), ALPHABET)
        return lambda: monoid.normalize(word)

    def multiply(k):
        # the junction b a a b cancels, and the cancellations cascade
        x, y = NormalForm(0, ((3, 1),) * k, 1), NormalForm(0, ((1, 1),) * (2 * k), 0)
        return lambda: monoid.multiply(x, y)

    def left_quotient(k):
        u, x = parse_word(f"b^{k}", ALPHABET), parse_word(f"b^{k} a^2 b^3", ALPHABET)
        return lambda: groups.left_quotient(u, x)

    def peel(steps):
        m = pi_matrix.demo_matrix()
        return lambda: list(pi_matrix.peel_chain(m, steps))

    def det(n):
        # rational coefficients over several denominators, so the one pass
        # brings both products to a common denominator
        m = pi_matrix.Mat2(
            *(
                LaurentPoly2.from_dict({(r % 2, j - n // 2): Fraction(1 + j * (r + 1), 1 + (j + r) % 5) for j in range(n)})
                for r in range(4)
            )
        )
        return m.det

    def long_sum(n):
        # every summand has its own key, so a sum that adds each summand to
        # the whole partial sum grows as n^2
        text = " + ".join(f"{i % 5 + 1}/{i % 7 + 2}*x^{i // 32}*y^{i % 32 - 16}" for i in range(n))
        return lambda: parse_laurent_poly(text)

    def audit(config):
        return lambda pairs: lambda: ore.check_skew_laws(config, pairs, 1)

    def ore_mul(sd):
        def build(n):
            rng = random.Random(n)
            f, g = (ore.ore_from_coeffs([ore.random_poly(rng, nonzero=True) for _ in range(n)], sd) for _ in range(2))
            return lambda: ore.ore_mul(f, g)

        return build

    def embed(k):
        word = parse_word(" ".join(["b a^2"] * k), ALPHABET)
        return lambda: groups.embed(word)

    def membership(k):
        # (b a^2)^k would collapse to a few runs: b a b a keeps one run a letter
        element = groups.embed(parse_word(" ".join(["b a"] * k), ALPHABET))
        return lambda: groups.parse_membership(element)

    return {
        "monoid.normalize((b a a)^k)": normalize,
        "monoid.multiply((a^3 b)^k a, (a b)^2k)": multiply,
        "monoid.normalize(parse_word(b^k a^2 b^k))": lambda k: lambda: monoid.normalize(
            parse_word(f"b^{k} a^2 b^{k}", ALPHABET)
        ),
        "groups.left_quotient(b^k, b^k a^2 b^3)": left_quotient,
        "groups.embed((b a^2)^k)": embed,
        "groups.parse_membership(embed((b a)^k))": membership,
        "monoid.divisible_by_all_b_powers(b^k)": lambda k: lambda: monoid.divisible_by_all_b_powers(
            NormalForm(k, (), 0)
        ),
        "monoid.verify_accp_failure(depth)": lambda depth: lambda: monoid.verify_accp_failure(depth),
        "pi_matrix.peel_chain(demo_matrix(), steps)": peel,
        "pi_matrix.Mat2.det(four dense n-term entries)": det,
        "xy_poly.parse_laurent_poly(n-term sum over n keys)": long_sum,
        "ore.check_skew_laws(weyl, pairs)": audit("weyl"),
        "ore.check_skew_laws(qplane:q=2, pairs)": audit("qplane:q=2"),
        "ore.check_skew_laws(qtorus:q=3, pairs)": audit("qtorus:q=3"),
        "ore.ore_mul(weyl, n dense x-coefficients)": ore_mul(ore.weyl()),
        "ore.ore_mul(qplane:q=2, n dense x-coefficients)": ore_mul(ore.quantum_plane(2)),
    }


def count_lines(operation) -> int:
    """Line events in package frames while ``operation()`` runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def hook(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    sys.settrace(hook)
    try:
        operation()
    finally:
        sys.settrace(None)
    return count


def counts() -> dict[str, list[list[int]]]:
    operations = _operations()
    out = {}
    for row, (_, sizes) in ROWS.items():
        build = operations[row]
        out[row] = [[n, count_lines(build(n))] for n in sizes]
    return out


def slopes(points: list[list[int]]) -> list[float]:
    """The log-log slope between each pair of successive (size, count) points."""
    return [
        math.log(c2 / c1) / math.log(n2 / n1) for (n1, c1), (n2, c2) in zip(points, points[1:])
    ]


def bench_record() -> dict:
    """This checkout's counts as one ``BENCH_N.json`` document."""

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()

    operations = _operations()
    rows = {}
    for row, (exponent, sizes) in ROWS.items():
        try:
            counted = [count_lines(operations[row](n)) for n in sizes]
        except (AttributeError, ImportError, KeyError, NameError, TypeError) as exc:
            # an API this checkout lacks or spells differently
            rows[row] = {"exponent": exponent, "sizes": list(sizes), "counts": None, "missing": repr(exc)}
            continue
        points = [[n, c] for n, c in zip(sizes, counted)]
        rows[row] = {"exponent": exponent, "sizes": list(sizes), "counts": counted, "slopes": slopes(points)}
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "unit": "line events in src/factorlab frames",
        "rows": rows,
        "timed": None,
    }


def test_counted_work_grows_no_faster_than_declared():
    child = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=600,
    )
    assert child.returncode == 0, child.stderr
    measured = json.loads(child.stdout)
    assert sorted(measured) == sorted(ROWS)
    too_steep = {}
    for row, points in measured.items():
        exponent = ROWS[row][0]
        assert all(count > 0 for _, count in points), row
        row_slopes = slopes(points)
        if any(s > exponent + SLACK for s in row_slopes):
            too_steep[row] = (exponent, [round(s, 2) for s in row_slopes], points)
    assert not too_steep, f"work grows faster than declared: {too_steep}"


def test_bench_records_follow_from_their_counts():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        doc = json.loads(path.read_text())
        assert {"commit", "dirty", "python", "rows", "timed"} <= set(doc), path.name
        for row, entry in doc["rows"].items():
            if entry["counts"] is None:
                assert entry["missing"], (path.name, row)
                continue
            assert len(entry["sizes"]) == len(entry["counts"]), (path.name, row)
            want = slopes([list(point) for point in zip(entry["sizes"], entry["counts"])])
            assert len(entry["slopes"]) == len(want), (path.name, row)
            assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(entry["slopes"], want)), (path.name, row)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--bench"]:
        (ROOT / f"BENCH_{int(sys.argv[2])}.json").write_text(json.dumps(bench_record(), indent=1) + "\n")
    else:
        print(json.dumps(counts()))
