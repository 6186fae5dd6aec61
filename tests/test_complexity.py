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

    python tests/test_complexity.py   # prints {row: [[size, count], ...]}
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = str(ROOT / "src" / "factorlab")

SLACK = 0.15

#: row -> (declared exponent, sizes)
ROWS = {
    "monoid.normalize((b a a)^k)": (3, (25, 50, 100)),
    "monoid.verify_accp_failure(depth)": (1, (50, 100, 200)),
    "pi_matrix.peel_chain(demo_matrix(), steps)": (1, (50, 100, 200)),
    "ore.check_skew_laws(weyl, pairs)": (1, (100, 200, 400)),
    "ore.check_skew_laws(qplane:q=2, pairs)": (1, (100, 200, 400)),
    "ore.check_skew_laws(qtorus:q=3, pairs)": (1, (100, 200, 400)),
}


def _operations():
    """row -> a function of the size that returns the operation to count,
    with its input built outside the count."""
    from factorlab import monoid, ore, pi_matrix
    from factorlab.groups import ALPHABET
    from factorlab.words import Word

    def normalize(k):
        word = Word(ALPHABET, ("b", "a", "a") * k)
        return lambda: monoid.normalize(word)

    def peel(steps):
        m = pi_matrix.demo_matrix()
        return lambda: list(pi_matrix.peel_chain(m, steps))

    def audit(config):
        return lambda pairs: lambda: ore.check_skew_laws(config, pairs, 1)

    return {
        "monoid.normalize((b a a)^k)": normalize,
        "monoid.verify_accp_failure(depth)": lambda depth: lambda: monoid.verify_accp_failure(depth),
        "pi_matrix.peel_chain(demo_matrix(), steps)": peel,
        "ore.check_skew_laws(weyl, pairs)": audit("weyl"),
        "ore.check_skew_laws(qplane:q=2, pairs)": audit("qplane:q=2"),
        "ore.check_skew_laws(qtorus:q=3, pairs)": audit("qtorus:q=3"),
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


if __name__ == "__main__":
    print(json.dumps(counts()))
