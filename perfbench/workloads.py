"""The three factorlab benchmark workloads.

A workload is a function ``(lib, rng, tiny) -> list[Op]`` that builds one
round of operations from a seeded random generator.  ``lib`` holds the
imported factorlab modules, and ``tiny`` selects the small sizes used for
warm-up and by the smoke test.  Every round of a workload has the same shape
(sizes, term counts, caps, commands), so per-round work counts are fixed by
construction; only the random content changes with the seed and the round.

An op's ``run(t)`` makes its library calls through ``t.call`` so that a
traced run can record a span around each, and returns what it computed.
Its ``check(result)`` compares the result with an independent computation
and returns an error message, or None when the answer is right.  Inputs are
built from the group embedding and the benchmark's own arithmetic, never
from the code path an op measures.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import shlex
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

#: Prime of the finite coefficient field in ``algebra-probe``.
PRIME = 10007


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], Optional[str]]


def _expect(ok: bool, message: str) -> Optional[str]:
    return None if ok else message


def canonical(groups, letters) -> Any:
    """Canonical form of a word by the group embedding (never by rewriting)."""
    return groups.parse_membership(groups.embed_letters(letters))


def exponent_text(letters) -> str:
    """Exponent-explicit text of a word, e.g. ``a^3 b^1 a^2``."""
    runs = [f"{ch}^{len(list(grp))}" for ch, grp in itertools.groupby(letters)]
    return " ".join(runs) or "e"


# ---------------------------------------------------------------------------
# words-long


#: Log-spaced word lengths, a factor sqrt(2) apart.
WORD_SIZES = (64, 91, 128, 181, 256, 362, 512, 724, 1024)
TINY_WORD_SIZES = (8, 16, 32)
#: Share of ``a`` letters: uniform words, a-heavy words (more a^4 shifts)
#: and b-heavy words (more cancellations).  Three shares per size put the
#: median op inside one size class rather than between two.
A_SHARES = (0.5, 0.7, 0.3)


def words_long(lib, rng, tiny: bool) -> list[Op]:
    """Long random words: parse, normalize, embed, multiply, divide back."""
    words, groups, monoid = lib.words, lib.groups, lib.monoid
    texts = []
    for n in TINY_WORD_SIZES if tiny else WORD_SIZES:
        for share in A_SHARES:
            letters = ["b"] * n
            for pos in rng.sample(range(n), round(share * n)):
                letters[pos] = "a"
            texts.append((n, exponent_text(letters)))
    # slot i holds (word, normal form, embedding) of op i, for op i + 1
    done: list = [None] * len(texts)
    identity = (words.Word(groups.ALPHABET), groups.NormalForm(), groups.IDENTITY)

    def make(i: int, n: int, text: str) -> Op:
        def run(t):
            w = t.call("words.parse_word", words.parse_word, text, groups.ALPHABET, size=n)
            t.note("monoid.normalize.letters", len(w))
            nf = t.call("monoid.normalize", monoid.normalize, w, size=n)
            e = t.call("groups.embed", groups.embed, w, size=n)
            member = t.call("groups.parse_membership", groups.parse_membership, e, size=n)
            prev_w, prev_nf, prev_e = done[i - 1] if i else identity
            product = t.call("monoid.multiply", monoid.multiply, prev_nf, nf, size=n)
            joined = t.call("groups.g_mul", groups.g_mul, prev_e, e, size=n)
            joined_nf = t.call("groups.parse_membership", groups.parse_membership, joined, size=n)
            product_w = t.call("groups.NormalForm.word", product.word, size=n)
            right = t.call("groups.left_quotient", groups.left_quotient, prev_w, product_w, size=n)
            done[i] = (w, nf, e)
            return nf, member, product, joined_nf, right

        def check(result) -> Optional[str]:
            nf, member, product, joined_nf, right = result
            return (
                _expect(nf == member, f"normalize disagrees with the embedding at n={n}")
                or _expect(product == joined_nf, f"multiply disagrees with g_mul at n={n}")
                or _expect(right == nf, f"left_quotient missed the right factor at n={n}")
            )

        return Op("word", run, check)

    return [make(i, n, text) for i, (n, text) in enumerate(texts)]


# ---------------------------------------------------------------------------
# algebra-probe


DIVIDE_CAPS = (4, 5, 6, 7)
TINY_DIVIDE_CAPS = (3, 4)
#: Term counts (|f|, |g|) of the plain products; each round uses all of them.
MUL_SHAPES = ((2, 6), (3, 5), (4, 4), (5, 3), (6, 2), (6, 6))
TINY_MUL_SHAPES = ((2, 3),)
#: Longest canonical word in a random support.
SUPPORT_LEN = 8
TINY_SUPPORT_LEN = 4


def _word_with_a_count(rng, a_count: int, max_len: int) -> list[str]:
    length = rng.randint(max(a_count, 1), max(max_len, a_count, 1))
    letters = ["b"] * length
    for pos in rng.sample(range(length), a_count):
        letters[pos] = "a"
    return letters


def _support(groups, rng, count: int, max_len: int, a_deg: int) -> list:
    """``count`` distinct canonical forms of length <= max_len, the largest
    a-count among them exactly ``a_deg`` (the a-count is a monoid invariant)."""
    out = [canonical(groups, _word_with_a_count(rng, a_deg, max_len))]
    while len(out) < count:
        nf = canonical(groups, _word_with_a_count(rng, rng.randint(0, a_deg), max_len))
        if nf not in out:
            out.append(nf)
    return out


def _coefficient(rng, modulus: Optional[int]):
    if modulus:
        return rng.randint(1, modulus - 1)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def own_product(groups, modulus: Optional[int], f_terms, g_terms) -> dict:
    """Product of two algebra elements, as {canonical form: coefficient}.

    Monoid products go through the group embedding and coefficients through
    plain Fraction or modular integer arithmetic, so nothing here shares code
    with ``algebra.alg_mul`` or ``monoid.multiply``.
    """
    acc: dict = {}
    for s, cs in f_terms:
        for t, ct in g_terms:
            st = groups.parse_membership(
                groups.g_mul(groups.embed_normal_form(s), groups.embed_normal_form(t))
            )
            c = acc.get(st, 0) + cs * ct
            acc[st] = c % modulus if modulus else c
    return {nf: c for nf, c in acc.items() if c != 0}


def algebra_probe(lib, rng, tiny: bool) -> list[Op]:
    """Small algebra elements over Q and F_p: products, associativity and
    bounded right division with known yes / no / unknown targets."""
    fields = (("Q", lib.algebra.Field.rationals(), None), ("Fp", lib.algebra.Field.prime(PRIME), PRIME))
    return [op for tag, field, modulus in fields for op in _field_ops(lib, rng, tiny, tag, field, modulus)]


def _field_ops(lib, rng, tiny: bool, tag: str, field, modulus: Optional[int]) -> list[Op]:
    algebra, groups = lib.algebra, lib.groups
    caps = TINY_DIVIDE_CAPS if tiny else DIVIDE_CAPS
    shapes = TINY_MUL_SHAPES if tiny else MUL_SHAPES
    max_len = TINY_SUPPORT_LEN if tiny else SUPPORT_LEN
    ops: list[Op] = []

    def element(support):
        return algebra.from_terms(field, [(nf, _coefficient(rng, modulus)) for nf in support])

    def product_of(f, g):
        return algebra.from_terms(field, own_product(groups, modulus, f.terms, g.terms).items())

    def mul_op(f, g) -> Op:
        def run(t):
            t.note("algebra.alg_mul.monoid_products", len(f.terms) * len(g.terms))
            return t.call("algebra.alg_mul", algebra.alg_mul, f, g, tag=tag)

        def check(result) -> Optional[str]:
            want = own_product(groups, modulus, f.terms, g.terms)
            return _expect(dict(result.terms) == want, f"alg_mul disagrees with the embedding ({tag})")

        return Op("alg_mul", run, check)

    def assoc_op(f, g, h) -> Op:
        def mul(t, x, y):
            t.note("algebra.alg_mul.monoid_products", len(x.terms) * len(y.terms))
            return t.call("algebra.alg_mul", algebra.alg_mul, x, y, tag=tag)

        def run(t):
            return mul(t, mul(t, f, g), h), mul(t, f, mul(t, g, h))

        def check(result) -> Optional[str]:
            left, right = result
            return _expect(left == right, f"alg_mul is not associative on a triple ({tag})")

        return Op("assoc", run, check)

    def divides_op(f, g, cap: int, target: str) -> Op:
        def run(t):
            result = t.call("algebra.divides_right", algebra.divides_right, f, g, cap, tag=tag, size=cap)
            t.note("algebra.divides_right.decided", int(result.status in ("yes", "no")))
            return result

        def check(result) -> Optional[str]:
            if result.status == "yes":
                got = own_product(groups, modulus, f.terms, result.cofactor.terms)
                return _expect(got == dict(g.terms), f"divides_right cofactor fails to multiply back ({tag})")
            if result.status == "no":
                return _expect(
                    _obstructed(groups, f, g), f"divides_right said no without an obstruction ({tag})"
                )
            return _expect(target == "unknown", f"divides_right gave up on a {target} target ({tag})")

        return Op(f"divides_{target}", run, check)

    for nf, ng in shapes:
        ops.append(mul_op(element(_support(groups, rng, nf, max_len, 3)),
                          element(_support(groups, rng, ng, max_len, 3))))
    for _ in range(2):
        f, g, h = (element(_support(groups, rng, 3, max_len, 2)) for _ in range(3))
        ops.append(assoc_op(f, g, h))
    for cap in caps:
        # yes: g = f*h with h inside the search space of the probe
        f = element(_support(groups, rng, 2, max_len, 2))
        h = element(_support(groups, rng, 2, cap, 2))
        ops.append(divides_op(f, product_of(f, h), cap, "yes"))
        # no: an a-degree obstruction, or a monomial that does not divide
        if cap % 2:
            f = element(_support(groups, rng, 2, max_len, 3))
            g = element(_support(groups, rng, 2, max_len, 1))
        else:
            f, g = _non_dividing_monomials(groups, rng, max_len)
            f, g = element([f]), element([g])
        ops.append(divides_op(f, g, cap, "no"))
        # unknown: a product perturbed by one extra long term
        f = element(_support(groups, rng, 2, max_len, 2))
        h = element(_support(groups, rng, 2, cap, 2))
        extra = element(_support(groups, rng, 1, max_len, 2))
        ops.append(divides_op(f, algebra.alg_add(product_of(f, h), extra), cap, "unknown"))
    return ops


def _a_degree(terms) -> int:
    return max(nf.letters().count("a") for nf, _ in terms)


def _left_divides(groups, s, t) -> bool:
    quotient = groups.g_mul(groups.g_inv(groups.embed_normal_form(s)), groups.embed_normal_form(t))
    return groups.parse_membership(quotient) is not None


def _obstructed(groups, f, g) -> bool:
    """An independent proof that g is not in f * (algebra)."""
    if _a_degree(f.terms) > _a_degree(g.terms):
        return True
    if len(f.terms) == 1 and len(g.terms) == 1:
        return not _left_divides(groups, f.terms[0][0], g.terms[0][0])
    return False


def _non_dividing_monomials(groups, rng, max_len: int):
    while True:
        s = canonical(groups, rng.choices("ab", k=rng.randint(1, max_len)))
        t = canonical(groups, rng.choices("ab", k=rng.randint(1, max_len)))
        if not _left_divides(groups, s, t):
            return s, t


# ---------------------------------------------------------------------------
# certify-sweep


#: The README's command-line examples with the first output line the README
#: shows for them (None where it shows none).  ``lenfn-check`` exits 1.
README_COMMANDS = (
    ('normalize "b a a b"', 0, "a^2"),
    ('equal "b a a b" "a a"', 0, "equal: a^2 vs a^2"),
    ('atom "b a a"', 0, "composite: b^1 * a^2"),
    ('lengths "a a" --cap 12', 0, "{2,4,6,8,10,12}"),
    ("accp --depth 20", 0, None),
    ('in-all-sbn "a a b"', 0, "yes: a^2 b^1 = (e) * a^2 * b^1"),
    ('alg mul "1 * b" "1 * a^2 b^1"', 0, "1 * a^2"),
    ('alg divides "1 * b^1 a^2" "1 * a^2" --cap 4', 0, None),
    ("growth --family two-relator --n-max 12", 0, None),
    ("skew-check --config qplane:q=2 --pairs 1000 --seed 1", 0, None),
    ("filt-check --pairs 500", 0, None),
    ("lenfn-check --candidate a-count", 1, None),
    ("pi-demo --steps 25", 0, None),
)


@dataclass(frozen=True)
class CertifySizes:
    accp_depths: tuple[int, ...]
    length_caps: tuple[int, ...]
    growth_n: dict
    oracle_n: int
    refutation_bound: int
    skew_triples: int
    law_pairs: int
    ore_degrees: tuple[int, ...]
    peel_steps: tuple[int, ...]
    cli_pairs: Optional[int]  # None: the README's own pair counts


CERTIFY = CertifySizes(
    accp_depths=(25, 50, 100, 200),
    length_caps=(12, 14, 16, 18, 20, 22),
    growth_n={"free": 14, "two-relator": 14, "free-commutative": 40},
    oracle_n=10,
    refutation_bound=40,
    skew_triples=40,
    law_pairs=150,
    ore_degrees=(4, 7, 10, 14, 20),
    peel_steps=(50, 100, 200, 400),
    cli_pairs=None,
)
TINY_CERTIFY = CertifySizes(
    accp_depths=(5, 10, 20),
    length_caps=(12, 14),
    growth_n={"free": 8, "two-relator": 8, "free-commutative": 8},
    oracle_n=6,
    refutation_bound=4,
    skew_triples=4,
    law_pairs=10,
    ore_degrees=(2, 3, 4),
    peel_steps=(5, 10, 20),
    cli_pairs=20,
)

#: A word whose congruence class keeps growing with the cap.
LENGTH_WORD = "a^3 b a a b a^3 b"


def two_relator_counts(n_max: int) -> list[int]:
    """Elements of each length, from c_n = c_{n-1} + c_{n-2} + c_{n-4} + 2
    (the 1 - z - z^2 - z^4 recurrence of the canonical-form language)."""
    counts = [1, 2, 4, 8]
    while len(counts) <= n_max:
        counts.append(counts[-1] + counts[-2] + counts[-4] + 2)
    return counts[: n_max + 1]


def growth_closed_form(family: str, n: int) -> int:
    if family == "free":
        return 2 ** (n + 1) - 1
    if family == "free-commutative":
        return (n + 1) * (n + 2) // 2
    return sum(two_relator_counts(n))


def _laurent_text(coeffs: dict) -> str:
    return " + ".join(f"{c}*x^{i}*y^{j}" for (i, j), c in sorted(coeffs.items()))


def _random_laurent(rng, x_min: int) -> dict:
    coeffs: dict = {}
    while not coeffs:
        for _ in range(rng.randint(1, 3)):
            key = (rng.randint(x_min, x_min + 1), rng.randint(-2, 2))
            coeffs[key] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
    return coeffs


def certify_sweep(lib, rng, tiny: bool) -> list[Op]:
    """The paper's certified claims through public calls, at acceptance sizes
    and larger, plus every README command through ``cli.main``."""
    words, groups, monoid, lengths = lib.words, lib.groups, lib.monoid, lib.lengths
    growth, ore, xy_poly, pi_matrix, cli = lib.growth, lib.ore, lib.xy_poly, lib.pi_matrix, lib.cli
    sizes = TINY_CERTIFY if tiny else CERTIFY
    ops: list[Op] = []

    for depth in sizes.accp_depths:

        def run(t, depth=depth):
            return t.call("monoid.verify_accp_failure", monoid.verify_accp_failure, depth, size=depth)

        def check(witness, depth=depth) -> Optional[str]:
            chain = [groups.NormalForm(k, (), 2) for k in range(depth + 1)]
            return _expect(
                witness.depth == depth
                and [element for element, _ in witness.chain] == chain
                and all(cof == groups.NormalForm(1, (), 0) for _, cof in witness.chain),
                f"accp chain of depth {depth} is not b^k a^2 with cofactor b",
            )

        ops.append(Op("accp", run, check))

    for text in ("a a", LENGTH_WORD):
        for cap in sizes.length_caps:

            def run(t, text=text, cap=cap):
                w = t.call("words.parse_word", words.parse_word, text, groups.ALPHABET, size=cap)
                t.note("monoid.normalize.letters", len(w))
                x = t.call("monoid.normalize", monoid.normalize, w)
                report = t.call("monoid.length_set", monoid.length_set, x, cap, size=cap)
                t.note("monoid.length_set.exhausted", int(report.exhausted))
                return report

            def check(report, text=text, cap=cap) -> Optional[str]:
                if text == "a a":
                    want = frozenset(range(2, cap + 1, 2))
                    return _expect(report.lengths == want, f"lengths(a^2, {cap}) is not the even numbers")
                shortest = canonical(groups, words.parse_word(text, groups.ALPHABET).letters).length
                return _expect(
                    min(report.lengths) == shortest
                    and max(report.lengths) <= cap
                    and all((n - shortest) % 2 == 0 for n in report.lengths),
                    f"lengths({text}, {cap}) break parity or minimality",
                )

            ops.append(Op("length_set", run, check))

    for _ in range(4):
        head = rng.choices("ab", k=6)
        i = rng.randint(0, 4)
        x = canonical(groups, head + ["a", "a"] + ["b"] * i)

        def run(t, x=x):
            return t.call("monoid.divisible_by_all_b_powers", monoid.divisible_by_all_b_powers, x)

        def check(result, x=x) -> Optional[str]:
            if not result.forever:
                return "an element u a^2 b^i was not found in every right ideal of a b-power"
            certificate = result.cofactor.letters() + ("a", "a") + ("b",) * result.exponent
            return _expect(canonical(groups, certificate) == x, "b-power certificate does not multiply back")

        ops.append(Op("in_all_sbn", run, check))

    letter_values = {
        "word-length": lambda letters: len(letters),
        "a-count": lambda letters: letters.count("a"),
        "a-plus-b-count": lambda letters: len(letters),
    }
    triples = monoid.right_length_refutation_triples(sizes.refutation_bound)
    for name, evaluator in monoid.CANDIDATE_LENGTH_FUNCTIONS.items():
        spec = lengths.LengthFunctionSpec(evaluator, lengths.RIGHT, lambda nf: nf.is_identity(), name)
        value = letter_values[name]
        expected = sum(
            1
            for whole, left, right in triples
            if right.letters() and value(whole.letters()) <= value(left.letters())
        )
        ops.append(_contract_op(lengths, spec, triples, monoid.multiply, expected, name))
    for config in ("weyl", "qplane:q=2"):
        _, sd = ore.parse_config(config)
        skew = []
        for _ in range(sizes.skew_triples):
            g = ore.random_ore(rng, sd, nonzero=True)
            h = ore.random_ore(rng, sd, nonzero=True)
            while h.is_unit():
                h = ore.random_ore(rng, sd, nonzero=True)
            skew.append((ore.ore_mul(g, h), g, h))
        spec = lengths.LengthFunctionSpec(ore.lambda_skew, lengths.RIGHT, lambda f: f.is_unit(), config)
        ops.append(_contract_op(lengths, spec, skew, ore.ore_mul, 0, config))

    for family, n in sizes.growth_n.items():

        def run(t, family=family, n=n):
            table = t.call("growth.builtin_table", growth.builtin_table, family, n, tag=family, size=n)
            return table, t.call("growth.classify", growth.classify, table, tag=family)

        def check(result, family=family, n=n) -> Optional[str]:
            table, hint = result
            exact = table.entries == tuple((k, growth_closed_form(family, k)) for k in range(n + 1))
            wrong_kind = "exponential" if family == "free-commutative" else "polynomial"
            return _expect(exact, f"{family} growth table differs from its closed form") or _expect(
                hint.kind != wrong_kind, f"{family} table classified {hint.kind}"
            )

        ops.append(Op("growth", run, check))

    def run_oracle(t, n=sizes.oracle_n):
        return t.call("growth.two_relator_table_by_oracle", growth.two_relator_table_by_oracle, n, size=n)

    def check_oracle(table, n=sizes.oracle_n) -> Optional[str]:
        want = tuple((k, growth_closed_form("two-relator", k)) for k in range(n + 1))
        return _expect(table.entries == want, "oracle two-relator table differs from the recurrence")

    ops.append(Op("growth_oracle", run_oracle, check_oracle))

    law_seed = rng.randrange(2**31)
    for config in ("weyl", "qplane:q=2", "qtorus:q=2"):
        tag = config.split(":")[0]

        def run(t, config=config, tag=tag):
            return t.call("ore.check_skew_laws", ore.check_skew_laws, config, sizes.law_pairs, law_seed, tag=tag)

        def check(result, config=config) -> Optional[str]:
            return _expect(
                result.trials == sizes.law_pairs and result.ok(), f"skew-law violations in {config}"
            )

        ops.append(Op("skew_laws", run, check))

    def run_filtration(t):
        return t.call(
            "ore.check_filtration_additivity", ore.check_filtration_additivity, sizes.law_pairs, law_seed
        )

    def check_filtration(result) -> Optional[str]:
        return _expect(result == (sizes.law_pairs, 0), f"filtration additivity failed: {result}")

    ops.append(Op("filtration", run_filtration, check_filtration))

    weyl = ore.weyl()
    for degree in sizes.ore_degrees:
        f, g = (
            ore.ore_from_coeffs([ore.random_poly(rng, nonzero=True) for _ in range(degree + 1)], weyl)
            for _ in range(2)
        )

        def run(t, f=f, g=g, degree=degree):
            return t.call("ore.ore_mul", ore.ore_mul, f, g, size=degree)

        def check(p, f=f, g=g, degree=degree) -> Optional[str]:
            return _expect(
                _weyl_terms(p.coeffs) == weyl_product(f.coeffs, g.coeffs),
                f"ore_mul at x-degree {degree} disagrees with the Leibniz-rule product",
            )

        ops.append(Op("ore_mul", run, check))

    for steps in sizes.peel_steps:
        while True:
            entries = [_random_laurent(rng, 0), _random_laurent(rng, 1), _random_laurent(rng, 0), _random_laurent(rng, 1)]
            start = pi_matrix.Mat2(*(xy_poly.LaurentPoly2.from_dict(e) for e in entries))
            if not start.det().is_zero():
                break
        texts = [_laurent_text(e) for e in entries]

        def run(t, texts=texts, steps=steps):
            parsed = [t.call("xy_poly.parse_laurent_poly", xy_poly.parse_laurent_poly, s) for s in texts]
            m = pi_matrix.Mat2(*parsed)
            chain = t.call("pi_matrix.peel_chain", _peel_all, pi_matrix, m, steps, size=steps)
            t.note("pi_matrix.peel_chain.steps", len(chain))
            unit_power = t.call("pi_matrix.power", pi_matrix.power, pi_matrix.PEEL_UNIT, steps, size=steps)
            return m, chain, unit_power

        def check(result, start=start, steps=steps) -> Optional[str]:
            m, chain, unit_power = result
            if m != start:
                return "parse_laurent_poly misread a matrix entry"
            shift = xy_poly.LaurentPoly2.term(0, -steps)
            rest = chain[-1].remainder
            return _expect(
                len(chain) == steps
                and rest == pi_matrix.Mat2(start.a11, start.a12, start.a21 * shift, start.a22 * shift)
                and unit_power * rest == start,
                f"peeling chain of {steps} steps does not multiply back",
            )

        ops.append(Op("peel_chain", run, check))

    for command, exit_code, first_line in README_COMMANDS:
        argv = shlex.split(command)
        if sizes.cli_pairs is not None and "--pairs" in argv:
            argv[argv.index("--pairs") + 1] = str(sizes.cli_pairs)

        def run(t, argv=argv, exit_code=exit_code):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = t.call("cli.main", cli.main, argv, tag=argv[0])
            t.note("cli.main.exit_mismatch", int(code != exit_code))
            return code, out.getvalue()

        def check(result, command=command, exit_code=exit_code, first_line=first_line) -> Optional[str]:
            code, text = result
            if code != exit_code:
                return f"`factorlab {command}` exited {code}, expected {exit_code}"
            lines = text.splitlines()
            if not lines:
                return f"`factorlab {command}` printed nothing"
            return _expect(
                first_line is None or lines[0].startswith(first_line),
                f"`factorlab {command}` printed {lines[0]!r}",
            )

        ops.append(Op("cli", run, check))
    return ops


def _weyl_terms(coeffs) -> dict:
    """{(x power, y power): coefficient} of sum_i x^i a_i(y), zeros left out."""
    return {(i, n): c for i, a in enumerate(coeffs) for n, c in enumerate(a.coeffs) if c}


def weyl_product(f_coeffs, g_coeffs) -> dict:
    """Product of two Weyl-algebra elements sum_i x^i a_i and sum_j x^j b_j,
    as {(x power, y power): coefficient}.

    The commutation rule a x = x a + a' gives, by induction on j, the
    Leibniz form a x^j = sum_k C(j, k) x^(j-k) a^(k), which this expands
    term by term in plain Fraction arithmetic; ``ore.ore_mul`` instead
    applies the rule one x at a time.
    """
    acc: dict = {}
    for i, a in enumerate(f_coeffs):
        for j, b in enumerate(g_coeffs):
            for k in range(min(j, len(a.coeffs) - 1) + 1):
                scale = math.comb(j, k)
                for n in range(k, len(a.coeffs)):
                    # the y^n term of a, differentiated k times
                    c = scale * math.perm(n, k) * a.coeffs[n]
                    for m, d in enumerate(b.coeffs):
                        key = (i + j - k, n - k + m)
                        acc[key] = acc.get(key, 0) + c * d
    return {key: c for key, c in acc.items() if c}


def _peel_all(pi_matrix, m, steps: int) -> list:
    return list(pi_matrix.peel_chain(m, steps))


def _contract_op(lengths, spec, triples, multiply, expected: int, name: str) -> Op:
    def run(t):
        report = t.call(
            "lengths.check_contract", lengths.check_contract, spec, triples, multiply, lambda x, y: x == y
        )
        t.note("lengths.check_contract.violations", len(report.violations))
        return report

    def check(report) -> Optional[str]:
        return _expect(
            len(report.violations) == expected and report.sample_size == len(triples),
            f"check_contract({name}) found {len(report.violations)} violations, expected {expected}",
        )

    return Op("check_contract", run, check)


WORKLOADS = {
    "words-long": words_long,
    "algebra-probe": algebra_probe,
    "certify-sweep": certify_sweep,
}
