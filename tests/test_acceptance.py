"""Acceptance sweep: one test per headline criterion, zero tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import time

from factorlab import groups, growth, monoid, ore, pi_matrix
from factorlab.groups import NormalForm
from word_reference import enumerate_words


def _criterion(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_oracle_equivalence():
    started = time.monotonic()
    by_normal_form = {}
    by_embedding = {}
    words = 0
    for word in enumerate_words(groups.ALPHABET, 10):
        words += 1
        by_normal_form.setdefault(monoid.normalize(word), []).append(word.letters)
        by_embedding.setdefault(groups.embed(word), []).append(word.letters)
    agree = sorted(by_normal_form.values()) == sorted(by_embedding.values())
    elapsed = time.monotonic() - started
    _criterion(
        1,
        f"normalize-equality == embedding-equality on all {words} words of length <= 10 "
        f"({elapsed:.2f}s)",
        words == 2047 and agree and elapsed < 60.0,
    )


def test_criterion_02_normal_form_round_trip():
    forms = list(monoid.enumerate_elements(12))
    failures = 0
    images = set()
    for nf in forms:
        image = groups.embed_normal_form(nf)
        if groups.parse_membership(image) != nf:
            failures += 1
        images.add(image)
    _criterion(
        2,
        f"round trip and injectivity on all {len(forms)} canonical forms of length <= 12",
        failures == 0 and len(images) == len(forms),
    )


def test_criterion_03_accp_failure_chain():
    witness = monoid.verify_accp_failure(20)
    strict = 0
    for k in range(20):
        element, _ = witness.chain[k]
        nxt, cofactor = witness.chain[k + 1]
        included = groups.left_quotient(nxt.word(), element.word()) == cofactor
        reverse_fails = groups.left_quotient(element.word(), nxt.word()) is None
        if included and reverse_fails:
            strict += 1
    _criterion(3, "20 strict inclusions, each an exact division pair", strict == 20)


def test_criterion_04_length_set_of_a_squared():
    report = monoid.length_set(NormalForm(0, (), 2), 12)
    _criterion(
        4,
        f"lengths(a^2, cap=12) == {{2,4,6,8,10,12}} (got {set(report.lengths)})",
        report.lengths == frozenset({2, 4, 6, 8, 10, 12}),
    )


def test_criterion_05_atom_structure():
    atoms = set()
    units = set()
    for nf in monoid.enumerate_elements(6):
        verdict = monoid.is_atom(nf)
        if verdict.kind == "atom":
            atoms.add(nf)
        elif verdict.kind == "unit":
            units.add(nf)
    expected_atoms = {NormalForm(0, (), 1), NormalForm(1, (), 0)}
    _criterion(
        5,
        "atoms among elements of length <= 6 are exactly {a, b}; the empty word "
        "is the unique unit",
        atoms == expected_atoms and units == {NormalForm()},
    )


def test_criterion_06_no_right_length_function():
    refuted = {}
    for name, evaluator in monoid.CANDIDATE_LENGTH_FUNCTIONS.items():
        report, bound = monoid.refute_right_length(evaluator)
        refuted[name] = (not report.ok()) and bound == evaluator(NormalForm(0, (), 2)) + 1
    _criterion(
        6,
        f"all three candidate length functions refuted within n <= lambda(a^2)+1 "
        f"({sorted(refuted)})",
        all(refuted.values()) and len(refuted) == 3,
    )


def test_criterion_07_skew_length_functions():
    started = time.monotonic()
    results = [
        ore.check_skew_laws(config, 1000, seed=20240 + i)
        for i, config in enumerate(("weyl", "qplane:q=2", "qtorus:q=2"))
    ]
    elapsed = time.monotonic() - started
    _criterion(
        7,
        f"1000 random pairs per configuration: zero right-length and zero "
        f"leading-law violations ({elapsed:.1f}s)",
        all(r.ok() for r in results) and elapsed < 30.0,
    )


def test_criterion_08_filtration_additivity():
    trials, violations = ore.check_filtration_additivity(500, seed=7)
    _criterion(
        8,
        "total degree exactly additive on 500 random Weyl-algebra pairs",
        trials == 500 and violations == 0,
    )


def test_criterion_09_growth_baselines():
    free = growth.builtin_table("free", 16)
    commutative = growth.builtin_table("free-commutative", 16)
    free_exact = all(d == 2 ** (n + 1) - 1 for n, d in free.entries)
    commutative_exact = all(2 * d == (n + 1) * (n + 2) for n, d in commutative.entries)
    tuples = growth.builtin_table("two-relator", 10)
    oracle = growth.two_relator_table_by_oracle(10)
    _criterion(
        9,
        "baseline tables exact for n <= 16; the two dim V^n computations for the "
        "two-relator monoid agree for n <= 10",
        free_exact and commutative_exact and tuples.entries == oracle.entries,
    )


def test_criterion_10_matrix_peeling_chain():
    start = pi_matrix.demo_matrix()
    steps = list(pi_matrix.peel_chain(start, 25))
    ok = len(steps) == 25
    for step in steps:
        ok = ok and pi_matrix.in_ring(step.remainder)
        ok = ok and pi_matrix.is_special_form(step.remainder)
        ok = ok and not step.remainder.det().is_zero()
        ok = ok and pi_matrix.in_ring(step.cofactor)
        ok = ok and not pi_matrix.in_ring(pi_matrix.PEEL_UNIT_INVERSE)
        ok = ok and step.cofactor * step.remainder == (
            steps[step.index - 2].remainder if step.index > 1 else start
        )
        ok = ok and pi_matrix.power(pi_matrix.PEEL_UNIT, step.index) * step.remainder == start
    _criterion(
        10,
        "25-step peeling chain keeps membership, special shape, nonzero determinant, "
        "nonunit cofactor, and exact products",
        ok,
    )
