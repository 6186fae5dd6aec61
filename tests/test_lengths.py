import random
from fractions import Fraction

import pytest

from factorlab import monoid, ore
from factorlab.groups import NormalForm
from factorlab.lengths import RIGHT, LengthFunctionSpec, ViolationReport, check_contract
from factorlab.monoid import length_set, multiply


def free_triples(rnd, count):
    """Random factorizations in the free monoid on two letters, as strings."""
    triples = []
    for _ in range(count):
        left = "".join(rnd.choice("ab") for _ in range(rnd.randint(0, 6)))
        right = "".join(rnd.choice("ab") for _ in range(rnd.randint(0, 6)))
        triples.append((left + right, left, right))
    return triples


def poly_mul(p: ore.Poly, q: ore.Poly) -> ore.Poly:
    """Product in Q[y] on plain ``Fraction`` coefficients (nonzero operands)."""
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return ore.Poly(tuple(out))


FREE_OPS = dict(multiply=lambda u, v: u + v, equals=lambda u, v: u == v)


def test_word_length_is_a_length_function_on_the_free_monoid():
    rnd = random.Random(1)
    samples = free_triples(rnd, 100)
    spec = LengthFunctionSpec(len, RIGHT, lambda word: len(word) == 0)
    assert check_contract(spec, samples, **FREE_OPS).ok()


def test_degree_is_a_length_function_on_polynomials():
    rnd = random.Random(2)
    samples = []
    while len(samples) < 80:
        f = ore.random_poly(rnd, nonzero=True)
        g = ore.random_poly(rnd, nonzero=True)
        samples.append((poly_mul(f, g), f, g))
    # Q[y] is a domain, so the y-degree is additive on products
    for fg, f, g in samples:
        assert ore.base_weight(fg) == ore.base_weight(f) + ore.base_weight(g)
    spec = LengthFunctionSpec(ore.base_weight, RIGHT, ore.Poly.is_unit)
    assert check_contract(spec, samples, poly_mul, lambda p, q: p == q).ok()


def test_zero_function_fails_on_a_nonunit():
    zero = LengthFunctionSpec(lambda _: 0, RIGHT, lambda word: len(word) == 0)
    a, e = "a", ""
    # a = a * e passes vacuously: the right factor is a unit ...
    assert check_contract(zero, [(a, a, e)], **FREE_OPS).ok()
    # ... but a = e * a needs lambda(a) > lambda(e), which 0 > 0 is not
    report = check_contract(zero, [(a, e, a)], **FREE_OPS)
    assert [v["reason"] for v in report.as_dict(str)["violations"]] == ["no strict drop against right factor"]


def test_bad_triple_is_an_input_error():
    spec = LengthFunctionSpec(len, RIGHT, lambda word: len(word) == 0)
    bad = [("a", "b", "")]
    with pytest.raises(ValueError):
        check_contract(spec, bad, **FREE_OPS)


def test_negative_values_rejected():
    spec = LengthFunctionSpec(lambda _: -1, RIGHT, lambda word: len(word) == 0)
    with pytest.raises(ValueError):
        check_contract(spec, [("a", "", "a")], **FREE_OPS)


def test_flavor_validation():
    # only the right contract is implemented; any other flavour is refused
    for flavor in ("sideways", "two-sided", "superadditive"):
        with pytest.raises(ValueError, match="flavor must be 'right'"):
            LengthFunctionSpec(len, flavor, lambda _: False)


def test_right_length_functions_are_positive_on_nonunits():
    rnd = random.Random(4)
    samples = free_triples(rnd, 50)
    spec = LengthFunctionSpec(len, RIGHT, lambda word: len(word) == 0)
    assert check_contract(spec, samples, **FREE_OPS).ok()
    for whole, left, right in samples:
        for element in (whole, left, right):
            if len(element) > 0:
                assert spec.evaluator(element) > 0


def test_bf_bound_on_polynomials():
    # y^2 - 1 = (y - 1)(y + 1): two atoms, degree two, so the observed
    # factorization length respects the bound max L <= deg
    y2m1 = ore.Poly((Fraction(-1), Fraction(0), Fraction(1)))
    factors = (ore.Poly((Fraction(-1), Fraction(1))), ore.Poly((Fraction(1), Fraction(1))))
    assert poly_mul(*factors) == y2m1
    assert not any(ore.Poly.is_unit(f) for f in factors)
    assert len(factors) <= ore.base_weight(y2m1) == 2
    spec = LengthFunctionSpec(ore.base_weight, RIGHT, ore.Poly.is_unit)
    assert check_contract(spec, [(y2m1, *factors)], poly_mul, lambda p, q: p == q).ok()


def test_monoid_has_no_right_length_function():
    # the executable content of the no-BF statement: every candidate dies on
    # the b-bordered triple family, and a^2 is a product of every even number
    # of atoms (lengths probed to 20; a bound would be needed for BF)
    for name, evaluator in monoid.CANDIDATE_LENGTH_FUNCTIONS.items():
        report, bound = monoid.refute_right_length(evaluator)
        assert not report.ok(), name
    report = length_set(NormalForm(0, (), 2), 20)
    assert tuple(report.sorted_lengths()) == tuple(range(2, 21, 2))
    assert not report.exhausted


def test_report_json_schema():
    spec = LengthFunctionSpec(
        lambda nf: nf.a_count, RIGHT, NormalForm.is_identity, "a-count"
    )
    triples = monoid.right_length_refutation_triples(3)
    report = check_contract(
        spec, triples, multiply=multiply, equals=lambda x, y: x == y
    )
    doc = report.as_dict(lambda nf: nf.display())
    assert doc["contract"] == RIGHT
    assert doc["samples"] == len(triples)
    assert doc["violations"], "the a-count candidate must be refuted"
    first = doc["violations"][0]
    assert set(first) == {"a", "b", "c", "lambda_a", "lambda_b", "lambda_c", "reason"}


def test_report_ok_shape():
    report = ViolationReport(0, ())
    assert report.ok()
    assert report.as_dict(str) == {"contract": RIGHT, "samples": 0, "violations": []}
