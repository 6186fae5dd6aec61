import math
import random
from fractions import Fraction

import pytest

from factorlab.pi_matrix import (
    IDENTITY,
    PEEL_UNIT,
    PEEL_UNIT_INVERSE,
    Mat2,
    demo_matrix,
    in_ring,
    is_special_form,
    parse_matrix,
    peel,
    peel_chain,
    power,
)
from factorlab.xy_poly import MAX_COEFF_BITS, ONE, ZERO, LaurentPoly2, parse_laurent_poly

X = LaurentPoly2.term(1, 0)
Y = LaurentPoly2.term(0, 1)
Y_INV = LaurentPoly2.term(0, -1)


def test_membership_examples():
    assert in_ring(PEEL_UNIT)  # diag(1, y)
    assert not in_ring(PEEL_UNIT_INVERSE)  # diag(1, y^-1): negative pure-y power
    assert in_ring(IDENTITY)
    # the bottom-right entry may hide y^-1 behind an x
    assert in_ring(Mat2(ONE, ZERO, ZERO, X * Y_INV))
    assert not in_ring(Mat2(ONE, Y, ZERO, ONE))  # top-right must be divisible by x


def test_special_form_examples():
    assert is_special_form(Mat2(ONE, X, ONE, X * Y))
    assert not is_special_form(IDENTITY)
    degenerate = Mat2(ONE, X, ONE, X)  # det = x - x = 0
    assert degenerate.det().is_zero()
    assert not is_special_form(degenerate)


def test_special_form_implies_membership():
    rnd = random.Random(0)
    for _ in range(50):
        m = Mat2(
            random_poly(rnd), random_poly(rnd) * X, random_poly(rnd), random_poly(rnd) * X
        )
        if is_special_form(m):
            assert in_ring(m)


def random_poly(rnd, terms=2):
    acc = ZERO
    for _ in range(rnd.randint(0, terms)):
        acc = acc + LaurentPoly2.term(rnd.randint(0, 2), rnd.randint(-2, 2), rnd.randint(-3, 3) or 1)
    return acc


def test_peel_example():
    unit, rest = peel(demo_matrix())
    assert unit == PEEL_UNIT
    assert rest == Mat2(ONE, X, Y_INV, X)
    assert unit * rest == demo_matrix()
    assert rest.det() == demo_matrix().det() * Y_INV


def test_peel_rejects_non_special_input():
    with pytest.raises(ValueError):
        peel(IDENTITY)


def test_peel_chain_ten_steps():
    steps = list(peel_chain(demo_matrix(), 10))
    assert len(steps) == 10
    for step in steps:
        assert in_ring(step.remainder)
        assert is_special_form(step.remainder)
        assert not step.remainder.det().is_zero()
    # determinant picks up one inverse power of y per step
    assert steps[-1].remainder.det() == demo_matrix().det() * power_of_y_inv(10)


def test_peel_chain_forms_each_product_once(monkeypatch):
    start = demo_matrix()
    products = 0
    multiply = LaurentPoly2.__mul__

    def counting(p, q):
        nonlocal products
        products += 1
        return multiply(p, q)

    monkeypatch.setattr(LaurentPoly2, "__mul__", counting)
    assert len(list(peel_chain(start, 25))) == 25
    assert products <= 14 * 25


def power_of_y_inv(k):
    out = ONE
    for _ in range(k):
        out = out * Y_INV
    return out


def test_peel_chain_cumulative_reconstruction():
    start = demo_matrix()
    for step in peel_chain(start, 12):
        assert power(PEEL_UNIT, step.index) * step.remainder == start


def test_ring_closed_under_operations():
    rnd = random.Random(1)
    members = []
    while len(members) < 20:
        m = Mat2(
            random_poly(rnd),
            random_poly(rnd) * X,
            random_poly(rnd),
            random_poly(rnd) * X + pure_y(rnd),
        )
        assert in_ring(m)
        members.append(m)
    for _ in range(200):
        a, b = rnd.choice(members), rnd.choice(members)
        assert in_ring(a + b)
        assert in_ring(a * b)


def pure_y(rnd):
    acc = ZERO
    for _ in range(rnd.randint(0, 2)):
        acc = acc + LaurentPoly2.term(0, rnd.randint(0, 3), rnd.randint(-2, 2) or 1)
    return acc


def test_determinant_multiplicative():
    rnd = random.Random(2)
    for _ in range(100):
        a = Mat2(*(random_poly(rnd) for _ in range(4)))
        b = Mat2(*(random_poly(rnd) for _ in range(4)))
        assert (a * b).det() == a.det() * b.det()


def test_matrix_literal():
    m = parse_matrix("1; x; 1; x*y")
    assert m == demo_matrix()
    with pytest.raises(ValueError):
        parse_matrix("1; x; 1")
    fancy = parse_matrix("y^-2 + 1; x^2*y; 3/2; x*y^-5")
    assert in_ring(fancy)


def test_xy_poly_guards():
    with pytest.raises(ValueError):
        LaurentPoly2.term(-1, 0)  # x is not invertible
    with pytest.raises(ValueError):
        parse_laurent_poly("x^-1")
    with pytest.raises(ValueError):
        parse_laurent_poly("")
    with pytest.raises(ValueError):
        parse_laurent_poly("(y+1)^-1")
    assert parse_laurent_poly("(y+1)^2") == parse_laurent_poly("y^2 + 2*y + 1")
    assert parse_laurent_poly("-y + 3") == parse_laurent_poly("3 - y")


def test_literal_work_is_bounded():
    # y^k forms k products, so the term-product budget refuses it instead of
    # multiplying on; a zero base still counts one product per factor
    for text in ("y^300000", "0^1000000000000", "y^-1000000000000"):
        with pytest.raises(ValueError, match="term products"):
            parse_laurent_poly(text)
    assert parse_laurent_poly("y^1000") == LaurentPoly2.term(0, 1000)


def _ref_element(acc):
    return LaurentPoly2(tuple(sorted((k, c) for k, c in acc.items() if c != 0)))


def _ref_sum(f, g, sign=1):
    acc = dict(f.terms)
    for key, c in g.terms:
        acc[key] = acc.get(key, Fraction(0)) + sign * c
    return _ref_element(acc)


def _ref_product(f, g):
    acc = {}
    for (i1, j1), c1 in f.terms:
        for (i2, j2), c2 in g.terms:
            acc[(i1 + i2, j1 + j2)] = acc.get((i1 + i2, j1 + j2), Fraction(0)) + c1 * c2
    return _ref_element(acc)


def _random_fraction_laurent(rnd):
    return LaurentPoly2.from_dict(
        {
            (rnd.randint(0, 2), rnd.randint(-2, 2)): Fraction(rnd.randint(-6, 6), rnd.randint(1, 12))
            for _ in range(rnd.randint(0, 5))
        }
    )


def test_laurent_kernel_matches_plain_fraction_reference():
    def same(got, want):
        assert got == want and hash(got) == hash(want)
        assert all(type(c) is Fraction and c != 0 for _, c in got.terms)
        keys = [key for key, _ in got.terms]
        assert keys == sorted(set(keys))

    rnd = random.Random(14)
    for _ in range(400):
        f, g = _random_fraction_laurent(rnd), _random_fraction_laurent(rnd)
        if rnd.random() < 0.3:
            # g cancels part of f, so sums and differences drop terms
            g = LaurentPoly2(tuple((k, -c) for k, c in f.terms[::2])) + g
        same(f + g, _ref_sum(f, g))
        same(f - g, _ref_sum(f, g, sign=-1))
        same(f - f, ZERO)
        same(f * g, _ref_product(f, g))


def test_power_squares(monkeypatch):
    products = 0
    multiply = Mat2.__mul__

    def counting(a, b):
        nonlocal products
        products += 1
        return multiply(a, b)

    monkeypatch.setattr(Mat2, "__mul__", counting)
    assert power(PEEL_UNIT, 400) == Mat2(ONE, ZERO, ZERO, LaurentPoly2.term(0, 400))
    assert products <= 2 * math.ceil(math.log2(400))


def test_power_matches_repeated_products():
    rnd = random.Random(15)
    with pytest.raises(ValueError):
        power(PEEL_UNIT, -1)
    tried = 0
    while tried < 4:
        m = Mat2(random_poly(rnd, 1), random_poly(rnd, 1) * X, random_poly(rnd, 1), random_poly(rnd, 1) * X)
        if not is_special_form(m):
            continue
        tried += 1
        want = IDENTITY
        for k in range(21):
            assert power(m, k) == want, k
            want = want * m


def test_literal_coefficients_are_bounded():
    # each of these asks for a numerator or denominator past MAX_COEFF_BITS
    for text in (
        "(3/7)^20000",
        "2^50000",
        "((((((2^10)^10)^10)^10)^10)^10)",
        "(((2^-10)^-10)^-10)^-10",
        "1" * 5000,
        f"1/{2**MAX_COEFF_BITS}",
        "(2^4000 + y)^2",
    ):
        with pytest.raises(ValueError, match="bits"):
            parse_laurent_poly(text)
    # the power check is sound: results within the bound still parse
    assert parse_laurent_poly(f"2^{MAX_COEFF_BITS - 1}") == LaurentPoly2.constant(2 ** (MAX_COEFF_BITS - 1))
    assert parse_laurent_poly("(3/7)^1459*y^-2") == LaurentPoly2.term(0, -2, Fraction(3, 7) ** 1459)
    assert parse_laurent_poly(f"-{2**MAX_COEFF_BITS - 1}") == LaurentPoly2.constant(1 - 2**MAX_COEFF_BITS)
    assert parse_laurent_poly("(1/2)^-100") == LaurentPoly2.constant(2**100)
