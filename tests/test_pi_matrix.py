import random

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
from factorlab.xy_poly import ONE, ZERO, LaurentPoly2, parse_laurent_poly

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
