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
    peel_chain,
    power,
)
from factorlab.xy_poly import MAX_COEFF_BITS, MAX_TERM_PRODUCTS, ONE, ZERO, LaurentPoly2, _Parser, parse_laurent_poly

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


def peel(m):
    """One certified peeling step, the per-step reference for ``peel_chain``:
    split a special-form m as diag(1, y) * rest, rest being m with its second
    row scaled by 1/y, and check that rest is in the ring and special-form
    and that PEEL_UNIT * rest == m."""
    refusal = "peel requires the special form (second column in xS, det != 0)"
    if not (m.a12.divisible_by_x() and m.a22.divisible_by_x()):
        raise ValueError(refusal)
    rest = Mat2(m.a11, m.a12, m.a21 * Y_INV, m.a22 * Y_INV)
    if not is_special_form(rest):
        raise ValueError(refusal)
    assert in_ring(rest) and PEEL_UNIT * rest == m
    return PEEL_UNIT, rest


def test_peel_example():
    unit, rest = peel(demo_matrix())
    assert unit == PEEL_UNIT
    assert rest == Mat2(ONE, X, Y_INV, X)
    assert unit * rest == demo_matrix()
    assert rest.det() == demo_matrix().det() * Y_INV


def test_peel_rejects_non_special_input():
    with pytest.raises(ValueError, match="second column in xS"):
        list(peel_chain(IDENTITY, 1))
    # second column in xS but det = x - x = 0
    with pytest.raises(ValueError, match="det != 0"):
        list(peel_chain(Mat2(ONE, X, ONE, X), 1))
    # refused before the first step, whatever the number of steps
    with pytest.raises(ValueError, match="det != 0"):
        next(peel_chain(Mat2(ONE, X, ONE, X), 50))


def _random_special_forms(count):
    rnd = random.Random(25)
    found = []
    while len(found) < count:
        m = Mat2(
            LaurentPoly2.from_dict(_random_fraction_dict(rnd)),
            LaurentPoly2.from_dict(_random_fraction_dict(rnd)) * X,
            LaurentPoly2.from_dict(_random_fraction_dict(rnd)),
            LaurentPoly2.from_dict(_random_fraction_dict(rnd)) * X,
        )
        if is_special_form(m):
            found.append(m)
    return found


def test_peel_chain_matches_the_per_step_reference():
    # the closed form rest_k = diag(1, y^-k) * m against peeling one step at
    # a time, each step certified on its own, at every k = 1..50
    golden = parse_matrix("1/2 + 3/7*y; 2/3*x; -5/4*y^-1; 1/6*x*y - 1/9*x")
    for start in [demo_matrix(), golden, *_random_special_forms(20)]:
        current = start
        for step in peel_chain(start, 50):
            unit, current = peel(current)
            assert unit == PEEL_UNIT and step.remainder == current, step.index
            assert step.remainder.det() == start.det() * LaurentPoly2.term(0, -step.index)
        assert step.index == 50


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
    products = 0
    multiply = LaurentPoly2.__mul__

    def counting(p, q):
        nonlocal products
        products += 1
        return multiply(p, q)

    monkeypatch.setattr(LaurentPoly2, "__mul__", counting)
    for steps in (1, 7, 25):
        products = 0
        assert len(list(peel_chain(demo_matrix(), steps))) == steps
        # per step: two monomial row shifts; per chain: the determinant's three
        assert products <= 2 * steps + 3


def test_peel_chain_forms_one_determinant_per_chain(monkeypatch):
    calls = 0
    det = Mat2.det

    def counting(m):
        nonlocal calls
        calls += 1
        return det(m)

    monkeypatch.setattr(Mat2, "det", counting)
    for steps in (1, 7, 25):
        calls = 0
        assert len(list(peel_chain(demo_matrix(), steps))) == steps
        assert calls == 1


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
        assert in_ring(Mat2(*(p + q for p, q in zip(a.entries(), b.entries()))))
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
    # every construction checks the stored form: sorted distinct keys and
    # nonzero numerators over a positive denominator, reduced by their gcd
    for num, den in ((0, 1), (2, 4), (1, 0), (1, -1)):
        with pytest.raises(ValueError):
            LaurentPoly2((((0, 0), num),), den)
    for keys in (((0, 1), (0, 0)), ((1, 0), (0, 5)), ((0, 0), (0, 0))):
        with pytest.raises(ValueError, match="sorted and distinct"):
            LaurentPoly2(tuple((key, 1) for key in keys))
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


def _neg(p):
    """-p (``LaurentPoly2`` keeps no negation: no command needs one)."""
    return LaurentPoly2(tuple((k, -n) for k, n in p.nums), p.den)


def _sub(f, g):
    return f + _neg(g)


def _plain(p):
    """The element as a plain {(i, j): Fraction} dict."""
    return dict(p.terms)


def _ref_sum(f, g, sign=1):
    acc = dict(f)
    for key, c in g.items():
        acc[key] = acc.get(key, Fraction(0)) + sign * c
    return acc


def _ref_product(f, g):
    acc = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            acc[(i1 + i2, j1 + j2)] = acc.get((i1 + i2, j1 + j2), Fraction(0)) + c1 * c2
    return acc


def _random_fraction_dict(rnd):
    return {
        (rnd.randint(0, 2), rnd.randint(-2, 2)): Fraction(rnd.randint(-6, 6), rnd.randint(1, 12))
        for _ in range(rnd.randint(0, 5))
    }


def _random_fraction_laurent(rnd):
    return LaurentPoly2.from_dict(_random_fraction_dict(rnd))


def _same(got, want):
    """``got`` equals the plain-Fraction dict ``want`` term by term, and is
    stored in the one reduced form: sorted distinct keys, nonzero int
    numerators, den >= 1 and gcd(den, numerators) = 1."""
    assert got.terms == tuple(sorted((k, c) for k, c in want.items() if c))
    assert got == LaurentPoly2.from_dict(want) and hash(got) == hash(LaurentPoly2.from_dict(want))
    keys = [key for key, _ in got.nums]
    assert keys == sorted(set(keys))
    assert all(type(n) is int and n != 0 for _, n in got.nums)
    assert type(got.den) is int and got.den >= 1
    assert math.gcd(got.den, *[n for _, n in got.nums]) == 1


def test_laurent_kernel_matches_plain_fraction_reference():
    rnd = random.Random(14)
    for _ in range(400):
        f, g = _random_fraction_laurent(rnd), _random_fraction_laurent(rnd)
        if rnd.random() < 0.3:
            # g cancels part of f, so sums and differences drop terms
            g = LaurentPoly2.from_dict({k: -c for k, c in f.terms[::2]}) + g
        _same(f + g, _ref_sum(_plain(f), _plain(g)))
        _same(_sub(f, g), _ref_sum(_plain(f), _plain(g), sign=-1))
        _same(_sub(f, f), {})
        _same(f * g, _ref_product(_plain(f), _plain(g)))


def test_single_term_products_match_plain_fraction_reference():
    rnd = random.Random(16)
    coefficients = (Fraction(1), Fraction(-1), Fraction(3, 7))
    for _ in range(400):
        f = _random_fraction_laurent(rnd)
        t = LaurentPoly2.term(rnd.randint(0, 3), rnd.randint(-4, 3), rnd.choice(coefficients))
        want = _ref_product(_plain(f), _plain(t))
        _same(f * t, want)
        _same(t * f, want)
        _same(t * t, _ref_product(_plain(t), _plain(t)))
        _same(t * ZERO, {})
        _same(ZERO * t, {})


def test_product_by_one_returns_the_other_operand():
    rnd = random.Random(17)
    one = parse_laurent_poly("1")  # equal to ONE, not the same object
    for _ in range(50):
        f = _random_fraction_laurent(rnd)
        if f.nums:
            assert f * ONE is f and ONE * f is f and f * one is f and one * f is f


def test_determinant_matches_plain_fraction_reference():
    rnd = random.Random(24)
    zeros = 0
    for case in range(400):
        if case % 4 == 0:
            # rank one, entries u_r * v_c: det = 0 once the products cancel
            u1, u2, v1, v2 = (_random_fraction_dict(rnd) for _ in range(4))
            entries = [_ref_product(u, v) for u in (u1, u2) for v in (v1, v2)]
        else:
            entries = [_random_fraction_dict(rnd) for _ in range(4)]
        a11, a12, a21, a22 = entries
        want = _ref_sum(_ref_product(a11, a22), _ref_product(a12, a21), sign=-1)
        _same(Mat2(*(LaurentPoly2.from_dict(e) for e in entries)).det(), want)
        zeros += not any(want.values())
    assert zeros >= 100


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
    assert parse_laurent_poly(f"2^{MAX_COEFF_BITS - 1}") == LaurentPoly2.term(0, 0, 2 ** (MAX_COEFF_BITS - 1))
    assert parse_laurent_poly("(3/7)^1459*y^-2") == LaurentPoly2.term(0, -2, Fraction(3, 7) ** 1459)
    assert parse_laurent_poly(f"-{2**MAX_COEFF_BITS - 1}") == LaurentPoly2.term(0, 0, 1 - 2**MAX_COEFF_BITS)
    assert parse_laurent_poly("(1/2)^-100") == LaurentPoly2.term(0, 0, 2**100)


def _power_by_products(parser, base, k):
    """The parser's former ``t^k`` for k >= 0: k charged products."""
    out = ONE
    for _ in range(k):
        out = parser.mul(out, base)
    return out


def _outcome(parser, run):
    try:
        return run(), parser.work
    except ValueError as exc:
        return str(exc)


def test_single_term_power_is_charged_as_repeated_products():
    bases = (X, Y, Y_INV, LaurentPoly2.term(2, -3, Fraction(-3, 7)), LaurentPoly2.term(0, 0, Fraction(5, 2)), _neg(ONE))
    for base in bases:
        for k in range(31):
            fast, slow = _Parser([]), _Parser([])
            assert fast.power(base, k) == _power_by_products(slow, base, k), (base, k)
            assert fast.work == slow.work == k


def test_single_term_power_refuses_as_repeated_products():
    # 3^k passes MAX_COEFF_BITS at k = 2585 and 2^k at k = 4096; with the
    # budget nearly spent, whichever limit repeated products hit first decides
    assert (3**2584).bit_length() <= MAX_COEFF_BITS < (3**2585).bit_length()
    for base, k in ((LaurentPoly2.term(0, 0, 3), 3000), (LaurentPoly2.term(0, 0, 2), 4000), (Y, 5000)):
        for spent in (0, 96000, 97000, 97300, 97415, 97416, 97500, 98000, MAX_TERM_PRODUCTS):
            fast, slow = _Parser([]), _Parser([])
            fast.work = slow.work = spent
            got = _outcome(fast, lambda: fast.power(base, k))
            assert got == _outcome(slow, lambda: _power_by_products(slow, base, k)), (base, k, spent)


def _long_sum(terms):
    """The literal sum of ``1/p*x^(i%7)*y^(i%5-2)`` over the first ``terms``
    primes p (35 keys), and its plain-Fraction sum per key."""
    sieve = bytearray([1]) * 60000
    primes = []
    for n in range(2, len(sieve)):
        if sieve[n]:
            primes.append(n)
            sieve[n * n :: n] = bytes(len(sieve[n * n :: n]))
    assert len(primes) >= terms
    text = " + ".join(f"1/{p}*x^{i % 7}*y^{i % 5 - 2}" for i, p in enumerate(primes[:terms]))
    want = {}
    for i, p in enumerate(primes[:terms]):
        key = (i % 7, i % 5 - 2)
        want[key] = want.get(key, Fraction(0)) + Fraction(1, p)
    return text, want


def test_a_long_sum_matches_the_fraction_reference():
    # each summand updates one key's reduced Fraction, so adding a term never
    # rescales the whole partial sum over the lcm of all its denominators;
    # tests/test_complexity.py bounds the parser's steps on a long sum
    text, want = _long_sum(6000)
    assert max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in want.values()) <= MAX_COEFF_BITS
    assert parse_laurent_poly(text).terms == tuple(sorted(want.items()))
