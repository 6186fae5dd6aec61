import math
import random
from fractions import Fraction

import pytest

from factorlab.ore import (
    Y,
    ZERO_POLY,
    LaurentOrePoly,
    OrePoly,
    Poly,
    SigmaDelta,
    base_weight,
    check_filtration_additivity,
    check_skew_laws,
    lambda_filtration,
    lambda_laurent,
    lambda_skew,
    laurent,
    laurent_lowest_law_holds,
    laurent_mul,
    leading_law_holds,
    ore_from_coeffs,
    ore_mul,
    ore_zero,
    parse_config,
    quantum_plane,
    random_laurent,
    random_ore,
    random_poly,
    weyl,
)

ONE_POLY = Poly.of(1)
WEYL = weyl()
QPLANE = quantum_plane(2)
TWISTS = (weyl(), quantum_plane(3), SigmaDelta("shift"))


def ore_add(f: OrePoly, g: OrePoly) -> OrePoly:
    """Reference sum for the distributivity tests: add right coefficients."""
    n = max(len(f.coeffs), len(g.coeffs))
    out = [ZERO_POLY] * n
    for h in (f, g):
        for i, c in enumerate(h.coeffs):
            out[i] = out[i] + c
    return ore_from_coeffs(out, f.sd)


def laurent_add(f: LaurentOrePoly, g: LaurentOrePoly) -> LaurentOrePoly:
    """Reference sum for the distributivity tests: add coefficients by exponent."""
    acc = dict(f.coeffs)
    for e, c in g.coeffs:
        acc[e] = acc.get(e, ZERO_POLY) + c
    return laurent(acc, f.sd)


def _reference_mul(f: OrePoly, g: OrePoly) -> OrePoly:
    """The former ore_mul: rebuild a_i * x^j from scratch for every pair."""

    def base_times_x_power(a, j, sd):
        vec = [a]
        for _ in range(j):
            new = [ZERO_POLY] * (len(vec) + 1)
            for m, c in enumerate(vec):
                if c.is_zero():
                    continue
                new[m + 1] = new[m + 1] + sd.apply_sigma(c)
                new[m] = new[m] + sd.apply_delta(c)
            vec = new
        return vec

    if f.is_zero() or g.is_zero():
        return ore_zero(f.sd)
    out = [ZERO_POLY] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(g.coeffs):
            if b.is_zero():
                continue
            for m, c in enumerate(base_times_x_power(a, j, f.sd)):
                if not c.is_zero():
                    out[i + m] = out[i + m] + c * b
    return ore_from_coeffs(out, f.sd)


def _dense_ore(rnd, sd, n):
    return ore_from_coeffs([random_poly(rnd, nonzero=True) for _ in range(n)], sd)


def _random_ore_up_to(rnd, sd, max_deg_x):
    return ore_from_coeffs([random_poly(rnd) for _ in range(rnd.randint(0, max_deg_x + 1))], sd)


def test_base_poly_arithmetic():
    p = Poly.of(1, 2)  # 1 + 2y
    q = Poly.of(0, 0, 1)  # y^2
    assert (p * q).coeffs == (0, 0, 1, 2)
    assert (p + q).coeffs == (1, 2, 1)
    assert p.derivative() == Poly.of(2)
    assert Poly.of(1, 0, 1).shift_argument(1) == Poly.of(2, 2, 1)  # (y+1)^2 + 1
    assert Poly.of(0, 1, 1).scale_argument(Fraction(2)) == Poly.of(0, 2, 4)
    assert base_weight(Poly.of(5)) == 0
    with pytest.raises(ValueError):
        base_weight(ZERO_POLY)


def test_sigma_delta_validation():
    with pytest.raises(ValueError):
        SigmaDelta("scale", "ddy", Fraction(2))
    with pytest.raises(ValueError):
        SigmaDelta("twist")
    with pytest.raises(ValueError):
        SigmaDelta("scale", "zero", Fraction(0))


def test_sigma_derivation_law_in_the_weyl_algebra():
    rnd = random.Random(0)
    for _ in range(100):
        p, q = random_poly(rnd), random_poly(rnd)
        lhs = WEYL.apply_delta(p * q)
        rhs = WEYL.apply_sigma(p) * WEYL.apply_delta(q) + WEYL.apply_delta(p) * q
        assert lhs == rhs


def test_sigma_preserves_units_and_nonunits():
    rnd = random.Random(1)
    for sd in (SigmaDelta("shift"), QPLANE):
        for _ in range(100):
            p = random_poly(rnd, nonzero=True)
            assert sd.apply_sigma(p).is_unit() == p.is_unit()


def test_weyl_commutation():
    y = ore_from_coeffs([Y], WEYL)
    x = ore_from_coeffs([ZERO_POLY, ONE_POLY], WEYL)
    assert ore_mul(y, x) == ore_from_coeffs([ONE_POLY, Y], WEYL)  # x*y + 1
    assert ore_mul(x, y) == ore_from_coeffs([ZERO_POLY, Y], WEYL)


def test_quantum_plane_commutation():
    y = ore_from_coeffs([Y], QPLANE)
    x = ore_from_coeffs([ZERO_POLY, ONE_POLY], QPLANE)
    assert ore_mul(y, x) == ore_from_coeffs([ZERO_POLY, Poly.of(0, 2)], QPLANE)


def test_mul_identity_and_descriptor_mismatch():
    rnd = random.Random(2)
    f = random_ore(rnd, WEYL, nonzero=True)
    one = ore_from_coeffs([ONE_POLY], WEYL)
    assert ore_mul(f, one) == f == ore_mul(one, f)
    with pytest.raises(ValueError):
        ore_mul(f, ore_from_coeffs([ZERO_POLY, ONE_POLY], QPLANE))


def test_lambda_skew_examples():
    y = ore_from_coeffs([Y], WEYL)
    x = ore_from_coeffs([ZERO_POLY, ONE_POLY], WEYL)
    assert lambda_skew(ore_mul(y, x)) == 2
    assert lambda_skew(ore_from_coeffs([Poly.of(7)], WEYL)) == 0
    assert lambda_skew(ore_from_coeffs([ZERO_POLY, ZERO_POLY, ONE_POLY], WEYL)) == 2
    with pytest.raises(ValueError):
        lambda_skew(ore_zero(WEYL))


def test_lambda_filtration_examples():
    y = ore_from_coeffs([Y], WEYL)
    x = ore_from_coeffs([ZERO_POLY, ONE_POLY], WEYL)
    yx = ore_mul(y, x)
    assert lambda_filtration(yx) == 2
    assert lambda_filtration(ore_from_coeffs([Poly.of(3)], WEYL)) == 0
    assert lambda_filtration(ore_mul(yx, yx)) == 4
    with pytest.raises(ValueError):
        lambda_filtration(ore_from_coeffs([ZERO_POLY, ONE_POLY], QPLANE))


def test_right_length_law_random():
    rnd = random.Random(3)
    for sd in (WEYL, QPLANE):
        done = 0
        while done < 200:
            g = random_ore(rnd, sd, nonzero=True)
            h = random_ore(rnd, sd, nonzero=True)
            if h.is_unit():
                continue
            product = ore_mul(g, h)
            assert lambda_skew(product) > lambda_skew(g)
            assert leading_law_holds(product, g, h)
            done += 1


def test_laurent_examples():
    qt = QPLANE
    assert lambda_laurent(laurent({-1: ONE_POLY, 1: ONE_POLY}, qt)) == 2
    assert lambda_laurent(laurent({5: ONE_POLY}, qt)) == 0
    assert lambda_laurent(laurent({-2: Y}, qt)) == 1
    with pytest.raises(ValueError):
        lambda_laurent(laurent({}, qt))
    with pytest.raises(ValueError):
        LaurentOrePoly(((0, ONE_POLY),), WEYL)  # derivation is not allowed


def test_laurent_units():
    qt = QPLANE
    assert laurent({5: Poly.of(3)}, qt).is_unit()
    assert not laurent({5: Y}, qt).is_unit()
    assert not laurent({0: ONE_POLY, 1: ONE_POLY}, qt).is_unit()


def test_laurent_ring_laws_random():
    rnd = random.Random(4)
    qt = QPLANE
    for _ in range(150):
        f, g, h = (random_laurent(rnd, qt) for _ in range(3))
        assert laurent_mul(laurent_mul(f, g), h) == laurent_mul(f, laurent_mul(g, h))
        assert laurent_mul(laurent_add(f, g), h) == laurent_add(
            laurent_mul(f, h), laurent_mul(g, h)
        )
    done = 0
    while done < 200:
        g = random_laurent(rnd, qt, nonzero=True)
        h = random_laurent(rnd, qt, nonzero=True)
        if h.is_unit():
            continue
        product = laurent_mul(g, h)
        assert lambda_laurent(product) > lambda_laurent(g)
        assert laurent_lowest_law_holds(product, g, h)
        done += 1


def test_filtration_additivity_random():
    trials, violations = check_filtration_additivity(200, seed=5)
    assert (trials, violations) == (200, 0)


def test_bf_bound_for_products_of_nonunits():
    # k nonunit factors force lambda(product) >= k
    rnd = random.Random(6)
    for sd in (WEYL, QPLANE):
        for _ in range(50):
            k = rnd.randint(1, 4)
            factors = []
            while len(factors) < k:
                f = random_ore(rnd, sd, nonzero=True)
                if not f.is_unit():
                    factors.append(f)
            product = factors[0]
            for f in factors[1:]:
                product = ore_mul(product, f)
            assert lambda_skew(product) >= k
            if sd == WEYL:
                assert lambda_filtration(product) >= k


def test_check_skew_laws_deterministic():
    first = check_skew_laws("weyl", 100, seed=9)
    second = check_skew_laws("weyl", 100, seed=9)
    assert first == second
    assert first.ok()
    torus = check_skew_laws("qtorus:q=2", 100, seed=9)
    assert torus.ok()


def test_parse_config():
    kind, sd = parse_config("weyl")
    assert kind == "poly" and sd == WEYL
    kind, sd = parse_config("qplane:q=3")
    assert kind == "poly" and sd.q == 3
    kind, sd = parse_config("qtorus")
    assert kind == "laurent" and sd.q == 2
    with pytest.raises(ValueError):
        parse_config("qplane:r=2")
    with pytest.raises(ValueError):
        parse_config("heisenberg")


def test_ore_add_and_display():
    f = ore_from_coeffs([Poly.of(Fraction(1, 2)), ZERO_POLY, Poly.of(1, 1)], WEYL)
    g = ore_add(f, ore_from_coeffs([Poly.of(Fraction(1, 2))], WEYL))
    assert g.coeffs[0] == ONE_POLY
    assert "x^2" in f.display()
    assert OrePoly((), WEYL).display() == "0"


def test_ore_mul_matches_reference_product():
    rnd = random.Random(10)
    for sd in TWISTS:
        for _ in range(60):
            f = _random_ore_up_to(rnd, sd, 11)
            g = _random_ore_up_to(rnd, sd, 11)
            assert ore_mul(f, g) == _reference_mul(f, g), sd


def test_ore_ring_laws_random():
    rnd = random.Random(11)
    for sd in TWISTS:
        for _ in range(40):
            f, g, h = (_random_ore_up_to(rnd, sd, 4) for _ in range(3))
            assert ore_mul(ore_mul(f, g), h) == ore_mul(f, ore_mul(g, h)), sd
            assert ore_mul(ore_add(f, g), h) == ore_add(ore_mul(f, h), ore_mul(g, h)), sd
            assert ore_mul(f, ore_add(g, h)) == ore_add(ore_mul(f, g), ore_mul(f, h)), sd


@pytest.mark.parametrize("n", [9, 21])
@pytest.mark.parametrize("sd", [weyl(), quantum_plane(3)], ids=["weyl", "qplane"])
def test_ore_mul_sigma_applications_are_bounded(monkeypatch, sd, n):
    # pushing f * x^j one x at a time costs O((deg f + deg g) * deg g)
    # applications of the rule; rebuilding a * x^j per pair costs far more
    calls = 0
    apply_sigma = SigmaDelta.apply_sigma

    def counting(self, p, k=1):
        nonlocal calls
        calls += 1
        return apply_sigma(self, p, k)

    rnd = random.Random(n)
    f, g = _dense_ore(rnd, sd, n), _dense_ore(rnd, sd, n)
    monkeypatch.setattr(SigmaDelta, "apply_sigma", counting)
    ore_mul(f, g)
    assert 0 < calls <= (len(f.coeffs) + len(g.coeffs)) * len(g.coeffs)


def test_poly_kernel_stays_exact():
    def exact(p):
        return all(type(c) is Fraction for c in p.coeffs)

    p, q = Poly.of(1, -2, 3), Poly.of(Fraction(1, 2), 0, 0, 5)
    assert all(exact(r) for r in (p + q, q + p, p * q, p.derivative(), q.derivative()))
    assert exact(p.scale_argument(Fraction(3))) and exact(p.scale_argument(Fraction(3) ** -2))
    assert p.scale_argument(Fraction(3) ** -2) == Poly.of(1, Fraction(-2, 9), Fraction(3, 81))
    assert exact(QPLANE.apply_sigma(q, -3))
    assert SigmaDelta("scale", "zero", 3).apply_sigma(Poly.of(1, 1), -1) == Poly.of(1, Fraction(1, 3))
    rnd = random.Random(12)
    for sd in TWISTS:
        f, g = _dense_ore(rnd, sd, 5), _dense_ore(rnd, sd, 5)
        assert all(exact(c) for c in ore_mul(f, g).coeffs)
    assert (Poly.of(1, 1) + Poly.of(0, -1)).coeffs == (Fraction(1),)
    assert (Poly.of(1, 1) + Poly.of(-1, -1)).is_zero()


def _ref_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return Poly(tuple(coeffs))


def _ref_add(p, q):
    n = max(len(p.coeffs), len(q.coeffs))
    pad = lambda r: list(r.coeffs) + [Fraction(0)] * (n - len(r.coeffs))
    return _ref_trim(a + b for a, b in zip(pad(p), pad(q)))


def _ref_mul(p, q):
    if not p.coeffs or not q.coeffs:
        return ZERO_POLY
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return _ref_trim(out)


def _ref_shift(p, k):
    # y^m coefficient of sum_i c_i (y + k)^i is sum_i c_i C(i, m) k^(i - m)
    return _ref_trim(
        sum((c * math.comb(i, m) * Fraction(k) ** (i - m) for i, c in enumerate(p.coeffs) if i >= m), Fraction(0))
        for m in range(len(p.coeffs))
    )


def _random_fraction_poly(rnd, max_len=6):
    return Poly.of(*(Fraction(rnd.randint(-6, 6), rnd.randint(1, 12)) for _ in range(rnd.randint(0, max_len))))


def test_poly_kernel_matches_plain_fraction_reference():
    def same(got, want):
        assert got == want and hash(got) == hash(want)
        assert all(type(c) is Fraction for c in got.coeffs)
        assert not got.coeffs or got.coeffs[-1] != 0

    rnd = random.Random(13)
    for _ in range(400):
        p, q = _random_fraction_poly(rnd), _random_fraction_poly(rnd)
        if p.coeffs and rnd.random() < 0.3:
            # q ends in minus the top of p, so p + q has trailing zeros to trim
            q = Poly.of(*(Fraction(rnd.randint(-1, 1), rnd.randint(1, 12)) for _ in p.coeffs[1:]), -p.leading())
        same(p + q, _ref_add(p, q))
        same(p - p, ZERO_POLY)
        same(p * q, _ref_mul(p, q))
        same(p.derivative(), _ref_trim(i * c for i, c in enumerate(p.coeffs) if i))
        k = rnd.randint(-3, 3)
        same(p.shift_argument(k), _ref_shift(p, k))
        s = Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 5), rnd.randint(1, 4)) ** rnd.randint(-3, 3)
        same(p.scale_argument(s), _ref_trim(c * s**i for i, c in enumerate(p.coeffs)))
