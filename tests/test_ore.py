import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

import factorlab.ore as ore_module
from factorlab.ore import (
    LawCheckResult,
    OrePoly,
    Poly,
    SigmaDelta,
    base_weight,
    check_filtration_additivity,
    check_skew_laws,
    lambda_skew,
    ore_from_coeffs,
    ore_mul,
    parse_config,
    quantum_plane,
    random_ore,
    random_poly,
    weyl,
)


def _ref_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return Poly(tuple(coeffs))


def _poly(*values) -> Poly:
    """The polynomial sum_i values[i] y^i."""
    return _ref_trim(map(Fraction, values))


ZERO_POLY = Poly()
ONE_POLY = _poly(1)
Y = _poly(0, 1)
WEYL = weyl()
QPLANE = quantum_plane(2)
TWISTS = (weyl(), quantum_plane(3), quantum_plane(Fraction(-3, 4)))


def lambda_filtration(f: OrePoly) -> int:
    """Reference total degree in x and y on ``OrePoly`` objects (Weyl only)."""
    if f.sd != weyl():
        raise ValueError("the filtration length is defined for the Weyl configuration")
    if f.is_zero():
        raise ValueError("length of the zero element is undefined")
    return max(i + base_weight(c) for i, c in enumerate(f.coeffs) if not c.is_zero())


def leading_law_holds(product: OrePoly, f: OrePoly, g: OrePoly) -> bool:
    """Reference top-coefficient identity of a product f*g on ``OrePoly``
    objects: lead(f*g) = sigma^{deg g}(lead f) * lead g."""
    if f.is_zero() or g.is_zero():
        return product.is_zero()
    l = len(g.coeffs) - 1
    expected = _ref_mul(apply_sigma(f.sd, f.leading(), l), g.leading())
    return len(product.coeffs) == len(f.coeffs) + len(g.coeffs) - 1 and product.leading() == expected


def _ddy(p: Poly) -> Poly:
    """d/dy through the row core that ore_mul applies."""
    den = ore_module._denominator(p.coeffs)
    return ore_module._from_numerators(ore_module._ddy_row(ore_module._numerators(p.coeffs, den)), den)


def ore_add(f: OrePoly, g: OrePoly) -> OrePoly:
    """Reference sum for the distributivity tests: add right coefficients."""
    n = max(len(f.coeffs), len(g.coeffs))
    out = [ZERO_POLY] * n
    for h in (f, g):
        for i, c in enumerate(h.coeffs):
            out[i] = _ref_add(out[i], c)
    return ore_from_coeffs(out, f.sd)


def apply_sigma(sd: SigmaDelta, p: Poly, k: int = 1) -> Poly:
    """Reference sigma^k: y -> q^k y in plain ``Fraction`` arithmetic."""
    if sd.q == 1:
        return p
    return _ref_trim(c * sd.q ** (k * i) for i, c in enumerate(p.coeffs))


def _sigma_rows(sd: SigmaDelta, p: Poly, k: int) -> Poly:
    """sigma^k through the row core ``_sigma_power`` of the product and the laws."""
    if not p.coeffs:
        return p
    den = ore_module._denominator(p.coeffs)
    factors, gained = ore_module._sigma_power(sd, k, len(p.coeffs) - 1)
    row = ore_module._numerators(p.coeffs, den)
    if factors is not None:
        row = ore_module._scale_row(row, factors)
    return ore_module._from_numerators(row, den * gained)


def _row_mul(p: Poly, q: Poly) -> Poly:
    """p * q through the row convolution ``_mul_row`` of the laws."""
    if not p.coeffs or not q.coeffs:
        return ZERO_POLY
    den_p, den_q = ore_module._denominator(p.coeffs), ore_module._denominator(q.coeffs)
    row = ore_module._mul_row(ore_module._numerators(p.coeffs, den_p), ore_module._numerators(q.coeffs, den_q))
    return ore_module._from_numerators(row, den_p * den_q)


# ---------------------------------------------------------------------------
# reference skew Laurent layer on plain-Fraction objects, f = sum_i x^i a_i
# with i in Z: the qtorus audit's object path before it ran on integer rows


@dataclass(frozen=True)
class LaurentOrePoly:
    coeffs: tuple[tuple[int, Poly], ...]  # sorted by exponent, nonzero coeffs
    sd: SigmaDelta

    def window(self) -> tuple[int, int]:
        return self.coeffs[0][0], self.coeffs[-1][0]

    def lowest(self) -> Poly:
        return self.coeffs[0][1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_unit(self) -> bool:
        # units are scalar multiples of powers of x
        return len(self.coeffs) == 1 and self.coeffs[0][1].is_unit()


def laurent(coeffs: dict[int, Poly], sd: SigmaDelta) -> LaurentOrePoly:
    return LaurentOrePoly(tuple(sorted((e, c) for e, c in coeffs.items() if not c.is_zero())), sd)


def laurent_mul(f: LaurentOrePoly, g: LaurentOrePoly) -> LaurentOrePoly:
    acc: dict[int, Poly] = {}
    for i, a in f.coeffs:
        for j, b in g.coeffs:
            # a * x^j = x^j * sigma^j(a)
            acc[i + j] = _ref_add(acc.get(i + j, ZERO_POLY), _ref_mul(apply_sigma(f.sd, a, j), b))
    return laurent(acc, f.sd)


def laurent_add(f: LaurentOrePoly, g: LaurentOrePoly) -> LaurentOrePoly:
    """Reference sum for the distributivity tests: add coefficients by exponent."""
    acc = dict(f.coeffs)
    for e, c in g.coeffs:
        acc[e] = _ref_add(acc.get(e, ZERO_POLY), c)
    return laurent(acc, f.sd)


def lambda_laurent(f: LaurentOrePoly) -> int:
    """Support-window width plus y-degree of the lowest coefficient."""
    lo, hi = f.window()
    return hi - lo + base_weight(f.lowest())


def laurent_lowest_law_holds(product: LaurentOrePoly, f: LaurentOrePoly, g: LaurentOrePoly) -> bool:
    """low(f*g) = sigma^{min-exp g}(low f) * low g, with the product's window
    starting at the sum of the operands' lowest exponents."""
    mg = g.window()[0]
    expected = _ref_mul(apply_sigma(f.sd, f.lowest(), mg), g.lowest())
    return product.window()[0] == f.window()[0] + mg and product.lowest() == expected


def random_laurent(rng, sd, nonzero=False):
    """Up to 3 terms at x-exponents drawn from -3..3 through ``randint``, as
    the qtorus audit drew them on objects."""
    while True:
        acc = {}
        for _ in range(rng.randint(0, 3)):
            p = _former_random_poly(rng)
            if not p.is_zero():
                e = rng.randint(-3, 3)
                acc[e] = _ref_add(acc.get(e, ZERO_POLY), p)
        f = laurent(acc, sd)
        if not nonzero or not f.is_zero():
            return f


def _laurent_to_rows(f: LaurentOrePoly, den: int = 1) -> tuple[int, list[list[int]]]:
    """(lowest exponent, numerator rows upward over ``den``) of a nonzero element."""
    lo, hi = f.window()
    coeffs = dict(f.coeffs)
    return lo, [ore_module._numerators(coeffs.get(e, ZERO_POLY).coeffs, den) for e in range(lo, hi + 1)]


def _laurent_from_rows(e: int, rows: list[list[int]], den: int, sd: SigmaDelta) -> LaurentOrePoly:
    return laurent({e + i: ore_module._from_numerators(list(row), den) for i, row in enumerate(rows)}, sd)


def row_laurent_mul(f: LaurentOrePoly, g: LaurentOrePoly) -> tuple[LaurentOrePoly, tuple]:
    """f * g as the qtorus audit forms it, one twist of f's rows by sigma^(min
    exp g) and then ``_mul_rows``, on operands brought to integer rows over
    one denominator each; also returns the rows, their denominator and k."""
    den_f = ore_module._denominator([c for _, a in f.coeffs for c in a.coeffs])
    den_g = ore_module._denominator([c for _, b in g.coeffs for c in b.coeffs])
    (e_f, f_rows), (e_g, g_rows) = _laurent_to_rows(f, den_f), _laurent_to_rows(g, den_g)
    twisted, den = ore_module._pretwist(f_rows, e_g, f.sd)
    rows, gained = ore_module._mul_rows(twisted, g_rows, f.sd)
    den *= den_f * den_g * gained
    return _laurent_from_rows(e_f + e_g, rows, den, f.sd), (rows, den, f_rows, g_rows, e_g)


def _reference_mul(f: OrePoly, g: OrePoly) -> OrePoly:
    """The former ore_mul: rebuild a_i * x^j from scratch for every pair,
    with sigma, delta, sums and products in plain ``Fraction`` arithmetic."""

    def sigma(c, sd):
        if sd.q == 1:
            return c
        return _ref_trim(a * sd.q**i for i, a in enumerate(c.coeffs))

    def delta(c, sd):
        if not sd.ddy:
            return ZERO_POLY
        return _ref_trim(i * a for i, a in enumerate(c.coeffs) if i)

    def base_times_x_power(a, j, sd):
        vec = [a]
        for _ in range(j):
            new = [ZERO_POLY] * (len(vec) + 1)
            for m, c in enumerate(vec):
                if c.is_zero():
                    continue
                new[m + 1] = _ref_add(new[m + 1], sigma(c, sd))
                new[m] = _ref_add(new[m], delta(c, sd))
            vec = new
        return vec

    if f.is_zero() or g.is_zero():
        return OrePoly((), f.sd)
    out = [ZERO_POLY] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(g.coeffs):
            if b.is_zero():
                continue
            for m, c in enumerate(base_times_x_power(a, j, f.sd)):
                if not c.is_zero():
                    out[i + m] = _ref_add(out[i + m], _ref_mul(c, b))
    return ore_from_coeffs(out, f.sd)


def _dense_ore(rnd, sd, n):
    return ore_from_coeffs([random_poly(rnd, nonzero=True) for _ in range(n)], sd)


def _random_ore_up_to(rnd, sd, max_deg_x):
    return ore_from_coeffs([random_poly(rnd) for _ in range(rnd.randint(0, max_deg_x + 1))], sd)


def _random_fraction_ore(rnd, sd, max_deg_x):
    return ore_from_coeffs([_random_fraction_poly(rnd, 4) for _ in range(rnd.randint(0, max_deg_x + 1))], sd)


def test_base_poly_arithmetic():
    p = _poly(1, 2)  # 1 + 2y
    q = _poly(0, 0, 1)  # y^2
    assert ore_module._mul_row([1, 2], [0, 0, 1]) == [0, 0, 1, 2]
    assert _row_mul(p, q).coeffs == (0, 0, 1, 2)
    assert _ddy(p) == _poly(2)
    assert _sigma_rows(QPLANE, _poly(0, 1, 1), 1) == _poly(0, 2, 4)
    assert ore_module._sigma_power(quantum_plane(3), -2, 2) == ([81, 9, 1], 81)
    assert ore_module._sigma_power(quantum_plane(Fraction(-3, 4)), -1, 2) == ([9, -12, 16], 9)
    assert ore_module._sigma_power(WEYL, 5, 2) == (None, 1)  # q^k = 1: no factors
    assert ore_module._sigma_power(quantum_plane(-1), 4, 2) == (None, 1)
    assert ore_module._sigma_power(quantum_plane(-1), 3, 2) == ([1, -1, 1], 1)
    assert base_weight(_poly(5)) == 0
    with pytest.raises(ValueError):
        base_weight(ZERO_POLY)


def test_sigma_delta_validation():
    with pytest.raises(ValueError, match="only for the identity"):
        SigmaDelta(Fraction(2), ddy=True)
    with pytest.raises(ValueError, match="invertible"):
        SigmaDelta(Fraction(0))
    # q = 1 is the identity twist, however it is spelled
    assert quantum_plane(1) == SigmaDelta() == SigmaDelta(Fraction(2, 2))
    assert SigmaDelta(1, ddy=True) == weyl()


def test_sigma_derivation_law_in_the_weyl_algebra():
    rnd = random.Random(0)
    for _ in range(100):
        p, q = random_poly(rnd), random_poly(rnd)
        lhs = _ddy(_ref_mul(p, q))
        rhs = _ref_add(_ref_mul(_sigma_rows(WEYL, p, 1), _ddy(q)), _ref_mul(_ddy(p), q))
        assert lhs == rhs


def test_sigma_preserves_units_and_nonunits():
    rnd = random.Random(1)
    for _ in range(100):
        p = random_poly(rnd, nonzero=True)
        for k in (-2, 1, 3):
            assert _sigma_rows(QPLANE, p, k).is_unit() == p.is_unit()


def test_weyl_commutation():
    y = ore_from_coeffs([Y], WEYL)
    x = ore_from_coeffs([ZERO_POLY, ONE_POLY], WEYL)
    assert ore_mul(y, x) == ore_from_coeffs([ONE_POLY, Y], WEYL)  # x*y + 1
    assert ore_mul(x, y) == ore_from_coeffs([ZERO_POLY, Y], WEYL)


def test_quantum_plane_commutation():
    y = ore_from_coeffs([Y], QPLANE)
    x = ore_from_coeffs([ZERO_POLY, ONE_POLY], QPLANE)
    assert ore_mul(y, x) == ore_from_coeffs([ZERO_POLY, _poly(0, 2)], QPLANE)


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
    assert lambda_skew(ore_from_coeffs([_poly(7)], WEYL)) == 0
    assert lambda_skew(ore_from_coeffs([ZERO_POLY, ZERO_POLY, ONE_POLY], WEYL)) == 2
    with pytest.raises(ValueError):
        lambda_skew(OrePoly((), WEYL))


def test_lambda_filtration_examples():
    y = ore_from_coeffs([Y], WEYL)
    x = ore_from_coeffs([ZERO_POLY, ONE_POLY], WEYL)
    yx = ore_mul(y, x)
    assert lambda_filtration(yx) == 2
    assert lambda_filtration(ore_from_coeffs([_poly(3)], WEYL)) == 0
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
    # lambda_laurent on rows reads the bottom row: window width plus its y-degree
    lam = ore_module._lambda_rows
    for f, want in (({-1: ONE_POLY, 1: ONE_POLY}, 2), ({5: ONE_POLY}, 0), ({-2: Y}, 1), ({0: Y, 1: _poly(1, 0, 1)}, 2)):
        element = laurent(f, QPLANE)
        assert lam(_laurent_to_rows(element)[1], 0) == lambda_laurent(element) == want
    assert _laurent_to_rows(laurent({-1: ONE_POLY, 1: Y}, QPLANE)) == (-1, [[1], [], [0, 1]])


def test_laurent_units():
    # lambda_laurent does not drop against a unit c x^e (one constant row),
    # which is why the audit draws h again, and drops against every nonunit
    g = laurent({-1: Y, 2: ONE_POLY}, QPLANE)
    lam = ore_module._lambda_rows
    for h, unit in (({5: _poly(3)}, True), ({-3: _poly(-1)}, True), ({5: Y}, False), ({0: ONE_POLY, 1: ONE_POLY}, False)):
        h = laurent(h, QPLANE)
        assert h.is_unit() == unit
        product, (rows, _, g_rows, _, _) = row_laurent_mul(g, h)
        assert product == laurent_mul(g, h)
        assert (lam(rows, 0) > lam(g_rows, 0)) == (not unit)


def test_laurent_ring_laws_random():
    # the audit's row product is associative and distributive, on integer
    # operands and on the fractional products that q = -3/4 makes
    rnd = random.Random(4)
    for sd in (QPLANE, quantum_plane(Fraction(-3, 4))):
        mul = lambda f, g: row_laurent_mul(f, g)[0] if not (f.is_zero() or g.is_zero()) else laurent({}, sd)
        for _ in range(100):
            f, g, h = (random_laurent(rnd, sd) for _ in range(3))
            assert mul(mul(f, g), h) == mul(f, mul(g, h)), sd
            assert mul(laurent_add(f, g), h) == laurent_add(mul(f, h), mul(g, h)), sd
            assert mul(f, laurent_add(g, h)) == laurent_add(mul(f, g), mul(f, h)), sd
            assert mul(f, g) == laurent_mul(f, g), sd
        done = 0
        while done < 200:
            g = random_laurent(rnd, sd, nonzero=True)
            h = random_laurent(rnd, sd, nonzero=True)
            if h.is_unit():
                continue
            product, (rows, den, g_rows, h_rows, k) = row_laurent_mul(g, h)
            assert ore_module._lambda_rows(rows, 0) > ore_module._lambda_rows(g_rows, 0)
            assert ore_module._law_rows(rows, den, g_rows, h_rows, k, 0, sd)
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


def test_ore_add():
    f = ore_from_coeffs([_poly(Fraction(1, 2)), ZERO_POLY, _poly(1, 1)], WEYL)
    g = ore_add(f, ore_from_coeffs([_poly(Fraction(1, 2))], WEYL))
    assert g.coeffs[0] == ONE_POLY


def test_ore_mul_matches_reference_product():
    rnd = random.Random(10)
    for sd in TWISTS:
        for _ in range(60):
            f = _random_ore_up_to(rnd, sd, 11)
            g = _random_ore_up_to(rnd, sd, 11)
            assert ore_mul(f, g) == _reference_mul(f, g), sd


def test_ore_mul_matches_reference_on_fractional_operands():
    # coefficient denominators, and den(q) = 4 for q = -3/4, exercise the
    # common-denominator bookkeeping of the whole-product kernel
    rnd = random.Random(14)
    for sd in TWISTS:
        for _ in range(180):
            f = _random_fraction_ore(rnd, sd, rnd.choice((2, 6)))
            g = (_random_fraction_ore if rnd.random() < 0.7 else _random_ore_up_to)(rnd, sd, 6)
            got = ore_mul(f, g)
            assert got == _reference_mul(f, g), sd
            assert all(type(c) is Fraction for a in got.coeffs for c in a.coeffs)


def test_ore_ring_laws_random():
    rnd = random.Random(11)
    for sd in TWISTS:
        for _ in range(40):
            f, g, h = (_random_ore_up_to(rnd, sd, 4) for _ in range(3))
            assert ore_mul(ore_mul(f, g), h) == ore_mul(f, ore_mul(g, h)), sd
            assert ore_mul(ore_add(f, g), h) == ore_add(ore_mul(f, h), ore_mul(g, h)), sd
            assert ore_mul(f, ore_add(g, h)) == ore_add(ore_mul(f, g), ore_mul(f, h)), sd
        for _ in range(20):
            f, g, h = (_random_fraction_ore(rnd, sd, 3) for _ in range(3))
            assert ore_mul(ore_mul(f, g), h) == ore_mul(f, ore_mul(g, h)), sd
            assert ore_mul(ore_add(f, g), h) == ore_add(ore_mul(f, h), ore_mul(g, h)), sd


@pytest.mark.parametrize("n", [9, 21])
@pytest.mark.parametrize("sd", [weyl(), quantum_plane(3)], ids=["weyl", "qplane"])
def test_ore_mul_sigma_applications_are_bounded(monkeypatch, sd, n):
    # pushing f * x^j one x at a time costs O((deg f + deg g) * deg g)
    # applications of the rule; rebuilding a * x^j per pair costs far more.
    # Weyl applies d/dy through _ddy_row; qplane applies sigma through _scale_row
    calls = 0
    name = "_ddy_row" if sd.ddy else "_scale_row"
    row_core = getattr(ore_module, name)

    def counting(*args):
        nonlocal calls
        calls += 1
        return row_core(*args)

    rnd = random.Random(n)
    f, g = _dense_ore(rnd, sd, n), _dense_ore(rnd, sd, n)
    monkeypatch.setattr(ore_module, name, counting)
    ore_mul(f, g)
    assert 0 < calls <= (len(f.coeffs) + len(g.coeffs)) * len(g.coeffs)


def test_poly_kernel_stays_exact():
    def exact(p):
        return all(type(c) is Fraction for c in p.coeffs)

    p, q = _poly(1, -2, 3), _poly(Fraction(1, 2), 0, 0, 5)
    assert all(exact(r) for r in (_row_mul(p, q), _ddy(p), _ddy(q)))
    assert exact(_sigma_rows(quantum_plane(3), p, 1)) and exact(_sigma_rows(quantum_plane(3), p, -2))
    assert _sigma_rows(quantum_plane(3), p, -2) == _poly(1, Fraction(-2, 9), Fraction(3, 81))
    assert exact(_sigma_rows(QPLANE, q, -3))
    assert _sigma_rows(SigmaDelta(3), _poly(1, 1), -1) == _poly(1, Fraction(1, 3))
    rnd = random.Random(12)
    for sd in TWISTS:
        f, g = _dense_ore(rnd, sd, 5), _dense_ore(rnd, sd, 5)
        assert all(exact(c) for c in ore_mul(f, g).coeffs)


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


def _random_fraction_poly(rnd, max_len=6):
    return _poly(*(Fraction(rnd.randint(-6, 6), rnd.randint(1, 12)) for _ in range(rnd.randint(0, max_len))))


def test_poly_kernel_matches_plain_fraction_reference():
    def same(got, want):
        assert got == want and hash(got) == hash(want)
        assert all(type(c) is Fraction for c in got.coeffs)
        assert not got.coeffs or got.coeffs[-1] != 0

    rnd = random.Random(13)
    for _ in range(400):
        p, q = _random_fraction_poly(rnd), _random_fraction_poly(rnd)
        same(_row_mul(p, q), _ref_mul(p, q))
        same(_ddy(p), _ref_trim(i * c for i, c in enumerate(p.coeffs) if i))
        sd = quantum_plane(Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 5), rnd.randint(1, 4)))
        k = rnd.randint(-3, 3)
        same(_sigma_rows(sd, p, k), apply_sigma(sd, p, k))


def _former_random_poly(rng, nonzero=False):
    while True:
        p = _poly(*[Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 4))])
        if not nonzero or not p.is_zero():
            return p


def _former_random_ore(rng, sd, nonzero=False):
    while True:
        f = ore_from_coeffs([_former_random_poly(rng) for _ in range(rng.randint(0, 4))], sd)
        if not nonzero or not f.is_zero():
            return f


def test_random_draws_match_the_former_expression():
    def polys(f):
        return [f] if isinstance(f, Poly) else list(f.coeffs)

    draws = (
        (random_poly, _former_random_poly, ()),
        (random_ore, _former_random_ore, (WEYL,)),
    )
    for draw, former, args in draws:
        for nonzero in (False, True):
            ours, theirs = random.Random(15), random.Random(15)
            for _ in range(500):
                f = draw(ours, *args, nonzero)
                assert f == former(theirs, *args, nonzero)
                assert all(type(c) is Fraction for p in polys(f) for c in p.coeffs)
            assert ours.getstate() == theirs.getstate(), draw


def test_below_reads_the_generator_as_randrange():
    # _below replicates CPython's Random._randbelow_with_getrandbits; a
    # Python whose randrange draws differently fails here, not in the audits
    for n in range(1, 65):
        ours, theirs = random.Random(n), random.Random(n)
        for _ in range(40):
            assert ore_module._below(ours.getrandbits, n, n.bit_length()) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate(), n


def _rows(f: OrePoly) -> list[list[int]]:
    """Integer rows of an OrePoly whose coefficients are integers."""
    return [ore_module._numerators(a.coeffs, 1) for a in f.coeffs]


def test_row_audit_matches_object_references_pair_by_pair():
    rnd = random.Random(16)
    verdicts = set()
    for q in (None, 2, 3, Fraction(-3, 4), Fraction(1, 5)):
        sd = WEYL if q is None else quantum_plane(q)
        other = QPLANE if q is None else WEYL
        for _ in range(150):
            g, h = random_ore(rnd, sd, nonzero=True), random_ore(rnd, sd, nonzero=True)
            g_rows, h_rows = _rows(g), _rows(h)
            p, den = ore_module._mul_rows(g_rows, h_rows, sd)
            product = ore_mul(g, h)
            assert ore_module._lambda_rows(p) == lambda_skew(product)
            assert ore_module._lambda_rows(g_rows) == lambda_skew(g)
            l = len(h_rows) - 1
            assert ore_module._law_rows(p, den, g_rows, h_rows, l, -1, sd) == leading_law_holds(product, g, h)
            # the product taken in another twist breaks the law whenever
            # sigma^l moves lead g, so both verdicts occur
            wrong, wrong_den = ore_module._mul_rows(g_rows, h_rows, other)
            wrong_product = ore_mul(ore_from_coeffs(g.coeffs, other), ore_from_coeffs(h.coeffs, other))
            verdict = ore_module._law_rows(wrong, wrong_den, g_rows, h_rows, l, -1, sd)
            assert verdict == leading_law_holds(wrong_product, g, h)
            verdicts.add(verdict)
            if q is None:
                for rows, f in ((p, product), (g_rows, g), (h_rows, h)):
                    assert ore_module._total_degree(rows) == lambda_filtration(f)
    assert verdicts == {True, False}


def _former_check_skew_laws(configuration, pairs, seed):
    """check_skew_laws as it ran on OrePoly and LaurentOrePoly objects."""
    kind, sd = parse_config(configuration)
    rng = random.Random(seed)
    right_bad = law_bad = 0
    for _ in range(pairs):
        if kind == "poly":
            g = _former_random_ore(rng, sd, nonzero=True)
            h = _former_random_ore(rng, sd, nonzero=True)
            while h.is_unit():
                h = _former_random_ore(rng, sd, nonzero=True)
            p = ore_mul(g, h)
            right_bad += not lambda_skew(p) > lambda_skew(g)
            law_bad += not leading_law_holds(p, g, h)
        else:
            g = random_laurent(rng, sd, nonzero=True)
            h = random_laurent(rng, sd, nonzero=True)
            while h.is_unit():
                h = random_laurent(rng, sd, nonzero=True)
            p = laurent_mul(g, h)
            right_bad += not lambda_laurent(p) > lambda_laurent(g)
            law_bad += not laurent_lowest_law_holds(p, g, h)
    return LawCheckResult(configuration, pairs, right_bad, law_bad)


def _former_check_filtration_additivity(pairs, seed):
    rng = random.Random(seed)
    bad = 0
    for _ in range(pairs):
        f = _former_random_ore(rng, WEYL, nonzero=True)
        g = _former_random_ore(rng, WEYL, nonzero=True)
        if lambda_filtration(ore_mul(f, g)) != lambda_filtration(f) + lambda_filtration(g):
            bad += 1
    return pairs, bad


ROW_AUDIT_CONFIGS = ("weyl", "qplane:q=2", "qplane:q=3", "qplane:q=-3/4", "qplane:q=1/5")
QTORUS_Q = (3, Fraction(-3, 4), 1, 2, -1)
QTORUS_CONFIGS = tuple(f"qtorus:q={q}" for q in QTORUS_Q)


def test_audits_match_the_former_bodies():
    for seed in range(40):
        for config in ROW_AUDIT_CONFIGS + ("qtorus:q=2",):
            assert check_skew_laws(config, 40, seed) == _former_check_skew_laws(config, 40, seed), (config, seed)
        assert check_filtration_additivity(40, seed) == _former_check_filtration_additivity(40, seed), seed


def test_audits_count_violations_of_a_broken_product(monkeypatch):
    # the golden audit lines print only zero counts, so a blind audit would
    # pass them: break the product and the audits must count violations
    times_x = ore_module._times_x
    with monkeypatch.context() as m:
        m.setattr(ore_module, "_times_x", lambda rows, sd, factors: times_x(rows, sd, [1] * len(factors)))
        broken = check_skew_laws("qplane:q=2", 300, seed=17)
        assert broken.leading_law_violations > 0
        assert broken == _former_check_skew_laws("qplane:q=2", 300, 17)

    mul_rows = ore_module._mul_rows

    def without_top_row(f, g, sd):
        rows, gained = mul_rows(f, g, sd)
        return rows[:-1], gained

    monkeypatch.setattr(ore_module, "_mul_rows", without_top_row)
    for config in ("weyl", "qplane:q=-3/4", "qtorus:q=3"):
        result = check_skew_laws(config, 300, seed=17)
        assert result.right_length_violations > 0 and result.leading_law_violations > 0, config
    assert check_filtration_additivity(300, seed=17)[1] > 0


def test_row_audits_build_no_objects(monkeypatch):
    # a counted-event gate in place of wall time: the poly-configuration
    # audits stay on integer rows, and their Fraction count does not grow
    # with the number of pairs
    def forbidden(*args, **kwargs):
        raise AssertionError("the row-level audits build no OrePoly, Poly or Fraction per pair")

    for name in ("ore_mul", "_from_numerators", "Poly", "OrePoly"):
        monkeypatch.setattr(ore_module, name, forbidden)
    made = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)

    def fractions_made(audit, *args):
        nonlocal made
        made = 0
        result = audit(*args)
        return made, result

    for config in ROW_AUDIT_CONFIGS + QTORUS_CONFIGS:
        few, _ = fractions_made(check_skew_laws, config, 5, 18)
        many, result = fractions_made(check_skew_laws, config, 400, 18)
        assert few == many and result.ok(), config
    few, _ = fractions_made(check_filtration_additivity, 5, 18)
    many, result = fractions_made(check_filtration_additivity, 400, 18)
    assert few == many and result == (400, 0)


def test_qtorus_rows_match_object_references_pair_by_pair():
    # the qtorus audit's draw, product, lengths and law on integer rows
    # against the plain-Fraction object layer it replaced: the same operands,
    # the same generator state, the same product, lambda and law verdict
    verdicts = set()
    for q in QTORUS_Q:
        sd = quantum_plane(q)
        inverse = quantum_plane(1 / Fraction(q))  # its sigma^k is sigma^(-k)
        for seed in range(4):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(50):
                (k_g, g), (k_h, h) = (ore_module._laurent_rows(ours.getrandbits) for _ in range(2))
                g_ref, h_ref = (random_laurent(theirs, sd, nonzero=True) for _ in range(2))
                assert ours.getstate() == theirs.getstate(), (q, seed)
                assert (k_g, g) == _laurent_to_rows(g_ref) and (k_h, h) == _laurent_to_rows(h_ref)
                twisted, den = ore_module._pretwist(g, k_h, sd)
                p, gained = ore_module._mul_rows(twisted, h, sd)
                den *= gained
                product = laurent_mul(g_ref, h_ref)
                assert _laurent_from_rows(k_g + k_h, p, den, sd) == product
                assert ore_module._lambda_rows(p, 0) == lambda_laurent(product)
                assert ore_module._lambda_rows(g, 0) == lambda_laurent(g_ref)
                law = ore_module._law_rows(p, den, g, h, k_h, 0, sd)
                assert law == laurent_lowest_law_holds(product, g_ref, h_ref)
                # the product of the inverse twist breaks the law whenever
                # sigma^k moves low g, so both verdicts occur
                twisted, den = ore_module._pretwist(g, k_h, inverse)
                wrong, gained = ore_module._mul_rows(twisted, h, inverse)
                wrong_product = laurent_mul(laurent(dict(g_ref.coeffs), inverse), laurent(dict(h_ref.coeffs), inverse))
                verdict = ore_module._law_rows(wrong, den * gained, g, h, k_h, 0, sd)
                assert verdict == laurent_lowest_law_holds(wrong_product, g_ref, h_ref)
                verdicts.add(verdict)
            config = f"qtorus:q={q}"
            assert check_skew_laws(config, 100, seed) == _former_check_skew_laws(config, 100, seed), (config, seed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("config", ["weyl", "qtorus:q=1"])
def test_identity_twists_copy_no_rows(monkeypatch, config):
    # q^k = 1 is decided once per sigma power, and such rows stay uncopied:
    # the law's twist and the Laurent pretwist scale no row
    calls = 0
    scale_row = ore_module._scale_row

    def counting(row, factors):
        nonlocal calls
        calls += 1
        return scale_row(row, factors)

    monkeypatch.setattr(ore_module, "_scale_row", counting)
    assert check_skew_laws(config, 1000, 0).ok()
    assert calls == 0


def test_qtorus_audit_counts_a_flipped_twist_in_the_product(monkeypatch):
    # the lowest law forms sigma^k from the operands, so a product twisted by
    # sigma^(-k) instead is counted; sigma is the identity at q = 1
    pretwist = ore_module._pretwist
    monkeypatch.setattr(ore_module, "_pretwist", lambda rows, k, sd: pretwist(rows, -k, sd))
    for config in ("qtorus:q=3", "qtorus:q=-3/4", "qtorus:q=2"):
        assert check_skew_laws(config, 300, seed=1).leading_law_violations > 0, config
    assert check_skew_laws("qtorus:q=1", 300, seed=1).ok()
