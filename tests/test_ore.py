import random
from fractions import Fraction

import pytest

import factorlab.ore as ore_module
from factorlab.ore import (
    ZERO_POLY,
    LawCheckResult,
    LaurentOrePoly,
    OrePoly,
    Poly,
    SigmaDelta,
    base_weight,
    check_filtration_additivity,
    check_skew_laws,
    lambda_laurent,
    lambda_skew,
    laurent,
    laurent_lowest_law_holds,
    laurent_mul,
    ore_from_coeffs,
    ore_mul,
    parse_config,
    quantum_plane,
    random_laurent,
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
    expected = f.sd.apply_sigma(f.leading(), l) * g.leading()
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
            out[i] = out[i] + c
    return ore_from_coeffs(out, f.sd)


def laurent_add(f: LaurentOrePoly, g: LaurentOrePoly) -> LaurentOrePoly:
    """Reference sum for the distributivity tests: add coefficients by exponent."""
    acc = dict(f.coeffs)
    for e, c in g.coeffs:
        acc[e] = acc.get(e, ZERO_POLY) + c
    return laurent(acc, f.sd)


def _reference_mul(f: OrePoly, g: OrePoly) -> OrePoly:
    """The former ore_mul: rebuild a_i * x^j from scratch for every pair,
    with sigma, delta, sums and products in plain ``Fraction`` arithmetic."""

    def sigma(c, sd):
        if sd.sigma == "identity":
            return c
        return _ref_trim(a * sd.q**i for i, a in enumerate(c.coeffs))

    def delta(c, sd):
        if sd.delta == "zero":
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
    assert (p * q).coeffs == (0, 0, 1, 2)
    assert (p + q).coeffs == (1, 2, 1)
    assert _ddy(p) == _poly(2)
    assert _poly(0, 1, 1).scale_argument(Fraction(2)) == _poly(0, 2, 4)
    assert base_weight(_poly(5)) == 0
    with pytest.raises(ValueError):
        base_weight(ZERO_POLY)


def test_sigma_delta_validation():
    with pytest.raises(ValueError):
        SigmaDelta("scale", "ddy", Fraction(2))
    for sigma in ("twist", "shift"):
        with pytest.raises(ValueError, match="unknown sigma"):
            SigmaDelta(sigma)
    with pytest.raises(ValueError):
        SigmaDelta("scale", "zero", Fraction(0))


def test_sigma_derivation_law_in_the_weyl_algebra():
    rnd = random.Random(0)
    for _ in range(100):
        p, q = random_poly(rnd), random_poly(rnd)
        lhs = _ddy(p * q)
        rhs = WEYL.apply_sigma(p) * _ddy(q) + _ddy(p) * q
        assert lhs == rhs


def test_sigma_preserves_units_and_nonunits():
    rnd = random.Random(1)
    for _ in range(100):
        p = random_poly(rnd, nonzero=True)
        assert QPLANE.apply_sigma(p).is_unit() == p.is_unit()


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
    assert laurent({5: _poly(3)}, qt).is_unit()
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
    # applications of the rule; rebuilding a * x^j per pair costs far more
    calls = 0
    sigma_row = ore_module._sigma_row

    def counting(row, sigma, factors):
        nonlocal calls
        calls += 1
        return sigma_row(row, sigma, factors)

    rnd = random.Random(n)
    f, g = _dense_ore(rnd, sd, n), _dense_ore(rnd, sd, n)
    monkeypatch.setattr(ore_module, "_sigma_row", counting)
    ore_mul(f, g)
    assert 0 < calls <= (len(f.coeffs) + len(g.coeffs)) * len(g.coeffs)


def test_poly_kernel_stays_exact():
    def exact(p):
        return all(type(c) is Fraction for c in p.coeffs)

    p, q = _poly(1, -2, 3), _poly(Fraction(1, 2), 0, 0, 5)
    assert all(exact(r) for r in (p + q, q + p, p * q, _ddy(p), _ddy(q)))
    assert exact(p.scale_argument(Fraction(3))) and exact(p.scale_argument(Fraction(3) ** -2))
    assert p.scale_argument(Fraction(3) ** -2) == _poly(1, Fraction(-2, 9), Fraction(3, 81))
    assert exact(QPLANE.apply_sigma(q, -3))
    assert SigmaDelta("scale", "zero", 3).apply_sigma(_poly(1, 1), -1) == _poly(1, Fraction(1, 3))
    rnd = random.Random(12)
    for sd in TWISTS:
        f, g = _dense_ore(rnd, sd, 5), _dense_ore(rnd, sd, 5)
        assert all(exact(c) for c in ore_mul(f, g).coeffs)
    assert (_poly(1, 1) + _poly(0, -1)).coeffs == (Fraction(1),)
    assert (_poly(1, 1) + _poly(-1, -1)).is_zero()


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
        if p.coeffs and rnd.random() < 0.3:
            # q ends in minus the top of p, so p + q has trailing zeros to trim
            q = _poly(*(Fraction(rnd.randint(-1, 1), rnd.randint(1, 12)) for _ in p.coeffs[1:]), -p.coeffs[-1])
        same(p + q, _ref_add(p, q))
        same(p * q, _ref_mul(p, q))
        same(_ddy(p), _ref_trim(i * c for i, c in enumerate(p.coeffs) if i))
        s = Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 5), rnd.randint(1, 4)) ** rnd.randint(-3, 3)
        same(p.scale_argument(s), _ref_trim(c * s**i for i, c in enumerate(p.coeffs)))


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


def _former_random_laurent(rng, sd, nonzero=False):
    while True:
        acc = {}
        for _ in range(rng.randint(0, 3)):
            p = _former_random_poly(rng)
            if not p.is_zero():
                e = rng.randint(-3, 3)
                acc[e] = acc.get(e, ZERO_POLY) + p
        f = laurent(acc, sd)
        if not nonzero or not f.is_zero():
            return f


def test_random_draws_match_the_former_expression():
    def polys(f):
        if isinstance(f, Poly):
            return [f]
        return [c[1] if isinstance(c, tuple) else c for c in f.coeffs]

    draws = (
        (random_poly, _former_random_poly, ()),
        (random_ore, _former_random_ore, (WEYL,)),
        (random_laurent, _former_random_laurent, (QPLANE,)),
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
            assert ore_module._leading_law_rows(p, den, g_rows, h_rows, sd) == leading_law_holds(product, g, h)
            # the product taken in another twist breaks the law whenever
            # sigma^l moves lead g, so both verdicts occur
            wrong, wrong_den = ore_module._mul_rows(g_rows, h_rows, other)
            wrong_product = ore_mul(ore_from_coeffs(g.coeffs, other), ore_from_coeffs(h.coeffs, other))
            verdict = ore_module._leading_law_rows(wrong, wrong_den, g_rows, h_rows, sd)
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
            g = _former_random_laurent(rng, sd, nonzero=True)
            h = _former_random_laurent(rng, sd, nonzero=True)
            while h.is_unit():
                h = _former_random_laurent(rng, sd, nonzero=True)
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


def test_audits_match_the_former_bodies():
    for seed in range(40):
        for config in ROW_AUDIT_CONFIGS + ("qtorus:q=2",):
            assert check_skew_laws(config, 40, seed) == _former_check_skew_laws(config, 40, seed), (config, seed)
        assert check_filtration_additivity(40, seed) == _former_check_filtration_additivity(40, seed), seed


def test_audits_count_violations_of_a_broken_product(monkeypatch):
    # the golden audit lines print only zero counts, so a blind audit would
    # pass them: break the product and the audits must count violations
    with monkeypatch.context() as m:
        m.setattr(ore_module, "_sigma_row", lambda row, sigma, factors: row)
        broken = check_skew_laws("qplane:q=2", 300, seed=17)
        assert broken.leading_law_violations > 0
        assert broken == _former_check_skew_laws("qplane:q=2", 300, 17)

    mul_rows = ore_module._mul_rows

    def without_top_row(f, g, sd):
        rows, gained = mul_rows(f, g, sd)
        return rows[:-1], gained

    monkeypatch.setattr(ore_module, "_mul_rows", without_top_row)
    for config in ("weyl", "qplane:q=-3/4"):
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

    for config in ROW_AUDIT_CONFIGS:
        few, _ = fractions_made(check_skew_laws, config, 5, 18)
        many, result = fractions_made(check_skew_laws, config, 400, 18)
        assert few == many and result.ok(), config
    few, _ = fractions_made(check_filtration_additivity, 5, 18)
    many, result = fractions_made(check_filtration_additivity, 400, 18)
    assert few == many and result == (400, 0)
