import random
from fractions import Fraction

import pytest

from factorlab import algebra, monoid
from factorlab.algebra import (
    NEG_INF,
    AlgebraElement,
    DivisionResult,
    Field,
    alg_add,
    alg_mul,
    deg_a,
    divides_right,
    from_terms,
    monomial,
    parse_element,
    zero,
    _solve_exact,
)
from factorlab.groups import ALPHABET, NormalForm, left_quotient
from factorlab.monoid import enumerate_elements, normalize
from factorlab.words import parse_word

Q = Field.rationals()


def elem(text, field=Q):
    return parse_element(text, field)


def nf(text):
    return normalize(parse_word(text, ALPHABET))


def random_element(rnd, field, pool, max_terms=3):
    items = []
    for _ in range(rnd.randint(0, max_terms)):
        coeff = field.from_int(rnd.randint(-4, 4))
        items.append((rnd.choice(pool), coeff))
    return from_terms(field, items)


def test_monomial_product_follows_the_relation():
    b = monomial(Q, nf("b"))
    aa = monomial(Q, nf("a a"))
    assert alg_mul(alg_mul(b, aa), b) == aa


def test_mul_by_zero_and_one():
    f = elem("2 * a b + 1/3 * b^2")
    assert alg_mul(f, zero(Q)).is_zero()
    assert alg_mul(f, monomial(Q, NormalForm())) == f


def test_expand_binomials():
    product = alg_mul(elem("1 * e + 1 * a"), elem("1 * e + 1 * b"))
    assert product == elem("1 * e + 1 * a + 1 * b + 1 * a^1 b^1")
    assert len(product.terms) == 4


def test_deg_a_examples():
    assert deg_a(elem("1 * a^2 + 1 * b")) == 2
    assert deg_a(zero(Q)) == NEG_INF
    square = alg_mul(elem("1 * a + 1 * b"), elem("1 * a + 1 * b"))
    assert deg_a(square) == 2


def test_deg_a_additivity_on_random_pairs():
    rnd = random.Random(202)
    pool = list(enumerate_elements(4))
    checked = 0
    while checked < 500:
        f = random_element(rnd, Q, pool)
        g = random_element(rnd, Q, pool)
        if f.is_zero() or g.is_zero():
            continue
        assert deg_a(alg_mul(f, g)) == deg_a(f) + deg_a(g)
        checked += 1


def test_monomial_closure_exhaustive_length_6():
    pool = list(enumerate_elements(6))
    field = Q
    for s in pool:
        ms = monomial(field, s)
        for t in pool:
            assert alg_mul(ms, monomial(field, t)).is_monomial()


@pytest.mark.parametrize("field", [Q, Field.prime(101)])
def test_ring_axioms_on_random_triples(field):
    rnd = random.Random(7)
    pool = list(enumerate_elements(3))
    for _ in range(60):
        f = random_element(rnd, field, pool)
        g = random_element(rnd, field, pool)
        h = random_element(rnd, field, pool)
        assert alg_mul(alg_mul(f, g), h) == alg_mul(f, alg_mul(g, h))
        assert alg_mul(f, alg_add(g, h)) == alg_add(alg_mul(f, g), alg_mul(f, h))
        assert alg_mul(alg_add(f, g), h) == alg_add(alg_mul(f, h), alg_mul(g, h))
        assert alg_add(f, from_terms(field, [(s, field.neg(c)) for s, c in f.terms])).is_zero()


def test_divides_right_examples():
    aa = monomial(Q, nf("a a"))
    b = monomial(Q, nf("b"))
    b_aa = alg_mul(b, aa)
    division = divides_right(b_aa, aa, 4)
    assert division.status == "yes"
    assert division.cofactor == b
    assert divides_right(aa, b, 4).status == "no"  # a-degree obstruction
    division = divides_right(monomial(Q, nf("a")), aa, 2)
    assert division.status == "yes" and division.cofactor == monomial(Q, nf("a"))


def test_divides_right_zero_and_errors():
    aa = monomial(Q, nf("a a"))
    assert divides_right(aa, zero(Q)).status == "yes"
    with pytest.raises(ValueError):
        divides_right(zero(Q), aa)
    with pytest.raises(ValueError, match="-1"):
        divides_right(monomial(Q, nf("a")), aa, -1)
    with pytest.raises(ValueError):
        alg_add(monomial(Q, nf("a")), monomial(Field.prime(7), nf("a")))


@pytest.mark.parametrize(
    "f_text, h_text",
    [("1 * a", "1 * b"), ("1 * a + 2 * b a", "1 * a + 1 * b")],
    ids=["monomial", "solver"],
)
def test_divides_right_raises_when_the_cofactor_does_not_multiply_back(monkeypatch, f_text, h_text):
    f = elem(f_text)
    g = alg_mul(f, elem(h_text))
    monkeypatch.setattr(algebra, "alg_mul", lambda left, right: alg_add(g, g))
    with pytest.raises(monoid.ChainVerificationError):
        divides_right(f, g, 4)


def test_algebra_level_chain_mirrors_the_monoid_chain():
    b = monomial(Q, nf("b"))
    for k in range(11):
        g_k = monomial(Q, nf(" ".join(["b"] * k + ["a", "a"]) if k else "a a"))
        g_next = alg_mul(b, g_k)
        forward = divides_right(g_next, g_k, 3)
        assert forward.status == "yes" and forward.cofactor == b
        assert divides_right(g_k, g_next, 3).status == "no"


def test_divides_right_solver_path():
    f = elem("1 * e + 1 * b")
    h = elem("1 * a + 1 * b")
    g = alg_mul(f, h)
    division = divides_right(f, g, 3)
    assert division.status == "yes"
    assert alg_mul(f, division.cofactor) == g
    # perturbing the target makes the bounded search inconclusive
    assert divides_right(f, alg_add(g, elem("1 * e")), 3).status == "unknown"


def test_solver_prefers_shortlex_least_support():
    # x + x is also (2)*x; with candidates ordered shortlex the solver must
    # report the earliest pivot solution it can
    f = elem("2 * e")
    g = elem("1 * a + 1 * e")
    division = divides_right(f, g, 2)
    assert division.status == "yes"
    assert alg_mul(f, division.cofactor) == g


def _dense_divides_right(f, g, search_cap):
    """The former divides_right: filter the full enumeration by a-count and
    eliminate every candidate column against every support row densely."""
    if f.is_zero():
        raise ValueError("left factor must be nonzero")
    if g.is_zero():
        return DivisionResult("yes", zero(f.field))
    if deg_a(f) > deg_a(g):
        return DivisionResult("no")
    if f.is_monomial() and g.is_monomial():
        (s, cs), (t, ct) = f.terms[0], g.terms[0]
        v = left_quotient(s.word(), t.word())
        if v is None:
            return DivisionResult("no")
        return DivisionResult("yes", monomial(f.field, v, f.field.mul(ct, f.field.inv(cs))))
    budget = deg_a(g) - deg_a(f)
    candidates = [c for c in enumerate_elements(search_cap) if c.a_count <= budget]
    products = [dict(alg_mul(f, monomial(f.field, c)).terms) for c in candidates]
    target = dict(g.terms)
    support = sorted({s for p in products for s in p} | set(target), key=NormalForm.shortlex_key)
    rows = [[p.get(s, f.field.zero) for p in products] for s in support]
    rhs = [target.get(s, f.field.zero) for s in support]
    solution = _solve_exact(f.field, rows, rhs)
    if solution is None:
        return DivisionResult("unknown")
    h = from_terms(f.field, [(c, x) for c, x in zip(candidates, solution) if x != 0])
    assert alg_mul(f, h) == g
    return DivisionResult("yes", h)


def _nonzero_element(rnd, field, pool, max_terms):
    while True:
        f = random_element(rnd, field, pool, max_terms)
        if not f.is_zero():
            return f


@pytest.mark.parametrize("field", [Q, Field.prime(101)], ids=["Q", "F101"])
def test_divides_right_matches_dense_reference(field):
    rnd = random.Random(909 if field.modulus else 808)
    pool = list(enumerate_elements(3))
    statuses = []
    for cap in range(2, 7):
        cofactors = list(enumerate_elements(cap))
        for _ in range(5):
            f = _nonzero_element(rnd, field, pool, 3)
            h = _nonzero_element(rnd, field, cofactors, 3)
            yes = alg_mul(f, h)
            extra = monomial(field, rnd.choice(cofactors), field.from_int(rnd.randint(1, 4)))
            perturbed = alg_add(yes, extra)
            heavy = alg_mul(yes, monomial(field, nf("a")))
            for g, f_side in ((yes, f), (perturbed, f), (f, heavy)):
                result = divides_right(f_side, g, cap)
                assert result == _dense_divides_right(f_side, g, cap), (cap, f_side, g)
                statuses.append(result.status)
    assert {"yes", "no", "unknown"} <= set(statuses)
    assert statuses.count("yes") >= 25


def test_divides_right_solves_only_the_touched_components(monkeypatch):
    # the bounded-division system at cap 8 is 200 x 114 when solved whole
    f = elem("1 * a + 2 * b a")
    g = elem("1 * a a b + 3 * b a a + 1 * a^3")
    expected = _dense_divides_right(f, g, 8)
    shapes = []

    def recording(field, rows, rhs):
        shapes.append((len(rows), len(rows[0]) if rows else 0))
        return _solve_exact(field, rows, rhs)

    monkeypatch.setattr(algebra, "_solve_exact", recording)
    assert divides_right(f, g, 8) == expected
    assert len(shapes) == 1
    n_rows, n_cols = shapes[0]
    assert 0 < n_rows <= 20 and 0 < n_cols <= 20


def test_solve_exact_inconsistent():
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert _solve_exact(Q, rows, [Fraction(1), Fraction(3)]) is None
    assert _solve_exact(Q, rows, [Fraction(1), Fraction(2)]) == [Fraction(1), Fraction(0)]


def test_literal_round_trip():
    f = elem("3/2 * b^2 a^1 + -1 * e")
    assert parse_element(f.display(), Q) == f
    assert elem("0").is_zero()
    assert zero(Q).display() == "0"


def test_prime_field_arithmetic():
    f7 = Field.prime(7)
    x = parse_element("3 * a + 5 * b", f7)
    sq = alg_mul(x, x)
    assert dict(sq.terms)[nf("a a")] == 2  # 9 mod 7
    assert f7.inv(3) == 5
    with pytest.raises(ValueError):
        Field.prime(6)
    with pytest.raises(ZeroDivisionError):
        f7.inv(0)
    sieve = [False, False] + [True] * (10**4 - 2)
    for n in range(2, 100):
        if sieve[n]:
            sieve[n * n :: n] = [False] * len(range(n * n, 10**4, n))
    assert [n for n in range(10**4) if _accepts_modulus(n)] == [n for n in range(10**4) if sieve[n]]
    assert _accepts_modulus(2147483647)
    for strong_pseudoprime in (2047, 1373653, 25326001):
        assert not _accepts_modulus(strong_pseudoprime)


def _accepts_modulus(p):
    try:
        Field.prime(p)
    except ValueError:
        return False
    return True


def test_field_scalar_parsing():
    assert Q.parse("-7/2") == Fraction(-7, 2)
    f7 = Field.prime(7)
    assert f7.parse("3/2") == (3 * f7.inv(2)) % 7


def test_coefficients_never_zero():
    f = elem("1 * a + 1 * b")
    g = elem("1 * a + -1 * b")
    assert alg_add(alg_add(f, g), from_terms(Q, [(nf("a"), Fraction(-2))])).is_zero()
    with pytest.raises(ValueError):
        AlgebraElement(Q, ((NormalForm(), Fraction(0)),))
