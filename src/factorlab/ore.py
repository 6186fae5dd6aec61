"""Skew polynomial and skew Laurent rings over the rational polynomial ring.

Polynomials are written with right coefficients, f = sum_i x^i a_i with
a_i in Q[y], and multiplication is driven by the commutation rule

    a * x = x * sigma(a) + delta(a)

for base-ring elements a.  The twist data is one value, ``SigmaDelta(q,
ddy)``: sigma is y -> q y, the identity when q = 1, and delta is d/dy when
``ddy`` is set (only at q = 1) and zero otherwise.  Three ready-made
configurations cover the rings exercised here: the Weyl algebra (q = 1,
delta = d/dy), the quantum plane (y -> q y, delta = 0), and the quantum
torus, the Laurent ring over the scaling automorphism.

Multiplication (standard Ore-extension arithmetic, Goodearl & Warfield,
*An Introduction to Noncommutative Noetherian Rings*, ch. 2): for
g = sum_j x^j b_j, ``ore_mul`` forms f*g = sum_j (f*x^j) b_j and gets
f*x^(j+1) from f*x^j by one pass of the rule over its coefficients.  With
n_f and n_g the numbers of x-coefficients, that costs at most
(n_f + n_g) * n_g applications of sigma and of delta, plus one base-ring
product per coefficient of each f*x^j.  The rule is applied one x at a time
on purpose: a closed form such as the Leibniz expansion
a x^j = sum_k C(j, k) x^(j-k) a^(k) of the Weyl algebra is left to
independent checks.

Arithmetic (the content/primitive-part representation, Knuth, *TAOCP*
vol. 2, sec. 4.6.1): ``Poly`` stores one reduced ``Fraction`` per
coefficient.  ``ore_mul`` brings each operand to integer rows over one
common denominator (the lcm of its coefficient denominators), runs every
f*x^j step and every (f*x^j)*b_j accumulation in plain ints, trims trailing
zeros while the values are still ints, and builds one ``Fraction`` per
output coefficient at the end.  The twists act on rows through one core
each: d/dy multiplies entry i by i, and sigma^k, the scaling y -> q^k y for
any integer k (:func:`_sigma_power`), multiplies entry i by
num^i den^(top - i), with num/den = q^k in lowest terms and top the largest
y-degree of f (sigma keeps degrees); wherever q^k = 1 (q = 1, k = 0, or
q = -1 and k even) the rows are left as they are, uncopied.  So each x
adds a factor den(q)^top to the denominator, and the j-th contribution
is lifted by den(q)^((n_g - 1 - j) * top).  For operands whose coefficients have at most
w_f and w_g entries, a product thus costs at most
(n_f + n_g) * n_g * w_f * w_g int products in the accumulation, O(w_f) int
operations per application of sigma or delta, and one gcd per output
coefficient.

Skew Laurent rings (the quantum torus, delta = 0): an element is
x^e * F with e its lowest x-exponent and F = sum_i x^i a_i, held as e and
the integer rows of F, an empty row for each missing exponent.  As
a * x^k = x^k * sigma^k(a), x^e F * x^k G = x^(e + k) sigma^k(F) G, so a
Laurent product is one twist of F's rows by sigma^k followed by the row
product of ``ore_mul``.

Length functions:

* ``lambda_skew(f) = deg_x(f) + weight(leading coefficient)`` strictly drops
  against proper right factors, with ``weight`` the y-degree on the base ring
  (an upper-bound surrogate for the maximal factorization length: the
  y-degree is additive on products, Q[y] being a domain, and vanishes
  exactly on units, so every bound certified through it is valid);
* lambda_laurent(f) = (window width) + weight(lowest coefficient) is the
  Laurent analogue, read off the rows by the ``qtorus`` audit;
* the total degree in x and y is exactly additive on products in the Weyl
  algebra, because the associated graded ring of that filtration is a
  commutative polynomial ring.

Audits: ``check_skew_laws`` for every configuration and
``check_filtration_additivity`` run on integer rows from draw to verdict and
build no ``Fraction``, ``Poly`` or ``OrePoly``.  A pair costs at most one
twist of g's rows, one row product (the ``ore_mul`` bound above, with
w_f, w_g <= 4 and n_f, n_g <= 4 for skew polynomials, n_f, n_g <= 7 for
Laurent elements), the lengths read off the trimmed rows, and for the law
(:func:`_law_rows`) a count of the product's rows, one scaled row and one
row product compared with the product's end row by cross-multiplication:
the top row for skew polynomials, the bottom row for Laurent elements.  The
law forms its sigma power from the operands, not from the product, so a
wrong twist in the product, or a product with a row too few, is counted.
The draws call ``rng.getrandbits`` as ``Random.randint`` does (see
:func:`_below`), so a seed gives the same operands, and leaves the generator
in the same state, as draws through ``randint``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence

from .xy_poly import parse_rational


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q

@dataclass(frozen=True, slots=True)
class Poly:
    """Polynomial in y over the rationals; coeffs[i] multiplies y^i."""

    coeffs: tuple[Fraction, ...] = ()

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_unit(self) -> bool:
        return len(self.coeffs) == 1


def _denominator(coeffs: Sequence[Fraction]) -> int:
    """Least common denominator of the coefficients."""
    return math.lcm(*[c.denominator for c in coeffs])


def _numerators(coeffs: Sequence[Fraction], den: int) -> list[int]:
    """Integer numerators of the coefficients over the common denominator ``den``."""
    if den == 1:
        return [c.numerator for c in coeffs]
    return [c.numerator * (den // c.denominator) for c in coeffs]


def _from_numerators(nums: list[int], den: int) -> Poly:
    """The polynomial sum_i (nums[i] / den) y^i: trim trailing zeros while the
    values are ints, then reduce each coefficient once."""
    while nums and not nums[-1]:
        nums.pop()
    if den == 1:
        return Poly(tuple([Fraction(n) for n in nums]))
    return Poly(tuple([Fraction(n, den) for n in nums]))


def _mul_row(f: list[int], g: list[int]) -> list[int]:
    """Product of two nonzero numerator rows (the convolution of their entries)."""
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        if c:
            for j, d in enumerate(g, i):
                out[j] += c * d
    return out


def _ddy_row(row: list[int]) -> list[int]:
    """d/dy on numerators: entry i times i, constant term dropped."""
    return [i * n for i, n in enumerate(row[1:], 1)]


def _scale_row(row: list[int], factors: list[int]) -> list[int]:
    """y -> q^k y on numerators, with the factors of :func:`_sigma_power`
    (never called when q^k = 1)."""
    return [n * f for n, f in zip(row, factors)]


def base_weight(p: Poly) -> int:
    """Superadditive weight on nonzero base polynomials: the y-degree."""
    if p.is_zero():
        raise ValueError("weight of the zero polynomial is undefined")
    return len(p.coeffs) - 1


# ---------------------------------------------------------------------------
# twist data

@dataclass(frozen=True, slots=True)
class SigmaDelta:
    """Endomorphism/derivation pair driving the commutation rule.

    sigma is the scaling y -> q y, the identity when q = 1; delta is d/dy
    when ``ddy`` is set, which needs q = 1, and zero otherwise.  sigma is a
    degree-preserving automorphism, so it maps nonunits to nonunits.
    """

    q: Fraction = Fraction(1)
    ddy: bool = False

    def __post_init__(self) -> None:
        # the row cores read num(q) and den(q): hold q as a reduced Fraction
        # whatever rational type it arrives as
        object.__setattr__(self, "q", Fraction(self.q))
        if self.q == 0:
            raise ValueError("scale factor must be invertible")
        if self.ddy and self.q != 1:
            raise ValueError("d/dy is a derivation only for the identity twist")


def weyl() -> SigmaDelta:
    return SigmaDelta(ddy=True)


def quantum_plane(q=2) -> SigmaDelta:
    return SigmaDelta(q)


def parse_config(text: str) -> tuple[str, SigmaDelta]:
    """Parse a configuration string: ``weyl``, ``qplane:q=2`` or ``qtorus:q=2``.

    Returns ("poly", sd) for skew polynomial configurations and
    ("laurent", sd) for the quantum torus.
    """
    text = text.strip()
    if text == "weyl":
        return "poly", weyl()
    for prefix, kind in (("qplane", "poly"), ("qtorus", "laurent")):
        if text.startswith(prefix):
            q = Fraction(2)
            rest = text[len(prefix) :]
            if rest:
                if not rest.startswith(":q="):
                    raise ValueError(f"bad configuration: {text!r}")
                try:
                    q = parse_rational(rest[3:])
                except ValueError as exc:
                    raise ValueError(f"bad q in {prefix} configuration: {exc}") from None
            return kind, quantum_plane(q)
    raise ValueError(f"unknown configuration: {text!r}")


# ---------------------------------------------------------------------------
# skew polynomials  f = sum_i x^i a_i

@dataclass(frozen=True, slots=True)
class OrePoly:
    coeffs: tuple[Poly, ...]  # right coefficients, no trailing zero
    sd: SigmaDelta

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1].is_zero():
            raise ValueError("trailing zero coefficient")

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Poly:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_unit(self) -> bool:
        # units are the nonzero scalars
        return len(self.coeffs) == 1 and self.coeffs[0].is_unit()


def ore_from_coeffs(coeffs: Iterable[Poly], sd: SigmaDelta) -> OrePoly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return OrePoly(tuple(coeffs), sd)


def _sigma_power(sd: SigmaDelta, k: int, top: int) -> tuple[list[int] | None, int]:
    """sigma^k, y -> q^k y for any integer k, on rows of y-degree at most
    ``top``: the factors num^i * den^(top - i), i = 0..top, that multiply the
    entries, and the denominator den^top the rows gain, with num / den = q^k.
    As q^k = (den(q) / num(q))^(-k) when k < 0, num(q) and den(q) swap.  When
    q^k = 1 sigma^k is the identity: there are no factors (None), the rows
    stay as they are, uncopied, and gain nothing."""
    num, den = sd.q.numerator, sd.q.denominator
    if k < 0:
        num, den, k = den, num, -k
    num, den = num**k, den**k
    if num == den:  # q^k = 1
        return None, 1
    factors = [1] * (top + 1)
    power = 1
    for i in range(1, top + 1):
        power *= num
        factors[i] = power
    power = 1
    for i in range(top - 1, -1, -1):
        power *= den
        factors[i] *= power
    return factors, power


def _times_x(rows: list[list[int]], sd: SigmaDelta, factors: list[int] | None) -> list[list[int]]:
    """Numerator rows of h * x from those of h: one pass of
    a * x = x * sigma(a) + delta(a) over the coefficients of h, with sigma
    scaling by the factors of :func:`_sigma_power` unless there are none
    (q = 1)."""
    ddy = sd.ddy
    out: list[list[int]] = [[]] * (len(rows) + 1)  # slots are replaced, never mutated
    for m, c in enumerate(rows):
        if not c:
            continue
        out[m + 1] = c if factors is None else _scale_row(c, factors)  # slot m + 1 is first written here
        if ddy and len(c) > 1:
            d = _ddy_row(c)
            prev = out[m]
            if len(prev) < len(d):
                prev, d = d, prev
            out[m] = [a + b for a, b in zip(prev, d)] + prev[len(d) :]
    return out


def _mul_rows(f: list[list[int]], g: list[list[int]], sd: SigmaDelta) -> tuple[list[list[int]], int]:
    """Numerator rows of f * g from the nonzero numerator rows of f and g, as
    the sum over j of (f * x^j) * b_j for g = sum_j x^j b_j, and the factor by
    which the product's denominator exceeds den_f * den_g.  The rows come back
    trimmed, with no trailing zero row."""
    width_f = max(len(a) for a in f)
    width_g = max(len(b) for b in g)
    n_g = len(g)
    factors, step = _sigma_power(sd, 1, width_f - 1)  # step: denominator gained by f * x^j per x
    out = [[0] * (width_f + width_g - 1) for _ in range(len(f) + n_g - 1)]
    f_xj = f  # rows of f * x^j
    for j, b_row in enumerate(g):
        if j:
            f_xj = _times_x(f_xj, sd, factors)
        if not b_row:
            continue
        # bring (f * x^j) * b_j to the product's denominator den_f * den_g * step^(n_g - 1)
        if step != 1:
            lift = step ** (n_g - 1 - j)
            b_row = [n * lift for n in b_row]
        for m, c in enumerate(f_xj):
            acc = out[m]
            for i, a in enumerate(c):
                if a:
                    for k, d in enumerate(b_row, i):
                        acc[k] += a * d
    for row in out:
        while row and not row[-1]:
            row.pop()
    while out and not out[-1]:
        out.pop()
    return out, step ** (n_g - 1)


def ore_mul(f: OrePoly, g: OrePoly) -> OrePoly:
    """f * g as the sum over j of (f * x^j) * b_j, for g = sum_j x^j b_j,
    in integer numerators over one denominator for the whole product."""
    if f.sd != g.sd:
        raise ValueError("operands carry different twist data")
    if f.is_zero() or g.is_zero():
        return OrePoly((), f.sd)
    den_f = _denominator([c for a in f.coeffs for c in a.coeffs])
    den_g = _denominator([c for b in g.coeffs for c in b.coeffs])
    f_rows = [_numerators(a.coeffs, den_f) for a in f.coeffs]
    rows, gained = _mul_rows(f_rows, [_numerators(b.coeffs, den_g) for b in g.coeffs], f.sd)
    den = den_f * den_g * gained
    return OrePoly(tuple([_from_numerators(row, den) for row in rows]), f.sd)


def lambda_skew(f: OrePoly) -> int:
    """x-degree plus y-degree of the leading right coefficient."""
    if f.is_zero():
        raise ValueError("length of the zero element is undefined")
    return len(f.coeffs) - 1 + base_weight(f.leading())


def _lambda_rows(rows: list[list[int]], end: int = -1) -> int:
    """On trimmed numerator rows, the number of rows minus one plus the
    y-degree of the row at ``end``: lambda_skew for the top row (end -1),
    lambda_laurent for the bottom row (end 0); -1 for zero."""
    return len(rows) + len(rows[end]) - 2 if rows else -1


def _total_degree(rows: list[list[int]]) -> int:
    """Total degree in x and y (the filtration length) on trimmed numerator rows; -1 for zero."""
    return max((i + len(row) - 1 for i, row in enumerate(rows) if row), default=-1)


def _law_rows(
    p: list[list[int]], den: int, f: list[list[int]], g: list[list[int]], k: int, end: int, sd: SigmaDelta
) -> bool:
    """The end-coefficient identity of a product: it has len(f) + len(g) - 1
    rows, and its row at ``end`` is sigma^k(f[end]) * g[end].  For skew
    polynomials ``end`` is -1 and k = deg_x g (the leading law); for skew
    Laurent elements ``end`` is 0 and k is the lowest x-exponent of g (the
    lowest law).  f and g are integer rows and ``p`` the rows over ``den`` of
    their product.  sigma^k is formed here from the operands, not taken from
    the product, and compared by cross-multiplication."""
    if len(p) != len(f) + len(g) - 1:
        return False
    factors, den_end = _sigma_power(sd, k, len(f[end]) - 1)
    twisted = f[end] if factors is None else _scale_row(f[end], factors)
    return [n * den_end for n in p[end]] == [n * den for n in _mul_row(twisted, g[end])]


# ---------------------------------------------------------------------------
# skew Laurent polynomials  x^e * sum_i x^i a_i  (delta = 0)


def _pretwist(rows: list[list[int]], k: int, sd: SigmaDelta) -> tuple[list[list[int]], int]:
    """Rows of sigma^k(F) for F = sum_i x^i a_i, and the denominator they
    gain: as a * x^k = x^k * sigma^k(a), x^e F * x^k G = x^(e + k) sigma^k(F) G.
    When q^k = 1 (k = 0 included) the rows come back as they are."""
    factors, den = _sigma_power(sd, k, max(len(row) for row in rows) - 1)
    if factors is None:
        return rows, 1
    return [_scale_row(row, factors) for row in rows], den


# ---------------------------------------------------------------------------
# seeded randomized law checks

@dataclass(frozen=True, slots=True)
class LawCheckResult:
    configuration: str
    trials: int
    right_length_violations: int
    leading_law_violations: int

    def ok(self) -> bool:
        return self.right_length_violations == 0 and self.leading_law_violations == 0


_SMALL = tuple(Fraction(n) for n in range(-4, 5))  # _SMALL[n + 4] == n


def _below(bits, n: int, k: int) -> int:
    """A uniform draw from range(n), with ``bits = rng.getrandbits`` and
    k = n.bit_length(): CPython's ``Random._randbelow_with_getrandbits``, so
    it reads the generator exactly as ``rng.randrange(n)`` does, and
    ``a + _below(bits, b - a + 1, k)`` exactly as ``rng.randint(a, b)``."""
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _poly_row(bits, nonzero: bool = False) -> list[int]:
    """Up to 4 integers, each drawn from -4..4, with trailing zeros trimmed."""
    while True:
        row = [_below(bits, 9, 4) - 4 for _ in range(_below(bits, 5, 3))]
        while row and not row[-1]:
            row.pop()
        if row or not nonzero:
            return row


def _ore_rows(bits, nonzero: bool = False) -> list[list[int]]:
    """Up to 4 :func:`_poly_row` rows, with trailing zero rows trimmed."""
    while True:
        rows = [_poly_row(bits) for _ in range(_below(bits, 5, 3))]
        while rows and not rows[-1]:
            rows.pop()
        if rows or not nonzero:
            return rows


def _laurent_rows(bits) -> tuple[int, list[list[int]]]:
    """A nonzero skew Laurent element as (e, rows): up to 3 :func:`_poly_row`
    terms at x-exponents drawn from -3..3, terms on one exponent added, then
    the lowest exponent e and one row per exponent from e up, empty where
    nothing is left.  A zero element is drawn again."""
    while True:
        acc: dict[int, list[int]] = {}
        for _ in range(_below(bits, 4, 3)):
            row = _poly_row(bits)
            if row:
                e = _below(bits, 7, 3) - 3
                total = [a + b for a, b in zip_longest(acc.get(e, ()), row, fillvalue=0)]
                while total and not total[-1]:
                    total.pop()
                acc[e] = total
        exps = [e for e, row in acc.items() if row]
        if exps:
            lo = min(exps)
            return lo, [acc.get(e, []) for e in range(lo, max(exps) + 1)]


def _small_poly(row: list[int]) -> Poly:
    return Poly(tuple([_SMALL[n + 4] for n in row]))


def random_poly(rng, nonzero: bool = False) -> Poly:
    """Up to 4 coefficients, each drawn from -4..4."""
    return _small_poly(_poly_row(rng.getrandbits, nonzero))


def random_ore(rng, sd: SigmaDelta, nonzero: bool = False) -> OrePoly:
    """Up to 4 x-coefficients, each a :func:`random_poly`."""
    return OrePoly(tuple([_small_poly(row) for row in _ore_rows(rng.getrandbits, nonzero)]), sd)


def check_skew_laws(configuration: str, pairs: int, seed: int = 0) -> LawCheckResult:
    """Randomized audit of the right-length drop and the leading-term law.

    Draws ``pairs`` products g*h with g nonzero and h a nonzero nonunit in
    the named configuration and counts violations of
    ``lambda(g*h) > lambda(g)`` and of the leading/lowest coefficient law.
    Deterministic for a fixed seed.

    Every configuration runs one loop on integer rows: draw, twist g's rows
    by sigma^k with k the lowest x-exponent of h (0 for skew polynomials),
    one :func:`_mul_rows`, the lambda drop, then the law.  The configuration
    picks only the draw and the end whose row lambda and the law read (top
    for lambda_skew and the leading coefficient, bottom for lambda_laurent
    and the lowest coefficient).
    """
    import random

    kind, sd = parse_config(configuration)
    laurent = kind == "laurent"
    draw = _laurent_rows if laurent else lambda bits: (0, _ore_rows(bits, nonzero=True))
    end = 0 if laurent else -1
    bits = random.Random(seed).getrandbits
    right_bad = 0
    law_bad = 0
    for _ in range(pairs):
        _, g = draw(bits)
        k, h = draw(bits)
        while len(h) == 1 and len(h[0]) == 1:  # the units: nonzero scalars times a power of x
            k, h = draw(bits)
        twisted, den = _pretwist(g, k, sd)
        p, gained = _mul_rows(twisted, h, sd)
        den *= gained
        if not _lambda_rows(p, end) > _lambda_rows(g, end):
            right_bad += 1
        if not _law_rows(p, den, g, h, k if laurent else len(h) - 1, end, sd):
            law_bad += 1
    return LawCheckResult(configuration, pairs, right_bad, law_bad)


def check_filtration_additivity(pairs: int, seed: int = 0) -> tuple[int, int]:
    """Count violations of lambda(fg) = lambda(f) + lambda(g) for the total
    degree on random nonzero Weyl-algebra pairs; returns (trials, violations)."""
    import random

    sd = weyl()
    bits = random.Random(seed).getrandbits
    bad = 0
    for _ in range(pairs):
        f = _ore_rows(bits, nonzero=True)
        g = _ore_rows(bits, nonzero=True)
        if _total_degree(_mul_rows(f, g, sd)[0]) != _total_degree(f) + _total_degree(g):
            bad += 1
    return pairs, bad
