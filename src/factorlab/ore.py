"""Skew polynomial and skew Laurent rings over the rational polynomial ring.

Polynomials are written with right coefficients, f = sum_i x^i a_i with
a_i in Q[y], and multiplication is driven by the commutation rule

    a * x = x * sigma(a) + delta(a)

for base-ring elements a.  Three ready-made configurations cover the rings
exercised here: the Weyl algebra (sigma = id, delta = d/dy), the quantum
plane (sigma: y -> q y, delta = 0), and the quantum torus, the Laurent ring
over the scaling automorphism.

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

Base-ring arithmetic (the content/primitive-part representation, Knuth,
*TAOCP* vol. 2, sec. 4.6.1): ``Poly`` stores one reduced ``Fraction`` per
coefficient, but ``+``, ``*``, ``derivative`` and ``scale_argument`` bring
their operands to integer numerators over one common denominator (the lcm
of the coefficient denominators), compute in plain ints, trim trailing zeros
while the values are still ints, and reduce each output coefficient once.
A product of an m- and an n-coefficient polynomial thus costs m*n int
products and one gcd per output coefficient, where term-by-term
``Fraction`` arithmetic pays gcds for every term product and partial sum.

Length functions:

* ``lambda_skew(f) = deg_x(f) + weight(leading coefficient)`` strictly drops
  against proper right factors, with ``weight`` the y-degree on the base ring
  (an upper-bound surrogate for the maximal factorization length: the
  y-degree is itself superadditive and vanishes exactly on units, so every
  bound certified through it is valid);
* ``lambda_laurent(f) = (window width) + weight(lowest coefficient)`` is the
  Laurent analogue;
* ``lambda_filtration(f)`` is the total degree in x and y, exactly additive
  on products in the Weyl algebra because the associated graded ring of that
  filtration is a commutative polynomial ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .xy_poly import parse_rational

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q

@dataclass(frozen=True, slots=True)
class Poly:
    """Polynomial in y over the rationals; coeffs[i] multiplies y^i."""

    coeffs: tuple[Fraction, ...] = ()

    @staticmethod
    def of(*values) -> "Poly":
        return _poly(values)

    @staticmethod
    def const(value) -> "Poly":
        return Poly.of(value)

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_unit(self) -> bool:
        return len(self.coeffs) == 1

    def __add__(self, other: "Poly") -> "Poly":
        if len(self.coeffs) < len(other.coeffs):
            return other + self
        if not other.coeffs:
            return self
        den = math.lcm(_denominator(self.coeffs), _denominator(other.coeffs))
        out = _numerators(self.coeffs, den)
        for i, n in enumerate(_numerators(other.coeffs, den)):
            out[i] += n
        return _from_numerators(out, den)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return ZERO_POLY
        den_f, den_g = _denominator(self.coeffs), _denominator(other.coeffs)
        g = _numerators(other.coeffs, den_g)
        out = [0] * (len(self.coeffs) + len(g) - 1)
        for i, c in enumerate(_numerators(self.coeffs, den_f)):
            if c:
                for j, d in enumerate(g, i):
                    out[j] += c * d
        return _from_numerators(out, den_f * den_g)

    def derivative(self) -> "Poly":
        coeffs = self.coeffs[1:]
        den = _denominator(coeffs)
        return _from_numerators([i * n for i, n in enumerate(_numerators(coeffs, den), 1)], den)

    def shift_argument(self, k: int) -> "Poly":
        """p(y) -> p(y + k), by Horner evaluation at y + k."""
        acc = ZERO_POLY
        y_plus_k = Poly.of(k, 1)
        for c in reversed(self.coeffs):
            acc = acc * y_plus_k + Poly.const(c)
        return acc

    def scale_argument(self, q: Fraction) -> "Poly":
        """p(y) -> p(q y), with running powers of q's numerator and denominator.

        Over the common denominator ``d * den(q)^m`` (m = degree), the y^i
        coefficient n_i / d becomes n_i * num(q)^i * den(q)^(m - i).
        """
        if len(self.coeffs) < 2:
            return self
        den = _denominator(self.coeffs)
        out = _numerators(self.coeffs, den)
        q_num, q_den = q.numerator, q.denominator
        power = 1
        for i in range(1, len(out)):
            power *= q_num
            out[i] *= power
        power = 1
        for i in range(len(out) - 2, -1, -1):
            power *= q_den
            out[i] *= power
        return _from_numerators(out, den * power)

    def display(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*y" if c != 1 else "y")
            else:
                parts.append(f"{c}*y^{i}" if c != 1 else f"y^{i}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.display()


def _poly(coeffs: Sequence) -> Poly:
    """Trim trailing zeros; wrap only the values that are not already Fractions."""
    coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return Poly(tuple(coeffs))


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


ZERO_POLY = Poly()
Y = Poly.of(0, 1)


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

    sigma is one of identity, shift (y -> y+1) or scale (y -> q y); delta is
    zero or d/dy, the latter only alongside the identity.  All three sigmas
    are degree-preserving automorphisms, so they map nonunits to nonunits.
    """

    sigma: str  # "identity" | "shift" | "scale"
    delta: str = "zero"  # "zero" | "ddy"
    q: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.sigma not in ("identity", "shift", "scale"):
            raise ValueError(f"unknown sigma: {self.sigma!r}")
        if self.delta not in ("zero", "ddy"):
            raise ValueError(f"unknown delta: {self.delta!r}")
        if self.delta == "ddy" and self.sigma != "identity":
            raise ValueError("d/dy is a derivation only for the identity twist")
        if self.sigma == "scale" and self.q == 0:
            raise ValueError("scale factor must be invertible")
        # an int q would turn q**k into a float for negative k
        object.__setattr__(self, "q", Fraction(self.q))

    def apply_sigma(self, p: Poly, k: int = 1) -> Poly:
        if self.sigma == "identity" or k == 0:
            return p
        if self.sigma == "shift":
            return p.shift_argument(k)
        return p.scale_argument(self.q**k)

    def apply_delta(self, p: Poly) -> Poly:
        if self.delta == "zero":
            return ZERO_POLY
        return p.derivative()


def weyl() -> SigmaDelta:
    return SigmaDelta("identity", "ddy")


def quantum_plane(q=2) -> SigmaDelta:
    return SigmaDelta("scale", "zero", Fraction(q))


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

    def deg_x(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def leading(self) -> Poly:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_unit(self) -> bool:
        # units are the nonzero scalars
        return len(self.coeffs) == 1 and self.coeffs[0].is_unit()

    def display(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            if i == 0:
                parts.append(f"({c.display()})")
            elif i == 1:
                parts.append(f"x*({c.display()})")
            else:
                parts.append(f"x^{i}*({c.display()})")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.display()


def _ore(coeffs: Sequence[Poly], sd: SigmaDelta) -> OrePoly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return OrePoly(tuple(coeffs), sd)


def ore_zero(sd: SigmaDelta) -> OrePoly:
    return OrePoly((), sd)


def ore_from_coeffs(coeffs: Iterable[Poly], sd: SigmaDelta) -> OrePoly:
    return _ore(list(coeffs), sd)


def _same_twist(f: OrePoly, g: OrePoly) -> None:
    if f.sd != g.sd:
        raise ValueError("operands carry different twist data")


def _times_x(coeffs: list[Poly], sd: SigmaDelta) -> list[Poly]:
    """Right coefficients of h * x from those of h: one pass of
    a * x = x * sigma(a) + delta(a) over the coefficients of h."""
    out = [ZERO_POLY] * (len(coeffs) + 1)
    for m, c in enumerate(coeffs):
        if c.is_zero():
            continue
        out[m + 1] = sd.apply_sigma(c)  # slot m + 1 is first written here
        out[m] = out[m] + sd.apply_delta(c)
    return out


def ore_mul(f: OrePoly, g: OrePoly) -> OrePoly:
    """f * g as the sum over j of (f * x^j) * b_j, for g = sum_j x^j b_j."""
    _same_twist(f, g)
    if f.is_zero() or g.is_zero():
        return ore_zero(f.sd)
    out = [ZERO_POLY] * (len(f.coeffs) + len(g.coeffs) - 1)
    f_xj = list(f.coeffs)  # right coefficients of f * x^j
    for j, b in enumerate(g.coeffs):
        if j:
            f_xj = _times_x(f_xj, f.sd)
        if b.is_zero():
            continue
        for m, c in enumerate(f_xj):
            if not c.is_zero():
                out[m] = out[m] + c * b
    return _ore(out, f.sd)


def lambda_skew(f: OrePoly) -> int:
    """x-degree plus y-degree of the leading right coefficient."""
    if f.is_zero():
        raise ValueError("length of the zero element is undefined")
    return len(f.coeffs) - 1 + base_weight(f.leading())


def lambda_filtration(f: OrePoly) -> int:
    """Total degree in x and y; requires the Weyl configuration.

    Additive on products: the graded ring of the total-degree filtration of
    the Weyl algebra is the commutative polynomial ring in two variables.
    """
    if f.sd != weyl():
        raise ValueError("the filtration length is defined for the Weyl configuration")
    if f.is_zero():
        raise ValueError("length of the zero element is undefined")
    return max(i + base_weight(c) for i, c in enumerate(f.coeffs) if not c.is_zero())


def leading_law_holds(product: OrePoly, f: OrePoly, g: OrePoly) -> bool:
    """Check the top-coefficient identity of a product f*g:
    lead(f*g) = sigma^{deg g}(lead f) * lead g."""
    if f.is_zero() or g.is_zero():
        return product.is_zero()
    l = len(g.coeffs) - 1
    expected = f.sd.apply_sigma(f.leading(), l) * g.leading()
    return (
        product.deg_x() == f.deg_x() + g.deg_x()
        and product.leading() == expected
    )


# ---------------------------------------------------------------------------
# skew Laurent polynomials  f = sum_i x^i a_i,  i in Z

@dataclass(frozen=True, slots=True)
class LaurentOrePoly:
    coeffs: tuple[tuple[int, Poly], ...]  # sorted by exponent, nonzero coeffs
    sd: SigmaDelta

    def __post_init__(self) -> None:
        if self.sd.delta != "zero":
            raise ValueError("Laurent twists must have zero derivation")
        exps = [e for e, _ in self.coeffs]
        if exps != sorted(exps) or len(set(exps)) != len(exps):
            raise ValueError("coefficients must be sorted by distinct exponents")
        if any(c.is_zero() for _, c in self.coeffs):
            raise ValueError("zero coefficient stored")

    def is_zero(self) -> bool:
        return not self.coeffs

    def window(self) -> tuple[int, int]:
        if not self.coeffs:
            raise ValueError("zero element has no support window")
        return self.coeffs[0][0], self.coeffs[-1][0]

    def lowest(self) -> Poly:
        if not self.coeffs:
            raise ValueError("zero element has no lowest coefficient")
        return self.coeffs[0][1]

    def is_unit(self) -> bool:
        # units are scalar multiples of powers of x
        return len(self.coeffs) == 1 and self.coeffs[0][1].is_unit()

    def display(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"x^{e}*({c.display()})" for e, c in self.coeffs)

    def __str__(self) -> str:
        return self.display()


def laurent(coeffs: dict[int, Poly], sd: SigmaDelta) -> LaurentOrePoly:
    items = sorted((e, c) for e, c in coeffs.items() if not c.is_zero())
    return LaurentOrePoly(tuple(items), sd)


def laurent_mul(f: LaurentOrePoly, g: LaurentOrePoly) -> LaurentOrePoly:
    if f.sd != g.sd:
        raise ValueError("operands carry different twist data")
    acc: dict[int, Poly] = {}
    for i, a in f.coeffs:
        for j, b in g.coeffs:
            # a * x^j = x^j * sigma^j(a)
            term = f.sd.apply_sigma(a, j) * b
            acc[i + j] = acc.get(i + j, ZERO_POLY) + term
    return laurent(acc, f.sd)


def lambda_laurent(f: LaurentOrePoly) -> int:
    """Support-window width plus y-degree of the lowest coefficient."""
    if f.is_zero():
        raise ValueError("length of the zero element is undefined")
    lo, hi = f.window()
    return hi - lo + base_weight(f.lowest())


def laurent_lowest_law_holds(product: LaurentOrePoly, f: LaurentOrePoly, g: LaurentOrePoly) -> bool:
    """Lowest-coefficient identity for Laurent products:
    low(f*g) = sigma^{min-exp g}(low f) * low g."""
    if f.is_zero() or g.is_zero():
        return product.is_zero()
    mg = g.window()[0]
    expected = f.sd.apply_sigma(f.lowest(), mg) * g.lowest()
    return (
        product.window()[0] == f.window()[0] + mg
        and product.lowest() == expected
    )


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


def random_poly(rng, nonzero: bool = False) -> Poly:
    """Up to 4 coefficients, each drawn from -4..4."""
    while True:
        p = _poly([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 4))])
        if not nonzero or not p.is_zero():
            return p


def random_ore(rng, sd: SigmaDelta, nonzero: bool = False) -> OrePoly:
    """Up to 4 x-coefficients, each a :func:`random_poly`."""
    while True:
        f = _ore([random_poly(rng) for _ in range(rng.randint(0, 4))], sd)
        if not nonzero or not f.is_zero():
            return f


def random_laurent(rng, sd: SigmaDelta, nonzero: bool = False) -> LaurentOrePoly:
    """Up to 3 :func:`random_poly` terms at x-exponents drawn from -3..3."""
    while True:
        acc: dict[int, Poly] = {}
        for _ in range(rng.randint(0, 3)):
            p = random_poly(rng)
            if not p.is_zero():
                e = rng.randint(-3, 3)
                acc[e] = acc.get(e, ZERO_POLY) + p
        f = laurent(acc, sd)
        if not nonzero or not f.is_zero():
            return f


def check_skew_laws(configuration: str, pairs: int, seed: int = 0) -> LawCheckResult:
    """Randomized audit of the right-length drop and the leading-term law.

    Draws ``pairs`` products g*h with g nonzero and h a nonzero nonunit in
    the named configuration and counts violations of
    ``lambda(g*h) > lambda(g)`` and of the leading/lowest coefficient law.
    Deterministic for a fixed seed.
    """
    import random

    kind, sd = parse_config(configuration)
    rng = random.Random(seed)
    right_bad = 0
    law_bad = 0
    for _ in range(pairs):
        if kind == "poly":
            g = random_ore(rng, sd, nonzero=True)
            h = random_ore(rng, sd, nonzero=True)
            while h.is_unit():
                h = random_ore(rng, sd, nonzero=True)
            p = ore_mul(g, h)
            if not lambda_skew(p) > lambda_skew(g):
                right_bad += 1
            if not leading_law_holds(p, g, h):
                law_bad += 1
        else:
            g = random_laurent(rng, sd, nonzero=True)
            h = random_laurent(rng, sd, nonzero=True)
            while h.is_unit():
                h = random_laurent(rng, sd, nonzero=True)
            p = laurent_mul(g, h)
            if not lambda_laurent(p) > lambda_laurent(g):
                right_bad += 1
            if not laurent_lowest_law_holds(p, g, h):
                law_bad += 1
    return LawCheckResult(configuration, pairs, right_bad, law_bad)


def check_filtration_additivity(pairs: int, seed: int = 0) -> tuple[int, int]:
    """Count violations of lambda(fg) = lambda(f) + lambda(g) for the total
    degree on random nonzero Weyl-algebra pairs; returns (trials, violations)."""
    import random

    sd = weyl()
    rng = random.Random(seed)
    bad = 0
    for _ in range(pairs):
        f = random_ore(rng, sd, nonzero=True)
        g = random_ore(rng, sd, nonzero=True)
        if lambda_filtration(ore_mul(f, g)) != lambda_filtration(f) + lambda_filtration(g):
            bad += 1
    return pairs, bad

