"""An affine PI matrix ring with no atoms below a special shape: executable.

Inside the 2x2 matrices over Q[x, y, y^{-1}] (x not invertible, y invertible)
sits the subring whose top-right entry is divisible by x and whose bottom-
right entry is a y-polynomial plus a multiple of x:

    [ S      xS        ]
    [ S      Q[y] + xS ]

The ring fails to be atomic, and the failure has a hands-on witness: any
member whose entire second column is divisible by x and whose determinant is
nonzero factors as diag(1, y) times another member of the same shape (scale
the second row by 1/y).  diag(1, y) lies in the ring but its inverse does
not, so it is a nonunit, and the peeling step can be repeated forever.
``peel_chain`` certifies the whole chain by one check on its start matrix and
the lemma in its docstring; ``tests/test_pi_matrix.py`` keeps the step-by-step
certificate as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .xy_poly import LaurentPoly2, ONE, ZERO, parse_laurent_poly

Y = LaurentPoly2.term(0, 1)
Y_INV = LaurentPoly2.term(0, -1)
_MINUS_ONE = LaurentPoly2.term(0, 0, -1)


@dataclass(frozen=True, slots=True)
class Mat2:
    """2x2 matrix over Q[x, y, y^{-1}], stored row-major."""

    a11: LaurentPoly2
    a12: LaurentPoly2
    a21: LaurentPoly2
    a22: LaurentPoly2

    def entries(self) -> tuple[LaurentPoly2, ...]:
        return (self.a11, self.a12, self.a21, self.a22)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def det(self) -> LaurentPoly2:
        return self.a11 * self.a22 + self.a12 * self.a21 * _MINUS_ONE

    def display(self) -> str:
        e = [p.display() for p in self.entries()]
        return f"[{e[0]}, {e[1]}; {e[2]}, {e[3]}]"


IDENTITY = Mat2(ONE, ZERO, ZERO, ONE)
PEEL_UNIT = Mat2(ONE, ZERO, ZERO, Y)
PEEL_UNIT_INVERSE = Mat2(ONE, ZERO, ZERO, Y_INV)


def in_ring(m: Mat2) -> bool:
    """Entrywise membership: (1,2) in xS, (2,2) in Q[y] + xS.

    The left column is unconstrained; the (2,2) entry may contain arbitrary
    y-powers only in terms carrying at least one x.
    """
    return m.a12.divisible_by_x() and m.a22.pure_y_part_polynomial()


def is_special_form(m: Mat2) -> bool:
    """Whole second column divisible by x and nonzero determinant."""
    return m.a12.divisible_by_x() and m.a22.divisible_by_x() and not m.det().is_zero()


@dataclass(frozen=True, slots=True)
class PeelStep:
    """``m = PEEL_UNIT^index * remainder``."""

    index: int
    remainder: Mat2


def peel_chain(m: Mat2, steps: int) -> Iterator[PeelStep]:
    """Yield m = diag(1, y)^k * rest_k for k = 1..steps, certified once.

    Every step peels the same cofactor PEEL_UNIT = diag(1, y), so a step
    holds k and rest_k only.

    Lemma: for special-form m, rest_k = diag(1, y^-k) * m (the second row
    times y^-k) is in the ring and special-form, det(rest_k) = y^-k * det(m)
    != 0, and diag(1, y) * rest_k = rest_{k-1}, with rest_0 = m.  Proof: y is
    a unit, and a power of y shifts y-exponents only, so it keeps every term
    nonzero and every x-exponent; the second column stays in xS.

    So ``m`` is checked once, before the first step: in the ring, special-form
    (its determinant is the only one the chain forms), and PEEL_UNIT a
    nonunit.  Each step shifts the second row's keys by ``y^-1``, in O(terms).
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    if not in_ring(m):
        raise ValueError("starting matrix is not in the ring")
    if not in_ring(PEEL_UNIT) or in_ring(PEEL_UNIT_INVERSE):  # pragma: no cover - fixed matrices
        raise AssertionError("diag(1, y) is not a nonunit of the ring")
    if not is_special_form(m):
        raise ValueError("peel requires the special form (second column in xS, det != 0)")
    a21, a22 = m.a21, m.a22
    for k in range(1, steps + 1):
        a21, a22 = a21 * Y_INV, a22 * Y_INV
        yield PeelStep(k, Mat2(m.a11, m.a12, a21, a22))


def power(m: Mat2, k: int) -> Mat2:
    """m^k by square-and-multiply: at most 2 * k.bit_length() products."""
    if k < 0:
        raise ValueError("matrix powers need a non-negative exponent")
    out = IDENTITY
    while k:
        if k & 1:
            out = out * m
        k >>= 1
        if k:
            m = m * m
    return out


def parse_matrix(text: str) -> Mat2:
    """Parse four semicolon-separated entry expressions in x, y, y^-1."""
    parts = text.split(";")
    if len(parts) != 4:
        raise ValueError("matrix literal needs exactly four ';'-separated entries")
    return Mat2(*(parse_laurent_poly(p) for p in parts))


def demo_matrix() -> Mat2:
    """The stock special-form starting point [1, x; 1, x*y]."""
    return Mat2(ONE, LaurentPoly2.term(1, 0), ONE, LaurentPoly2.term(1, 1))
