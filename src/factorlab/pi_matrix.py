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
not, so it is a nonunit, and the peeling step can be repeated forever.  Each
claim is checked once: ``peel`` certifies every step, and ``peel_chain`` the
nonunit cofactor, which is the same matrix at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .xy_poly import LaurentPoly2, ONE, ZERO, parse_laurent_poly

Y = LaurentPoly2.term(0, 1)
Y_INV = LaurentPoly2.term(0, -1)


@dataclass(frozen=True, slots=True)
class Mat2:
    """2x2 matrix over Q[x, y, y^{-1}], stored row-major."""

    a11: LaurentPoly2
    a12: LaurentPoly2
    a21: LaurentPoly2
    a22: LaurentPoly2

    def entries(self) -> tuple[LaurentPoly2, ...]:
        return (self.a11, self.a12, self.a21, self.a22)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(*(p + q for p, q in zip(self.entries(), other.entries())))

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def det(self) -> LaurentPoly2:
        return self.a11 * self.a22 - self.a12 * self.a21

    def display(self) -> str:
        e = [p.display() for p in self.entries()]
        return f"[{e[0]}, {e[1]}; {e[2]}, {e[3]}]"

    def __str__(self) -> str:
        return self.display()


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


def peel(m: Mat2) -> tuple[Mat2, Mat2]:
    """Split a special-form matrix as diag(1, y) * (same shape).

    Returns (PEEL_UNIT, rest), rest being m with its second row scaled by 1/y,
    so det(rest) = det(m)/y.  Before returning it checks, once each, that rest
    is in the ring, that rest is special-form (so det(rest) != 0), and that
    PEEL_UNIT * rest == m exactly.  ``peel_chain`` checks that PEEL_UNIT is a
    nonunit.
    """
    if not is_special_form(m):
        raise ValueError("peel requires the special form (second column in xS, det != 0)")
    rest = Mat2(m.a11, m.a12, m.a21 * Y_INV, m.a22 * Y_INV)
    checks = (in_ring(rest), is_special_form(rest), PEEL_UNIT * rest == m)
    if not all(checks):  # pragma: no cover - exact arithmetic
        raise AssertionError(f"peel certificate failed: {checks}")
    return PEEL_UNIT, rest


@dataclass(frozen=True, slots=True)
class PeelStep:
    index: int
    cofactor: Mat2
    remainder: Mat2


def peel_chain(m: Mat2, steps: int) -> Iterator[PeelStep]:
    """Iterate the peeling; every step is certified before it is yielded.

    The cofactor is PEEL_UNIT at every step, so its nonunit claim (it is in
    the ring, its inverse is not) is checked once, before the first step.
    Each remainder's membership, special shape, nonzero determinant and
    exact product are checked inside ``peel``.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    if not in_ring(m):
        raise ValueError("starting matrix is not in the ring")
    if not in_ring(PEEL_UNIT) or in_ring(PEEL_UNIT_INVERSE):  # pragma: no cover - fixed matrices
        raise AssertionError("diag(1, y) is not a nonunit of the ring")
    current = m
    for k in range(1, steps + 1):
        unit, current = peel(current)
        yield PeelStep(k, unit, current)


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
