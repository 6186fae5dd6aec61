"""Arithmetic in the monoid algebra of the two-relator monoid.

Elements are finite maps from canonical monoid elements to nonzero scalars of
an exact field (arbitrary-precision rationals by default, or a prime field
for faster randomized sweeps).  Products multiply supports through the monoid
and collect coefficients, so every ring identity that holds here holds on the
nose; there are no tolerances anywhere in this module.

The divisibility probe searches for an exact right cofactor with support in a
finite candidate set by solving a linear system over the field.  Each column
``f * candidate`` has only as many nonzeros as f has terms, so the system
splits into connected components, and only those containing a term of the
target are solved; the cofactor is the one the whole system would give,
because elimination picks pivots left to right within each block and blocks
with a zero right-hand side contribute zero.

Definite negative answers come from two obstructions: the a-degree is
additive on nonzero products, and a (scalar multiple of a) single monoid
element can only be a product of scalar multiples of monoid elements, so
monomial-by-monomial division reduces to an exact division in the monoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from . import monoid
from .groups import ALPHABET, NormalForm, left_quotient

Scalar = Union[Fraction, int]

NEG_INF = float("-inf")


def _is_prime(n: int) -> bool:
    """Trial division: exact, and about 46,000 divisions at most for n < 2^31."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@dataclass(frozen=True, slots=True)
class Field:
    """Exact coefficient field: rationals (modulus None) or a prime field."""

    modulus: Optional[int] = None

    def __post_init__(self) -> None:
        if self.modulus is not None:
            if not (2 <= self.modulus < 2**31) or not _is_prime(self.modulus):
                raise ValueError(f"modulus must be a prime below 2^31: {self.modulus}")

    @staticmethod
    def rationals() -> "Field":
        return Field(None)

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(p)

    @property
    def zero(self) -> Scalar:
        return 0 if self.modulus else Fraction(0)

    @property
    def one(self) -> Scalar:
        return 1 if self.modulus else Fraction(1)

    def from_int(self, n: int) -> Scalar:
        return n % self.modulus if self.modulus else Fraction(n)

    def add(self, x: Scalar, y: Scalar) -> Scalar:
        return (x + y) % self.modulus if self.modulus else x + y

    def neg(self, x: Scalar) -> Scalar:
        return (-x) % self.modulus if self.modulus else -x

    def mul(self, x: Scalar, y: Scalar) -> Scalar:
        return (x * y) % self.modulus if self.modulus else x * y

    def inv(self, x: Scalar) -> Scalar:
        if x == 0:
            raise ZeroDivisionError("division by zero in coefficient field")
        if self.modulus:
            return pow(x, self.modulus - 2, self.modulus)
        return Fraction(1) / x

    def parse(self, text: str) -> Scalar:
        text = text.strip()
        try:
            if self.modulus:
                if "/" in text:
                    num, den = text.split("/", 1)
                    return self.mul(self.from_int(int(num)), self.inv(self.from_int(int(den))))
                return self.from_int(int(text))
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"coefficient {text!r} divides by zero") from None

    def format(self, x: Scalar) -> str:
        return str(x)


@dataclass(frozen=True)
class AlgebraElement:
    """Finite linear combination of monoid elements with nonzero coefficients."""

    field: Field
    terms: tuple[tuple[NormalForm, Scalar], ...]  # sorted by shortlex, no zeros

    def __post_init__(self) -> None:
        for _, coeff in self.terms:
            if coeff == 0:
                raise ValueError("zero coefficient stored")

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def display(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{self.field.format(c)} * {nf.display()}" for nf, c in self.terms)


def _build(field: Field, mapping: dict[NormalForm, Scalar]) -> AlgebraElement:
    items = [(nf, c) for nf, c in mapping.items() if c != 0]
    items.sort(key=lambda item: item[0].shortlex_key())
    return AlgebraElement(field, tuple(items))


def zero(field: Field) -> AlgebraElement:
    return AlgebraElement(field, ())


def monomial(field: Field, nf: NormalForm, coeff: Scalar = None) -> AlgebraElement:
    if coeff is None:
        coeff = field.one
    return _build(field, {nf: coeff})


def from_terms(field: Field, items: Iterable[tuple[NormalForm, Scalar]]) -> AlgebraElement:
    acc: dict[NormalForm, Scalar] = {}
    for nf, c in items:
        acc[nf] = field.add(acc.get(nf, field.zero), c)
    return _build(field, acc)


def _check_same_field(f: AlgebraElement, g: AlgebraElement) -> None:
    if f.field != g.field:
        raise ValueError("elements live over different coefficient fields")


def alg_add(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    _check_same_field(f, g)
    acc = dict(f.terms)
    for nf, c in g.terms:
        acc[nf] = f.field.add(acc.get(nf, f.field.zero), c)
    return _build(f.field, acc)


def alg_mul(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    _check_same_field(f, g)
    acc: dict[NormalForm, Scalar] = {}
    for s, cs in f.terms:
        for t, ct in g.terms:
            st = monoid.multiply(s, t)
            acc[st] = f.field.add(acc.get(st, f.field.zero), f.field.mul(cs, ct))
    return _build(f.field, acc)


def deg_a(f: AlgebraElement):
    """Highest a-count over the support; -inf for the zero element.

    Additive on products of nonzero elements, because the algebra embeds into
    a skew Laurent extension graded by the a-exponent over a domain.  That
    needs K[M] to have no zero divisors: M embeds in a group with unique
    products, so supp f * supp g has a uniquely represented element whose
    coefficient survives in f*g (pinned on seeded supports by
    ``tests/test_groups.py::test_supports_multiply_with_two_uniquely_represented_products``).
    """
    if f.is_zero():
        return NEG_INF
    return max(nf.a_count for nf, _ in f.terms)


@dataclass(frozen=True, slots=True)
class DivisionResult:
    status: str  # "yes" | "no" | "unknown"
    cofactor: Optional[AlgebraElement] = None


def _solve_exact(field: Field, rows: list[list[Scalar]], rhs: list[Scalar]) -> Optional[list[Scalar]]:
    """One exact solution of rows * x = rhs (free variables pinned to zero),
    or None if the system is inconsistent.  Columns are eliminated left to
    right, so earlier unknowns are preferred."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivot_cols: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = field.inv(aug[r][col])
        aug[r] = [field.mul(v, inv) for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [field.add(v, field.neg(field.mul(factor, w))) for v, w in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    solution = [field.zero] * n
    for row_idx, col in enumerate(pivot_cols):
        solution[col] = aug[row_idx][n]
    return solution


def _touching_columns(columns: list[dict[NormalForm, Scalar]], target: Iterable[NormalForm]) -> list[int]:
    """Indices, in order, of the columns whose connected component contains a
    target row.  Rows are joined by a union-find whenever one column has
    nonzeros in both."""
    parent: dict[NormalForm, NormalForm] = {}

    def find(x: NormalForm) -> NormalForm:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for column in columns:
        keys = iter(column)
        root = find(next(keys))
        for key in keys:
            parent[find(key)] = root
    live = {find(t) for t in target}
    return [j for j, column in enumerate(columns) if find(next(iter(column))) in live]


def divides_right(f: AlgebraElement, g: AlgebraElement, search_cap: int = 6) -> DivisionResult:
    """Probe whether g lies in f * (algebra): bounded but certified.

    ``yes`` returns a cofactor h with f*h = g, re-verified by multiplication;
    a failed re-check raises :class:`monoid.ChainVerificationError`.  That h
    is the only one: f*h = f*h' gives f*(h - h') = 0, and K[M] is a domain
    (see :func:`deg_a`, and
    ``tests/test_groups.py::test_supports_multiply_with_two_uniquely_represented_products``).
    ``no`` is only returned with a proof: either the a-degree obstruction
    (deg_a is additive and deg_a(f) > deg_a(g)), or, when both sides are
    scalar multiples of single monoid elements, failure of the exact monoid
    division (divisors of monomials are monomials).  Otherwise the bounded
    search over cofactor supports of canonical length <= search_cap is
    inconclusive and ``unknown`` is returned.

    The search solves ``sum_j x_j * (f * c_j) = g`` over the candidates c_j
    of a-count <= deg_a(g) - deg_a(f) in shortlex order, but only on the
    connected components of the system that contain a term of g.  This
    returns the same cofactor as solving the whole system: the matrix is
    block-diagonal up to a permutation of rows and columns, and elimination
    picks pivot columns left to right, so the pivot set is the union of the
    per-block pivot sets.  With free variables set to zero the solution is
    unique given the pivots, so blocks whose right-hand side is zero
    contribute zero.  A term of g that no column reaches still leaves the
    system inconsistent.
    """
    if search_cap < 0:
        raise ValueError(f"search cap must be non-negative, got {search_cap}")
    if f.is_zero():
        raise ValueError("left factor must be nonzero")
    if g.is_zero():
        return DivisionResult("yes", zero(f.field))
    _check_same_field(f, g)
    if deg_a(f) > deg_a(g):
        return DivisionResult("no")
    if f.is_monomial() and g.is_monomial():
        (s, cs), (t, ct) = f.terms[0], g.terms[0]
        v = left_quotient(s, t)
        if v is None:
            return DivisionResult("no")
        h = monomial(f.field, v, f.field.mul(ct, f.field.inv(cs)))
        if alg_mul(f, h) != g:  # pragma: no cover - the monoid division is exact
            raise monoid.ChainVerificationError("monomial cofactor failed to multiply back")
        return DivisionResult("yes", h)
    field = f.field
    candidates = list(monoid.enumerate_elements(search_cap, deg_a(g) - deg_a(f)))
    # The monoid embeds in a group, so it is cancellative: the products
    # s * nf over the support of f are distinct and no coefficients collect.
    columns = [{monoid.multiply(s, nf): c for s, c in f.terms} for nf in candidates]
    target = dict(g.terms)
    kept = _touching_columns(columns, target)
    support = sorted(
        {key for j in kept for key in columns[j]} | set(target), key=NormalForm.shortlex_key
    )
    rows = [[columns[j].get(key, field.zero) for j in kept] for key in support]
    rhs = [target.get(key, field.zero) for key in support]
    solution = _solve_exact(field, rows, rhs)
    if solution is None:
        return DivisionResult("unknown")
    h = from_terms(field, [(candidates[j], c) for j, c in zip(kept, solution) if c != 0])
    if alg_mul(f, h) != g:  # pragma: no cover - the solver is exact
        raise monoid.ChainVerificationError("solver cofactor failed to multiply back")
    return DivisionResult("yes", h)


def parse_element(text: str, field: Field) -> AlgebraElement:
    """Parse the element literal, e.g. ``3/2 * b^2 a^1 + -1 * e``."""
    text = text.strip()
    if text == "0":
        return zero(field)
    items: list[tuple[NormalForm, Scalar]] = []
    for part in text.split(" + "):
        part = part.strip()
        if "*" in part:
            coeff_text, word_text = part.split("*", 1)
            coeff = field.parse(coeff_text)
        else:
            coeff, word_text = field.one, part
        from .words import parse_word  # local import to keep module deps one-way

        nf = monoid.normalize(parse_word(word_text.strip(), ALPHABET))
        items.append((nf, coeff))
    return from_terms(field, items)
