"""Exact arithmetic in Q[x, y, y^{-1}] and the matrix-entry parser.

Terms are indexed by an x-exponent (non-negative: x is not invertible) and an
arbitrary integer y-exponent, with rational coefficients.  The parser reads
matrix entry literals: sums of products of numbers, ``x``, ``y``, powers like
``y^-1`` or ``x^2``, and parenthesized subexpressions such as ``x*(y+1)``.

``+`` and ``*`` work as ``ore.Poly`` does: the coefficients of both operands
become integer numerators over one common denominator, the terms combine in
plain ints, zero sums drop out while still ints, and each output coefficient
is reduced to a ``Fraction`` once.  A product of an m- and an n-term element
costs m*n int products and one gcd per output term; a zero operand returns
at once.  A single-term operand ``c x^i y^j`` costs O(n): the other operand's
keys shift by (i, j), which keeps them sorted, and its coefficients are
multiplied by ``c`` only when ``c`` is not 1, so a monomial such as ``y^-1``
builds no new ``Fraction``.

The parser bounds its work twice: ``MAX_TERM_PRODUCTS`` caps the number of
term products a literal may cost, and ``MAX_COEFF_BITS`` the size of every
coefficient it builds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, slots=True)
class LaurentPoly2:
    terms: tuple[tuple[tuple[int, int], Fraction], ...]  # ((x_exp, y_exp), coeff), sorted

    def __post_init__(self) -> None:
        for (i, _j), coeff in self.terms:
            if i < 0:
                raise ValueError("x-exponents must be non-negative (x is not invertible)")
            if coeff == 0:
                raise ValueError("zero coefficient stored")

    @staticmethod
    def from_dict(d: dict[tuple[int, int], Fraction]) -> "LaurentPoly2":
        return LaurentPoly2(tuple(sorted((k, Fraction(v)) for k, v in d.items() if v != 0)))

    @staticmethod
    def term(x_exp: int, y_exp: int, coeff=1) -> "LaurentPoly2":
        return LaurentPoly2.from_dict({(x_exp, y_exp): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        if not other.terms:
            return self
        if not self.terms:
            return other
        den = math.lcm(_denominator(self), _denominator(other))
        acc = dict(_numerators(self, den))
        for key, n in _numerators(other, den):
            acc[key] = acc.get(key, 0) + n
        return _from_numerators(acc, den)

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2(tuple([(k, -c) for k, c in self.terms]))

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        if not self.terms or not other.terms:
            return ZERO
        if len(other.terms) == 1:
            return _times_term(self, *other.terms[0])
        if len(self.terms) == 1:
            return _times_term(other, *self.terms[0])
        den_f, den_g = _denominator(self), _denominator(other)
        g = _numerators(other, den_g)
        acc: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in _numerators(self, den_f):
            for (i2, j2), c2 in g:
                key = (i1 + i2, j1 + j2)
                acc[key] = acc.get(key, 0) + c1 * c2
        return _from_numerators(acc, den_f * den_g)

    def divisible_by_x(self) -> bool:
        return all(i >= 1 for (i, _), _ in self.terms)

    def pure_y_part_polynomial(self) -> bool:
        """Whether every x-free term has a non-negative y-exponent, i.e. the
        element lies in Q[y] + x*Q[x, y, y^{-1}]."""
        return all(j >= 0 for (i, j), _ in self.terms if i == 0)

    def display(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j), coeff in self.terms:
            factors = []
            if coeff != 1 or (i == 0 and j == 0):
                factors.append(str(coeff))
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts)


ZERO = LaurentPoly2(())
ONE = LaurentPoly2.term(0, 0)


def _denominator(p: LaurentPoly2) -> int:
    """Least common denominator of the coefficients."""
    return math.lcm(*[c.denominator for _, c in p.terms])


def _numerators(p: LaurentPoly2, den: int) -> list[tuple[tuple[int, int], int]]:
    """The terms with integer numerators over the common denominator ``den``."""
    if den == 1:
        return [(key, c.numerator) for key, c in p.terms]
    return [(key, c.numerator * (den // c.denominator)) for key, c in p.terms]


def _times_term(p: LaurentPoly2, key: tuple[int, int], coeff: Fraction) -> LaurentPoly2:
    """p * coeff x^i y^j.  Adding (i, j) to every key keeps the keys sorted and
    distinct, and a product of nonzero coefficients is nonzero."""
    i, j = key
    if coeff == 1:
        return LaurentPoly2(tuple([((i1 + i, j1 + j), c) for (i1, j1), c in p.terms]))
    return LaurentPoly2(tuple([((i1 + i, j1 + j), c * coeff) for (i1, j1), c in p.terms]))


def _from_numerators(acc: dict[tuple[int, int], int], den: int) -> LaurentPoly2:
    """The element sum (acc[key] / den) x^i y^j: drop zeros while the values
    are ints, then reduce each coefficient once."""
    if den == 1:
        return LaurentPoly2(tuple([(key, Fraction(n)) for key, n in sorted(acc.items()) if n]))
    return LaurentPoly2(tuple([(key, Fraction(n, den)) for key, n in sorted(acc.items()) if n]))


_TOKEN_RE = re.compile(r"\s*(\d+/\d+|\d+|[xy()+\-*^]|\S)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        tok = m.group(1)
        if tok not in "xy()+-*^" and not re.fullmatch(r"\d+(/\d+)?", tok):
            raise ValueError(f"unexpected character {tok!r} in polynomial literal")
        tokens.append(tok)
        pos = m.end()
    return tokens


#: Deepest parenthesis nesting the parser accepts.  Each level costs four
#: stack frames, so this stays well inside the interpreter's recursion limit.
MAX_NESTING = 100

#: Most term products one literal may cost: every product of an ``m``-term
#: and an ``n``-term polynomial counts ``max(1, m*n)``, and a negative power
#: ``t^-k`` counts ``k``.  At a few microseconds per term product this keeps
#: a literal to about a second.
MAX_TERM_PRODUCTS = 10**5

#: Largest numerator or denominator, in bits, of any coefficient a literal
#: builds, literal numbers included.  Every product, sum and power is checked
#: once it is formed, and the power ``t^k`` of a single term with a ``b``-bit
#: coefficient is refused before it is formed when even its least possible
#: size, ``(b - 1) * |k| + 1`` bits, is past the bound.  So no step handles
#: numbers much longer than twice the bound.
MAX_COEFF_BITS = 4096

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")

# more significant decimal digits than 2^MAX_COEFF_BITS has means more bits
_MAX_DIGITS = len(str(2**MAX_COEFF_BITS))


def _bits(c: Fraction) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _too_long() -> ValueError:
    return ValueError(f"a numerator or denominator exceeds {MAX_COEFF_BITS} bits")


def parse_rational(text: str) -> Fraction:
    """Read an integer or fraction ``-?\\d+(/\\d+)?`` whose numerator and
    denominator stay within ``MAX_COEFF_BITS``; anything else raises."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"bad number {text!r}: expected an integer or a fraction n/d")
    num, den = m.groups("1")
    if max(len(num.lstrip("-0")), len(den.lstrip("0"))) > _MAX_DIGITS:
        raise _too_long()
    if int(den) == 0:
        raise ValueError(f"number {text!r} divides by zero")
    value = Fraction(int(num), int(den))
    if _bits(value) > MAX_COEFF_BITS:
        raise _too_long()
    return value


def _bounded(p: LaurentPoly2) -> LaurentPoly2:
    if any(_bits(c) > MAX_COEFF_BITS for _, c in p.terms):
        raise _too_long()
    return p


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.work = 0

    def charge(self, products: int) -> None:
        self.work += products
        if self.work > MAX_TERM_PRODUCTS:
            raise ValueError(f"polynomial literal needs more than {MAX_TERM_PRODUCTS} term products")

    def mul(self, f: LaurentPoly2, g: LaurentPoly2) -> LaurentPoly2:
        self.charge(max(1, len(f.terms) * len(g.terms)))
        return _bounded(f * g)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial literal")
        self.pos += 1
        return tok

    def parse_expr(self) -> LaurentPoly2:
        sign = Fraction(1)
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        result = self.mul(self.parse_term(), LaurentPoly2.term(0, 0, sign))
        while self.peek() in ("+", "-"):
            sign = Fraction(1)
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            result = _bounded(result + self.mul(self.parse_term(), LaurentPoly2.term(0, 0, sign)))
        return result

    def parse_term(self) -> LaurentPoly2:
        result = self.parse_factor()
        while self.peek() == "*" or self.peek() in ("x", "y", "(") or (
            self.peek() is not None and re.fullmatch(r"\d+(/\d+)?", self.peek())
        ):
            if self.peek() == "*":
                self.take()
            result = self.mul(result, self.parse_factor())
        return result

    def parse_factor(self) -> LaurentPoly2:
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            exp_tok = self.take()
            if not exp_tok.isdigit():
                raise ValueError(f"bad exponent {exp_tok!r}")
            exponent = sign * int(exp_tok)
            return self.power(base, exponent)
        return base

    def parse_atom(self) -> LaurentPoly2:
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ValueError(f"parentheses nested deeper than {MAX_NESTING} levels")
            inner = self.parse_expr()
            if self.take() != ")":
                raise ValueError("missing closing parenthesis")
            self.depth -= 1
            return inner
        if tok == "x":
            return LaurentPoly2.term(1, 0)
        if tok == "y":
            return LaurentPoly2.term(0, 1)
        if re.fullmatch(r"\d+(/\d+)?", tok):
            return LaurentPoly2.term(0, 0, parse_rational(tok))
        raise ValueError(f"unexpected token {tok!r} in polynomial literal")

    def power(self, base: LaurentPoly2, exponent: int) -> LaurentPoly2:
        if len(base.terms) == 1 and (_bits(base.terms[0][1]) - 1) * abs(exponent) >= MAX_COEFF_BITS:
            raise _too_long()
        if exponent >= 0 and len(base.terms) == 1:
            # one pow, charged as the ``exponent`` products of repeated
            # multiplication.  Those are refused at the first product past
            # the budget or past the bit bound, and coefficient bits never
            # shrink under a power, so checking the power that fits the
            # budget tells which refusal comes first.
            (i, j), coeff = base.terms[0]
            room = MAX_TERM_PRODUCTS - self.work
            if exponent > room and _bits(coeff**room) > MAX_COEFF_BITS:
                raise _too_long()
            self.charge(exponent)
            return _bounded(LaurentPoly2.term(i * exponent, j * exponent, coeff**exponent))
        if exponent >= 0:
            out = ONE
            for _ in range(exponent):
                out = self.mul(out, base)
            return out
        if len(base.terms) != 1:
            raise ValueError("negative powers only apply to single terms")
        (i, j), coeff = base.terms[0]
        if i != 0:
            raise ValueError("x is not invertible")
        self.charge(-exponent)
        return _bounded(LaurentPoly2.term(0, j * exponent, coeff**exponent))


def parse_laurent_poly(text: str) -> LaurentPoly2:
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial literal")
    parser = _Parser(tokens)
    result = parser.parse_expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens in polynomial literal: {parser.tokens[parser.pos:]}")
    return result
