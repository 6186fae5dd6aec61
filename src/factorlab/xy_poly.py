"""Exact arithmetic in Q[x, y, y^{-1}] and the matrix-entry parser.

Terms are indexed by an x-exponent (non-negative: x is not invertible) and an
arbitrary integer y-exponent, with rational coefficients.  The parser reads
matrix entry literals: sums of products of numbers, ``x``, ``y``, powers like
``y^-1`` or ``x^2``, and parenthesized subexpressions such as ``x*(y+1)``.

Storage (rational arithmetic in integers, reduced once by a gcd: Knuth,
*TAOCP* vol. 2, sec. 4.5.1): an element is its sorted ``((i, j), n)``
integer terms over one denominator ``den >= 1``, with no zero numerator and
``gcd(den, numerators) = 1``, so each element has exactly one stored form
and ``==`` and ``hash`` compare plain ints.  Every construction checks that
form.  ``+`` and ``*`` accumulate numerators in one dict over one
denominator, drop the zeros and divide by one gcd at the end.  A product
of an m- and an n-term element costs m*n int products; a zero operand returns
at once, ``ONE`` returns the other operand, and a single-term operand
``c x^i y^j`` costs O(n): the other operand's keys shift by (i, j), which keeps
them sorted, and its numerators change only when ``c`` is not 1, so a
monomial such as ``y^-1`` does no arithmetic on coefficients.  ``Fraction``
appears only at the edges: the inputs of ``from_dict`` and ``term``, the
numbers ``parse_rational`` reads, and the derived ``terms`` view that
``display`` reads.

The parser stays in the stored integers.  ``MAX_TERM_PRODUCTS`` caps the
term products a literal may cost and ``MAX_COEFF_BITS`` every integer it
stores, so each step works on bounded integers and the two limits bound its
time.  A sum is formed once, over the lcm of its summands' denominators.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


@dataclass(frozen=True, slots=True)
class LaurentPoly2:
    nums: tuple[tuple[tuple[int, int], int], ...]  # ((x_exp, y_exp), numerator), sorted
    den: int = 1

    def __post_init__(self) -> None:
        previous = (-1, 0)  # below every key with a non-negative x-exponent
        for key, n in self.nums:
            if key[0] < 0:
                raise ValueError("x-exponents must be non-negative (x is not invertible)")
            if not n:
                raise ValueError("zero coefficient stored")
            if not previous < key:
                raise ValueError("keys must be sorted and distinct")
            previous = key
        # math.gcd also refuses a numerator that is not an int
        if self.den < 1 or math.gcd(self.den, *[n for _, n in self.nums]) != 1:
            raise ValueError("numerators must be reduced over a positive denominator")

    @staticmethod
    def from_dict(d: dict[tuple[int, int], Fraction]) -> "LaurentPoly2":
        coeffs = [(key, Fraction(c)) for key, c in d.items()]
        den = math.lcm(*[c.denominator for _, c in coeffs])
        return _reduced([(key, c.numerator * (den // c.denominator)) for key, c in coeffs], den)

    @staticmethod
    def term(x_exp: int, y_exp: int, coeff=1) -> "LaurentPoly2":
        return LaurentPoly2.from_dict({(x_exp, y_exp): coeff})

    @property
    def terms(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        """The terms with their reduced ``Fraction`` coefficients, sorted."""
        den = self.den
        return tuple([(key, Fraction(n, den)) for key, n in self.nums])

    def is_zero(self) -> bool:
        return not self.nums

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        if not other.nums:
            return self
        if not self.nums:
            return other
        return _sum(((1, self), (1, other)), math.lcm(self.den, other.den))

    def __mul__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        if not self.nums or not other.nums:
            return ZERO
        # a single-term operand goes second, and of two single terms, ONE does
        if len(self.nums) == 1 and (len(other.nums) > 1 or self == ONE):
            self, other = other, self
        if len(other.nums) == 1:
            ((i, j), c), d = other.nums[0], other.den
            if c == d == 1:  # a monomial x^i y^j: ONE returns self, others shift the keys
                if not (i or j):
                    return self
                return LaurentPoly2(tuple([((i1 + i, j1 + j), n) for (i1, j1), n in self.nums]), self.den)
            return _reduced([((i1 + i, j1 + j), n * c) for (i1, j1), n in self.nums], self.den * d)
        acc: dict[tuple[int, int], int] = {}
        for (i1, j1), n1 in self.nums:
            for (i2, j2), n2 in other.nums:
                key = (i1 + i2, j1 + j2)
                acc[key] = acc.get(key, 0) + n1 * n2
        return _reduced(acc.items(), self.den * other.den)

    def divisible_by_x(self) -> bool:
        return all(i >= 1 for (i, _), _ in self.nums)

    def pure_y_part_polynomial(self) -> bool:
        """Whether every x-free term has a non-negative y-exponent, i.e. the
        element lies in Q[y] + x*Q[x, y, y^{-1}]."""
        return all(j >= 0 for (i, j), _ in self.nums if i == 0)

    def display(self) -> str:
        if not self.nums:
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


def _reduced(items: Iterable[tuple[tuple[int, int], int]], den: int) -> LaurentPoly2:
    """The element sum (n / den) x^i y^j over ``items``: drop the zero
    numerators, sort, and divide the rest and ``den`` by their gcd once."""
    terms = sorted([(key, n) for key, n in items if n])
    g = math.gcd(den, *[n for _, n in terms])
    if g != 1:
        den //= g
        terms = [(key, n // g) for key, n in terms]
    return LaurentPoly2(tuple(terms), den)


def _sum(parts: Iterable[tuple[int, LaurentPoly2]], den: int) -> LaurentPoly2:
    """The element sum(sign * p) over the ``(sign, p)`` in ``parts``, whose
    denominators all divide ``den``: each numerator is scaled to ``den`` once,
    and the total is reduced once."""
    acc: dict[tuple[int, int], int] = {}
    for sign, p in parts:
        scale = sign * (den // p.den)
        for key, n in p.nums:
            acc[key] = acc.get(key, 0) + n * scale
    return _reduced(acc.items(), den)


ZERO = LaurentPoly2(())
ONE = LaurentPoly2.term(0, 0)


_NUMBER_RE = re.compile(r"\d+(?:/\d+)?")
_TOKEN_RE = re.compile(rf"\s*({_NUMBER_RE.pattern}|[xy()+\-*^]|\S)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        tok = m.group(1)
        if tok not in "xy()+-*^" and not _NUMBER_RE.fullmatch(tok):
            raise ValueError(f"unexpected character {tok!r} in polynomial literal")
        tokens.append(tok)
        pos = m.end()
    return tokens


#: Deepest parenthesis nesting the parser accepts.  Each level costs four
#: stack frames, so this stays well inside the interpreter's recursion limit.
MAX_NESTING = 100

#: Most term products one literal may cost: every product of an ``m``-term
#: and an ``n``-term polynomial counts ``max(1, m*n)``, a summand of ``n``
#: terms counts ``max(1, n)``, and a power ``t^k`` or ``t^-k`` of one term
#: counts ``k``.  Each of these multiplies or adds integers of at most
#: ``MAX_COEFF_BITS`` bits, so with that bound it caps the parser's time.
MAX_TERM_PRODUCTS = 10**5

#: Most bits of any integer a literal stores: each element's ``den`` and
#: numerators, literal numbers included, checked once each step is formed.
#: A sum is refused once the lcm of its denominators passes the bound, and
#: ``t^k`` of one term with ``b``-bit integers before it is formed when even
#: its least size, ``(b - 1) * |k| + 1`` bits, is past it.
MAX_COEFF_BITS = 4096

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")

# more significant decimal digits than 2^MAX_COEFF_BITS has means more bits
_MAX_DIGITS = len(str(2**MAX_COEFF_BITS))


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
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_COEFF_BITS:
        raise _too_long()
    return value


def _bounded(p: LaurentPoly2) -> LaurentPoly2:
    if p.den.bit_length() > MAX_COEFF_BITS or any(n.bit_length() > MAX_COEFF_BITS for _, n in p.nums):
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
        self.charge(max(1, len(f.nums) * len(g.nums)))
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
        # each signed summand is charged as its product by the sign; the sum
        # is formed once, over the lcm of the summands' denominators
        parts: list[tuple[int, LaurentPoly2]] = []
        den = 1
        while True:
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            summand = self.parse_term()
            self.charge(max(1, len(summand.nums)))
            den = math.lcm(den, summand.den)
            if den.bit_length() > MAX_COEFF_BITS:
                raise _too_long()
            parts.append((sign, summand))
            if self.peek() not in ("+", "-"):
                return _bounded(_sum(parts, den))

    def parse_term(self) -> LaurentPoly2:
        result = self.parse_factor()
        while self.peek() == "*" or self.peek() in ("x", "y", "(") or (
            self.peek() is not None and _NUMBER_RE.fullmatch(self.peek())
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
            return LaurentPoly2((((1, 0), 1),))
        if tok == "y":
            return LaurentPoly2((((0, 1), 1),))
        if _NUMBER_RE.fullmatch(tok):
            value = parse_rational(tok)
            return LaurentPoly2((((0, 0), value.numerator),), value.denominator) if value else ZERO
        raise ValueError(f"unexpected token {tok!r} in polynomial literal")

    def power(self, base: LaurentPoly2, exponent: int) -> LaurentPoly2:
        if len(base.nums) != 1:
            if exponent < 0:
                raise ValueError("negative powers only apply to single terms")
            out = ONE
            for _ in range(exponent):
                out = self.mul(out, base)
            return out
        # one pow of the reduced n/d, charged as the |k| products of repeated
        # multiplication; n^k/d^k is reduced too, so it needs no gcd
        ((i, j), n), d = base.nums[0], base.den
        if exponent < 0:
            if i != 0:
                raise ValueError("x is not invertible")
            n, d = (d, n) if n > 0 else (-d, -n)
        k = abs(exponent)
        if (max(n.bit_length(), d.bit_length()) - 1) * k + 1 > MAX_COEFF_BITS:
            raise _too_long()
        self.charge(k)
        return _bounded(LaurentPoly2((((i * exponent, j * exponent), n**k),), d**k))


def parse_laurent_poly(text: str) -> LaurentPoly2:
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial literal")
    parser = _Parser(tokens)
    result = parser.parse_expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens in polynomial literal: {parser.tokens[parser.pos:]}")
    return result
