"""Exact arithmetic in Q[x, y, y^{-1}] and the matrix-entry parser.

Terms are indexed by an x-exponent (non-negative: x is not invertible) and an
arbitrary integer y-exponent, with rational coefficients.  The parser reads
matrix entry literals: sums of products of numbers, ``x``, ``y``, powers like
``y^-1`` or ``x^2``, and parenthesized subexpressions such as ``x*(y+1)``.
"""

from __future__ import annotations

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

    @staticmethod
    def constant(value) -> "LaurentPoly2":
        return LaurentPoly2.from_dict({(0, 0): Fraction(value)})

    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.terms)

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        acc = self.as_dict()
        for key, coeff in other.terms:
            acc[key] = acc.get(key, Fraction(0)) + coeff
        return LaurentPoly2.from_dict(acc)

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2(tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        acc: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms:
            for (i2, j2), c2 in other.terms:
                key = (i1 + i2, j1 + j2)
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return LaurentPoly2.from_dict(acc)

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

    def __str__(self) -> str:
        return self.display()


ZERO = LaurentPoly2(())
ONE = LaurentPoly2.constant(1)


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


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

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
        result = self.parse_term() * LaurentPoly2.constant(sign)
        while self.peek() in ("+", "-"):
            sign = Fraction(1)
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            result = result + self.parse_term() * LaurentPoly2.constant(sign)
        return result

    def parse_term(self) -> LaurentPoly2:
        result = self.parse_factor()
        while self.peek() == "*" or self.peek() in ("x", "y", "(") or (
            self.peek() is not None and re.fullmatch(r"\d+(/\d+)?", self.peek())
        ):
            if self.peek() == "*":
                self.take()
            result = result * self.parse_factor()
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
            return _power(base, exponent)
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
            try:
                return LaurentPoly2.constant(Fraction(tok))
            except ZeroDivisionError:
                raise ValueError(f"number {tok!r} divides by zero") from None
        raise ValueError(f"unexpected token {tok!r} in polynomial literal")


def _power(base: LaurentPoly2, exponent: int) -> LaurentPoly2:
    if exponent >= 0:
        out = ONE
        for _ in range(exponent):
            out = out * base
        return out
    if len(base.terms) != 1:
        raise ValueError("negative powers only apply to single terms")
    (i, j), coeff = base.terms[0]
    if i != 0:
        raise ValueError("x is not invertible")
    return LaurentPoly2.term(0, j * exponent, coeff**exponent)


def parse_laurent_poly(text: str) -> LaurentPoly2:
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial literal")
    parser = _Parser(tokens)
    result = parser.parse_expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens in polynomial literal: {parser.tokens[parser.pos:]}")
    return result
