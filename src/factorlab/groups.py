"""Exact arithmetic in the ambient group of the two-relator monoid.

The monoid ``<a, b | baab = aa, aaaab = baaaa>`` embeds into the group built
from the free group on ``{b, c}`` by adjoining a generator ``a`` that acts by
the order-four twist ``b -> c -> b^{-1} -> c^{-1} -> b``.  Group elements are
pairs ``(free word, a-exponent)`` with the product

    (w1, t1) * (w2, t2) = (w1 * twist^{t1}(w2), t1 + t2),

so conjugation identities ``a b a^{-1} = c`` and ``a c a^{-1} = b^{-1}`` hold.
Equality of monoid words is decided for free by this embedding, giving an
oracle that is independent of the rewriting-based normalizer.  Words and
canonical forms both embed through :func:`embed_runs`, one free-group run
per b-run, so the cost is O(runs) whatever the exponents.  The inverse
direction, :func:`parse_membership`, reads a canonical parameter tuple back
off a reduced group element, or reports that the element lies outside the
monoid; exact left and right division in the monoid follow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .words import Word

#: Generators of the two-relator monoid; every word the oracle accepts uses them.
ALPHABET = ("a", "b")

# Orbit of b under the twist, as (letter, sign) for exponent classes 0..3.
_CYCLE = (("b", 1), ("c", 1), ("b", -1), ("c", -1))
_LETTER_POS = {"b": 0, "c": 1}


@dataclass(frozen=True, slots=True)
class FreeWord:
    """Reduced word in the free group on ``b``, ``c``, run-length encoded.

    Adjacent runs carry distinct letters and no run has exponent zero; every
    constructor and operation re-reduces, so equality is plain tuple equality.
    """

    runs: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for letter, exp in self.runs:
            if letter not in ("b", "c"):
                raise ValueError(f"free-group letter must be b or c: {letter!r}")
            if exp == 0:
                raise ValueError("zero exponent run")
            if letter == prev:
                raise ValueError("adjacent runs with equal letters are not reduced")
            prev = letter

    def display(self) -> str:
        if not self.runs:
            return "e"
        return " ".join(f"{letter}^{exp}" for letter, exp in self.runs)


def _push_run(stack: list[list], letter: str, exp: int) -> None:
    if exp == 0:
        return
    if stack and stack[-1][0] == letter:
        stack[-1][1] += exp
        if stack[-1][1] == 0:
            stack.pop()
    else:
        stack.append([letter, exp])


def _freeze(stack: list[list]) -> FreeWord:
    return FreeWord(tuple((letter, exp) for letter, exp in stack))


def fw_mul(u: FreeWord, v: FreeWord) -> FreeWord:
    stack = [[letter, exp] for letter, exp in u.runs]
    for letter, exp in v.runs:
        _push_run(stack, letter, exp)
    return _freeze(stack)


def fw_inv(u: FreeWord) -> FreeWord:
    return FreeWord(tuple((letter, -exp) for letter, exp in reversed(u.runs)))


def alpha(w: FreeWord, k: int = 1) -> FreeWord:
    """Apply the twist ``k`` times; only ``k mod 4`` matters.

    On a signed letter the twist advances one step along the orbit
    b -> c -> b^{-1} -> c^{-1} -> b, and extends letter-by-letter.
    """
    k %= 4
    if k == 0:
        return w
    out = []
    for letter, exp in w.runs:
        new_letter, sign = _CYCLE[(_LETTER_POS[letter] + k) % 4]
        out.append((new_letter, sign * exp))
    # the twist maps b-runs and c-runs to runs over distinct letters, so the
    # image of a reduced word is reduced
    return FreeWord(tuple(out))


@dataclass(frozen=True, slots=True)
class GroupElement:
    free: FreeWord
    shift: int  # total a-exponent

    def display(self) -> str:
        return f"{self.free.display()} | a^{self.shift}"


IDENTITY = GroupElement(FreeWord(), 0)


def g_mul(x: GroupElement, y: GroupElement) -> GroupElement:
    return GroupElement(fw_mul(x.free, alpha(y.free, x.shift)), x.shift + y.shift)


def g_inv(x: GroupElement) -> GroupElement:
    return GroupElement(alpha(fw_inv(x.free), -x.shift), -x.shift)


def embed_runs(runs: Iterable[tuple[str, int]]) -> GroupElement:
    """Monoid homomorphism a -> (e, 1), b -> (b, 0), in O(runs): ``a^n`` adds
    n to the a-exponent t, and ``b^m`` pushes the signed letter
    ``_CYCLE[t % 4]`` to the power m."""
    stack: list[list] = []
    t = 0
    for letter, exp in runs:
        if letter == "a":
            t += exp
        elif letter == "b":
            free_letter, sign = _CYCLE[t % 4]
            _push_run(stack, free_letter, sign * exp)
        else:
            raise ValueError(f"embedding is defined on letters a, b only: {letter!r}")
    return GroupElement(_freeze(stack), t)


def embed_letters(letters: Iterable[str]) -> GroupElement:
    return embed_runs((letter, len(list(run))) for letter, run in itertools.groupby(letters))


def embed(w: Word | NormalForm) -> GroupElement:
    return embed_runs(w.runs)


@dataclass(frozen=True, slots=True)
class NormalForm:
    """Canonical parameter tuple for elements of the two-relator monoid.

    Encodes the word ``b^head_b * prod_i(a^{n_i} b^{m_i}) * a^tail_a`` with
    the constraints forced by reduction: every ``m_i >= 1``, the first a-run
    is in {1, 2, 3} and all later ones in {1, 3}, and a leading b-power is
    incompatible with a first a-run of 2.  Distinct tuples denote distinct
    monoid elements, and the expanded word has minimal length among all words
    for the element.
    """

    head_b: int = 0
    blocks: tuple[tuple[int, int], ...] = ()
    tail_a: int = 0

    def __post_init__(self) -> None:
        if self.head_b < 0 or self.tail_a < 0:
            raise ValueError("exponents must be non-negative")
        for i, (a_run, b_run) in enumerate(self.blocks):
            if b_run < 1:
                raise ValueError("interior b-runs must be positive")
            allowed = (1, 2, 3) if i == 0 else (1, 3)
            if a_run not in allowed:
                raise ValueError(f"a-run {a_run} out of range {allowed} at block {i}")
        if self.blocks and self.blocks[0][0] == 2 and self.head_b != 0:
            raise ValueError("a first a-run of 2 forces an empty leading b-power")

    @property
    def runs(self) -> tuple[tuple[str, int], ...]:
        """The maximal runs ``(letter, exponent)`` of the canonical word."""
        runs = [("b", self.head_b)] if self.head_b else []
        for a_run, b_run in self.blocks:
            runs += [("a", a_run), ("b", b_run)]
        if self.tail_a:
            runs.append(("a", self.tail_a))
        return tuple(runs)

    def letters(self) -> tuple[str, ...]:
        return tuple("".join(letter * exp for letter, exp in self.runs))

    def word(self) -> Word:
        return Word(ALPHABET, self.runs)

    @property
    def length(self) -> int:
        return self.head_b + sum(a + b for a, b in self.blocks) + self.tail_a

    @property
    def a_count(self) -> int:
        return sum(a for a, _ in self.blocks) + self.tail_a

    @property
    def b_count(self) -> int:
        return self.head_b + sum(b for _, b in self.blocks)

    def is_identity(self) -> bool:
        return self.length == 0

    def shortlex_key(self) -> tuple[int, tuple[int, ...]]:
        """Orders forms as ``(length, letters())`` does, in O(runs): at equal
        lengths the first differing run decides, where a longer a-run comes
        first, an a-run before a b-run, and a shorter b-run first; so ``a^n``
        keys as -n and ``b^m`` as m."""
        return (self.length, tuple([exp if letter == "b" else -exp for letter, exp in self.runs]))

    def display(self) -> str:
        """Exponent-explicit canonical word, e.g. ``b^2 a^3 b^1 a^2``; ``e`` if empty."""
        return " ".join(f"{letter}^{exp}" for letter, exp in self.runs) or "e"


embed_normal_form = embed


def parse_membership(g: GroupElement) -> Optional[NormalForm]:
    """Recover the canonical tuple of ``g`` if it lies in the monoid.

    The reduced free part of a monoid element is a sequence of runs whose
    signed letters walk the twist orbit: an optional positive b-run for the
    leading b-power, then one run per block, the run for block ``i`` carrying
    the signed letter of orbit position ``n_1 + ... + n_i mod 4``.  Reading
    runs left to right therefore determines every parameter; a leading
    *negative* b-run signals the branch whose first a-run is 2.  The element
    is in the monoid iff the walk is consistent and leaves a non-negative
    residual a-exponent.  Returns None otherwise.
    """
    runs = list(g.free.runs)
    head_b = 0
    pos = 0  # orbit position of the last consumed run
    total_a = 0
    blocks: list[tuple[int, int]] = []
    if runs and runs[0][0] == "b" and runs[0][1] > 0:
        head_b = runs[0][1]
        runs = runs[1:]
    first = True
    for letter, exp in runs:
        target = (_LETTER_POS[letter] + (0 if exp > 0 else 2)) % 4
        step = (target - pos) % 4
        allowed = (1, 2, 3) if first else (1, 3)
        if step not in allowed or (step == 2 and head_b != 0):
            return None
        blocks.append((step, abs(exp)))
        total_a += step
        pos = target
        first = False
    residual = g.shift - total_a
    if residual < 0:
        return None
    return NormalForm(head_b, tuple(blocks), residual)


def left_quotient(u: Word | NormalForm, x: Word | NormalForm) -> Optional[NormalForm]:
    """Canonical v with x = u * v in the monoid, or None if u does not
    left-divide x.

    Each argument may be a word or a canonical form; both embed run by run,
    so the cost is O(runs) and nothing is expanded into letters.
    """
    return parse_membership(g_mul(g_inv(embed_runs(u.runs)), embed_runs(x.runs)))


def right_quotient(x: Word | NormalForm, v: Word | NormalForm) -> Optional[NormalForm]:
    """Canonical u with x = u * v in the monoid, or None if v does not
    right-divide x.

    Each argument may be a word or a canonical form; both embed run by run,
    so the cost is O(runs) and nothing is expanded into letters.
    """
    return parse_membership(g_mul(embed_runs(x.runs), g_inv(embed_runs(v.runs))))
