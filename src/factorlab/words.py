"""Words over a fixed tuple of generator names, stored as maximal runs.

A word is a tuple of runs ``(letter, exponent)``: every exponent is positive
and adjacent runs carry distinct letters, so equality is structural.  The
exponent text ``b^2 a^3`` parses straight into runs, and no letter is ever
expanded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

MAX_LETTERS = 10**7  # longest word parse_word accepts


@dataclass(frozen=True, slots=True)
class Word:
    alphabet: tuple[str, ...]
    runs: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for letter, exp in self.runs:
            if letter not in self.alphabet:
                raise ValueError(f"letters not in alphabet {self.alphabet}: {[letter]}")
            if exp < 1:
                raise ValueError(f"run exponents must be positive: {letter}^{exp}")
            if letter == prev:
                raise ValueError(f"adjacent runs of {letter!r} are not maximal")
            prev = letter

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(letter for letter, exp in self.runs for _ in range(exp))

    def __len__(self) -> int:
        return sum(exp for _, exp in self.runs)


def parse_word(text: str, alphabet: tuple[str, ...]) -> Word:
    """Parse ``b a a b`` or ``b^2 a^3``; ``e`` denotes the empty word.

    Adjacent tokens of one letter merge into a run and zero exponents drop
    out.  All tokens are read before the word is built, and a word of more
    than ``MAX_LETTERS`` letters is refused with ``ValueError``.
    """
    text = text.strip()
    if text in ("", "e"):
        return Word(alphabet)
    runs: list[list] = []
    total = 0
    for tok in text.split():
        m = re.fullmatch(r"([^^\s]+)(?:\^(\d+))?", tok)
        if m is None:
            raise ValueError(f"bad word token: {tok!r}")
        name, exp = m.group(1), int(m.group(2) or 1)
        if name not in alphabet:
            raise ValueError(f"unknown generator {name!r} (alphabet: {' '.join(alphabet)})")
        total += exp
        if runs and runs[-1][0] == name:
            runs[-1][1] += exp
        elif exp:
            runs.append([name, exp])
    if total > MAX_LETTERS:
        raise ValueError(f"word has {total} letters, more than the limit of {MAX_LETTERS}")
    return Word(alphabet, tuple((name, exp) for name, exp in runs))
