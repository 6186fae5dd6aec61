"""Alphabets, words, and shortlex enumeration of words.

Words are immutable sequences of generator names over a fixed alphabet;
equality is structural.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

MAX_LETTERS = 10**7  # longest word parse_word expands


@dataclass(frozen=True, slots=True)
class Alphabet:
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        for name in self.names:
            if not name or any(ch.isspace() for ch in name):
                raise ValueError(f"generator name must be a non-empty token: {name!r}")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"generator names must be pairwise distinct: {list(self.names)}")

    @staticmethod
    def from_names(names: Sequence[str]) -> "Alphabet":
        return Alphabet(tuple(names))

    def __contains__(self, name: str) -> bool:
        return name in self.names


@dataclass(frozen=True, slots=True)
class Word:
    alphabet: Alphabet
    letters: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        bad = [l for l in self.letters if l not in self.alphabet]
        if bad:
            raise ValueError(f"letters not in alphabet {self.alphabet.names}: {bad}")

    def __len__(self) -> int:
        return len(self.letters)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse ``b a a b`` or ``b^2 a^3``; ``e`` denotes the empty word.

    All tokens are read before any letter is expanded, and a word of more
    than ``MAX_LETTERS`` letters is refused with ``ValueError``.
    """
    text = text.strip()
    if text in ("", "e"):
        return Word(alphabet)
    runs: list[tuple[str, int]] = []
    for tok in text.split():
        m = re.fullmatch(r"([^^\s]+)(?:\^(\d+))?", tok)
        if m is None:
            raise ValueError(f"bad word token: {tok!r}")
        name, exp = m.group(1), int(m.group(2) or 1)
        if name not in alphabet:
            raise ValueError(f"unknown generator {name!r} (alphabet: {' '.join(alphabet.names)})")
        runs.append((name, exp))
    total = sum(exp for _, exp in runs)
    if total > MAX_LETTERS:
        raise ValueError(f"word has {total} letters, more than the limit of {MAX_LETTERS}")
    letters: list[str] = []
    for name, exp in runs:
        letters.extend([name] * exp)
    return Word(alphabet, tuple(letters))


def enumerate_words(alphabet: Alphabet, max_len: int) -> Iterator[Word]:
    """Yield every word of length <= max_len exactly once, in shortlex order."""
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    names = alphabet.names
    for length in range(max_len + 1):
        for combo in itertools.product(names, repeat=length):
            yield Word(alphabet, combo)
