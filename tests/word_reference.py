"""Letter-level references for the run-level word code in ``factorlab``.

The package stores words as maximal runs and never walks them letter by
letter.  The tests compare it against these plain letter walks, and its
growth tables against a count over every word.  The package enumerates
monoid elements in no particular order; tests that draw from a seeded pool
read them in shortlex order here.
"""

import itertools
from typing import Callable, Hashable, Optional

from factorlab.groups import ALPHABET, IDENTITY, FreeWord, GroupElement, NormalForm, g_mul
from factorlab.growth import DEFAULT_BUDGET, Classification, GrowthTable
from factorlab.monoid import enumerate_elements
from factorlab.words import Word

_GENERATORS = {"a": GroupElement(FreeWord(), 1), "b": GroupElement(FreeWord((("b", 1),)), 0)}


def word_of(letters, alphabet=ALPHABET) -> Word:
    """The word whose letters are ``letters``."""
    return Word(alphabet, tuple((letter, len(list(run))) for letter, run in itertools.groupby(letters)))


def enumerate_words(alphabet, max_len: int):
    """Yield every word of length <= max_len exactly once, in shortlex order."""
    for length in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=length):
            yield word_of(letters, alphabet)


def shortlex_elements(max_len: int) -> list[NormalForm]:
    """Every monoid element of minimal word length <= max_len, in shortlex
    order of the canonical words."""
    return sorted(enumerate_elements(max_len, max_len), key=NormalForm.shortlex_key)


def embed_by_letters(letters) -> GroupElement:
    """The group embedding as a product of generator images, one letter at a time."""
    g = IDENTITY
    for letter in letters:
        g = g_mul(g, _GENERATORS[letter])
    return g


def table_from_words(
    canonical_key: Callable[[tuple[str, ...]], Hashable],
    growth: Classification,
    n_max: int,
    budget: int = DEFAULT_BUDGET,
) -> GrowthTable:
    """Count distinct canonical keys of the letter tuples over ``ALPHABET``
    of length <= n, for each n, visiting at most ``budget`` words; the table
    carries the growth class ``growth`` its caller has proven for the keys.

    Enumerating the words in shortlex order makes the first word that
    produces a key a minimal-length representative, so bucketing by
    first-hit length yields dim V^n without any search.
    """
    new_at_length = [0] * (n_max + 1)
    seen: set[Hashable] = set()
    truncated_at: Optional[int] = None
    words = (w for n in range(n_max + 1) for w in itertools.product(ALPHABET, repeat=n))
    for visited, w in enumerate(words, 1):
        if visited > budget:
            truncated_at = len(w)
            break
        key = canonical_key(w)
        if key not in seen:
            seen.add(key)
            new_at_length[len(w)] += 1
    top = n_max + 1 if truncated_at is None else truncated_at
    return GrowthTable("words", tuple(enumerate(itertools.accumulate(new_at_length[:top]))), growth, truncated_at)
