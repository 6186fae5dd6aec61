"""Letter-level references for the run-level word code in ``factorlab``.

The package stores words as maximal runs and never walks them letter by
letter.  The tests compare it against these plain letter walks.
"""

import itertools

from factorlab.groups import ALPHABET, IDENTITY, FreeWord, GroupElement, g_mul
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


def embed_by_letters(letters) -> GroupElement:
    """The group embedding as a product of generator images, one letter at a time."""
    g = IDENTITY
    for letter in letters:
        g = g_mul(g, _GENERATORS[letter])
    return g
