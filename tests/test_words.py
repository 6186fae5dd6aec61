import random
import re

import pytest

from factorlab.groups import ALPHABET
from factorlab.words import MAX_LETTERS, Word, parse_word
from word_reference import enumerate_words


def w(text: str) -> Word:
    return parse_word(text, ALPHABET)


def test_enumerate_words_counts_and_order():
    assert [x.letters for x in enumerate_words(ALPHABET, 0)] == [()]
    assert [x.letters for x in enumerate_words(ALPHABET, 1)] == [(), ("a",), ("b",)]
    assert len(list(enumerate_words(ALPHABET, 2))) == 7
    for n in range(6):
        assert len(list(enumerate_words(ALPHABET, n))) == 2 ** (n + 1) - 1
    xyz = ("x", "y", "z")
    for n in range(5):
        assert len(list(enumerate_words(xyz, n))) == (3 ** (n + 1) - 1) // 2


def test_enumerate_words_shortlex():
    seen = list(enumerate_words(ALPHABET, 3))
    keys = [(len(x), x.letters) for x in seen]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_word_parse():
    assert w("e").letters == w("").letters == ()
    assert parse_word("b^2 a^3 b^1 a^2", ALPHABET).letters == w("b b a a a b a a").letters
    with pytest.raises(ValueError):
        parse_word("q", ALPHABET)
    multichar = ("gen1", "gen2")
    assert parse_word("gen2^2 gen1", multichar).letters == ("gen2", "gen2", "gen1")


def test_parse_word_merges_tokens_and_drops_zero_exponents():
    assert w("a a^0 a") == w("a^2")
    assert w("a a^0 a").runs == (("a", 2),)
    assert w("b^0") == w("e") == Word(ALPHABET)
    assert w("b a^0 b^2 a a").runs == (("b", 3), ("a", 2))


def test_parse_word_letters_match_token_expansion():
    rnd = random.Random(22)
    for _ in range(300):
        tokens = [(rnd.choice("ab"), rnd.randint(0, 4)) for _ in range(rnd.randint(0, 8))]
        text = " ".join(f"{letter}^{exp}" if exp != 1 else letter for letter, exp in tokens)
        expanded = tuple(letter for letter, exp in tokens for _ in range(exp))
        word = w(text)
        assert word.letters == expanded
        assert len(word) == len(expanded)
        assert all(exp > 0 for _, exp in word.runs)
        assert all(x[0] != y[0] for x, y in zip(word.runs, word.runs[1:]))


def test_word_rejects_runs_that_are_not_maximal():
    message = re.escape("letters not in alphabet ('a', 'b'): ['c']")
    with pytest.raises(ValueError, match=message):
        Word(ALPHABET, (("a", 1), ("c", 1)))
    with pytest.raises(ValueError, match="positive"):
        Word(ALPHABET, (("a", 0),))
    with pytest.raises(ValueError, match="not maximal"):
        Word(ALPHABET, (("a", 1), ("a", 2)))


def test_word_letter_limit():
    assert len(w(f"a^{MAX_LETTERS - 1} b")) == MAX_LETTERS
    message = f"word has {MAX_LETTERS + 1} letters, more than the limit of {MAX_LETTERS}"
    with pytest.raises(ValueError, match=message):
        w(f"a^{MAX_LETTERS} b")
    with pytest.raises(ValueError, match=message):
        w(f"a^{MAX_LETTERS // 2} a^{MAX_LETTERS - MAX_LETTERS // 2} a^0 b")
