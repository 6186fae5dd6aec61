import pytest

from factorlab.words import Alphabet, Word, enumerate_words, parse_word

AB = Alphabet.from_names(("a", "b"))


def w(text: str) -> Word:
    return parse_word(text, AB)


def test_enumerate_words_counts_and_order():
    assert [x.letters for x in enumerate_words(AB, 0)] == [()]
    assert [x.letters for x in enumerate_words(AB, 1)] == [(), ("a",), ("b",)]
    assert len(list(enumerate_words(AB, 2))) == 7
    for n in range(6):
        assert len(list(enumerate_words(AB, n))) == 2 ** (n + 1) - 1
    abc = Alphabet.from_names(("x", "y", "z"))
    for n in range(5):
        assert len(list(enumerate_words(abc, n))) == (3 ** (n + 1) - 1) // 2


def test_enumerate_words_shortlex():
    seen = list(enumerate_words(AB, 3))
    keys = [(len(x), x.letters) for x in seen]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_word_parse():
    assert w("e").letters == w("").letters == ()
    assert parse_word("b^2 a^3 b^1 a^2", AB).letters == w("b b a a a b a a").letters
    with pytest.raises(ValueError):
        parse_word("q", AB)


def test_alphabet_validation():
    multichar = Alphabet.from_names(("gen1", "gen2"))
    assert multichar.names == ("gen1", "gen2")
    assert parse_word("gen2^2 gen1", multichar).letters == ("gen2", "gen2", "gen1")
    with pytest.raises(ValueError, match="pairwise distinct"):
        Alphabet.from_names(("a", "a"))
    for bad in ("", "a b"):
        with pytest.raises(ValueError, match="non-empty token"):
            Alphabet.from_names(("a", bad))
