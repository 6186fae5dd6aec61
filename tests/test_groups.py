import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from factorlab import monoid
from factorlab.groups import (
    ALPHABET,
    IDENTITY,
    FreeWord,
    GroupElement,
    NormalForm,
    alpha,
    embed,
    embed_letters,
    embed_normal_form,
    fw_inv,
    fw_mul,
    g_inv,
    g_mul,
    left_quotient,
    parse_membership,
    right_quotient,
)
from factorlab.words import Word, parse_word
from word_reference import embed_by_letters, enumerate_words, word_of


def w(text: str) -> Word:
    return parse_word(text, ALPHABET)


B = FreeWord((("b", 1),))
C = FreeWord((("c", 1),))

letter_lists = st.lists(st.sampled_from(["a", "b"]), max_size=10)


def test_alpha_on_generators():
    assert alpha(B, 1) == C
    assert alpha(C, 1) == FreeWord((("b", -1),))
    # composing four times returns to the start: b -> c -> b^-1 -> c^-1 -> b
    assert alpha(B, 4) == B
    assert alpha(C, 4) == C
    assert alpha(alpha(alpha(alpha(B))))== B


def test_alpha_respects_products():
    word = fw_mul(fw_mul(B, C), FreeWord((("b", -2),)))
    for k in range(-5, 6):
        assert alpha(fw_inv(word), k) == fw_inv(alpha(word, k))
        assert alpha(alpha(word, k), -k) == word


def test_free_word_reduction():
    assert fw_mul(B, fw_inv(B)) == FreeWord()
    assert fw_mul(FreeWord((("b", 2),)), FreeWord((("b", -1),))) == B
    with pytest.raises(ValueError):
        FreeWord((("b", 0),))
    with pytest.raises(ValueError):
        FreeWord((("b", 1), ("b", 2)))


def test_group_law_examples():
    a = GroupElement(FreeWord(), 1)
    b = GroupElement(B, 0)
    c = GroupElement(C, 0)
    # a then b equals c with one a: the twist sends b to c
    assert g_mul(a, b) == GroupElement(C, 1) == g_mul(c, a)
    assert g_mul(a, c) == GroupElement(FreeWord((("b", -1),)), 1)
    assert g_mul(b, IDENTITY) == b
    assert g_mul(IDENTITY, a) == a


@given(letter_lists, letter_lists, letter_lists)
def test_group_associativity(u, v, x):
    gu, gv, gx = embed_letters(u), embed_letters(v), embed_letters(x)
    assert g_mul(g_mul(gu, gv), gx) == g_mul(gu, g_mul(gv, gx))


@given(letter_lists)
def test_group_inverses(u):
    g = embed_letters(u)
    assert g_mul(g, g_inv(g)) == IDENTITY
    assert g_mul(g_inv(g), g) == IDENTITY


def test_embed_examples():
    assert embed(w("a a b")) == GroupElement(FreeWord((("b", -1),)), 2)
    assert embed(w("b a a b")) == embed(w("a a")) == GroupElement(FreeWord(), 2)
    assert embed(w("e")) == IDENTITY
    # both defining relations hold in the group
    assert embed(w("a^4 b")) == embed(w("b a^4"))


@given(letter_lists, letter_lists)
def test_embed_is_a_homomorphism(u, v):
    assert embed_letters(u + v) == g_mul(embed_letters(u), embed_letters(v))
    assert embed_letters(u) == embed_by_letters(u)


def test_parse_membership_powers_of_a():
    for n in range(6):
        assert parse_membership(GroupElement(FreeWord(), n)) == NormalForm(0, (), n)
    assert parse_membership(GroupElement(FreeWord(), -1)) is None


def test_parse_membership_rejections():
    # b^-1 a is not in the monoid
    assert parse_membership(embed_letters("ba")) is not None
    assert parse_membership(g_mul(g_inv(embed_letters("b")), embed_letters("a"))) is None
    assert parse_membership(GroupElement(B, -2)) is None


def test_parse_round_trip_and_injectivity_up_to_10():
    forms = list(monoid.enumerate_elements(10))
    images = set()
    for nf in forms:
        g = embed_normal_form(nf)
        assert parse_membership(g) == nf
        images.add(g)
    assert len(images) == len(forms)


def test_oracle_equivalence_up_to_8():
    # normalize-equality and embedding-equality induce the same partition
    by_nf = {}
    by_g = {}
    for word in enumerate_words(ALPHABET, 8):
        by_nf.setdefault(monoid.normalize(word), []).append(word.letters)
        by_g.setdefault(embed(word), []).append(word.letters)
    assert sorted(by_nf.values()) == sorted(by_g.values())


def test_left_quotient_examples():
    assert left_quotient(w("b"), w("b a a")) == NormalForm(0, (), 2)
    assert left_quotient(w("b"), w("a a")) == NormalForm(0, ((2, 1),), 0)  # a^2 b
    assert left_quotient(w("a a"), w("b a a")) is None


def test_right_quotient_examples():
    assert right_quotient(w("a a b"), w("b")) == NormalForm(0, (), 2)
    assert right_quotient(w("b b b"), w("b")) == NormalForm(2, (), 0)
    # baab = aa forces: a^2 = (b a^2) * b, so b right-divides a^2
    assert right_quotient(w("a a"), w("b")) == NormalForm(1, (), 2)
    assert monoid.multiply(NormalForm(1, (), 2), NormalForm(1, (), 0)) == NormalForm(0, (), 2)


@given(letter_lists, letter_lists)
def test_division_soundness(u_letters, v_letters):
    u, v, x = word_of(u_letters), word_of(v_letters), word_of(u_letters + v_letters)
    cofactor = left_quotient(u, x)
    assert cofactor is not None
    assert monoid.multiply(monoid.normalize(u), cofactor) == monoid.normalize(x)
    prefix = right_quotient(x, v)
    assert prefix is not None
    assert monoid.multiply(prefix, monoid.normalize(v)) == monoid.normalize(x)


def test_display_format():
    g = GroupElement(FreeWord((("b", 3), ("c", -2), ("b", 1))), 5)
    assert g.display() == "b^3 c^-2 b^1 | a^5"
    assert IDENTITY.display() == "e | a^0"


def test_normal_form_validation():
    with pytest.raises(ValueError):
        NormalForm(1, ((2, 1),), 0)  # first a-run 2 with leading b-power
    with pytest.raises(ValueError):
        NormalForm(0, ((1, 0),), 0)  # empty interior b-run
    with pytest.raises(ValueError):
        NormalForm(0, ((1, 1), (2, 1)), 0)  # later a-run must be 1 or 3
    nf = NormalForm(2, ((3, 1),), 4)
    assert nf.length == 2 + 3 + 1 + 4
    assert nf.a_count == 7
    assert nf.b_count == 3
    assert nf.display() == "b^2 a^3 b^1 a^4"


def test_display_round_trips_through_the_parser():
    assert NormalForm().display() == "e"
    for nf in monoid.enumerate_elements(10):
        text = nf.display()
        if not nf.is_identity():
            assert all(re.fullmatch(r"[ab]\^[1-9]\d*", tok) for tok in text.split()), text
        assert monoid.normalize(w(text)) == nf


def test_embed_normal_form_matches_letters_up_to_12():
    forms = list(monoid.enumerate_elements(12))
    assert len(forms) == 3314
    for nf in forms:
        assert embed_normal_form(nf) == embed_by_letters(nf.letters())


def _random_normal_form(rnd, top):
    head_b = rnd.randint(0, top)
    blocks = []
    for i in range(rnd.randint(0, 3)):
        a_run = rnd.choice((1, 3) if i or head_b else (1, 2, 3))
        blocks.append((a_run, rnd.randint(1, top)))
    return NormalForm(head_b, tuple(blocks), rnd.randint(0, top))


def test_embed_normal_form_matches_letters_on_long_runs():
    rnd = random.Random(16)
    top = 10**5
    forms = [NormalForm(top, ((3, top), (1, top)), top), NormalForm(0, ((2, top), (3, 1)), top)]
    forms += [_random_normal_form(rnd, top) for _ in range(6)]
    for nf in forms:
        assert embed_normal_form(nf) == embed_by_letters(nf.letters())


def test_quotients_take_normal_forms_as_words():
    forms = list(monoid.enumerate_elements(5))
    words = [nf.word() for nf in forms]
    found = 0
    for u, u_word in zip(forms, words):
        for x, x_word in zip(forms, words):
            left = left_quotient(u, x)
            assert left == left_quotient(u_word, x_word)
            right = right_quotient(x, u)
            assert right == right_quotient(x_word, u_word)
            found += (left is not None) + (right is not None)
    # both answers occur, so the comparison is not between two constant Nones
    assert 0 < found < 2 * len(forms) ** 2


def _unique_products(left: list[GroupElement], right: list[GroupElement]) -> int:
    """The number of products x*y (x in left, y in right) that arise from one pair only."""
    counts: dict[GroupElement, int] = {}
    for x in left:
        for y in right:
            xy = g_mul(x, y)
            counts[xy] = counts.get(xy, 0) + 1
    return sum(1 for n in counts.values() if n == 1)


def test_supports_multiply_with_two_uniquely_represented_products():
    # K[M] is a domain, which the additivity of algebra.deg_a and the exact
    # division of algebra.divides_right rely on: M embeds in
    # G = F(b, c) x| Z, an extension of a left-orderable group by a
    # left-orderable group, so G has unique products, and by Strojnowski
    # (1980) two of them whenever |A| + |B| > 2.  A uniquely represented
    # product s*t keeps its coefficient in f*g, so f*g != 0.  The products
    # are formed in the group, apart from the rewriting normalizer.
    elements = [embed_normal_form(nf) for nf in monoid.enumerate_elements(8)]
    assert len(elements) == 340
    rnd = random.Random(14)
    for _ in range(150):
        left = rnd.sample(elements, rnd.randint(1, 30))
        right = rnd.sample(elements, rnd.randint(1, 30))
        if len(left) + len(right) > 2:
            assert _unique_products(left, right) >= 2, (left, right)
    chain = [embed_normal_form(NormalForm(k, (), 2)) for k in range(30)]  # b^k a^2
    for n in (2, 10, 30):
        assert _unique_products(chain[:n], chain[:n]) >= 2, n
