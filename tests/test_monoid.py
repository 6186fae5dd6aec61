import random

import pytest

from factorlab import groups
from factorlab.groups import ALPHABET, NormalForm
from factorlab.monoid import (
    CANDIDATE_LENGTH_FUNCTIONS,
    divisible_by_all_b_powers,
    enumerate_elements,
    is_atom,
    length_set,
    multiply,
    normalize,
    refute_right_length,
    right_length_refutation_triples,
    verify_accp_failure,
)
from factorlab.words import MAX_LETTERS, parse_word
from word_reference import enumerate_words


def w(text):
    return parse_word(text, ALPHABET)


AA = NormalForm(0, (), 2)

RELATIONS = (
    (w("b a a b").letters, w("a a").letters),
    (w("a a a a b").letters, w("b a a a a").letters),
)


def _bfs_length_set(x, cap):
    """Reference for ``length_set``: close the class of the canonical word
    breadth-first under both relations in both directions, never visiting
    words longer than ``cap``.  ``exhausted`` is False when the cap
    suppressed some lengthening application."""
    moves = list(RELATIONS) + [(rhs, lhs) for lhs, rhs in RELATIONS]
    start = x.letters()
    seen = {start}
    frontier = [start]
    suppressed = False
    while frontier:
        next_frontier = []
        for wrd in frontier:
            for pat, rep in moves:
                for pos in range(len(wrd) - len(pat) + 1):
                    if wrd[pos : pos + len(pat)] != pat:
                        continue
                    if len(wrd) - len(pat) + len(rep) > cap:
                        suppressed = True
                        continue
                    new = wrd[:pos] + rep + wrd[pos + len(pat) :]
                    if new not in seen:
                        seen.add(new)
                        next_frontier.append(new)
        frontier = next_frontier
    return frozenset(len(wrd) for wrd in seen), not suppressed


def test_normalize_defining_relations():
    assert normalize(w("b a a b")) == AA
    assert normalize(w("a a a a b")) == NormalForm(1, (), 4)  # b a^4
    for n in range(1, 9):
        assert normalize(w(f"b^{n} a^2 b^{n}")) == AA


def test_normalize_fixpoints_are_canonical_words():
    for word in enumerate_words(ALPHABET, 9):
        nf = normalize(word)
        assert normalize(nf.word()) == nf


def test_equal_examples():
    assert normalize(w("b a a b")) == normalize(w("a a"))
    assert normalize(w("a b")) != normalize(w("b a"))
    assert normalize(w("b a^4 b")) == normalize(w("b a^4 b"))


def test_canonicity_matches_group_oracle_up_to_9():
    for word in enumerate_words(ALPHABET, 9):
        assert groups.parse_membership(groups.embed(word)) == normalize(word)


def test_conservation_laws_up_to_12():
    # both relations preserve the a-count and the parity of the b-count,
    # and reduction never lengthens a word
    for word in enumerate_words(ALPHABET, 12):
        nf = normalize(word)
        assert nf.a_count == word.letters.count("a")
        assert nf.b_count % 2 == word.letters.count("b") % 2
        assert nf.length <= len(word)


def test_enumerate_elements_small():
    assert [nf.display() for nf in enumerate_elements(0)] == ["e"]
    assert [nf.display() for nf in enumerate_elements(1)] == ["e", "a^1", "b^1"]
    level2 = {nf.display() for nf in enumerate_elements(2)}
    assert level2 == {"e", "a^1", "b^1", "a^2", "a^1 b^1", "b^1 a^1", "b^2"}
    assert len(level2) == 7


def test_enumerate_elements_matches_word_classes():
    for cap in (4, 6, 8):
        classes = {normalize(word) for word in enumerate_words(ALPHABET, cap)}
        forms = list(enumerate_elements(cap))
        assert len(forms) == len(set(forms)) == len(classes)
        assert set(forms) == classes
        assert forms == sorted(forms, key=lambda x: (x.length, x.letters()))


def test_enumerate_elements_a_count_bound_matches_filtering():
    for cap in range(10):
        full = list(enumerate_elements(cap))
        for max_a in range(8):
            assert list(enumerate_elements(cap, max_a)) == [x for x in full if x.a_count <= max_a]


def test_enumerate_elements_minimal_lengths():
    # canonical words are length-minimal, so enumeration by tuples equals
    # enumeration by shortest representatives
    best = {}
    for word in enumerate_words(ALPHABET, 8):
        nf = normalize(word)
        best.setdefault(nf, len(word))
    for nf, shortest in best.items():
        assert nf.length == shortest


def test_units_are_trivial():
    elements = [nf for nf in enumerate_elements(4) if not nf.is_identity()]
    for x in elements:
        for y in elements:
            assert not multiply(x, y).is_identity()
    # up to length 10: the a-count is additive (conservation test above), so a
    # product can only vanish when both factors are pure b-powers, and those
    # multiply to longer b-powers
    for nf in enumerate_elements(10):
        if nf.a_count == 0:
            assert nf == NormalForm(nf.b_count, (), 0)
    for i in range(1, 11):
        for j in range(1, 11):
            assert multiply(NormalForm(i, (), 0), NormalForm(j, (), 0)) == NormalForm(i + j, (), 0)


def test_atoms_are_exactly_the_generators():
    atoms = [nf for nf in enumerate_elements(6) if is_atom(nf).kind == "atom"]
    assert {nf.display() for nf in atoms} == {"a^1", "b^1"}
    units = [nf for nf in enumerate_elements(6) if is_atom(nf).kind == "unit"]
    assert units == [NormalForm()]


def test_atom_split_witnesses_multiply_back():
    for nf in enumerate_elements(5):
        verdict = is_atom(nf)
        if verdict.kind == "composite":
            left, right = verdict.split
            assert not left.is_identity() and not right.is_identity()
            assert multiply(left, right) == nf


def test_length_set_of_a_squared():
    assert length_set(AA, 8).sorted_lengths() == (2, 4, 6, 8)
    report = length_set(AA, 12)
    assert report.sorted_lengths() == (2, 4, 6, 8, 10, 12)
    assert not report.exhausted  # the cap clipped lengthening rewrites


def test_length_set_examples():
    b_report = length_set(normalize(w("b")), 5)
    assert b_report.sorted_lengths() == (1,)
    assert b_report.exhausted
    assert length_set(NormalForm(), 3).sorted_lengths() == (0,)
    with pytest.raises(ValueError):
        length_set(AA, 1)
    for x in (AA, normalize(w("b"))):  # the cap is bounded like a word's length
        with pytest.raises(ValueError):
            length_set(x, MAX_LETTERS + 1)


def test_length_set_matches_breadth_first_closure():
    pairs = 0
    for nf in enumerate_elements(9):
        for cap in range(nf.length, nf.length + 7):
            report = length_set(nf, cap)
            assert (report.lengths, report.exhausted) == _bfs_length_set(nf, cap), (nf, cap)
            pairs += 1
    assert pairs == 4228


def test_length_set_parity_invariant():
    rnd = random.Random(5)
    pool = list(enumerate_elements(4))
    for nf in rnd.sample(pool, 12):
        report = length_set(nf, nf.length + 6)
        parities = {n % 2 for n in report.lengths}
        assert len(parities) == 1


def test_length_set_superadditive():
    rnd = random.Random(11)
    pool = [nf for nf in enumerate_elements(3)]
    for _ in range(15):
        x, y = rnd.choice(pool), rnd.choice(pool)
        xy = multiply(x, y)
        cap = xy.length + 6
        lx = length_set(x, max(x.length, 1) + 4).lengths
        ly = length_set(y, max(y.length, 1) + 4).lengths
        lxy = length_set(xy, cap).lengths
        for m in lx:
            for n in ly:
                if m + n <= cap:
                    assert m + n in lxy


def test_accp_witness_depth_one():
    witness = verify_accp_failure(1)
    assert [(e.display(), c.display()) for e, c in witness.chain] == [
        ("a^2", "b^1"),
        ("b^1 a^2", "b^1"),
    ]


def test_accp_witness_depth_20():
    witness = verify_accp_failure(20)
    assert witness.depth == 20
    assert len(witness.chain) == 21
    # spot check the strictness at the bottom: a^2 does not right-divide b a^2
    assert groups.left_quotient(w("a a"), w("b a a")) is None


def test_accp_rejects_bad_depth():
    with pytest.raises(ValueError):
        verify_accp_failure(0)


def test_divisible_by_all_b_powers():
    yes = divisible_by_all_b_powers(AA)
    assert yes.forever and yes.exponent == 0 and yes.cofactor == NormalForm()
    no = divisible_by_all_b_powers(NormalForm(3, (), 0))
    assert not no.forever and no.exponent == 3
    a2b = normalize(w("a a b"))
    yes2 = divisible_by_all_b_powers(a2b)
    assert yes2.forever and yes2.exponent == 1 and yes2.cofactor == NormalForm()
    for m in range(1, 6):
        assert normalize(w("a a b")) == normalize(w(f"b^{m} a^2 b^{m + 1}"))


def test_divisible_by_all_b_powers_probe_reported():
    result = divisible_by_all_b_powers(NormalForm(2, ((1, 1),), 0), probe=9)
    assert result.probe == 9


def _count_group_work(monkeypatch):
    """Count free-group run pushes and embeddings of letter sequences."""
    counts = {"push": 0, "letters": 0}
    push_run, embed_letters = groups._push_run, groups.embed_letters

    def counting_push(stack, letter, exp):
        counts["push"] += 1
        push_run(stack, letter, exp)

    def counting_letters(letters):
        counts["letters"] += 1
        return embed_letters(letters)

    monkeypatch.setattr(groups, "_push_run", counting_push)
    monkeypatch.setattr(groups, "embed_letters", counting_letters)
    return counts


def test_accp_group_work_is_linear_in_depth(monkeypatch):
    # each step runs two divisions of two-run canonical forms: a bounded
    # number of pushes, never a re-embedding of b^k a^2 letter by letter
    counts = _count_group_work(monkeypatch)
    for depth in (50, 100, 200):
        counts.update(push=0, letters=0)
        assert verify_accp_failure(depth).depth == depth
        assert 0 < counts["push"] <= 6 * depth
        assert counts["letters"] == 0


def test_b_power_probe_group_work_is_linear(monkeypatch):
    counts = _count_group_work(monkeypatch)
    for k in (50, 100, 200):
        results = []
        for x in (NormalForm(0, ((2, k),), 0), NormalForm(k, (), 0), NormalForm(k, ((3, k), (1, 2)), 5)):
            counts.update(push=0, letters=0)
            results.append(divisible_by_all_b_powers(x))
            assert counts["push"] <= 6 * (results[-1].probe + 1) * len(x.runs)
            assert counts["letters"] == 0
        # a^2 b^k finds its witness after k + 1 probes; b^k runs both loops
        assert results[0].forever and results[0].exponent == k
        assert not results[1].forever and results[1].exponent == k


def test_refutation_triples_are_verified_factorizations():
    for whole, left, right in right_length_refutation_triples(6):
        assert multiply(left, right) == whole


def test_every_candidate_length_function_is_refuted():
    for name, evaluator in CANDIDATE_LENGTH_FUNCTIONS.items():
        report, bound = refute_right_length(evaluator)
        assert bound == evaluator(AA) + 1
        assert not report.ok(), name
        # each recorded violation is re-checkable
        for v in report.violations:
            assert multiply(v.left, v.right) == v.whole
            assert not v.right.is_identity()
            assert v.value_whole <= v.value_left


def nonunit_power_witness(x, n):
    """Reference: x as a product of exactly n nonunits, padding the first aa
    of the canonical word to b^k aa b^k when the word is shorter than n."""
    letters = x.letters()
    if len(letters) < n:
        k = (n - len(letters) + 1) // 2
        pos = next(p for p in range(len(letters) - 1) if letters[p : p + 2] == ("a", "a"))
        letters = letters[:pos] + ("b",) * k + ("a", "a") + ("b",) * k + letters[pos + 2 :]
    cuts = [round(i * len(letters) / n) for i in range(n + 1)]
    return [normalize(w(" ".join(letters[cuts[i] : cuts[i + 1]]))) for i in range(n)]


def product(factors):
    result = factors[0]
    for f in factors[1:]:
        result = multiply(result, f)
    return result


def test_nonunit_power_witness():
    for n in range(1, 11):
        factors = nonunit_power_witness(AA, n)
        assert len(factors) == n
        assert all(not f.is_identity() for f in factors)
        assert product(factors) == AA
    # b a^3 b is not a^3, so the padding goes around the first aa: a^3 = b a a b a
    assert normalize(w("b a^3 b")) != normalize(w("a^3"))
    cube = normalize(w("a^3"))
    assert normalize(w("b a a b a")) == cube
    for n in range(1, 10):
        factors = nonunit_power_witness(cube, n)
        assert len(factors) == n
        assert all(not f.is_identity() for f in factors)
        assert product(factors) == cube
    # the padded words are the atom factorizations: a^3 has lengths 3, 5, 7, 9 up to 9
    assert length_set(cube, 9).sorted_lengths() == (3, 5, 7, 9)
    # b has no aa, so it is a product of one nonunit only
    report = length_set(normalize(w("b")), 3)
    assert report.sorted_lengths() == (1,) and report.exhausted
