import itertools
import random
import tracemalloc

import pytest

from factorlab import groups, monoid
from factorlab.groups import ALPHABET, NormalForm
from factorlab.monoid import (
    CANDIDATE_LENGTH_FUNCTIONS,
    BPowerDivisibility,
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
from word_reference import enumerate_words, shortlex_elements, word_of


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


@pytest.mark.parametrize("a_share", [0.3, 0.5, 0.7])
def test_both_oracles_agree_on_long_words(a_share):
    # the rewriting normalizer and the group embedding, on words far longer
    # than any enumeration reaches, and on products of their forms
    rng = random.Random(int(a_share * 10))
    forms = []
    for length in (500, 1000, 500, 1000):
        word = word_of(rng.choices(ALPHABET, weights=(a_share, 1 - a_share), k=length))
        forms.append(normalize(word))
        assert forms[-1] == groups.parse_membership(groups.embed(word)), length
    for x, y in zip(forms, forms[1:]):
        product = groups.g_mul(groups.embed(x), groups.embed(y))
        assert multiply(x, y) == groups.parse_membership(product)


def test_conservation_laws_up_to_12():
    # both relations preserve the a-count and the parity of the b-count,
    # and reduction never lengthens a word
    for word in enumerate_words(ALPHABET, 12):
        nf = normalize(word)
        assert nf.a_count == word.letters.count("a")
        assert nf.b_count % 2 == word.letters.count("b") % 2
        assert nf.length <= len(word)


def test_enumerate_elements_small():
    assert [nf.display() for nf in enumerate_elements(0, 0)] == ["e"]
    assert [nf.display() for nf in enumerate_elements(1, 1)] == ["e", "a^1", "b^1"]
    level2 = [nf.display() for nf in enumerate_elements(2, 2)]
    assert set(level2) == {"e", "a^1", "b^1", "a^2", "a^1 b^1", "b^1 a^1", "b^2"}
    assert len(level2) == 7
    # lazy: the first forms come without generating the rest
    first = list(itertools.islice(enumerate_elements(10**6, 10**6), 3))
    assert first == [NormalForm(), NormalForm(0, (), 1), NormalForm(0, (), 2)]


def test_enumerate_elements_matches_word_classes():
    for cap in (4, 6, 8):
        classes = {normalize(word) for word in enumerate_words(ALPHABET, cap)}
        forms = list(enumerate_elements(cap, cap))
        assert len(forms) == len(set(forms)) == len(classes)
        assert set(forms) == classes


def test_enumerate_elements_a_count_bound_matches_filtering():
    for cap in range(10):
        full = list(enumerate_elements(cap, cap))
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
    elements = [nf for nf in shortlex_elements(4) if not nf.is_identity()]
    for x in elements:
        for y in elements:
            assert not multiply(x, y).is_identity()
    # up to length 10: the a-count is additive (conservation test above), so a
    # product can only vanish when both factors are pure b-powers, and those
    # multiply to longer b-powers
    for nf in shortlex_elements(10):
        if nf.a_count == 0:
            assert nf == NormalForm(nf.b_count, (), 0)
    for i in range(1, 11):
        for j in range(1, 11):
            assert multiply(NormalForm(i, (), 0), NormalForm(j, (), 0)) == NormalForm(i + j, (), 0)


def test_atoms_are_exactly_the_generators():
    atoms = [nf for nf in shortlex_elements(6) if is_atom(nf).kind == "atom"]
    assert {nf.display() for nf in atoms} == {"a^1", "b^1"}
    units = [nf for nf in shortlex_elements(6) if is_atom(nf).kind == "unit"]
    assert units == [NormalForm()]


def test_atom_split_witnesses_multiply_back():
    for nf in shortlex_elements(5):
        verdict = is_atom(nf)
        if verdict.kind == "composite":
            left, right = verdict.split
            assert not left.is_identity() and not right.is_identity()
            assert multiply(left, right) == nf


def test_length_set_of_a_squared():
    assert tuple(length_set(AA, 8).sorted_lengths()) == (2, 4, 6, 8)
    report = length_set(AA, 12)
    assert tuple(report.sorted_lengths()) == (2, 4, 6, 8, 10, 12)
    assert not report.exhausted  # the cap clipped lengthening rewrites


def test_length_set_examples():
    b_report = length_set(normalize(w("b")), 5)
    assert tuple(b_report.sorted_lengths()) == (1,)
    assert b_report.exhausted
    assert tuple(length_set(NormalForm(), 3).sorted_lengths()) == (0,)
    with pytest.raises(ValueError):
        length_set(AA, 1)
    for x in (AA, normalize(w("b"))):  # the cap is bounded like a word's length
        with pytest.raises(ValueError):
            length_set(x, MAX_LETTERS + 1)


def test_length_set_at_the_largest_cap_is_constant_size():
    # the report is (element, cap, exhausted); no length is stored
    tracemalloc.start()
    try:
        report = length_set(AA, MAX_LETTERS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert report.sorted_lengths() == range(2, MAX_LETTERS + 1, 2)


def test_length_set_matches_breadth_first_closure():
    pairs = 0
    for nf in shortlex_elements(9):
        for cap in range(nf.length, nf.length + 7):
            report = length_set(nf, cap)
            assert (report.lengths, report.exhausted) == _bfs_length_set(nf, cap), (nf, cap)
            pairs += 1
    assert pairs == 4228


def test_length_set_parity_invariant():
    rnd = random.Random(5)
    pool = shortlex_elements(4)
    for nf in rnd.sample(pool, 12):
        report = length_set(nf, nf.length + 6)
        parities = {n % 2 for n in report.lengths}
        assert len(parities) == 1


def test_length_set_superadditive():
    rnd = random.Random(11)
    pool = shortlex_elements(3)
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


def accp_reference(depth):
    """Reference for ``verify_accp_failure``: certify every step k < depth on
    its own, with elements from the rewriting normalizer, the cofactor and
    the strictness from the group embedding, and the cofactor multiplied
    back by the rewriting normalizer."""
    cofactor_b = normalize(w("b"))
    elements = [normalize(w(f"b^{k} a^2")) for k in range(depth + 1)]
    for k in range(depth):
        g_k, g_next = elements[k], elements[k + 1]
        inclusion = groups.left_quotient(g_next, g_k)
        assert inclusion == cofactor_b, k
        assert multiply(g_next, inclusion) == g_k, k
        assert groups.left_quotient(g_k, g_next) is None, k
    return tuple((element, cofactor_b) for element in elements)


def b_power_reference(x, probe):
    """Reference for ``divisible_by_all_b_powers``: try every witness
    exponent i <= probe, then every n from probe down, one division each."""
    for i in range(probe + 1):
        cofactor = groups.right_quotient(x, NormalForm(0, ((2, i),), 0) if i else AA)
        if cofactor is not None:
            assert multiply(multiply(cofactor, AA), NormalForm(i, (), 0)) == x
            return BPowerDivisibility(True, i, cofactor)
    for n in range(probe, -1, -1):
        if groups.right_quotient(x, NormalForm(n, (), 0)) is not None:
            return BPowerDivisibility(False, n, None)
    raise AssertionError("x is not divisible by b^0")


def random_form(rng):
    """A canonical form with 0 to 12 blocks and b-runs up to 40."""
    head_b = rng.choice((0, rng.randint(1, 40)))
    blocks = []
    for i in range(rng.randint(0, 12)):
        a_runs = (1, 2, 3) if i == 0 and head_b == 0 else (1, 3)
        blocks.append((rng.choice(a_runs), rng.randint(1, 40)))
    return NormalForm(head_b, tuple(blocks), rng.randint(0, 5))


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


def test_accp_chain_matches_the_per_step_reference():
    # the reference certifies every step k = 0..199 on its own
    assert verify_accp_failure(200).chain == accp_reference(200)
    for depth in (1, 2, 7):
        assert verify_accp_failure(depth).chain == accp_reference(depth)


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


def test_b_power_test_matches_the_probing_reference_up_to_12():
    # the reference probes 30 past the b-count, beyond any witness or N
    forms = shortlex_elements(12)
    assert len(forms) == 3314
    for x in forms:
        result = divisible_by_all_b_powers(x)
        assert result == b_power_reference(x, x.b_count + 30), x
        # the docstring's bound on the least witness
        assert not result.forever or result.exponent <= x.b_count, x


def test_b_power_test_matches_the_probing_reference_on_random_forms():
    rng = random.Random(26)
    for _ in range(1000):
        x = random_form(rng)
        assert divisible_by_all_b_powers(x) == b_power_reference(x, x.b_count + 30), x


def _count_calls(monkeypatch, *names):
    """Count calls of the named ``monoid`` functions."""
    counts = dict.fromkeys(names, 0)

    def counting(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(monoid, name, counting(name, getattr(monoid, name)))
    return counts


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


def test_accp_certificate_is_one_check_at_every_depth(monkeypatch):
    calls = _count_calls(monkeypatch, "left_quotient", "multiply")
    work = _count_group_work(monkeypatch)
    pushes = set()
    for depth in (1, 50, 200, 3200):
        calls.update(left_quotient=0, multiply=0)
        work.update(push=0, letters=0)
        assert verify_accp_failure(depth).depth == depth
        assert calls == {"left_quotient": 2, "multiply": 1}, depth
        assert work["letters"] == 0
        pushes.add(work["push"])
    assert len(pushes) == 1  # the same group work at every depth


def test_b_power_test_makes_a_bounded_number_of_divisions(monkeypatch):
    calls = _count_calls(monkeypatch, "right_quotient")
    work = _count_group_work(monkeypatch)
    pushes = {}
    for k in (50, 200, 10**4, 10**6):
        results = []
        shapes = (NormalForm(0, ((2, k),), 0), NormalForm(k, (), 0), NormalForm(k, ((3, k), (1, 2)), 5))
        for shape, x in enumerate(shapes):
            calls["right_quotient"] = 0
            work.update(push=0, letters=0)
            results.append(divisible_by_all_b_powers(x))
            assert calls["right_quotient"] <= 3, (k, x)
            assert work["letters"] == 0
            pushes.setdefault(shape, set()).add(work["push"])
        # a^2 b^k has its witness at i = k; b^k is divisible by b^k and no further
        assert results[0].forever and results[0].exponent == k
        assert not results[1].forever and results[1].exponent == k
    assert all(len(counts) == 1 for counts in pushes.values())  # the same group work at every k


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
    assert tuple(length_set(cube, 9).sorted_lengths()) == (3, 5, 7, 9)
    # b has no aa, so it is a product of one nonunit only
    report = length_set(normalize(w("b")), 3)
    assert tuple(report.sorted_lengths()) == (1,) and report.exhausted
