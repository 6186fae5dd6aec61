import itertools

import pytest

from factorlab import monoid
from factorlab.groups import ALPHABET
from factorlab.growth import (
    DEFAULT_BUDGET,
    GrowthTable,
    builtin_table,
    classify,
    table_from_words,
    two_relator_table_by_oracle,
)
from word_reference import word_of


def test_free_monoid_table_matches_closed_form():
    table = builtin_table("free", 16)
    assert table.truncated_at is None
    assert all(d == 2 ** (n + 1) - 1 for n, d in table.entries)


def test_free_commutative_table_matches_closed_form():
    table = builtin_table("free-commutative", 16)
    assert all(2 * d == (n + 1) * (n + 2) for n, d in table.entries)


def test_two_relator_small_dimensions():
    table = builtin_table("two-relator", 2)
    assert table.entries == ((0, 1), (1, 3), (2, 7))


def test_two_relator_tables_agree_up_to_10():
    by_tuples = builtin_table("two-relator", 10)
    by_oracle = two_relator_table_by_oracle(10)
    assert by_tuples.entries == by_oracle.entries


def test_word_table_with_normalizer_key():
    # a third computation of the same dimensions, keyed by the rewriting
    # normalizer instead of the group embedding
    table = table_from_words(ALPHABET, lambda letters: monoid.normalize(word_of(letters)), 8, "two-relator")
    assert table.entries == builtin_table("two-relator", 8).entries


def test_entries_strictly_increasing():
    for family in ("free", "free-commutative", "two-relator"):
        dims = [d for _, d in builtin_table(family, 12).entries]
        assert all(b > a for a, b in zip(dims, dims[1:]))


def test_classification_hints():
    assert classify(builtin_table("free", 16)).kind == "exponential"
    fc = classify(builtin_table("free-commutative", 20))
    assert (fc.kind, fc.degree) == ("polynomial", 2)
    constant = GrowthTable("point", tuple((n, 5) for n in range(12)))
    assert (classify(constant).kind, classify(constant).degree) == ("polynomial", 0)
    linear = GrowthTable("line", tuple((n, n + 1) for n in range(17)))
    assert (classify(linear).kind, classify(linear).degree) == ("polynomial", 1)
    cubic = GrowthTable("cubic", tuple((n, (n + 1) ** 3) for n in range(21)))
    assert (classify(cubic).kind, classify(cubic).degree) == ("polynomial", 3)


def test_two_relator_classifies_as_exponential_hint():
    hint = classify(builtin_table("two-relator", 12))
    assert hint.kind == "exponential"
    assert hint.ratio > 1.5


def test_classify_requires_enough_entries():
    with pytest.raises(ValueError):
        classify(GrowthTable("tiny", tuple((n, n + 1) for n in range(5))))


def test_budget_truncation_marker():
    table = builtin_table("free", 16, budget=100)
    assert table.truncated_at == 6
    assert table.entries[-1][0] == 5
    assert "truncated" in table.csv()
    full = builtin_table("free", 5)
    assert "truncated" not in full.csv()
    tr = builtin_table("two-relator", 12, budget=50)
    assert tr.truncated_at is not None


def _two_relator_closed_form(n_max):
    # dim V^n is the z^n coefficient of (1 + z^3) / ((1 - z)^2 (1 - z - z^2 - z^4)),
    # the generating function of the canonical parameter tuples
    numerator = [1, 0, 0, 1]
    denominator = [1, -3, 2, 1, -2, 2, -1]  # (1 - z)^2 (1 - z - z^2 - z^4)
    dims = []
    for n in range(n_max + 1):
        acc = numerator[n] if n < len(numerator) else 0
        acc -= sum(denominator[k] * dims[n - k] for k in range(1, min(n, len(denominator) - 1) + 1))
        dims.append(acc)
    return dims


def _enumerated_table(family, n_max, budget, two_relator_lengths):
    """(entries, truncated_at) by enumeration, the budget capping the elements
    produced: words for ``free``, canonical tuples (given by their lengths in
    shortlex order) for ``two-relator``, exponent pairs for ``free-commutative``."""
    if family == "free":
        table = table_from_words(ALPHABET, lambda letters: letters, n_max, "free", budget)
        return table.entries, table.truncated_at
    if family == "two-relator":
        lengths = itertools.takewhile(lambda n: n <= n_max, two_relator_lengths)
    else:
        lengths = (total for total in range(n_max + 1) for _first in range(total + 1))
    counts = [0] * (n_max + 1)
    truncated_at = None
    for produced, n in enumerate(lengths, 1):
        if produced > budget:
            truncated_at = n
            break
        counts[n] += 1
    top = n_max + 1 if truncated_at is None else truncated_at
    return tuple(enumerate(itertools.accumulate(counts[:top]))), truncated_at


def test_budget_truncation_matches_closed_forms():
    n_max = 14
    closed = {
        "free": [2 ** (n + 1) - 1 for n in range(n_max + 1)],
        "free-commutative": [(n + 1) * (n + 2) // 2 for n in range(n_max + 1)],
        "two-relator": _two_relator_closed_form(n_max),
    }
    assert closed["two-relator"] == [d for _, d in builtin_table("two-relator", n_max).entries]
    two_relator_lengths = [nf.length for nf in monoid.enumerate_elements(n_max)]
    for family, dims in closed.items():
        for budget in [*range(1, 200), DEFAULT_BUDGET]:
            over = [n for n, d in enumerate(dims) if d > budget]
            cut = over[0] if over else None
            table = builtin_table(family, n_max, budget)
            assert table.truncated_at == cut, (family, budget)
            assert table.entries == tuple(enumerate(dims[:cut])), (family, budget)
            for top in range(n_max + 1):
                table = builtin_table(family, top, budget)
                enumerated = _enumerated_table(family, top, budget, two_relator_lengths)
                assert (table.entries, table.truncated_at) == enumerated, (family, top, budget)
        with pytest.raises(ValueError):
            builtin_table(family, n_max, budget=0)


def test_output_formats():
    table = builtin_table("free-commutative", 8)
    csv = table.csv().splitlines()
    assert csv[0] == "n,dim"
    assert csv[1] == "0,1"
    cols = table.columns().splitlines()
    assert cols[0] == "0 1"


def test_bad_family_and_bounds():
    with pytest.raises(ValueError):
        builtin_table("boolean", 5)
    with pytest.raises(ValueError):
        builtin_table("free", -1)
