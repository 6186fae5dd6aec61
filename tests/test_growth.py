import itertools
from fractions import Fraction

import pytest

from factorlab import monoid
from factorlab.growth import (
    DEFAULT_BUDGET,
    Classification,
    builtin_table,
    classify,
    two_relator_table_by_oracle,
)
from word_reference import shortlex_elements, table_from_words, word_of


def test_free_monoid_table_matches_closed_form():
    table = builtin_table("free", 16)
    assert table.truncated_at is None
    assert all(d == 2 ** (n + 1) - 1 for n, d in table.entries)
    # 2^(n+1) - 1 grows exponentially at rate 2
    assert classify(table) == Classification("exponential", ratio=2.0)


def test_free_commutative_table_matches_closed_form():
    table = builtin_table("free-commutative", 16)
    assert all(2 * d == (n + 1) * (n + 2) for n, d in table.entries)
    # (n + 1)(n + 2)/2 is a polynomial of degree 2
    assert classify(table) == Classification("polynomial", degree=2)


def test_two_relator_small_dimensions():
    table = builtin_table("two-relator", 2)
    assert table.entries == ((0, 1), (1, 3), (2, 7))


def test_two_relator_tables_agree_up_to_14():
    for n in range(15):
        by_tuples = builtin_table("two-relator", n)
        by_oracle = two_relator_table_by_oracle(n)
        assert (by_oracle.entries, by_oracle.truncated_at) == (by_tuples.entries, None), n


def test_word_table_with_normalizer_key():
    # a third computation of the same dimensions, keyed by the rewriting
    # normalizer instead of the group embedding
    two_relator = builtin_table("two-relator", 8)
    table = table_from_words(lambda letters: monoid.normalize(word_of(letters)), classify(two_relator), 8)
    assert table.entries == two_relator.entries


def test_entries_strictly_increasing():
    for family in ("free", "free-commutative", "two-relator"):
        dims = [d for _, d in builtin_table(family, 12).entries]
        assert all(b > a for a, b in zip(dims, dims[1:]))


def test_two_relator_rate_is_the_root_of_the_recurrence():
    # c_n = c_{n-1} + c_{n-2} + c_{n-4} + 2 has characteristic polynomial
    # t^4 - t^3 - t^2 - 1 = (t + 1)(t^3 - 2t^2 + t - 1); its coefficients change
    # sign once, so by Descartes' rule it has exactly one positive root
    coefficients = [1, -1, -1, 0, -1]
    signs = [c > 0 for c in coefficients if c]
    assert sum(a != b for a, b in zip(signs, signs[1:])) == 1

    def p(t):
        return sum(c * t ** (4 - k) for k, c in enumerate(coefficients))

    assert all(p(t) == (t + 1) * (t**3 - 2 * t**2 + t - 1) for t in range(-5, 6))
    proven = classify(builtin_table("two-relator", 12))
    assert proven.kind == "exponential" and proven.degree is None
    rate, eps = Fraction(proven.ratio), Fraction(1, 2**50)
    assert p(rate - eps) < 0 < p(rate + eps)
    assert classify(two_relator_table_by_oracle(4)) == proven
    dims = [d for _, d in builtin_table("two-relator", 60, budget=10**20).entries]
    counts = [b - a for a, b in zip([0] + dims, dims)]
    assert abs(counts[60] / counts[59] - proven.ratio) < 1e-12


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
        table = table_from_words(lambda letters: letters, Classification("exponential", ratio=2.0), n_max, budget)
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
    two_relator_lengths = [nf.length for nf in shortlex_elements(n_max)]
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
