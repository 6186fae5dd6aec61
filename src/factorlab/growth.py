"""Frame growth tables for presented monoid algebras, at desk scale.

For a monoid algebra the span of 1 and the generators is a frame, and the
dimension of its n-th power equals the number of monoid elements whose
minimal word length is at most n: the monoid elements are a basis and a
canonical normalizer with length-minimal normal forms identifies them.

The built-in families are counted by proven formulas, length by length:
``2^n`` free words, ``n + 1`` commutative exponent pairs, and a linear
recurrence for the canonical tuples of the two-relator monoid (derived in
:func:`_two_relator_counts`).  :func:`two_relator_table_by_oracle` recounts
the two-relator table as an independent cross-check: it walks the group
embedding's image length by length and feeds its counts to the same builder.

Classification of a finished table into polynomial or exponential growth is
a heuristic against the usual rubric (degree-d polynomial growth pinches
dim V^n between multiples of n^d); its output is a hint, never a theorem.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from . import groups

DEFAULT_BUDGET = 2_000_000

#: bound for the stabilized-ratio test of exponential growth
RATIO_THRESHOLD = 1.05
#: relative tolerance for matching a polynomial degree
DEGREE_TOLERANCE = 0.10


@dataclass(frozen=True, slots=True)
class Classification:
    kind: str  # "polynomial" | "exponential" | "inconclusive"
    degree: Optional[int] = None
    ratio: Optional[float] = None

    def display(self) -> str:
        if self.kind == "polynomial":
            return f"polynomial(degree ~ {self.degree})"
        if self.kind == "exponential":
            return f"exponential(ratio ~ {self.ratio:.3f})"
        return "inconclusive"


@dataclass(frozen=True, slots=True)
class GrowthTable:
    frame: str
    entries: tuple[tuple[int, int], ...]  # (n, dim V^n)
    truncated_at: Optional[int] = None  # first n that exceeded the budget

    def csv(self) -> str:
        lines = ["n,dim"] + [f"{n},{d}" for n, d in self.entries]
        if self.truncated_at is not None:
            lines.append(f"# truncated: element budget exceeded at n={self.truncated_at}")
        return "\n".join(lines)

    def columns(self) -> str:
        lines = [f"{n} {d}" for n, d in self.entries]
        if self.truncated_at is not None:
            lines.append(f"# truncated at n={self.truncated_at}")
        return "\n".join(lines)


def _table_from_counts(frame: str, counts: Iterator[int], n_max: int, budget: int) -> GrowthTable:
    """Table of running totals of ``counts`` (new elements per minimal length)
    for n <= n_max.  It stops at the first n whose running total exceeds the
    budget and reports that n as ``truncated_at``."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if budget < 1:
        raise ValueError(f"budget must be positive: {budget}")
    entries: list[tuple[int, int]] = []
    total = 0
    for n, count in zip(range(n_max + 1), counts):
        total += count
        if total > budget:
            return GrowthTable(frame, tuple(entries), n)
        entries.append((n, total))
    return GrowthTable(frame, tuple(entries))


def _two_relator_counts() -> Iterator[int]:
    """Number of two-relator monoid elements of minimal length n, n = 0, 1, ...

    Canonical words are length-minimal and distinct tuples are distinct
    elements (:class:`~factorlab.groups.NormalForm`), so this counts the
    tuples of length n.  Their grammar is a head ``b^h``, then either no
    block or a first block whose a-run is in {1, 2, 3} (2 only when h = 0)
    followed by blocks whose a-runs are in {1, 3}, every block closing with a
    b-run >= 1, then any tail ``a^t``.  Write ``B = z/(1 - z)`` for a b-run.
    The tail gives the outer ``1/(1-z)``; inside, ``1/(1-z)`` is a head with
    no block, ``(z + z^3)/(1-z) + z^2`` a head with its first a-run, and
    ``B/(1 - (z + z^3) B)`` the b-run closing the first block followed by the
    later blocks:

        G(z) = 1/(1-z) * [1/(1-z) + ((z + z^3)/(1-z) + z^2) * B/(1 - (z + z^3) B)]
             = 1/(1-z) * [1/(1-z) + (z + z^2)/(1-z) * z/(1 - z - z^2 - z^4)]
             = (1 + z^3) / ((1 - z)(1 - z - z^2 - z^4)).

    Multiplying by ``1 - z - z^2 - z^4`` leaves ``(1 + z^3)/(1 - z) =
    1 + z + z^2 + 2z^3 + 2z^4 + ...``, so ``c_n = c_{n-1} + c_{n-2} +
    c_{n-4} + 2`` for n >= 4, from the seeds 1, 2, 4, 8 (the transfer-matrix
    method, Stanley, Enumerative Combinatorics I, 4.7).
    """
    window = [1, 2, 4, 8]  # c_{n-4} .. c_{n-1}
    yield from window
    while True:
        window = window[1:] + [window[3] + window[2] + window[0] + 2]
        yield window[3]


def builtin_table(family: str, n_max: int, budget: int = DEFAULT_BUDGET) -> GrowthTable:
    """Tables for the built-in frames, from their per-length element counts.

    ``free``: two free generators, every word is its own canonical form, 2^n
    of length n.  ``free-commutative``: canonical forms are exponent pairs,
    n + 1 of total n.  ``two-relator``: the monoid of
    :mod:`factorlab.monoid`, counted by :func:`_two_relator_counts`.
    """
    if family == "free":
        return _table_from_counts("free monoid on 2 generators", (2**n for n in itertools.count()), n_max, budget)
    if family == "free-commutative":
        return _table_from_counts("free commutative monoid on 2 generators", itertools.count(1), n_max, budget)
    if family == "two-relator":
        return _table_from_counts("two-relator monoid frame {1, a, b}", _two_relator_counts(), n_max, budget)
    raise ValueError(f"unknown family: {family!r} (free, free-commutative, two-relator)")


def _oracle_counts() -> Iterator[int]:
    """Number of two-relator monoid elements of minimal length n, n = 0, 1, ...,
    by a walk in the group of :mod:`factorlab.groups`.

    A minimal word of length n ends in ``a`` or ``b`` after a word of length
    n - 1, which is then minimal too, so the elements of minimal length n are
    the products of those of minimal length n - 1 with a generator that are
    not shorter.  Group elements are equal exactly when the monoid elements
    are, so a set of them deduplicates.
    """
    generators = [groups.embed_letters(letter) for letter in groups.ALPHABET]
    frontier = {groups.IDENTITY}
    seen = set(frontier)
    while True:
        yield len(frontier)
        frontier = {groups.g_mul(x, s) for x in frontier for s in generators} - seen
        seen |= frontier


def two_relator_table_by_oracle(n_max: int) -> GrowthTable:
    """Independent recomputation of the two-relator table: elements counted
    by walking the group embedding's image (:func:`_oracle_counts`) instead of
    by the recurrence for parameter tuples, under the same element budget."""
    return _table_from_counts(
        "two-relator monoid frame {1, a, b} (oracle dedup)", _oracle_counts(), n_max, DEFAULT_BUDGET
    )


def _doubling_estimate(lookup: dict[int, int], n: int) -> Optional[float]:
    half = n // 2
    if half < 1 or n not in lookup or half not in lookup:
        return None
    return math.log(lookup[n] / lookup[half]) / math.log(n / half)


def classify(table: GrowthTable) -> Optional[Classification]:
    """Heuristic growth class of a table, or None when it has fewer than 8
    positive entries.

    The log-log slope between n/2 and n estimates a polynomial degree; for
    genuinely polynomial data it is scale-stable, while for exponential data
    it keeps growing with n.  A table is called exponential when the estimate
    grows markedly across scales and the tail's successive ratios stabilize
    above 1.05; it is called polynomial of degree d when the estimate sits
    within 10 percent of the integer d.  Anything else is inconclusive, and
    every answer is a hint, not a theorem.
    """
    entries = [(n, d) for n, d in table.entries if d > 0]
    if len(entries) < 8:
        return None
    lookup = dict(entries)
    n_hi = entries[-1][0]
    est_hi = _doubling_estimate(lookup, n_hi)
    est_lo = _doubling_estimate(lookup, n_hi // 2)
    tail = entries[-max(4, len(entries) // 3) :]
    ratios = [b[1] / a[1] for a, b in zip(tail, tail[1:])]
    mean_ratio = sum(ratios) / len(ratios)
    if (
        est_hi is not None
        and est_lo is not None
        and est_hi > 1.25 * est_lo
        and min(ratios) > RATIO_THRESHOLD
        and max(ratios) - min(ratios) <= DEGREE_TOLERANCE * mean_ratio
    ):
        return Classification("exponential", ratio=mean_ratio)
    if est_hi is not None:
        degree = round(est_hi)
        if degree >= 0 and abs(est_hi - degree) <= DEGREE_TOLERANCE * max(degree, 1):
            return Classification("polynomial", degree=degree)
    return Classification("inconclusive")
