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

Every table carries the proven growth class of its frame: exponential at
rate 2 for ``free``, polynomial of degree 2 for ``free-commutative`` (dim V^n
is ``(n + 1)(n + 2)/2``), and exponential at rate ``rho^2`` for the
two-relator monoid, with ``rho`` the plastic number (proof in
:func:`_two_relator_counts`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from . import groups

DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True, slots=True)
class Classification:
    """A proven growth class: polynomial of ``degree`` or exponential at ``ratio``."""

    kind: str  # "polynomial" | "exponential"
    degree: Optional[int] = None
    ratio: Optional[float] = None

    def display(self) -> str:
        if self.kind == "polynomial":
            return f"polynomial, degree {self.degree}"
        return f"exponential, rate {self.ratio:.6g}"


#: the two-relator class; its rate is rho^2 for the plastic number rho
#: (rho^3 = rho + 1), the one positive root of t^4 - t^3 - t^2 - 1 (one sign
#: change, so one root by Descartes' rule) and the real root of its quotient
#: t^3 - 2t^2 + t - 1 by t + 1
_TWO_RELATOR_GROWTH = Classification("exponential", ratio=1.7548776662466927)


@dataclass(frozen=True, slots=True)
class GrowthTable:
    frame: str
    entries: tuple[tuple[int, int], ...]  # (n, dim V^n)
    growth: Classification  # the proven class of the frame
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


def _table_from_counts(
    frame: str, growth: Classification, counts: Iterator[int], n_max: int, budget: int
) -> GrowthTable:
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
            return GrowthTable(frame, tuple(entries), growth, n)
        entries.append((n, total))
    return GrowthTable(frame, tuple(entries), growth)


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

    The factor ``1 + z`` divides both ``1 + z^3`` and ``1 - z - z^2 - z^4``, so

        G(z) = (1 - z + z^2) / ((1 - z)(1 - 2z + z^2 - z^3)).

    The roots of ``t^3 - 2t^2 + t - 1`` are the real ``rho^2`` and a complex
    pair whose squared modulus is ``1/rho^2 < 1`` (the three multiply to 1),
    and ``1 - z + z^2`` vanishes only on the unit circle.  So the pole of G
    nearest 0 is the simple pole ``1/rho^2``, and ``c_n`` and dim V^n (the
    partial sums, one more factor ``1/(1-z)``) grow exponentially at rate
    ``rho^2``.
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
        free = Classification("exponential", ratio=2.0)
        return _table_from_counts("free monoid on 2 generators", free, (2**n for n in itertools.count()), n_max, budget)
    if family == "free-commutative":
        pairs = Classification("polynomial", degree=2)
        return _table_from_counts("free commutative monoid on 2 generators", pairs, itertools.count(1), n_max, budget)
    if family == "two-relator":
        return _table_from_counts(
            "two-relator monoid frame {1, a, b}", _TWO_RELATOR_GROWTH, _two_relator_counts(), n_max, budget
        )
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
    frame = "two-relator monoid frame {1, a, b} (oracle dedup)"
    return _table_from_counts(frame, _TWO_RELATOR_GROWTH, _oracle_counts(), n_max, DEFAULT_BUDGET)


def classify(table: GrowthTable) -> Classification:
    """The proven growth class of the table's frame."""
    return table.growth
