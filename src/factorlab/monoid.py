"""The two-relator monoid ``<a, b | baab = aa, aaaab = baaaa>`` as an object.

This monoid is atomic with trivial units and atoms exactly ``{a, b}``, yet
the principal right ideals generated by ``b^k a^2`` form an infinite strictly
ascending chain, so the ascending chain condition on principal ideals fails
and length sets are unbounded (``a^2`` equals ``b^n a^2 b^n`` for every n).

Two independent equality deciders are maintained:

* :func:`normalize` reduces runs of a word with the oriented relations
  (shift fourth powers of ``a`` right past ``b``, cancel ``b``-powers around
  interior ``a^2`` runs) until the canonical parameter tuple appears;
* the group embedding of :mod:`factorlab.groups` decides equality in the
  ambient group.

Their agreement on all short words is part of the test suite; neither code
path calls into the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .groups import NormalForm, left_quotient, right_quotient
from .words import MAX_LETTERS, Word


class ChainVerificationError(RuntimeError):
    """Internal consistency failure while certifying a divisor chain."""


def _merge_runs(runs: list[list]) -> list[list]:
    merged: list[list] = []
    for ch, cnt in runs:
        if cnt == 0:
            continue
        if merged and merged[-1][0] == ch:
            merged[-1][1] += cnt
        else:
            merged.append([ch, cnt])
    return merged


def _reduce_runs(runs) -> list[list]:
    """Reduce a run-length encoded word over {a, b} to its canonical runs.

    Terminates because cancelling strictly shortens the word while shifting
    preserves length and strictly lowers the (a, later b) inversion count.
    """
    runs = _merge_runs(runs)
    while True:
        changed = False
        # shift a^{4q} to the right past the next b-run
        for i, (ch, cnt) in enumerate(runs):
            if ch == "a" and cnt >= 4 and i + 1 < len(runs):
                q, r = divmod(cnt, 4)
                tail = [["a", r], runs[i + 1], ["a", 4 * q]] + runs[i + 2 :]
                runs = _merge_runs(runs[:i] + tail)
                changed = True
                break
        if changed:
            continue
        # cancel b-powers on both sides of an interior a^2 run
        for i in range(1, len(runs) - 1):
            ch, cnt = runs[i]
            if ch == "a" and cnt == 2:
                d = min(runs[i - 1][1], runs[i + 1][1])
                patch = [["b", runs[i - 1][1] - d], ["a", 2], ["b", runs[i + 1][1] - d]]
                runs = _merge_runs(runs[: i - 1] + patch + runs[i + 2 :])
                changed = True
                break
        if not changed:
            return runs


def _normal_form(runs) -> NormalForm:
    """Canonical form of a sequence of runs ``(letter, exponent)``: reduce
    the runs with the oriented relations, read off the parameter tuple."""
    runs = _reduce_runs(runs)
    head_b = 0
    idx = 0
    if runs and runs[0][0] == "b":
        head_b = runs[0][1]
        idx = 1
    blocks: list[tuple[int, int]] = []
    tail_a = 0
    while idx < len(runs):
        a_run = runs[idx][1]
        if idx + 1 < len(runs):
            blocks.append((a_run, runs[idx + 1][1]))
            idx += 2
        else:
            tail_a = a_run
            idx += 1
    return NormalForm(head_b, tuple(blocks), tail_a)


def normalize(w: Word) -> NormalForm:
    """Canonical form of a word, computed purely by rewriting."""
    return _normal_form(w.runs)


def multiply(x: NormalForm, y: NormalForm) -> NormalForm:
    """Product in the monoid, as canonical forms."""
    return _normal_form(x.runs + y.runs)


def enumerate_elements(max_len: int, max_a: Optional[int] = None) -> Iterator[NormalForm]:
    """Yield each monoid element of minimal word length <= max_len, and of
    a-count <= max_a when given, once.

    Canonical words are length-minimal, so generating the valid parameter
    tuples directly enumerates elements without any deduplication; the
    a-count bound prunes blocks and tail a-runs while they are generated.
    Yields in shortlex order of the canonical words.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    if max_a is None:
        max_a = max_len
    found: list[NormalForm] = []

    def block_suffixes(budget: int, a_budget: int, first: bool, head_b: int):
        # sequences of (a_run, b_run) blocks using total length <= budget
        # and at most a_budget letters a
        yield ()
        a_choices = (1, 2, 3) if first else (1, 3)
        for a_run in a_choices:
            if a_run > a_budget:
                break
            if first and a_run == 2 and head_b != 0:
                continue
            for b_run in range(1, budget - a_run + 1):
                used = a_run + b_run
                for rest in block_suffixes(budget - used, a_budget - a_run, False, head_b):
                    yield ((a_run, b_run),) + rest

    for head_b in range(max_len + 1):
        for blocks in block_suffixes(max_len - head_b, max_a, True, head_b):
            used = head_b + sum(a + b for a, b in blocks)
            a_used = sum(a for a, _ in blocks)
            for tail_a in range(min(max_len - used, max_a - a_used) + 1):
                found.append(NormalForm(head_b, blocks, tail_a))
    found.sort(key=NormalForm.shortlex_key)
    yield from found


@dataclass(frozen=True, slots=True)
class AtomVerdict:
    kind: str  # "unit" | "atom" | "composite"
    split: Optional[tuple[NormalForm, NormalForm]] = None


def is_atom(x: NormalForm) -> AtomVerdict:
    """Classify an element as unit, atom, or composite with a witness split.

    Exact, not search-bounded: the only unit is the empty word (the a-count
    is additive and b has infinite order), so the generators are atoms and
    any element with a canonical word of length >= 2 splits after its first
    letter into two nonunits.
    """
    if x.length == 0:
        return AtomVerdict("unit")
    if x.length == 1:
        return AtomVerdict("atom")
    (letter, exp), *rest = x.runs
    left = _normal_form([(letter, 1)])
    right = _normal_form([(letter, exp - 1), *rest])
    return AtomVerdict("composite", (left, right))


@dataclass(frozen=True, slots=True)
class LengthSetReport:
    element: NormalForm
    cap: int
    lengths: frozenset[int]
    exhausted: bool

    def sorted_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(self.lengths))


def _has_aa(x: NormalForm) -> bool:
    """Whether the canonical word of ``x`` contains ``aa``, i.e. has an a-run >= 2."""
    return x.tail_a >= 2 or any(a_run >= 2 for a_run, _ in x.blocks)


def length_set(x: NormalForm, cap: int) -> LengthSetReport:
    """All factorization lengths of ``x`` up to ``cap``, read off the normal form.

    The atoms are exactly the two generators, so the factorization lengths of
    ``x`` are the lengths of the words representing it.  With ``L = x.length``
    they are ``{L}`` when the canonical word has no ``aa``, and every
    ``L + 2k`` (k >= 0) otherwise:

    * every relation side (``baab``, ``aa``, ``aaaab``, ``baaaa``) contains
      ``aa``, so no relation applies to a word without ``aa`` and such a word
      is alone in its class;
    * ``u aa v = u b^k aa b^k v`` gives a word of every length ``L + 2k``;
    * each relation changes the length by 0 or +-2, so all representing
      words have the parity of ``L``, and none is shorter than ``L`` because
      canonical words are length-minimal (:class:`NormalForm`).

    ``exhausted`` is True exactly when the set is finite; False means the set
    is infinite and ``cap`` cut it off.  ``cap`` may not exceed
    ``words.MAX_LETTERS``, the longest word the package accepts.
    """
    if cap < x.length:
        raise ValueError(f"cap {cap} below minimal word length {x.length}")
    if cap > MAX_LETTERS:
        raise ValueError(f"cap {cap} above the limit of {MAX_LETTERS} letters")
    if _has_aa(x):
        return LengthSetReport(x, cap, frozenset(range(x.length, cap + 1, 2)), False)
    return LengthSetReport(x, cap, frozenset((x.length,)), True)


@dataclass(frozen=True, slots=True)
class AccpWitness:
    """Certified strictly ascending chain of principal right ideals.

    ``chain[k]`` is ``(b^k a^2, cofactor)`` where each element equals its
    successor times the cofactor, while no division in the other direction
    exists.  The cofactor stored with entry 0 links it to nothing and is kept
    only to make the entries uniform.
    """

    depth: int
    chain: tuple[tuple[NormalForm, NormalForm], ...]


def verify_accp_failure(depth: int) -> AccpWitness:
    """Build and certify the chain witnessing the failure of the ascending
    chain condition on principal right ideals, to the requested depth.

    For each k: ``b^k a^2 = (b^{k+1} a^2) * b`` holds (one exact division
    succeeds) while ``b^{k+1} a^2`` is not a right multiple of ``b^k a^2``
    (the reverse division fails).  Any check failing raises
    :class:`ChainVerificationError`; with a correct oracle it never fires.

    The elements come from the rewriting normalizer and the divisions from
    the group embedding, and the cofactor is checked by multiplying back
    with the rewriting normalizer.  Both read the canonical forms run by
    run, so each step costs O(1) at any k.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    cofactor_b = _normal_form([("b", 1)])
    chain: list[tuple[NormalForm, NormalForm]] = []
    elements = [_normal_form([("b", k), ("a", 2)]) for k in range(depth + 1)]
    for k in range(depth):
        g_k, g_next = elements[k], elements[k + 1]
        inclusion = left_quotient(g_next, g_k)
        if inclusion != cofactor_b:
            raise ChainVerificationError(f"expected cofactor b at step {k}, got {inclusion}")
        if multiply(g_next, inclusion) != g_k:
            raise ChainVerificationError(f"cofactor certificate failed at step {k}")
        if left_quotient(g_k, g_next) is not None:
            raise ChainVerificationError(f"chain not strict at step {k}")
    for element in elements:
        chain.append((element, cofactor_b))
    return AccpWitness(depth, tuple(chain))


@dataclass(frozen=True, slots=True)
class BPowerDivisibility:
    """Outcome of probing whether x is right-divisible by every power of b."""

    forever: bool
    exponent: int  # witness i with x = cofactor * a^2 * b^i, or the max n with x in M*b^n
    cofactor: Optional[NormalForm]
    probe: int


def divisible_by_all_b_powers(x: NormalForm, probe: Optional[int] = None) -> BPowerDivisibility:
    """Decide membership of x in every right ideal generated by a b-power.

    x lies in all of them iff x = u * a^2 * b^i for some i, because a^2
    absorbs matching b-powers on both sides; the certificate is verified by
    multiplication.  Since the b-count is additive, any such i is at most the
    b-count of x, so the default probe (b-count + 4) cannot miss a witness;
    the probe depth is still reported rather than silently trusted.  When no
    witness exists the result carries the largest n <= probe with x in M*b^n.

    Every division takes canonical forms, which the group embedding reads
    run by run, so the whole probe costs O((probe + 1) * runs of x).
    """
    if probe is None:
        probe = x.b_count + 4
    if probe < 0:
        raise ValueError("probe must be non-negative")
    for i in range(probe + 1):
        cofactor = right_quotient(x, NormalForm(0, ((2, i),), 0) if i else NormalForm(0, (), 2))
        if cofactor is not None:
            certified = multiply(multiply(cofactor, NormalForm(0, (), 2)), NormalForm(i, (), 0))
            if certified != x:
                raise ChainVerificationError("b-power certificate failed to multiply back")
            return BPowerDivisibility(True, i, cofactor, probe)
    for n in range(probe, -1, -1):
        if right_quotient(x, NormalForm(n, (), 0)) is not None:
            return BPowerDivisibility(False, n, None, probe)
    raise ChainVerificationError("element not divisible by b^0")  # pragma: no cover


def right_length_refutation_triples(bound: int) -> list[tuple[NormalForm, NormalForm, NormalForm]]:
    """Verified factorizations (whole, left, right) that defeat every claimed
    right length function on this monoid within ``bound`` steps.

    The family combines ``b^k = b^{k-1} * b``, ``b^n a^2 = b^n * a^2`` and
    ``a^2 = (b^n a^2) * b^n`` for n, k <= bound: any function passing the
    right-length contract on all of them would have to exceed its own value
    at ``a^2`` once n does.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    aa = _normal_form([("a", 2)])
    triples = []
    for n in range(1, bound + 1):
        b_n = NormalForm(n, (), 0)
        b_prev = NormalForm(n - 1, (), 0)
        bn_aa = _normal_form([("b", n), ("a", 2)])
        triples.append((b_n, b_prev, NormalForm(1, (), 0)))
        triples.append((bn_aa, b_n, aa))
        triples.append((aa, bn_aa, b_n))
    return triples


#: User-style length function candidates on the monoid, all doomed: the
#: monoid admits no right length function at all.
CANDIDATE_LENGTH_FUNCTIONS = {
    "word-length": lambda nf: nf.length,
    "a-count": lambda nf: nf.a_count,
    "a-plus-b-count": lambda nf: nf.a_count + nf.b_count,
}


def refute_right_length(evaluator):
    """Refute a claimed right length function on the monoid.

    Runs the right-length contract on the b-bordered triple family up to
    n = evaluator(a^2) + 1; a genuine right length function would force
    evaluator(a^2) > evaluator(b^n a^2) >= n there, which is impossible once
    n passes evaluator(a^2), so a violation must surface within the bound.
    Returns (report, bound).
    """
    from . import lengths

    aa = NormalForm(0, (), 2)
    bound = max(1, evaluator(aa) + 1)
    triples = right_length_refutation_triples(bound)
    spec = lengths.LengthFunctionSpec(
        evaluator, lengths.RIGHT, lambda nf: nf.is_identity(), "candidate"
    )
    report = lengths.check_contract(spec, triples, multiply, lambda x, y: x == y)
    return report, bound
