"""Executable contract for right length functions on a monoid.

A *right length function* satisfies lambda(a) > lambda(b) whenever a = b*c
with c a nonunit.  It bounds the number of atoms in a factorization: a
product of k nonunits has value at least k, so max factorization
length <= lambda.

The harness is host-agnostic: callers hand over factorization triples
(whole, left, right) together with the host's multiplication and equality,
and every triple is re-verified before the contract is evaluated.  The
harness never invents factorizations of its own.

Every report is about the right-length contract, and every violation breaks
it the one way it can break (no strict drop against a nonunit right
factor), so :meth:`ViolationReport.as_dict` prints its ``contract`` and
``reason`` keys as fixed text and the report stores neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

RIGHT = "right"


@dataclass(frozen=True)
class LengthFunctionSpec:
    evaluator: Callable[[Any], int]
    flavor: str
    is_unit: Callable[[Any], bool]
    name: str = "lambda"

    def __post_init__(self) -> None:
        if self.flavor != RIGHT:
            raise ValueError(f"flavor must be {RIGHT!r}: {self.flavor!r}")


@dataclass(frozen=True)
class Violation:
    whole: Any
    left: Any
    right: Any
    value_whole: int
    value_left: int
    value_right: int


@dataclass(frozen=True)
class ViolationReport:
    sample_size: int
    violations: tuple[Violation, ...]

    def ok(self) -> bool:
        return not self.violations

    def as_dict(self, describe: Callable[[Any], str]) -> dict[str, Any]:
        """The report as plain data, each element shown by ``describe``."""
        return {
            "contract": RIGHT,
            "samples": self.sample_size,
            "violations": [
                {
                    "a": describe(v.whole),
                    "b": describe(v.left),
                    "c": describe(v.right),
                    "lambda_a": v.value_whole,
                    "lambda_b": v.value_left,
                    "lambda_c": v.value_right,
                    "reason": "no strict drop against right factor",
                }
                for v in self.violations
            ],
        }


def check_contract(
    spec: LengthFunctionSpec,
    samples: Sequence[tuple[Any, Any, Any]],
    multiply: Callable[[Any, Any], Any],
    equals: Callable[[Any, Any], bool],
) -> ViolationReport:
    """Evaluate the right-length contract on verified factorization triples.

    Each sample (whole, left, right) must satisfy whole = left * right in the
    host structure; a failing triple is an input error, not a violation.
    """
    violations: list[Violation] = []
    for whole, left, right in samples:
        if not equals(whole, multiply(left, right)):
            raise ValueError("sample triple is not a factorization in the host structure")
        lam_w = spec.evaluator(whole)
        lam_l = spec.evaluator(left)
        lam_r = spec.evaluator(right)
        if min(lam_w, lam_l, lam_r) < 0:
            raise ValueError("length function values must be non-negative")
        if not spec.is_unit(right) and lam_w <= lam_l:
            violations.append(Violation(whole, left, right, lam_w, lam_l, lam_r))
    return ViolationReport(len(samples), tuple(violations))
