"""Command-line front end: every subsystem as a subcommand.

Exit codes: 0 on success, 1 when a property check finds a violation (for
``lenfn-check`` the violation is the expected demonstration, but the exit
code still reports that one was found), 2 on usage errors.  ``--json``
switches any subcommand to a machine-readable document.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from . import algebra, groups, growth, monoid, ore, pi_matrix
from .words import parse_word


def _emit(args, payload: dict[str, Any], text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _word(text: str):
    return parse_word(text, groups.ALPHABET)


def cmd_normalize(args) -> int:
    word = _word(args.word)
    nf = monoid.normalize(word)
    g = groups.embed(word)
    _emit(
        args,
        {"input": args.word, "normal_form": nf.display(), "group_element": g.display()},
        [nf.display()],
    )
    return 0


def cmd_equal(args) -> int:
    u, v = _word(args.left), _word(args.right)
    nu, nv = monoid.normalize(u), monoid.normalize(v)
    same = nu == nv
    _emit(
        args,
        {
            "left": args.left,
            "right": args.right,
            "equal": same,
            "normal_forms": [nu.display(), nv.display()],
        },
        [f"{'equal' if same else 'distinct'}: {nu.display()} vs {nv.display()}"],
    )
    return 0


def cmd_atom(args) -> int:
    verdict = monoid.is_atom(monoid.normalize(_word(args.word)))
    payload: dict[str, Any] = {"element": args.word, "verdict": verdict.kind}
    if verdict.split:
        payload["split"] = [part.display() for part in verdict.split]
        text = f"{verdict.kind}: {' * '.join(payload['split'])}"
    else:
        text = verdict.kind
    _emit(args, payload, [text])
    return 0


def cmd_lengths(args) -> int:
    report = monoid.length_set(monoid.normalize(_word(args.word)), args.cap)
    body = "{" + ",".join(str(n) for n in report.sorted_lengths()) + "}"
    _emit(
        args,
        {
            "element": report.element.display(),
            "cap": report.cap,
            "lengths": list(report.sorted_lengths()),
            "exhausted": report.exhausted,
        },
        [body, f"exhausted: {report.exhausted}"],
    )
    return 0


def cmd_accp(args) -> int:
    witness = monoid.verify_accp_failure(args.depth)
    lines = [
        f"strict ascending chain of principal right ideals, depth {witness.depth}:"
    ]
    for k in range(witness.depth):
        element, _ = witness.chain[k]
        nxt, cof = witness.chain[k + 1]
        lines.append(
            f"  {element.display()} = ({nxt.display()}) * {cof.display()};"
            f" reverse division fails"
        )
    _emit(
        args,
        {
            "depth": witness.depth,
            "chain": [element.display() for element, _ in witness.chain],
            "cofactor": witness.chain[1][1].display(),
            "certified": True,
        },
        lines,
    )
    return 0


def cmd_in_all_sbn(args) -> int:
    nf = monoid.normalize(_word(args.word))
    result = monoid.divisible_by_all_b_powers(nf, args.probe)
    if result.forever:
        text = (
            f"yes: {nf.display()} = ({result.cofactor.display()}) * a^2 * b^{result.exponent}"
            f" (probe {result.probe})"
        )
    else:
        text = f"no: largest n with membership is {result.exponent} (probe {result.probe})"
    _emit(
        args,
        {
            "element": nf.display(),
            "probe": result.probe,
            "forever": result.forever,
            "exponent": result.exponent,
            "cofactor": result.cofactor.display() if result.cofactor else None,
        },
        [text],
    )
    return 0


def cmd_alg(args) -> int:
    field = algebra.Field.prime(args.char) if args.char else algebra.Field.rationals()
    lhs = algebra.parse_element(args.lhs, field)
    payload: dict[str, Any] = {"op": args.op, "lhs": lhs.display()}
    if args.op in ("add", "mul", "divides") and args.rhs is None:
        raise ValueError(f"operation {args.op!r} needs a second element (rhs)")
    if args.op == "deg":
        d = algebra.deg_a(lhs)
        payload["deg_a"] = None if d == algebra.NEG_INF else d
        _emit(args, payload, [str(d)])  # -inf for zero, as deg_a names it
        return 0
    rhs = algebra.parse_element(args.rhs, field) if args.rhs is not None else None
    if args.op == "add":
        result = algebra.alg_add(lhs, rhs)
    elif args.op == "mul":
        result = algebra.alg_mul(lhs, rhs)
    else:
        division = algebra.divides_right(lhs, rhs, args.cap)
        payload.update(
            {
                "rhs": rhs.display(),
                "status": division.status,
                "cofactor": division.cofactor.display() if division.cofactor else None,
            }
        )
        text = division.status + (
            f": {division.cofactor.display()}" if division.cofactor is not None else ""
        )
        _emit(args, payload, [text])
        return 0
    payload["rhs"] = rhs.display()
    payload["result"] = result.display()
    _emit(args, payload, [result.display()])
    return 0


def cmd_growth(args) -> int:
    table = growth.builtin_table(args.family, args.n_max, args.budget)
    hint = None
    if len([d for _, d in table.entries if d > 0]) >= 8:
        hint = growth.classify(table)
    payload: dict[str, Any] = {
        "family": args.family,
        "frame": table.frame,
        "entries": [[n, d] for n, d in table.entries],
        "truncated_at": table.truncated_at,
        "classification": None
        if hint is None
        else {"kind": hint.kind, "degree": hint.degree, "ratio": hint.ratio},
    }
    if args.gnuplot:
        text = table.columns().splitlines()
    else:
        text = table.csv().splitlines()
    if hint is not None:
        text.append(f"# hint: {hint.display()}")
    _emit(args, payload, text)
    return 0


def cmd_skew_check(args) -> int:
    result = ore.check_skew_laws(args.config, args.pairs, args.seed)
    payload = {
        "config": result.configuration,
        "pairs": result.trials,
        "seed": args.seed,
        "right_length_violations": result.right_length_violations,
        "leading_law_violations": result.leading_law_violations,
        "base_weight": "y-degree (upper-bound surrogate for max factorization length)",
        "ok": result.ok(),
    }
    _emit(
        args,
        payload,
        [
            f"config {result.configuration}: {result.trials} pairs,"
            f" {result.right_length_violations} right-length violations,"
            f" {result.leading_law_violations} leading-law violations"
            f" (base weight: y-degree surrogate)"
        ],
    )
    return 0 if result.ok() else 1


def cmd_filt_check(args) -> int:
    trials, bad = ore.check_filtration_additivity(args.pairs, args.seed)
    _emit(
        args,
        {"pairs": trials, "seed": args.seed, "violations": bad, "ok": bad == 0},
        [f"total-degree additivity on {trials} Weyl pairs: {bad} violations"],
    )
    return 0 if bad == 0 else 1


def cmd_lenfn_check(args) -> int:
    evaluator = monoid.CANDIDATE_LENGTH_FUNCTIONS[args.candidate]
    report, bound = monoid.refute_right_length(evaluator)
    refuted = not report.ok()
    payload = {
        "candidate": args.candidate,
        "bound": bound,
        "refuted": refuted,
        "report": report.as_dict(lambda nf: nf.display()),
    }
    lines = [
        f"candidate {args.candidate!r}: searched b-bordered triples up to n = {bound}",
        "refuted: a right length function cannot exist on this monoid"
        if refuted
        else "no violation found (unexpected)",
    ]
    for v in report.violations[:3]:
        lines.append(
            f"  {v.whole.display()} = ({v.left.display()}) * ({v.right.display()}):"
            f" {v.value_whole} vs {v.value_left}"
        )
    _emit(args, payload, lines)
    return 1 if refuted else 0


def cmd_pi_demo(args) -> int:
    start = pi_matrix.parse_matrix(args.matrix) if args.matrix else pi_matrix.demo_matrix()
    steps = list(pi_matrix.peel_chain(start, args.steps))
    lines = [f"A = {start.display()}"]
    for step in steps:
        lines.append(f"  step {step.index}: A = diag(1, y)^{step.index} * {step.remainder.display()}")
    lines.append(f"all {len(steps)} steps certified (membership, shape, det != 0, nonunit cofactor)")
    _emit(
        args,
        {
            "steps": len(steps),
            "start": start.display(),
            "final": steps[-1].remainder.display(),
            "ok": True,
        },
        lines,
    )
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: ``parse_args``
    does not change it, and building it costs more than most commands."""
    parser = argparse.ArgumentParser(
        prog="factorlab",
        description="factorization laboratory for a two-relator monoid, its algebra, "
        "skew polynomial rings, growth tables, and a matrix counterexample",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("normalize", help="canonical form of a word (e.g. 'b a a b')")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("equal", help="decide equality of two words in the monoid")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("atom", help="unit / atom / composite with a witness split")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=cmd_atom)

    p = sub.add_parser("lengths", help="factorization lengths up to a cap")
    p.add_argument("word")
    p.add_argument("--cap", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_lengths)

    p = sub.add_parser("accp", help="certify the strict ascending principal ideal chain")
    p.add_argument("--depth", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_accp)

    p = sub.add_parser("in-all-sbn", help="membership in every right ideal of a b-power")
    p.add_argument("word")
    p.add_argument("--probe", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_in_all_sbn)

    p = sub.add_parser("alg", help="monoid algebra arithmetic and division probe")
    p.add_argument("op", choices=("add", "mul", "deg", "divides"))
    p.add_argument("lhs", help="element literal, e.g. '3/2 * b^2 a^1 + -1 * e'")
    p.add_argument("rhs", nargs="?", default=None)
    p.add_argument("--cap", type=int, default=6, help="cofactor support cap for divides")
    p.add_argument("--char", type=int, default=None, help="prime characteristic (default: rationals)")
    common(p)
    p.set_defaults(func=cmd_alg)

    p = sub.add_parser("growth", help="frame growth table dim V^n")
    p.add_argument("--family", choices=("free", "free-commutative", "two-relator"), required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--budget", type=int, default=growth.DEFAULT_BUDGET)
    p.add_argument("--gnuplot", action="store_true", help="space-separated columns instead of CSV")
    common(p)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("skew-check", help="randomized right-length and leading-law audit")
    p.add_argument("--config", default="weyl", help="weyl | qplane:q=Q | qtorus:q=Q")
    p.add_argument("--pairs", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_skew_check)

    p = sub.add_parser("filt-check", help="total-degree additivity audit (Weyl algebra)")
    p.add_argument("--pairs", type=_positive_int, default=500)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_filt_check)

    p = sub.add_parser("lenfn-check", help="refute a candidate right length function")
    p.add_argument(
        "--candidate",
        choices=tuple(monoid.CANDIDATE_LENGTH_FUNCTIONS),
        default="word-length",
    )
    common(p)
    p.set_defaults(func=cmd_lenfn_check)

    p = sub.add_parser("pi-demo", help="peeling chain in the matrix counterexample")
    p.add_argument("--steps", type=int, default=25)
    p.add_argument("--matrix", default=None, help="four ';'-separated entries in x, y, y^-1")
    common(p)
    p.set_defaults(func=cmd_pi_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, monoid.ChainVerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
