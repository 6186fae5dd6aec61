"""factorlab benchmark: one workload, closed loop, one caller, one process.

    python3 perfbench/run.py --workload words-long --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Set-up imports factorlab, generates the first round of inputs and
runs a small warm-up round.  The run then executes whole rounds of ops until
``--seconds`` have passed, each op waiting for the previous one, and checks
every answer against an independent computation.  Untraced runs repeat the
set-up between rounds, up to ``SETUPS`` times in all, and report the median.

``--trace 0`` measures fresh rounds untraced and reports the end-to-end
metrics.  ``--trace 1`` replays round 0 in alternating untraced and traced
passes, records a span around every library call, writes the spans to
``.perfbench-out/`` and reports per-layer metrics per pass, plus the tracing
overhead.  Human-readable lines come first; the last line of standard output
is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Direct, Layers, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MODULES = ("words", "groups", "monoid", "algebra", "lengths", "growth", "ore", "xy_poly", "pi_matrix", "cli")
#: Set-ups per untraced run, spread evenly over its measured time so that
#: setup_s, like the op timings, averages over the machine's changing speed
#: rather than catching one moment of it; the median is reported.
SETUPS = 21
#: The tail latency is the one with this many samples above it.
TAIL_BEYOND = 10
#: Largest share of the traced time in ops that may fall outside every
#: library span (the ops' own glue code and the tracer's bookkeeping); above
#: it, the per-layer numbers no longer account for the end-to-end time.
HARNESS_SHARE = 0.01

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER_UNITS = {
    "calls": "count",
    "letters": "count",
    "steps": "count",
    "monoid_products": "count",
    "violations": "count",
    "exit_mismatch": "count",
    "busy_s": "s",
    "self_s": "s",
    "us_per_letter": "us/letter",
    "loglog_slope": "exponent",
    "exhausted_ratio": "ratio",
    "decided_ratio": "ratio",
    "overhead_frac": "ratio",
}


def import_factorlab() -> SimpleNamespace:
    """Import every factorlab module afresh from ``src/``."""
    for name in [n for n in sys.modules if n == "factorlab" or n.startswith("factorlab.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"factorlab.{m}") for m in MODULES})
    if not Path(lib.words.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"factorlab was imported from {lib.words.__file__}, not from {SRC}")
    return lib


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


class Tally:
    """Runs ops, times each one, checks it, and counts failures."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, ops, t, timed: bool = True) -> float:
        """Run the ops through ``t``; return the time spent inside them."""
        total = 0.0
        for op in ops:
            t.op_id = self.attempted
            self.attempted += 1
            error = None
            start = perf_counter()
            try:
                result = t.call("op", op.run, t, tag=op.kind)
            except Exception as exc:  # a raising op is a failed op, never a crashed run
                error = f"{op.kind} raised {exc!r}"
            elapsed = perf_counter() - start
            total += elapsed
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"{op.kind} check raised {exc!r}"
            if error is not None:
                self.failed += 1
                self.errors.append(error)
            if timed:
                self.latencies.append(elapsed)
        return total


def set_up(name: str, seed: int, tally: Tally, tiny: bool):
    """Import, build round 0 and warm up; return (lib, round 0, seconds)."""
    workload = WORKLOADS[name]
    gc.collect()  # start from a heap without an earlier set-up's garbage
    start = perf_counter()
    lib = import_factorlab()
    ops = workload(lib, round_rng(name, seed, 0), tiny)
    # the warm-up inputs are the same for every seed, so that set-up time
    # varies with the seed only through round 0
    tally.run(workload(lib, random.Random(f"{name}/warm-up"), True), Direct(), timed=False)
    return lib, ops, perf_counter() - start


def measure(name: str, seed: int, seconds: float, tally: Tally, lib, ops, first_setup: float,
            tiny: bool) -> dict:
    """Untraced closed loop over fresh rounds; the end-to-end metrics.

    Rounds run until ``seconds`` have passed, not counting repeated
    set-ups.  After a round, the set-up is repeated once for each multiple
    of ``seconds / SETUPS`` passed since the last one, and the following
    rounds use the library it imported (factorlab imports some of
    its modules at call time, so old and new modules must not mix)."""
    workload = WORKLOADS[name]
    direct = Direct()
    round_times = []
    setup_times = [first_setup]
    start = perf_counter()
    while True:
        round_times.append(tally.run(ops, direct))
        elapsed = perf_counter() - start - sum(setup_times[1:])
        if elapsed >= seconds:
            break
        while elapsed >= len(setup_times) * seconds / SETUPS:
            lib, _, setup = set_up(name, seed, tally, tiny)
            setup_times.append(setup)
        ops = workload(lib, round_rng(name, seed, len(round_times)), tiny)
    lat = sorted(tally.latencies)
    n = len(lat)
    tail_index = max(n - 1 - TAIL_BEYOND, 0)
    print(f"rounds: {len(round_times)} of {len(ops)} ops, time in ops: {sum(round_times):.3f} s")
    print(f"op_p50_ms over {n} samples; op_tail_ms is p{100 * tail_index / max(n - 1, 1):.1f}"
          f" ({n - 1 - tail_index} samples beyond it); setup_s over {len(setup_times)} set-ups")
    return {
        "ops_per_s": n / sum(round_times),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[tail_index] * 1e3,
        "setup_s": statistics.median(setup_times),
    }


def measure_traced(name: str, seed: int, seconds: float, tally: Tally, ops) -> tuple[dict, bool]:
    """Replay round 0 in alternating untraced and traced passes; per-layer
    metrics per traced pass, and whether the library spans cover all but
    ``HARNESS_SHARE`` of the traced time in ops."""
    tracer, direct = Tracer(), Direct()
    spent = {id(tracer): 0.0, id(direct): 0.0}
    passes = 0
    start = perf_counter()
    while True:
        for t in (direct, tracer) if passes % 2 == 0 else (tracer, direct):
            spent[id(t)] += tally.run(ops, t)
        passes += 1
        if perf_counter() - start >= seconds:
            break
    traced, plain = spent[id(tracer)], spent[id(direct)]
    layers = Layers(tracer)
    harness = layers.module_self["op"]
    covered = harness <= HARNESS_SHARE * traced
    print(f"passes: {passes} untraced + {passes} traced, {len(ops)} ops each")
    print(f"traced time in ops {traced:.6f} s, of which the benchmark's own code inside the ops"
          f" {harness:.6f} s ({harness / traced:.2%}; at most {HARNESS_SHARE:.0%} allowed)")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(path)
    print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    metrics = per_layer(layers, tracer.notes, passes)
    metrics["trace.overhead_frac"] = traced / plain - 1
    return metrics, covered


def per_layer(layers: Layers, notes: dict, passes: int) -> dict:
    """Per-layer metrics, per pass over round 0.  Layers a workload never
    reaches read 0 (and a slope needs at least two sizes)."""
    calls = {k: v / passes for k, v in layers.calls.items()}
    busy = {k: v / passes for k, v in layers.busy.items()}
    note = {k: v / passes for k, v in notes.items()}
    m: dict = {}

    def put(name, with_calls=False):
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
        if with_calls:
            m[f"{name}.calls"] = calls.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    put("words.parse_word", with_calls=True)
    put("groups.embed", with_calls=True)
    for name in ("groups.parse_membership", "groups.g_mul", "groups.left_quotient"):
        put(name)
    put("monoid.normalize", with_calls=True)
    letters = note.get("monoid.normalize.letters", 0)
    m["monoid.normalize.letters"] = letters
    m["monoid.normalize.us_per_letter"] = ratio(busy.get("monoid.normalize", 0) * 1e6, letters)
    m["monoid.normalize.loglog_slope"] = layers.slope("monoid.normalize")
    put("monoid.multiply", with_calls=True)
    put("monoid.verify_accp_failure")
    m["monoid.verify_accp_failure.loglog_slope"] = layers.slope("monoid.verify_accp_failure")
    put("monoid.length_set")
    m["monoid.length_set.exhausted_ratio"] = ratio(
        note.get("monoid.length_set.exhausted", 0), calls.get("monoid.length_set", 0))
    put("monoid.divisible_by_all_b_powers")
    put("algebra.alg_mul", with_calls=True)
    m["algebra.alg_mul.monoid_products"] = note.get("algebra.alg_mul.monoid_products", 0)
    put("algebra.divides_right", with_calls=True)
    for field in ("Q", "Fp"):
        put(f"algebra.divides_right.{field}")
    m["algebra.divides_right.decided_ratio"] = ratio(
        note.get("algebra.divides_right.decided", 0), calls.get("algebra.divides_right", 0))
    m["algebra.divides_right.loglog_slope"] = layers.slope("algebra.divides_right")
    put("lengths.check_contract", with_calls=True)
    m["lengths.check_contract.violations"] = note.get("lengths.check_contract.violations", 0)
    for family in ("free", "two-relator", "free-commutative"):
        put(f"growth.builtin_table.{family}")
    put("growth.two_relator_table_by_oracle")
    put("growth.classify")
    for config in ("weyl", "qplane", "qtorus"):
        put(f"ore.check_skew_laws.{config}")
    put("ore.check_filtration_additivity")
    put("ore.ore_mul")
    m["ore.ore_mul.loglog_slope"] = layers.slope("ore.ore_mul")
    put("xy_poly.parse_laurent_poly")
    put("pi_matrix.peel_chain")
    m["pi_matrix.peel_chain.steps"] = note.get("pi_matrix.peel_chain.steps", 0)
    m["pi_matrix.peel_chain.loglog_slope"] = layers.slope("pi_matrix.peel_chain")
    put("pi_matrix.power")
    put("cli.main", with_calls=True)
    m["cli.main.exit_mismatch"] = note.get("cli.main.exit_mismatch", 0)
    for module in MODULES:
        m[f"{module}.self_s"] = layers.module_self.get(module, 0.0) / passes
    m["harness.self_s"] = layers.module_self.get("op", 0.0) / passes
    return m


def unit_of(metric: str) -> str:
    return PER_LAYER_UNITS[metric.rsplit(".", 1)[1]]


def benchmark(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """Set up, measure and check one workload; print the human-readable
    report and return the result object.  ``tiny`` runs the warm-up sizes
    throughout, for the smoke test."""
    print(f"workload {workload}, seed {seed}, {seconds:g} s, trace {trace}")
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, load average {os.getloadavg()[0]:.2f}")
    tally = Tally()
    lib, ops, first_setup = set_up(workload, seed, tally, tiny)
    covered = True
    if trace:
        values, covered = measure_traced(workload, seed, seconds, tally, ops)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        values = measure(workload, seed, seconds, tally, lib, ops, first_setup, tiny)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    for k, v in metrics.items():
        print(f"  {k:<45} {v['value']:.6g} {v['unit']}")
    print(f"  {'failed_frac':<45} {tally.failed / tally.attempted:.6g} ratio"
          f" ({tally.failed} of {tally.attempted} ops, warm-up ops included)")
    for error in tally.errors[:5]:
        print(f"FAILED: {error}")
    return {
        "correct": tally.failed == 0 and covered,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "factorlab" / "__init__.py").is_file():
        print(f"error: no factorlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(benchmark(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
