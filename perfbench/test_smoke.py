"""Fast smoke test of the benchmark at tiny sizes.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Checks that every metric BENCHMARK.json names is emitted with its unit, that
no op fails, that per-layer counts repeat exactly for a seed, and that
another seed changes the inputs but not the set of metric names.  The traced
run's harness-share gate is not asserted here: at tiny sizes the tracer's
own bookkeeping is a large share of each short op.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from spans import Direct  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = 0.01


def quiet_benchmark(workload: str, seed: int, trace: int) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.benchmark(workload, seed, SECONDS, trace, tiny=True)


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


class SmokeTest(unittest.TestCase):
    def test_every_metric_emitted_with_its_unit_and_nothing_fails(self):
        want = {
            0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
        }
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = quiet_benchmark(workload, 1, trace)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(units(result), want[trace])

    def test_per_layer_counts_repeat_for_a_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (quiet_benchmark(workload, 3, 1) for _ in range(2))
                counts = [k for k, m in first["metrics"].items() if m["unit"] == "count"]
                self.assertTrue(any(first["metrics"][k]["value"] for k in counts))
                for k in counts:
                    self.assertEqual(first["metrics"][k]["value"], second["metrics"][k]["value"], k)

    def test_seed_changes_inputs_not_metric_names(self):
        lib = run.import_factorlab()
        for workload, build in WORKLOADS.items():
            with self.subTest(workload=workload):
                outputs = [
                    [repr(op.run(Direct())) for op in build(lib, run.round_rng(workload, seed, 0), True)]
                    for seed in (1, 2)
                ]
                self.assertEqual(len(outputs[0]), len(outputs[1]))
                self.assertNotEqual(outputs[0], outputs[1])
                names = [set(quiet_benchmark(workload, seed, 0)["metrics"]) for seed in (1, 2)]
                self.assertEqual(names[0], names[1])


if __name__ == "__main__":
    unittest.main()
