"""Run every workload over several seeds and record the results with their
environment, medians and quartile spreads.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

Each seed gives one untraced run per workload (``run.py --trace 0``); the
first seed also gives one traced run.  Every run measures for the
``run_seconds`` of BENCHMARK.json.  Each run's result object is kept with
its human-readable report lines, which give the sample counts and the tail
percentile.  The spread of a metric is the
distance between the first and third quartile of its values, as
``statistics.quantiles(values, n=4)`` gives them, divided by their median.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of run.py: {"seed", "result", "report"}."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}: {done.stderr}")
    *report, last = done.stdout.strip().splitlines()
    return {"seed": seed, "result": json.loads(last), "report": report}


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return summary


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="a range of at least two seeds, such as 1-10")
    parser.add_argument("--out", type=Path, default=None, help="JSON file to write")
    args = parser.parse_args()
    seeds = seed_range(args.seeds)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    record = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_average_at_start": os.getloadavg(),
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        traced = run_once(workload, seeds[0], seconds, 1)
        summary = summarize([r["result"] for r in runs])
        record["workloads"][workload] = {"runs": runs, "summary": summary, "traced": traced}
        results = [r["result"] for r in runs + [traced]]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(workload, "correct" if all(r["correct"] for r in results) else "INCORRECT")
        for name, s in summary.items():
            print(f"  {name:<12} median {s['median']:.6g} {s['unit']},"
                  f" quartiles {s['q1']:.6g} .. {s['q3']:.6g}, spread {s['spread']:.4f}")
        print(f"  failed_frac  {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
        print(f"  traced run, seed {seeds[0]}:")
        for name, m in traced["result"]["metrics"].items():
            print(f"    {name:<45} {m['value']:.6g} {m['unit']}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
