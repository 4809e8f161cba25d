"""Repeat benchmark runs over seeds and summarise the spread of every metric.

    python3 bench/collect.py [--out bench/baseline.json]

Run from the root of a checkout.  For every workload in BENCHMARK.json it
makes one untraced run for each of the seeds 1 to 10 and one traced run on
seed 1, all at BENCHMARK.json's `run_seconds`.  It prints per end-to-end
metric the median, the quartiles as `statistics.quantiles(n=4)` gives them,
and the spread (q3 - q1) / median next to the metric's bound.  --out writes
the same summary, the raw values, the traced run's per-layer metrics and
the environment (core count, Python and NumPy versions, BLAS thread
settings the children inherit, the reference time timings are scaled to)
as JSON; a second set written elsewhere can be compared with the committed
baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

OMITTED = (
    "n = 11 and 13 for correlate and eigencheck: the dense state path needs GiBs "
    "(26 qubits x 16 B per amplitude per array); adding them is its own change"
)
SEEDS = range(1, 11)


def bench_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def environment() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": run.BLAS_THREADS,
        "reference_s": run.REFERENCE_S,
        "omitted": OMITTED,
    }


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary: dict = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    worst = (0.0, "")
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench_once(workload, seed, seconds, 0) for seed in SEEDS]
        entry: dict = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        print(f"{workload}: {entry['failed']} of {entry['attempted']} commands failed")
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = stats
            ratio = stats["spread"] / bound
            worst = max(worst, (ratio, f"{name} on {workload}"))
            print(f"  {name:<18} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} "
                  f"(bound {bound}, {ratio:.2f} of it)")
        traced = bench_once(workload, SEEDS[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    print(f"largest spread: {worst[0]:.2f} of its bound, {worst[1]}")
    if args.out:
        summary["environment"] = environment()
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
