"""Measure one point of the benchmark's trajectory.

    python3 bench/trajectory.py [--out bench/trajectory/COMMIT.json]

For each workload it makes ten untraced runs, as ``run.py --trace 0`` would,
at seeds 1 to 10 and of ``run_seconds`` from ``BENCHMARK.json`` each, one
run at a time.  It reports each metric's median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the distance between the
quartiles as a share of the median, with the ten values.  The metrics are
the end-to-end ones and the unscaled ``raw.*`` times with
``host.speed_factor``, so the point can be related back to wall seconds.
Then it makes one traced run per workload at the default seed, for the
per-layer figures.  Any run that is not correct makes the exit code 1.
"""
from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from run import ROOT, measure
from workloads import DEFAULT_SEED, workloads

RUNS = 10


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    point = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": RUNS,
        "seconds": seconds,
        "end_to_end": {},
        "per_layer": {},
    }
    all_correct = True
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        for workload in workloads(DEFAULT_SEED):
            results = [measure(workload, seed, seconds, False, workdir) for seed in range(1, RUNS + 1)]
            all_correct &= not any(r["failures"] for r in results)
            metrics = {}
            for name, unit in results[0]["units"].items():
                metrics[name] = dict(summarize([r["metrics"][name] for r in results]), unit=unit)
                s = metrics[name]
                print(f"{workload:16} {name:17} median {s['median']:.4f} {unit:5}"
                      f" q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.2%}", flush=True)
            point["end_to_end"][workload] = {
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(len(r["failures"]) for r in results),
                "metrics": metrics,
            }
            traced = measure(workload, DEFAULT_SEED, seconds, True, workdir)
            all_correct &= not traced["failures"]
            point["per_layer"][workload] = traced["metrics"]
            print(f"{workload:16} trace.overhead {traced['metrics']['trace.overhead']:.3f}", flush=True)
            for failure in [f for r in [*results, traced] for f in r["failures"]][:10]:
                print(f"FAILED {failure}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
