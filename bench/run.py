"""End-to-end benchmark of the revcat CLI, one fresh process per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; ``src`` goes on ``PYTHONPATH``.  A
workload is a fixed list of ``revcat`` argv lists (see ``workloads.py``).
The harness runs them one process at a time, pass after pass, until the next
pass would end after ``--seconds``; each process is ``invoke.py``, which runs
``revcat.cli.main`` as ``python -m revcat.cli`` would.  Before the timed
passes it runs the untimed ``add`` oracle invocations.

With ``--trace 0`` it reports, as medians over passes:

- ``verdict_s``: wall time inside ``main(argv)``, summed over a pass;
- ``setup_s``: time to import ``revcat.cli`` (median over invocations);
- ``process_s``: spawn-to-exit wall time, summed over a pass;
- ``peak_rss_mb``: the largest peak RSS of any process in a pass.

The three times are rescaled by the pass's host speed factor: REFERENCE_S
over the mean time ``reference_s`` takes before each invocation of the pass
and after its last.  The unscaled medians and the factor are printed as
``raw.*`` and ``host.speed_factor``.

With ``--trace 1`` untraced and traced passes alternate, and it reports the
per-layer metrics of ``tracer.py`` (low medians over traced passes) and
``trace.overhead``, the traced ``verdict_s`` over the untraced one, the
time of the tracer's count hooks left out.

The exit code is 0 only when every invocation passed its checks.

Every invocation is checked: exit code 0, no traceback, the oracles of
``workloads.py``, and, when traced, that the traced check and skip counts
equal those in the JSON document.  Human-readable lines, including
``failed_share``, go first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Optional

import tracer
from workloads import DEFAULT_SEED, GOLDEN, Invocation, oracle_invocations, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = [("verdict_s", "s"), ("setup_s", "s"), ("process_s", "s"), ("peak_rss_mb", "MiB")]
# A nominal host speed: time metrics are rescaled to a host on which
# ``reference_s`` takes this long.  The trajectory records each run's factor
# (``host.speed_factor``) with the unscaled times, so its points can be
# turned back into wall seconds.
REFERENCE_S = 0.2


def reference_s() -> float:
    """Time a fixed piece of pure-Python work, to gauge the host's current speed.

    On a shared host the speed of the same invocation drifts by tens of
    percent over minutes; timing this next to each pass lets the harness
    take that drift out of the time metrics.
    """
    start = perf_counter()
    table: dict = {}
    for i in range(900_000):
        key = (i & 1023, i & 15)
        table[key] = table.get(key, 0) + (i ^ 0x55)
    return perf_counter() - start


class Harness:
    """Spawns invocations one at a time and keeps the failure tally."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, inv: Invocation, traced: bool = False) -> Optional[dict]:
        """Run ``inv`` in a fresh process; return its measurements.

        Returns None when the process left no timing record.
        """
        out, err, rec = (self.workdir / n for n in ("stdout", "stderr", "record.json"))
        rec.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "invoke.py"), str(rec), str(int(traced)), *inv.argv]
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            start = perf_counter()
            proc = subprocess.Popen(command, cwd=ROOT, env=self.env, stdout=stdout, stderr=stderr)
            try:
                _, status, _ = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            process_s = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1

        record = json.loads(rec.read_text(encoding="utf-8")) if rec.exists() else None
        problems = self._problems(inv, proc.returncode, out.read_bytes(), err.read_text(errors="replace"), record)
        if problems:
            self.failures.append(f"{' '.join(inv.argv)}: {'; '.join(problems)}")
        if record is None:
            return None
        record["process_s"] = process_s
        return record

    @staticmethod
    def _problems(inv: Invocation, code: int, stdout: bytes, stderr: str, record) -> list[str]:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if "Traceback" in stderr:
            problems.append("traceback: " + stderr.strip().splitlines()[-1])
        if record is None:
            problems.append("no timing record")
        try:
            doc = json.loads(stdout)
        except ValueError:
            return problems + ["stdout is not one JSON document"]
        problems += inv.check(doc)
        if inv.golden and stdout != (GOLDEN / inv.golden).read_bytes():
            problems.append(f"output differs from golden {inv.golden}")
        if record is not None and "trace" in record:
            problems += _trace_self_check(inv, doc, record["trace"])
        return problems


def _trace_self_check(inv: Invocation, doc: dict, summary: dict) -> list[str]:
    """Traced counts must equal the counts the same invocation reports."""
    reports = list(doc["suites"].values()) if "suites" in doc else [doc["report"]]
    problems = []
    for kind, span in (("checked", "report.check"), ("skipped", "report.skip")):
        want = sum(r[kind] for r in reports)
        got = summary["calls"].get(span, 0)
        if got != want:
            problems.append(f"trace self-check: {span}.calls {got} != {kind} {want}")
    if inv.dagger_calls is not None:
        got = summary["calls"].get("cat.dagger", 0)
        if got != inv.dagger_calls:
            problems.append(f"trace self-check: cat.dagger.calls {got} != {inv.dagger_calls}")
    return problems


def measure(name: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    invocations = workloads(seed)[name]
    harness = Harness(workdir)
    for inv in oracle_invocations(seed):
        harness.invoke(inv)

    # A reference sample is taken before each untraced invocation and
    # after the last one of a pass; the pass's speed factor is REFERENCE_S
    # over their mean.  The host's speed changes within seconds, so samples
    # only at the ends of a pass track it poorly.
    plain: list[tuple[list, float]] = []
    with_trace: list[list] = []
    start = perf_counter()
    sample = reference_s()
    while True:
        begun = perf_counter()
        records, samples = [], [sample]
        for inv in invocations:
            records.append(harness.invoke(inv))
            samples.append(reference_s())
        plain.append((records, REFERENCE_S / statistics.fmean(samples)))
        sample = samples[-1]
        if traced:
            with_trace.append([harness.invoke(inv, traced=True) for inv in invocations])
        now = perf_counter()
        if now - start + (now - begun) > seconds:
            break

    plain = [(p, factor) for p, factor in plain if None not in p]
    with_trace = [p for p in with_trace if None not in p]
    if not plain or (traced and not with_trace):
        raise SystemExit(f"error: no complete pass of {name}:\n" + "\n".join(harness.failures[:5]))
    raw_verdict = statistics.median(sum(m["verdict_s"] for m in p) for p, _ in plain)
    metrics = {
        "verdict_s": statistics.median(f * sum(m["verdict_s"] for m in p) for p, f in plain),
        "setup_s": statistics.median(f * m["setup_s"] for p, f in plain for m in p),
        "process_s": statistics.median(f * sum(m["process_s"] for m in p) for p, f in plain),
        "peak_rss_mb": statistics.median(max(m["peak_rss_mb"] for m in p) for p, _ in plain),
        "raw.verdict_s": raw_verdict,
        "raw.setup_s": statistics.median(m["setup_s"] for p, _ in plain for m in p),
        "raw.process_s": statistics.median(sum(m["process_s"] for m in p) for p, _ in plain),
        "host.speed_factor": statistics.median(f for _, f in plain),
    }
    units = dict(END_TO_END, **{"raw.verdict_s": "s", "raw.setup_s": "s", "raw.process_s": "s",
                                "host.speed_factor": "ratio"})
    if traced:
        layers = [tracer.layer_metrics(tracer.merge_summaries([m["trace"] for m in p])) for p in with_trace]
        # median_low reports a measured pass, so counts stay whole numbers.
        metrics.update({metric: statistics.median_low(layer[metric] for layer in layers) for metric in layers[0]})
        # Both sides are raw wall times from the same run; the time of the
        # tracer's count hooks is left out, as it is of every span.
        traced_verdict = statistics.median(
            sum(m["verdict_s"] - m["trace"]["self_s"].get("trace.hooks", 0.0) for m in p) for p in with_trace
        )
        metrics["trace.overhead"] = traced_verdict / raw_verdict
        units.update(tracer.LAYER_METRICS, **{"trace.overhead": "ratio"})
    return {
        "workload": name,
        "seed": seed,
        "passes": len(plain),
        "traced_passes": len(with_trace),
        "attempted": harness.attempted,
        "failures": harness.failures,
        "metrics": metrics,
        "units": units,
    }


def _describe(result: dict) -> list[str]:
    failed = len(result["failures"])
    lines = [
        f"workload {result['workload']} seed {result['seed']}: {result['passes']} passes"
        f" ({result['traced_passes']} traced), {result['attempted']} invocations, {failed} failed",
        f"  {'failed_share':28} {failed / result['attempted']:.6g} ratio",
    ]
    for metric, value in result["metrics"].items():
        lines.append(f"  {metric:28} {value:.6g} {result['units'][metric]}")
    lines += [f"  FAILED {failure}" for failure in result["failures"][:10]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads(DEFAULT_SEED), "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so the running invocation is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "revcat" / "cli.py").is_file():
        print(f"error: no revcat source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads(args.seed)) if args.workload == "all" else [args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        results = [measure(n, args.seed, args.seconds, bool(args.trace), workdir) for n in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for result in results:
        print("\n".join(_describe(result)))
    if args.workload == "all":
        return 0 if not any(r["failures"] for r in results) else 1

    (result,) = results
    keep = [m for m, _ in END_TO_END] if not args.trace else [*dict(tracer.LAYER_METRICS), "trace.overhead"]
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m: {"value": result["metrics"][m], "unit": result["units"][m]} for m in keep},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
