"""Run one revcat invocation in a fresh process and record its timings.

    PYTHONPATH=src python3 bench/invoke.py RECORD TRACE ARGV...

This does what ``python -m revcat.cli ARGV...`` does: import the CLI, call
``main(ARGV)`` and exit with its return code, letting an uncaught exception
print its traceback and exit 1.  It also writes a JSON record to RECORD:
``setup_s``, the time to import ``revcat.cli``; ``verdict_s``, the wall time
inside ``main``; ``peak_rss_mb``, the peak RSS; and, when TRACE is 1, the
per-layer totals of ``tracer``.
"""
import sys
from time import perf_counter


def _peak_rss_mb() -> float:
    """This process's peak RSS since exec (VmHWM).

    ``ru_maxrss`` is not used: it keeps the high-water mark of the process
    image replaced by exec, which here is the harness that spawned us.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run() -> int:
    record_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    start = perf_counter()
    from revcat.cli import main

    record = {"setup_s": perf_counter() - start}
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        main = tracer.install(main)
    begin = perf_counter()
    try:
        return main(argv)
    finally:
        record["verdict_s"] = perf_counter() - begin
        sys.stdout.flush()
        record["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            record["trace"] = tracer.summary()
        import json

        with open(record_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(run())
