"""One workload in one fresh interpreter; started by ``run.py``.

Prints one JSON line: when set-up ended (on the system-wide monotonic
clock, so the parent can subtract the moment it started this process),
and unless ``--setup-only``, what the timed passes measured and what the
verification found.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import amalgam

    if Path(amalgam.__file__).resolve().parent != SRC / "amalgam":
        print(f"amalgam imported from {amalgam.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    rates, cases, passes, cases_per_pass = [], 0, 0, 0
    best: list[float] = []
    if tracer:
        tracer.open_root()
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    while True:
        pass_start = time.perf_counter()
        result = workload.run_pass()
        now = time.perf_counter()
        passes += 1
        cases += result.cases
        cases_per_pass = max(cases_per_pass, result.cases)
        rates.append(result.cases / sum(result.calls))
        best = [min(pair) for pair in zip(best, result.calls)] if best else result.calls
        # Start another pass only if one more of the same length still ends
        # before the deadline, so a run never measures much past it.
        if now + (now - pass_start) > deadline:
            break
    wall = time.perf_counter() - loop_start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_layer = None
    if tracer:
        tracer.close_root()
        tracer.uninstall()
        per_layer = tracer.summary(passes, cases)
        tracer.write(args.workdir.parent / f"spans-{args.workload}.bin")

    verdict = workload.verify()
    latencies = {}
    for kind, values in getattr(workload, "latencies", {}).items():
        latencies[kind] = {
            "count": len(values),
            "p50_ms": 1e3 * tracing.percentile(values, 50),
            "p99_ms": 1e3 * tracing.percentile(values, 99),
        }
    print(json.dumps({
        "setup_end": setup_end,
        "passes": passes,
        "cases": cases,
        "wall_s": wall,
        # Every pass repeats the same calls, and interference from the
        # shared host only ever slows a call: time each call by its
        # fastest repetition.
        "cases_per_s": cases_per_pass / sum(best),
        "pass_rates": rates,
        "peak_rss_kb": peak_rss_kb,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "problems": verdict.problems,
        "latencies": latencies,
        "size": workload.size(),
        "per_layer": per_layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
