#!/usr/bin/env python3
"""Benchmark amalgam on one workload; see perfbench/README.md.

    python3 perfbench/run.py --workload reduction --seed 0 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics, measured untraced;
with ``--trace 1`` the per-layer metrics of a separate traced run.  It
prints one row per metric (metric, unit, workload, value), a provenance
line, and last a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full result, provenance included, also goes to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("equivalence", "properties", "reduction", "cli-mix")

# Set-up is sampled in this many fresh interpreters per run (the measured
# run's own set-up included) and reported as their median.
SETUP_SAMPLES = 5
# A workload run must end well inside the 180 s a benchmark run may take.
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "cases_per_s": "1/s"}


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args: argparse.Namespace, size: dict) -> dict:
    src_digest = _digest(list(SRC.rglob("*.py")))
    bench_digest = _digest([p for p in HERE.rglob("*.py") if "out" not in p.parts])
    machine = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }
    key = hashlib.sha256(
        json.dumps([machine, src_digest, bench_digest], sort_keys=True).encode()
    ).hexdigest()[:16]
    return {
        **machine,
        "commit": _commit(),
        "source_sha256": src_digest,
        "benchmark_sha256": bench_digest,
        "compare_key": key,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "size": size,
    }


def _worker(args: argparse.Namespace, workdir: Path, setup_only: bool) -> tuple[dict, float]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # A fixed hash seed per workload seed: set iteration order, and so the
    # work inside a pass, repeats from run to run.
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["setup_end"] - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "amalgam" / "__init__.py").is_file():
        print(f"no amalgam sources under {SRC}", file=sys.stderr)
        return 2
    # The build: byte-compile once, so no measured interpreter pays for it.
    if not all(compileall.compile_dir(str(d), quiet=1) for d in (SRC, HERE)):
        print("byte-compiling the sources failed", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Set-up samples come from before and after the measured run, so that
    # their median spans the run's stretch of host load.
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [_worker(args, workdir, setup_only=True)[1] for _ in range(probes // 2)]
    result, setup = _worker(args, workdir, setup_only=False)
    setups.append(setup)
    setups += [_worker(args, workdir, setup_only=True)[1] for _ in range(probes - probes // 2)]

    if args.trace:
        metrics = result["per_layer"]
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "cases_per_s": result["cases_per_s"],
        }
        units = END_TO_END_UNITS
    info = provenance(args, result["size"])

    print(f"{'metric':<52} {'unit':<6} {'workload':<12} value")
    for name, value in metrics.items():
        print(f"{name:<52} {units[name]:<6} {args.workload:<12} {value:.6g}")
    for kind, lat in result["latencies"].items():
        for q in ("p50_ms", "p99_ms"):
            print(f"{kind + '_' + q:<52} {'ms':<6} {args.workload:<12} {lat[q]:.6g}"
                  f"  (not gated; {lat['count']} requests)")
    share = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{'failed_share':<52} {'ratio':<6} {args.workload:<12} {share:.6g}")
    for problem in result["problems"]:
        print(f"failure: {problem}")
    print("provenance: " + json.dumps(info, sort_keys=True))

    summary = {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {**summary, "provenance": info, "setup_samples_s": setups, "run": result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".us_per_call", ".us_p99")):
        return "us"
    if name.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
