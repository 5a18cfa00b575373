"""Benchmark of the designbounds engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the package is imported from
``src/``, nothing is installed. Every process runs with OpenBLAS pinned to
one thread. With --trace 0 it measures set-up time in SETUPS fresh
processes (median), then runs the workload's ops for S seconds in the last
of them and prints the end-to-end metrics. With --trace 1 it runs the ops
once with the tracer installed and prints the per-layer metrics; the spans
go to bench/out/. The second-to-last line of stdout records the
environment: CPUs, library versions, commit, source digest and seed. The
last line is the result:

    {"correct": true, "attempted": 20, "failed": 0, "metrics": {...}}

Exits with 2, printing no result, when the source tree is missing or a
run does not complete.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "designbounds"
SETUPS = 3
DEADLINE_S = 170.0


def _child(args, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Run bench/load.py; return the seconds from its start to ``ready``
    and the rest of its stdout. A watchdog kills it at the deadline."""
    argv = [sys.executable, str(BENCH / "load.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"bench/load.py exited with {code} before completing")
    return setup_s, rest


def _environment(args, versions: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_num_threads": 1,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        **versions,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="designbounds benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no designbounds sources under {PACKAGE.parent}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            setups = [_child(args, deadline, setup_only=True)[0] for _ in range(SETUPS - 1)]
        setup_s, out = _child(args, deadline, setup_only=False)
        setups.append(setup_s)
        run = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in run["per_layer"].items()}
        metrics["traced.ops_per_s"] = {"value": run["ops_per_s"], "unit": "1/s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": run["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": run["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": run["op_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"env": _environment(args, run["versions"])}))
    print(json.dumps({
        "correct": run["check_failures"] == 0 and run["failed"] < run["attempted"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
