"""One benchmark process: set up a workload, then run its ops in a closed
loop for a fixed time and print what it measured.

    python3 bench/load.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints ``ready`` once set-up is done; with --setup-only it then exits.
Otherwise the last line of stdout is one JSON object with the op counts,
the latencies and the library versions and, with --trace 1, the per-layer
metrics. Each failed op is described on stderr.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from workloads import WORKLOADS, CheckFailed, OpFailed  # noqa: E402


def _blas(config: dict) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def versions() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    latencies, failed, check_failures = [], 0, 0
    start = time.perf_counter()
    deadline = start + args.seconds
    while len(latencies) < workload.max_ops and time.perf_counter() < deadline:
        i = len(latencies)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            workload.run(i)
        except CheckFailed as e:
            failed += 1
            check_failures += 1
            print(f"op {i}: check failed: {e}", file=sys.stderr)
        except OpFailed as e:
            failed += 1
            print(f"op {i}: {e}", file=sys.stderr)
        except Exception:  # raised out of the program: counted, and the run goes on
            failed += 1
            print(f"op {i}: exception escaped the program", file=sys.stderr)
            traceback.print_exc()
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start

    ms = sorted(1000.0 * t for t in latencies)
    result = {
        "attempted": len(latencies),
        "failed": failed,
        "check_failures": check_failures,
        "elapsed_s": elapsed,
        "ops_per_s": len(latencies) / elapsed,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": versions(),
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(len(latencies))
        tracer.write(BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
