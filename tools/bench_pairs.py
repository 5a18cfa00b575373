"""Paired benchmark runs: ``bench/run.py`` in a parent checkout and in a
change checkout, one pair per seed, alternating which side runs first, with
the per-seed results, medians, quartiles and both environment lines written
to a ``BENCH_<pr>.json`` file::

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload sweep-grid --seeds 1-10 --seconds 30 --out BENCH_13.json

Each checkout runs its own ``bench/run.py`` with the interpreter that runs
this script; give two checkouts whose ``bench/`` is the same, so only the
program differs. One invocation measures one workload. The output file
keeps the entries of other workloads, so the workloads of one change are
measured in turn into one file; a second invocation on a workload already
in the file adds its pairs to that workload's, so every run made is kept,
and the summary covers them all.

For each end-to-end metric of ``BENCHMARK.json`` the summary gives each
side's median and quartiles, the change's median over the parent's, the
number of pairs the change wins (ties count for neither), and three
verdicts: ``gain_shown``, when the change wins at least nine tenths of the
pairs and its median is better by more than the parent's interquartile
range; ``worse_beyond_bound``, when its median is worse than the parent's
by more than the metric's bound; and ``unresolved``, when the parent's
interquartile range exceeds the bound relative to its median, so that the
runs spread too widely to tell a move within the bound from noise, unless
every change run is better than every parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _seeds(text: str) -> list[int]:
    """1-10 or 1,3,5 or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The environment line and the result line of one bench/run.py run."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: bench/run.py exited with {done.returncode}:"
                           f" {done.stderr.strip()[-300:]}")
    env_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(env_line)["env"], json.loads(result_line)


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: both sides' quartiles, the ratio of medians, the pairs
    won and the three verdicts."""
    out = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        stats = {side: _quartiles(values[side]) for side in SIDES}
        sign = 1.0 if higher else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        gain = sign * (change - parent)
        spread = stats["parent"]["q3"] - stats["parent"]["q1"]
        every_run_better = min(sign * c for c in values["change"]) > max(
            sign * p for p in values["parent"])
        out[name] = {
            **stats,
            "ratio": change / parent if parent else None,
            "change_wins": wins,
            "pairs": len(pairs),
            "gain_shown": wins >= 0.9 * len(pairs) and gain > spread,
            "worse_beyond_bound": -gain > metric["bound"] * abs(parent),
            "unresolved": spread > metric["bound"] * abs(parent) and not every_run_better,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    earlier = doc["workloads"].get(args.workload)
    if earlier is not None and earlier["seconds"] != args.seconds:
        parser.error(f"{args.out} holds {args.workload} runs of {earlier['seconds']} s")

    pairs, envs = [], {}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            env, result = _run(getattr(args, side), args.workload, seed, args.seconds)
            envs.setdefault(side, env)
            pair[side] = result
        pairs.append(pair)
        line = {side: pair[side]["metrics"]["ops_per_s"]["value"] for side in SIDES}
        print(f"{args.workload} seed {seed}: ops_per_s {line}", file=sys.stderr, flush=True)

    if earlier is not None:
        pairs, envs = earlier["pairs"] + pairs, earlier["env"]
    doc["workloads"][args.workload] = {
        "seconds": args.seconds,
        "env": envs,
        "all_correct": {side: all(p[side]["correct"] for p in pairs) for side in SIDES},
        "pairs": pairs,
        "summary": summarize(pairs, spec["end_to_end"]),
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
