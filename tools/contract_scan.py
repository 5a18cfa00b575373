"""Seeded contract scan: every admissible input must exit 0 (a verified
report), 1 (bad input named) or 2 (a range error naming the reason), never
3 or with a Python traceback. It draws ``bound``, ``quadrature``, ``testfn``
and ``sweep`` cases: n log-uniform from 2 to 10^12, tau from 1 to 2 MAX_K,
N at D(n, tau), at D(n, tau + 1) or between them, every potential family
with random parameters, every side, and ``--u`` inside and outside
(-1, 1). Each runs through the acceptance grid's ``run_case``. It prints the
count per exit code and the count of cases that emit a Python warning, then
every case that exits 3 or raises, grouped by its last stderr line (or
exception name), and every case that warns, grouped by its first warning,
each with the numbers masked::

    PYTHONPATH=src python tools/contract_scan.py --seed 1 --count 3000
"""

from __future__ import annotations

import argparse
import collections
import math
import random
import re
import sys

from acceptance_grid import run_case
from designbounds.levenshtein import MAX_K, dgs_bound


def cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n, tau = round(10 ** rng.uniform(math.log10(2), 12)), rng.randint(1, 2 * MAX_K)
        lo, hi = dgs_bound(n, tau), dgs_bound(n, tau + 1)
        N = rng.choice((lo, hi, rng.randint(lo, hi)))
        c = [round(rng.uniform(-2, 2), 3) for _ in range(rng.randint(1, 4))]
        pot = rng.choice((f"riesz:s={rng.uniform(0.1, 6):.4g}", "log",
                          f"gauss:c={rng.uniform(0.1, 6):.4g}", "poly:" + ",".join(map(str, c))))
        u = rng.choice(([], ["--u", repr(rng.uniform(-1.1, 1.1))],
                        ["--u", repr(rng.uniform(0, 1))]))
        command = rng.choice(("bound", "quadrature", "testfn", "sweep"))
        if command == "bound":
            side = rng.choice(("lower", "upper", "strip"))
            yield ["bound", "--n", str(n), "--N", str(N), "--tau", str(tau), "--potential", pot,
                   "--side", side, *u]
        elif command == "sweep":
            yield ["sweep", "--n", str(n), "--tau", str(tau), "--potential", pot, *u]
        else:
            jmax = ["--jmax", str(rng.randint(1, 60))] if command == "testfn" else []
            yield [command, "--n", str(n), "--tau", str(tau), "--N", str(N), *jmax]


def _masked(message: str) -> str:
    return re.sub(r"[-+]?\d+(\.\d+)?(e[-+]?\d+)?", "#", message)


def scan(argvs) -> tuple[collections.Counter, dict, dict]:
    """The count per exit code, the argvs of each exit-3 or traceback case
    by their masked message, and the argvs of each case that warns by its
    first masked warning."""
    codes = collections.Counter()
    broken, warned = collections.defaultdict(list), collections.defaultdict(list)
    for argv in argvs:
        code, _, err, emitted = run_case(argv)
        codes[code] += 1
        if code == "3" or code.startswith("TB:"):
            message = code if code != "3" else (err.strip().splitlines() or ["(none)"])[-1]
            broken[_masked(message)].append(argv)
        if emitted:
            warned[_masked(emitted.splitlines()[0])].append(argv)
    return codes, broken, warned


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    args = p.parse_args(argv)
    codes, broken, warned = scan(cases(args.seed, args.count))
    print(" ".join(f"exit {code}: {k}" for code, k in sorted(codes.items())),
          f"warned: {sum(map(len, warned.values()))}")
    for groups in (broken, warned):
        for message, argvs in sorted(groups.items(), key=lambda item: -len(item[1])):
            print(f"{len(argvs)} x {message}\n  e.g. {' '.join(argvs[0])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
