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
each with the numbers masked. A sweep that exits 3 is grouped by the error
of each of its error rows instead, read from its CSV or JSON, and counted
once per distinct message; a row counts only where ``bound --side strip`` at
its point, with the sweep's potential and ``--u``, does not exit 2, so its
range-error rows are left out. It exits 1 when any case raises or warns,
and 0 otherwise, whatever exits 3::

    PYTHONPATH=src python tools/contract_scan.py --seed 1 --count 3000
"""

from __future__ import annotations

import argparse
import collections
import math
import random
import re
import sys

from acceptance_grid import _parsed, run_case
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


def _not_range_error(argv: list[str], row: dict) -> bool:
    """bound at a sweep row's point, with the sweep's potential and --u,
    exits other than 2: the row is no range error."""
    options = [x for flag, value in zip(argv[1::2], argv[2::2])
               if flag in ("--potential", "--u") for x in (flag, value)]
    point = ["--n", str(row["n"]), "--N", str(row["N"]), "--tau", str(row["tau"])]
    return run_case(["bound", *point, *options, "--side", "strip"])[0] != "2"


def _broken(argv: list[str], code: str, out: str, err: str) -> set[str]:
    """The masked messages a case that exits 3 or raises is grouped by:
    the error of each error row of a sweep's CSV or JSON output that is no
    range error, else the last stderr line or the exception name; no
    message for any other case."""
    if code.startswith("TB:"):
        return {code}
    if code != "3":
        return set()
    rows = _parsed(out) if argv[0] == "sweep" else []  # one dict per point
    errors = {row["error"] for row in rows if row.get("error") and _not_range_error(argv, row)}
    return {_masked(e) for e in errors or (err.strip().splitlines() or ["(none)"])[-1:]}


def scan(argvs) -> tuple[collections.Counter, dict, dict]:
    """The count per exit code, the argvs of each exit-3 or traceback case
    by each of its masked messages, and the argvs of each case that warns by
    its first masked warning."""
    codes = collections.Counter()
    broken, warned = collections.defaultdict(list), collections.defaultdict(list)
    for argv in argvs:
        code, out, err, emitted = run_case(argv)
        codes[code] += 1
        for message in _broken(argv, code, out, err):
            broken[message].append(argv)
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
    return 1 if warned or any(code.startswith("TB:") for code in codes) else 0


if __name__ == "__main__":
    sys.exit(main())
