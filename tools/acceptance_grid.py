"""Equivalence harness: run fixed case sets through ``cli.main`` in-process
and print one line per case,
``<argv>\\t<exit>\\t<sha1 of stdout>\\t<sha1 of stderr>\\t<sha1 of warnings>``.

An exception that escapes ``cli.main`` is recorded as ``TB:<name>`` in the
exit column. The stderr digest covers the error messages, so a changed
reason shows. The warnings digest covers every Python warning the case
emits, under the "always" filter so that a repeat is not hidden, as its
category name and message in the order emitted; file and line are left
out, since they move with every edit. Two trees give the same answers on
a set when their outputs are identical.
``--set all`` runs the nine sets in turn, in the order listed below.
``--against OTHER_SRC`` compares two trees in one command: it runs the set
in two subprocesses at once, one with ``PYTHONPATH=OTHER_SRC`` and one on
the ``src`` this script imports, prints only the cases whose lines differ
(``-`` the other tree's line, ``+`` this tree's) and then their count, and
exits with 1 when any case differs (2 when either run fails). Under each
differing case it names the columns that differ and, when stdout differs
and both stdouts parse as JSON (else as CSV), the largest relative
difference between paired numbers and the non-numeric differences, so a
declared output change can be checked against its declaration::

    PYTHONPATH=src python tools/acceptance_grid.py --set all --against ../parent/src

The same check by hand, one tree at a time::

    PYTHONPATH=src python tools/acceptance_grid.py --set grid > new.txt
    PYTHONPATH=/path/to/other/src python tools/acceptance_grid.py --set grid > old.txt
    diff old.txt new.txt

The sets:

- ``grid`` (452 cases): ``bound --side strip --verify`` over n in {3, 4, 5,
  8, 24}, tau 1..10, N in {lo, (lo+hi)//2, hi} and the three potentials,
  with ``--u`` 0 for odd tau and 0.5 for even tau; plus two ``sweep`` runs
  over tau 1..8 with riesz:s=1.5, ``--verify --format json``.
- ``zone`` (2,700 cases): ``bound --side lower --verify`` over n in {3, 4,
  5, 8, 24, 60}, tau 11..60, N in {lo, (lo+hi)//2, hi} and the three
  potentials.
- ``strip`` (1,800 cases): ``bound --side upper --u u`` over n in {3, 4, 5,
  8, 24}, odd tau 1..59, N in {lo, (lo+hi)//2}, u the largest rule node s
  and min(s + 0.05, 0.999) (passed as ``repr(u)``), and the three
  potentials.
- ``sweep`` (192 cases): ``sweep --verify`` over four ``--n``/``--tau``
  groups (3,4,5 with tau 1..10,61,62; 8,24 with tau 1..8; 60,200 with tau
  2,3,13,17; 2,3 with tau 1,2,3), each with no extra option, ``--u 0``,
  ``--u 0.5`` and ``--N 4,5,6,7,10,14,20,50``, in csv and json, and the
  three potentials; each case runs once as it is and once more with
  ``--jobs 2``, whose forked processes must print the same bytes. A tree
  that ignores ``--jobs`` runs the second serially, so ``--against`` such a
  tree compares the forked output with the serial one.
- ``rules`` (1,620 cases): ``quadrature`` over n in {3, 4, 5, 8, 24, 60},
  tau 1..60 and N in {lo, (lo+hi)//2, hi}, plus ``testfn --jmax
  min(tau+9, 60)`` at odd tau.
- ``cubic`` (1,386 cases): ``bound --side upper`` over odd n from 3 to 29,
  tau in {3, 4}, N in {lo, lo + (hi-lo)//4, (lo+hi)//2} and the three
  potentials, with ``--u`` in {-0.6, -0.3, 0, 0.5, 0.95}; tau 4 also runs
  once without ``--u``. This covers ``upper_cubic`` on both sides of the
  rule's largest node s, and the N = 2n, tau = 3, ``--u 0`` point where its
  closed-form tangency point is 0/0.
- ``edges`` (428 cases): the admissibility edges. tau = 0 for ``bound``
  (each ``--side``), ``quadrature`` and ``sweep``; ``bound --side strip``
  (``--u 0`` at odd tau) over n in {3, 8}, tau in {2, 3, 4, 6}, N in {lo -
  1, lo, lo + 1, hi - 1, hi, hi + 1} and the three potentials, with
  ``quadrature`` and ``testfn --jmax tau+3`` at the same points; ``bound
  --potential log --side upper|strip --u u`` over n in {3, 9}, tau in {3,
  4}, N in {lo, (lo+hi)//2} and u in {-1, -0.6, 1, s, s - 1e-9, s - 1e-11,
  s - 1e-13}, with s the rule's largest node (passed as ``repr(u)``), on
  both sides of the 1e-12 by which u may fall short of s; and ``bound``
  with the potential specs riesz:s=2,c=1, gauss:c=1,d=2, log:c=7,
  riesz:s=1,s=3, log:offset=0.6931471805599453 and log:offset=1; and
  ``bound --side strip`` at (3, 5, 2) with the polynomial potentials
  poly:1,0,2 and poly:0,-1, whose printed spec is in the report; and
  ``bound --side upper`` just above the simplex, at tau = 2, n in {3, 8}
  and N = lo + 1e-10 and lo + 1e-8 (passed as ``repr(N)``), with the three
  potentials; and ``bound --tau 2 --side lower`` at the simplex, N = n + 1,
  for n in {25, 26, 200}, and ``bound --tau 2 --side upper`` at N = n + 2
  for n in {10^12, 10^13} and at N = n + 3 for n = 3*10^16, where l and u
  are adjacent doubles, with the three potentials; and at even tau, N one
  or two above lo, where -1's Lobatto coefficient rounds to 0 or below:
  ``bound --potential log --side lower`` and ``quadrature`` at (3*10^16,
  3*10^16 + 3, 2), ``quadrature`` at (n, tau) in {(60, 26), (24, 58),
  (10^5, 6)} and ``sweep --potential log`` at the first; and ``bound --potential log
  --side lower`` at N = hi - 1 and hi for (n, tau) in {(1000, 10),
  (2*10^12, 2)}, where ell is within 1e-12 of -1 and is -1, and at (8, 60,
  4) with ``--l`` in {-1, -1 + 1e-13, -1 + 1e-11}; and integers past the
  largest double: ``bound``, ``quadrature``, ``testfn`` and ``sweep`` at n
  = 10^400 and tau = 3, and ``code`` with simplex and cross-polytope at n =
  10^400, orthogonal-simplices at (3, 10^400) and kerdock at l = 600; and
  dimensions whose Jacobi recurrence overflows, ``bound --n 10^200 --N
  1.5e200 --tau 2 --potential log`` and ``quadrature --n 10^160 --N 1.5e160
  --tau 2`` (n written out as an integer), and whose bound N^2 h overflows,
  the same ``bound`` with ``--side upper`` and with ``--N 10^200 --side
  upper``, and whose b_j underflow, ``quadrature --n 10^100 --N 2e299 --tau
  6``, and ``quadrature --n 10^20 --tau 3`` at N = 2*10^20, where the
  kernel's shift divides by a p_(k-1)(s) that rounds to 0, and at N =
  166666666666666666685000000000000, where L_3's denominator does, and
  ``sweep --n 10^13 --tau 25 --N 10^158``, whose integer N squares past the
  largest double; and ``testfn --jmax`` 0 and -2 and ``code --max-tau -1``.
- ``code`` (144 cases): ``code`` with the builds simplex and
  cross-polytope at n in {1, 2, 3, 8}, orthogonal-simplices at (a, b) in
  {(2, 2), (3, 3), (4, 4), (2, 5)} and kerdock at l in {2, 3}, each with
  the three potentials and poly:1,0,2 and poly:0,-1, and ``--max-tau`` 0
  and 6; plus each builder once without the option it needs.
- ``large`` (810 cases): ``bound --side lower --verify`` over n in {400,
  1000, 3000, 10^4, 3*10^4, 10^5}, tau 2..10, N = lo + q (hi-lo)//4 for q
  from 0 to 4 (lo, the three quarters and hi) and the three potentials.

Here lo = D(n, tau) and hi = D(n, tau + 1) are the cardinality bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

from designbounds import cli, levenshtein

POTENTIALS = ("riesz:s=2", "log", "gauss:c=1")


def _bounds(n: int, tau: int) -> tuple[int, int]:
    return levenshtein.dgs_bound(n, tau), levenshtein.dgs_bound(n, tau + 1)


def grid_cases():
    for n in (3, 4, 5, 8, 24):
        for tau in range(1, 11):
            lo, hi = _bounds(n, tau)
            u = "0" if tau % 2 else "0.5"
            for N in (lo, (lo + hi) // 2, hi):
                for pot in POTENTIALS:
                    yield ["bound", "--n", str(n), "--N", str(N), "--tau", str(tau),
                           "--potential", pot, "--side", "strip", "--u", u, "--verify"]
    for ns in ("3,4,5", "8,24"):
        yield ["sweep", "--n", ns, "--tau", "1,2,3,4,5,6,7,8", "--potential", "riesz:s=1.5",
               "--verify", "--format", "json"]


def zone_cases():
    for n in (3, 4, 5, 8, 24, 60):
        for tau in range(11, 61):
            lo, hi = _bounds(n, tau)
            for N in (lo, (lo + hi) // 2, hi):
                for pot in POTENTIALS:
                    yield ["bound", "--n", str(n), "--N", str(N), "--tau", str(tau),
                           "--potential", pot, "--side", "lower", "--verify"]


def strip_cases():
    for n in (3, 4, 5, 8, 24):
        for tau in range(1, 60, 2):
            lo, hi = _bounds(n, tau)
            for N in (lo, (lo + hi) // 2):
                s = levenshtein.solve_cardinality(n, tau, N)
                for u in (s, min(s + 0.05, 0.999)):
                    for pot in POTENTIALS:
                        yield ["bound", "--n", str(n), "--N", str(N), "--tau", str(tau),
                               "--potential", pot, "--side", "upper", "--u", repr(u)]


SWEEP_GROUPS = (
    ("3,4,5", "1,2,3,4,5,6,7,8,9,10,61,62"),
    ("8,24", "1,2,3,4,5,6,7,8"),
    ("60,200", "2,3,13,17"),
    ("2,3", "1,2,3"),
)
SWEEP_OPTIONS = ([], ["--u", "0"], ["--u", "0.5"], ["--N", "4,5,6,7,10,14,20,50"])


def sweep_cases():
    for ns, taus in SWEEP_GROUPS:
        for extra in SWEEP_OPTIONS:
            for fmt in ("csv", "json"):
                for pot in POTENTIALS:
                    case = ["sweep", "--n", ns, "--tau", taus, *extra, "--potential", pot,
                            "--format", fmt, "--verify"]
                    yield case
                    yield [*case, "--jobs", "2"]


def rules_cases():
    for n in (3, 4, 5, 8, 24, 60):
        for tau in range(1, 61):
            lo, hi = _bounds(n, tau)
            for N in (lo, (lo + hi) // 2, hi):
                spec = ["--n", str(n), "--tau", str(tau), "--N", str(N)]
                yield ["quadrature", *spec]
                if tau % 2:
                    yield ["testfn", *spec, "--jmax", str(min(tau + 9, 60))]


def cubic_cases():
    for n in range(3, 30, 2):
        for tau in (3, 4):
            lo, hi = _bounds(n, tau)
            us = [["--u", u] for u in ("-0.6", "-0.3", "0", "0.5", "0.95")]
            if tau == 4:
                us.append([])
            for N in (lo, lo + (hi - lo) // 4, (lo + hi) // 2):
                for extra in us:
                    for pot in POTENTIALS:
                        yield ["bound", "--n", str(n), "--N", str(N), "--tau", str(tau),
                               "--potential", pot, "--side", "upper", *extra]


EDGE_POTENTIALS = ("riesz:s=2,c=1", "gauss:c=1,d=2", "log:c=7", "riesz:s=1,s=3",
                   "log:offset=0.6931471805599453", "log:offset=1")
POLY_POTENTIALS = ("poly:1,0,2", "poly:0,-1")
BIG = "1" + "0" * 400  # an integer past the largest double


def edges_cases():
    for side in ("lower", "upper", "strip"):
        yield ["bound", "--n", "3", "--N", "2", "--tau", "0", "--potential", "log", "--side", side]
    for N in ("1", "2"):
        yield ["quadrature", "--n", "3", "--tau", "0", "--N", N]
    yield ["sweep", "--n", "3", "--tau", "0", "--potential", "log"]
    for n in (3, 8):
        for tau in (2, 3, 4, 6):
            lo, hi = _bounds(n, tau)
            u = ["--u", "0"] if tau % 2 else []
            for N in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1):
                spec = ["--n", str(n), "--tau", str(tau), "--N", str(N)]
                for pot in POTENTIALS:
                    yield ["bound", *spec, "--potential", pot, "--side", "strip", *u]
                yield ["quadrature", *spec]
                yield ["testfn", *spec, "--jmax", str(tau + 3)]
    for n in (3, 9):
        for tau in (3, 4):
            lo, hi = _bounds(n, tau)
            for N in (lo, (lo + hi) // 2):
                s = levenshtein.solve_cardinality(n, tau, N)
                below = (repr(s - d) for d in (1e-9, 1e-11, 1e-13))
                for u in ("-1", "-0.6", "1", repr(s), *below):
                    for side in ("upper", "strip"):
                        yield ["bound", "--n", str(n), "--N", str(N), "--tau", str(tau),
                               "--potential", "log", "--side", side, "--u", u]
    for pot in EDGE_POTENTIALS:
        yield ["bound", "--n", "3", "--N", "5", "--tau", "2", "--potential", pot]
    for pot in POLY_POTENTIALS:
        yield ["bound", "--n", "3", "--N", "5", "--tau", "2", "--potential", pot, "--side", "strip"]
    for n in (3, 8):
        lo = levenshtein.dgs_bound(n, 2)
        for N in (repr(lo + 1e-10), repr(lo + 1e-8)):
            for pot in POTENTIALS:
                yield ["bound", "--n", str(n), "--N", N, "--tau", "2", "--potential", pot,
                       "--side", "upper"]
    for n in (25, 26, 200):
        for pot in POTENTIALS:
            yield ["bound", "--n", str(n), "--N", str(n + 1), "--tau", "2", "--potential", pot,
                   "--side", "lower"]
    for n, N in ((10**12, 10**12 + 2), (10**13, 10**13 + 2), (3 * 10**16, 3 * 10**16 + 3)):
        for pot in POTENTIALS:
            yield ["bound", "--n", str(n), "--N", str(N), "--tau", "2", "--potential", pot,
                   "--side", "upper"]
    yield ["bound", "--n", str(3 * 10**16), "--N", str(3 * 10**16 + 3), "--tau", "2",
           "--potential", "log", "--side", "lower"]
    for n, tau, N in ((3 * 10**16, 2, 3 * 10**16 + 3), (60, 26, 83710202924601),
                      (24, 58, 549663398587801), (10**5, 6, 166676666750001)):
        yield ["quadrature", "--n", str(n), "--tau", str(tau), "--N", str(N)]
    yield ["sweep", "--n", "60", "--tau", "26", "--N", "83710202924601", "--potential", "log"]
    for n, tau in ((1000, 10), (2 * 10**12, 2)):
        hi = levenshtein.dgs_bound(n, tau + 1)
        for N in (hi - 1, hi):
            yield ["bound", "--n", str(n), "--N", str(N), "--tau", str(tau), "--potential", "log",
                   "--side", "lower"]
    for ell in ("-1", repr(-1 + 1e-13), repr(-1 + 1e-11)):
        yield ["bound", "--n", "8", "--N", "60", "--tau", "4", "--potential", "log",
               "--side", "lower", "--l", ell]
    yield ["bound", "--n", BIG, "--N", "5", "--tau", "3", "--potential", "log"]
    yield ["quadrature", "--n", BIG, "--N", "5", "--tau", "3"]
    yield ["testfn", "--n", BIG, "--N", "5", "--tau", "3", "--jmax", "4"]
    yield ["sweep", "--n", BIG, "--tau", "3", "--potential", "log"]
    yield ["bound", "--n", str(10**200), "--N", "1.5e200", "--tau", "2", "--potential", "log"]
    yield ["quadrature", "--n", str(10**160), "--N", "1.5e160", "--tau", "2"]
    for N in ("1.5e200", str(10**200)):
        yield ["bound", "--n", str(10**200), "--N", N, "--tau", "2", "--potential", "log",
               "--side", "upper"]
    yield ["quadrature", "--n", str(10**100), "--N", "2e299", "--tau", "6"]
    for N in (2 * 10**20, 166666666666666666685000000000000):
        yield ["quadrature", "--n", str(10**20), "--N", str(N), "--tau", "3"]
    yield ["sweep", "--n", str(10**13), "--tau", "25", "--N", str(10**158), "--potential", "log"]
    for builder, *options in (("simplex", "--n", BIG), ("cross-polytope", "--n", BIG),
                              ("orthogonal-simplices", "--a", "3", "--b", BIG),
                              ("kerdock", "--l", "600")):
        yield ["code", "--builder", builder, *options, "--potential", "log"]
    for jmax in ("0", "-2"):
        yield ["testfn", "--n", "3", "--tau", "3", "--N", "7", "--jmax", jmax]
    yield ["code", "--builder", "simplex", "--n", "3", "--potential", "log", "--max-tau", "-1"]


CODE_BUILDS = (
    *(("simplex", "--n", str(n)) for n in (1, 2, 3, 8)),
    *(("cross-polytope", "--n", str(n)) for n in (1, 2, 3, 8)),
    *(("orthogonal-simplices", "--a", str(a), "--b", str(b))
      for a, b in ((2, 2), (3, 3), (4, 4), (2, 5))),
    *(("kerdock", "--l", str(l)) for l in (2, 3)),
)


def code_cases():
    for builder, *options in CODE_BUILDS:
        for pot in (*POTENTIALS, *POLY_POTENTIALS):
            for max_tau in ("0", "6"):
                yield ["code", "--builder", builder, *options, "--potential", pot,
                       "--max-tau", max_tau]
    for builder in ("simplex", "cross-polytope", "orthogonal-simplices", "kerdock"):
        yield ["code", "--builder", builder, "--potential", "log"]


def large_cases():
    for n in (400, 1000, 3000, 10**4, 3 * 10**4, 10**5):
        for tau in range(2, 11):
            lo, hi = _bounds(n, tau)
            for N in (lo + q * (hi - lo) // 4 for q in range(5)):
                for pot in POTENTIALS:
                    yield ["bound", "--n", str(n), "--N", str(N), "--tau", str(tau),
                           "--potential", pot, "--side", "lower", "--verify"]


SETS = {"grid": grid_cases, "zone": zone_cases, "strip": strip_cases,
        "sweep": sweep_cases, "rules": rules_cases, "cubic": cubic_cases,
        "edges": edges_cases, "code": code_cases, "large": large_cases}


COLUMNS = ("case", "exit", "stdout", "stderr", "warnings")


def run_case(argv: list[str]) -> tuple[str, str, str, str]:
    """Exit code (or TB:<exception name>), stdout, stderr and the warnings
    emitted, one ``<category>: <message>`` line each."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = str(cli.main(argv))
        except Exception as e:  # noqa: BLE001 - every escape is a finding
            code = f"TB:{type(e).__name__}"
    emitted = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), err.getvalue(), emitted


def case_line(argv: list[str], outputs: tuple[str, str, str, str]) -> str:
    """The case's line: argv, exit code and the SHA-1 of each output."""
    digest = lambda text: hashlib.sha1(text.encode()).hexdigest()
    code, *texts = outputs
    return "\t".join([" ".join(argv), code, *map(digest, texts)])


def _parsed(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return list(csv.reader(io.StringIO(text)))


def _number(x) -> float | None:
    """x as a float when it is a number, or a string that reads as one."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        return None
    try:
        return float(x)
    except (ValueError, OverflowError):
        return None


def _leaf_pairs(a, b, path: str = ""):
    """(path, a leaf, b leaf) for every leaf of a and b, paired by dict key
    and list index; a leaf that one side lacks is None there."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from _leaf_pairs(a.get(key), b.get(key), f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(itertools.zip_longest(a, b)):
            yield from _leaf_pairs(x, y, f"{path}[{i}]")
    else:
        yield path, a, b


def stdout_differences(old: str, new: str) -> list[str]:
    """Report lines on two stdouts that both parse as JSON, or else as CSV:
    the largest relative difference between paired numbers, and each
    non-numeric difference."""
    short = lambda x: (r if len(r := repr(x)) <= 60 else r[:57] + "...")
    largest, where, other = 0.0, None, []
    for path, a, b in _leaf_pairs(_parsed(old), _parsed(new)):
        x, y = _number(a), _number(b)
        pair = f"{short(a)} -> {short(b)}"
        if x is None or y is None or x == y or math.isnan(x) and math.isnan(y):
            if str(a) != str(b):  # so -0.0 and 0.0, or 1 and 1.0, differ here
                other.append(f"  {path or '.'}: {pair}")
            continue
        rel = abs(x - y) / max(abs(x), abs(y))
        rel = math.inf if math.isnan(rel) else rel  # a NaN or an inf is the largest
        if rel > largest:
            largest, where = rel, f"{path} ({pair})"
    lines = [f"  largest relative difference {largest:.3g} at {where}"] if where else []
    return lines + other


def case_report(old: list | None, new: list | None) -> list[str]:
    """What compare prints for a case whose ``[line, stdout]`` records differ
    (None where a tree has no such case): both lines, the columns that
    differ and, when stdout does, how."""
    lines = [f"- {old[0] if old else '(no case)'}", f"+ {new[0] if new else '(no case)'}"]
    if old and new:
        cols = [c for c, x, y in zip(COLUMNS, old[0].split("\t"), new[0].split("\t")) if x != y]
        lines.append(f"  differ: {', '.join(cols)}")
        if "stdout" in cols:
            lines += stdout_differences(old[1], new[1])
    return lines


def compare(name: str, other_src: str) -> int:
    """Run the set under other_src and under this tree's src, each in its
    own subprocess and both at once; print the cases that differ, what
    differs in each, and their count. 1 when any case differs, 2 when a run
    fails."""
    srcs = (other_src, str(Path(cli.__file__).resolve().parents[1]))
    with tempfile.TemporaryFile("w+") as old_out, tempfile.TemporaryFile("w+") as new_out:
        outs = (old_out, new_out)
        runs = [subprocess.Popen([sys.executable, __file__, "--set", name, "--outputs"],
                                 stdout=out, text=True, env={**os.environ, "PYTHONPATH": src})
                for src, out in zip(srcs, outs)]
        codes = [run.wait() for run in runs]
        for src, code in zip(srcs, codes):
            if code != 0:
                print(f"the run under {src} exited with {code}", file=sys.stderr)
                return 2
        for out in outs:
            out.seek(0)
        differ = cases = 0
        for a, b in itertools.zip_longest(old_out, new_out):
            cases += 1
            if a != b:
                differ += 1
                print(*case_report(*(json.loads(x) if x else None for x in (a, b))), sep="\n")
    print(f"{differ} of {cases} cases differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--set", choices=[*sorted(SETS), "all"], required=True)
    p.add_argument("--against", metavar="OTHER_SRC",
                   help="another tree's src directory; print only the cases that differ")
    p.add_argument("--outputs", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.against:
        return compare(args.set, args.against)
    for name in SETS if args.set == "all" else [args.set]:
        for case in SETS[name]():
            outputs = run_case(case)
            line = case_line(case, outputs)
            # --outputs: each line with the case's stdout, for compare
            print(json.dumps([line, outputs[1]]) if args.outputs else line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
