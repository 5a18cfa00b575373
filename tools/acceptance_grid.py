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
``--set all`` runs the eight sets in turn, in the order listed below.
``--against OTHER_SRC`` compares two trees in one command: it runs the set
in two subprocesses at once, one with ``PYTHONPATH=OTHER_SRC`` and one on
the ``src`` this script imports, prints only the cases whose lines differ
(``-`` the other tree's line, ``+`` this tree's) and then their count, and
exits with 1 when any case differs (2 when either run fails)::

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
- ``edges`` (346 cases): the admissibility edges. tau = 0 for ``bound``
  (each ``--side``), ``quadrature`` and ``sweep``; ``bound --side strip``
  (``--u 0`` at odd tau) over n in {3, 8}, tau in {2, 3, 4, 6}, N in {lo - 1,
  lo, lo + 1, hi - 1, hi, hi + 1} and the three potentials, with
  ``quadrature`` and ``testfn --jmax tau+3`` at the same points; ``bound
  --potential log --side upper|strip --u u`` over n in {3, 9}, tau in {3, 4},
  N in {lo, (lo+hi)//2} and u in {-1, -0.6, 1, s, s - 1e-9}, with s the
  rule's largest node (passed as ``repr(u)``); and ``bound`` with the
  potential specs riesz:s=2,c=1, gauss:c=1,d=2, log:c=7, riesz:s=1,s=3,
  log:offset=0.6931471805599453 and log:offset=1; and ``bound --side
  strip`` at (3, 5, 2) with the polynomial potentials poly:1,0,2 and
  poly:0,-1, whose printed spec is in the report; and ``bound --side
  upper`` just above the simplex, at tau = 2, n in {3, 8} and N = lo +
  1e-10 and lo + 1e-8 (passed as ``repr(N)``), with the three potentials.
- ``code`` (144 cases): ``code`` with the builds simplex and
  cross-polytope at n in {1, 2, 3, 8}, orthogonal-simplices at (a, b) in
  {(2, 2), (3, 3), (4, 4), (2, 5)} and kerdock at l in {2, 3}, each with
  the three potentials and poly:1,0,2 and poly:0,-1, and ``--max-tau`` 0
  and 6; plus each builder once without the option it needs.

Here lo = D(n, tau) and hi = D(n, tau + 1) are the cardinality bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
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
                for u in ("-1", "-0.6", "1", repr(s), repr(s - 1e-9)):
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


SETS = {"grid": grid_cases, "zone": zone_cases, "strip": strip_cases,
        "sweep": sweep_cases, "rules": rules_cases, "cubic": cubic_cases,
        "edges": edges_cases, "code": code_cases}


def run_case(argv: list[str]) -> tuple[str, str, str, str]:
    """Exit code (or TB:<exception name>) and the SHA-1 of stdout, of
    stderr and of the warnings emitted, one ``<category>: <message>`` line
    each."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = str(cli.main(argv))
        except Exception as e:  # noqa: BLE001 - every escape is a finding
            code = f"TB:{type(e).__name__}"
    emitted = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    digest = lambda text: hashlib.sha1(text.encode()).hexdigest()
    return code, digest(out.getvalue()), digest(err.getvalue()), digest(emitted)


def compare(name: str, other_src: str) -> int:
    """Run the set under other_src and under this tree's src, each in its
    own subprocess and both at once; print the cases that differ and their
    count. 1 when any case differs, 2 when a run fails."""
    srcs = (other_src, str(Path(cli.__file__).resolve().parents[1]))
    with tempfile.TemporaryFile("w+") as old_out, tempfile.TemporaryFile("w+") as new_out:
        outs = (old_out, new_out)
        runs = [subprocess.Popen([sys.executable, __file__, "--set", name], stdout=out, text=True,
                                 env={**os.environ, "PYTHONPATH": src})
                for src, out in zip(srcs, outs)]
        codes = [run.wait() for run in runs]
        for src, code in zip(srcs, codes):
            if code != 0:
                print(f"the run under {src} exited with {code}", file=sys.stderr)
                return 2
        for out in outs:
            out.seek(0)
        old, new = (out.read().splitlines() for out in outs)
    differ = 0
    for a, b in itertools.zip_longest(old, new):
        if a != b:
            differ += 1
            print(f"- {a}" if a is not None else "- (no case)")
            print(f"+ {b}" if b is not None else "+ (no case)")
    print(f"{differ} of {max(len(old), len(new))} cases differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--set", choices=[*sorted(SETS), "all"], required=True)
    p.add_argument("--against", metavar="OTHER_SRC",
                   help="another tree's src directory; print only the cases that differ")
    args = p.parse_args(argv)
    if args.against:
        return compare(args.set, args.against)
    for name in SETS if args.set == "all" else [args.set]:
        for case in SETS[name]():
            print("\t".join([" ".join(case), *run_case(case)]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
