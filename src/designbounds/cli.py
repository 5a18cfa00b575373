"""Command-line front end: bounds, quadratures, test-function tables, code
energies, and parameter sweeps with JSON/CSV output.

The form of outside input is validated here; n, N and tau are checked where
they are used, by levenshtein's one admissibility check. Exit codes: 0 ok,
1 usage (a message names the bad input), 2 range error, 3
internal-consistency or convergence failure.
A sweep prints every row, and a point that fails gets an error row; the sweep
exits 3 if any point failed internally, and 0 otherwise.
``sweep --jobs J`` deals the sweep's (n, tau) groups round-robin over
min(J, usable CPUs, groups) processes, this one and forked children, and
gives the rows, stderr, exception and exit code of ``--jobs 1``. It runs
serially where ``os.fork`` is missing or another thread runs.
``--verify`` is accepted and ignored: acceptance runs the checks of
BoundReport.verify at the same constant DEB_TOL and by the same route (the
Hermite remainder proof, or the sampled grid where the proof does not
apply, as each report's "sign_route" margin says), so a printed report has
nothing left to re-check.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import os
import pickle
import signal
import sys
import threading

from . import bounds, codes, jsonio, levenshtein
from .errors import ConvergenceError, InternalConsistencyError, RangeError
from .potentials import parse_potential

EXIT_OK, EXIT_USAGE, EXIT_RANGE, EXIT_INTERNAL = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _usage(message: str):
    print(f"designbounds: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _inner_product(text: str) -> float:
    """An inner product: a finite number in [-1, 1]."""
    x = float(text)
    if not -1.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError(f"not a finite number in [-1, 1]: {text!r}")
    return x


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _potential_or_usage(spec: str):
    try:
        return parse_potential(spec)
    except (RangeError, ValueError) as e:
        _usage(f"invalid potential spec {spec!r}: {e}")


def _collect(tried):
    """The reports of the tried (method, call) pairs, and the RangeError of
    each tried method that does not apply."""
    out, errors = [], []
    for method, call in tried:
        try:
            out.append(call())
        except RangeError as e:
            errors.append(f"{method}: {e}")
    return out, errors


def _lower_reports(n, N, tau, h, l_override=None):
    """ulb (its RangeError reaches the caller) and the other lower-bound methods that apply."""
    first = bounds.ulb(n, N, tau, h)
    tried = []
    if tau == 2:
        tried.append(("lower_2design", lambda: bounds.lower_2design(n, N, h)))
    if tau % 2 == 0:
        tried.append(("improved_even_lower",
                      lambda: bounds.improved_even_lower(n, N, tau // 2, h, ell=l_override)))
    reports, _ = _collect(tried)
    return [first, *reports]


def _upper_reports(n, N, tau, h, u_override=None):
    """_collect over the upper-bound methods tried at tau."""
    tried = []
    if tau == 2:
        tried.append(("upper_2design", lambda: bounds.upper_2design(n, N, h)))
    if tau in (3, 4):
        tried.append(("upper_cubic", lambda: bounds.upper_cubic(n, N, tau, h, u_override)))
    if tau % 2 == 1 and u_override is not None:
        tried.append(("strip_odd", lambda: bounds.strip_odd(n, N, tau, h, u_override)))
    return _collect(tried)


def _best(reports, pick):
    """The accepted report that pick (max or min) chooses by value, or None."""
    accepted = [r for r in reports if r.accepted]
    return pick(accepted, key=lambda r: r.value) if accepted else None


def _side_json(reports, pick):
    best = _best(reports, pick)
    return {
        "best_value": best.value if best else None,
        "best_method": best.method if best else None,
        "methods": [r.to_json() for r in reports],
    }


def cmd_bound(args) -> int:
    h = _potential_or_usage(args.potential)
    result = {}
    if args.side in ("lower", "strip"):
        result["lower"] = _side_json(_lower_reports(args.n, args.N, args.tau, h, args.l), max)
    if args.side in ("upper", "strip"):
        uppers, errors = _upper_reports(args.n, args.N, args.tau, h, args.u)
        if not uppers:
            where = f"(n={args.n}, N={args.N}, tau={args.tau})"
            if errors:
                reason = f"no upper-bound method applies to {where}: {'; '.join(errors)}"
            else:
                levenshtein._admissible(args.n, args.tau, args.N)  # bad input is named first
                without = " without --u" if args.tau % 2 else ""
                reason = f"no upper-bound method exists for tau = {args.tau}{without}"
            if args.side == "upper":
                raise RangeError(reason)
            print(f"designbounds: note: {reason}", file=sys.stderr)
        result["upper"] = _side_json(uppers, min)
    print(jsonio.dumps(result))
    return EXIT_OK


def cmd_quadrature(args) -> int:
    rule = levenshtein.quadrature_rule(args.n, args.tau, args.N)
    print(jsonio.dumps(rule.to_json()))
    return EXIT_OK


def cmd_testfn(args) -> int:
    table = bounds.test_table(args.n, args.tau, args.N, args.jmax)
    print(jsonio.dumps(table.to_json()))
    return EXIT_OK


# builder -> (the options it needs, constructor taking them in order)
_BUILDERS = {
    "simplex": (("n",), codes.simplex),
    "orthogonal-simplices": (("a", "b"), codes.orthogonal_simplices),
    "cross-polytope": (("n",), codes.cross_polytope),
    "kerdock": (("l",), codes.kerdock),
}


def cmd_code(args) -> int:
    needs, build = _BUILDERS[args.builder]
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        _usage(f"builder {args.builder} needs {', '.join(missing)}")
    if args.max_tau < 0:
        _usage(f"--max-tau must be >= 0, got {args.max_tau}")
    dist = build(*(getattr(args, name) for name in needs))
    h = _potential_or_usage(args.potential)
    out = dist.to_json()
    out["energy"] = codes.energy(dist, h)
    out["strength"] = codes.strength(dist, args.max_tau)
    out["potential"] = h.spec_string()
    print(jsonio.dumps(out))
    return EXIT_OK


def _sweep_points(args):
    pts = []
    for n in args.n:
        for tau in args.tau:
            lo = levenshtein.dgs_bound(n, tau)
            hi = levenshtein.dgs_bound(n, tau + 1)
            if args.N == "auto":
                Ns = sorted({lo, (lo + hi) // 2, hi})
            else:
                Ns = [N for N in args.N if lo <= N <= hi]
            for N in Ns:
                pts.append((n, N, tau))
    return pts


def _sweep_one(point, h, u):
    n, N, tau = point
    row = {"n": n, "N": N, "tau": tau}
    try:
        lowers = _lower_reports(n, N, tau, h)
        uppers, _ = _upper_reports(n, N, tau, h, u)
    except (RangeError, InternalConsistencyError, ConvergenceError) as e:
        row["error"] = str(e)
        row["failed"] = not isinstance(e, RangeError)
        return row
    # the reports built this point's rule, so this is a memo hit
    row["s"] = levenshtein.quadrature_rule(n, tau, N).s
    for side, reports, pick in (("lower", lowers, max), ("upper", uppers, min)):
        best = _best(reports, pick)
        if best is not None:
            row[f"{side}_best"] = best.value
            row[f"{side}_method"] = best.method
            row[f"{side}_margin"] = best.margins.get("sign_margin")
    return row


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_rows(points, h, u, jobs):
    """_sweep_one at every point, rows in point order. With jobs > 1 the (n,
    tau) groups are dealt round-robin over up to jobs processes, at most one
    per usable CPU and per group: a group's N values share the (n, m) memo
    of levenshtein.interval. Serial where fork is missing or another thread
    runs, since a child could inherit a lock that thread holds."""
    if jobs > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        groups = [list(i) for _, i in itertools.groupby(
            range(len(points)), key=lambda i: (points[i][0], points[i][2]))]
        procs = min(jobs, _usable_cpus(), len(groups))
        if procs > 1:
            shares = [list(itertools.chain(*groups[k::procs])) for k in range(procs)]
            return _forked_rows(points, shares, h, u)
    return [_sweep_one(p, h, u) for p in points]


def _sweep_share(points, h, u):
    """_sweep_one over points until one raises: the rows of the points
    before it, and the exception, or None."""
    rows = []
    for point in points:
        try:
            rows.append(_sweep_one(point, h, u))
        except Exception as e:
            return rows, e
    return rows, None


def _share_in_child(fd, points, h, u):
    """In a forked child: send _sweep_share's outcome down the pipe fd and
    exit without returning, so nothing the parent holds is flushed or run
    twice. An outcome that does not pickle is not sent."""
    code = 1
    try:
        data = pickle.dumps(_sweep_share(points, h, u))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _forked_rows(points, shares, h, u):
    """Share 0 runs here and each other share in a forked child. Every child
    is reaped before this returns or raises, and killed first unless every
    outcome was read. Then the rows are put in point order, and the
    exception of the earliest point that raised, if any, is raised, as the
    serial loop raises it."""
    children = []  # (pid, read end of its pipe)
    read = False
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _share_in_child(w, [points[i] for i in share], h, u)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        outcomes = [_sweep_share([points[i] for i in shares[0]], h, u)]
        for pid, pipe in children:
            try:
                outcomes.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"sweep process {pid} ended without its rows") from None
        read = True
    finally:
        for pid, pipe in children:
            pipe.close()
            if not read:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    rows, first = [None] * len(points), None  # first: (point, exception)
    for share, (done, error) in zip(shares, outcomes):
        for i, row in zip(share, done):
            rows[i] = row
        if error is not None and (first is None or share[len(done)] < first[0]):
            first = (share[len(done)], error)
    if first:
        raise first[1]
    return rows


def cmd_sweep(args) -> int:
    h = _potential_or_usage(args.potential)
    points = _sweep_points(args)
    if not points:
        _usage("empty sweep grid")
    rows = _sweep_rows(points, h, args.u, args.jobs)
    failed = sum(row.pop("failed", False) for row in rows)
    if failed:
        print(f"internal failure at {failed} of {len(rows)} sweep points; see their error rows",
              file=sys.stderr)
    exit_code = EXIT_INTERNAL if failed else EXIT_OK
    if args.format == "json":
        print(jsonio.dumps(rows))
        return exit_code
    cols = [
        "n", "N", "tau", "s",
        "lower_best", "lower_method", "lower_margin",
        "upper_best", "upper_method", "upper_margin", "error",
    ]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in cols})
    sys.stdout.write(buf.getvalue())
    return exit_code


def build_parser() -> _Parser:
    p = _Parser(prog="designbounds", description="LP energy bounds for spherical designs")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="energy bounds for (n, N, tau)")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--N", type=float, required=True)
    b.add_argument("--tau", type=int, required=True)
    b.add_argument("--potential", required=True)
    b.add_argument("--side", choices=["lower", "upper", "strip"], default="strip")
    b.add_argument("--u", type=_inner_product, help="largest admissible inner product")
    b.add_argument("--l", type=_inner_product, help="smallest admissible inner product")
    b.add_argument("--verify", action="store_true", help="ignored; acceptance is the check")
    b.set_defaults(func=cmd_bound)

    q = sub.add_parser("quadrature", help="Levenshtein quadrature rule")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--tau", type=int, required=True)
    q.add_argument("--N", type=float, required=True)
    q.set_defaults(func=cmd_quadrature)

    t = sub.add_parser("testfn", help="test-function table Q_1..Q_jmax")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--tau", type=int, required=True)
    t.add_argument("--N", type=float, required=True)
    t.add_argument("--jmax", type=_positive_int, required=True)
    t.set_defaults(func=cmd_testfn)

    c = sub.add_parser("code", help="explicit configuration energy and strength")
    c.add_argument("--builder", required=True, choices=sorted(_BUILDERS))
    c.add_argument("--n", type=int, default=None)
    c.add_argument("--a", type=int, default=None)
    c.add_argument("--b", type=int, default=None)
    c.add_argument("--l", type=int, default=None)
    c.add_argument("--potential", required=True)
    c.add_argument("--max-tau", type=int, default=6, dest="max_tau")
    c.set_defaults(func=cmd_code)

    s = sub.add_parser("sweep", help="grid sweep over (n, N, tau)")
    s.add_argument("--n", type=_int_list, required=True, help="comma-separated dimensions")
    s.add_argument("--tau", type=_int_list, required=True, help="comma-separated strengths")
    s.add_argument("--N", type=lambda text: text if text == "auto" else _int_list(text),
                   default="auto", help="'auto' (endpoints+midpoint) or comma list")
    s.add_argument("--potential", required=True)
    s.add_argument("--u", type=_inner_product)
    s.add_argument("--format", choices=["csv", "json"], default="csv")
    s.add_argument("--jobs", type=_positive_int, default=1,
                   help="deal the (n, tau) groups over up to min(J, CPUs, groups) forked"
                        " processes; same output as 1")
    s.add_argument("--verify", action="store_true", help="ignored; acceptance is the check")
    s.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return int(e.code or 0)
    except RangeError as e:
        print(f"range error: {e}", file=sys.stderr)
        return EXIT_RANGE
    except InternalConsistencyError as e:
        print(f"internal consistency failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except ConvergenceError as e:
        print(f"convergence failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
