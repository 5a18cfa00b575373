"""The benchmark's workloads: seeded inputs, one operation each, and the
check of every operation's output.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned and been checked. An operation is the
program call together with the check of its output; both are timed. The
load goes through the public entry points only: ``cli.main`` in-process with
stdout and stderr captured, the ``bounds`` functions and
``BoundReport.verify``.

No (n, N, tau) triple repeats within a run of sweep-grid or high-degree, so
an in-process cache cannot produce a gain that a user running the command
from a shell never sees. reverify cycles through its set of reports, but
rebuilds every report from its JSON text, so no object is shared between
two operations.

Baseline figures are medians of ten 30 s runs (seeds 1-10; the second set
11-20) at the commit that added the benchmark, on 2 CPUs with Python
3.11.7, numpy 2.4.6, scipy 1.17.1 and OpenBLAS 0.3.31 pinned to one thread.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random

import numpy as np
from numpy.polynomial import polynomial as npoly

from designbounds import bounds, cli, codes, jsonio, levenshtein
from designbounds.bounds import BoundReport, Certificate
from designbounds.errors import InfeasibleRange, RangeError
from designbounds.levenshtein import DesignSpec
from designbounds.orthopoly import GegExpansion, Poly
from designbounds.potentials import parse_potential

# relative tolerance of the output checks; the program's default DEB_TOL
TOL = 1e-9


class OpFailed(Exception):
    """The program returned a non-zero exit code."""


class CheckFailed(Exception):
    """The program returned an output that is wrong."""


def run_cli(argv: list[str]) -> str:
    """Run ``designbounds`` in-process and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def potential_values(spec: str, t: np.ndarray) -> np.ndarray:
    """h(t) for a potential spec string, written out with plain numpy."""
    name, _, rest = spec.partition(":")
    params = dict(item.split("=") for item in rest.split(",") if item)
    if name == "riesz":
        return (2.0 * (1.0 - t)) ** (-float(params["s"]) / 2.0)
    if name == "gauss":
        return np.exp(float(params["c"]) * t)
    if name == "log":
        return 0.5 * np.log(2.0 / (1.0 - t))
    raise ValueError(f"no reference formula for potential {spec!r}")


class SweepGrid:
    """sweep-grid: one op is ``sweep --n a,b,c,d --tau 2,...,8 --N auto
    --verify --jobs 2`` with a Riesz potential, 84 (n, N, tau) points.

    Why: the batch use. Every point builds its quadrature rule about 2.4
    times across methods, so reuse within one call shows here, and
    ``--jobs 2`` keeps the cost of the sweep thread pool visible.
    Loads: levenshtein (quadrature_rule, solve_cardinality, interval),
    orthopoly (jacobi_zeros, gegenbauer_derivative, Poly.__call__), the
    bounds methods of every even and small tau, innerprod.best_range and
    the cli thread pool. Bypasses: degrees above 8 and the codes module.

    The seed draws the dimensions as a permutation of 3..160, four per op,
    and a Riesz exponent in [1, 3] per op. A run therefore has at most 39
    ops; it ends early when they are used up, so that no triple repeats.

    Check: 84 rows, no row with an error, and lower_best <= upper_best on
    every row that has both (equal up to TOL where the strip collapses).

    Baseline (median of ten runs; second set in parentheses): ops_per_s
    0.92 (0.96), op_p50_ms 1090 (1043), op_p90_ms 1164 (1118), setup_s 0.81
    (0.79), peak_rss_mb 84.2 (84.2); 25-31 ops per run. Traced: 200
    quadrature_rule calls per op for 84 points (2.4 per point, 42% of
    them distinct); cli.sweep.wait_ms is about 980 ms per op.
    """

    TAUS = (2, 3, 4, 5, 6, 7, 8)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        dims = rng.sample(range(3, 161), 158)
        self.ops = [
            (dims[i : i + 4], round(rng.uniform(1.0, 3.0), 2)) for i in range(0, 156, 4)
        ]

    @property
    def max_ops(self) -> int:
        return len(self.ops)

    def run(self, i: int) -> None:
        ns, s = self.ops[i]
        out = run_cli([
            "sweep", "--n", ",".join(map(str, ns)),
            "--tau", ",".join(map(str, self.TAUS)), "--N", "auto",
            "--potential", f"riesz:s={s}", "--verify", "--jobs", "2",
        ])
        rows = list(csv.DictReader(io.StringIO(out)))
        if len(rows) != 3 * len(ns) * len(self.TAUS):
            raise CheckFailed(f"{len(rows)} rows for dimensions {ns}")
        for row in rows:
            where = f"(n={row['n']}, N={row['N']}, tau={row['tau']})"
            if row["error"] or not row["lower_best"]:
                raise CheckFailed(f"no lower bound at {where}: {row['error']}")
            if row["upper_best"]:
                lo, hi = float(row["lower_best"]), float(row["upper_best"])
                if lo > hi + TOL * max(1.0, abs(hi)):
                    raise CheckFailed(f"lower {lo} > upper {hi} at {where}")


class HighDegree:
    """high-degree: one op is ``bound --side lower --verify`` at odd tau
    from 13 to 33, so each op derives one Levenshtein rule of k = 7..17
    nodes and one universal lower bound.

    Why: each op calls ``quadrature_rule`` exactly once, so reuse cannot
    help, and root finding in orthopoly grows about k^2 (15-60 ms per op).
    Loads: orthopoly (jacobi_zeros, gegenbauer_derivative, Poly.__call__),
    levenshtein, hermite.interpolate, jsonio. Bypasses: the sweep thread
    pool, innerprod, the 2-design and cubic bounds, codes.

    The (n, tau) pairs are n = 3 with tau in {13, 17, 21}, n = 8 with tau
    in {13, ..., 25} and n = 24 with tau in {13, ..., 33}; ops cycle through
    them, each with riesz s=1, riesz s=2 and log, in a seeded order, so that
    every run has the same mix. The seed draws N uniformly inside
    (D(n, tau), D(n, tau + 1)) as a float, so that no triple repeats. Inputs the program cannot
    certify are left out, because an op that fails measures the failure
    path instead of the derivation. At the commit that added the benchmark,
    these exit 3 from round-off in the certificate for some or all N:
    n = 3 at tau >= 25, n = 8 at tau >= 29, riesz s=3 at n = 8, tau = 25,
    and gauss c=1 at n = 24 from tau = 21; and n >~ 164 - tau raises
    LinAlgError from the monomial Jacobi coefficients.

    Check, from the printed JSON with plain numpy: every accepted method
    has value N(f_0 N - f(1)) and h - f >= 0 on the certificate interval,
    sampled on the program's own 20001-point grid; best_value is the
    largest accepted value.

    Baseline (median of ten runs; second set in parentheses): ops_per_s
    22.9 (24.1), op_p50_ms 37.7 (36.2), op_p90_ms 78.9 (70.1), setup_s 0.82
    (0.71), peak_rss_mb 83.6 (83.7); 637-924 ops per run. Traced:
    jacobi_zeros takes 59% of the traced self time, gegenbauer_derivative
    21%, Poly.__call__ 8%, quadrature_rule 5%.
    """

    PAIRS = (
        [(3, tau) for tau in (13, 17, 21)]
        + [(8, tau) for tau in (13, 17, 21, 25)]
        + [(24, tau) for tau in (13, 17, 21, 25, 29, 33)]
    )
    POTENTIALS = ("riesz:s=1", "riesz:s=2", "log")
    A1_GRID = 20_001
    max_ops = math.inf

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.order: list[tuple[int, int, str]] = []

    def _next_input(self) -> tuple[int, float, int, str]:
        if not self.order:
            combos = [(n, tau, pot) for n, tau in self.PAIRS for pot in self.POTENTIALS]
            self.order = self.rng.sample(combos, len(combos))
        n, tau, pot = self.order.pop()
        lo, hi = levenshtein.dgs_bound(n, tau), levenshtein.dgs_bound(n, tau + 1)
        N = lo + (hi - lo) * self.rng.uniform(0.001, 0.999)
        return n, N, tau, pot

    def run(self, i: int) -> None:
        n, N, tau, pot = self._next_input()
        out = run_cli([
            "bound", "--n", str(n), "--N", repr(N), "--tau", str(tau),
            "--potential", pot, "--side", "lower", "--verify",
        ])
        side = json.loads(out)["lower"]
        accepted = [m for m in side["methods"] if m["accepted"]]
        if not accepted:
            raise CheckFailed(f"no accepted lower bound at (n={n}, N={N}, tau={tau})")
        for m in accepted:
            self._check_certificate(m)
        if side["best_value"] != max(m["value"] for m in accepted):
            raise CheckFailed("best_value is not the largest accepted value")

    def _check_certificate(self, m: dict) -> None:
        c = m["certificate"]
        N = float(m["spec"]["N"])
        coeffs = np.asarray(c["poly"])
        value = N * (c["gegenbauer"][0] * N - npoly.polyval(1.0, coeffs))
        if abs(value - m["value"]) > TOL * max(1.0, abs(m["value"])):
            raise CheckFailed(f"{m['method']}: value {m['value']} but certificate gives {value}")
        lo, hi = c["interval"]
        t = np.linspace(lo, hi, self.A1_GRID)
        h = potential_values(m["potential"], t)
        gap = h - npoly.polyval(t, coeffs)
        if c["relation"] == "above":
            gap = -gap
        slack = TOL * np.maximum(1.0, np.abs(h))
        worst = int(np.argmin(gap + slack))
        if gap[worst] < -slack[worst]:
            raise CheckFailed(f"{m['method']}: h - f = {gap[worst]:.3e} at t = {t[worst]:.6f}")


def _configurations(n: int) -> list[tuple[str, codes.InnerProductDistribution, int]]:
    """Explicit configurations in dimension n with the strength they have."""
    out = [("simplex", codes.simplex(n), 2), ("cross-polytope", codes.cross_polytope(n), 3)]
    if n % 2 == 0:
        k = n // 2 + 1
        out.append(("mimura", codes.orthogonal_simplices(k, k), 2))
    return out


class Reverify:
    """reverify: one op rebuilds one accepted report from its JSON text and
    calls ``verify()``; where an explicit configuration of the report's
    (n, N) is a tau-design, the op also checks its strength and that its
    energy lies on the report's side of the bound.

    Why: the read path, "reports re-verify from the certificate alone". No
    root finding and no quadrature rule runs in the timed ops, so changes
    on the derivation side should leave it unchanged, and a proof-grade
    ``verify()`` shows its cost here. Loads: hermite.verify_one_sided,
    Poly.__call__, Potential.eval, codes.energy and codes.strength.
    Bypasses: levenshtein, jacobi_zeros, interpolation, cli and jsonio.

    Set-up builds 339 accepted reports. 300 of them come from ulb at tau
    1..8, improved_even_lower at k 1..4, lower_2design, upper_2design and
    upper_cubic at tau 4, four of each with each of the potentials riesz
    s=1,2,3, gauss c=1 and log, so that every run has the same mix; the
    seed draws n in 3..8 and N. The other 39 are the simplex, the
    cross-polytope (through strip_odd with u = 0) and the Mimura
    configurations at their own (n, N), with a seeded potential. Ops cycle
    through the set in a seeded order.

    Check: verify() is True, and every configuration tied to the report
    has its stated strength and an energy on the report's side.

    Baseline (median of ten runs; second set in parentheses): ops_per_s
    1188 (1213), op_p50_ms 0.84 (0.78), op_p90_ms 1.08 (1.06), setup_s 2.33
    (2.41), peak_rss_mb 85.4 (85.5); 33000-54000 ops per run. Traced:
    Poly.__call__ takes 39% of the traced self time, Potential.eval 29%,
    verify_one_sided 26%; quadrature_rule is never called.
    """

    METHODS = (
        [("ulb", tau) for tau in range(1, 9)]
        + [("improved_even_lower", k) for k in range(1, 5)]
        + [("lower_2design", 2), ("upper_2design", 2), ("upper_cubic", 4)]
    )
    POTENTIALS = ("riesz:s=1", "riesz:s=2", "riesz:s=3", "gauss:c=1", "log")
    COPIES = 4
    max_ops = math.inf

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.configs = {
            (dist.n, dist.N): (name, dist, strength)
            for n in range(3, 9)
            for name, dist, strength in _configurations(n)
        }
        reports = []
        for (n, N), (name, _, _) in self.configs.items():
            h = parse_potential(rng.choice(self.POTENTIALS))
            if name == "cross-polytope":
                reports += [bounds.ulb(n, N, 3, h), bounds.strip_odd(n, N, 3, h, 0.0)]
            else:
                reports += [
                    bounds.ulb(n, N, 2, h),
                    bounds.lower_2design(n, N, h),
                    bounds.upper_2design(n, N, h),
                ]
        for method in self.METHODS:
            for spec in self.POTENTIALS * self.COPIES:
                reports.append(self._random_report(rng, method, parse_potential(spec)))
        self.texts = [jsonio.dumps(r.to_json()) for r in reports]
        rng.shuffle(self.texts)

    @staticmethod
    def _random_report(rng: random.Random, method: tuple, h) -> BoundReport:
        """An accepted report of the method at a seeded (n, N)."""
        name, order = method
        for _ in range(1000):
            n = rng.randint(3, 8)
            try:
                if name == "ulb":
                    lo, hi = levenshtein.dgs_bound(n, order), levenshtein.dgs_bound(n, order + 1)
                    report = bounds.ulb(n, rng.randint(lo, hi), order, h)
                elif name == "improved_even_lower":
                    lo, hi = levenshtein.dgs_bound(n, 2 * order), levenshtein.dgs_bound(n, 2 * order + 1)
                    report = bounds.improved_even_lower(n, rng.randint(lo + 1, hi - 1), order, h)
                elif name == "upper_cubic":
                    report = bounds.upper_cubic(n, rng.randint(n * (n + 3) // 2, n * n + n - 1), 4, h)
                else:
                    report = getattr(bounds, name)(n, rng.randint(n + 1, 2 * n - 1), h)
            except (RangeError, InfeasibleRange):
                continue
            if report.accepted:
                return report
        raise RuntimeError(f"no accepted {name} report in 1000 draws")

    def run(self, i: int) -> None:
        d = json.loads(self.texts[i % len(self.texts)])
        spec = DesignSpec(**d["spec"])
        c = d["certificate"]
        report = BoundReport(
            spec=spec,
            side=d["side"],
            value=d["value"],
            method=d["method"],
            certificate=Certificate(
                poly=Poly(c["poly"]),
                gegenbauer=GegExpansion(n=spec.n, coeffs=tuple(c["gegenbauer"])),
                lo=c["interval"][0],
                hi=c["interval"][1],
                relation=c["relation"],
            ),
            h=parse_potential(d["potential"]),
            accepted=d["accepted"],
        )
        where = f"{report.method} at (n={spec.n}, N={spec.N}, tau={spec.tau})"
        if not report.verify():
            raise CheckFailed(f"verify() rejected {where}")
        config = self.configs.get((spec.n, spec.N))
        if config is None or config[2] < spec.tau:
            return
        name, dist, strength = config
        if codes.strength(dist, strength) != strength:
            raise CheckFailed(f"{name} in dimension {spec.n} is not a {strength}-design")
        energy = codes.energy(dist, report.h)
        slack = TOL * max(1.0, abs(report.value))
        if report.side == "lower":
            outside = energy < report.value - slack
        else:
            outside = energy > report.value + slack
        if outside:
            raise CheckFailed(f"{name} energy {energy} is outside the {report.side} bound of {where}")


WORKLOADS = {"sweep-grid": SweepGrid, "high-degree": HighDegree, "reverify": Reverify}
