"""Acceptance suite: one test and one printed PASS/FAIL line per criterion."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.special import roots_jacobi

from designbounds import bounds, codes, innerprod
from designbounds.levenshtein import dgs_bound, interval as lev_interval
from designbounds.levenshtein import quadrature_rule
from designbounds.orthopoly import Poly, gegenbauer_expand, gegenbauer_table
from designbounds.potentials import make_gauss, make_log, make_riesz


def _lev_bound_m():
    """The 50-digit Levenshtein bound L_m(n, s), the oracle test_levenshtein
    keeps."""
    path = Path(__file__).with_name("test_levenshtein.py")
    spec = importlib.util.spec_from_file_location("levenshtein_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.lev_bound_m


GRID_N = (3, 4, 5, 8, 24)
GRID_TAU = tuple(range(1, 11))


def _grid_points():
    for n in GRID_N:
        for tau in GRID_TAU:
            lo, hi = dgs_bound(n, tau), dgs_bound(n, tau + 1)
            for N in (float(lo), (lo + hi) / 2.0, float(hi)):
                yield n, tau, N


def _report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {tag} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def _gauss_oracle(n, j):
    # independent Gauss-Jacobi integration of P_j against the sphere weight
    lam = (n - 3) / 2.0
    x, w = roots_jacobi(j // 2 + 2, lam, lam)
    w = w / np.sum(w)
    return float(np.dot(w, gegenbauer_table(n, j, x)[j]))


def test_criterion_01_quadrature_exactness():
    worst = 0.0
    for n, tau, N in _grid_points():
        rule = quadrature_rule(n, tau, N)
        # P_j(1) = 1 at the node t = 1 of weight 1/N
        table = gegenbauer_table(n, tau, rule.nodes)
        for j in range(tau + 1):
            got = 1.0 / N + float(np.dot(rule.weights, table[j]))
            want = _gauss_oracle(n, j)
            worst = max(worst, abs(got - want))
    _report(1, worst <= 1e-9, f"worst exactness residual {worst:.3e}")


def test_criterion_02_closed_form_rule():
    rule = quadrature_rule(3, 2, 5)
    ok = (
        abs(rule.nodes[0] + 1.0) <= 1e-12
        and abs(rule.nodes[1] + 1.0 / 9.0) <= 1e-12
        and abs(rule.weights[0] - 1.0 / 8.0) <= 1e-12
        and abs(rule.weights[1] - 27.0 / 40.0) <= 1e-12
        and abs(rule.weights[0] * 5 - 5.0 / 8.0) <= 1e-12
    )
    _report(2, ok, f"nodes {list(rule.nodes)}, weights {list(rule.weights)}")


def test_criterion_03_endpoint_identities():
    lev_bound_m = _lev_bound_m()
    worst = 0.0
    for n in (3, 4, 8):
        for k in range(1, 7):
            lo_odd, _ = lev_interval(n, 2 * k - 1)
            D = dgs_bound(n, 2 * k - 1)
            worst = max(worst, float(abs(lev_bound_m(n, 2 * k - 1, lo_odd) - D) / D))
            lo_even, _ = lev_interval(n, 2 * k)
            D2 = dgs_bound(n, 2 * k)
            worst = max(worst, float(abs(lev_bound_m(n, 2 * k, lo_even) - D2) / D2))
    _report(3, worst <= 1e-8, f"worst relative endpoint mismatch {worst:.3e}")


def test_criterion_04_strip_collapse():
    potentials = [make_riesz(1.0), make_riesz(2.0), make_gauss(1.0)]
    worst = 0.0
    for n in range(3, 11):
        for N in (n + 1, n + 2):
            for h in potentials:
                lo = bounds.lower_2design(n, N, h).value
                up = bounds.upper_2design(n, N, h).value
                worst = max(worst, abs(lo - up) / max(1.0, abs(lo)))
    pin = abs(bounds.lower_2design(3, 5, make_riesz(2.0)).value - 8.5)
    pin = max(pin, abs(bounds.upper_2design(3, 5, make_riesz(2.0)).value - 8.5))
    ok = worst <= 1e-9 and pin <= 1e-12
    _report(4, ok, f"worst collapse gap {worst:.3e}, 8.5 pin error {pin:.3e}")


def test_criterion_05_sharpness_sandwiches():
    r2 = make_riesz(2.0)
    worst = 0.0
    for n in range(3, 9):
        for h in (make_riesz(1.0), r2, make_gauss(1.0)):
            e = codes.energy(codes.simplex(n), h)
            for v in (
                bounds.ulb(n, n + 1, 2, h).value,
                bounds.lower_2design(n, n + 1, h).value,
                bounds.upper_2design(n, n + 1, h).value,
            ):
                worst = max(worst, abs(v - e) / abs(e))
    e_oct = codes.energy(codes.cross_polytope(3), r2)
    worst = max(worst, abs(e_oct - 13.5) / 13.5)
    worst = max(worst, abs(bounds.ulb(3, 6, 3, r2).value - 13.5) / 13.5)
    e_mim = codes.energy(codes.orthogonal_simplices(3, 3), r2)
    worst = max(worst, abs(e_mim - 13.0) / 13.0)
    worst = max(worst, abs(bounds.lower_2design(4, 6, r2).value - 13.0) / 13.0)
    _report(5, worst <= 1e-10, f"worst sandwich mismatch {worst:.3e}")


def _mimura_half_energy(k, s):
    return k * k / 2 ** (s / 2) * (1 + (k * (k - 1) / k**2) * ((k - 1) / k) ** (s / 2))


def _competing_half_energy(k, s):
    m = 2 * k - 2
    return (
        2 * m / 2 ** (s / 2)
        * (1 + 1 / (2 * m * 2 ** (s / 2)) + (2 * k - 3) / 4 * ((2 * k - 3) / m) ** (s / 2))
    )


def test_criterion_06_mimura_identity_and_crossover():
    worst = 0.0
    for k in (2, 3, 5):
        for s in (1.0, 2.0, 4.0):
            e = codes.energy(codes.orthogonal_simplices(k, k), make_riesz(s))
            want = 2 * _mimura_half_energy(k, s)
            worst = max(worst, abs(e - want) / abs(want))
    crossover = None
    for s in range(1, 65):
        h = make_riesz(float(s))
        mim = codes.energy(codes.orthogonal_simplices(5, 5), h)
        comp = codes.energy(codes.orthogonal_simplices(2, 8), h)
        if mim > comp:
            crossover = s
            break
    ok = worst <= 1e-10 and crossover is not None
    _report(6, ok, f"identity mismatch {worst:.3e}; k=5 crossover at s = {crossover}")


def test_criterion_07_test_functions_and_improvement():
    worst = 0.0
    for n, tau, N in _grid_points():
        if tau % 2 == 0:
            continue
        table = bounds.test_table(n, tau, N, tau)
        worst = max(worst, max(abs(v) for v in table.values))
    pin = abs(bounds.test_table(3, 1, 4, 3).values[2] - 5.0 / 9.0)
    signs_ok = True
    q21 = {}
    for n in (3, 10, 18):
        lo, hi = dgs_bound(n, 17), dgs_bound(n, 18)
        q = bounds.test_table(n, 17, (lo + hi) / 2.0, 21).values[20]
        q21[n] = q
        signs_ok = signs_ok and q < 0
    ok = worst <= 1e-9 and pin <= 1e-12 and signs_ok
    _report(7, ok, f"Q residual {worst:.2e}; Q_3 pin {pin:.2e}; Q_21 {q21}")


def test_criterion_08_certificate_integrity():
    rng = np.random.default_rng(20260823)
    potentials = [make_riesz(1.0), make_riesz(2.0), make_riesz(3.0), make_gauss(1.0), make_log()]
    checked = failed = 0
    while checked < 500:
        n = int(rng.integers(3, 9))
        tau = int(rng.integers(1, 7))
        lo, hi = dgs_bound(n, tau), dgs_bound(n, tau + 1)
        N = float(lo + (hi - lo) * rng.uniform())
        h = potentials[int(rng.integers(len(potentials)))]
        reports = [bounds.ulb(n, N, tau, h)]
        if tau == 2 and n + 1 <= N < 2 * n:
            reports.append(bounds.lower_2design(n, N, h))
            reports.append(bounds.upper_2design(n, N, h))
        if tau % 2 == 0 and lo < N < hi:
            reports.append(bounds.improved_even_lower(n, N, tau // 2, h))
        for rep in reports:
            if not rep.accepted:
                continue
            checked += 1
            if not rep.verify():
                failed += 1
    _report(8, failed == 0, f"{checked} certificates re-verified, {failed} failures")


def test_criterion_09_ulb_optimality():
    rng = np.random.default_rng(42)
    grid = np.linspace(-1.0, 1.0 - 1e-9, 20001)
    points = [(3, 2, 5.0), (3, 3, 7.0), (4, 3, 10.0), (5, 4, 25.0), (4, 5, 20.0)]
    h = make_riesz(2.0)
    hg = h.eval(grid)
    worst_excess = -math.inf
    for n, tau, N in points:
        ulb_val = bounds.ulb(n, N, tau, h).value
        base = bounds.ulb(n, N, tau, h).certificate.poly
        for _ in range(100):
            delta = Poly(rng.normal(scale=0.05, size=tau + 1))
            f = Poly(npoly.polyadd(base.coeffs, delta.coeffs))
            # push the perturbed polynomial back under h by a constant
            shift = float(np.max(f(grid) - hg))
            f = Poly(npoly.polysub(f.coeffs, [shift + 1e-12]))
            exp = gegenbauer_expand(n, f)
            val = N * (exp.coeffs[0] * N - float(f(1.0)))
            worst_excess = max(worst_excess, val - ulb_val)
    _report(9, worst_excess <= 1e-8, f"max value excess over ULB {worst_excess:.3e}")


def test_criterion_10_kerdock():
    ok = True
    details = []
    for l in (2, 3):
        d = codes.kerdock(l)
        n, N = d.n, d.N
        ok = ok and codes.strength(d, 6) == 3
        for h in (make_riesz(2.0), make_gauss(1.0)):
            e = codes.energy(d, h)
            closed = N * (
                (2 ** (2 * l + 1) - 2) * float(h.eval(0.0))
                + 2 ** (2 * l) * (2 ** (2 * l - 1) - 1)
                * float(h.eval(1 / math.sqrt(n)) + h.eval(-1 / math.sqrt(n)))
                + float(h.eval(-1.0))
            )
            ok = ok and abs(e - closed) / abs(closed) <= 1e-10
            delta = 1 / math.sqrt(n)
            sup_hp = float(np.max(np.abs(h.derivative(np.linspace(-delta, delta, 201), 1))))
            gap = abs(e / N**2 - float(h.eval(0.0)))
            ok = ok and gap <= 5.0 / math.sqrt(N) * sup_hp
            details.append(f"l={l} {h.name}: main-term gap {gap:.2e}")
    _report(10, ok, "; ".join(details))


def test_criterion_11_asymptotics():
    # the 2-design strip's terms to order 1/N leave N |gap| -> 0 at N/n =
    # 3/2: the lower one is exact up to round-off, the upper one's N^2 |gap|
    # stays below 10 (up to 6.8, riesz s = 1)
    r2 = make_riesz(2.0)
    zeta = 1.5
    worst = 0.0
    for h in (make_riesz(1.0), make_log(), make_gauss(1.0)):
        for n in (10**2, 10**3, 10**4, 10**5, 10**6):
            N = 3 * n // 2
            lm, um = bounds.strip2_asym(zeta, h, N)
            for exact, asym in ((bounds.lower_2design(n, N, h).value, lm),
                                (bounds.upper_2design(n, N, h).value, um)):
                worst = max(worst, N**2 * abs(exact / N**2 - asym))
    small = worst < 10
    gaps4 = []
    for n in (50, 100, 200):
        N = round(n * n * 0.6)
        exact = bounds.upper_cubic(n, N, 4, r2).value
        asym = bounds.upper4_asym(0.6, r2, N)
        gaps4.append(abs(exact - asym) / abs(exact))
    mono4 = all(b < a for a, b in zip(gaps4, gaps4[1:]))
    ok = small and mono4
    _report(
        11, ok,
        f"strip N^2 |gap| up to {worst:.2f}; "
        f"degree-4 gaps {['%.2e' % g for g in gaps4]}",
    )
