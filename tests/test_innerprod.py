import contextlib
import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from designbounds import codes, innerprod
from designbounds.errors import RangeError
from designbounds.levenshtein import _admissible, dgs_bound, quadrature_rule


def test_u_bound_tau2():
    assert innerprod.u_bound(3, 5, 2) == pytest.approx(0.0)
    assert innerprod.u_bound(3, 4, 2) == pytest.approx(-1.0 / 3.0)
    with pytest.raises(RangeError):
        innerprod.u_bound(3, 7, 2)


def test_l_bound_tau2():
    assert innerprod.l_bound(3, 5, 2) == pytest.approx(-2.0 / 3.0)
    assert innerprod.l_bound(3, 4, 2) == pytest.approx(-1.0 / 3.0)
    with pytest.raises(RangeError):
        innerprod.l_bound(3, 6, 2)  # upper endpoint is excluded


def test_tau4_bounds_bracket_nodes():
    n, N = 4, 16
    l4, u4 = innerprod.l_bound(n, N, 4), innerprod.u_bound(n, N, 4)
    rule = quadrature_rule(n, 4, N)
    betas = rule.nodes[1:]
    assert l4 < betas[0] and betas[-1] < u4


def _even_equation(n, N, k):
    """f and gamma_0 N f(-1), f(t) the product of (t - beta_i)^2 over the
    interior nodes of the even rule, in Python floats; a RangeError where N
    is not strictly between the cardinality bounds."""
    _admissible(n, 2 * k, N, "()")
    rule = quadrature_rule(n, 2 * k, N)
    betas = rule.nodes[1:].tolist()
    f = lambda t: math.prod((t - b) ** 2 for b in betas)
    return f, float(rule.weights[0]) * N * f(-1.0), betas


def _eta(n, N, k):
    """The largest root eta of the even-range equation, which the paper's
    upper end of the inner products is and the program does not compute."""
    f, target, betas = _even_equation(n, N, k)
    return brentq(lambda t: f(t) - target, betas[-1], 1.0, xtol=1e-15)


def test_even_range_closed_form():
    # k=1, n=3, N=5: f(t) = (t-s)^2 with s=-1/9, gamma_0 N = 5/8
    s = -1.0 / 9.0
    target = math.sqrt(5.0 / 8.0) * (s + 1.0)
    assert innerprod.even_xi(3, 5, 1) == pytest.approx(s - target, abs=1e-12)
    assert _eta(3, 5, 1) == pytest.approx(s + target, abs=1e-12)


def test_even_range_satisfies_equation():
    for (n, N, k) in [(3, 5, 1), (4, 17, 2), (5, 60, 3)]:
        f, target, betas = _even_equation(n, N, k)
        xi, eta = innerprod.even_xi(n, N, k), _eta(n, N, k)
        assert f(xi) == pytest.approx(target, abs=1e-10)
        assert f(eta) == pytest.approx(target, abs=1e-10)
        assert -1.0 < xi < betas[0]
        assert betas[-1] < eta < 1.0


def _mp_xi(n, N, k):
    """xi to 50 digits: the smallest root of the same product equation on
    the rule's double nodes and weight, bracketed on [-1, beta_1]."""
    rule = quadrature_rule(n, 2 * k, N)
    with mpmath.workdps(50):
        betas = [mpmath.mpf(b) for b in rule.nodes[1:].tolist()]
        f = lambda t: mpmath.fprod((t - b) ** 2 for b in betas)
        target = mpmath.mpf(float(rule.weights[0])) * N * f(mpmath.mpf(-1))
        return float(mpmath.findroot(lambda t: f(t) - target, (-1, betas[0]),
                                     solver="anderson"))


@pytest.mark.parametrize("n", [3, 8, 24, 60])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 15])
def test_even_xi_is_the_50_digit_root(n, k):
    N = (dgs_bound(n, 2 * k) + dgs_bound(n, 2 * k + 1)) // 2
    xi = innerprod.even_xi(n, N, k)
    # Newton's method stops within two ulps of 1 of the root
    assert xi == pytest.approx(_mp_xi(n, N, k), rel=0, abs=4.5e-16)


def _mp_log_xi(n, N, k, start):
    """xi to 50 digits as the root of log |p(t)| = log |p(-1)| - drop, drop
    = -log(gamma_0 N)/2, on the rule's double nodes and weight; -1 where
    drop <= 0 leaves no root. The secant method runs on u = log(beta_1 -
    t), where the equation has no pole, from the u of start."""
    rule = quadrature_rule(n, 2 * k, N)
    with mpmath.workdps(50):
        betas = [mpmath.mpf(b) for b in rule.nodes[1:].tolist()]
        drop = -mpmath.log(mpmath.mpf(float(rule.weights[0])) * N) / 2
        if drop <= 0:
            return -1.0
        c = mpmath.fsum(mpmath.log(b + 1) for b in betas) - drop
        g = lambda u: u + mpmath.fsum(mpmath.log(b - betas[0] + mpmath.exp(u)) for b in betas[1:]) - c
        u = mpmath.findroot(g, mpmath.log(betas[0] - start), tol=mpmath.mpf(10) ** -90,
                            verify=False)
        return float(betas[0] - mpmath.exp(u))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 24, 60, 10**3, 10**5, 10**8])
def test_even_xi_is_the_50_digit_root_from_bound_to_bound(n):
    # N = D(2k) + 1, where xi is within round-off of beta_1 and Newton's
    # first steps from -1 land past it, the middle and D(2k + 1) - 1
    for k in range(1, 31):
        lo, hi = dgs_bound(n, 2 * k), dgs_bound(n, 2 * k + 1)
        if hi > 2**1000:
            break
        for N in (lo + 1, (lo + hi) // 2, hi - 1):
            if not float(lo) < float(N) < float(hi):  # past 2^53, N rounds to a bound
                continue
            xi = innerprod.even_xi(n, N, k)
            assert xi == pytest.approx(_mp_log_xi(n, N, k, xi), rel=0, abs=4.5e-16), (k, N)


@pytest.mark.parametrize("n, N, k", [(3, 689, 25), (3, 742, 26), (8, 313956, 15),
                                     (60, 1.3737076437464382e16, 16)])
def test_even_xi_keeps_its_digits_in_the_zone(n, N, k):
    # Horner on the expanded product lost up to 1.7e-3 of xi at the first
    # three; at the last, weights from a Vandermonde solve gave gamma_0 N =
    # 1.368 > 1, which left no root on [-1, beta_1] (Christoffel: 0.577)
    assert innerprod.even_xi(n, N, k) == pytest.approx(_mp_xi(n, N, k), rel=0, abs=2e-15)


def test_even_range_rejects_endpoints():
    with pytest.raises(RangeError):
        innerprod.even_xi(3, 4, 1)


def test_best_range_tau2_lemmas_win():
    assert innerprod.best_range(3, 5, 2) == pytest.approx(-2.0 / 3.0)


def _upper_ends(n, N, tau):
    """The largest admissible inner product's bounds that apply at (n, N,
    tau): u_bound at tau in (2, 4) and eta at even tau."""
    ends = []
    if tau in (2, 4):
        ends.append(innerprod.u_bound(n, N, tau))
    if tau % 2 == 0:
        try:
            ends.append(_eta(n, N, tau // 2))
        except RangeError:  # N on an endpoint
            pass
    return ends


def _inside(dist, tau):
    ell = innerprod.best_range(dist.n, dist.N, tau)
    ts = np.array([t for t, _ in dist.entries])
    assert np.all(ts >= ell - 1e-12)
    for u in _upper_ends(dist.n, dist.N, tau):
        assert np.all(ts <= u + 1e-12)
    return ell


def test_best_range_mimura_inner_products_inside():
    dist = codes.orthogonal_simplices(4, 4)
    assert (dist.n, dist.N) == (6, 8)
    assert _inside(dist, 2) == pytest.approx(-1.0 / 3.0)
    assert min(_upper_ends(6, 8, 2)) == pytest.approx(0.0)


def test_best_range_trivial_for_tau1():
    assert innerprod.best_range(4, 3, 1) == -1.0


def test_builtin_designs_within_best_range():
    for dist in (codes.simplex(4), codes.orthogonal_simplices(3, 3), codes.cross_polytope(4)):
        _inside(dist, 2)


def _ell_max(n, N, tau):
    """max(-1, l_bound, xi) over the bounds that apply at (n, N, tau)."""
    ends = [-1.0]
    if tau in (2, 4):
        with contextlib.suppress(RangeError):
            ends.append(innerprod.l_bound(n, N, tau))
    if tau % 2 == 0:
        with contextlib.suppress(RangeError):
            ends.append(innerprod.even_xi(n, N, tau // 2))
    return max(ends)


def _ell_cases():
    # N = n + 1 at tau 2, the simplex: ell is l_bound = -1/n, which
    # round-off can put just above u_bound
    for n in (3, 7, 11, 12, 19):
        yield n, n + 1, 2, 1.0 - (n + 1) / n
    for n in (3, 4, 8, 24):
        for tau in range(1, 11):
            lo, hi = dgs_bound(n, tau), dgs_bound(n, tau + 1)
            for N in sorted({lo + 1, (lo + hi) // 2, hi - 1}):
                yield n, N, tau, None


@pytest.mark.parametrize("n, N, tau, want", list(_ell_cases()))
def test_best_range_is_the_largest_lower_end(n, N, tau, want):
    ell = innerprod.best_range(n, N, tau)
    assert type(ell) is float
    assert ell == (_ell_max(n, N, tau) if want is None else want)
