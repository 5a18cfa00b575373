import contextlib
import math

import numpy as np
import pytest

from designbounds import codes, innerprod
from designbounds.errors import RangeError
from designbounds.levenshtein import dgs_bound, quadrature_rule
from designbounds.orthopoly import poly_from_roots


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


def test_even_range_closed_form():
    # k=1, n=3, N=5: f(t) = (t-s)^2 with s=-1/9, gamma_0 N = 5/8
    xi, eta = innerprod.even_range(3, 5, 1)
    s = -1.0 / 9.0
    target = math.sqrt(5.0 / 8.0) * (s + 1.0)
    assert xi == pytest.approx(s - target, abs=1e-12)
    assert eta == pytest.approx(s + target, abs=1e-12)


def test_even_range_satisfies_equation():
    for (n, N, k) in [(3, 5, 1), (4, 17, 2), (5, 60, 3)]:
        xi, eta = innerprod.even_range(n, N, k)
        rule = quadrature_rule(n, 2 * k, N)
        f = poly_from_roots([(b, 2) for b in rule.nodes[1:]])
        target = rule.weights[0] * N * f(-1.0)
        assert f(xi) == pytest.approx(target, abs=1e-10)
        assert f(eta) == pytest.approx(target, abs=1e-10)
        assert -1.0 < xi < rule.nodes[1]
        assert rule.nodes[-1] < eta < 1.0


def test_even_range_rejects_endpoints():
    with pytest.raises(RangeError):
        innerprod.even_range(3, 4, 1)


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
            ends.append(innerprod.even_range(n, N, tau // 2)[1])
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
            ends.append(innerprod.even_range(n, N, tau // 2)[0])
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
