import math
import warnings

import mpmath
import numpy as np
import pytest

from designbounds import cli
from designbounds import levenshtein as lev
from designbounds import orthopoly as op
from designbounds.errors import InternalConsistencyError, RangeError


def test_dgs_bound_values():
    assert lev.dgs_bound(3, 1) == 2
    assert lev.dgs_bound(3, 2) == 4
    assert lev.dgs_bound(3, 3) == 6
    assert lev.dgs_bound(3, 4) == 9
    assert lev.dgs_bound(3, 5) == 12
    assert lev.dgs_bound(4, 3) == 8
    assert lev.dgs_bound(24, 5) == 2 * math.comb(25, 23)


def test_intervals_partition():
    for n in (3, 4, 8):
        prev_hi = -1.0
        for m in range(1, 9):
            lo, hi = lev.interval(n, m)
            assert lo == pytest.approx(prev_hi, abs=1e-12)
            assert hi > lo
            prev_hi = hi


def test_lev_bound_continuity_across_branches():
    for n in (3, 5):
        for m in range(1, 7):
            _, hi = lev.interval(n, m)
            left = lev.lev_bound_m(n, m, hi - 1e-9)
            right = lev.lev_bound_m(n, m + 1, hi + 1e-9)
            assert left == pytest.approx(right, rel=1e-5)


def test_endpoint_identities():
    # L at the interval ends equals the cardinality bounds
    for n in (3, 4, 8):
        for k in range(1, 7):
            lo, hi = lev.interval(n, 2 * k - 1)
            D = lev.dgs_bound(n, 2 * k - 1)
            assert lev.lev_bound_m(n, 2 * k - 1, lo) == pytest.approx(D, rel=1e-8)
            lo2, hi2 = lev.interval(n, 2 * k)
            D2 = lev.dgs_bound(n, 2 * k)
            assert lev.lev_bound_m(n, 2 * k, lo2) == pytest.approx(D2, rel=1e-8)


def test_solve_cardinality_round_trip():
    for n in (3, 4, 8):
        for tau in range(1, 8):
            lo, hi = lev.dgs_bound(n, tau), lev.dgs_bound(n, tau + 1)
            N = (lo + hi) / 2
            s = lev.solve_cardinality(n, tau, N)
            assert lev.lev_bound_m(n, tau, s) == pytest.approx(N, rel=1e-10)


def test_solve_cardinality_range_error_names_interval():
    with pytest.raises(RangeError, match=r"\[4, 6\]"):
        lev.solve_cardinality(3, 2, 99)


def test_int_past_the_doubles_is_outside():
    with pytest.raises(RangeError, match="outside admissible interval"):
        lev.solve_cardinality(3, 2, 2**1024)


def test_solve_cardinality_bad_bracket_is_range_error(monkeypatch):
    # round-off can leave L_tau - N without a sign change on the interval
    monkeypatch.setattr(lev, "lev_bound_m", lambda n, m, s: 0.0)
    with pytest.raises(RangeError, match="no sign change"):
        lev.solve_cardinality(3, 2, 5)


def test_tau1_closed_form():
    s = lev.solve_cardinality(5, 1, 3.5)
    assert s == pytest.approx(-1.0 / 2.5, abs=1e-14)


def test_quadrature_known_rule():
    rule = lev.quadrature_rule(3, 2, 5)
    assert rule.parity == "even"
    assert np.allclose(rule.nodes, [-1.0, -1.0 / 9.0], atol=1e-12)
    assert np.allclose(rule.weights, [1.0 / 8.0, 27.0 / 40.0], atol=1e-12)


def test_quadrature_exactness_against_gauss():
    for n in (3, 5, 8):
        for tau in (1, 2, 3, 4, 5, 6):
            lo, hi = lev.dgs_bound(n, tau), lev.dgs_bound(n, tau + 1)
            rule = lev.quadrature_rule(n, tau, (lo + hi) / 2)
            gauss = op.weight_rule(n, tau + 1)
            # P_j(1) = 1 at the node t = 1 of weight 1/N
            got = 1.0 / rule.spec.N + op.gegenbauer_table(n, tau, rule.nodes) @ rule.weights
            want = op.gegenbauer_table(n, tau, gauss.nodes) @ gauss.weights
            assert got == pytest.approx(want, abs=1e-11)


def test_quadrature_boundary_flag():
    assert lev.quadrature_rule(3, 3, 6).boundary
    assert not lev.quadrature_rule(3, 3, 7).boundary


def test_quadrature_rejects_small_N():
    with pytest.raises(RangeError):
        lev.quadrature_rule(3, 2, 1.0)


def test_odd_rule_largest_node_is_s():
    rule = lev.quadrature_rule(4, 5, 30)
    assert rule.parity == "odd"
    assert rule.nodes[-1] == pytest.approx(rule.s, abs=1e-14)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)


def test_even_rule_structure():
    rule = lev.quadrature_rule(4, 4, 17)
    assert rule.nodes[0] == -1.0
    assert rule.nodes[-1] == pytest.approx(rule.s, abs=1e-14)


def _gamma0_times_N(n, k, N):
    # the weight of t = -1 in the even rule, times N, as innerprod.even_xi reads it
    return lev.quadrature_rule(n, 2 * k, N).weights[0] * N


def test_gamma0_times_N_endpoints_and_interior():
    assert _gamma0_times_N(3, 1, 4) == pytest.approx(0.0, abs=1e-12)
    assert _gamma0_times_N(3, 1, 6) == pytest.approx(1.0, abs=1e-12)
    g = _gamma0_times_N(3, 1, 5)
    assert g == pytest.approx(5.0 / 8.0, abs=1e-12)


def test_gamma0_monotone_in_N():
    vals = [_gamma0_times_N(4, 2, N) for N in np.linspace(14.5, 19.5, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(0 < v < 1 for v in vals)


def test_memoised_rule_arrays_are_read_only():
    rule = lev.quadrature_rule(3, 3, 7)
    for arr in (rule.nodes, rule.weights, rule.exactness_residuals):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert lev.quadrature_rule(3, 3, 7) is rule


def test_failing_exactness_check_is_not_memoised(monkeypatch):
    # the residuals are nonzero (max about 1e-16), so a tolerance of 0
    # rejects the rule when it is built, and the rejection is not kept
    lev.quadrature_rule.cache_clear()
    monkeypatch.setattr(lev, "DEB_TOL", 0.0)
    with pytest.raises(InternalConsistencyError, match="exactness check failed"):
        lev.quadrature_rule(4, 5, 30)
    assert lev.quadrature_rule.cache_info().currsize == 0
    monkeypatch.undo()
    assert lev.DEB_TOL == 1e-9
    rule = lev.quadrature_rule(4, 5, 30)
    assert 0 < np.max(np.abs(rule.exactness_residuals)) <= 1e-9
    info = lev.quadrature_rule.cache_info()
    assert (info.misses, info.currsize) == (2, 1)
    assert lev.quadrature_rule(4, 5, 30) is rule


def test_int_and_float_N_keep_their_own_spec():
    as_int, as_float = lev.quadrature_rule(3, 3, 7), lev.quadrature_rule(3, 3, 7.0)
    assert as_int.to_json() == as_float.to_json()
    assert type(as_int.spec.N) is int and type(as_float.spec.N) is float


@pytest.mark.parametrize("n, tau, N", [(3, 2, 99), (3, 2, 1.0), (3, 61, 10**40)])
def test_range_error_is_not_memoised(n, tau, N):
    for _ in range(2):
        with pytest.raises(RangeError):
            lev.quadrature_rule(n, tau, N)


@pytest.mark.parametrize("n", [3, 4, 24, 200])
def test_rule_is_what_the_array_table_gives_bit_for_bit(n):
    # the rule's table is built one node at a time in Python floats; it must
    # be gegenbauer_table's, in C order, so the residuals' product sums in
    # the same order and keeps its bits
    for tau in (1, 2, 3, 4, 5, 8, 9, 13):
        lo, hi = lev.dgs_bound(n, tau), lev.dgs_bound(n, tau + 1)
        for N in (lo, (lo + hi) // 2, hi):
            rule = lev.quadrature_rule(n, tau, N)
            table = op.gegenbauer_table(n, tau, rule.nodes)
            res = 1.0 / N + table @ rule.weights
            res[0] -= 1.0
            assert res.tobytes() == rule.exactness_residuals.tobytes(), (tau, N)
            assert np.max(np.abs(res)) <= lev.DEB_TOL


def _mp_recurrence(alpha, beta, k):
    """_jacobi_recurrence's a_0..a_{k-1}, b_1..b_{k-1} in mpmath."""
    ab = alpha + beta
    a = [(beta - alpha) / (ab + 2)]
    b = [4 * (1 + alpha) * (1 + beta) / ((ab + 2) ** 2 * (ab + 3))]
    for j in range(1, k):
        s = 2 * j + ab
        a.append((beta**2 - alpha**2) / (s * (s + 2)))
        if j > 1:
            b.append(4 * j * (j + alpha) * (j + beta) * (j + ab) / (s * s * (s + 1) * (s - 1)))
    return a, b[: k - 1]


def _mp_monic(a, b, k, t):
    """p_{k-1}(t), p_k(t) and their derivatives, for the monic recurrence."""
    p0, p1, d0, d1 = 1, t - a[0], 0, 1
    for j in range(1, k):
        p0, p1, d0, d1 = (p1, (t - a[j]) * p1 - b[j - 1] * p0,
                          d1, p1 + (t - a[j]) * d1 - b[j - 1] * d0)
    return p0, p1, d0, d1


def _mp_newton(g, x):
    """The zero of g (value, derivative) that Newton's method reaches from x."""
    for _ in range(20):
        v, d = g(x)
        x -= v / d
        if abs(v / d) < 1e-27:  # the next step, quadratic, would be below 1e-50
            return x
    raise AssertionError(f"Newton's method did not converge from {x}")


def _mp_christoffel(a, b, xs):
    """orthopoly._christoffel in mpmath."""
    roots = [mpmath.sqrt(x) for x in b]
    out = []
    for x in xs:
        q_prev, q, r_prev, total = 0, mpmath.mpf(1), 0, mpmath.mpf(1)
        for aj, r in zip(a, roots):
            q_prev, q, r_prev = q, ((x - aj) * q - r_prev * q_prev) / r, r
            total += q * q
        out.append(1 / total)
    return out


def _mp_gegenbauer(n, d, t):
    """P_0..P_d at t, by the recurrence, in mpmath."""
    rows = [mpmath.mpf(1), t]
    for i in range(1, d):
        rows.append(((2 * i + n - 2) * t * rows[-1] - i * rows[-2]) / (i + n - 2))
    return rows


def _mp_rule(n, tau, rule, at_lo):
    """The rule of (n, tau) pinned at the program's s, in 50-digit mpmath:
    nodes by Newton's method on the kernel polynomial from the program's
    nodes, weights gamma_i / (1 - x_i) from the Gauss-Radau (odd tau) or
    Gauss-Lobatto (even tau) Christoffel numbers of (1 - t) dmu. At N =
    D(tau), even tau, it is the Gauss rule of (1 - t) dmu beside -1 at
    weight 0. Returns the weights, the same weight function at the
    program's own nodes, and the largest exactness residual on P_1..P_tau."""
    k = (tau + 1) // 2
    lam, s = mpmath.mpf(n - 3) / 2, mpmath.mpf(rule.s)
    ours = [mpmath.mpf(x) for x in rule.nodes.tolist()]
    a, b = _mp_recurrence(lam + 1, lam, k + 1 - tau % 2)

    def kernel(a, b):
        """p_k(t) p_{k-1}(s) - p_k(s) p_{k-1}(t) and its derivative."""
        q0, q1, _, _ = _mp_monic(a, b, k, s)

        def value(t):
            p0, p1, d0, d1 = _mp_monic(a, b, k, t)
            return p1 * q0 - q1 * p0, d1 * q0 - q1 * d0
        return value

    if tau % 2:
        g = kernel(a, b)
        xs = [*(_mp_newton(g, x) for x in ours[:-1]), s]
        weights = lambda xs: _mp_christoffel(a, b, xs)
    elif at_lo:
        g = lambda t: _mp_monic(a, b, k, t)[1::2]  # p_k and its derivative
        xs = [ours[0], *(_mp_newton(g, x) for x in ours[1:])]
        weights = lambda xs: [0, *_mp_christoffel(a, b[:-1], xs[1:])]
    else:
        g = kernel(*_mp_recurrence(lam + 1, lam + 1, k))
        xs = [ours[0], *(_mp_newton(g, x) for x in ours[1:-1]), s]
        u0, u1, _, _ = _mp_monic(a, b, k, xs[0])
        v0, v1, _, _ = _mp_monic(a, b, k, s)
        b[-1] = -(1 + s) * u1 * v1 / (u0 * v1 - v0 * u1)
        weights = lambda xs: _mp_christoffel(a, b, xs)
    w, w_ours = ([g / (1 - x) for g, x in zip(weights(x), x)] for x in (xs, ours))
    c = 1 - mpmath.fsum(w)  # the weight of t = 1
    rows = [_mp_gegenbauer(n, tau, x) for x in (mpmath.mpf(1), *xs)]
    residual = max(abs(c * rows[0][j] + mpmath.fsum(wi * r[j] for wi, r in zip(w, rows[1:])))
                   for j in range(1, tau + 1))
    return w, w_ours, residual


@pytest.mark.parametrize("n", [3, 8, 24, 60, 1000])
def test_weights_are_a_50_digit_rules(n):
    # the Vandermonde solve the weights came from before was off by up to 2e3
    # relative at n = 60; Christoffel numbers in doubles are within 1e-12 of
    # the 50-digit weight function at the same nodes, and what the nodes'
    # own error (up to 6e-15, at n = 3) moves that function by is theirs
    built = 0
    with mpmath.workdps(50):
        for tau in (2, 3, 9, 10, 24, 33, 40, 51, 59, 60):
            lo, hi = lev.dgs_bound(n, tau), lev.dgs_bound(n, tau + 1)
            for N in (lo, lo + 0.37 * (hi - lo), (lo + hi) // 2, hi - 1):
                try:
                    rule = lev.quadrature_rule(n, tau, N)
                except RangeError:  # no sign change in solve_cardinality's bracket
                    continue
                built += 1
                at_lo = tau % 2 == 0 and N == lo
                w, w_ours, residual = _mp_rule(n, tau, rule, at_lo)
                assert residual < 1e-40, (tau, N)
                for got, want, moved in zip(rule.weights.tolist(), w, w_ours):
                    assert abs(got - want) <= 1e-12 * want + abs(moved - want), (tau, N)
                if tau % 2 == 0:
                    # gamma_0 N is 1 at N = D(tau + 1), which hi - 1 is as a double past 2^53
                    assert 0 <= rule.weights[0] * N <= 1 + 1e-12, (tau, N)
                    assert bool(rule.weights[0] == 0) is at_lo, (tau, N)
    assert built >= 38, built


def test_high_degree_rule_prints_with_no_warning(capsys):
    lev.quadrature_rule.cache_clear()
    lo, hi = lev.dgs_bound(5, 59), lev.dgs_bound(5, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["quadrature", "--n", "5", "--tau", "59", "--N", str((lo + hi) // 2)]) == 0
    assert capsys.readouterr().out


def test_solve_cardinality_at_k_30_with_no_warning():
    # tau = 60 reads P_0..P_31 at each step of the root finder
    lo, hi = lev.dgs_bound(5, 60), lev.dgs_bound(5, 61)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = lev.solve_cardinality(5, 60, (lo + hi) // 2)
    a, b = lev.interval(5, 60)
    assert a < s < b
