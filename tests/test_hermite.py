import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from designbounds import bounds, cli, hermite, levenshtein
from designbounds.errors import RangeError
from designbounds.hermite import HermiteScheme, interpolate, remainder_bound, verify_one_sided
from designbounds.orthopoly import Poly
from designbounds.potentials import (
    Potential, make_gauss, make_log, make_poly, make_riesz, parse_potential,
)


def test_scheme_validation():
    s = HermiteScheme([(-1.0, 1), (0.0, 2), (0.5, 1)])
    assert s.total_degree == 3
    with pytest.raises(RangeError):
        HermiteScheme([(0.0, 3)])
    with pytest.raises(RangeError):
        HermiteScheme([(0.0, 1), (0.0, 2)])
    with pytest.raises(RangeError):
        HermiteScheme([(0.5, 1), (-0.5, 1)])


def test_interpolate_reproduces_polynomial():
    # interpolating a cubic with 4 conditions recovers it exactly
    p = Poly([1.0, -2.0, 0.5, 3.0])
    h = make_poly(p)
    g = interpolate(HermiteScheme([(-0.8, 2), (0.3, 2)]), h)
    t = np.linspace(-1, 1, 21)
    assert np.allclose(g(t), p(t), atol=1e-12)


def test_interpolate_matches_values_and_derivatives():
    h = make_riesz(2.0)
    scheme = HermiteScheme([(-1.0, 1), (-0.2, 2), (0.4, 2)])
    g = interpolate(scheme, h)
    assert g.degree <= scheme.total_degree
    for t0, m in scheme.nodes:
        assert g(t0) == pytest.approx(float(h.eval(t0)), abs=1e-12)
        if m == 2:
            assert g.deriv()(t0) == pytest.approx(float(h.derivative(t0, 1)), rel=1e-10)



def _interpolate_reference(scheme, h):
    """interpolate with the Newton form expanded by npoly.polymul and
    npoly.polyadd, one new array per step."""
    z = np.asarray([t for t, m in scheme.nodes for _ in range(m)])
    n = len(z)
    table = np.zeros((n, n))
    table[:, 0] = h.eval(z)
    for j in range(1, n):
        for i in range(n - j):
            dz = z[i + j] - z[i]
            if dz == 0.0:
                table[i, j] = float(h.derivative(z[i], 1))
            else:
                table[i, j] = (table[i + 1, j - 1] - table[i, j - 1]) / dz
    coeffs = np.array([table[0, n - 1]])
    for i in range(n - 2, -1, -1):
        coeffs = npoly.polymul(coeffs, [-z[i], 1.0])
        coeffs = npoly.polyadd(coeffs, [table[0, i]])
    return Poly(coeffs)


@pytest.mark.parametrize("h", [make_riesz(2.0), make_riesz(0.5), make_log(), make_gauss(1.0)],
                         ids=["riesz2", "riesz0.5", "log", "gauss1"])
def test_interpolate_expansion_is_polymul_bit_for_bit(h):
    # single-node schemes first: one value, or one value and one slope
    rng = np.random.default_rng(20261018)
    schemes = [HermiteScheme([(-1.0, 1)]), HermiteScheme([(0.3, 2)])]
    for _ in range(150):
        k = int(rng.integers(1, 18))
        ts = np.sort(rng.uniform(-1.0, 0.95, k))
        if k > 1 and np.min(np.diff(ts)) < 1e-6:
            continue
        schemes.append(HermiteScheme(zip(ts, rng.integers(1, 3, k))))
    for scheme in schemes:
        got, want = interpolate(scheme, h), _interpolate_reference(scheme, h)
        assert np.array(got.coeffs).tobytes() == np.array(want.coeffs).tobytes(), scheme


def test_hermite_below_convex_potential():
    # tangent interpolation at double nodes of an absolutely monotone h
    # stays below h on the whole interval
    h = make_riesz(2.0)
    g = interpolate(HermiteScheme([(-0.7, 2), (0.1, 2)]), h)
    rep = verify_one_sided(g, h, -1.0, 0.9, "below", 10_001, 1e-9)
    assert rep.passes


def test_verify_one_sided_detects_violation():
    h = make_riesz(2.0)
    above = Poly([10.0])
    rep = verify_one_sided(above, h, -1.0, 0.5, "below", 10_001, 1e-9)
    assert not rep.passes
    assert rep.min_margin < -1
    rep2 = verify_one_sided(above, h, -1.0, 0.5, "above", 10_001, 1e-9)
    assert rep2.passes


def test_verify_one_sided_rejects_bad_relation():
    with pytest.raises(RangeError):
        verify_one_sided(Poly([0.0]), make_riesz(1.0), -1, 1, "sideways", 10_001, 1e-9)


def test_margin_report_fields():
    h = make_riesz(2.0)
    g = interpolate(HermiteScheme([(0.0, 2)]), h)
    rep = verify_one_sided(g, h, -1.0, 0.5, "below", 10_001, 1e-9)
    assert rep.passes
    # tangency point is where the margin vanishes
    assert rep.min_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.argmin == pytest.approx(0.0, abs=1e-3)


def _potential(values):
    """Potential whose value at t is values(t); derivatives are not used."""
    return Potential(name="test", _derivative=lambda t, order: values(t))


def test_verify_one_sided_keeps_negative_zero_margin():
    # f == h exactly: h - f is +0.0, and f - h ("above") is -0.0
    p = Poly([1.0, 2.0])
    h = make_poly(p)
    below = verify_one_sided(p, h, -1.0, 0.5, "below", 10_001, 1e-9)
    above = verify_one_sided(p, h, -1.0, 0.5, "above", 10_001, 1e-9)
    assert below.passes and above.passes
    assert math.copysign(1.0, below.min_margin) == 1.0
    assert math.copysign(1.0, above.min_margin) == -1.0


def test_cli_reports_negative_zero_sign_margin(capsys):
    # a polynomial potential takes the sampled route; the strip certificate
    # is h itself, so f - h is -0.0 on the whole grid
    code = cli.main(
        ["bound", "--n", "3", "--N", "2", "--tau", "1", "--potential", "poly:1,0,2",
         "--side", "strip", "--u", "0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert '"sign_margin": -0.0,\n          "sign_route": "sample"' in out


@pytest.mark.parametrize("relation", ["below", "above"])
@pytest.mark.parametrize("where", [0, 4321, 10_000])
def test_verify_one_sided_fails_on_nan(relation, where):
    grid = np.linspace(-1.0, 0.5, 10_001)
    bad = grid[where]
    h = _potential(lambda t: np.where(t == bad, np.nan, 100.0 if relation == "below" else -100.0))
    rep = verify_one_sided(Poly([0.0, 1.0]), h, -1.0, 0.5, relation, 10_001, 1e-9)
    assert not rep.passes
    assert math.isnan(rep.min_margin)


def test_verify_one_sided_nan_polynomial_fails():
    rep = verify_one_sided(Poly([np.nan]), make_riesz(2.0), -1.0, 0.5, "below", 10_001, 1e-9)
    assert not rep.passes


def test_verify_one_sided_leaves_shared_potential_values():
    # a potential may hand out one cached array per input shape
    cache = {}

    def shared(t):
        return cache.setdefault(t.shape, np.full(t.shape, 5.0))

    h = _potential(shared)
    for relation in ("below", "above"):
        rep = verify_one_sided(Poly([1.0, 2.0]), h, -1.0, 0.5, relation, 10_001, 1e-9)
        assert rep.passes == (relation == "below")
    assert len(cache) == 2
    assert all(np.all(a == 5.0) for a in cache.values())


def _peak_in_grid_arrays(fn, size):
    """Peak traced memory of fn() above what was live before it, in units of
    one float64 array of the given size."""
    fn()  # warm up lazily built state
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return (peak - base) / (8 * size)


def test_a1_check_allocation_budget():
    # the sampled sign check runs for every certificate the proof does not
    # take; at degree 30 on a 20001-point grid, Horner runs in one buffer,
    # f's own or one it is given. The grid and f on it are the thread's
    # scratch arrays, and h - f is written into f's, so a check allocates h
    # on the grid, plus the 2001-point refinement (0.3 grid arrays)
    size = 20_001
    rng = np.random.default_rng(3)
    f = Poly(rng.standard_normal(31) * 1e-3)
    h = make_riesz(2.0)
    grid = np.linspace(-1.0, 0.9, size)
    assert _peak_in_grid_arrays(lambda: f(grid), size) <= 1.1
    buf = np.empty(size)
    assert _peak_in_grid_arrays(lambda: f(grid, out=buf), size) <= 0.01
    assert f(grid, out=buf) is buf and buf.tobytes() == f(grid).tobytes()
    for relation in ("below", "above"):
        check = lambda: verify_one_sided(f, h, -1.0, 0.9, relation, size, 1e-9)
        assert _peak_in_grid_arrays(check, size) <= 1.4


@pytest.mark.parametrize(
    "lo, hi",
    [(-1.0, 1.0 - 1e-9), (0.5, -0.0), (-0.0, 0.0), (0.0, -0.0), (0.3, 0.3), (-1, 1),
     (0.0, 5e-324), (0.0, 1e-310), (-1e-320, 1e-320), (-math.inf, 0.5), (0.0, math.nan),
     (np.float64(-0.75), np.float64(0.25))],
)
def test_scratch_grid_is_linspace_bit_for_bit(lo, hi):
    # the grid written into a scratch array is np.linspace's, at every size,
    # an interval of one point, signed zeros and a step that underflows
    for size in (0, 1, 2, 3, 10, 2001, 20_001):
        with np.errstate(invalid="ignore"):  # inf - inf, as in linspace
            got = hermite._linspace(float(lo), float(hi), np.full(size, 7.0))
            want = np.linspace(lo, hi, size)
        assert got.tobytes() == want.tobytes(), size


def test_scratch_arrays_are_per_thread():
    # library callers may check from several threads at once, so each
    # thread has its own grid and f
    mine = hermite._scratch(101)
    assert hermite._scratch(101) is mine
    theirs = []
    worker = threading.Thread(target=lambda: theirs.append(hermite._scratch(101)))
    worker.start()
    worker.join()
    assert not any(np.shares_memory(a, b) for a in mine for b in theirs[0])


def test_refinement_grid_is_linspace_bit_for_bit():
    # the 2001-point refinement around the sampled minimum is written into
    # this thread's third scratch array, with np.linspace's bits, so the
    # margin and where it lies are those of the np.linspace refinement
    h = make_log()
    f = interpolate(HermiteScheme([(-0.5, 2), (0.3, 2)]), h)
    for lo, hi, size in ((-1.0, 0.9, 1001), (-0.7, 0.6, 20_001)):
        report = verify_one_sided(f, h, lo, hi, "below", size, 1e-9)
        grid = np.linspace(lo, hi, size)
        i = int(np.argmin(h.eval(grid) - f(grid)))
        fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, size - 1)], 2001)
        gap = h.eval(fine) - f(fine)
        j = int(np.argmin(gap))
        assert (report.min_margin, report.argmin) == (gap[j], fine[j])
    mine = hermite._fine_scratch()
    assert hermite._fine_scratch() is mine
    theirs = []
    worker = threading.Thread(target=lambda: theirs.append(hermite._fine_scratch()))
    worker.start()
    worker.join()
    assert not np.shares_memory(mine, theirs[0])


def test_sample_memo_leaves_potential_arrays_writable():
    # the check must not change the flags of h's own array (a sample memo
    # once held read-only views of it)
    cache = {}
    h = _potential(lambda t: cache.setdefault(t.shape, np.full(t.shape, 5.0)))
    for _ in range(3):
        assert verify_one_sided(Poly([1.0]), h, -1.0, 0.5, "below", 1001, 1e-9).passes
    assert all(a.flags.writeable for a in cache.values())


def _ulb_certificate(n, tau, h):
    """The ulb certificate at the middle of N's range."""
    N = (levenshtein.dgs_bound(n, tau) + levenshtein.dgs_bound(n, tau + 1)) // 2
    c = bounds.ulb(n, N, tau, h).certificate
    return c.poly, c.scheme, c.lo, c.hi


@pytest.mark.parametrize("h", [make_riesz(2.0), make_riesz(0.5), make_log(), make_gauss(2.0)],
                         ids=lambda h: h.spec_string())
@pytest.mark.parametrize("n, tau", [(3, 3), (4, 4), (8, 6), (24, 8)])
def test_remainder_bound_proves_built_in_interpolants(h, n, tau):
    f, scheme, lo, hi = _ulb_certificate(n, tau, h)
    assert 0.0 < remainder_bound(f, scheme, h, lo, hi, "below", 1e-9) <= 1e-9


def test_remainder_bound_bisects_where_the_whole_interval_is_too_coarse():
    # at n = 156 the nodes cluster near 0, and the Newton bound over all of
    # [-1, 1) exceeds tol; the pieces away from the nodes are proved by the
    # remainder's own size
    h = make_riesz(2.0)
    f, scheme, lo, hi = _ulb_certificate(156, 8, h)
    assert remainder_bound(f, scheme, h, lo, hi, "below", math.inf) > 1e-9
    assert remainder_bound(f, scheme, h, lo, hi, "below", 1e-9) <= 1e-9


def test_remainder_bound_gives_up_on_an_unprovable_node():
    # at high degree the rounding of the residuals, through the table,
    # exceeds tol at some node, which no bisection can help
    h = make_riesz(1.0)
    f, scheme, lo, hi = _ulb_certificate(24, 21, h)
    assert remainder_bound(f, scheme, h, lo, hi, "below", 1e-9) == math.inf


@pytest.mark.parametrize("raise_by", [1e-12, 1e-10, 1e-8])
def test_remainder_bound_is_never_below_a_violation(raise_by):
    # f raised by d lies d above h at every node: a bound below d would be
    # false, and above tol there is no proof
    h = make_riesz(2.0)
    f, scheme, lo, hi = _ulb_certificate(4, 4, h)
    raised = Poly([f.coeffs[0] + raise_by, *f.coeffs[1:]])
    bound = remainder_bound(raised, scheme, h, lo, hi, "below", 1e-9)
    assert bound >= raise_by
    if raise_by == 1e-12:
        assert bound <= 1e-9
    if raise_by > 1e-9:
        assert bound == math.inf


def test_remainder_bound_applies_only_where_the_argument_holds():
    h = make_riesz(2.0)
    f, scheme, lo, hi = _ulb_certificate(4, 4, h)  # nodes -1 (simple) and 2 doubles
    assert remainder_bound(f, scheme, h, lo, hi, "below", 1e-9) <= 1e-9
    poly = make_poly(Poly([1.0, 0.5, 0.25, 0.125, 0.0625]))
    hand_built = Potential(name="test", _derivative=h._derivative)
    cases = [
        (f, scheme, poly, lo, hi, "below"),  # not absolutely monotone
        (f, scheme, hand_built, lo, hi, "below"),  # not declared so
        (Poly([*f.coeffs, 0.0, 1e-30]), scheme, h, lo, hi, "below"),  # degree above 4
        (f, scheme, h, -1.5, hi, "below"),  # the simple node -1 inside (lo, hi)
        (f, scheme, h, lo, hi, "above"),  # the node polynomial is >= 0
        (f, scheme, h, lo, 1.0, "below"),  # hi at the pole
        (f, scheme, h, hi, lo, "below"),  # an empty interval
        (f, scheme, h, lo, hi, "sideways"),
        (Poly([math.nan, *f.coeffs[1:]]), scheme, h, lo, hi, "below"),
        (f, scheme, h, math.nan, hi, "below"),
        (f, HermiteScheme([(-1.0, 1), (0.0, 2), (1.0, 2)]), h, lo, 0.5, "below"),  # node at 1
    ]
    for case in cases:
        assert remainder_bound(*case, 1e-9) == math.inf, case[2:]


def test_remainder_bound_proves_both_relations():
    # the chord through two simple nodes lies above h between them, and
    # the tangent cubic of upper_cubic too
    for h in (make_riesz(2.0), make_log(), make_gauss(1.0)):
        for report in (bounds.upper_2design(5, 8, h), bounds.upper_cubic(8, 60, 4, h)):
            c = report.certificate
            assert c.relation == "above"
            assert remainder_bound(c.poly, c.scheme, h, c.lo, c.hi, "above", 1e-9) <= 1e-9
            assert remainder_bound(c.poly, c.scheme, h, c.lo, c.hi, "below", 1e-9) == math.inf


def test_remainder_bound_counts_the_rounding_of_h_and_f():
    # one node: B bounds |h(c) - f(c)| (and |h'(c) - f'(c)| times the
    # interval's reach at a double node), and covers the rounding of h, h'
    # and f even where they agree
    h = make_riesz(2.0)
    c = -0.25
    v = float(h.eval(np.asarray([c]))[0])
    d = float(h.derivative(np.asarray([c]), 1)[0])
    bound = remainder_bound(Poly([v]), HermiteScheme([(c, 1)]), h, c, c, "above", 1e-9)
    assert h.error(c, 0, v) + hermite._gamma(4) * abs(v) <= bound <= 1e-9
    # the slope's bound reaches 0.5 away from c
    tangent = HermiteScheme([(c, 2)])
    f = interpolate(tangent, h)
    at_c = remainder_bound(f, tangent, h, c, c, "below", 1e-9)
    around = remainder_bound(f, tangent, h, c - 0.5, c + 0.5, "below", 1e-9)
    assert h.error(c, 0, v) <= at_c <= 1e-9
    assert around - at_c >= 0.5 * h.error(c, 1, d)


def test_a_polynomial_potential_below_the_schemes_degree_is_its_own_interpolant(capsys):
    # deg h < m: the interpolant is h, taken as it is rather than from the
    # table, which at n = 10^12 and tau = 5 loses h's values to round-off
    p = Poly([0.3, -1.0, 2.0])
    h = make_poly(p)
    assert interpolate(HermiteScheme([(-0.5, 2), (0.25, 1)]), h).coeffs == p.coeffs
    assert interpolate(HermiteScheme([(-0.5, 1), (0.25, 1)]), h).degree == 1
    lo, hi = levenshtein.dgs_bound(10**12, 5), levenshtein.dgs_bound(10**12, 6)
    argv = ["bound", "--n", str(10**12), "--N", str((lo + hi) // 2), "--tau", "5",
            "--potential", "poly:1,0,2", "--side", "lower"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["lower"]["best_method"] == "ulb"
