import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from designbounds import bounds, cli, hermite
from designbounds.errors import RangeError
from designbounds.hermite import HermiteScheme, interpolate, verify_one_sided
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
    code = cli.main(
        ["bound", "--n", "3", "--N", "2", "--tau", "1", "--potential", "riesz:s=2",
         "--side", "strip", "--u", "0"]
    )
    assert code == 0
    assert '"sign_margin": -0.0' in capsys.readouterr().out


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
    # the sign check runs inside every bound and every re-verification; at
    # degree 30 on a 20001-point grid, Horner runs in one buffer, f's own or
    # one it is given. The grid and f on it are the thread's scratch
    # arrays, and h - f is written into f's, so a check that keeps its
    # sample allocates the grid's copy and h on it, plus the 2001-point
    # refinement (0.3 grid arrays)
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
        assert _peak_in_grid_arrays(check, size) <= 2.4


def test_sample_memo_hit_is_a_fresh_sample_bit_for_bit():
    # the first use keeps nothing, the second keeps its sample, and a hit
    # hands back those arrays, read-only, with the bits a fresh linspace and
    # h.eval give; -0.0 and 0.0 are two intervals
    h = make_riesz(1.7)
    for lo, hi in ((-1.0, 1.0 - 1e-9), (0.5, -0.0), (0.5, 0.0)):
        first = hermite._sampled(h, lo, hi, 20_001)
        grid, h_grid = hermite._sampled(h, lo, hi, 20_001)
        assert grid is not first[0]
        again = hermite._sampled(h, lo, hi, 20_001)
        assert again[0] is grid and again[1] is h_grid
        fresh = np.linspace(lo, hi, 20_001)
        assert grid.tobytes() == fresh.tobytes()
        assert h_grid.tobytes() == h.eval(fresh).tobytes()
        for arr in (grid, h_grid):
            with pytest.raises(ValueError):
                arr[0] = 0.0
    assert hermite._sampled(h, 0.5, -0.0, 20_001)[0][-1].tobytes() == np.float64(-0.0).tobytes()
    # the check on a held sample reports what a check on a fresh one does
    f = interpolate(HermiteScheme([(-0.6, 2), (0.2, 2), (0.7, 2)]), h)
    held = verify_one_sided(f, h, -1.0, 1.0 - 1e-9, "below", 20_001, 1e-9)
    assert verify_one_sided(f, make_riesz(1.7), -1.0, 1.0 - 1e-9, "below", 20_001, 1e-9) == held


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


def test_sample_memo_keeps_nothing_from_a_check_made_once():
    # re-verifying one stored report checks its potential once: holding
    # that sample would cost the check and save nothing
    f = Poly([0.1, 0.2])
    hs = [make_riesz(2.0) for _ in range(8)]
    for h in hs:
        verify_one_sided(f, h, -1.0, 0.5, "below", 2001, 1e-9)
    assert not any(entry[0] is h for entry in hermite._SAMPLES.values() for h in hs)


def test_sample_memo_leaves_potential_arrays_writable():
    # the memo's read-only view must not change the flags of h's own array
    cache = {}
    h = _potential(lambda t: cache.setdefault(t.shape, np.full(t.shape, 5.0)))
    for _ in range(3):
        assert verify_one_sided(Poly([1.0]), h, -1.0, 0.5, "below", 1001, 1e-9).passes
    assert all(a.flags.writeable for a in cache.values())


def test_a1_check_on_a_held_sample_allocation_budget():
    # once h has been sampled on the grid, a check allocates only the
    # 2001-point refinement; a miss adds h on the grid
    size = 20_001
    rng = np.random.default_rng(3)
    f = Poly(rng.standard_normal(31) * 1e-3)
    h = make_riesz(2.0)
    for relation in ("below", "above"):
        check = lambda: verify_one_sided(f, h, -1.0, 0.9, relation, size, 1e-9)
        check()  # a sample is kept from its second use on
        assert _peak_in_grid_arrays(check, size) <= 0.4
    # a miss (a fresh potential) keeps nothing
    miss = lambda: verify_one_sided(f, make_riesz(2.0), -1.0, 0.9, "below", size, 1e-9)
    assert _peak_in_grid_arrays(miss, size) <= 1.4


def test_sample_memo_keeps_four_entries_while_reports_live():
    # reports keep their potentials alive; the memo must not keep a grid
    # per report, only its four most recent entries (2 grid arrays each).
    # Each report checks twice here, so its sample is kept
    def report():
        h = parse_potential("riesz:s=2")
        r = bounds.ulb(4, 16, 4, h)
        assert r.verify()
        return r

    report()  # fill the rule memos
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reports = [report() for _ in range(50)]
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert all(r.accepted for r in reports)
    assert len(hermite._SAMPLES) <= 4
    held = sum(a.nbytes for _, grid, h_grid in hermite._SAMPLES.values() for a in (grid, h_grid))
    assert held <= 4 * 2 * 8 * bounds.A1_GRID
    assert grown <= 1.5e6


def test_sample_memo_is_safe_across_threads():
    # four threads, more potentials than memo entries and a short switch
    # interval: no lookup loses its entry to another thread's eviction, and
    # every sample has the bits of a fresh one
    hs = [make_riesz(1.0 + 0.25 * k) for k in range(6)]
    grid = np.linspace(-1.0, 0.5, 3)
    want = [h.eval(grid).tobytes() for h in hs]
    errors = []

    def work(seed):
        try:
            for k in np.random.default_rng(seed).integers(0, len(hs), 3000):
                got = hermite._sampled(hs[k], -1.0, 0.5, 3)
                assert got[0].tobytes() == grid.tobytes() and got[1].tobytes() == want[k]
        except Exception as e:  # surfaced in the main thread below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(hermite._SAMPLES) <= 4
