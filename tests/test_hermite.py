import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from designbounds import cli
from designbounds.errors import RangeError
from designbounds.hermite import HermiteScheme, interpolate, verify_one_sided
from designbounds.orthopoly import Poly
from designbounds.potentials import Potential, make_gauss, make_log, make_poly, make_riesz


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
    rng = np.random.default_rng(20261018)
    for _ in range(150):
        k = int(rng.integers(1, 18))
        ts = np.sort(rng.uniform(-1.0, 0.95, k))
        if k > 1 and np.min(np.diff(ts)) < 1e-6:
            continue
        scheme = HermiteScheme(zip(ts, rng.integers(1, 3, k)))
        got, want = interpolate(scheme, h), _interpolate_reference(scheme, h)
        assert np.array(got.coeffs).tobytes() == np.array(want.coeffs).tobytes(), scheme


def test_hermite_below_convex_potential():
    # tangent interpolation at double nodes of an absolutely monotone h
    # stays below h on the whole interval
    h = make_riesz(2.0)
    g = interpolate(HermiteScheme([(-0.7, 2), (0.1, 2)]), h)
    rep = verify_one_sided(g, h, -1.0, 0.9, "below")
    assert rep.passes


def test_verify_one_sided_detects_violation():
    h = make_riesz(2.0)
    above = Poly([10.0])
    rep = verify_one_sided(above, h, -1.0, 0.5, "below")
    assert not rep.passes
    assert rep.min_margin < -1
    rep2 = verify_one_sided(above, h, -1.0, 0.5, "above")
    assert rep2.passes


def test_verify_one_sided_rejects_bad_relation():
    with pytest.raises(RangeError):
        verify_one_sided(Poly([0.0]), make_riesz(1.0), -1, 1, "sideways")


def test_margin_report_fields():
    h = make_riesz(2.0)
    g = interpolate(HermiteScheme([(0.0, 2)]), h)
    rep = verify_one_sided(g, h, -1.0, 0.5, "below")
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
    below = verify_one_sided(p, h, -1.0, 0.5, "below")
    above = verify_one_sided(p, h, -1.0, 0.5, "above")
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
    rep = verify_one_sided(Poly([0.0, 1.0]), h, -1.0, 0.5, relation)
    assert not rep.passes
    assert math.isnan(rep.min_margin)


def test_verify_one_sided_nan_polynomial_fails():
    rep = verify_one_sided(Poly([np.nan]), make_riesz(2.0), -1.0, 0.5, "below")
    assert not rep.passes


def test_verify_one_sided_leaves_shared_potential_values():
    # a potential may hand out one cached array per input shape
    cache = {}

    def shared(t):
        return cache.setdefault(t.shape, np.full(t.shape, 5.0))

    h = _potential(shared)
    for relation in ("below", "above"):
        rep = verify_one_sided(Poly([1.0, 2.0]), h, -1.0, 0.5, relation)
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
    # degree 30 on a 20001-point grid, Horner into one buffer and h - f
    # written into f's buffer keep the peak at 1 and 3 grid arrays
    size = 20_001
    rng = np.random.default_rng(3)
    f = Poly(rng.standard_normal(31) * 1e-3)
    h = make_riesz(2.0)
    grid = np.linspace(-1.0, 0.9, size)
    assert _peak_in_grid_arrays(lambda: f(grid), size) <= 1.1
    for relation in ("below", "above"):
        check = lambda: verify_one_sided(f, h, -1.0, 0.9, relation, size)
        assert _peak_in_grid_arrays(check, size) <= 3.1
