import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.special import roots_jacobi

from designbounds import orthopoly as op
from designbounds.errors import RangeError


def test_gegenbauer_base_cases():
    t = np.linspace(-1, 1, 7)
    assert np.allclose(op.gegenbauer_eval(4, 0, t), 1.0)
    assert np.allclose(op.gegenbauer_eval(4, 1, t), t)


def test_gegenbauer_normalization_at_one():
    for n in (3, 4, 8, 24):
        for i in range(0, 12):
            assert op.gegenbauer_eval(n, i, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_gegenbauer_n3_is_legendre():
    # dimension 3 weight is uniform, so P_i matches Legendre
    t = np.linspace(-1, 1, 11)
    assert np.allclose(op.gegenbauer_eval(3, 2, t), 0.5 * (3 * t**2 - 1), atol=1e-13)
    assert np.allclose(op.gegenbauer_eval(3, 3, t), 0.5 * (5 * t**3 - 3 * t), atol=1e-13)


def test_gegenbauer_recurrence_consistency():
    t = np.linspace(-1, 1, 9)
    for n in (3, 5):
        for i in range(1, 10):
            lhs = (2 * i + n - 2) * t * op.gegenbauer_eval(n, i, t)
            rhs = (i + n - 2) * op.gegenbauer_eval(n, i + 1, t) + i * op.gegenbauer_eval(
                n, i - 1, t
            )
            assert np.allclose(lhs, rhs, atol=1e-11)


def test_gegenbauer_derivative_matches_finite_difference():
    eps = 1e-6
    for n in (3, 6):
        for i in (2, 5, 9):
            for t0 in (-0.7, 0.0, 0.5):
                fd = (
                    op.gegenbauer_eval(n, i, t0 + eps) - op.gegenbauer_eval(n, i, t0 - eps)
                ) / (2 * eps)
                assert op.gegenbauer_derivative(n, i, t0, 1) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3, 5, 24])
def test_gegenbauer_derivative_matches_monomial_derivative(n):
    # every order up to i + 1, so an order above the degree must give 0
    for i in range(13):
        p = op.gegenbauer_poly(n, i)
        for m in range(i + 2):
            for t in (0.3, np.linspace(-1, 1, 9)):
                want = p.deriv(m)(t)
                got = op.gegenbauer_derivative(n, i, t, m)
                assert np.shape(got) == np.shape(want)
                err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
                assert np.all(err <= 1e-10), (n, i, m, t)


def test_gegenbauer_derivative_cap_is_on_requested_degree():
    # P_61^(5) is a degree-56 polynomial, but the cap applies to degree 61
    with pytest.raises(RangeError):
        op.gegenbauer_derivative(3, op.MAX_DEGREE + 1, 0.3, 5)
    with pytest.warns(UserWarning):
        op.gegenbauer_derivative(3, op.CONDITIONING_DEGREE + 1, 0.3, 5)


def test_gegenbauer_poly_matches_eval():
    t = np.linspace(-1, 1, 17)
    for n in (3, 4, 10):
        for i in range(8):
            p = op.gegenbauer_poly(n, i)
            assert np.allclose(p(t), op.gegenbauer_eval(n, i, t), atol=1e-11)


def test_degree_cap():
    with pytest.raises(RangeError):
        op.gegenbauer_eval(3, op.MAX_DEGREE + 1, 0.0)


def test_conditioning_warning():
    with pytest.warns(UserWarning):
        op.gegenbauer_eval(3, op.CONDITIONING_DEGREE + 1, 0.3)


@pytest.mark.parametrize(
    "a, b, k",
    [
        (0.0, 0.0, 5), (1.0, 0.5, 7), (2.5, 2.5, 4), (-0.5, -0.5, 9), (0.5, -0.5, 12),
        (1.0, 0.0, 1), (11.5, 10.5, 31), (2.5, 2.5, 31), (99.5, 98.5, 31), (99.5, 99.5, 31),
    ],
)
def test_jacobi_zeros_increasing_and_accurate(a, b, k):
    # scipy builds its own Jacobi matrix and Newton-polishes, so it is an
    # independent reference for the package's eigenproblem
    x, w = roots_jacobi(k, a, b)
    z = op.jacobi_zeros(a, b, k)
    assert len(z) == k
    assert np.all(np.diff(z) > 0)
    assert np.max(np.abs(z - x)) < 1e-14
    if a == b:
        rule = op.weight_rule(int(2 * a + 3), k)
        assert np.max(np.abs(rule.nodes - x)) < 1e-14
        assert np.max(np.abs(rule.weights - w / np.sum(w))) < 1e-13
        assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize(
    "a, b, k, s",
    [
        (1.0, 0.0, 1, 0.3), (1.0, 0.0, 4, 0.5), (1.5, 1.5, 6, 0.8), (3.5, 2.5, 12, 0.6),
        (12.5, 12.5, 20, 0.55), (99.5, 98.5, 9, 0.3), (99.5, 99.5, 31, 0.45),
    ],
)
def test_kernel_zeros(a, b, k, s):
    roots = op.kernel_zeros(a, b, k, s)
    assert len(roots) == k
    assert np.all(np.diff(roots) > 0)
    assert s in roots
    Pk_s, Pk1_s = op.jacobi_eval(a, b, k, s), op.jacobi_eval(a, b, k - 1, s)
    Pk_t, Pk1_t = op.jacobi_eval(a, b, k, roots), op.jacobi_eval(a, b, k - 1, roots)
    kernel = Pk_t * Pk1_s - Pk_s * Pk1_t
    scale = np.abs(Pk_t * Pk1_s) + np.abs(Pk_s * Pk1_t)
    assert np.max(np.abs(kernel) / scale) < 1e-12


def test_jacobi_rejects_bad_parameters():
    with pytest.raises(RangeError):
        op.jacobi_eval(-1.0, 0.0, 3, 0.5)


def test_adjacent_largest_zero_special_case():
    assert op.adjacent_largest_zero(3, 1, 1, 0) == -1.0
    with pytest.raises(RangeError):
        op.adjacent_largest_zero(3, 1, 0, 0)


def test_weight_moment_exact():
    # n=3: uniform weight on [-1,1], even moment j -> 1/(j+1)
    for j in (0, 2, 4, 6):
        assert op.weight_moment(3, j) == pytest.approx(1.0 / (j + 1), abs=1e-14)
    assert op.weight_moment(5, 1) == 0.0
    assert op.weight_moment(5, 2) == pytest.approx(1.0 / 5.0, abs=1e-14)


def test_weight_rule_integrates_moments():
    for n in (3, 4, 8):
        rule = op.weight_rule(n, 6)
        for j in range(11):
            got = rule.integrate(lambda t: t**j)
            assert got == pytest.approx(op.weight_moment(n, j), abs=1e-13)


def test_gegenbauer_orthogonality():
    n = 5
    rule = op.weight_rule(n, 10)
    for i in range(6):
        for j in range(6):
            val = rule.integrate(
                lambda t: op.gegenbauer_eval(n, i, t) * op.gegenbauer_eval(n, j, t)
            )
            if i != j:
                assert abs(val) < 1e-13


def test_expand_round_trip():
    rng = np.random.default_rng(7)
    for n in (3, 4, 9):
        coeffs = rng.normal(size=9)
        p = op.Poly(coeffs)
        exp = op.gegenbauer_expand(n, p)
        t = np.linspace(-1, 1, 33)
        assert np.allclose(exp(t), p(t), atol=1e-10)
        back = exp.reconstruct()
        assert np.allclose(back(t), p(t), atol=1e-10)


def test_poly_arithmetic_and_roots():
    p = op.Poly([1.0, 2.0]) * op.Poly([3.0, 0.0, 1.0])
    assert p.coeffs == (3.0, 6.0, 1.0, 2.0)
    q = op.poly_from_roots([(0.5, 2), (-1.0, 1)])
    assert q.degree == 3
    assert q(0.5) == pytest.approx(0.0, abs=1e-15)
    assert q(-1.0) == pytest.approx(0.0, abs=1e-15)
    assert q.coeffs[-1] == pytest.approx(1.0)


def test_poly_trims_leading_zeros():
    p = op.Poly([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]


def _poly_inputs():
    """Python scalars, numpy scalars, 0-d, 1-d and 2-d arrays, with signed
    zeros, infinities, NaN, subnormals and values past 1 among them."""
    row = np.concatenate((np.linspace(-1.0, 1.0, 9), _SPECIAL, [2.5, -3.0]))
    yield from (0.3, -0.7, 1, *_SPECIAL)
    yield from (np.asarray(x) for x in (0.3, *_SPECIAL))
    yield from (np.float64(x) for x in (0.3, -0.7, 5e-324, -1e-310, 1e10, -3e300, *_SPECIAL))
    yield row
    yield row.reshape(2, -1)


def test_poly_call_is_polyval_bit_for_bit():
    # the scalar path runs in Python floats and the array path in numpy;
    # coefficients up to 1e+-300 make Horner overflow midway
    rng = np.random.default_rng(7)
    polys = [op.Poly([0.0]), op.Poly([-0.0]), op.Poly([1.0, np.nan, -2.0])] + [
        op.Poly(rng.standard_normal(d + 1) * 10.0 ** rng.integers(-3, 4, d + 1)) for d in range(61)
    ] + [
        op.Poly(rng.standard_normal(d + 1) * 10.0 ** rng.integers(-300, 301, d + 1))
        for d in range(1, 61, 3)
    ]
    for p in polys:
        for t in _poly_inputs():
            with np.errstate(invalid="ignore", over="ignore", under="ignore"):
                got = p(t)
                want = npoly.polyval(np.asarray(t, dtype=float), p.coeffs)
            assert type(got) is type(want), (p.degree, t)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (p.degree, t)



@pytest.mark.filterwarnings("ignore::UserWarning")
def test_gegenbauer_scalar_path_is_array_path_bit_for_bit():
    # a scalar t runs the recurrence in Python floats; it must give the bits
    # and the types (ndarray table, float derivative) a 1-element array
    # gives. The degree-60 array table holds every lower degree's rows
    rng = np.random.default_rng(13)
    for n in range(2, 201):
        ds = range(61) if n in (2, 3, 24, 200) else (0, 1, int(rng.integers(2, 60)), 60)
        for x in (1.0, -1.0, 0.0, -0.0, np.nan, *rng.uniform(-1.0, 1.0, 2)):
            rows = op.gegenbauer_table(n, 60, np.array([x]))[:, 0]
            i, order = int(rng.integers(0, 61)), int(rng.integers(0, 4))
            deriv = op.gegenbauer_derivative(n, i, np.array([x]), order)
            for t in (x, np.float64(x), np.asarray(x)):
                for d in ds:
                    got = op.gegenbauer_table(n, d, t)
                    assert type(got) is np.ndarray and got.shape == (d + 1,), (n, d, t)
                    assert got.tobytes() == rows[: d + 1].tobytes(), (n, d, t)
                got = op.gegenbauer_derivative(n, i, t, order)
                assert type(got) is float, (n, i, order, t)
                assert np.float64(got).tobytes() == deriv.tobytes(), (n, i, order, t)


def test_memoised_weight_rule_arrays_are_read_only():
    rule = op.weight_rule(5, 7)
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert op.weight_rule(5, 7) is rule


def test_expand_is_the_projection_formula_bit_for_bit():
    # the memoised table and norms give the coefficients a fresh
    # projection gives
    rng = np.random.default_rng(11)
    for n in (3, 4, 9, 24):
        for d in (0, 1, 5, 17, 30):
            p = op.Poly(rng.standard_normal(d + 1))
            rule = op.weight_rule(n, d + 1)
            table = op.gegenbauer_table(n, d, rule.nodes)
            want = (table @ (rule.weights * p(rule.nodes))) / (table**2 @ rule.weights)
            for _ in range(2):
                got = op.gegenbauer_expand(n, p).coeffs
                assert np.array(got).tobytes() == want.tobytes()
