import re

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy import special
from scipy.linalg import LinAlgError, eigh_tridiagonal, eigvalsh_tridiagonal

from designbounds import levenshtein as lev
from designbounds import orthopoly as op
from designbounds.errors import RangeError


def _weight_moment(n, j):
    """Exact monomial moment of the normalized sphere weight (Beta function):
    the oracle for the package's Gauss rules."""
    if j % 2 == 1:
        return 0.0
    return float(special.beta((j + 1) / 2.0, (n - 1) / 2.0) / special.beta(0.5, (n - 1) / 2.0))


def _gegenbauer_poly(n, i):
    """Monomial coefficients of P_i for dimension n, built by the three-term
    recurrence on coefficient arrays: the oracle for the package's
    recurrence tables and derivatives."""
    if i == 0:
        return op.Poly([1.0])
    prev, cur = op.Poly([1.0]), op.Poly([0.0, 1.0])
    for deg in range(1, i):
        a, b = 2 * deg + n - 2, deg + n - 2
        shifted = npoly.polymul([0.0, 1.0], cur.coeffs)
        cur, prev = op.Poly(npoly.polysub(a / b * shifted, deg / b * np.asarray(prev.coeffs))), cur
    return cur


def test_gegenbauer_base_cases():
    t = np.linspace(-1, 1, 7)
    assert np.allclose(op.gegenbauer_table(4, 0, t)[0], 1.0)
    assert np.allclose(op.gegenbauer_table(4, 1, t)[1], t)


def test_gegenbauer_normalization_at_one():
    for n in (3, 4, 8, 24):
        for i in range(0, 12):
            assert op.gegenbauer_table(n, i, 1.0)[i] == pytest.approx(1.0, abs=1e-12)


def test_gegenbauer_n3_is_legendre():
    # dimension 3 weight is uniform, so P_i matches Legendre
    t = np.linspace(-1, 1, 11)
    assert np.allclose(op.gegenbauer_table(3, 2, t)[2], 0.5 * (3 * t**2 - 1), atol=1e-13)
    assert np.allclose(op.gegenbauer_table(3, 3, t)[3], 0.5 * (5 * t**3 - 3 * t), atol=1e-13)


def test_gegenbauer_recurrence_consistency():
    t = np.linspace(-1, 1, 9)
    for n in (3, 5):
        P = op.gegenbauer_table(n, 10, t)
        for i in range(1, 10):
            lhs = (2 * i + n - 2) * t * P[i]
            rhs = (i + n - 2) * P[i + 1] + i * P[i - 1]
            assert np.allclose(lhs, rhs, atol=1e-11)


def test_gegenbauer_derivative_matches_finite_difference():
    eps = 1e-6
    for n in (3, 6):
        for i in (2, 5, 9):
            for t0 in (-0.7, 0.0, 0.5):
                below, above = op.gegenbauer_table(n, i, [t0 - eps, t0 + eps])[i]
                fd = (above - below) / (2 * eps)
                assert op.gegenbauer_derivative(n, i, t0, 1) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3, 5, 24])
def test_gegenbauer_derivative_matches_monomial_derivative(n):
    # every order up to i + 1, so an order above the degree must give 0
    for i in range(13):
        p = _gegenbauer_poly(n, i)
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


def test_gegenbauer_poly_matches_eval():
    t = np.linspace(-1, 1, 17)
    for n in (3, 4, 10):
        for i in range(8):
            p = _gegenbauer_poly(n, i)
            assert np.allclose(p(t), op.gegenbauer_table(n, i, t)[i], atol=1e-11)


def test_degree_cap():
    with pytest.raises(RangeError):
        op.gegenbauer_table(3, op.MAX_DEGREE + 1, 0.0)


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
    x, w = special.roots_jacobi(k, a, b)
    z = op.jacobi_zeros(a, b, k)
    assert len(z) == k
    assert np.all(np.diff(z) > 0)
    assert np.max(np.abs(z - x)) < 1e-14
    if a == b:
        rule = op.weight_rule(int(2 * a + 3), k)
        assert np.max(np.abs(rule.nodes - x)) < 1e-14
        assert np.max(np.abs(rule.weights - w / np.sum(w))) < 1e-13
        assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)


def test_branch_end_at_0_is_minus_1():
    assert lev._branch_end(3, 0) == -1.0


def test_weight_moment_exact():
    # the oracle itself. n=3: uniform weight on [-1,1], even moment j -> 1/(j+1)
    for j in (0, 2, 4, 6):
        assert _weight_moment(3, j) == pytest.approx(1.0 / (j + 1), abs=1e-14)
    assert _weight_moment(5, 1) == 0.0
    assert _weight_moment(5, 2) == pytest.approx(1.0 / 5.0, abs=1e-14)


def test_weight_rule_integrates_moments():
    for n in (3, 4, 8):
        rule = op.weight_rule(n, 6)
        for j in range(11):
            got = float(np.dot(rule.weights, rule.nodes**j))
            assert got == pytest.approx(_weight_moment(n, j), abs=1e-13)


def test_gegenbauer_orthogonality():
    n = 5
    rule = op.weight_rule(n, 10)
    P = op.gegenbauer_table(n, 5, rule.nodes)
    for i in range(6):
        for j in range(6):
            val = float(np.dot(rule.weights, P[i] * P[j]))
            if i != j:
                assert abs(val) < 1e-13


def test_expand_round_trip():
    rng = np.random.default_rng(7)
    for n in (3, 4, 9):
        coeffs = rng.normal(size=9)
        p = op.Poly(coeffs)
        exp = op.gegenbauer_expand(n, p)
        t = np.linspace(-1, 1, 33)
        assert np.allclose(exp.coeffs @ op.gegenbauer_table(n, len(exp.coeffs) - 1, t), p(t),
                           atol=1e-10)
        back = [0.0]
        for i, c in enumerate(exp.coeffs):
            back = npoly.polyadd(back, c * np.asarray(_gegenbauer_poly(n, i).coeffs))
        assert np.allclose(npoly.polyval(t, back), p(t), atol=1e-10)


def test_poly_arithmetic_and_roots():
    q = op.Poly([0.25, -0.75, 0.0, 1.0])  # (t - 0.5)^2 (t + 1)
    assert q.degree == 3
    assert q(0.5) == 0.0 and q(-1.0) == 0.0
    assert q.deriv()(0.5) == 0.0  # a double root
    assert q.deriv(3).coeffs == (6.0,)


def test_poly_trims_leading_zeros():
    p = op.Poly([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1


def _numpy_trimmed(coeffs):
    """Poly's coefficients as numpy's nonzero search trims them: trailing
    exact zeros go, NaN and inf stay, and no coefficients at all is (0.0,)."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    nonzero = np.flatnonzero(c != 0.0)
    c = c[: nonzero[-1] + 1] if nonzero.size else c[:1] if c.size else [0.0]
    return tuple(float(x) for x in c)


def test_poly_trims_as_numpy_bit_for_bit():
    rng = np.random.default_rng(7)
    inputs = [[], (), 0.0, -0.0, 2, np.float64(-0.0), np.asarray(1.5), np.zeros(0), np.zeros(3),
              [0, 0.0, -0.0], [-0.0, 0.0], [1.0, np.nan, 0.0], [np.inf, 0.0, -0.0],
              npoly.polyder([1.0, 2.0, 3.0], 5)]
    for _ in range(200):
        c = rng.choice([0.0, -0.0, 1.0, -2.5, 5e-324, np.nan, np.inf], rng.integers(0, 7))
        inputs += [c, c.tolist(), tuple(c.tolist())]
    for coeffs in inputs:
        got = op.Poly(coeffs).coeffs
        assert all(type(x) is float for x in got)
        assert np.asarray(got).tobytes() == np.asarray(_numpy_trimmed(coeffs)).tobytes(), coeffs


@pytest.mark.parametrize("coeffs", [[], [0.0], [0.0, 0.0]])
def test_empty_or_zero_coefficients_are_the_zero_polynomial(coeffs):
    p = op.Poly(coeffs)
    assert p.coeffs == (0.0,) and p.degree == 0
    assert p(0.5) == 0.0
    assert p(np.linspace(-1.0, 1.0, 5)).tolist() == [0.0] * 5


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


def _mp_expand(n, coeffs):
    """Gegenbauer coefficients of the polynomial with these monomial
    coefficients, in 50-digit mpmath: the monomial coefficients of P_0..P_d
    from the three-term recurrence, then back substitution from the top
    degree (P_i has degree i). The oracle for gegenbauer_expand."""
    d = len(coeffs) - 1
    P = [[mpmath.mpf(1)], [mpmath.mpf(0), mpmath.mpf(1)]]
    for i in range(1, d):
        a, b = mpmath.mpf(2 * i + n - 2), mpmath.mpf(i + n - 2)
        nxt = [mpmath.mpf(0)] + [a * x / b for x in P[i]]
        for k, x in enumerate(P[i - 1]):
            nxt[k] -= i * x / b
        P.append(nxt)
    r = [mpmath.mpf(c) for c in coeffs]
    g = [mpmath.mpf(0)] * (d + 1)
    for i in range(d, -1, -1):
        g[i] = r[i] / P[i][i]
        for k in range(i + 1):
            r[k] -= g[i] * P[i][k]
    return g


@pytest.mark.parametrize("n, d", [(3, 30), (24, 17), (24, 30), (60, 30), (150, 8)])
def test_expand_matches_the_mpmath_conversion(n, d):
    # every coefficient within 1e-15 of max|g| of the 50-digit conversion;
    # at high n, P_i is concentrated near +-1, so a method that cancels
    # fails here (a (d+1)-point Gauss-rule projection: 1.2e-9 of max|g| at
    # (150, 8), 2.2e-4 at (60, 30))
    rng = np.random.default_rng(23)
    with mpmath.workdps(50):
        for _ in range(5):
            p = op.Poly(rng.uniform(-1.0, 1.0, d + 1))
            got = op.gegenbauer_expand(n, p).coeffs
            want = _mp_expand(n, p.coeffs)
            assert len(got) == d + 1
            scale = max(abs(w) for w in want)
            err = max(abs(mpmath.mpf(x) - w) for x, w in zip(got, want, strict=True))
            assert err <= 1e-15 * scale, (n, d, float(err / scale))


def _numpy_recurrence(alpha, beta, k):
    """The recurrence coefficients by the numpy formula the package used
    before it ran them in Python floats, with beta^2 - alpha^2 taken as
    (beta - alpha)(alpha + beta): the oracle for the float path."""
    ab = alpha + beta
    j = np.arange(1, k, dtype=float)
    s = 2 * j + ab
    a = np.concatenate(([(beta - alpha) / (ab + 2)], (beta - alpha) * ab / (s * (s + 2))))
    b1 = 4 * (1 + alpha) * (1 + beta) / ((ab + 2) ** 2 * (ab + 3))
    j, s = j[1:], s[1:]
    b = 4 * j * (j + alpha) * (j + beta) * (j + ab) / (s**2 * (s + 1) * (s - 1))
    return a, np.concatenate(([b1], b))[: k - 1]


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# the sphere's parameter lam = (n - 3)/2 for n in {3, 4, 24, 200}, with the
# (0, 0)-, (1, 0)-, (1, 1)- and (0, 1)-adjacent pairs the package solves, and
# a few pairs off that lattice
_LAMS = [(n - 3) / 2.0 for n in (3, 4, 24, 200)]
_PARAMS = [(lam + a, lam + b) for lam in _LAMS for a, b in ((0, 0), (1, 0), (1, 1), (0, 1))] + [
    (-0.5, -0.5), (0.5, -0.5), (-0.9, 2.3), (7.25, -0.75),
]
_KS = (1, 2, 3, 5, 8, 17, 31, 61)


@pytest.mark.parametrize("alpha, beta", _PARAMS)
def test_jacobi_recurrence_is_the_numpy_formula_bit_for_bit(alpha, beta):
    for k in _KS:
        a, b = op._jacobi_recurrence(alpha, beta, beta - alpha, k)
        want_a, want_b = _numpy_recurrence(alpha, beta, k)
        assert type(a) is list and type(b) is list
        assert all(type(x) is float for x in a + b)
        assert _same_bits(a, want_a) and _same_bits(b, want_b), k


@pytest.mark.parametrize("alpha, beta", _PARAMS)
def test_zeros_are_scipys_tridiagonal_solve_bit_for_bit(alpha, beta):
    # scipy's eigvalsh_tridiagonal picks LAPACK's tridiagonal dstevd for a
    # full spectrum; numpy's dense solve on the same matrix must give its
    # bits, k = 1 included
    for k in _KS:
        a, b = _numpy_recurrence(alpha, beta, k)
        assert _same_bits(op.jacobi_zeros(alpha, beta, k), eigvalsh_tridiagonal(a, np.sqrt(b))), k


def _kernel_zeros(alpha, beta, k, s):
    """All k zeros, ascending, of the kernel P_k(t) P_(k-1)(s) - P_k(s)
    P_(k-1)(t), P = P^(alpha,beta): scipy's eigenvalues of the Jacobi matrix
    with p_k(s) / p_(k-1)(s) of the monic p added to its last diagonal entry
    (Golub, SIAM Review 15, 1973), with t = s pinned. The oracle for
    Levenshtein's own description of the rule's nodes."""
    a, b = _numpy_recurrence(alpha, beta, k)
    p_prev, p = 1.0, s - a[0]
    for j in range(1, k):
        p_prev, p = p, (s - a[j]) * p - b[j - 1] * p_prev
    a[-1] += p / p_prev
    roots = eigvalsh_tridiagonal(a, np.sqrt(b))
    roots[np.argmin(np.abs(roots - s))] = s
    return roots


@pytest.mark.parametrize(
    "a, b, k, s",
    [
        (1.0, 0.0, 1, 0.3), (1.0, 0.0, 4, 0.5), (1.5, 1.5, 6, 0.8), (3.5, 2.5, 12, 0.6),
        (12.5, 12.5, 20, 0.55), (99.5, 98.5, 9, 0.3), (99.5, 99.5, 31, 0.45),
    ],
)
def test_kernel_zeros(a, b, k, s):
    roots = _kernel_zeros(a, b, k, s)
    assert len(roots) == k
    assert np.all(np.diff(roots) > 0)
    assert s in roots
    Pk_s, Pk1_s = special.eval_jacobi(k, a, b, s), special.eval_jacobi(k - 1, a, b, s)
    Pk_t, Pk1_t = special.eval_jacobi(k, a, b, roots), special.eval_jacobi(k - 1, a, b, roots)
    kernel = Pk_t * Pk1_s - Pk_s * Pk1_t
    scale = np.abs(Pk_t * Pk1_s) + np.abs(Pk_s * Pk1_t)
    assert np.max(np.abs(kernel) / scale) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 24, 200, 10**5])
def test_levenshtein_nodes_are_the_kernel_zeros_at_s(n):
    # Levenshtein's nodes beside 1 are the zeros of the kernel of (1 - t) dmu
    # at s, (lam + 1, lam), at odd tau, and beside -1 and 1 those of (1 - t^2)
    # dmu, (lam + 1, lam + 1), at even tau. The shifted matrix's nodes are
    # within 2e-15 of the 50-digit ones; the two paths differ by up to 4.8e-14,
    # at n = 4, tau = 54, the kernel path's own float error
    lam = (n - 3) / 2.0
    for tau in range(2, 61):
        k = (tau + 1) // 2
        lo, hi = lev.dgs_bound(n, tau), lev.dgs_bound(n, tau + 1)
        for N in ((lo + hi) // 2, hi - 1):
            rule = lev.quadrature_rule(n, tau, N)
            want = _kernel_zeros(lam + 1, lam + 1 - tau % 2, k, rule.s)
            assert np.max(np.abs(rule.nodes[1 - tau % 2:] - want)) <= 1e-13, (tau, N)


@pytest.mark.parametrize("n", [3, 4, 24, 200])
def test_weight_rule_is_scipys_golub_welsch_rule(n):
    # the nodes are scipy's eigenvalues to the bit; the weights, Christoffel
    # numbers from the recurrence, are the squared first components of
    # scipy's unit eigenvectors to 1e-14, the eigenvectors' own accuracy
    lam = (n - 3) / 2.0
    for m in _KS:
        a, b = _numpy_recurrence(lam, lam, m)
        _, vecs = eigh_tridiagonal(a, np.sqrt(b))
        rule = op.weight_rule(n, m)
        assert _same_bits(rule.nodes, eigvalsh_tridiagonal(a, np.sqrt(b))), m
        assert np.max(np.abs(rule.weights - vecs[0] ** 2)) <= 1e-14, m


@pytest.mark.parametrize(
    "a, b",
    [([np.nan, 1.0], [0.25]), ([np.inf, 1.0, 2.0], [0.25, 0.25]), ([1.0, 2.0], [np.inf]),
     ([1.0, 2.0], [np.nan]), ([np.nan], [])],
)
def test_non_finite_matrix_is_scipys_value_error(a, b):
    with pytest.raises(ValueError) as want:
        eigvalsh_tridiagonal(a, np.sqrt(b))
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        op._jacobi_eigh(a, b)


class _NonConvergingSolver:
    """numpy's eigen-solver gufuncs, failing as a LAPACK solve that does not
    converge fails: NaN results and the floating-point invalid flag, which
    numpy's eigvalsh turns into LinAlgError."""

    def __init__(self, real):
        self._real = real

    def __getattr__(self, name):
        gufunc = getattr(self._real, name)

        def failing(*args, **kwargs):
            out = gufunc(*args, **kwargs)
            out[...] = np.nan
            np.sqrt(-np.ones(1))  # sets the invalid flag
            return out

        return failing


def test_lapack_failure_is_lin_alg_error(monkeypatch):
    linalg = np.linalg._linalg
    monkeypatch.setattr(linalg, "_umath_linalg", _NonConvergingSolver(linalg._umath_linalg))
    for call in (
        lambda: op.jacobi_zeros(0.0, 0.0, 2),
        lambda: lev._shifted_matrix(3, 3, 7.0, lev.dgs_bound(3, 4)),
        lambda: op.weight_rule(5, 3),
        lambda: lev._branch_end(4, 5),
    ):
        with pytest.raises(LinAlgError, match="did not converge"):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: op.jacobi_zeros(-1.0, 0.0, 3),
        lambda: op.jacobi_zeros(0.0, -1.5, 3),
        lambda: op._jacobi_recurrence(-1.0, 0.0, 1.0, 3),
        lambda: op.jacobi_zeros(0.0, 0.0, 0),
        lambda: op._adjacent_recurrence(3, 0, 0),
        lambda: op._jacobi_recurrence(0.5, 0.5, 0.0, -2),
    ],
)
def test_bad_jacobi_parameters_are_range_errors(call):
    with pytest.raises(RangeError):
        call()
