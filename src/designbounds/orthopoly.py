"""Gegenbauer/Jacobi polynomial evaluation, zeros, sphere-weight quadrature
and Gegenbauer expansions.

Every node set comes from one symmetric tridiagonal eigenproblem: Jacobi
zeros and Gauss rules from the Jacobi matrix (Golub-Welsch), and the zeros
of the kernel P_k(t) P_{k-1}(s) - P_k(s) P_{k-1}(t) from the same matrix with
its last diagonal entry shifted.

Conventions: Gegenbauer polynomials P_i are normalized so P_i(1) = 1 for the
dimension-n sphere weight (1-t^2)^((n-3)/2); the weight itself is normalized
to total mass 1, so the degree-0 expansion coefficient of a polynomial equals
its weighted mean.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import special
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .errors import RangeError

MAX_DEGREE = 60
CONDITIONING_DEGREE = 30
# entries kept by each memo here and in levenshtein; every repeat a sweep
# point makes falls within that point, so a few dozen keep every hit
MEMO_SIZE = 64


@dataclass(frozen=True)
class Poly:
    """Real polynomial in the monomial basis, constant term first."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        # trim trailing exact zeros only; NaN and inf stay, so validation sees them
        nonzero = np.flatnonzero(c != 0.0)
        c = c[: nonzero[-1] + 1] if nonzero.size else c[:1]
        object.__setattr__(self, "coeffs", tuple(float(x) for x in c))

    @property
    def degree(self) -> int:
        # the zero polynomial has degree 0 by convention
        return max(len(self.coeffs) - 1, 0)

    def __call__(self, t):
        """Horner's rule into one output buffer; bit-identical to
        ``npoly.polyval``, which starts from ``t*0 + c[-1]`` so that inf and
        NaN in t propagate. A scalar or 0-d t runs the same operations in
        Python floats and gives a numpy scalar."""
        t = _scalar_or_array(t)
        if isinstance(t, np.ndarray):
            out = t * 0
            out += self.coeffs[-1]
            for c in self.coeffs[-2::-1]:
                out *= t
                out += c
            return out
        out = t * 0 + self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            out = out * t + c
        return np.float64(out)

    def deriv(self, order: int = 1) -> "Poly":
        return Poly(npoly.polyder(self.coeffs, order)) if order else self

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(npoly.polyadd(self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(npoly.polysub(self.coeffs, other.coeffs))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            return Poly(npoly.polymul(self.coeffs, other.coeffs))
        return Poly(np.asarray(self.coeffs) * float(other))

    __rmul__ = __mul__

    def to_json(self) -> list[float]:
        return list(self.coeffs)


def _scalar_or_array(t):
    """t as a Python float when it is a scalar or 0-d, else as a float
    array. Python float arithmetic rounds as numpy's does, so the scalar
    path gives the same bits without numpy's per-operation cost."""
    if isinstance(t, float):  # np.float64 is a float
        return float(t)
    t = np.asarray(t, dtype=float)
    return t if t.ndim else float(t)


def poly_from_roots(roots) -> Poly:
    """Monic polynomial from (root, multiplicity) pairs."""
    return Poly(npoly.polyfromroots([float(t) for t, mult in roots for _ in range(int(mult))]))


def _check_dimension(n: int) -> None:
    if n < 2:
        raise RangeError(f"dimension n must be >= 2, got {n}")


def _check_degree(i: int) -> None:
    if i < 0:
        raise RangeError(f"degree must be >= 0, got {i}")
    if i > MAX_DEGREE:
        raise RangeError(f"degree {i} exceeds cap {MAX_DEGREE}")
    if i > CONDITIONING_DEGREE:
        warnings.warn(
            f"degree {i} > {CONDITIONING_DEGREE}: double-precision conditioning degrades",
            stacklevel=2,
        )


def gegenbauer_eval(n: int, i: int, t):
    """P_i at t for dimension n via the three-term recurrence; P_i(1) = 1."""
    return gegenbauer_derivative(n, i, t, 0)


def gegenbauer_table(n: int, d: int, t) -> np.ndarray:
    """P_0..P_d at t, one row per degree, from one pass of the recurrence."""
    _check_dimension(n)
    _check_degree(d)
    return np.array(_recurrence_rows(n, d, t))


def gegenbauer_derivative(n: int, i: int, t, order: int):
    """Order-th derivative of P_i at t. P_i' = i(i+n-2)/(n-1) P_{i-1} in
    dimension n + 2 (d/dt C_i^lam = 2 lam C_{i-1}^{lam+1}), so the result is
    c P_{i-order} in dimension n + 2 order, and 0 when order > i."""
    _check_dimension(n)
    _check_degree(i)
    if order < 0:
        raise RangeError(f"derivative order must be >= 0, got {order}")
    # an order above i stops at the factor m = i, which is 0, so the result is +0
    c = math.prod((i - m) * (i + m + n - 2) / (n + 2 * m - 1) for m in range(min(order, i + 1)))
    out = c * _recurrence_rows(n + 2 * order, max(i - order, 0), t)[-1]
    return out if isinstance(out, np.ndarray) else float(out)


def _recurrence_rows(n: int, d: int, t) -> list:
    """P_0..P_d at t, one array per degree; a scalar or 0-d t runs the same
    operations in Python floats, one float per degree."""
    t = _scalar_or_array(t)
    rows = [np.ones_like(t), t] if isinstance(t, np.ndarray) else [1.0, t]
    for deg in range(1, d):
        a, b = 2 * deg + n - 2, deg + n - 2
        rows.append((a * (t * rows[-1]) - deg * rows[-2]) / b)
    return rows[: d + 1]


def gegenbauer_poly(n: int, i: int) -> Poly:
    """Monomial-basis coefficients of P_i for dimension n."""
    _check_dimension(n)
    _check_degree(i)
    if i == 0:
        return Poly([1.0])
    prev, cur = Poly([1.0]), Poly([0.0, 1.0])
    for deg in range(1, i):
        a, b = 2 * deg + n - 2, deg + n - 2
        shifted = npoly.polymul([0.0, 1.0], cur.coeffs)
        cur, prev = Poly(npoly.polysub(a / b * np.asarray(shifted), deg / b * np.asarray(prev.coeffs))), cur
    return cur


def jacobi_eval(alpha: float, beta: float, k: int, t):
    """Standard Jacobi polynomial P_k^(alpha,beta), P_k(1) = binom(k+alpha, k)."""
    if alpha <= -1 or beta <= -1:
        raise RangeError(f"Jacobi parameters must exceed -1, got ({alpha}, {beta})")
    if k < 0:
        raise RangeError(f"degree must be >= 0, got {k}")
    return special.eval_jacobi(k, alpha, beta, np.asarray(t, dtype=float))


def _jacobi_recurrence(alpha: float, beta: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients a_0..a_{k-1}, b_1..b_{k-1} of the monic Jacobi recurrence
    p_{j+1}(t) = (t - a_j) p_j(t) - b_j p_{j-1}(t)."""
    if alpha <= -1 or beta <= -1:
        raise RangeError(f"Jacobi parameters must exceed -1, got ({alpha}, {beta})")
    if k < 1:
        raise RangeError(f"degree must be >= 1, got {k}")
    ab = alpha + beta
    j = np.arange(1, k, dtype=float)
    s = 2 * j + ab
    a = np.concatenate(([(beta - alpha) / (ab + 2)], (beta**2 - alpha**2) / (s * (s + 2))))
    # b_1 is written out: the general form is 0/0 at alpha + beta = -1
    b1 = 4 * (1 + alpha) * (1 + beta) / ((ab + 2) ** 2 * (ab + 3))
    j, s = j[1:], s[1:]
    b = 4 * j * (j + alpha) * (j + beta) * (j + ab) / (s**2 * (s + 1) * (s - 1))
    return a, np.concatenate(([b1], b))[: k - 1]


def jacobi_zeros(alpha: float, beta: float, k: int) -> np.ndarray:
    """All k zeros of P_k^(alpha,beta), ascending: the eigenvalues of the
    k x k Jacobi matrix."""
    a, b = _jacobi_recurrence(alpha, beta, k)
    return eigvalsh_tridiagonal(a, np.sqrt(b))


def kernel_zeros(alpha: float, beta: float, k: int, s: float) -> np.ndarray:
    """All k zeros, ascending, of P_k(t) P_{k-1}(s) - P_k(s) P_{k-1}(t) for
    P = P^(alpha,beta). In monic form the kernel is p_k - r p_{k-1} with
    r = p_k(s)/p_{k-1}(s), whose zeros are the eigenvalues of the Jacobi
    matrix with r added to its last diagonal entry (Golub, SIAM Review 15,
    1973). t = s is always among them and is pinned exactly."""
    a, b = _jacobi_recurrence(alpha, beta, k)
    p_prev, p = 1.0, s - a[0]
    for j in range(1, k):
        p_prev, p = p, (s - a[j]) * p - b[j - 1] * p_prev
    a[-1] += p / p_prev
    roots = eigvalsh_tridiagonal(a, np.sqrt(b))
    roots[np.argmin(np.abs(roots - s))] = s
    return roots


def adjacent_largest_zero(n: int, a: int, b: int, k: int) -> float:
    """Largest zero t_k^{a,b} of the adjacent Jacobi polynomial; t_0^{1,1} = -1."""
    if a not in (0, 1) or b not in (0, 1):
        raise RangeError(f"a, b must be 0 or 1, got ({a}, {b})")
    if k == 0:
        if (a, b) == (1, 1):
            return -1.0
        raise RangeError("k = 0 is only defined for (a, b) = (1, 1)")
    _check_dimension(n)
    alpha = a + (n - 3) / 2.0
    beta = b + (n - 3) / 2.0
    return float(jacobi_zeros(alpha, beta, k)[-1])


def weight_moment(n: int, j: int) -> float:
    """Exact monomial moment of the normalized sphere weight (Beta function)."""
    if j % 2 == 1:
        return 0.0
    return float(special.beta((j + 1) / 2.0, (n - 1) / 2.0) / special.beta(0.5, (n - 1) / 2.0))


@dataclass(frozen=True)
class WeightRule:
    """Gauss rule for the normalized weight (1-t^2)^((n-3)/2); mass 1."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


@functools.lru_cache(maxsize=MEMO_SIZE)
def weight_rule(n: int, m: int) -> WeightRule:
    """m-point Gauss rule, exact on polynomials of degree <= 2m-1 (Golub and
    Welsch, Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    Jacobi matrix, and the weights the squared first components of its unit
    eigenvectors, which sum to 1. Memoised on (n, m); the arrays are
    read-only."""
    _check_dimension(n)
    if m < 1:
        raise RangeError(f"node count must be >= 1, got {m}")
    lam = (n - 3) / 2.0
    a, b = _jacobi_recurrence(lam, lam, m)
    nodes, vecs = eigh_tridiagonal(a, np.sqrt(b))
    weights = vecs[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return WeightRule(nodes=nodes, weights=weights)


@dataclass(frozen=True)
class GegExpansion:
    """Coefficients of a polynomial over the Gegenbauer basis for dimension n."""

    n: int
    coeffs: tuple[float, ...]

    def reconstruct(self) -> Poly:
        out = Poly([0.0])
        for i, c in enumerate(self.coeffs):
            if c != 0.0:
                out = out + c * gegenbauer_poly(self.n, i)
        return out

    def __call__(self, t):
        table = gegenbauer_table(self.n, len(self.coeffs) - 1, t)
        return np.tensordot(self.coeffs, table, axes=1)

    def to_json(self) -> list[float]:
        return list(self.coeffs)


def gegenbauer_expand(n: int, p: Poly) -> GegExpansion:
    """Exact-degree expansion of p over the Gegenbauer basis by projection
    with the (d+1)-point Gauss rule."""
    _check_dimension(n)
    nodes, weights, table, norms = _projection(n, p.degree)
    coeffs = (table @ (weights * p(nodes))) / norms
    return GegExpansion(n=n, coeffs=tuple(float(c) for c in coeffs))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _projection(n: int, d: int):
    """The (d+1)-point Gauss rule's nodes and weights, P_0..P_d at the nodes
    (one recurrence pass) and the norms sum_j w_j P_i(x_j)^2; memoised on
    (n, d), read-only."""
    rule = weight_rule(n, d + 1)
    table = gegenbauer_table(n, d, rule.nodes)
    norms = table**2 @ rule.weights
    table.setflags(write=False)
    norms.setflags(write=False)
    return rule.nodes, rule.weights, table, norms
