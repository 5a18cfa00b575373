"""Gegenbauer/Jacobi polynomial evaluation, zeros, sphere-weight quadrature
and Gegenbauer expansions.

Every node set comes from one symmetric tridiagonal eigenproblem: Jacobi
zeros and Gauss rules from the Jacobi matrix (Golub-Welsch), the Levenshtein
rules' nodes from such a matrix with its last diagonal entry shifted (in
levenshtein), and every weight, but a closed form for -1, from the
Christoffel numbers of such a matrix. The matrices are at most 61 x 61, so
each solve is numpy's dense symmetric one (``_jacobi_eigh``) on the k x k
matrix, lower triangle filled: on a tridiagonal matrix it gives the bits of
LAPACK's tridiagonal dstevd, and the package needs only numpy at run time.
Expansions are Horner's rule in the Gegenbauer basis, with no quadrature.
bench/tracer.py wraps jacobi_zeros, weight_rule and gegenbauer_derivative,
their only users.

Conventions: Gegenbauer polynomials P_i are normalized so P_i(1) = 1 for the
dimension-n sphere weight (1-t^2)^((n-3)/2); the weight itself is normalized
to total mass 1, so the degree-0 expansion coefficient of a polynomial equals
its weighted mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import RangeError

MAX_DEGREE = 60


@dataclass(frozen=True)
class Poly:
    """Real polynomial in the monomial basis, constant term first."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs):
        c = [float(x) for x in (coeffs if isinstance(coeffs, (list, tuple))
                                else np.atleast_1d(coeffs))]
        # trim trailing exact zeros only; NaN and inf stay, so validation sees
        # them; no coefficients at all is the zero polynomial
        end = len(c)
        while end > 1 and c[end - 1] == 0.0:
            end -= 1
        object.__setattr__(self, "coeffs", tuple(c[:end]) if c else (0.0,))

    @property
    def degree(self) -> int:
        # the zero polynomial has degree 0 by convention
        return max(len(self.coeffs) - 1, 0)

    def __call__(self, t, out=None):
        """Horner's rule into one output buffer, a fresh array or out, an
        array of t's shape; bit-identical to ``npoly.polyval``, which starts
        from ``t*0 + c[-1]`` so that inf and NaN in t propagate. A scalar or
        0-d t runs the same operations in Python floats and gives a numpy
        scalar."""
        t = _scalar_or_array(t)
        if isinstance(t, np.ndarray):
            out = np.multiply(t, 0, out=out)
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

    def to_json(self) -> list[float]:
        return list(self.coeffs)


def _scalar_or_array(t):
    """t as a Python float when it is a scalar or 0-d, else as a float
    array. Python float arithmetic rounds as numpy's does, so the scalar path
    gives the same bits without numpy's per-operation cost."""
    if isinstance(t, float):  # np.float64 is a float
        return float(t)
    t = np.asarray(t, dtype=float)
    return t if t.ndim else float(t)


def _check_dimension(n: int) -> None:
    if n < 2:
        raise RangeError(f"dimension n must be >= 2, got {n}")


def _check_degree(i: int) -> None:
    if i < 0:
        raise RangeError(f"degree must be >= 0, got {i}")
    if i > MAX_DEGREE:
        raise RangeError(f"degree {i} exceeds cap {MAX_DEGREE}")


def gegenbauer_table(n: int, d: int, t) -> np.ndarray:
    """P_0..P_d at t, one row per degree, from one pass of the recurrence."""
    return np.array(_checked_rows(n, d, (t,))[0])


def _checked_rows(n: int, d: int, ts) -> list[list]:
    """P_0..P_d at each t in ts, one list per t, after one check of n and
    d for them all. At a scalar t the rows are Python floats, for callers
    that read a few values and need no array."""
    _check_dimension(n)
    _check_degree(d)
    return [_recurrence_rows(n, d, t) for t in ts]


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


def _jacobi_recurrence(alpha: float, beta: float, gap: float, k: int) -> tuple[list, list]:
    """Coefficients a_0..a_{k-1}, b_1..b_{k-1} of the monic Jacobi recurrence
    p_{j+1}(t) = (t - a_j) p_j(t) - b_j p_{j-1}(t), as fresh lists of
    floats. gap is beta - alpha, given exactly: past 2^53 alpha and beta may
    round to one double, while the a_j are gap (alpha + beta) / s(s + 2)."""
    if alpha <= -1 or beta <= -1:
        raise RangeError(f"Jacobi parameters must exceed -1, got ({alpha}, {beta})")
    if k < 1:
        raise RangeError(f"degree must be >= 1, got {k}")
    ab = alpha + beta
    diff = gap * ab
    a = [gap / (ab + 2)]
    # b_1 is written out: the general form is 0/0 at alpha + beta = -1
    b = [4 * (1 + alpha) * (1 + beta) / ((ab + 2) ** 2 * (ab + 3))]
    for j in range(1, k):
        s = 2 * j + ab
        a.append(diff / (s * (s + 2)))
        if j > 1:
            b.append(4 * j * (j + alpha) * (j + beta) * (j + ab) / (s * s * (s + 1) * (s - 1)))
    if not all(x > 0 for x in b[: k - 1]):  # 0 or NaN past the largest double
        raise OverflowError("Jacobi recurrence coefficient past the doubles")
    return a, b[: k - 1]


def _jacobi_eigh(a: list, b: list) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric tridiagonal matrix with
    diagonal a and off-diagonal sqrt(b). numpy's eigvalsh reads the lower
    triangle of the dense matrix, filled by flat index. A non-finite entry
    is a ValueError, raised before the solve, which would return NaNs for
    it; a solver failure is numpy's LinAlgError."""
    if not (all(map(math.isfinite, a)) and all(map(math.isfinite, b))):
        raise ValueError("array must not contain infs or NaNs")
    k = len(a)
    m = np.zeros(k * k)
    m[:: k + 1] = a
    m[k :: k + 1] = [math.sqrt(x) for x in b]
    return np.linalg.eigvalsh(m.reshape(k, k), UPLO="L")


def _christoffel(a: list, b: list, xs):
    """1 / sum_j q_j(x)^2 over the orthonormal q_0 = 1..q_len(b) of the
    recurrence, for each x in xs: at an eigenvalue x of _jacobi_eigh's matrix,
    the squared first component of its unit eigenvector (Golub and Welsch,
    1969). a[len(b)], which a Radau shift moves, is never read."""
    roots = [math.sqrt(x) for x in b]
    steps = list(zip(a, roots, [0.0, *roots]))
    for x in xs:
        q_prev, q, total = 0.0, 1.0, 1.0
        for aj, r, r_prev in steps:
            q_prev, q = q, ((x - aj) * q - r_prev * q_prev) / r
            total += q * q
        yield 1.0 / total


def jacobi_zeros(alpha: float, beta: float, k: int) -> np.ndarray:
    """All k zeros of P_k^(alpha,beta), ascending: the eigenvalues of the
    k x k Jacobi matrix."""
    a, b = _jacobi_recurrence(alpha, beta, beta - alpha, k)
    return _jacobi_eigh(a, b)


def adjacent_largest_zero(n: int, a: int, b: int, k: int) -> float:
    """Largest zero t_k^{a,b} of the adjacent Jacobi polynomial; t_0^{1,1} = -1."""
    if a not in (0, 1) or b not in (0, 1):
        raise RangeError(f"a, b must be 0 or 1, got ({a}, {b})")
    if k == 0:
        if (a, b) == (1, 1):
            return -1.0
        raise RangeError("k = 0 is only defined for (a, b) = (1, 1)")
    return float(_jacobi_eigh(*_adjacent_recurrence(n, a, b, k))[-1])


def _adjacent_recurrence(n: int, a: int, b: int, k: int) -> tuple[list, list]:
    """_jacobi_recurrence of the adjacent weight (1 - t)^a (1 + t)^b dmu,
    parameters (a + (n - 3)/2, b + (n - 3)/2) and their exact gap b - a,
    after a check of n."""
    _check_dimension(n)
    lam = (n - 3) / 2.0
    try:
        return _jacobi_recurrence(a + lam, b + lam, b - a, k)
    except OverflowError:  # the recurrence squares alpha + beta + 2
        raise RangeError(
            f"n = {n} too large: the Jacobi recurrence squares past the largest double"
        ) from None


@dataclass(frozen=True)
class WeightRule:
    """Gauss rule for the normalized weight (1-t^2)^((n-3)/2); mass 1."""

    nodes: np.ndarray
    weights: np.ndarray


def weight_rule(n: int, m: int) -> WeightRule:
    """m-point Gauss rule, exact on polynomials of degree <= 2m-1 (Golub and
    Welsch, Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    Jacobi matrix, and the weights its Christoffel numbers, which sum to 1."""
    _check_dimension(n)
    if m < 1:
        raise RangeError(f"node count must be >= 1, got {m}")
    lam = (n - 3) / 2.0
    a, b = _jacobi_recurrence(lam, lam, 0, m)
    nodes = _jacobi_eigh(a, b)
    return WeightRule(nodes=nodes, weights=np.fromiter(_christoffel(a, b, nodes.tolist()), float))


@dataclass(frozen=True)
class GegExpansion:
    """Coefficients of a polynomial over the Gegenbauer basis for dimension n."""

    n: int
    coeffs: tuple[float, ...]

    def to_json(self) -> list[float]:
        return list(self.coeffs)


def gegenbauer_expand(n: int, p: Poly) -> GegExpansion:
    """Exact-degree expansion of p over the Gegenbauer basis by Horner's rule
    in that basis, in Python floats: g <- t g + p_k from g = [p_d], with
    t P_0 = P_1 and t P_i = ((i+n-2) P_{i+1} + i P_{i-1})/(2i+n-2). Both
    factors are nonnegative, so nothing cancels that p's own terms do not."""
    d = p.degree
    _check_dimension(n)
    _check_degree(d)
    # up[j] and down[j]: the factors of P_j in t P_{j-1} and in t P_{j+1}
    up = [0.0, 1.0] + [(j + n - 3) / (2 * j + n - 4) for j in range(2, d + 1)]
    down = [(j + 1) / (2 * j + n) for j in range(d + 1)]
    g = [p.coeffs[-1]]
    for c in p.coeffs[-2::-1]:
        g = [a * x + b * y for a, x, b, y in zip(up, [0.0, *g], down, [*g[1:], 0.0, 0.0])]
        g[0] += c
    return GegExpansion(n=n, coeffs=tuple(g))
