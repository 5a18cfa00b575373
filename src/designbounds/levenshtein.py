"""Delsarte-Goethals-Seidel cardinality bounds, Levenshtein bound functions,
and the associated quadrature rules for (n, tau, N) triples.

The quadrature rule pairs a node at t = 1 with weight 1/N against interior
nodes alpha_i / beta_i and weights rho_i / gamma_i, and integrates the
normalized sphere weight exactly for polynomials of degree <= tau.

The cardinality equation L_tau(n, s) = N, and the even-range equation in
innerprod, are solved by ``_brentq``: Brent's method (Brent, Algorithms for
Minimization without Derivatives, 1973, ch. 4), ported step for step from
the C ``brentq`` of Python's numerical stack, with its defaults and errors,
so each root is that routine's to the bit; the tests compare the two.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import orthopoly as op
from .errors import InternalConsistencyError, RangeError

MAX_K = 30
# the one verification tolerance: a rule's exactness residuals, and in
# bounds a certificate's conditions and its value, are checked against it
DEB_TOL = 1e-9
# entries kept by the memos of interval and quadrature_rule; a sweep point's
# repeats fall within that point, so a few dozen keep every hit
MEMO_SIZE = 64


def dgs_bound(n: int, tau: int) -> int:
    """Minimum-cardinality bound D(n, tau) for strength-tau designs (exact)."""
    if n < 2 or tau < 0:
        raise RangeError(f"need n >= 2 and tau >= 0, got ({n}, {tau})")
    if tau % 2 == 1:
        k = (tau + 1) // 2
        return 2 * math.comb(n + k - 2, n - 1)
    k = tau // 2
    return math.comb(n + k - 1, n - 1) + math.comb(n + k - 2, n - 1)


@functools.lru_cache(maxsize=MEMO_SIZE)
def interval(n: int, m: int) -> tuple[float, float]:
    """Endpoints of the m-th branch interval of the Levenshtein bound;
    memoised on (n, m)."""
    if m < 1:
        raise RangeError(f"branch index must be >= 1, got {m}")
    k = (m + 1) // 2
    if m % 2 == 1:
        return op.adjacent_largest_zero(n, 1, 1, k - 1), op.adjacent_largest_zero(n, 1, 0, k)
    return op.adjacent_largest_zero(n, 1, 0, k), op.adjacent_largest_zero(n, 1, 1, k)


def lev_bound_m(n: int, m: int, s: float) -> float:
    """Levenshtein bound L_m(n, s) on a forced branch m."""
    if s >= 1:
        raise RangeError(f"s must be < 1, got {s}")
    k = (m + 1) // 2
    (P,) = op._checked_rows(n, k + 1 - m % 2, (s,))
    if m % 2 == 1:
        c, d = math.comb(k + n - 3, k - 1), (2 * k + n - 3) / (n - 1)
        num, den = P[k - 1] - P[k], (1 - s) * P[k]
    else:
        c, d = math.comb(k + n - 2, k), (2 * k + n - 1) / (n - 1)
        num, den = (1 + s) * (P[k] - P[k + 1]), (1 - s) * (P[k] + P[k + 1])
    if den == 0:
        raise RangeError(f"L_{m}(n={n}, s) divides by 0 at s = {s}: round-off puts s on a"
                         " zero of its denominator")
    return c * (d - num / den)


def solve_cardinality(n: int, tau: int, N: float) -> float:
    """Unique s on the tau-th interval with L_tau(n, s) = N."""
    lo_card, hi_card = _admissible(n, tau, N)
    lo, hi = interval(n, tau)
    if _at_bound(N, lo_card):
        return lo
    if _at_bound(N, hi_card):
        return hi
    if tau == 1:
        return -1.0 / (N - 1)
    f = lambda s: lev_bound_m(n, tau, s) - N
    try:
        s = _brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
    except ValueError as e:
        raise RangeError(
            f"L_{tau}(n={n}, s) - N has no sign change on [{lo}, {hi}] for N = {N}:"
            " round-off in L_tau exceeds the distance to an endpoint"
        ) from e
    return float(s)


_XTOL, _RTOL, _MAXITER = 2e-12, 4 * np.finfo(float).eps, 100


def _brentq(f, a: float, b: float, xtol: float = _XTOL, rtol: float = _RTOL,
            maxiter: int = _MAXITER) -> float:
    """A root of f on [a, b], where f(a) and f(b) differ in sign, to within
    xtol + rtol |x|. An end where f is 0 is returned as it is. A ValueError
    when f has the same sign at both ends or a NaN value; a RuntimeError
    when maxiter steps do not converge.

    Brent's method: xcur is the best estimate, xblk the other end of the
    bracket and xpre the previous estimate. Each step takes the secant
    (two points) or inverse quadratic (three points) step when it is short
    enough, and bisects otherwise."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _at_bound(N: float, D: int) -> bool:
    """N is the cardinality bound D in double precision. Above 2^53 an N
    given as a float need not equal the integer D it was written as."""
    return float(N) == float(D)


def _admissible(n: int, tau: int, N: float, ends: str = "[]") -> tuple[int, int]:
    """D(n, tau) and D(n, tau + 1), once tau >= 1, both are doubles and N
    lies between them in double precision, as _at_bound compares; a bracket
    of ends ("[]", "[)" or "()") includes its end."""
    if tau < 1:
        raise RangeError(f"need tau >= 1, got {tau}")
    lo, hi = dgs_bound(n, tau), dgs_bound(n, tau + 1)
    try:
        x = float(N)
    except OverflowError:  # an int past the doubles lies outside
        x = math.nan
    try:
        a, b = float(lo), float(hi)
    except OverflowError:  # hi >= lo is past the doubles
        raise RangeError(f"D(n, tau + 1) is past the doubles for (n={n}, tau={tau})") from None
    if not ((a <= x if ends[0] == "[" else a < x) and (x <= b if ends[1] == "]" else x < b)):
        bracket = f"{ends[0]}{lo}, {hi}{ends[1]}"
        raise RangeError(f"N = {N} outside admissible interval {bracket} for (n={n}, tau={tau})")
    return lo, hi


@dataclass(frozen=True)
class DesignSpec:
    n: int
    tau: int
    N: float

    def to_json(self) -> dict:
        N = self.N
        return {"n": self.n, "tau": self.tau, "N": int(N) if float(N).is_integer() else N}


@dataclass(frozen=True)
class QuadratureRule:
    spec: DesignSpec
    s: float
    nodes: np.ndarray
    weights: np.ndarray
    parity: str  # "odd" | "even"
    exactness_residuals: np.ndarray
    boundary: bool

    def to_json(self) -> dict:
        d = self.spec.to_json()
        d.update(
            s=self.s,
            nodes=list(self.nodes),
            weights=list(self.weights),
            parity=self.parity,
            exactness_residuals=list(self.exactness_residuals),
            boundary=self.boundary,
        )
        return d


@functools.lru_cache(maxsize=MEMO_SIZE, typed=True)
def quadrature_rule(n: int, tau: int, N: float) -> QuadratureRule:
    """Levenshtein quadrature for the (n, tau, N) triple, exact to degree
    tau. The rule is memoised on (n, tau, N), typed, so an int and a float N
    keep their own spec; its arrays are read-only. The exactness check runs
    once, when the rule is built, and an error is raised, not kept."""
    k = (tau + 1) // 2
    if k > MAX_K:
        raise RangeError(f"k = {k} exceeds cap {MAX_K}")
    s = solve_cardinality(n, tau, N)
    at_lo = _at_bound(N, dgs_bound(n, tau))
    boundary = at_lo or _at_bound(N, dgs_bound(n, tau + 1))
    lam = (n - 3) / 2.0
    try:  # the (1, 0)-adjacent kernel at odd tau, the (1, 1)-adjacent one at even tau
        roots = op.kernel_zeros(lam + 1, lam if tau % 2 else lam + 1, k, s).tolist()
    except ValueError:  # p_{k-1}(s) is 0 in doubles, and the shift infinite
        raise RangeError(f"the kernel at s = {s} has an infinite shift for (n={n}, tau={tau}):"
                         " p_(k-1)(s) rounds to 0") from None
    # weights gamma_i / (1 - x_i), gamma the Christoffel numbers of (1 - t) dmu,
    # mass 1, whose Jacobi matrix is (lam + 1, lam)'s (Golub, SIAM Review 15, 1973)
    if tau % 2 == 1:
        xs = roots  # alpha_0 < ... < alpha_{k-1} = s (Radau)
        gammas = op._christoffel(*op._jacobi_recurrence(lam + 1, lam, k), xs)
        parity = "odd"
    else:
        # -1, the interior double nodes beta_1 < ... < beta_{k-1} and beta_k = s
        # (Lobatto: b_k makes -1 and s zeros of p_{k+1})
        xs = [-1.0, *(x for x in roots if x != s), s]
        a, b = op._jacobi_recurrence(lam + 1, lam, k)
        (u0, u1), (v0, v1) = op._monic(a, b, -1.0), op._monic(a, b, s)
        b_k = -(1 + s) * u1 * v1 / (u0 * v1 - v0 * u1)
        if b_k > 0 and not at_lo:
            gammas = op._christoffel(a, [*b, b_k], xs)
        else:  # b_k is 0 at N = D(tau), up to round-off, and so is -1's weight
            gammas = [0.0, *op._christoffel(a, b, xs[1:])]
        parity = "even"
    nodes = np.array(xs)
    weights = np.array([g / (1 - x) for g, x in zip(gammas, xs)])
    if any(y <= x for x, y in zip(xs, xs[1:])):
        raise InternalConsistencyError(f"nodes not strictly increasing: {nodes}")
    if weights.min() <= 0 and not boundary:
        raise InternalConsistencyError(f"nonpositive quadrature weight: {weights}")
    # every row of the table gives an exactness residual
    table = np.array(list(zip(*op._checked_rows(n, tau, xs))))
    res = 1.0 / N + table @ weights
    res[0] -= 1.0
    for a in (nodes, weights, res):
        a.setflags(write=False)
    if float(np.max(np.abs(res))) > DEB_TOL:
        raise InternalConsistencyError(
            f"exactness check failed for (n={n}, tau={tau}, N={N}): residuals {res}"
        )
    return QuadratureRule(
        spec=DesignSpec(n=n, tau=tau, N=N),
        s=s,
        nodes=nodes,
        weights=weights,
        parity=parity,
        exactness_residuals=res,
        boundary=boundary,
    )

