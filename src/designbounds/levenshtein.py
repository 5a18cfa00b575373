"""Delsarte-Goethals-Seidel cardinality bounds, the branch intervals of the
Levenshtein bound, and the associated quadrature rules for (n, tau, N)
triples.

The quadrature rule pairs a node at t = 1 with weight 1/N against interior
nodes alpha_i / beta_i and weights rho_i / gamma_i, and integrates the
normalized sphere weight exactly for polynomials of degree <= tau.

Its nodes, the largest node s included, come from one symmetric
eigenproblem with no root finder: k nodes beside weight 1/N at t = 1, exact
to degree 2k - 1, are the Gauss rule of mu - delta_1 / N, so they and 1 are
the eigenvalues of mu's (k+1) x (k+1) Jacobi matrix with its last row
changed (Golub's modified eigenproblem, SIAM Review 15, 1973, on the
point-mass modification of Gautschi, Orthogonal Polynomials, 2004, ch. 2).
Even tau takes the same step on (1 + t) dmu beside -1. s then solves
L_tau(n, s) = N, the Levenshtein bound on its tau-th branch.
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
# entries kept by the memos of interval, read at the cardinality bounds, and
# quadrature_rule; a sweep point's repeats fall within that point, so a few
# dozen keep every hit
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


def solve_cardinality(n: int, tau: int, N: float) -> float:
    """Unique s on the tau-th interval with L_tau(n, s) = N: the largest
    node of the (n, tau, N) rule."""
    return quadrature_rule(n, tau, N).s


def _nodes_beside_1(n: int, plus: int, k: int, N: float) -> list:
    """The k nodes, ascending, of the rule for (1 + t)^plus dmu, mass 1, that is
    exact to degree 2k - 1 beside weight 1/N at t = 1: the Gauss rule of that
    weight minus delta_1 / N. Its k nodes and 1 are the eigenvalues of the
    weight's Jacobi matrix at size k + 1 with b_k = rho^2 / (N - K) and a_k
    = 1 - rho q_(k-1)(1) / (N - K), where K = sum_(j<k) q_j(1)^2 over the
    orthonormal q_j, rho = sqrt(b_k) q_k(1), and 1 / (K + rho^2 / b_k) = 1/N
    is the Christoffel number at 1. The q_j(1) come from the orthonormal
    recurrence, so no product of the b_j underflows at large n."""
    a, b = op._adjacent_recurrence(n, 0, plus, k + 1)
    roots = [math.sqrt(x) for x in b]
    q_prev, q, K = 0.0, 1.0, 0.0
    for aj, r, r_prev in zip(a, roots, [0.0, *roots]):
        K += q * q
        q_prev, q = q, ((1 - aj) * q - r_prev * q_prev) / r
    rho, gap = roots[-1] * q, N - K
    b[-1] = rho * rho / gap
    a[-1] = 1 - rho * q_prev / gap
    return op._jacobi_eigh(a, b).tolist()[:-1]


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
    lo_card, hi_card = _admissible(n, tau, N)
    at_lo = _at_bound(N, lo_card)
    boundary = at_lo or _at_bound(N, hi_card)
    odd = tau % 2 == 1
    # alpha_0 < ... < alpha_(k-1) = s beside 1/N (odd tau), or beta_1 < ... <
    # beta_k = s of (1 + t) dmu beside 2/N, since (1 + t) f vanishes at the
    # node -1 (even tau); at tau = 1 the one node has a closed form
    if tau == 1:
        xs = [-1.0 / (N - 1)]
    else:
        xs = _nodes_beside_1(n, 0, k, N) if odd else _nodes_beside_1(n, 1, k, N / 2)
    if boundary:  # s is the interval's end, and at odd tau's lower end the rule is tau - 1's
        xs[-1] = interval(n, tau)[0 if at_lo else 1]
        if at_lo and odd:
            xs[0] = -1.0
    s = xs[-1]
    # weights gamma_i / (1 - x_i), gamma the Christoffel numbers of (1 - t) dmu,
    # mass 1, whose Jacobi matrix is (lam + 1, lam)'s (Golub, SIAM Review 15, 1973)
    if odd:
        gammas = op._christoffel(*op._adjacent_recurrence(n, 1, 0, k), xs)  # Gauss-Radau at s
        parity = "odd"
    else:
        # -1 beside the betas (Lobatto: b_k makes -1 and s zeros of p_(k+1))
        xs = [-1.0, *xs]
        a, b = op._adjacent_recurrence(n, 1, 0, k)
        (u0, u1), (v0, v1) = op._monic(a, b, -1.0), op._monic(a, b, s)
        b_k = -(1 + s) * u1 * v1 / (u0 * v1 - v0 * u1)
        if b_k > 0 and not at_lo:
            gammas = op._christoffel(a, [*b, b_k], xs)
        elif boundary:  # b_k is 0 at N = D(tau), up to round-off, and so is -1's weight
            gammas = [0.0, *op._christoffel(a, b, xs[1:])]
        else:
            raise RangeError(
                f"N = {N} is within round-off of D(n, tau) = {dgs_bound(n, tau)} for (n={n},"
                f" tau={tau}): the Lobatto coefficient b_k = {b_k:.3g} at s = {s} is not"
                " positive, so -1 gets no weight")
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

