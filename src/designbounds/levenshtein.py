"""Delsarte-Goethals-Seidel cardinality bounds, the branch intervals of the
Levenshtein bound, and the associated quadrature rules for (n, tau, N)
triples.

The quadrature rule pairs a node at t = 1 with weight 1/N against interior
nodes alpha_i / beta_i and weights rho_i / gamma_i, and integrates the
normalized sphere weight exactly for polynomials of degree <= tau.

Its nodes, the largest node s included, are the eigenvalues of one k x k
Jacobi matrix, with no root finder: that of (1 - t) dmu at odd tau, or of
(1 - t^2) dmu beside -1 at even tau, with its last diagonal entry lowered
by a closed form in N and the cardinality bounds D(n, tau +- 1) (the
kernel polynomial of the point-mass modification mu - delta_1 / N,
Gautschi, Orthogonal Polynomials, 2004, ch. 2); s solves L_tau(n, s) = N,
the Levenshtein bound on its tau-th branch. Its weights are that matrix's
Christoffel numbers, but -1's at even tau, a closed form exact in N - D.
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
# entries kept by the memo of quadrature_rule; a sweep point's repeats fall
# within that point, so a few dozen keep every hit
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


def interval(n: int, m: int) -> tuple[float, float]:
    """Endpoints of the m-th branch interval of the Levenshtein bound: the
    (m - 1)-th and the m-th branch ends. Not memoised: a rule at N = D(n,
    tau) reads only its lower end, through _branch_end, and rule builds are
    memoised."""
    if m < 1:
        raise RangeError(f"branch index must be >= 1, got {m}")
    return _branch_end(n, m - 1), _branch_end(n, m)


def _branch_end(n: int, m: int) -> float:
    """The upper end of the m-th branch interval, the lower end of the
    (m + 1)-th: -1 at m = 0, and otherwise the largest zero of the adjacent
    Jacobi polynomial t_k^{1,plus}, k = (m + 1) // 2 and plus = 1 - m % 2
    (t_k^{1,0} at odd m, t_k^{1,1} at even m), the largest eigenvalue of
    the matrix _shifted_matrix shifts at strength m."""
    if m == 0:
        return -1.0
    return float(op._jacobi_eigh(*op._adjacent_recurrence(n, 1 - m % 2, (m + 1) // 2))[-1])


def solve_cardinality(n: int, tau: int, N: float) -> float:
    """Unique s on the tau-th interval with L_tau(n, s) = N: the largest
    node of the (n, tau, N) rule."""
    return quadrature_rule(n, tau, N).s


def _shifted_matrix(n: int, tau: int, N: float, hi: int) -> tuple[list, list, list]:
    """The rule's k nodes beside 1 (odd tau) or beside -1 and 1 (even tau),
    ascending, and the recurrence (a, b) whose k x k Jacobi matrix has them
    as its eigenvalues. Beside those ends the rule integrates nu = (1 - t)
    (1 + t)^plus dmu, plus = 1 at even tau, exactly to degree 2k - 2, so its
    nodes are the zeros of p_k + c p_(k-1) over nu's monic orthogonal p_j
    (the kernel polynomial of a point-mass modification, Gautschi,
    Orthogonal Polynomials, 2004, ch. 2): nu's Jacobi matrix with a_(k-1)
    lowered by c. L_tau(n, s) = N gives c = (hi - N) / (N - D(n, tau - 1))
    k (m + plus) / (m (m + 1)), m = 2k + n - 3 + plus, hi = D(n, tau + 1);
    at N = hi, c = 0 and the matrix is interval's own."""
    k, plus = (tau + 1) // 2, 1 - tau % 2
    a, b = op._adjacent_recurrence(n, plus, k)
    m = 2 * k + n - 3 + plus
    a[-1] -= (hi - N) / (N - dgs_bound(n, tau - 1)) * (k * (m + plus) / (m * (m + 1)))
    return op._jacobi_eigh(a, b).tolist(), a, b


def _minus_1_weight(n: int, k: int, N: float, lo: int, hi: int) -> float:
    """-1's weight in the even rule of strength 2k, D' = D(2k - 1), lo =
    D(2k), hi = D(2k + 1): k (hi - D') (N - lo) / (D' (lo - D') ((n + k - 1)
    (N - D') - k (hi - N))). The rule applied to (1 - t) pi(t), pi = prod(t
    - beta_i) = p_k + c p_(k-1) over nu's monic p_j, gives it as the mean of
    (1 - t) pi over mu, over 2 pi(-1). The mean is affine in c = k (hi - N)
    / ((2k + n - 2)(N - D')), 0 at N = lo, where -1 has weight 0, and (1 -
    t) p_k's at N = hi; pi(-1) = -p_(k-1)(-1) ((n + k - 1) / (2k + n - 2) -
    c) by the Jacobi values at -1. In integers from N = p / q the quotient
    is correctly rounded, and N - lo exact."""
    below = dgs_bound(n, 2 * k - 1)
    p, q = (N if isinstance(N, int) else float(N)).as_integer_ratio()
    num = k * (hi - below) * (p - lo * q)
    return num / (below * (lo - below) * ((n + k - 1) * (p - below * q) - k * (hi * q - p)))


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
    # alpha_0 < ... < alpha_(k-1) = s beside 1 (odd tau), or beta_1 < ... <
    # beta_k = s beside -1 and 1 (even tau)
    xs, a, b = _shifted_matrix(n, tau, N, hi_card)
    if at_lo:  # s is the interval's lower end, and at odd tau the rule is tau - 1's
        xs[-1] = _branch_end(n, tau - 1)
        if odd:
            xs[0] = -1.0
    s = xs[-1]
    # the shifted matrix's Christoffel numbers (Golub, SIAM Review 15, 1973),
    # which never read its a_(k-1), over 1 - t (nu's mass is 1) at odd tau,
    # Gauss-Radau at s, and over 1 - t^2 (mass 1 - 1/n) at even tau
    weights = [g / (1 - x) for g, x in zip(op._christoffel(a, b, xs), xs)]
    if not odd:
        weights = [0.0 if at_lo else _minus_1_weight(n, k, N, lo_card, hi_card),
                   *((n - 1) / n * w / (1 + x) for w, x in zip(weights, xs))]
        xs = [-1.0, *xs]
    nodes, weights = np.array(xs), np.array(weights)
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
        parity="odd" if odd else "even",
        exactness_residuals=res,
        boundary=boundary,
    )

