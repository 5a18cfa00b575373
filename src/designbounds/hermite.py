"""Hermite interpolation with node multiplicities 1 or 2, and one-sided
verification of interpolants against potentials: proved by the Hermite
remainder where it applies (remainder_bound), sampled on a grid otherwise
(verify_one_sided).

The proof: let p interpolate h at a scheme of m conditions. Then
h - p = h^(m)(xi)/m! prod (t - t_i)^(m_i), and for an absolutely monotone h
the sign of h - p on [lo, hi] is that of the node polynomial. A stored f of
degree below m differs from p by e = p - f, the interpolant of the
residuals h - f (and h' - f' at double nodes), so h - f >= -sup|e| on
[lo, hi] when the node polynomial has the relation's sign there. sup|e| is
bounded through e's Newton form, with an a-priori bound on every rounding
made on the way; where that bound is too coarse, away from the nodes, the
remainder h - p itself outweighs e.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .orthopoly import Poly
from .potentials import UNIT_ROUNDOFF, Potential

_MIN_NODE_GAP = 1e-10


@dataclass(frozen=True)
class HermiteScheme:
    """Interpolation nodes as (t, multiplicity) pairs, t strictly increasing."""

    nodes: tuple[tuple[float, int], ...]

    def __init__(self, nodes):
        pairs = tuple((float(t), int(m)) for t, m in nodes)
        ts = [t for t, _ in pairs]
        if any(m not in (1, 2) for _, m in pairs):
            raise RangeError("multiplicities must be 1 or 2")
        if any(b - a < _MIN_NODE_GAP for a, b in zip(ts, ts[1:])):
            raise RangeError(f"nodes too close or out of order: {ts}")
        object.__setattr__(self, "nodes", pairs)

    @property
    def total_degree(self) -> int:
        return sum(m for _, m in self.nodes) - 1


def interpolate(scheme: HermiteScheme, h: Potential) -> Poly:
    """Newton divided differences with repeated abscissae; multiplicity-2
    nodes also match h'. Both the table and the expansion run in Python
    floats, which round as numpy's scalars and arrays do."""
    z = [t for t, m in scheme.nodes for _ in range(m)]
    n = len(z)
    # the table's top row in place, one column j at a time: c[i] becomes
    # table[i - j, j]. Multiplicities are at most 2, so equal abscissae meet
    # only at j = 1, where they take h' at that node
    c = np.asarray(h.eval(np.asarray(z)), dtype=float).tolist()
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dz = z[i] - z[i - j]
            if dz == 0.0:
                c[i] = float(h.derivative(z[i], 1))
            else:
                c[i] = (c[i] - c[i - 1]) / dz
    # expand the Newton form in one buffer: times (t - z_i), c'[j] = c[j-1]
    # + (-z_i) c[j], then c[0] += c_i. buf[0] stays 0 as c[-1], and each
    # c'[j] sums the two products np.convolve sums in npoly.polymul, so the
    # coefficients are polymul/polyadd's bit for bit
    buf = [0.0] * (n + 1)
    buf[1] = c[n - 1]
    for i in range(n - 2, -1, -1):
        step = -z[i]
        for j in range(n - i, 0, -1):
            buf[j] = buf[j - 1] + step * buf[j]
        buf[1] += c[i]
    return Poly(buf[1:])


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): |prod (1 + d_i)^(+-1) - 1| <= gamma_k
    for k roundings d_i (Accuracy and Stability of Numerical Algorithms,
    2002, Lemma 3.1)."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


# the most pieces remainder_bound splits [lo, hi] into before it gives up
PIECES = 32


def remainder_bound(
    f: Poly, scheme: HermiteScheme, h: Potential, lo: float, hi: float, relation: str,
    tol: float,
) -> float:
    """A bound B <= tol, proved without sampling, such that h - f >= -B
    ("below") or f - h >= -B ("above") on [lo, hi]; inf where the proof
    does not apply or does not reach tol. It applies when h is absolutely
    monotone, hi and the nodes are finite and below 1 (a Levenshtein node
    may lie an ulp below -1), deg f <= the scheme's total degree m - 1,
    and the node polynomial w has the relation's sign on [lo, hi]: no
    odd-multiplicity node inside (lo, hi), and an even count of them at or
    above hi for "below", an odd one for "above".

    With the nodes z_0 <= ... <= z_{m-1} and pi_k = prod_{j<k} (t - z_j),
    h - f = K(t) w(t) + sum_k c_k pi_k(t), where K(t) = h^(m)(xi)/m! >= K0 =
    h^(m)(min(z_0, lo))/m! > 0 and the c_k are the Newton coefficients of
    the residuals h - f (and h' - f' at double nodes), |c_k| <= A_k (see
    _newton_bounds). [lo, hi] is bisected, at most PIECES pieces, until
    each piece J passes one of two tests:

    - |sum_k c_k pi_k| <= B_J = sum_k A_k prod_{j<k} D_j on J, with D_j =
      max(z_j - a, b - z_j) for J = [a, b]; J passes when B_J <= tol, and
      there the relation holds to -B_J, since K w has its sign;
    - J holds no node, and sum_k A_k / P_k <= K0, P_k = prod_{j>=k}
      dist(z_j, J). As P_k |pi_k| <= |w| on J, the remainder K |w| is then
      at least sum_k A_k |pi_k|, and the relation holds exactly.

    B is the largest B_J. Every sum, product and quotient above is of
    non-negative numbers, each term through at most 3 roundings per column
    of the table, 3 per factor or term, and 3 in its residual, 8m in all,
    so each is scaled by 1 + gamma_16m >= 1 / (1 - gamma_8m); K0 is taken
    at half its computed value."""
    nodes = scheme.nodes
    if not (h.absolutely_monotone and f.degree <= scheme.total_degree
            and relation in ("below", "above") and lo <= hi < 1.0
            and all(-math.inf < t < 1.0 for t, _ in nodes)):
        return math.inf
    odd = [t for t, m in nodes if m == 1]
    if any(lo < t < hi for t in odd) or sum(t >= hi for t in odd) % 2 != (relation == "above"):
        return math.inf
    z, A = _newton_bounds(f, nodes, h)
    n = len(z)
    scale = 1.0 + _gamma(16 * n)
    k0 = None
    worst = 0.0
    pieces = [(lo, hi)]
    for count in range(PIECES):
        if not pieces:
            return worst
        a, b = pieces.pop()
        total = 0.0
        for i in range(n - 1, -1, -1):
            total = total * max(z[i] - a, b - z[i]) + A[i]
        total *= scale
        if total <= tol:
            worst = max(worst, total)
            continue
        if count == 0 and _some_node_unprovable(z, A, lo, hi, scale, tol):
            return math.inf
        if not any(a <= t <= b for t in z):
            if k0 is None:
                k0 = 0.5 * float(h.derivative(min(z[0], lo), n)) / math.factorial(n)
            q, prod = 0.0, 1.0
            for k in range(n - 1, -1, -1):
                prod *= max(z[k] - b, a - z[k])
                q += A[k] / prod if prod else math.inf
            if q * scale <= k0 < math.inf:
                continue
        mid = 0.5 * (a + b)
        pieces += [(a, mid), (mid, b)]
    return worst if not pieces else math.inf


def _some_node_unprovable(z: list, A: list, lo: float, hi: float, scale: float,
                          tol: float) -> bool:
    """Whether some node z_k in [lo, hi] has B_J > tol on every piece J
    that holds it: there D_j >= |z_k - z_j|, so B_J >= sum_{i<=k} A_i
    prod_{j<i} |z_k - z_j|, and no bisection can prove the piece. A failing
    proof stops here instead of at PIECES."""
    for k in range(len(z) - 1, -1, -1):
        zk, floor = z[k], 0.0
        if not lo <= zk <= hi:
            continue
        for i in range(k, -1, -1):
            floor = floor * abs(zk - z[i]) + A[i]
        if floor * scale > tol:
            return True
    return False


def _newton_bounds(f: Poly, nodes, h: Potential) -> tuple[list, list]:
    """The abscissae z_k, each node repeated by its multiplicity, and A_k
    >= |c_k|, c_k the Newton coefficients of the residuals of f against h.
    A is the divided-difference table run on absolute values, as
    interpolate runs it, on R_i >= |h(z_i) - f(z_i)| and, at a double node,
    R'_i >= |h'(z_i) - f'(z_i)|: the computed residual, whose subtraction
    rounds once (2u covers it), plus the rounding of h (Potential.error)
    and of f and f' by Horner (Higham 2002, sec. 5.1: gamma_2d times Horner
    on |coefficients| and |t|, and the same 2d roundings on every path of
    the derivative's recurrence; gamma_4d also covers the roundings of that
    absolute-value Horner)."""
    c = f.coeffs
    horner = _gamma(4 * len(c))
    values = h.eval(np.asarray([t for t, _ in nodes])).tolist()
    doubles = [t for t, m in nodes if m == 2]
    slopes = iter(h.derivative(np.asarray(doubles), 1).tolist() if doubles else [])
    z, A, dA = [], [], []
    for (t, m), hv in zip(nodes, values):
        at = abs(t)
        p = dp = ap = adp = 0.0
        for ck in reversed(c):
            dp = dp * t + p
            p = p * t + ck
            adp = adp * at + ap
            ap = ap * at + abs(ck)
        bound = abs(hv - p) * (1.0 + 2.0 * UNIT_ROUNDOFF) + h.error(t, 0, hv) + horner * ap
        if m == 2:
            hd = next(slopes)
            slope = abs(hd - dp) * (1.0 + 2.0 * UNIT_ROUNDOFF) + h.error(t, 1, hd) + horner * adp
        else:
            slope = 0.0
        z += [t] * m
        A += [bound] * m
        dA += [slope] * m
    # the table's top row in place, as in interpolate
    for j in range(1, len(z)):
        for i in range(len(z) - 1, j - 1, -1):
            dz = z[i] - z[i - j]
            A[i] = dA[i] if dz == 0.0 else (A[i] + A[i - 1]) / dz
    return z, A


@dataclass(frozen=True)
class MarginReport:
    min_margin: float
    argmin: float
    passes: bool


def verify_one_sided(
    f: Poly,
    h: Potential,
    lo: float,
    hi: float,
    relation: str,
    grid_size: int,
    tol: float,
) -> MarginReport:
    """Sampled check that f stays below (f <= h) or above (f >= h) on
    [lo, hi], on a grid of grid_size points and to an absolute tol."""
    if relation not in ("below", "above"):
        raise RangeError(f"relation must be 'below' or 'above', got {relation!r}")
    grid_buf, f_buf = _scratch(grid_size)
    grid = _linspace(float(lo), float(hi), grid_buf)
    diff = _gap(f(grid, out=f_buf), h.eval(grid), relation)
    i = int(np.argmin(diff))
    coarse = diff[i]
    # refine locally around the sampled minimum
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, grid_size - 1)]
    fine = _linspace(float(a), float(b), _fine_scratch())
    fdiff = _gap(f(fine), h.eval(fine), relation)
    j = int(np.argmin(fdiff))
    m = min(float(coarse), float(fdiff[j]))
    arg = float(fine[j]) if fdiff[j] <= coarse else float(grid[i])
    return MarginReport(min_margin=m, argmin=arg, passes=m >= -tol)


def _gap(ft: np.ndarray, ht: np.ndarray, relation: str) -> np.ndarray:
    """h - f ("below"), or f - h ("above"), written into ft, the array f(t)
    was written into; never into h's values, which the potential may
    share."""
    np.subtract(ht, ft, out=ft)
    if relation == "above":
        np.negative(ft, out=ft)
    return ft


# each thread's two work arrays of the coarse grid's size: the grid, and f
# on it. A grid of A1 points is above the size from which the allocator
# maps and unmaps each array, so reusing them saves the page faults of two
# fresh arrays per check. The 2001-point refinement grid has a third
_SCRATCH = threading.local()
_REFINE_SIZE = 2001


def _scratch(size: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's grid and f work arrays, of the given size."""
    bufs = getattr(_SCRATCH, "bufs", None)
    if bufs is None or bufs[0].size != size:
        bufs = _SCRATCH.bufs = (np.empty(size), np.empty(size))
    return bufs


def _fine_scratch() -> np.ndarray:
    """This thread's work array of the refinement grid."""
    fine = getattr(_SCRATCH, "fine", None)
    if fine is None:
        fine = _SCRATCH.fine = np.empty(_REFINE_SIZE)
    return fine


@functools.lru_cache(maxsize=4)
def _index(size: int) -> np.ndarray:
    """0.0, 1.0, ..., size - 1, read-only."""
    idx = np.arange(size, dtype=float)
    idx.setflags(write=False)
    return idx


def _linspace(lo: float, hi: float, out: np.ndarray) -> np.ndarray:
    """np.linspace(lo, hi, out.size) written into out by linspace's own
    arithmetic, so with its bits: index * step + lo, and hi as the last
    point. A step that underflows to 0 scales index / (size - 1) by
    hi - lo instead, as linspace does."""
    size = out.size
    delta, div = hi - lo, size - 1
    if div > 0 and delta / div == 0:
        np.divide(_index(size), div, out=out)
        out *= delta
    else:
        np.multiply(_index(size), delta / div if div > 0 else delta, out=out)
    out += lo
    if size > 1:
        out[-1] = hi
    return out
