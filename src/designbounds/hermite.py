"""Hermite interpolation with node multiplicities 1 or 2, and sampled
one-sided verification of interpolants against potentials."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .orthopoly import Poly
from .potentials import Potential

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
    nodes also match h'."""
    z = []
    for t, m in scheme.nodes:
        z.extend([t] * m)
    z = np.asarray(z)
    n = len(z)
    # divided-difference table; multiplicities are at most 2, so equal
    # abscissae meet only at j = 1, where they take h'
    table = np.zeros((n, n))
    table[:, 0] = h.eval(z)
    for j in range(1, n):
        for i in range(n - j):
            dz = z[i + j] - z[i]
            if dz == 0.0:
                table[i, j] = float(h.derivative(z[i], 1))
            else:
                table[i, j] = (table[i + 1, j - 1] - table[i, j - 1]) / dz
    # expand the Newton form in one buffer: times (t - z_i), c'[j] = c[j-1]
    # + (-z_i) c[j], then c[0] += table[0, i]. buf[0] stays 0 as c[-1], and
    # each c'[j] sums the two products np.convolve sums in npoly.polymul,
    # so the coefficients are polymul/polyadd's bit for bit
    buf = np.zeros(n + 1)
    buf[1] = table[0, n - 1]
    for i in range(n - 2, -1, -1):
        buf[1 : n - i + 1] = buf[: n - i] + -z[i] * buf[1 : n - i + 1]
        buf[1] += table[0, i]
    return Poly(buf[1:])


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
    grid_size: int = 10_001,
    tol: float = 1e-9,
) -> MarginReport:
    """Sampled check that f stays below (f <= h) or above (f >= h) on [lo, hi]."""
    if relation not in ("below", "above"):
        raise RangeError(f"relation must be 'below' or 'above', got {relation!r}")
    grid = np.linspace(lo, hi, grid_size)
    diff = _gap(f, h, grid, relation)
    # refine locally around the sampled minimum
    i = int(np.argmin(diff))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, grid_size - 1)]
    fine = np.linspace(a, b, 2001)
    fdiff = _gap(f, h, fine, relation)
    j = int(np.argmin(fdiff))
    m = min(float(diff[i]), float(fdiff[j]))
    arg = float(fine[j]) if fdiff[j] <= diff[i] else float(grid[i])
    return MarginReport(min_margin=m, argmin=arg, passes=m >= -tol)


def _gap(f: Poly, h: Potential, t: np.ndarray, relation: str) -> np.ndarray:
    """h - f at t ("below"), or f - h ("above"), written into the fresh array
    f(t) returns; never into h's result, which the potential may share."""
    ht = h.eval(t)
    gap = f(t)
    np.subtract(ht, gap, out=gap)
    if relation == "above":
        np.negative(gap, out=gap)
    return gap
