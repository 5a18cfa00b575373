"""Hermite interpolation with node multiplicities 1 or 2, and sampled
one-sided verification of interpolants against potentials."""

from __future__ import annotations

import functools
import struct
import threading
from collections import OrderedDict
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
    grid, h_grid = _sampled(h, lo, hi, grid_size)
    diff = _gap(f(grid, out=_scratch(grid_size)[1]), h_grid, relation)
    i = int(np.argmin(diff))
    coarse = diff[i]
    # refine locally around the sampled minimum
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, grid_size - 1)]
    fine = np.linspace(a, b, 2001)
    fdiff = _gap(f(fine), h.eval(fine), relation)
    j = int(np.argmin(fdiff))
    m = min(float(coarse), float(fdiff[j]))
    arg = float(fine[j]) if fdiff[j] <= coarse else float(grid[i])
    return MarginReport(min_margin=m, argmin=arg, passes=m >= -tol)


def _gap(ft: np.ndarray, ht: np.ndarray, relation: str) -> np.ndarray:
    """h - f ("below"), or f - h ("above"), written into ft, the array f(t)
    was written into; never into h's values, which the potential or the
    sample memo may share."""
    np.subtract(ht, ft, out=ft)
    if relation == "above":
        np.negative(ft, out=ft)
    return ft


# a sweep checks one potential on one interval many times over (every ulb
# certificate on (-1, 1 - 1e-9), every strip_odd candidate on (-1, u)), so
# the grid and h on it are sampled once. Keyed on h's identity: each entry
# holds its potential, so the id cannot be reused while the entry lives. A
# spec string would be no key, since a Potential built by hand may share
# another's name and params; and a cache on the potential would live as long
# as every report that holds one. A sample is kept from its second use on: a
# check that is never repeated (re-verifying one stored report, one bound per
# call) keeps nothing, because holding the arrays of the last few checks
# costs a one-off check more than the sample it would save.
_SAMPLES: OrderedDict = OrderedDict()  # key -> (h, grid, h on the grid)
_SEEN: OrderedDict = OrderedDict()  # key -> h, for keys sampled once
_SAMPLES_KEPT = 4  # bounds _SEEN too
_SAMPLES_LOCK = threading.Lock()


def _sampled(h: Potential, lo: float, hi: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """linspace(lo, hi, size) and h on it, read-only once kept. The memo
    keeps the _SAMPLES_KEPT most recently used samples of keys seen before,
    and the _SAMPLES_KEPT keys seen last. The key holds the bits of lo and
    hi, so -0.0 and 0.0 are two intervals, as linspace makes them. A grid
    that is not kept is this thread's scratch array, valid until its next
    check."""
    key = (id(h), struct.pack("<dd", lo, hi), size)
    with _SAMPLES_LOCK:
        entry = _SAMPLES.get(key)
        if entry is not None:
            _SAMPLES.move_to_end(key)
            return entry[1], entry[2]
        seen = _SEEN.pop(key, None) is not None
        if not seen:
            _SEEN[key] = h
            if len(_SEEN) > _SAMPLES_KEPT:
                _SEEN.popitem(last=False)
    grid = _linspace(float(lo), float(hi), _scratch(size)[0])
    h_grid = h.eval(grid)
    if not seen:
        return grid, h_grid
    grid = grid.copy()
    grid.setflags(write=False)
    # a read-only view, not a copy: h's own array keeps its flags
    h_grid = np.asarray(h_grid).view()
    h_grid.setflags(write=False)
    with _SAMPLES_LOCK:
        # another thread may have stored the same key meanwhile
        _SAMPLES[key] = (h, grid, h_grid)
        _SAMPLES.move_to_end(key)
        while len(_SAMPLES) > _SAMPLES_KEPT:
            _SAMPLES.popitem(last=False)
    return grid, h_grid


# each thread's two work arrays of the coarse grid's size: the grid, and f
# on it. A grid of A1 points is above the size from which the allocator
# maps and unmaps each array, so reusing them saves the page faults of two
# fresh arrays per check
_SCRATCH = threading.local()


def _scratch(size: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's grid and f work arrays, of the given size."""
    bufs = getattr(_SCRATCH, "bufs", None)
    if bufs is None or bufs[0].size != size:
        bufs = _SCRATCH.bufs = (np.empty(size), np.empty(size))
    return bufs


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
