"""Explicit spherical configurations as inner-product distributions, each
inner product an exact Fraction: energies in doubles and exact strengths.

Energies follow the ordered-pair convention: every unordered pair of
distinct points contributes twice. Published per-configuration formulas that
count unordered pairs are half these values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import RangeError
from .orthopoly import _check_degree, _check_dimension
from .potentials import Potential


@dataclass(frozen=True)
class InnerProductDistribution:
    """Ordered-pair multiset of off-diagonal inner products of an N-point code."""

    n: int
    N: int
    entries: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        total = sum(c for _, c in self.entries)
        if total != self.N * (self.N - 1):
            raise RangeError(
                f"pair counts sum to {total}, expected N(N-1) = {self.N * (self.N - 1)}"
            )
        for t, c in self.entries:
            if not (-1.0 <= t < 1.0):
                raise RangeError(f"inner product {t} outside [-1, 1)")
            if c <= 0:
                raise RangeError(f"nonpositive pair count {c} at t = {t}")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "entries": [{"t": float(t), "count": c} for t, c in self.entries],
        }


def _size(N: int, given: str) -> int:
    if N * N > sys.float_info.max:  # pair counts are near N^2, and energy sums them as doubles
        raise RangeError(f"{given} too large: the code's N^2 exceeds the largest double")
    return N


def simplex(n: int) -> InnerProductDistribution:
    """Regular simplex: n+1 points, all inner products -1/n."""
    if n < 1:
        raise RangeError(f"need n >= 1, got {n}")
    N = _size(n + 1, f"n = {n}")
    return InnerProductDistribution(n=n, N=N, entries=((Fraction(-1, n), N * (N - 1)),))


def orthogonal_simplices(a: int, b: int) -> InnerProductDistribution:
    """Two mutually orthogonal regular simplices with a and b vertices on
    S^(a+b-3); {k,k} is the Mimura 2-design."""
    if a < 2 or b < 2:
        raise RangeError(f"simplex sizes must be >= 2, got ({a}, {b})")
    n = a + b - 2
    N = _size(a + b, f"(a, b) = ({a}, {b})")
    counts: dict[Fraction, int] = {}
    for size in (a, b):
        t = Fraction(-1, size - 1)
        counts[t] = counts.get(t, 0) + size * (size - 1)
    counts[Fraction(0)] = counts.get(Fraction(0), 0) + 2 * a * b
    entries = tuple(sorted(counts.items()))
    return InnerProductDistribution(n=n, N=N, entries=entries)


def cross_polytope(n: int) -> InnerProductDistribution:
    """2n antipodal basis points; a sharp 3-design for n >= 2."""
    if n < 1:
        raise RangeError(f"need n >= 1, got {n}")
    N = _size(2 * n, f"n = {n}")
    entries = [(Fraction(-1), 2 * n)]
    if n > 1:
        entries.append((Fraction(0), 2 * n * (2 * n - 2)))
    return InnerProductDistribution(n=n, N=N, entries=tuple(entries))


def binary_embed(weight_distribution, n_bits: int) -> InnerProductDistribution:
    """Map (Hamming distance, ordered-pair count) classes to the sphere via
    t = 1 - 2d/n_bits."""
    entries = []
    total = 0
    for d, count in weight_distribution:
        if not (0 <= d <= n_bits):
            raise RangeError(f"Hamming distance {d} outside [0, {n_bits}]")
        if d == 0:
            raise RangeError("distance-0 class off the diagonal means repeated points")
        entries.append((Fraction(n_bits - 2 * d, n_bits), int(count)))
        total += int(count)
    # recover N from the ordered-pair total
    N = (1 + math.isqrt(1 + 4 * total)) // 2
    if N * (N - 1) != total:
        raise RangeError(f"pair total {total} is not of the form N(N-1)")
    entries = tuple(sorted(entries))
    return InnerProductDistribution(n=n_bits, N=N, entries=entries)


def kerdock(l: int) -> InnerProductDistribution:
    """Spherical embedding of the Kerdock code: n = 4^l, N = n^2,
    inner products {1/sqrt(n), 0, -1/sqrt(n), -1}."""
    if l < 2:
        raise RangeError(f"need l >= 2, got {l}")
    n = 2 ** (2 * l)
    N = _size(n * n, f"l = {l}")
    a_side = 2 ** (2 * l) * (2 ** (2 * l - 1) - 1)  # weights 2^(2l-1) +- 2^(l-1)
    a_mid = 2 ** (2 * l + 1) - 2
    dist = [
        (2 ** (2 * l - 1) - 2 ** (l - 1), N * a_side),
        (2 ** (2 * l - 1), N * a_mid),
        (2 ** (2 * l - 1) + 2 ** (l - 1), N * a_side),
        (n, N * 1),
    ]
    return binary_embed(dist, n)


def energy(dist: InnerProductDistribution, h: Potential) -> float:
    """Ordered-pair energy sum of h over the distribution."""
    ts = np.array([float(t) for t, _ in dist.entries])
    cs = np.array([c for _, c in dist.entries], dtype=float)
    vals = h.eval(ts)
    return float(np.dot(cs, vals))


def strength(dist: InnerProductDistribution, max_tau: int) -> int:
    """Largest tau <= max_tau with S_j = 0 for 1 <= j <= tau, S_j the sum of
    P_j(<x,y>) over all ordered pairs, the diagonal included: necessary and
    sufficient for distance-invariant configurations, necessary for others.

    Decided in integers: with each t = a/L over one denominator L, the
    R_j = P_j(t) scale_j, scale_j = L^j prod_{0<i<j}(i+n-2), follow
    R_{j+1} = (2j+n-2) a R_j - c_j L^2 R_{j-1} from R_0 = 1 and R_1 = a, with
    c_1 = 1 and c_j = j(j+n-3), and S_j = 0 iff N scale_j + sum count R_j = 0.
    """
    n, N, entries = dist.n, dist.N, dist.entries
    _check_dimension(n)
    _check_degree(max_tau)
    ratios = [t.as_integer_ratio() for t, _ in entries]  # exact for a float t too
    L = math.lcm(*(q for _, q in ratios))
    a = [p * (L // q) for p, q in ratios]
    prev, rows, scale = [1] * len(a), a, L
    for j in range(1, max_tau + 1):
        if N * scale + sum(k * r for (_, k), r in zip(entries, rows)):
            return j - 1
        b, c = 2 * j + n - 2, (j * (j + n - 3) if j > 1 else 1) * L * L
        prev, rows = rows, [b * x * r - c * p for x, r, p in zip(a, rows, prev)]
        scale *= L * (j + n - 2)
    return max_tau
