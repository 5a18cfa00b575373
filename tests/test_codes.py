import math
import random
from fractions import Fraction

import pytest

from designbounds import codes
from designbounds.errors import RangeError
from designbounds.potentials import make_riesz


def test_simplex_structure():
    d = codes.simplex(3)
    assert d.entries == ((Fraction(-1, 3), 12),)
    assert codes.simplex(1).entries == ((-1.0, 2),)


def test_simplex_energy():
    assert codes.energy(codes.simplex(3), make_riesz(2.0)) == pytest.approx(4.5)


def test_orthogonal_simplices_mimura():
    d = codes.orthogonal_simplices(3, 3)
    assert d.n == 4 and d.N == 6
    assert d.entries == ((-0.5, 12), (0.0, 18))
    assert codes.energy(d, make_riesz(2.0)) == pytest.approx(13.0)


def test_orthogonal_simplices_square():
    d = codes.orthogonal_simplices(2, 2)
    assert d.entries == ((-1.0, 4), (0.0, 8))
    with pytest.raises(RangeError):
        codes.orthogonal_simplices(1, 3)


def test_cross_polytope():
    d = codes.cross_polytope(3)
    assert d.entries == ((-1.0, 6), (0.0, 24))
    assert codes.energy(d, make_riesz(2.0)) == pytest.approx(13.5)
    assert codes.cross_polytope(1).entries == ((-1.0, 2),)


def test_binary_embed_basic():
    d = codes.binary_embed([(4, 2)], 4)
    assert d.entries == ((-1.0, 2),)
    d2 = codes.binary_embed([(2, 2)], 4)
    assert d2.entries == ((0.0, 2),)
    with pytest.raises(RangeError):
        codes.binary_embed([(0, 2)], 4)
    with pytest.raises(RangeError):
        codes.binary_embed([(1, 3)], 4)  # 3 is not N(N-1)


def test_kerdock_distribution():
    d = codes.kerdock(2)
    assert d.n == 16 and d.N == 256
    counts = dict(d.entries)
    assert counts[0.25] == 256 * 112
    assert counts[0.0] == 256 * 30
    assert counts[-0.25] == 256 * 112
    assert counts[-1.0] == 256
    assert sum(counts.values()) == 256 * 255


def test_kerdock_energy_closed_form():
    for l in (2, 3):
        d = codes.kerdock(l)
        h = make_riesz(2.0)
        n, N = d.n, d.N
        closed = N * (
            (2 ** (2 * l + 1) - 2) * h.eval(0.0)
            + 2 ** (2 * l) * (2 ** (2 * l - 1) - 1)
            * (h.eval(1 / math.sqrt(n)) + h.eval(-1 / math.sqrt(n)))
            + h.eval(-1.0)
        )
        assert codes.energy(d, h) == pytest.approx(float(closed), rel=1e-12)


def test_strengths():
    assert codes.strength(codes.simplex(4), 5) == 2
    assert codes.strength(codes.orthogonal_simplices(3, 3), 5) == 2
    assert codes.strength(codes.cross_polytope(3), 5) == 3
    assert codes.strength(codes.cross_polytope(3), 4) == 3  # S_1..S_3 = 0, S_4 = 21
    for l in (2, 3, 5, 7, 12):
        assert codes.strength(codes.kerdock(l), 6) == 3


def _oracle_strength(dist, max_tau):
    """The strength from each S_j in Fractions, by the recurrence
    P_{j+1} = ((2j+n-2) t P_j - j P_{j-1})/(j+n-2) at each inner product t."""
    n, ts = dist.n, [t for t, _ in dist.entries]
    rows = [(Fraction(1), t) for t in ts]  # (P_{j-1}(t), P_j(t)) at j = 1
    for j in range(1, max_tau + 1):
        if dist.N + sum(c * P for (_, c), (_, P) in zip(dist.entries, rows)):
            return j - 1
        rows = [(P, ((2 * j + n - 2) * t * P - j * Q) / (j + n - 2))
                for t, (Q, P) in zip(ts, rows)]
    return max_tau


BUILDS = [
    *(codes.simplex(n) for n in (2, 3, 4, 8, 24, 60, 1000)),
    *(codes.cross_polytope(n) for n in (2, 3, 4, 8, 24, 60, 1000)),
    *(codes.orthogonal_simplices(a, b) for a, b in ((2, 2), (3, 3), (4, 4), (2, 5), (9, 9))),
    *(codes.kerdock(l) for l in (2, 3, 5)),
    codes.binary_embed([(3, 16 * 7), (4, 16 * 7), (7, 16)], 7),  # the [7, 4] Hamming code
]


@pytest.mark.parametrize("dist", BUILDS, ids=lambda d: f"n={d.n},N={d.N}")
def test_strength_of_every_builder_matches_the_fraction_oracle(dist):
    for max_tau in range(13):
        assert codes.strength(dist, max_tau) == _oracle_strength(dist, max_tau)


def _random_distributions(seed, count):
    """Seeded rational distributions with up to 5 distinct inner products;
    in about half, the last inner product is the one that makes S_1 = 0."""
    rng = random.Random(seed)
    while count:
        n, N = rng.choice((2, 3, 4, 5, 7, 8, 24, 60, 1000)), rng.randint(2, 30)
        pairs = N * (N - 1)
        cuts = sorted(rng.sample(range(1, pairs), min(rng.randint(0, 4), pairs - 1)))
        counts = [b - a for a, b in zip([0, *cuts], [*cuts, pairs])]
        q = rng.randint(1, 12)
        ts = [Fraction(rng.randint(-q, q - 1), q) for _ in counts]
        if rng.random() < 0.5:
            ts[-1] = Fraction(-(N + sum(c * t for c, t in zip(counts[:-1], ts))), counts[-1])
        entries = {}
        for t, c in zip(ts, counts):
            entries[t] = entries.get(t, 0) + c
        try:
            yield codes.InnerProductDistribution(n=n, N=N, entries=tuple(sorted(entries.items())))
        except RangeError:  # an inner product outside [-1, 1)
            continue
        count -= 1


def test_strength_of_random_distributions_matches_the_fraction_oracle():
    rng = random.Random(30)
    seen = set()
    for dist in _random_distributions(30, 1000):
        max_tau = rng.randint(0, 12)
        tau = _oracle_strength(dist, max_tau)
        assert codes.strength(dist, max_tau) == tau, (dist, max_tau)
        seen.add(tau)
    assert {0, 1} <= seen


def test_distribution_invariants():
    with pytest.raises(RangeError):
        codes.InnerProductDistribution(n=3, N=4, entries=((-0.5, 5),))
    with pytest.raises(RangeError):
        codes.InnerProductDistribution(n=3, N=2, entries=((1.0, 2),))
