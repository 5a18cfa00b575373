import math
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
    for l in (2, 3, 5, 7, 12):
        assert codes.strength(codes.kerdock(l), 6) == 3


def test_moment_sums_vanish_up_to_strength():
    s = codes.moment_sums(codes.cross_polytope(3), 4)
    assert s[1:4] == [0, 0, 0]
    assert s[4] == 21  # 6 + 6 P_4(-1) + 24 P_4(0), P_4(0) = 3/8
    assert s[0] == 36  # N^2 for j = 0


def test_distribution_invariants():
    with pytest.raises(RangeError):
        codes.InnerProductDistribution(n=3, N=4, entries=((-0.5, 5),))
    with pytest.raises(RangeError):
        codes.InnerProductDistribution(n=3, N=2, entries=((1.0, 2),))
