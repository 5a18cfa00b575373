"""The package's Brent root-finder against scipy.optimize.brentq: the same
root to the bit, and the same error, on the equations the package solves
and on each error path."""

import math

import pytest
from scipy.optimize import brentq

from designbounds import innerprod
from designbounds import levenshtein as lev
from designbounds.errors import InternalConsistencyError, RangeError


def _outcome(solve, f, a, b, **kw):
    """("root", the root's hex, so -0.0 and 0.0 differ) or (error class
    name, message)."""
    try:
        return "root", float(solve(f, a, b, **kw)).hex()
    except (ValueError, RuntimeError) as e:
        return type(e).__name__, str(e)


def _compared(kinds):
    """A stand-in for the package's _brentq that also runs scipy's on the
    same call, asserts that both give the same outcome, and records its
    kind."""
    real = lev._brentq

    def solve(f, a, b, **kw):
        want = _outcome(brentq, f, a, b, **kw)
        kinds.append(want[0])
        try:
            root = real(f, a, b, **kw)
        except (ValueError, RuntimeError) as e:
            assert (type(e).__name__, str(e)) == want, (a, b, kw)
            raise
        assert ("root", root.hex()) == want, (a, b, kw)
        return root

    return solve


def test_brentq_is_scipys_on_the_cardinality_and_even_range_equations(monkeypatch):
    # every root solve_cardinality takes over n in {3, 4, 5, 8, 24, 60,
    # 200}, tau 2..60 and four N between the cardinality bounds, and the
    # root xi that even_xi takes at each of those N
    kinds = []
    solve = _compared(kinds)
    monkeypatch.setattr(lev, "_brentq", solve)
    monkeypatch.setattr(innerprod, "_brentq", solve)
    for n in (3, 4, 5, 8, 24, 60, 200):
        for tau in range(2, 61):
            lo, hi = lev.dgs_bound(n, tau), lev.dgs_bound(n, tau + 1)
            for j in (1, 2, 3, 4):
                N = lo + (hi - lo) * j // 5
                try:
                    lev.solve_cardinality(n, tau, N)
                except RangeError:
                    pass
                if tau % 2 == 0 and lo < N:
                    try:
                        innerprod.even_xi(n, N, tau // 2)
                    except (RangeError, InternalConsistencyError):
                        pass
    assert len(kinds) > 2500
    assert kinds.count("root") > 0.9 * len(kinds)


def _atan_cubed(x):
    # flat at its root, so the bracket shrinks slowly
    return math.atan(x - 0.3) ** 3


@pytest.mark.parametrize(
    "kind, f, a, b, kw",
    [
        ("root", math.cos, 0.0, 3.0, {"xtol": 1e-15}),
        ("root", lambda x: x**3 - 2.0, 0.0, 3.0, {"xtol": 1e-15, "rtol": 8.9e-16}),
        ("root", lambda x: math.exp(x) - 5.0, -3.0, 4.0, {}),
        # no sign change
        ("ValueError", lambda x: x - 2.0, 0.0, 1.0, {}),
        ("ValueError", lambda x: x * x + 1.0, -1.0, 1.0, {}),
        # a NaN value at a, at b, and at a step inside
        ("ValueError", lambda x: math.nan, 0.0, 1.0, {}),
        ("ValueError", lambda x: math.nan if x > 0.5 else x - 0.3, 0.0, 1.0, {}),
        ("ValueError", lambda x: math.nan if 0.05 < x < 0.95 else x - 0.3, 0.0, 1.0, {}),
        # f(a) = 0 or f(b) = 0: that end, as it is given
        ("root", lambda x: x, 0.0, 1.0, {}),
        ("root", lambda x: x, -0.0, 1.0, {}),
        ("root", lambda x: x - 1.0, 0.0, 1.0, {}),
        ("root", lambda x: 0, 0.25, 1.0, {}),
        # maxiter exhausted
        ("RuntimeError", _atan_cubed, -4.0, 10.0, {}),
        ("RuntimeError", _atan_cubed, -4.0, 10.0, {"maxiter": 5}),
        ("root", _atan_cubed, -4.0, 10.0, {"xtol": 1e-6}),
        # tolerances out of range
        ("ValueError", lambda x: x - 0.3, 0.0, 1.0, {"xtol": 0.0}),
        ("ValueError", lambda x: x - 0.3, 0.0, 1.0, {"rtol": 1e-16}),
    ],
)
def test_brentq_paths_are_scipys(kind, f, a, b, kw):
    got = _outcome(lev._brentq, f, a, b, **kw)
    assert got[0] == kind
    assert got == _outcome(brentq, f, a, b, **kw)


def test_root_or_takes_the_trivial_end_on_a_nan():
    # innerprod's fallback covers both of the finder's ValueErrors
    assert innerprod._root_or(lambda t: math.nan, -1.0, 0.0, -1.0) == -1.0
    assert innerprod._root_or(lambda t: t + 2.0, -1.0, 0.0, -1.0) == -1.0
