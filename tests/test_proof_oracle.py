"""The Hermite remainder proof (hermite.remainder_bound) against a 50-digit
mpmath oracle: the rounding bounds of the potentials, and, on a seeded set
of built-in certificates, the bound on |p - f| and the proved relation."""

import math
import random

import mpmath
import numpy as np
import pytest

from designbounds import bounds, levenshtein
from designbounds.errors import InternalConsistencyError
from designbounds.hermite import remainder_bound
from designbounds.levenshtein import DEB_TOL
from designbounds.potentials import parse_potential


def _exact(h, order):
    """t -> h^(order)(t) at a double t, to the working precision."""
    if h.name == "riesz":
        e = mpmath.mpf(h.params["s"]) / 2
        factor = mpmath.power(2, -e) * mpmath.fprod(e + j for j in range(order))
        return lambda t: factor * mpmath.power(1 - mpmath.mpf(t), -e - order)
    if h.name == "log":
        if order == 0:
            return lambda t: mpmath.log(2 / (1 - mpmath.mpf(t))) / 2
        factor = mpmath.factorial(order - 1) / 2
        return lambda t: factor / mpmath.power(1 - mpmath.mpf(t), order)
    c = mpmath.mpf(h.params["c"])
    factor = mpmath.power(c, order)
    return lambda t: factor * mpmath.exp(c * mpmath.mpf(t))


SPECS = ["riesz:s=1", "riesz:s=2", "riesz:s=3.37", "riesz:s=0.25", "log", "gauss:c=1",
         "gauss:c=7.5"]


@pytest.mark.parametrize("spec", SPECS)
def test_rounding_bound_covers_h_and_h_prime(spec):
    # the values remainder_bound reads, h and h' at an array of nodes, lie
    # within Potential.error of the exact ones, also next to the pole
    h = parse_potential(spec)
    rng = random.Random(spec)
    ts = [-1.0, -1.0 - 2.0**-52, 0.0, 0.5, 1.0 - 1e-9, 1.0 - 2.0**-40]
    ts += [rng.uniform(-1.0, 1.0) for _ in range(200)]
    ts += [1.0 - 10.0 ** rng.uniform(-12, -1) for _ in range(50)]
    with mpmath.workdps(50):
        for order in (0, 1):
            got = h.derivative(np.asarray(ts), order).tolist()
            exact = _exact(h, order)
            for t, value in zip(ts, got):
                err = abs(mpmath.mpf(value) - exact(t))
                assert err <= h.error(t, order, value), (t, order)


def _newton(nodes, h):
    """The exact Hermite interpolant of h at the nodes, in Newton form."""
    value, slope = _exact(h, 0), _exact(h, 1)
    z = [mpmath.mpf(t) for t, m in nodes for _ in range(m)]
    c = [value(t) for t in z]
    for j in range(1, len(z)):
        for i in range(len(z) - 1, j - 1, -1):
            if z[i] == z[i - j]:
                c[i] = slope(z[i])
            else:
                c[i] = (c[i] - c[i - 1]) / (z[i] - z[i - j])
    return z, c


# polynomials are evaluated in fixed point, integers scaled by 2^FIX: each
# product is floored once, 2^-240 or about 6e-73, far below any bound here
FIX = 240


def _fix(x) -> int:
    return int(mpmath.ldexp(x, FIX))


def _certificates():
    """Seeded reports: ulb, improved_even_lower, lower_2design and
    upper_cubic at n in {3, 8, 24, 150} and tau <= 8, and ulb at n = 24,
    tau in {13, 21}; N and the potential drawn per case."""
    rng = random.Random(21)
    pick = lambda: parse_potential(rng.choice(SPECS))  # noqa: E731

    def N_in(n, tau, inner=False):
        lo, hi = levenshtein.dgs_bound(n, tau), levenshtein.dgs_bound(n, tau + 1)
        return rng.randint(lo + 1, hi - 1) if inner else rng.randint(lo, hi - 1)

    out = []
    for n in (3, 8, 24, 150):
        out += [bounds.ulb(n, N_in(n, tau), tau, pick()) for tau in range(1, 9)]
        out += [bounds.improved_even_lower(n, N_in(n, 2 * k, True), k, pick())
                for k in range(1, 5)]
        out.append(bounds.lower_2design(n, rng.randint(n + 2, 2 * n - 1), pick()))
        out.append(bounds.upper_cubic(n, N_in(n, 4), 4, pick()))
        N = N_in(n, 3)
        s = levenshtein.quadrature_rule(n, 3, N).s
        out.append(bounds.upper_cubic(n, N, 3, pick(), (s + 1.0) / 2.0))
    for tau in (13, 21):
        # the sampled check rejects some of these (the unstable zone): the
        # first accepted draw is kept
        for _ in range(20):
            try:
                out.append(bounds.ulb(24, N_in(24, tau), tau, pick()))
                break
            except InternalConsistencyError:
                pass
    return out


def test_proof_against_the_exact_interpolant():
    # for every certificate the proof accepts: |p - f| <= the Newton bound
    # over the whole interval (remainder_bound at tol = inf), and h - f >=
    # -B ("below"), f - h >= -B ("above"), at 1,000 points of [lo, hi]
    # (gauss:c=7.5 reaches 1,800, and its rounding bound with it, so a few
    # of its certificates are left to the sample, as are the zone's)
    reports = _certificates()
    proved = 0
    for report in reports:
        c, h = report.certificate, report.h
        bound = remainder_bound(c.poly, c.scheme, h, c.lo, c.hi, c.relation, DEB_TOL)
        if bound > DEB_TOL:
            continue
        proved += 1
        whole = remainder_bound(c.poly, c.scheme, h, c.lo, c.hi, c.relation, math.inf)
        sign = 1 if c.relation == "below" else -1
        with mpmath.workdps(50):
            z, newton = _newton(c.scheme.nodes, h)
            z, newton = [_fix(x) for x in z], [_fix(x) for x in newton]
            coeffs = [_fix(x) for x in c.poly.coeffs]
            value = _exact(h, 0)
            worst_gap, worst_e = None, 0
            for t in np.linspace(c.lo, c.hi, 1000).tolist():
                tf = _fix(t)
                p = newton[-1]
                for zi, ci in zip(reversed(z[:-1]), reversed(newton[:-1])):
                    p = (p * (tf - zi) >> FIX) + ci
                f = 0
                for ck in reversed(coeffs):
                    f = (f * tf >> FIX) + ck
                worst_e = max(worst_e, abs(p - f))
                gap = sign * (_fix(value(t)) - f)
                worst_gap = gap if worst_gap is None else min(worst_gap, gap)
            worst_e, worst_gap = mpmath.mpf(worst_e) / 2**FIX, mpmath.mpf(worst_gap) / 2**FIX
        assert worst_e <= whole, (report.method, report.spec, worst_e, whole)
        assert worst_gap >= -bound, (report.method, report.spec, worst_gap, bound)
    assert proved >= 0.9 * len(reports)
