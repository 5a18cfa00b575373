import dataclasses
import itertools
import json
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from designbounds import bounds, cli, codes, hermite, innerprod, jsonio, levenshtein
from designbounds.errors import RangeError
from designbounds.hermite import HermiteScheme
from designbounds.levenshtein import quadrature_rule
from designbounds.orthopoly import Poly
from designbounds.potentials import make_gauss, make_log, make_poly, make_riesz, parse_potential

R1 = make_riesz(1.0)
R2 = make_riesz(2.0)
R3 = make_riesz(3.0)
G1 = make_gauss(1.0)
# P_3 in dimension 3, the Legendre polynomial (5t^3 - 3t)/2
P3_N3 = [0.0, -1.5, 0.0, 2.5]


def test_lp_certify_lower_accepts_ulb_interpolant():
    rep = bounds.ulb(3, 7, 3, R2)
    f = rep.certificate.poly
    check = bounds.lp_certify_lower(f, 3, 3, (-1.0, 1.0 - 1e-9), R2, 7)
    assert check.accepted
    assert check.value == pytest.approx(rep.value, rel=1e-10)


def test_lp_certify_lower_rejections():
    # a polynomial above h fails the sign condition
    rep = bounds.lp_certify_lower(Poly([100.0]), 3, 2, (-1.0, 0.9), R2, 5)
    assert not rep.accepted
    assert any("A1" in note for note in rep.notes)
    # a negative high-degree Gegenbauer coefficient fails the tail condition
    rep = bounds.lp_certify_lower(Poly([-c for c in P3_N3]), 3, 2, (-1.0, -0.99), R2, 5)
    assert not rep.accepted
    assert any("A2" in note for note in rep.notes)


def test_lp_certify_upper_mirror():
    chord = Poly([1.0])
    rep = bounds.lp_certify_upper(chord, 3, 2, (-0.5, 0.0), R2, 5)
    assert rep.accepted
    rep = bounds.lp_certify_upper(Poly([-100.0]), 3, 2, (-0.5, 0.0), R2, 5)
    assert not rep.accepted and any("B1" in note for note in rep.notes)
    rep = bounds.lp_certify_upper(Poly(P3_N3), 3, 2, (0.99, 0.999), R2, 5)
    assert not rep.accepted and any("B2" in note for note in rep.notes)


def test_ulb_octahedron_sharp():
    rep = bounds.ulb(3, 6, 3, R2)
    assert rep.value == pytest.approx(13.5, abs=1e-12)
    assert rep.accepted and rep.verify()


def test_ulb_known_even_value():
    # rule (-1, -1/9) with weights (1/8, 27/40)
    rep = bounds.ulb(3, 5, 2, R2)
    assert rep.value == pytest.approx(8.375, abs=1e-12)


def test_ulb_tau1_closed_form():
    N = 4.0
    rep = bounds.ulb(4, N, 1, R3)
    want = N * (N - 1) * float(R3.eval(-1.0 / (N - 1)))
    assert rep.value == pytest.approx(want, rel=1e-12)


def test_ulb_range_error():
    with pytest.raises(RangeError):
        bounds.ulb(3, 100, 3, R2)


def test_improved_even_lower_strictly_beats_ulb():
    rep = bounds.improved_even_lower(3, 5, 1, R2)
    assert rep.accepted
    assert rep.value > rep.margins["ulb_value"] + 1e-6


def test_improved_even_lower_ell_minus_one_degenerates():
    rep = bounds.improved_even_lower(3, 5, 1, R2, ell=-1.0)
    assert rep.value == pytest.approx(bounds.ulb(3, 5, 2, R2).value, rel=1e-12)
    assert any("degenerates" in note for note in rep.notes)


def test_improved_even_lower_range():
    with pytest.raises(RangeError):
        bounds.improved_even_lower(3, 4, 1, R2)


def _sphere_moment(n, j):
    """E[t^j] under the normalized dimension-n sphere weight, exactly:
    0 for odd j, prod_{i < j/2} (2i+1)/(n+2i) for even j."""
    if j % 2:
        return Fraction(0)
    return math.prod((Fraction(2 * i + 1, n + 2 * i) for i in range(j // 2)), start=Fraction(1))


@pytest.mark.parametrize("n", [3, 8, 24, 60, 150])
@pytest.mark.parametrize("tau", [2, 4, 6, 8])
def test_printed_value_is_the_exact_value_of_the_stored_poly(n, tau):
    # value = N(N f_0 - f(1)) of the stored poly to 1e-15 relative, with f_0
    # and f(1) in exact rationals from the poly's float coefficients
    lo, hi = levenshtein.dgs_bound(n, tau), levenshtein.dgs_bound(n, tau + 1)
    for frac, h in itertools.product((0.25, 0.5, 0.75), (R2, make_log(), G1)):
        N = lo + frac * (hi - lo)
        reports = [bounds.improved_even_lower(n, N, tau // 2, h)]
        if tau == 4:
            reports.append(bounds.upper_cubic(n, N, tau, h))
        for rep in reports:
            c = [Fraction(x) for x in rep.certificate.poly.coeffs]
            f0 = sum(ck * _sphere_moment(n, k) for k, ck in enumerate(c))
            exact = Fraction(N) * (Fraction(N) * f0 - sum(c))
            assert abs(Fraction(rep.value) - exact) <= abs(exact) * Fraction(1e-15), (
                n, tau, N, rep.method, float((Fraction(rep.value) - exact) / exact))


def test_lower_2design_values():
    assert bounds.lower_2design(3, 5, R2).value == pytest.approx(8.5, abs=1e-12)
    assert bounds.lower_2design(4, 6, R2).value == pytest.approx(13.0, abs=1e-12)
    # N = n+1 collapses to the simplex energy
    assert bounds.lower_2design(3, 4, R2).value == pytest.approx(4.5, abs=1e-12)
    with pytest.raises(RangeError):
        bounds.lower_2design(3, 7, R2)


@pytest.mark.parametrize("spec", ["log", "riesz:s=1", "gauss:c=1"])
def test_lower_2design_at_the_simplex_is_the_simplex_energy(spec):
    # tangent at 0 in closed form, so no dimension is left out
    h = parse_potential(spec)
    for n in range(2, 201):
        rep = bounds.lower_2design(n, n + 1, h)
        assert rep.accepted and rep.margins["a0"] == 0.0, n
        assert rep.value == (n + 1) * (n * float(h.eval(1.0 - (n + 1) / n))), n
        assert rep.value == pytest.approx(n * (n + 1) * float(h.eval(-1.0 / n)), rel=1e-13), n


def test_upper_2design_collapses_only_at_the_simplex():
    n = 10**13
    rep = bounds.upper_2design(n, n + 2, R2)
    assert rep.accepted and not any("collapsed" in note for note in rep.notes)
    assert rep.certificate.lo < rep.certificate.hi
    # past 2^53 the range can be one double away from the simplex
    n = 3 * 10**16
    with pytest.raises(RangeError, match=f"is a point in doubles, but N = {n + 3} is not n"):
        bounds.upper_2design(n, n + 3, R2)


def test_upper_2design_values():
    assert bounds.upper_2design(3, 5, R2).value == pytest.approx(8.5, abs=1e-12)
    rep = bounds.upper_2design(3, 4, R2)
    assert rep.value == pytest.approx(12 * float(R2.eval(-1.0 / 3.0)), abs=1e-12)
    assert any("exact energy" in note for note in rep.notes)
    assert bounds.upper_2design(6, 8, R2).value >= bounds.lower_2design(6, 8, R2).value - 1e-12
    with pytest.raises(RangeError):
        bounds.upper_2design(3, 6, R2)


def test_upper_cubic_tau4():
    rep = bounds.upper_cubic(4, 14, 4, R2)
    assert rep.accepted and rep.verify()
    assert rep.value >= bounds.ulb(4, 14, 4, R2).value - 1e-9


def test_upper_cubic_constant_potential():
    c = make_poly(Poly([2.5]))
    rep = bounds.upper_cubic(4, 14, 4, c)
    assert rep.value == pytest.approx(14 * 13 * 2.5, rel=1e-12)


def test_upper_cubic_tau3_needs_u():
    with pytest.raises(RangeError):
        bounds.upper_cubic(3, 6, 3, R2)
    rep = bounds.upper_cubic(3, 6, 3, R2, u_override=0.0)
    assert rep.value >= 13.5 - 1e-9
    with pytest.raises(RangeError):
        bounds.upper_cubic(3, 4, 5, R2)


@pytest.mark.parametrize("n, N, tau, u", [
    (9, 54, 4, -0.6),  # at or below ell = l_bound(9, 54, 4) = -0.5888...
    (3, 7, 3, -1.0),  # ell = -1 at tau = 3
    (3, 7, 3, 1.0),
    (5, 20, 4, 1.0),
])
def test_upper_cubic_u_must_lie_between_ell_and_1(n, N, tau, u):
    with pytest.raises(RangeError, match=rf"u = {u} must lie strictly between ell = .* and 1"):
        bounds.upper_cubic(n, N, tau, R2, u_override=u)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 24])
@pytest.mark.parametrize("h", [R2, make_log(), G1], ids=["riesz", "log", "gauss"])
def test_upper_cubic_flat_tangency_is_deterministic(n, h):
    # at N = 2n, tau = 3, u = 0 the certified value does not depend on the
    # tangency point; (ℓ + u)/2 is taken, not a round-off pick
    rep = bounds.upper_cubic(n, 2 * n, 3, h, u_override=0.0)
    assert rep.margins["a0"] == -0.5
    assert rep.accepted and rep.verify()
    exact = codes.energy(codes.cross_polytope(n), h)
    assert rep.value == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("n, N, tau", [(3, 7, 3), (5, 13, 3), (4, 14, 4), (7, 35, 4)])
def test_upper_cubic_u_starts_at_the_largest_node(n, N, tau):
    # every N-point code has u >= s (Levenshtein), so below s there is no design
    s = quadrature_rule(n, tau, N).s
    rep = bounds.upper_cubic(n, N, tau, R2, u_override=s)
    assert rep.accepted and rep.verify()
    with pytest.raises(RangeError, match=r"must be at least the largest node"):
        bounds.upper_cubic(n, N, tau, R2, u_override=s - 1e-9)


def _feasible_cubic_cases():
    for n in (3, 4, 5, 8, 24):
        for tau in (3, 4):
            lo, hi = levenshtein.dgs_bound(n, tau), levenshtein.dgs_bound(n, tau + 1)
            for N in sorted({lo, (lo + hi) // 2, hi - 1}):
                s = quadrature_rule(n, tau, N).s
                for u in (s, (s + 1.0) / 2.0):
                    yield pytest.param(n, N, tau, u, id=f"{n}-{N}-{tau}-{u:.6g}")


@pytest.mark.parametrize("n, N, tau, u", list(_feasible_cubic_cases()))
@pytest.mark.parametrize("h", [R2, make_log(), G1], ids=["riesz", "log", "gauss"])
def test_upper_cubic_closed_form_on_feasible_set(n, N, tau, u, h):
    # u in [s, 1): the closed-form tangency point always applies
    rep = bounds.upper_cubic(n, N, tau, h, u_override=u)
    assert rep.accepted and rep.verify()
    assert rep.notes == []


def test_strip_odd_collapse_at_octahedron():
    rep = bounds.strip_odd(3, 6, 3, R2, 0.0)
    assert rep.value == pytest.approx(13.5, abs=1e-10)
    assert rep.accepted and rep.verify()


def test_strip_odd_above_ulb_and_certified():
    rep = bounds.strip_odd(4, 10, 3, R3, 0.4)
    assert rep.accepted
    assert rep.value >= rep.margins["ulb_value"] - 1e-9
    check = bounds.lp_certify_upper(rep.certificate.poly, 4, 3, (-1.0, 0.4), R3, 10)
    assert check.accepted


def test_strip_odd_rejects_bad_u():
    rule = quadrature_rule(4, 3, 10)
    with pytest.raises(RangeError):
        bounds.strip_odd(4, 10, 3, R2, rule.nodes[-1] - 0.05)
    with pytest.raises(RangeError):
        bounds.strip_odd(4, 10, 3, R2, 1.0)
    with pytest.raises(RangeError, match="u must be < 1, got nan"):
        bounds.strip_odd(3, 7, 3, R2, math.nan)
    with pytest.raises(RangeError):
        bounds.strip_odd(3, 5, 2, R2, 0.5)


def test_test_function_values():
    q = bounds.test_table(3, 1, 4, 3).values
    assert q[1] == pytest.approx(0.0, abs=1e-12)
    assert q[2] == pytest.approx(5.0 / 9.0, abs=1e-12)
    with pytest.raises(RangeError):
        bounds.test_table(3, 2, 5, 1)


def test_test_table():
    table = bounds.test_table(3, 3, 7, 6)
    for j in (1, 2, 3):
        assert table.values[j - 1] == pytest.approx(0.0, abs=1e-9)
    assert len(table.values) == 6
    assert table.to_json()["Q"]["1"] == table.values[0]


def test_k0_threshold():
    assert bounds.k0_threshold(9) == pytest.approx(18.0, abs=1e-12)
    assert bounds.k0_threshold(10) == pytest.approx((65 + math.sqrt(1665)) / 4, abs=1e-12)
    vals = [bounds.k0_threshold(k) for k in range(9, 16)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(RangeError):
        bounds.k0_threshold(8)


def test_strip2_asym_forms():
    lo, up = bounds.strip2_asym(1.5, R2, 100.0)
    h0, hm, hp = 0.5, float(R2.eval(-0.5)), float(R2.eval(0.5))
    assert lo == pytest.approx(h0 + (hm - 1.5 * h0) / (-0.5 * 100))
    assert up == pytest.approx((hm + hp) / 2 + (0.5 * hm - 1.5 * hp) / (1.0 * 100))
    with pytest.raises(RangeError):
        bounds.strip2_asym(2.5, R2, 10.0)


def test_upper4_asym_finite_at_half():
    v = bounds.upper4_asym(0.5, R2, 1e4)
    assert math.isfinite(v)
    with pytest.raises(RangeError):
        bounds.upper4_asym(0.4, R2, 1e4)


def test_ulb_asym_main():
    assert bounds.ulb_asym_main(R2, 10.0) == pytest.approx(50.0)


def test_report_json_round_trip():
    rep = bounds.ulb(3, 6, 3, R2)
    d = rep.to_json()
    assert d["spec"] == {"n": 3, "tau": 3, "N": 6}
    assert d["side"] == "lower" and d["method"] == "ulb"
    assert d["certificate"]["relation"] == "below"
    assert d["potential"] == "riesz:s=2.0"
    assert d["accepted"] is True


def test_strip_ordering_across_methods():
    for (n, N) in [(4, 6), (5, 8), (6, 9)]:
        lo = max(
            bounds.ulb(n, N, 2, R2).value,
            bounds.lower_2design(n, N, R2).value,
        )
        up = bounds.upper_2design(n, N, R2).value
        assert lo <= up + 1e-9
    # sharp designs sit inside their strips
    e = codes.energy(codes.orthogonal_simplices(3, 3), R2)
    assert bounds.lower_2design(4, 6, R2).value <= e + 1e-9
    assert e <= bounds.upper_2design(4, 6, R2).value + 1e-9


# each site of the admissibility check: the ends of its N range, the
# strengths it takes, those of them at which it also needs n >= 3, the call
ADMISSIBILITY_SITES = {
    "solve_cardinality": ("[]", range(1, 7), (),
                          lambda n, tau, N: levenshtein.solve_cardinality(n, tau, N)),
    # gamma_0 N, the value innerprod.even_xi reads
    "gamma0_times_N": ("[]", (2, 4, 6), (),
                       lambda n, tau, N: levenshtein.quadrature_rule(n, tau, N).weights[0] * N),
    "u_bound": ("[]", (2, 4), (2, 4), lambda n, tau, N: innerprod.u_bound(n, N, tau)),
    "l_bound": ("[)", (2, 4), (2, 4), lambda n, tau, N: innerprod.l_bound(n, N, tau)),
    # xi, the lower end of the even-strength range
    "even_range": ("()", (2, 4, 6), (), lambda n, tau, N: innerprod.even_xi(n, N, tau // 2)),
    "improved_even_lower": ("()", (2, 4, 6), (),
                            lambda n, tau, N: bounds.improved_even_lower(n, N, tau // 2, R2)),
    "lower_2design": ("[]", (2,), (), lambda n, tau, N: bounds.lower_2design(n, N, R2)),
    "upper_2design": ("[)", (2,), (2,), lambda n, tau, N: bounds.upper_2design(n, N, R2)),
    "upper_cubic": ("[)", (3, 4), (4,),
                    lambda n, tau, N: bounds.upper_cubic(n, N, tau, R2, 0.5 if tau == 3 else None)),
}


def _admissibility_cases():
    for name, (ends, taus, needs_n3, _) in ADMISSIBILITY_SITES.items():
        for n in (2, 3, 5, 8):
            for tau in taus:
                lo, hi = levenshtein.dgs_bound(n, tau), levenshtein.dgs_bound(n, tau + 1)
                for N in sorted({lo - 1, lo, lo + 1, hi - 1, hi, hi + 1}) + [math.nan]:
                    inside = (lo <= N if ends[0] == "[" else lo < N) and (
                        N <= hi if ends[1] == "]" else N < hi
                    )
                    accepts = inside and not (n < 3 and tau in needs_n3)
                    yield pytest.param(name, n, tau, N, accepts, id=f"{name}-{n}-{tau}-{N}")


@pytest.mark.parametrize("name, n, tau, N, accepts", list(_admissibility_cases()))
def test_admissibility_decisions(name, n, tau, N, accepts):
    # each site accepts N between D(n, tau) and D(n, tau + 1) with its own
    # ends, and rejects everything else, NaN included, with a RangeError
    call = ADMISSIBILITY_SITES[name][3]
    if accepts:
        call(n, tau, N)
    else:
        with pytest.raises(RangeError):
            call(n, tau, N)


# one call per method; the lp_certify_lower call is rejected for most
# potentials
ROUND_TRIP_METHODS = {
    "ulb": lambda h: bounds.ulb(4, 16, 4, h),
    "improved_even_lower": lambda h: bounds.improved_even_lower(4, 17, 2, h),
    "lower_2design": lambda h: bounds.lower_2design(4, 6, h),
    "upper_2design": lambda h: bounds.upper_2design(4, 6, h),
    "upper_cubic": lambda h: bounds.upper_cubic(4, 16, 4, h),
    "strip_odd": lambda h: bounds.strip_odd(4, 10, 3, h, 0.4),
    "lp_certify_lower": lambda h: bounds.lp_certify_lower(Poly([0.5]), 4, 2, (-1.0, 0.5), h, 6),
    "lp_certify_upper": lambda h: bounds.lp_certify_upper(Poly([100.0]), 4, 2, (-1.0, 0.5), h, 6),
}


@pytest.mark.parametrize(
    "spec", ["riesz:s=2", "log", "gauss:c=1", "poly:1,1,0.5,0.25,0.0625,0.015625,0.00390625"]
)
@pytest.mark.parametrize("method", ROUND_TRIP_METHODS)
def test_report_from_json_round_trip(method, spec):
    # to_json -> from_json -> to_json gives the same text, and an accepted
    # report rebuilt from its JSON alone verifies
    report = ROUND_TRIP_METHODS[method](parse_potential(spec))
    text = jsonio.dumps(report.to_json())
    again = bounds.BoundReport.from_json(json.loads(text))
    assert jsonio.dumps(again.to_json()) == text
    assert again.verify() is report.accepted
    if method != "lp_certify_lower":
        assert report.accepted


def _stored(report) -> dict:
    return json.loads(jsonio.dumps(report.to_json()))


def test_verify_rejects_a_tampered_expansion():
    # the octahedron's energy is 13.5; raising the constant Gegenbauer
    # coefficient by 1 raises the LP value by N^2 = 36, and a stored value
    # to match must not verify as a lower bound of 49.5
    d = _stored(bounds.ulb(3, 6, 3, make_riesz(2)))
    assert d["value"] == 13.5
    d["certificate"]["gegenbauer"][0] += 1
    d["value"] += 36
    assert not bounds.BoundReport.from_json(d).verify()


@pytest.mark.parametrize("side", ["lower", "sideways"])
def test_verify_rejects_a_relabelled_side(side):
    # the chord certificate lies above h, so it bounds from above; stored
    # as a lower bound of 27.5 (the lower bound is 25.5), or as neither, it
    # must not verify
    h = make_riesz(2)
    d = _stored(bounds.upper_2design(5, 8, h))
    assert d["value"] == pytest.approx(27.5) and bounds.lower_2design(5, 8, h).value == 25.5
    d["side"] = side
    assert not bounds.BoundReport.from_json(d).verify()


def test_verify_of_an_empty_stored_poly_is_false():
    # an empty coefficient list is the zero polynomial, which lies below
    # riesz:s=2 and so is no upper certificate
    d = _stored(bounds.upper_2design(5, 8, make_riesz(2)))
    d["certificate"]["poly"] = []
    assert not bounds.BoundReport.from_json(d).verify()


def _sampled_margin(report) -> float:
    c = report.certificate
    return hermite.verify_one_sided(
        c.poly, report.h, c.lo, c.hi, c.relation, bounds.A1_GRID, levenshtein.DEB_TOL
    ).min_margin


def _recertified(report, **changes):
    """report's certificate through _certify again, with changed fields."""
    c = dataclasses.replace(report.certificate, **changes)
    return bounds._certify(c.poly, report.spec.n, report.spec.tau, (c.lo, c.hi), report.h,
                           report.spec.N, report.side, report.method, c.scheme)


def _without_scheme(report):
    d = _stored(report)
    del d["certificate"]["scheme"]
    return bounds.BoundReport.from_json(d)


SAMPLED_ROUTES = {
    # a polynomial potential is not absolutely monotone
    "poly potential": lambda: bounds.ulb(4, 16, 4, make_poly(Poly([1.0, 1.0, 0.5, 0.25, 0.0625]))),
    # lp_certify_* certificates carry no scheme
    "lp_certify_lower": lambda: bounds.lp_certify_lower(
        bounds.ulb(4, 16, 4, R2).certificate.poly, 4, 4, (-1.0, 1.0 - 1e-9), R2, 16),
    # f of degree 5 against a scheme of total degree 4
    "degree above the scheme's": lambda: _recertified(
        bounds.ulb(4, 16, 4, R2),
        poly=Poly([*bounds.ulb(4, 16, 4, R2).certificate.poly.coeffs, 1e-30])),
    # the simple node kappa of lower_2design inside the interval
    "odd node inside": lambda: _recertified(bounds.lower_2design(4, 6, R2), lo=-1.0),
    # a report stored before certificates carried their scheme
    "stored without scheme": lambda: _recertified(_without_scheme(bounds.ulb(4, 16, 4, R2))),
}


@pytest.mark.parametrize("case", SAMPLED_ROUTES)
def test_sign_condition_falls_back_to_the_sample(case):
    # where the proof does not apply, the margin is the sampled one, bit
    # for bit what verify_one_sided gives
    report = SAMPLED_ROUTES[case]()
    assert report.margins["sign_route"] == "sample"
    assert struct.pack("<d", report.margins["sign_margin"]) == struct.pack(
        "<d", _sampled_margin(report))


def test_stored_report_without_scheme_verifies_by_the_sample():
    report = _without_scheme(bounds.ulb(4, 16, 4, R2))
    assert report.certificate.scheme is None
    assert report.verify()


@pytest.mark.parametrize("h", [R2, make_log(), G1], ids=lambda h: h.spec_string())
def test_built_in_methods_take_the_proof(h):
    # every interpolating method proves its sign condition, with margin -B
    reports = [
        bounds.ulb(4, 16, 4, h), bounds.ulb(5, 40, 5, h),
        bounds.improved_even_lower(4, 17, 2, h), bounds.lower_2design(4, 6, h),
        bounds.upper_2design(4, 6, h), bounds.upper_2design(3, 4, h),
        bounds.upper_cubic(4, 16, 4, h), bounds.upper_cubic(4, 10, 3, h, 0.5),
        bounds.strip_odd(4, 10, 3, h, 0.4),
    ]
    for report in reports:
        assert report.accepted and report.verify(), report.method
        assert report.margins["sign_route"] == "proof", report.method
        assert -levenshtein.DEB_TOL <= report.margins["sign_margin"] <= 0.0


def test_a_tampered_scheme_never_verifies_what_the_sample_rejects():
    # f raised by 1e-6 lies above h at its nodes; stored as accepted, with
    # its scheme or any other, verify() must keep rejecting it
    report = bounds.ulb(4, 16, 4, R2)
    c = report.certificate
    raised = _recertified(report, poly=Poly([c.poly.coeffs[0] + 1e-6, *c.poly.coeffs[1:]]))
    assert not raised.accepted and raised.margins["sign_route"] == "sample"
    assert _sampled_margin(raised) < -levenshtein.DEB_TOL
    nodes = c.scheme.nodes
    schemes = [
        c.scheme,
        HermiteScheme([(t + 1e-3, m) for t, m in nodes]),
        HermiteScheme([(t, 2) for t, _ in nodes]),
        HermiteScheme(nodes[1:]),
        HermiteScheme([(-1.0, 1), (0.9, 1)]),
        HermiteScheme([(t, 2) for t in np.linspace(-0.99, 0.99, 6)]),
    ]
    for scheme in schemes:
        tampered = dataclasses.replace(
            raised, accepted=True, notes=[],
            certificate=dataclasses.replace(raised.certificate, scheme=scheme))
        assert not tampered.verify(), scheme


def test_upper_cubic_near_confluent_nodes_name_the_method_and_u():
    # at N = 2n, tau = 3 the tangency point is 0, and u = 3.7e-11 lies
    # closer to it than HermiteScheme allows
    u = 3.698980451060655e-11
    with pytest.raises(RangeError, match=r"upper_cubic .*u = 3\.698980451060655e-11"):
        bounds.upper_cubic(17, 34, 3, R2, u)
    _, errors = cli._upper_reports(17, 34, 3, R2, u)
    assert len(errors) == 1 and "u = 3.698980451060655e-11" in errors[0]
