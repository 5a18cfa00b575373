"""Energy bounds and certificates: universal lower bounds, certified LP
checks, improved even-strength lower bounds, 2-design closed forms, cubic
upper bounds, odd-strength strips, test functions and asymptotic
evaluators.

Every bound is returned as a BoundReport carrying a polynomial certificate.
_certify alone decides acceptance, with _conditions at the constant DEB_TOL,
and a method's own value (closed form, quadrature, strip) must match its
certificate's to the same DEB_TOL, so an accepted report is verified.
BoundReport.verify, the read path for stored reports, runs _certify again on
the stored polynomial and scheme alone and compares what it gives with what
is stored.

The sign condition (A1/B1) takes one of two routes, named by the margin
"sign_route". Each interpolating method stores its HermiteScheme in the
certificate ("scheme": [[t, m], ...]), and where hermite.remainder_bound
applies to it and proves the relation to DEB_TOL the route is "proof", with
sign_margin = -B, B <= DEB_TOL a bound proved on the whole interval: h - f
>= -B ("below") or f - h >= -B ("above"). Otherwise (a certificate without
a scheme: lp_certify_*, or a report printed before schemes were; a potential
not known to be absolutely monotone: poly, hand-built; f of degree above
the scheme's; a node polynomial of the wrong sign; a bound that does not
reach DEB_TOL) the condition is sampled: "sample", with sign_margin the
least gap on the 20,001-point grid and its 2,001-point refinement, as
verify_one_sided computes it. Nothing the sample accepts is rejected, since
a proof that fails falls back to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import innerprod
from .errors import ConvergenceError, InternalConsistencyError, RangeError
from .hermite import HermiteScheme, interpolate, remainder_bound, verify_one_sided
from .innerprod import OPEN_UPPER_EPS
from .levenshtein import DEB_TOL, DesignSpec, QuadratureRule, _admissible, quadrature_rule
from .orthopoly import GegExpansion, Poly, gegenbauer_expand, gegenbauer_table
from .potentials import Potential, parse_potential

A1_GRID = 20_001


@dataclass(frozen=True)
class Certificate:
    poly: Poly
    gegenbauer: GegExpansion
    lo: float
    hi: float
    relation: str  # "below" for lower bounds, "above" for upper bounds
    # the interpolation scheme f was built from; None for lp_certify_*
    scheme: HermiteScheme | None = None

    def to_json(self) -> dict:
        return {
            "poly": self.poly.to_json(),
            "gegenbauer": self.gegenbauer.to_json(),
            "interval": [self.lo, self.hi],
            "relation": self.relation,
            "scheme": None if self.scheme is None else [list(node) for node in self.scheme.nodes],
        }


@dataclass
class BoundReport:
    spec: DesignSpec
    side: str  # "lower" | "upper"
    value: float
    method: str
    certificate: Certificate
    h: Potential
    accepted: bool
    margins: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def verify(self) -> bool:
        """Certify the stored polynomial again through _certify, the code
        that accepted it, on the stored spec, interval, side, scheme and
        potential, so by the route acceptance took.
        The side must be "lower" or "upper", and the result accepted, with
        the stored relation, Gegenbauer expansion and value, each number to
        DEB_TOL."""
        if not self.accepted or self.side not in ("lower", "upper"):
            return False
        c = self.certificate
        again = _certify(c.poly, self.spec.n, self.spec.tau, (c.lo, c.hi), self.h, self.spec.N,
                         self.side, self.method, c.scheme)
        expansion, stored = again.certificate.gegenbauer.coeffs, c.gegenbauer.coeffs
        return (
            again.accepted
            and again.certificate.relation == c.relation
            and len(expansion) == len(stored)
            and all(_close(a, b, DEB_TOL) for a, b in zip(expansion, stored))
            and _close(again.value, self.value, DEB_TOL)
        )

    def to_json(self) -> dict:
        d = self.spec.to_json()
        return {
            "spec": d,
            "side": self.side,
            "method": self.method,
            "value": self.value,
            "potential": self.h.spec_string(),
            "accepted": self.accepted,
            "certificate": self.certificate.to_json(),
            "margins": self.margins,
            "notes": list(self.notes),
        }

    @classmethod
    def from_json(cls, d: dict) -> "BoundReport":
        """The report that to_json printed, rebuilt from the parsed JSON
        alone; its to_json gives d back. A certificate printed without
        "scheme" has none, and prints "scheme": null."""
        spec = DesignSpec(**d["spec"])
        c = d["certificate"]
        scheme = c.get("scheme")
        return cls(
            spec=spec,
            side=d["side"],
            value=d["value"],
            method=d["method"],
            certificate=Certificate(
                poly=Poly(c["poly"]),
                gegenbauer=GegExpansion(n=spec.n, coeffs=tuple(c["gegenbauer"])),
                lo=c["interval"][0],
                hi=c["interval"][1],
                relation=c["relation"],
                scheme=None if scheme is None else HermiteScheme(scheme),
            ),
            h=parse_potential(d["potential"]),
            accepted=d["accepted"],
            margins=dict(d["margins"]),
            notes=list(d["notes"]),
        )


def _lp_value(N: float, f: Poly, f0: float) -> float:
    """The LP bound N(f_0 N - f(1)) of a certificate f whose constant
    Gegenbauer coefficient is f_0."""
    return float(N * (f0 * N - f(1.0)))


def _rule_value(rule: QuadratureRule, h: Potential, N: float) -> float:
    """N^2 sum_i w_i h(node_i): the quadrature rule applied to h."""
    return float(N * N * np.dot(rule.weights, h.eval(rule.nodes)))


def _close(a: float, b: float, tol: float) -> bool:
    """a equals b to tol relative to max(1, |b|); NaN never does."""
    return abs(a - b) <= tol * max(1.0, abs(b))


def _conditions(cert: Certificate, h: Potential, tau: int):
    """The acceptance check, to DEB_TOL: f <= h ("below") or f >= h
    ("above") on the certificate interval (A1/B1), proved by the Hermite
    remainder or else sampled, and sign-correct Gegenbauer coefficients
    above tau (A2/B2). Returns the sign margin, its route ("proof" or
    "sample"), the worst sign-adjusted coefficient above tau (0 if none)
    and one note per violated condition."""
    lower = cert.relation == "below"
    sign_name, coeff_name = ("A1", "A2") if lower else ("B1", "B2")
    violations = []
    bound = math.inf if cert.scheme is None else remainder_bound(
        cert.poly, cert.scheme, h, cert.lo, cert.hi, cert.relation, DEB_TOL)
    if bound <= DEB_TOL:
        sign_margin, route = -bound, "proof"
    else:
        m = verify_one_sided(cert.poly, h, cert.lo, cert.hi, cert.relation, A1_GRID, tol=DEB_TOL)
        sign_margin, route = m.min_margin, "sample"
        if not m.passes:
            violations.append(
                f"{sign_name} violated: margin {m.min_margin:.3e} at t = {m.argmin:.6f}")
    sign = 1.0 if lower else -1.0
    tail = [sign * x for x in cert.gegenbauer.coeffs[tau + 1 :]]
    worst = min(tail) if tail else 0.0
    if worst < -DEB_TOL:
        idx = tau + 1 + int(np.argmin(tail))
        violations.append(f"{coeff_name} violated: coefficient {idx} = {sign * worst:.3e}")
    return sign_margin, route, worst, violations


def _certify(
    f: Poly, n: int, tau: int, I: tuple[float, float], h: Potential, N: float,
    side: str, method: str, scheme: HermiteScheme | None = None,
) -> BoundReport:
    relation = "below" if side == "lower" else "above"
    exp = gegenbauer_expand(n, f)
    cert = Certificate(poly=f, gegenbauer=exp, lo=I[0], hi=I[1], relation=relation,
                       scheme=scheme)
    sign_margin, route, coeff_margin, violations = _conditions(cert, h, tau)
    return BoundReport(
        spec=DesignSpec(n=n, tau=tau, N=N),
        side=side,
        value=_lp_value(N, f, exp.coeffs[0]),
        method=method,
        certificate=cert,
        h=h,
        accepted=not violations,
        margins={"sign_margin": sign_margin, "sign_route": route, "coeff_margin": coeff_margin},
        notes=violations,
    )


def _pin_value(report: BoundReport, value: float, source: str) -> None:
    """Report the method's own value instead of the certificate's, which a
    report fresh from _certify holds; the two must agree to DEB_TOL, the
    tolerance verify() applies."""
    if not _close(report.value, value, DEB_TOL):
        raise InternalConsistencyError(
            f"certificate value {report.value} disagrees with {source} value {value}"
        )
    report.value = float(value)


def lp_certify_lower(f: Poly, n: int, tau: int, I, h: Potential, N: float) -> BoundReport:
    """Check conditions (sign on I, nonnegative high Gegenbauer coefficients)
    and report N(f_0 N - f(1)); rejections are reports, not errors."""
    return _certify(f, n, tau, tuple(I), h, N, side="lower", method="lp")


def lp_certify_upper(g: Poly, n: int, tau: int, I, h: Potential, N: float) -> BoundReport:
    """Mirror of lp_certify_lower with reversed sign conditions."""
    return _certify(g, n, tau, tuple(I), h, N, side="upper", method="lp")


def _ulb_scheme(rule) -> HermiteScheme:
    if rule.parity == "odd":
        return HermiteScheme([(t, 2) for t in rule.nodes])
    return HermiteScheme([(rule.nodes[0], 1)] + [(t, 2) for t in rule.nodes[1:]])


def ulb(n: int, N: float, tau: int, h: Potential) -> BoundReport:
    """Universal lower bound N^2 sum_i w_i h(node_i) with its Hermite
    interpolation certificate."""
    rule = quadrature_rule(n, tau, N)
    quad_value = _rule_value(rule, h, N)
    scheme = _ulb_scheme(rule)
    F = interpolate(scheme, h)
    report = _certify(F, n, tau, (-1.0, 1.0 - OPEN_UPPER_EPS), h, N, side="lower", method="ulb",
                      scheme=scheme)
    report.margins["certificate_vs_quadrature"] = report.value - quad_value
    _pin_value(report, quad_value, "quadrature")
    if not report.accepted:
        raise InternalConsistencyError(f"ULB certificate rejected: {report.notes}")
    return report


def improved_even_lower(
    n: int, N: float, k: int, h: Potential, ell: float | None = None
) -> BoundReport:
    """Even-strength improvement: interpolate additionally at the smallest
    admissible inner product ell instead of -1."""
    tau = 2 * k
    _admissible(n, tau, N, "()")
    if ell is None:
        ell = innerprod.best_range(n, N, tau)
    if ell <= -1.0 + 1e-12:
        report = ulb(n, N, tau, h)
        report.notes.append("ell = -1 degenerates to the universal lower bound")
        return report
    rule = quadrature_rule(n, tau, N)
    scheme = HermiteScheme([(ell, 1)] + [(t, 2) for t in rule.nodes[1:]])
    G = interpolate(scheme, h)
    report = _certify(
        G, n, tau, (ell, 1.0 - OPEN_UPPER_EPS), h, N, side="lower", method="improved_even",
        scheme=scheme,
    )
    report.margins["ulb_value"] = _rule_value(rule, h, N)
    report.margins["ell"] = ell
    return report


def a0_lower_quadratic(n: int, N: float, kappa: float) -> float:
    """Optimal tangency point for the degree-2 lower-bound interpolant with
    intersection at kappa."""
    num = n * (1.0 - kappa) - N
    den = n * (1.0 - kappa) + kappa * N * n
    if abs(den) < 1e-14:
        if abs(num) < 1e-14:
            # N = n+1 with the default kappa: the 0/0 limit is 0
            return 0.0
        raise RangeError(f"tangency point undefined for kappa = {kappa}")
    return num / den


def lower_2design(n: int, N: float, h: Potential, kappa: float | None = None) -> BoundReport:
    """Closed-form lower bound for 2-designs via a quadratic certificate."""
    _admissible(n, 2, N)
    default = kappa is None
    if default:
        kappa = 1.0 - N / n
    a0 = a0_lower_quadratic(n, N, kappa)
    if not (kappa < a0 < 1.0):
        raise RangeError(f"tangency point a0 = {a0} not inside ({kappa}, 1)")
    scheme = HermiteScheme([(kappa, 1), (a0, 2)])
    f = interpolate(scheme, h)
    report = _certify(
        f, n, 2, (kappa, 1.0 - OPEN_UPPER_EPS), h, N, side="lower", method="lower_2design",
        scheme=scheme,
    )
    if default:
        closed = N * (h.eval(0.0) * N * (N - n - 1) + n * h.eval(1.0 - N / n)) / (N - n)
        _pin_value(report, closed, "closed-form")
    report.margins["kappa"] = kappa
    report.margins["a0"] = a0
    return report


def upper_2design(n: int, N: float, h: Potential) -> BoundReport:
    """Chord upper bound for 2-designs over the admissible inner-product
    range; collapses to the simplex/Mimura energy when the range is a point."""
    ell = innerprod.l_bound(n, N, 2)
    u = innerprod.u_bound(n, N, 2)
    if abs(u - ell) < 1e-12:
        c = -1.0 / (N - 1)
        g = Poly([float(h.eval(c))])
        report = _certify(g, n, 2, (c, c), h, N, side="upper", method="upper_2design",
                          scheme=HermiteScheme([(c, 1)]))
        # chord limit of the strip formula; the collapsed value is the exact
        # energy N(N-1) h(-1/(N-1))
        report.notes.append("range collapsed to a point; bound equals the exact energy")
        return report
    hl, hu = float(h.eval(ell)), float(h.eval(u))
    slope = (hu - hl) / (u - ell)
    g = Poly([hl - slope * ell, slope])
    try:
        scheme = HermiteScheme([(ell, 1), (u, 1)])
    except RangeError:  # ell and u closer than a scheme allows: the sample decides
        scheme = None
    report = _certify(g, n, 2, (ell, u), h, N, side="upper", method="upper_2design",
                      scheme=scheme)
    # N((N-1)(u h_l - ell h_u) + h_l - h_u)/(u - ell) by the slope: near the
    # simplex that quotient divides two round-off-sized differences
    closed = N * ((N - 1) * hl - ((N - 1) * ell + 1) * slope)
    _pin_value(report, closed, "closed-form")
    report.margins["ell"] = ell
    report.margins["u"] = u
    return report


def a0_upper_cubic(n: int, N: float, ell: float, u: float) -> float:
    """Optimal tangency point for the cubic upper-bound interpolant."""
    num = N * (ell + u) + n * (1.0 - ell) * (1.0 - u)
    den = n * (1.0 - ell) * (1.0 - u) - N * (1.0 + ell * u * n)
    if den == 0.0:
        # 0/0 at N = 2n, tau = 3, u = 0, where the value does not depend on a0
        return (ell + u) / 2.0 if num == 0.0 else math.nan
    return num / den


def upper_cubic(
    n: int, N: float, tau: int, h: Potential, u_override: float | None = None
) -> BoundReport:
    """Cubic-interpolant upper bound for 3- and 4-designs whose largest inner
    product is u. u must be at least the rule's largest node s: no N-point
    code has a smaller one (Levenshtein's bound)."""
    if tau not in (3, 4):
        raise RangeError(f"upper_cubic supports tau in (3, 4), got {tau}")
    _admissible(n, tau, N, "[)")
    if tau == 4:
        ell = innerprod.l_bound(n, N, 4)
        u = innerprod.u_bound(n, N, 4) if u_override is None else float(u_override)
    elif u_override is None:
        raise RangeError("tau = 3 requires a caller-supplied upper inner-product bound u")
    else:
        ell, u = -1.0, float(u_override)
    if not ell < u < 1.0:
        raise RangeError(f"u = {u} must lie strictly between ell = {ell} and 1")
    s = quadrature_rule(n, tau, N).s
    if u < s - 1e-12:
        raise RangeError(f"u = {u} must be at least the largest node {s}")

    a0 = a0_upper_cubic(n, N, ell, u)
    if not ell < a0 < u:
        raise RangeError(f"tangency point a0 = {a0} not inside ({ell}, {u})")
    try:
        scheme = HermiteScheme([(ell, 1), (a0, 2), (u, 1)])
    except RangeError as e:
        raise RangeError(f"upper_cubic cannot interpolate at u = {u}: {e}") from None
    g = interpolate(scheme, h)
    report = _certify(g, n, tau, (ell, u), h, N, side="upper", method="upper_cubic",
                      scheme=scheme)
    report.margins["ell"] = ell
    report.margins["u"] = u
    report.margins["a0"] = a0
    return report


def strip_odd(n: int, N: float, tau: int, h: Potential, u: float) -> BoundReport:
    """Upper bound for odd-strength designs with maximal inner product <= u:
    the lowest accepted certificate over which quadrature node is released."""
    if tau % 2 != 1:
        raise RangeError(f"strip_odd requires odd tau, got {tau}")
    rule = quadrature_rule(n, tau, N)
    alphas = rule.nodes
    if not u < 1.0:
        raise RangeError(f"u must be < 1, got {u}")
    if u < alphas[-1] - 1e-12:
        raise RangeError(f"u = {u} must be at least the largest node {alphas[-1]}")
    ulb_val = _rule_value(rule, h, N)

    best = None
    for j in range(len(alphas)):
        # double nodes except the released alpha_j; -1 and u enter simply
        # unless they coincide with a kept double node
        mults: dict[float, int] = {}
        for i, a in enumerate(alphas):
            if i != j:
                mults[float(a)] = 2
        for t in (-1.0, float(u)):
            if not any(abs(t - x) < 1e-12 for x in mults):
                mults[t] = 1
        try:
            scheme = HermiteScheme(sorted(mults.items()))
        except RangeError:
            continue
        G = interpolate(scheme, h)
        corr = float(N * N * rule.weights[j] * (G(alphas[j]) - h.eval(alphas[j])))
        report = _certify(G, n, tau, (-1.0, float(u)), h, N, side="upper", method="strip_odd",
                          scheme=scheme)
        _pin_value(report, ulb_val + corr, "strip")
        # degenerate (merged-node) schemes can land on the wrong side of h
        if report.accepted and (best is None or report.value < best[0].value):
            best = (report, j)
    if best is None:
        raise ConvergenceError("no admissible released node for the strip bound")
    report, j = best
    report.margins["ulb_value"] = ulb_val
    report.margins["released_node_index"] = j
    report.margins["strip_width"] = float(report.value - ulb_val)
    return report


@dataclass(frozen=True)
class TestFunctionTable:
    spec: DesignSpec
    values: tuple[float, ...]  # Q_1 .. Q_jmax

    def q(self, j: int) -> float:
        return self.values[j - 1]

    def to_json(self) -> dict:
        return {"spec": self.spec.to_json(), "Q": {str(j + 1): v for j, v in enumerate(self.values)}}


def test_function(n: int, tau: int, N: float, j: int) -> float:
    """Q_j: the quadrature rule applied to the degree-j Gegenbauer polynomial."""
    if j < 1:
        raise RangeError(f"need j >= 1, got {j}")
    return test_table(n, tau, N, j).q(j)


def test_table(n: int, tau: int, N: float, j_max: int) -> TestFunctionTable:
    if tau % 2 != 1:
        raise RangeError(f"test functions are defined for odd tau, got {tau}")
    rule = quadrature_rule(n, tau, N)
    vals = 1.0 / N + gegenbauer_table(n, j_max, rule.nodes)[1:] @ rule.weights
    return TestFunctionTable(spec=rule.spec, values=tuple(float(v) for v in vals))


def k0_threshold(k: int) -> float:
    """Dimension threshold below which Q_{2k+3} is negative on the whole branch."""
    if k < 9:
        raise RangeError(f"threshold is defined for k >= 9, got {k}")
    return (k * k - 4 * k + 5 + math.sqrt(k**4 - 8 * k**3 - 6 * k**2 + 24 * k + 25)) / 4.0


def strip2_asym(zeta: float, h: Potential, N: float) -> tuple[float, float]:
    """Main terms (per N^2) of the asymptotic 2-design strip at N/n -> zeta."""
    if not (1.0 < zeta < 2.0):
        raise RangeError(f"zeta must lie in (1, 2), got {zeta}")
    h0 = float(h.eval(0.0))
    hm = float(h.eval(1.0 - zeta))
    hp = float(h.eval(zeta - 1.0))
    lower = h0 + (hm - zeta * h0) / ((1.0 - zeta) * N)
    upper = (hm + hp) / 2.0 + ((2.0 - zeta) * hm - zeta * hp) / (2.0 * (zeta - 1.0) * N)
    return lower, upper


def upper4_asym(lam: float, h: Potential, N: float) -> float:
    """Asymptotic 4-design upper bound h(0)N^2 - h(0)N + c1 sqrt(N) + c2 at
    N = n^2 lambda."""
    if not (0.5 <= lam < 1.0):
        raise RangeError(f"lambda must lie in [1/2, 1), got {lam}")
    r = math.sqrt(lam)
    d = 2.0 * r - 1.0
    h0 = float(h.eval(0.0))
    hm = float(h.eval(1.0 - 2.0 * r))
    hp = float(h.eval(2.0 * r - 1.0))
    c1 = r * (d * hm + (1.0 - 2.0 * r) * hp) / (2.0 * d**3)
    c2 = ((1.0 - r) * hm + r * hp - h0) / d**3
    return h0 * N * N - h0 * N + c1 * math.sqrt(N) + c2


def ulb_asym_main(h: Potential, N: float) -> float:
    """Leading term of the fixed-strength lower bound as n, N grow together."""
    return float(h.eval(0.0)) * N * N
