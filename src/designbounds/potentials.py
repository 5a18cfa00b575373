"""Potential functions h(t) on [-1, 1) with derivative access.

All evaluators accept scalars or numpy arrays. Built-in families (Riesz,
log, Gauss, polynomial) have closed-form derivatives of every order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError
from .orthopoly import Poly

# additive constant applied to the log kernel so h(-1) = 0 (the raw kernel
# -(1/2)log(2(1-t)) is negative near t = -1); shifts every energy by
# N(N-1)*log(2), reported via the potential's params
LOG_OFFSET = math.log(2.0)


def _into(y):
    """The out argument that has a ufunc overwrite y: y when it is an
    array, None when it is a numpy scalar, which a 0-d t gives and which
    cannot be written into.

    The built-in potentials evaluate in place this way: at an array t,
    1 - t or c t is the one array made, and each later step, ** included,
    overwrites it. ``y **= e`` keeps the scalar-exponent special cases
    (square, sqrt, reciprocal) that ``y ** e`` takes, so the bits are those
    of the expression written out."""
    return y if isinstance(y, np.ndarray) else None


@dataclass(frozen=True)
class Potential:
    """Potential h with derivatives of every order."""

    name: str
    params: dict = field(default_factory=dict)
    _derivative: callable = None

    def eval(self, t):
        return self._derivative(np.asarray(t, dtype=float), 0)

    def derivative(self, t, order: int):
        if order < 0:
            raise RangeError(f"derivative order must be >= 0, got {order}")
        return self._derivative(np.asarray(t, dtype=float), order)

    def spec_string(self) -> str:
        """The spec that parse_potential reads back into this potential."""
        if self.name == "poly":
            return "poly:" + ",".join(repr(c) for c in self.params["coeffs"])
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}:{inner}"


def make_riesz(s: float) -> Potential:
    """h(t) = (2(1-t))^(-s/2), the Riesz s-potential in the inner product."""
    if not (math.isfinite(s) and s > 0):
        raise RangeError(f"Riesz exponent must be positive and finite, got {s}")

    def deriv(t, order):
        # each differentiation of (1-t)^(-s/2) brings down (s/2 + j)
        factor = 2.0 ** (-s / 2.0) * math.prod(s / 2.0 + j for j in range(order))
        y = 1.0 - t
        y **= -s / 2.0 - order
        y *= factor
        return y

    return Potential(name="riesz", params={"s": s}, _derivative=deriv)


def make_log() -> Potential:
    """h(t) = (1/2) log(2/(1-t)); the log kernel shifted so h(-1) = 0."""

    def deriv(t, order):
        y = 1.0 - t
        if order == 0:
            y = np.divide(2.0, y, out=_into(y))
            y = np.log(y, out=_into(y))
            y *= 0.5
            return y
        y **= -order
        y *= 0.5 * math.factorial(order - 1)
        return y

    return Potential(name="log", params={"offset": LOG_OFFSET}, _derivative=deriv)


def make_gauss(c: float) -> Potential:
    """h(t) = exp(c t)."""
    if not (math.isfinite(c) and c > 0):
        raise RangeError(f"Gaussian parameter must be positive and finite, got {c}")

    def deriv(t, order):
        y = c * t
        y = np.exp(y, out=_into(y))
        y *= c**order
        return y

    return Potential(name="gauss", params={"c": c}, _derivative=deriv)


def make_poly(p: Poly) -> Potential:
    """Polynomial potential; coefficients must be finite. A polynomial that
    is negative somewhere on [-1, 1) is accepted as it is."""
    if not all(math.isfinite(c) for c in p.coeffs):
        raise RangeError(f"polynomial coefficients must be finite, got {list(p.coeffs)}")

    def deriv(t, order):
        return p.deriv(order)(t) if order <= p.degree else np.zeros_like(t)

    return Potential(name="poly", params={"coeffs": list(p.coeffs)}, _derivative=deriv)


def _param(name: str, rest: str, known: str, default: float | None = None) -> float:
    """The value of a spec's one parameter, known, given at most once and
    no other name beside it; default when it is absent, if there is one."""
    kv = {}
    for item in filter(None, rest.split(",")):
        key, _, value = item.partition("=")
        if key != known:
            raise RangeError(f"unknown parameter {key!r} for {name}; it takes {known!r}")
        if key in kv:
            raise RangeError(f"repeated parameter {key!r}")
        kv[key] = float(value)
    if known in kv:
        return kv[known]
    if default is None:
        raise RangeError(f"missing parameter {known!r} for {name}")
    return default


def parse_potential(spec: str) -> Potential:
    """Parse CLI syntax: riesz:s=3, log, gauss:c=1, poly:1,0,2. log takes
    the offset it prints, log:offset=0.6931471805599453, and no other."""
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name == "riesz":
        return make_riesz(_param(name, rest, "s"))
    if name == "log":
        offset = _param(name, rest, "offset", LOG_OFFSET)
        if offset != LOG_OFFSET:
            raise RangeError(f"log offset is fixed at {LOG_OFFSET}, got {offset}")
        return make_log()
    if name == "gauss":
        return make_gauss(_param(name, rest, "c"))
    if name == "poly":
        coeffs = [float(x) for x in rest.split(",") if x.strip()]
        if not coeffs:
            raise RangeError("poly potential needs at least one coefficient")
        return make_poly(Poly(coeffs))
    raise RangeError(f"unknown potential spec {spec!r}")
