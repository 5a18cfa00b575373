"""Bounds on the inner products of designs of given (n, N, tau): the closed
forms u and l at tau in (2, 4), the even-strength root xi, and the smallest
admissible inner product ell that the improved lower bound reads."""

from __future__ import annotations

import math

from .errors import RangeError
from .levenshtein import _admissible, quadrature_rule

# lower bounds are checked on [ell, 1 - OPEN_UPPER_EPS]: it covers no round-off
# but keeps the grid and the remainder bound off t = 1, where riesz and log are
# infinite. It stays until ROADMAP item 3's decimal table.
OPEN_UPPER_EPS = 1e-9


def _check_closed_form(name: str, n: int, N: float, tau: int, ends: str) -> None:
    """The closed forms hold for n >= 3, tau in (2, 4) and N between
    D(n, tau) and D(n, tau + 1) with the given ends."""
    if n < 3:
        raise RangeError(f"need n >= 3, got {n}")
    if tau not in (2, 4):
        raise RangeError(f"{name} supports tau in (2, 4), got {tau}")
    _admissible(n, tau, N, ends)


def u_bound(n: int, N: float, tau: int) -> float:
    """Largest admissible inner product for 2- and 4-designs."""
    _check_closed_form("u_bound", n, N, tau, "[]")
    if tau == 2:
        return (N - 2) / n - 1.0
    return 2.0 * (3.0 + math.sqrt((n - 1) * ((n + 2) * N - 3 * (n + 3)))) / (n * (n + 2)) - 1.0


def l_bound(n: int, N: float, tau: int) -> float:
    """Smallest admissible inner product for 2- and 4-designs."""
    _check_closed_form("l_bound", n, N, tau, "[)")
    if tau == 2:
        return 1.0 - N / n
    return 1.0 - (2.0 / n) * (1.0 + math.sqrt((n - 1) * (N - 2) / (n + 2)))


def even_xi(n: int, N: float, k: int) -> float:
    """Smallest root xi of f(t) = gamma_0 N f(-1), f(t) the square of the
    running product p(t) of (t - beta_i) over the even rule's interior
    nodes, in Python floats. Where gamma_0 N >= 1 there is no root in
    (-1, beta_1), xi bounds nothing and -1 is returned."""
    _admissible(n, 2 * k, N, "()")
    rule = quadrature_rule(n, 2 * k, N)
    betas = rule.nodes[1:].tolist()  # beta_1 .. beta_k
    drop = -0.5 * math.log(float(rule.weights[0]) * N)  # log |p(-1)| - log |p(xi)|
    if not drop > 0:
        return -1.0
    # g(t) = log |p(t)| - log |p(-1)| + drop is concave and decreasing on
    # [-1, beta_1), and -inf at beta_1: a Newton step from the root's left
    # lands on its right, or past beta_1, where the step halves the way there
    # instead; from the right the steps fall monotonically to the root
    log_p = lambda t: sum(math.log(b - t) for b in betas)
    base = log_p(-1.0) - drop
    t, right = -1.0, False
    while True:
        value = log_p(t) - base
        if value == 0 or (right and value > 0):  # at the root, or a rounding past it
            return t
        right = value < 0
        step = t + value / sum(1.0 / (b - t) for b in betas)
        if not step < betas[0]:
            step = (t + betas[0]) / 2
        if step == t or step == betas[0]:
            return t
        t = step


def best_range(n: int, N: float, tau: int) -> float:
    """The smallest admissible inner product ell: the largest of -1, l_bound
    at tau in (2, 4) and xi at even tau, each where its (n, N) is in range."""
    ell = -1.0
    if tau in (2, 4):
        try:
            ell = max(ell, l_bound(n, N, tau))
        except RangeError:
            pass
    if tau % 2 == 0 and tau >= 2:
        try:
            ell = max(ell, even_xi(n, N, tau // 2))
        except RangeError:
            pass
    return ell
