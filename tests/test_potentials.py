import math

import numpy as np
import pytest

from designbounds import potentials as pot
from designbounds.errors import RangeError
from designbounds.orthopoly import Poly


def test_riesz_is_inverse_distance_power():
    h = pot.make_riesz(2.0)
    # (2(1-t))^{-1} at t=0 is 1/2; distance between antipodes is 2
    assert h.eval(0.0) == pytest.approx(0.5)
    assert h.eval(-1.0) == pytest.approx(0.25)
    h3 = pot.make_riesz(3.0)
    assert h3.eval(-1.0) == pytest.approx(1.0 / 8.0)


def test_riesz_derivatives_positive_and_match_fd():
    h = pot.make_riesz(3.0)
    eps = 1e-6
    for order in (1, 2, 3):
        for t0 in (-0.9, 0.0, 0.6):
            fd = (h.derivative(t0 + eps, order - 1) - h.derivative(t0 - eps, order - 1)) / (
                2 * eps
            )
            assert h.derivative(t0, order) == pytest.approx(fd, rel=1e-5)
            assert h.derivative(t0, order) > 0


def test_riesz_rejects_nonpositive_exponent():
    with pytest.raises(RangeError):
        pot.make_riesz(0.0)


def test_log_offset_and_derivatives():
    h = pot.make_log()
    assert h.eval(-1.0) == pytest.approx(0.0, abs=1e-15)
    assert h.params["offset"] == pytest.approx(math.log(2.0))
    assert h.derivative(0.0, 1) == pytest.approx(0.5)
    assert h.derivative(0.0, 2) == pytest.approx(0.5)
    assert h.derivative(0.5, 3) == pytest.approx(0.5 * 2 / 0.5**3)


def test_gauss_derivatives():
    h = pot.make_gauss(2.0)
    t = np.linspace(-1, 0.9, 5)
    assert np.allclose(h.derivative(t, 3), 8 * np.exp(2 * t))


# the built-in potentials as written before they evaluated in place
_WRITTEN = {
    "riesz": lambda s, t, order: 2.0 ** (-s / 2.0) * math.prod(s / 2.0 + j for j in range(order))
    * (1.0 - t) ** (-s / 2.0 - order),
    "log": lambda _, t, order: 0.5 * np.log(2.0 / (1.0 - t)) if order == 0
    else 0.5 * math.factorial(order - 1) * (1.0 - t) ** (-order),
    "gauss": lambda c, t, order: c**order * np.exp(c * t),
}


@pytest.mark.parametrize(
    "spec, param",
    [("riesz:s=1", 1.0), ("riesz:s=2", 2.0), ("riesz:s=3", 3.0), ("riesz:s=4", 4.0),
     ("riesz:s=1.5", 1.5), ("riesz:s=0.5", 0.5), ("log", None), ("gauss:c=1", 1.0),
     ("gauss:c=2.5", 2.5)],
)
def test_in_place_potentials_are_the_written_expression_bit_for_bit(spec, param):
    # an array t gives a fresh array and leaves t alone; a scalar or 0-d t
    # gives a numpy scalar; both with the bits of the expression written out,
    # whose ** takes numpy's scalar-exponent special cases
    h = pot.parse_potential(spec)
    written = _WRITTEN[h.name]
    arrays = [np.linspace(-1.0, 1.0 - 1e-9, 2001), np.array([[0.3, -0.2], [0.9, 0.1]])]
    for order in range(5):
        for t in arrays:
            before = t.tobytes()
            got = h.derivative(t, order)
            want = written(param, t, order)
            assert type(got) is np.ndarray and not np.shares_memory(got, t)
            assert t.tobytes() == before
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), order
        for t in (0.3, -1.0, np.float64(0.7), np.asarray(0.25)):
            got = h.derivative(t, order)
            want = written(param, np.asarray(t, dtype=float), order)
            assert type(got) is type(want) is np.float64
            assert got.tobytes() == want.tobytes(), (order, t)


def test_poly_potential_and_negativity_flag():
    h = pot.make_poly(Poly([1.0, 0.0, 2.0]))
    assert h.eval(0.5) == pytest.approx(1.5)
    assert np.allclose(h.derivative(np.array([0.3]), 5), 0.0)


def test_parse_potential_round_trip():
    h = pot.parse_potential("riesz:s=3")
    assert h.name == "riesz" and h.params["s"] == 3.0
    assert pot.parse_potential("log").name == "log"
    assert pot.parse_potential("gauss:c=1").params["c"] == 1.0
    hp = pot.parse_potential("poly:1,0,2")
    assert hp.eval(1.0) == pytest.approx(3.0)
    with pytest.raises(RangeError):
        pot.parse_potential("nope")
    with pytest.raises(RangeError):
        pot.parse_potential("poly:")


def test_spec_string():
    assert pot.parse_potential("riesz:s=2").spec_string() == "riesz:s=2.0"
    assert pot.make_log().spec_string().startswith("log:")
    assert pot.parse_potential("poly:1,0,2").spec_string() == "poly:1.0,0.0,2.0"
    # stored reports name their potential by spec_string and are parsed back
    t = np.linspace(-1.0, 0.9, 7)
    for spec in ("riesz:s=2", "riesz:s=0.1", "log", "gauss:c=1", "gauss:c=3.7",
                 "poly:1,0,2", "poly:0,-1", "poly:0.1,-3e-20,1e300"):
        h = pot.parse_potential(spec)
        back = pot.parse_potential(h.spec_string())
        assert back.spec_string() == h.spec_string(), spec
        assert back.params == h.params, spec
        for order in range(3):
            assert np.array_equal(back.derivative(t, order), h.derivative(t, order)), spec


def test_log_spec_takes_only_the_offset_it_prints():
    # stored reports name their potential by spec_string and are parsed back
    assert pot.parse_potential(pot.make_log().spec_string()).name == "log"
    with pytest.raises(RangeError, match="offset"):
        pot.parse_potential("log:offset=1")

