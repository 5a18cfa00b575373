import argparse
import importlib.util
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from designbounds import cli, innerprod, jsonio, levenshtein
from designbounds.bounds import BoundReport
from designbounds.levenshtein import dgs_bound, quadrature_rule, solve_cardinality
from designbounds.orthopoly import gegenbauer_table


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound_strip_collapse(capsys):
    code, out, _ = run(
        capsys, "bound", "--n", "3", "--N", "5", "--tau", "2",
        "--potential", "riesz:s=2", "--side", "strip",
    )
    assert code == 0
    d = json.loads(out)
    assert d["lower"]["best_value"] == pytest.approx(8.5)
    assert d["upper"]["best_value"] == pytest.approx(8.5)


def test_bound_octahedron_with_u(capsys):
    code, out, _ = run(
        capsys, "bound", "--n", "3", "--N", "6", "--tau", "3",
        "--potential", "riesz:s=2", "--u", "0", "--side", "strip", "--verify",
    )
    assert code == 0
    d = json.loads(out)
    assert d["lower"]["best_value"] == pytest.approx(13.5)
    assert d["upper"]["best_value"] == pytest.approx(13.5)


@pytest.mark.parametrize("N", ["4.0000000001", "4.00000001"])
def test_bound_upper_just_above_the_simplex(capsys, N):
    # ell and u are about 1e-10 and 1e-8 apart here, so the chord's closed
    # form must not divide their round-off-sized differences. The value is
    # near the simplex energy 4.5 and grows like 3(N - 4)
    code, out, err = run(
        capsys, "bound", "--n", "3", "--N", N, "--tau", "2",
        "--potential", "riesz:s=2", "--side", "upper", "--verify",
    )
    assert code == 0, err
    d = json.loads(out)["upper"]
    assert d["best_method"] == "upper_2design"
    assert d["best_value"] == pytest.approx(4.5 + 3 * (float(N) - 4), rel=1e-12)


def test_bound_range_error_exit_2(capsys):
    code, _, err = run(
        capsys, "bound", "--n", "3", "--N", "99", "--tau", "2",
        "--potential", "riesz:s=2", "--side", "lower",
    )
    assert code == 2
    assert "[4, 6]" in err


def test_bad_potential_exit_1(capsys):
    code, _, err = run(
        capsys, "bound", "--n", "3", "--N", "5", "--tau", "2",
        "--potential", "bogus", "--side", "lower",
    )
    assert code == 1
    assert "potential" in err


@pytest.mark.parametrize("n, tau", [(200, 17), (160, 13)])
def test_bound_high_dimension_midpoint(capsys, n, tau):
    # at this n, Jacobi polynomials in monomial coefficients overflow
    N = (dgs_bound(n, tau) + dgs_bound(n, tau + 1)) / 2
    code, out, err = run(
        capsys, "bound", "--n", str(n), "--N", repr(N), "--tau", str(tau),
        "--potential", "riesz:s=2", "--side", "lower", "--verify",
    )
    assert code == 0, err
    assert json.loads(out)["lower"]["best_method"] == "ulb"


def test_even_range_without_sign_change_keeps_trivial_end(capsys):
    # gamma_0 N tends to 1 as N tends to D(tau + 1); one below it, round-off
    # puts it above 1, which leaves the bracket of innerprod.even_xi without
    # a sign change; xi bounds nothing, so ell stays -1 and ulb stands alone
    n, tau, N = 200, 18, dgs_bound(200, 19) - 1
    assert quadrature_rule(n, tau, N).weights[0] * N > 1
    assert innerprod.even_xi(n, N, tau // 2) == -1.0
    code, out, err = run(
        capsys, "bound", "--n", str(n), "--N", str(N), "--tau", str(tau),
        "--potential", "riesz:s=2", "--side", "lower", "--verify",
    )
    assert code == 0, err
    assert json.loads(out)["lower"]["best_method"] == "ulb"


def test_gamma0_times_N_of_a_high_degree_rule_is_below_1(capsys):
    # the Vandermonde solve the weights came from before printed 311.6 here
    code, out, _ = run(capsys, "quadrature", "--n", "60", "--tau", "40", "--N",
                       "4055000000000000000")
    assert code == 0
    rule = json.loads(out)
    assert 0.46 < rule["weights"][0] * 4055000000000000000 < 0.47


def test_even_range_in_unstable_zone_exits_3_not_traceback(capsys):
    # the certificate is in the zone where ulb cannot be verified yet, and
    # says so
    code, _, err = run(
        capsys, "bound", "--n", "3", "--N", "798", "--tau", "54",
        "--potential", "gauss:c=1", "--side", "lower", "--verify",
    )
    assert code == 3
    assert "internal consistency failure" in err


@pytest.mark.parametrize("n, N, tau, potential", [
    (3, "196", 26, "riesz:s=2"),
    (4, "1938", 33, "log"),
    (8, "826804", 36, "riesz:s=2"),
])
@pytest.mark.parametrize("tol, expected", [(None, 3), ("1e-8", 3)])
def test_ulb_value_check_uses_verify_tolerance(
    capsys, monkeypatch, n, N, tau, potential, tol, expected
):
    # the ulb certificate and quadrature values differ by 1e-9..1e-8
    # relative: the value check at creation uses DEB_TOL and --verify adds
    # no check, so the exit code does not depend on --verify. DEB_TOL is a
    # constant: a DEB_TOL in the environment is not read
    if tol is not None:
        monkeypatch.setenv("DEB_TOL", tol)
    argv = ["bound", "--n", str(n), "--N", N, "--tau", str(tau),
            "--potential", potential, "--side", "lower"]
    assert run(capsys, *argv)[0] == expected
    assert run(capsys, *argv, "--verify")[0] == expected


@pytest.mark.parametrize("tau, N", [(33, "46773789676013700"), (37, "327025349084865200")])
def test_quadrature_at_float_endpoint_above_2_53(capsys, tau, N):
    # N is D(60, tau + 1) or D(60, tau), but parses to a float that is not
    # that integer; it is still an endpoint of the cardinality interval
    assert int(N) in (dgs_bound(60, tau), dgs_bound(60, tau + 1))
    assert int(float(N)) != int(N)
    code, out, err = run(capsys, "quadrature", "--n", "60", "--tau", str(tau), "--N", N)
    assert code == 0, err
    assert json.loads(out)["boundary"] is True


def test_code_builder_missing_option_exit_1(capsys):
    code, _, err = run(capsys, "code", "--builder", "simplex", "--potential", "riesz:s=2")
    assert code == 1
    assert "--n" in err


@pytest.mark.parametrize("spec", ["riesz:s=nan", "gauss:c=nan"])
def test_nan_potential_parameter_exit_1(capsys, spec):
    code, _, err = run(
        capsys, "bound", "--n", "3", "--N", "5", "--tau", "2", "--potential", spec,
    )
    assert code == 1
    assert "potential" in err


@pytest.mark.parametrize(
    "argv, names",
    [
        ("bound --n 3 --N 6 --tau 3 --potential riesz:s=2 --u nan", "--u"),
        ("bound --n 3 --N 6 --tau 3 --potential riesz:s=2 --u inf", "--u"),
        ("bound --n 3 --N 10 --tau 4 --potential riesz:s=2 --side upper --u nan", "--u"),
        ("bound --n 3 --N 10 --tau 4 --potential riesz:s=2 --side lower --l nan", "--l"),
        ("bound --n 3 --N 6 --tau 3 --potential riesz:s=2 --u 1.5", "--u"),
        ("sweep --n 3 --tau 3 --potential riesz:s=2 --u nan", "--u"),
        ("sweep --n 3,x --tau 3 --potential riesz:s=2", "--n"),
        ("sweep --n 3 --tau 3,y --potential riesz:s=2", "--tau"),
        ("sweep --n 3 --tau 1 --N 5,y --potential riesz:s=2", "--N"),
        ("sweep --n 3 --tau 1 --N 5.5 --potential riesz:s=2", "--N"),
        ("sweep --n 3 --tau 2 --potential log --jobs 0", "--jobs: not a positive integer: '0'"),
        ("sweep --n 3 --tau 2 --potential log --jobs -1", "--jobs: not a positive integer: '-1'"),
        ("sweep --n 3 --tau 2 --potential log --jobs x", "--jobs: not a positive integer: 'x'"),
        ("testfn --n 3 --tau 3 --N 7 --jmax 0", "--jmax: not a positive integer: '0'"),
        ("testfn --n 3 --tau 3 --N 7 --jmax -2", "--jmax: not a positive integer: '-2'"),
        ("code --builder simplex --n 3 --potential log --max-tau -1",
         "--max-tau must be >= 0, got -1"),
        ("bound --n 3 --N 6 --tau 3 --potential poly:nan --side lower", "poly:nan"),
        ("bound --n 3 --N 6 --tau 3 --potential poly:inf,1 --side lower", "poly:inf,1"),
        ("bound --n 3 --N 5 --tau 2 --potential poly:1,nan", "poly:1,nan"),
        ("bound --n 3 --N 5 --tau 2 --potential riesz:s=2,c=1", "unknown parameter 'c'"),
        ("bound --n 3 --N 5 --tau 2 --potential gauss:c=1,d=2", "unknown parameter 'd'"),
        ("bound --n 3 --N 5 --tau 2 --potential log:c=7", "unknown parameter 'c'"),
        ("bound --n 3 --N 5 --tau 2 --potential riesz:s=1,s=3", "repeated parameter 's'"),
        ("bound --n 3 --N 5 --tau 2 --potential riesz", "missing parameter 's' for riesz"),
        ("bound --n 3 --N 5 --tau 2 --potential gauss:", "missing parameter 'c' for gauss"),
    ],
)
def test_bad_input_exit_1_names_it(capsys, argv, names):
    code, out, err = run(capsys, *argv.split())
    assert code == 1
    assert names in err
    assert out == ""


# an integer past the largest double
BIG = "1" + "0" * 400


@pytest.mark.parametrize("argv, names", [
    ("bound --n BIG --N 5 --tau 3 --potential log", "(n=BIG, tau=3)"),
    ("bound --n BIG --N 5 --tau 1 --potential log --side lower", "(n=BIG, tau=1)"),
    ("quadrature --n BIG --N 5 --tau 3", "(n=BIG, tau=3)"),
    ("testfn --n BIG --N 5 --tau 3 --jmax 4", "(n=BIG, tau=3)"),
    ("code --builder simplex --n BIG --potential log", "n = BIG too large"),
    ("code --builder cross-polytope --n BIG --potential log", "n = BIG too large"),
    ("code --builder orthogonal-simplices --a 3 --b BIG --potential log",
     "(a, b) = (3, BIG) too large"),
    ("code --builder kerdock --l 600 --potential log", "l = 600 too large"),
    ("code --builder kerdock --l 128 --potential log", "l = 128 too large"),
    # bounds that are doubles, but Jacobi parameters whose squares are not
    ("bound --n TEN200 --N 1.5e200 --tau 2 --potential log", "n = TEN200 too large"),
    ("quadrature --n TEN160 --N 1.5e160 --tau 2", "n = TEN160 too large"),
    # or whose b_j, a quotient of products past the largest double, are 0 or NaN
    ("quadrature --n TEN100 --N 2e299 --tau 6", "n = TEN100 too large"),
    # and bounds N^2 h past the largest double, on the chord and at the simplex
    ("bound --n TEN200 --N 1.5e200 --tau 2 --potential log --side upper",
     "upper_2design: the value inf of N(N f_0 - f(1)) is past the largest double"),
    ("bound --n TEN200 --N TEN200 --tau 2 --potential log --side upper",
     "upper_2design: the value inf of N(N f_0 - f(1)) is past the largest double"),
    # a kernel shift or an L_tau quotient that divides by a 0 from round-off
    ("quadrature --n TEN20 --tau 3 --N 200000000000000000000",
     "the kernel at s = 0.0 has an infinite shift for (n=TEN20, tau=3): p_(k-1)(s) rounds to 0"),
    ("quadrature --n TEN20 --tau 3 --N 166666666666666666685000000000000",
     "L_3(n=TEN20, s) divides by 0 at s = 1e-10"),
])
def test_integers_past_the_doubles_are_range_errors(capsys, argv, names):
    code, out, err = run(capsys, *_written_out(argv).split())
    assert code == 2
    assert err.startswith("range error: ")
    assert _written_out(names) in err
    assert out == ""


def _written_out(text):
    """text with BIG, TEN200, TEN160, TEN100 and TEN20 written out as integers."""
    for name, value in (("BIG", BIG), ("TEN200", str(10**200)), ("TEN160", str(10**160)),
                        ("TEN100", str(10**100)), ("TEN20", str(10**20))):
        text = text.replace(name, value)
    return text


def test_sweep_past_the_doubles_gets_error_rows(capsys):
    code, out, _ = run(capsys, "sweep", "--n", BIG, "--tau", "1,3", "--potential", "log",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["tau"] for row in rows] == [1, 1, 1, 3, 3, 3]
    for row in rows:
        assert f"is past the doubles for (n={BIG}, tau={row['tau']})" in row["error"]


def test_sweep_point_whose_N_squared_is_past_the_doubles_gets_an_error_row(capsys):
    # a sweep's N is an int, and N * N does not overflow to inf as a float does
    N = 10**158
    code, out, _ = run(capsys, "sweep", "--n", str(10**13), "--tau", "25", "--N", str(N),
                       "--potential", "log", "--format", "json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["error"] == f"N^2 is past the largest double at N = {N}"


def test_largest_kerdock_code_whose_N_squared_is_a_double(capsys):
    code, out, _ = run(capsys, "code", "--builder", "kerdock", "--l", "127", "--potential", "log")
    assert code == 0
    assert json.loads(out)["N"] == 2 ** 508
    assert json.loads(out)["strength"] == 3


@pytest.mark.parametrize("l", [5, 7])
def test_kerdock_codes_have_strength_3(capsys, l):
    # S_4 is exactly nonzero, though small beside N^2
    code, out, _ = run(capsys, "code", "--builder", "kerdock", "--l", str(l), "--potential", "log")
    assert code == 0
    assert json.loads(out)["strength"] == 3


@pytest.mark.parametrize("argv", [
    "bound --n 3 --N 2 --tau 0 --potential log",
    "bound --n 3 --N 2 --tau 0 --potential log --side upper",
    "quadrature --n 3 --N 2 --tau 0",
])
def test_tau_0_gets_one_message(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert err == "range error: need tau >= 1, got 0\n"
    assert out == ""


@pytest.mark.parametrize("argv, d", [
    ("bound --n 30000000000000000 --N 30000000000000003 --tau 2 --potential log --side lower",
     30000000000000001),
    ("quadrature --n 30000000000000000 --N 30000000000000003 --tau 2", 30000000000000001),
    ("quadrature --n 60 --tau 26 --N 83710202924601", 83710202924600),
    ("quadrature --n 24 --tau 58 --N 549663398587801", 549663398587800),
    ("quadrature --n 100000 --tau 6 --N 166676666750001", 166676666750000),
])
def test_even_rule_whose_lobatto_coefficient_rounds_below_0_is_a_range_error(capsys, argv, d):
    # N = D(n, tau) + 1 or + 2, within 1.2e-14 relative of D, so s is not
    # resolved from the interval's end and b_k is not positive: -1 would get
    # weight 0 strictly inside the interval
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("range error: N = ")
    assert f"is within round-off of D(n, tau) = {d}" in err
    assert "the Lobatto coefficient b_k = " in err
    n, tau, N = (argv.split()[argv.split().index(f"--{k}") + 1] for k in ("n", "tau", "N"))
    code, out, _ = run(capsys, "sweep", "--n", n, "--tau", tau, "--N", N, "--potential", "log",
                       "--format", "json")
    assert code == 0
    (row,) = json.loads(out)
    assert f"is within round-off of D(n, tau) = {d}" in row["error"]


def test_sweep_tau_0_rows_get_one_message(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "3", "--tau", "0", "--potential", "log",
                       "--format", "json")
    assert code == 0
    assert [row["error"] for row in json.loads(out)] == ["need tau >= 1, got 0"] * 2


@pytest.mark.parametrize("argv, reason", [
    # no method at this strength, with or without --u
    ("--n 3 --N 18 --tau 6", "no upper-bound method exists for tau = 6"),
    ("--n 3 --N 18 --tau 6 --u 0.5", "no upper-bound method exists for tau = 6"),
    ("--n 3 --N 14 --tau 5", "no upper-bound method exists for tau = 5 without --u"),
    # the tried methods' own reasons
    ("--n 9 --N 54 --tau 4 --u -0.6", "upper_cubic: u = -0.6 must lie strictly between ell = "),
    ("--n 3 --N 7 --tau 3 --u 1", "upper_cubic: u = 1.0 must lie strictly between ell = -1.0"
                                  " and 1; strip_odd: u must be < 1"),
    ("--n 3 --N 7 --tau 3", "upper_cubic: tau = 3 requires a caller-supplied"),
    # below the rule's largest node no 35-point code exists
    ("--n 7 --N 35 --tau 4 --u -0.6", "upper_cubic: u = -0.6 must be at least the largest node"),
    ("--n 3 --N 7 --tau 3 --u 0", "upper_cubic: u = 0.0 must be at least the largest node"
                                  " 0.13807118745769834; strip_odd: u = 0.0 must be at least"
                                  " the largest node"),
])
def test_bound_upper_says_why_no_method_applies(capsys, argv, reason):
    code, out, err = run(capsys, "bound", *argv.split(), "--potential", "log", "--side", "upper")
    assert code == 2
    assert reason in err
    assert out == ""
    # --side strip prints an empty upper side, exits 0 and notes the reason
    code, out, note = run(capsys, "bound", *argv.split(), "--potential", "log", "--side", "strip")
    assert code == 0
    assert json.loads(out)["upper"] == {"best_method": None, "best_value": None, "methods": []}
    assert note == err.replace("range error: ", "designbounds: note: ")


@pytest.mark.parametrize(
    "n, N, tau, u",
    [
        (24, "20412047012175", 47, "0.8935446724486625"),
        (8, "490314", 33, "0.9389680149268138"),
    ],
)
def test_strip_without_admissible_node_exits_3(capsys, n, N, tau, u):
    # strip_odd rejects every released-node candidate: a convergence failure
    code, _, err = run(
        capsys, "bound", "--n", str(n), "--N", N, "--tau", str(tau),
        "--potential", "riesz:s=2", "--side", "upper", "--u", u,
    )
    assert code == 3
    assert "convergence failure" in err


def test_usage_error_exit_1(capsys):
    code, _, _ = run(capsys, "bound", "--n", "3")
    assert code == 1


def test_quadrature_output(capsys):
    code, out, _ = run(capsys, "quadrature", "--n", "3", "--tau", "2", "--N", "5")
    assert code == 0
    d = json.loads(out)
    assert d["nodes"][0] == -1.0
    assert d["nodes"][1] == pytest.approx(-1.0 / 9.0)
    assert d["weights"] == pytest.approx([0.125, 0.675])


def test_testfn_output(capsys):
    code, out, _ = run(capsys, "testfn", "--n", "3", "--tau", "1", "--N", "4", "--jmax", "3")
    assert code == 0
    d = json.loads(out)
    assert d["Q"]["2"] == pytest.approx(0.0, abs=1e-12)
    assert d["Q"]["3"] == pytest.approx(5.0 / 9.0)


def test_code_output(capsys):
    code, out, _ = run(
        capsys, "code", "--builder", "kerdock", "--l", "2", "--potential", "riesz:s=2"
    )
    assert code == 0
    d = json.loads(out)
    assert d["strength"] == 3
    assert d["N"] == 256


def test_sweep_csv(capsys):
    code, out, _ = run(
        capsys, "sweep", "--n", "3", "--tau", "2", "--N", "auto",
        "--potential", "riesz:s=2", "--verify",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,N,tau,s,")
    assert len(lines) == 4  # header + endpoints + midpoint


def test_sweep_json_deterministic(capsys):
    args = [
        "sweep", "--n", "3,4", "--tau", "2", "--N", "auto",
        "--potential", "riesz:s=2", "--format", "json", "--jobs", "3",
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "ns, taus, points, errors",
    [("3,4", "2,3,4,5", 24, 0), ("3", "61", 3, 3)],  # tau = 61 exceeds MAX_K
)
def test_sweep_rows_agree_with_bound_and_quadrature(capsys, ns, taus, points, errors):
    code, out, _ = run(
        capsys, "sweep", "--n", ns, "--tau", taus, "--N", "auto",
        "--potential", "riesz:s=2", "--u", "0.5", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == points
    assert sum("error" in row for row in rows) == errors
    for row in rows:
        spec = ["--n", str(row["n"]), "--N", str(row["N"]), "--tau", str(row["tau"])]
        code, out, err = run(
            capsys, "bound", *spec, "--potential", "riesz:s=2", "--side", "strip", "--u", "0.5"
        )
        if "error" in row:
            assert code == 2
            assert err == f"range error: {row['error']}\n"
            continue
        assert code == 0
        d = json.loads(out)
        for side in ("lower", "upper"):
            best = d[side]
            assert row.get(f"{side}_best") == best["best_value"]
            assert row.get(f"{side}_method") == best["best_method"]
            margins = [m["margins"]["sign_margin"] for m in best["methods"]
                       if m["accepted"] and m["method"] == best["best_method"]]
            assert row.get(f"{side}_margin") == (margins[0] if margins else None)
        code, out, _ = run(capsys, "quadrature", *spec)
        assert code == 0
        assert row["s"] == json.loads(out)["s"]


def test_sweep_keeps_rows_when_points_fail_internally(capsys):
    # 8 of these points give a ULB certificate that fails its own check
    code, out, err = run(
        capsys, "sweep", "--n", "60,200", "--tau", "2,3,13,17",
        "--potential", "gauss:c=1", "--format", "json",
    )
    assert code == 3
    assert "8 of 24" in err
    rows = json.loads(out)
    assert len(rows) == 24
    failed = [row for row in rows if "error" in row]
    assert len(failed) == 8
    for row in failed:
        code, _, err = run(
            capsys, "bound", "--n", str(row["n"]), "--N", str(row["N"]), "--tau", str(row["tau"]),
            "--potential", "gauss:c=1", "--side", "lower",
        )
        assert code == 3
        assert err == f"internal consistency failure: {row['error']}\n"


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs and the pids of the forks made; after the test, no
    child of this process is left, running or unreaped."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, code, says", [
    ("--n 3,4 --tau 2,3,4,5 --potential riesz:s=2 --u 0.5", 0, "strip_odd"),
    ("--n 3,4 --tau 5,61 --potential log", 0, "k = 31 exceeds cap 30"),
    ("--n 60,200 --tau 2,3,13,17 --potential gauss:c=1", 3, "8 of 24"),
])
def test_sweep_jobs_2_prints_the_bytes_of_jobs_1(capsys, forks, fmt, argv, code, says):
    # ordinary rows, range-error rows and internal-failure rows; the (n, tau)
    # groups alternate between this process and one child
    argv = ["sweep", *argv.split(), "--format", fmt]
    serial = run(capsys, *argv, "--jobs", "1")
    assert not forks
    forked = run(capsys, *argv, "--jobs", "2")
    assert len(forks) == 1
    assert forked == serial
    assert serial[0] == code
    assert says in serial[1] + serial[2]


@pytest.mark.parametrize("argv, count", [
    ("--n 3,4,5 --tau 2,3 --jobs 64", 1),  # capped by the 2 CPUs
    ("--n 3 --tau 2,3 --jobs 64", 1),
    ("--n 3 --tau 2 --jobs 64", 0),  # one (n, tau) group
])
def test_sweep_forks_at_most_one_process_per_cpu_and_group(capsys, forks, argv, count):
    assert run(capsys, "sweep", *argv.split(), "--potential", "log")[0] == 0
    assert len(forks) == count


def test_sweep_runs_serially_while_another_thread_runs(capsys, forks):
    # a child could inherit a lock that the other thread holds
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        forked = run(capsys, "sweep", "--n", "3,4", "--tau", "2,3", "--potential", "log",
                     "--jobs", "2")
    finally:
        release.set()
        other.join()
    assert not forks
    assert forked == run(capsys, "sweep", "--n", "3,4", "--tau", "2,3", "--potential", "log")


@pytest.mark.parametrize("planted, raised", [
    ((3,), 3),  # in the child's share
    ((2,), 2),  # in this process's share
    ((3, 4), 3),  # in both: the earliest point's, from the child
])
def test_sweep_exception_reaches_the_caller_as_serially(capsys, forks, monkeypatch,
                                                        planted, raised):
    # groups (3, 2) and (3, 4) run here, (3, 3) in the child
    lower = cli._lower_reports

    def planted_lower(n, N, tau, h, l_override=None):
        if tau in planted:
            raise ValueError(f"planted at tau {tau}")
        return lower(n, N, tau, h, l_override)

    monkeypatch.setattr(cli, "_lower_reports", planted_lower)
    for jobs in ("1", "2"):
        with pytest.raises(ValueError, match=f"^planted at tau {raised}$"):
            cli.main(["sweep", "--n", "3", "--tau", "2,3,4", "--potential", "log",
                      "--jobs", jobs])
    assert len(forks) == 1
    assert capsys.readouterr().out == ""


def test_sweep_interrupted_here_kills_and_reaps_the_child(capsys, forks, monkeypatch):
    # the child's share would take a minute; the interrupt does not wait for it
    lower = cli._lower_reports

    def interrupted(n, N, tau, h, l_override=None):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return lower(n, N, tau, h, l_override)

    parent = os.getpid()
    monkeypatch.setattr(cli, "_lower_reports", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli.main(["sweep", "--n", "3", "--tau", "2,3", "--potential", "log", "--jobs", "2"])
    assert time.monotonic() - start < 30
    assert len(forks) == 1


def test_sweep_child_that_dies_is_an_error_not_missing_rows(capsys, forks, monkeypatch):
    lower = cli._lower_reports

    def dying(n, N, tau, h, l_override=None):
        if tau == 3:
            os._exit(5)
        return lower(n, N, tau, h, l_override)

    monkeypatch.setattr(cli, "_lower_reports", dying)
    with pytest.raises(RuntimeError, match="ended without its rows"):
        cli.main(["sweep", "--n", "3", "--tau", "2,3", "--potential", "log", "--jobs", "2"])
    assert len(forks) == 1


def test_sweep_jobs_2_in_a_fresh_process_prints_the_bytes_of_jobs_1():
    # stdout, a pipe here, is written once, and neither run warns. OpenBLAS
    # runs no thread of its own here, as Python 3.12 warns when a process
    # with other threads forks
    argv = [sys.executable, "-m", "designbounds.cli", "sweep", "--n", "3,4", "--tau", "59,60",
            "--potential", "riesz:s=2"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    serial, forked = (subprocess.run([*argv, "--jobs", jobs], env=env, capture_output=True,
                                     timeout=120) for jobs in ("1", "2"))
    assert b"Warning" not in serial.stderr + forked.stderr
    assert serial.stdout.count(b"\n") == 13
    assert (forked.returncode, forked.stdout, forked.stderr) == (
        serial.returncode, serial.stdout, serial.stderr)


def test_high_degree_commands_emit_no_warning(capsys, forks):
    # degrees 31..60 are as accurate as the lower ones, so nothing warns;
    # the memos are cleared so that each command builds what it reads
    quadrature_rule.cache_clear()
    levenshtein.interval.cache_clear()
    mid = lambda n, tau: (dgs_bound(n, tau) + dgs_bound(n, tau + 1)) // 2
    s = solve_cardinality(3, 59, mid(3, 59))
    commands = [
        (["quadrature", "--n", "5", "--tau", "59", "--N", str(mid(5, 59))], 0),
        ("testfn --n 12 --tau 59 --N 4841218797 --jmax 60".split(), 0),
        (["bound", "--n", "3", "--N", str(mid(3, 31)), "--tau", "31", "--potential",
          "riesz:s=2", "--side", "lower"], 3),
        (["bound", "--n", "3", "--N", str(mid(3, 59)), "--tau", "59", "--potential", "log",
          "--side", "upper", "--u", repr(s)], 3),
        ("sweep --n 3,4 --tau 59,60 --potential riesz:s=2 --jobs 2".split(), 3),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv, code in commands:
            assert run(capsys, *argv)[0] == code, argv
        assert gegenbauer_table(3, 45, 0.3).shape == (46,)
    assert len(forks) == 1


@pytest.mark.parametrize(
    "k, potential", enumerate(["riesz:s=2", "log", "gauss:c=1", "poly:1,0,2"])
)
@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_printed_reports_reverify_from_their_json(capsys, n, k, potential):
    # acceptance is the check: every accepted report that bound prints
    # re-verifies from its JSON text, and --verify changes no byte. One N of
    # lo, mid, hi per (n, tau, potential); the potentials cover all three.
    accepted = 0
    for tau in range(1, 9):
        lo, hi = dgs_bound(n, tau), dgs_bound(n, tau + 1)
        N = (lo, (lo + hi) // 2, hi)[(n + tau + k) % 3]
        argv = ["bound", "--n", str(n), "--N", str(N), "--tau", str(tau),
                "--potential", potential, "--side", "strip"]
        if tau % 2:
            argv += ["--u", repr((solve_cardinality(n, tau, N) + 1) / 2)]
        code, out, _ = run(capsys, *argv)
        assert run(capsys, *argv, "--verify")[:2] == (code, out)
        if code != 0:
            continue
        for side in json.loads(out).values():
            for d in side["methods"]:
                if d["accepted"]:
                    assert BoundReport.from_json(d).verify(), (argv, d["method"])
                    accepted += 1
    assert accepted > 0


def test_bound_json_deterministic(capsys):
    args = [
        "bound", "--n", "4", "--N", "10", "--tau", "3",
        "--potential", "riesz:s=3", "--u", "0.4", "--side", "strip",
    ]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_jsonio_float_format():
    assert jsonio.dumps(0.1) == "0.10000000000000001"
    assert jsonio.dumps(2.0) == "2.0"
    assert jsonio.dumps({"b": 1, "a": [True, None]}) == '{\n  "a": [\n    true,\n    null\n  ],\n  "b": 1\n}'
    assert jsonio.dumps(float("nan")) == '"nan"'


def _load_acceptance_grid():
    path = Path(__file__).resolve().parents[1] / "tools" / "acceptance_grid.py"
    spec = importlib.util.spec_from_file_location("acceptance_grid", path)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    return grid


def test_acceptance_grid_runs_every_command():
    # a command that no set runs keeps no answer a change must reproduce
    (sub,) = (a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    grid = _load_acceptance_grid()
    run_first = {case[0] for cases in grid.SETS.values() for case in cases()}
    assert run_first >= set(sub.choices), sorted(set(sub.choices) - run_first)


def test_acceptance_grid_reports_what_differs():
    grid = _load_acceptance_grid()
    old = {"lower": {"best_method": "ulb", "best_value": 2.0, "margin": 0.0, "n": 3}}
    new = {"lower": {"best_method": "improved_even", "best_value": 2.0000000000000004,
                     "margin": -0.0, "n": 3}}
    assert grid.stdout_differences(json.dumps(old), json.dumps(new)) == [
        "  largest relative difference 2.22e-16 at lower.best_value (2.0 -> 2.0000000000000004)",
        "  lower.best_method: 'ulb' -> 'improved_even'",
        "  lower.margin: 0.0 -> -0.0",
    ]
    # csv, paired by row and column; a row one side lacks is a non-numeric difference
    assert grid.stdout_differences("n,v\n3,1.5\n", "n,v\n3,1.25\n4,nan\n") == [
        "  largest relative difference 0.167 at [1][1] ('1.5' -> '1.25')",
        "  [2]: None -> ['4', 'nan']",
    ]
    outputs = [("0", json.dumps(old), "", ""), ("3", json.dumps(new), "", "")]
    records = [[grid.case_line(["bound"], o), o[1]] for o in outputs]
    report = grid.case_report(*records)
    assert report[:3] == [f"- {records[0][0]}", f"+ {records[1][0]}", "  differ: exit, stdout"]
    assert report[3].startswith("  largest relative difference 2.22e-16")
    assert grid.case_report(records[0], None)[1] == "+ (no case)"
