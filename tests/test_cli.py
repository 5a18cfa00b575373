import json

import pytest

from designbounds import cli, jsonio
from designbounds.bounds import BoundReport, Certificate
from designbounds.levenshtein import DesignSpec, dgs_bound, solve_cardinality
from designbounds.orthopoly import GegExpansion, Poly
from designbounds.potentials import parse_potential


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
    # round-off leaves the xi bracket of innerprod.even_range without a sign
    # change; that side bounds nothing, so ell stays -1 and ulb stands alone
    code, out, err = run(
        capsys, "bound", "--n", "60", "--N", "1.3737076437464382e+16", "--tau", "32",
        "--potential", "riesz:s=2", "--side", "lower", "--verify",
    )
    assert code == 0, err
    assert json.loads(out)["lower"]["best_method"] == "ulb"


def test_even_range_in_unstable_zone_exits_3_not_traceback(capsys):
    # the eta bracket has no sign change; the certificate itself is in the
    # zone where ulb cannot be verified yet, and says so
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
@pytest.mark.parametrize("tol, expected", [(None, 3), ("1e-8", 0)])
def test_ulb_value_check_uses_verify_tolerance(
    capsys, monkeypatch, n, N, tau, potential, tol, expected
):
    # the ulb certificate and quadrature values differ by 1e-9..1e-8
    # relative: the value check at creation uses DEB_TOL and --verify adds
    # no check, so the exit code does not depend on --verify
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


def test_bad_tolerance_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("DEB_TOL", "abc")
    code, _, err = run(
        capsys, "bound", "--n", "3", "--N", "5", "--tau", "2", "--potential", "riesz:s=2",
    )
    assert code == 1
    assert "DEB_TOL" in err


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


def _report_from_json(d) -> BoundReport:
    """A method report rebuilt from its printed JSON alone."""
    spec = DesignSpec(**d["spec"])
    c = d["certificate"]
    return BoundReport(
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
        ),
        h=parse_potential(d["potential"]),
        accepted=d["accepted"],
    )


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
                    assert _report_from_json(d).verify(), (argv, d["method"])
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
