import importlib
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# the cases of contract_scan.cases(4, 50) that exit 3 on this tree: A1
# rejections of the ULB certificate from the double Newton table, in the
# zone of high tau at small n and at large n (ROADMAP item 3). A polynomial
# potential of degree below the scheme's conditions is its own interpolant,
# so the two poly sweeps that exited 3 here no longer do. A change may mend
# these cases; it may not add to them. No case may emit a Python warning.
KNOWN_EXIT_3 = {
    "sweep --n 9431417410 --tau 17 --potential gauss:c=5.769 --u 0.6058518837198799",
    "sweep --n 1660229 --tau 12 --potential log --u -0.18931870511018967",
    "sweep --n 188 --tau 44 --potential log --u -0.048923681349307246",
    "sweep --n 40890650638 --tau 13 --potential riesz:s=1.095 --u 0.486506691472383",
    "sweep --n 1552 --tau 41 --potential log --u 0.9620518696455346",
    "bound --n 19199287 --N 36796903066103891226373146973238952294277049629704167851929628334159"
    "472408922482115877379467275574138726792520 --tau 35 --potential riesz:s=4.296 --side strip",
}


@pytest.fixture
def scan(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("contract_scan")


def test_contract_scan_sample_raises_nothing_and_adds_no_exit_3(scan):
    codes, broken, warned = scan.scan(scan.cases(4, 50))
    assert sum(codes.values()) == 50
    assert not [code for code in codes if code.startswith("TB:")], codes
    assert not warned, {message: len(argvs) for message, argvs in warned.items()}
    exit_3 = {" ".join(argv) for argvs in broken.values() for argv in argvs}
    assert exit_3 <= KNOWN_EXIT_3, sorted(exit_3 - KNOWN_EXIT_3)


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_sweep_that_exits_3_is_grouped_by_its_row_errors(scan, fmt):
    # 9 of its 24 points fail with a ULB rejection, each with its own margin
    argv = ["sweep", "--n", "60,200", "--tau", "2,3,13,17", "--potential", "gauss:c=1", *fmt]
    codes, broken, warned = scan.scan([argv])
    assert codes == {"3": 1}
    assert broken == {"ULB certificate rejected: ['A# violated: margin # at t = #']": [argv]}
    assert not warned


def test_range_error_rows_of_a_sweep_that_exits_3_are_left_out(scan):
    # its lowest point fails with a ULB rejection; N^2 is past the largest
    # double at the other two, where bound exits 2 with a range error
    argv = ["sweep", "--n", "5847858", "--tau", "53", "--potential", "log"]
    codes, broken, warned = scan.scan([argv])
    assert codes == {"3": 1}
    assert broken == {"ULB certificate rejected: ['A# violated: margin # at t = #']": [argv]}
    assert not warned


def test_contract_scan_sample_exits_0(scan, capsys):
    assert scan.main(["--seed", "4", "--count", "50"]) == 0
    assert "warned: 0" in capsys.readouterr().out


@pytest.mark.parametrize("code, emitted", [
    ("0", "RuntimeWarning: invalid value encountered in scalar multiply\n"),
    ("TB:ValueError", ""),
])
def test_contract_scan_exits_1_on_a_warning_or_a_traceback(scan, monkeypatch, capsys, code,
                                                           emitted):
    monkeypatch.setattr(scan, "run_case", lambda argv: (code, "", "", emitted))
    assert scan.main(["--seed", "4", "--count", "5"]) == 1
    assert capsys.readouterr().out.startswith(f"exit {code}: 5 warned: {5 if emitted else 0}")
