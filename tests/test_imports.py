"""The runtime needs numpy only: no command imports scipy. No module reads
the environment. Every name the benchmark tracer wraps exists in the
package, and every public name of the package is reached from outside the
tests or is library API on a list."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from designbounds import cli

SRC = str(Path(cli.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]

COMMANDS = {
    "bound": ["bound", "--n", "3", "--N", "6", "--tau", "3", "--potential", "riesz:s=2",
              "--u", "0"],
    "sweep": ["sweep", "--n", "3,4", "--tau", "2,3,4", "--potential", "log"],
    "quadrature": ["quadrature", "--n", "4", "--tau", "5", "--N", "24"],
    "testfn": ["testfn", "--n", "4", "--tau", "5", "--N", "24", "--jmax", "8"],
    "code": ["code", "--builder", "simplex", "--n", "3", "--potential", "gauss:c=1"],
}

_SCRIPT = """\
import contextlib, io, sys
from designbounds import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(code, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_runs_without_scipy(command):
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(argv=COMMANDS[command])],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "[]"]


def test_no_module_reads_the_environment():
    # settings such as the verification tolerance are constants of the
    # package, so no environment variable can change what a command accepts
    for path in sorted(Path(SRC, "designbounds").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names} if node.module == "os" else set()
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            assert not names & {"environ", "environb", "getenv", "getenvb"}, (
                f"{path.name}:{node.lineno}")


def _load_tracer():
    path = ROOT / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_names_resolve():
    # bench/run.py --trace 1 wraps each module.name and module.Class.method
    # by name, and the sweep point task in cli; a rename or deletion in the
    # package would only show when the benchmark runs traced
    tracer = _load_tracer()
    traced = {module: list(names) for module, names in tracer.TRACED.items()}
    traced.setdefault("cli", []).append(tracer.POOL_TASK)
    for module, names in traced.items():
        mod = importlib.import_module(f"designbounds.{module}")
        for name in names:
            obj = mod
            for part in name.split("."):
                assert hasattr(obj, part), f"designbounds.{module}.{name}"
                obj = getattr(obj, part)
            assert callable(obj), f"designbounds.{module}.{name}"


# public names that nothing in src, bench or tools calls, kept as library API
LIBRARY_API = {
    "bounds.lp_certify_lower": "the paper's LP criterion for a polynomial the caller brings",
    "bounds.lp_certify_upper": "the same criterion for upper bounds",
    "bounds.k0_threshold": "the paper's dimension threshold k0 below which Q_{2k+3} < 0",
    "bounds.strip2_asym": "the paper's asymptotic 2-design strip; test_acceptance checks it",
    "bounds.upper4_asym": "the paper's asymptotic 4-design upper bound; test_acceptance checks it",
    "bounds.ulb_asym_main": "the paper's main term of the fixed-strength lower bound",
    "bounds.BoundReport.from_json": "the read path that rebuilds a stored report to verify it",
}


def _public_definitions():
    """(module.name, name, qualified name, path, first line, last line) of
    each public top-level function and class of the package, and of each
    public method of those classes."""
    for path in sorted(Path(SRC, "designbounds").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef)]
            for qual, d in members:
                name = qual.rpartition(".")[2]
                if not name.startswith("_"):
                    yield f"{path.stem}.{qual}", name, qual, path, d.lineno, d.end_lineno


def _references():
    """(path, line, text) of every ast.Name, ast.Attribute and string
    constant in src, bench and tools."""
    paths = [*Path(SRC, "designbounds").glob("*.py"), *(ROOT / "bench").glob("*.py"),
             *(ROOT / "tools").glob("*.py")]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                yield path, node.lineno, node.id
            elif isinstance(node, ast.Attribute):
                yield path, node.lineno, node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield path, node.lineno, node.value


def test_every_public_name_is_reached_or_library_api():
    # a name that only tests call is a second way to compute something the
    # program computes another way; it is reached from a command, bench or
    # tool, listed as library API with its reason, or deleted
    refs = list(_references())
    unreached = set()
    for key, name, qual, path, first, last in _public_definitions():
        if not any(text in (name, qual) and not (where == path and first <= line <= last)
                   for where, line, text in refs):
            unreached.add(key)
    assert sorted(unreached - set(LIBRARY_API)) == [], "reached by tests only"
    assert sorted(set(LIBRARY_API) - unreached) == [], "listed, but reached or not defined"
