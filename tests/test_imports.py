"""The runtime needs numpy only: no command imports scipy. No module reads
the environment. Every name the benchmark tracer wraps exists in the
package."""

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
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
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
