"""The runtime needs numpy only: no command imports scipy. No module reads
the environment. Every name the benchmark tracer wraps exists in the
package, and every public name of the package is reached from outside the
tests or is library API on a list. No parameter of a public function takes
one constant in every call, unless a list gives its reason."""

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


def _program_files():
    """The modules of src, bench and tools."""
    return [*Path(SRC, "designbounds").glob("*.py"), *(ROOT / "bench").glob("*.py"),
            *(ROOT / "tools").glob("*.py")]


def _references():
    """(path, line, text) of every ast.Name, ast.Attribute and string
    constant in src, bench and tools."""
    for path in _program_files():
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


# parameters that every call in src, bench and tools binds to one constant,
# kept with the reason; any other such parameter is a constant of its module
ONE_VALUE_PARAMETERS = {
    "hermite.remainder_bound.tol": "tests read the whole proved bound at tol = inf",
}


def _assigned(node):
    """The names a module-level statement assigns."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _package_scope(tree, module):
    """What each top-level name of a file is in the package: ("module", m)
    for the package module m, ("name", m, x) for the name x of module m.
    Module is the file's own package module, or None outside the package.
    A name imported from elsewhere is not the package's, so json.dumps is
    not jsonio.dumps."""
    scope = {}
    for node in tree.body:
        if module is not None:
            own = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            scope.update((x, ("name", module, x)) for x in own + _assigned(node))
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 or node.module.partition(".")[0] == "designbounds":
            inner = node.module if node.level else node.module.partition(".")[2]
            for a in node.names:
                scope[a.asname or a.name] = ("name", inner, a.name) if inner else ("module", a.name)
    return scope


def _resolve(node, scope):
    """The package's (module, name) that node, a name or an attribute of a
    package module, refers to; None for anything else."""
    if isinstance(node, ast.Name):
        target = scope.get(node.id)
        return target[1:] if target and target[0] == "name" else None
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        target = scope.get(node.value.id)
        return (target[1], node.attr) if target and target[0] == "module" else None
    return None


def _constant(node, scope, local, assigned):
    """A literal's type and value, or the package's (module, name) of a
    name assigned at module level; None for anything else, a local
    variable such as N among them."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        pass
    else:
        return "literal", type(value).__name__, repr(value)
    if isinstance(node, ast.Name) and node.id in local:
        return None
    key = _resolve(node, scope)
    return ("name", *key) if key in assigned else None


def _bound_values(fn, fn_scope, call, scope, local, assigned):
    """(parameter, _constant of what call binds it to) for each parameter
    of fn; one that call leaves out takes its default, read in fn_scope,
    and one that a *args or **kwargs may bind is None."""
    a = fn.args
    positional = [*a.posonlyargs, *a.args]
    defaults = dict(zip([p.arg for p in positional[len(positional) - len(a.defaults):]],
                        a.defaults))
    defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d)
    given = {}
    for p, arg in zip(positional, call.args):
        if isinstance(arg, ast.Starred):
            break
        given[p.arg] = arg
    given.update((k.arg, k.value) for k in call.keywords if k.arg)
    spread = any(isinstance(x, ast.Starred) for x in call.args) or any(
        k.arg is None for k in call.keywords)
    for p in [*positional, *a.kwonlyargs]:
        if p.arg in given:
            yield p.arg, _constant(given[p.arg], scope, local, assigned)
        elif p.arg in defaults and not spread:
            yield p.arg, _constant(defaults[p.arg], fn_scope, set(), assigned)
        else:
            yield p.arg, None


def _call_bindings():
    """{"module.function.parameter": [what each call binds it to]} over
    every call, in src, bench and tools, of a public top-level function of
    the package, each call resolved through the file's imports."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _program_files()}
    modules = {path: path.stem if path.parent.name == "designbounds" else None
               for path in trees}
    scopes = {path: _package_scope(tree, modules[path]) for path, tree in trees.items()}
    functions, assigned = {}, set()
    for path, tree in trees.items():
        for node in tree.body if modules[path] else []:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                functions[modules[path], node.name] = (node, scopes[path])
            assigned.update((modules[path], x) for x in _assigned(node))
    bindings = {}

    def visit(node, scope, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            local = local | {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                              a.vararg, a.kwarg] if p}
            local |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        key = _resolve(node.func, scope) if isinstance(node, ast.Call) else None
        if key in functions:
            fn, fn_scope = functions[key]
            for name, value in _bound_values(fn, fn_scope, node, scope, local, assigned):
                bindings.setdefault(".".join([*key, name]), []).append(value)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, local)

    for path, tree in trees.items():
        visit(tree, scopes[path], frozenset())
    return bindings


def test_no_parameter_has_one_value_in_use():
    # a parameter that every call binds to the same literal or package
    # constant is a constant of its module, not a setting; it stays only
    # with a reason on the list
    one_value = {name for name, values in _call_bindings().items()
                 if None not in values and len(set(values)) == 1}
    assert sorted(one_value - set(ONE_VALUE_PARAMETERS)) == [], "one value in every call"
    assert sorted(set(ONE_VALUE_PARAMETERS) - one_value) == [], "listed, but not one-valued"
