"""Source hygiene: every module compiles with warnings raised as errors,
no module imports a name it never uses, every parameter of the public
API is read by its function, every defaulted parameter and dataclass
field of the public API is set by some caller, every dataclass field
and property of a public class is read somewhere, the command line
starts without importing scipy, numpy.ma or multiprocessing, and the
Euler and pricing modules read no clock."""

import ast
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import base_config

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "levyreduce").glob("*.py"))
CALLER_DIRS = ("src", "tests", "demos", "perfbench")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


# the package root imports names only to re-export them
@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_detected():
    source = "import numpy as np\nfrom .laplace import laplace_radial, compensated_exp\n"
    source += "def f(b):\n    return np.sum(laplace_radial(None, b))\n"
    assert _unused_imports(source) == ["compensated_exp (line 2)"]


def _functions(tree):
    """(qualified name, short name, node, leading bound arguments) of each
    top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                    yield f"{node.name}.{fn.name}", fn.name, fn, 0 if static else 1


# parameters kept for callers although the function ignores them
IGNORED_PARAMETERS = {
    # perfbench/child.py passes tail orders that the quadrature
    # measures itself; the keyword goes once that call drops it
    "measures.py: density_spec(hints)",
}


def _unread_parameters(label, source) -> list[str]:
    """Parameters of the public functions and methods (bar self and cls)
    that their body never reads."""
    out = []
    for qualname, _, fn, bound in _functions(ast.parse(source)):
        if any(part.startswith("_") for part in qualname.split(".")):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params = params[bound:] + [a for a in (args.vararg, args.kwarg) if a]
        read = {
            node.id
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        out += [f"{label}: {qualname}({a.arg})" for a in params if a.arg not in read]
    return sorted(out)


def test_every_parameter_is_read():
    unread = [u for p in SOURCES for u in _unread_parameters(p.name, p.read_text())]
    assert sorted(set(unread) ^ IGNORED_PARAMETERS) == []


def test_unread_parameter_is_detected():
    source = (
        "def f(x, grid, *args, n=2, **kw):\n    return [lambda: x + n for _ in args]\n"
        "def _g(x, unused):\n    return x\n"
        "class C:\n    def m(self, rel, tol=1.0):\n        return tol\n"
        "    @staticmethod\n    def s(y):\n        return 0\n"
    )
    assert _unread_parameters("mod.py", source) == [
        "mod.py: C.m(rel)", "mod.py: C.s(y)", "mod.py: f(grid)", "mod.py: f(kw)",
    ]


def _defaulted_parameters(tree):
    """(qualified name, short name, parameter, positional index or None)
    for each defaulted parameter of the public functions and methods."""
    for qualname, name, fn, bound in _functions(tree):
        if any(part.startswith("_") for part in qualname.split(".")):
            continue
        pos = fn.args.posonlyargs + fn.args.args
        for k in range(len(pos) - len(fn.args.defaults), len(pos)):
            yield qualname, name, pos[k].arg, k - bound
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield qualname, name, arg.arg, None


def _call_arguments(tree):
    """(called name, position or keyword, forwarded parameter) of every
    call argument; an argument that is a bare name inside a function may
    forward that function's parameter of the same name."""
    seen = set()
    scopes = [(name, fn) for _, name, fn, _ in _functions(tree)] + [(None, tree)]
    for owner, scope in scopes:
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call) or id(node) in seen:
                continue
            seen.add(id(node))
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for slot, value in [*enumerate(node.args), *((k.arg, k.value) for k in node.keywords)]:
                forwarded = (owner, value.id) if owner and isinstance(value, ast.Name) else None
                yield called, slot, forwarded


def _unset_parameters(sources, callers) -> list[str]:
    """Defaulted parameters that no call sets, by position or keyword.
    Calls match definitions by name; forwarding a parameter sets the
    callee's only when the forwarded parameter is itself set."""
    params = {
        (name, param): (f"{label}: {qualname}({param})", index)
        for label, text in sources
        for qualname, name, param, index in _defaulted_parameters(ast.parse(text))
    }
    arguments = [arg for text in callers for arg in _call_arguments(ast.parse(text))]
    is_set, grew = set(), True
    while grew:
        grew = False
        for (name, param), (_, index) in params.items():
            if (name, param) in is_set:
                continue
            if any(
                called == name
                and slot in (param, index)
                and (forwarded not in params or forwarded in is_set)
                for called, slot, forwarded in arguments
            ):
                is_set.add((name, param))
                grew = True
    return sorted(label for key, (label, _) in params.items() if key not in is_set)


def _callers():
    return [p.read_text() for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))]


def test_every_default_is_set_by_some_caller():
    assert _unset_parameters([(p.name, p.read_text()) for p in SOURCES], _callers()) == []


def test_unset_default_is_detected():
    source = (
        "def f(x, grid=None, cfg=None, *, n=2):\n    return g(x, grid)\n"
        "def g(x, grid=None):\n    return x\n"
        "class C:\n    def m(self, n_max=16, rel=1.0):\n        return n_max\n"
    )
    callers = [source, "f(1, [1.0], n=3)\nC().m(4)\n"]
    assert _unset_parameters([("mod.py", source)], callers) == ["mod.py: C.m(rel)", "mod.py: f(cfg)"]
    # grid reaches g only by forwarding f's grid, which no call sets
    callers = [source, "f(1)\n"]
    assert _unset_parameters([("mod.py", source)], callers) == [
        "mod.py: C.m(n_max)", "mod.py: C.m(rel)", "mod.py: f(cfg)", "mod.py: f(grid)",
        "mod.py: f(n)", "mod.py: g(grid)",
    ]


def _defaulted_fields(tree):
    """(class name, field, position) of each defaulted field of the
    public dataclasses."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if not any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            continue
        fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
        for k, f in enumerate(fields):
            if f.value is not None:
                yield node.name, f.target.id, k


def _field_arguments(tree):
    """(called name, position or keyword) of every call argument; cls()
    inside a class calls that class, and replace() keywords may set a
    field of any dataclass."""
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            owner.update((id(sub), node.name) for sub in ast.walk(node))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if called == "cls":
                called = owner.get(id(node))
            yield from ((called, k) for k in range(len(node.args)))
            yield from ((called, k.arg) for k in node.keywords)


def _unset_fields(sources, callers) -> list[str]:
    """Defaulted dataclass fields that no construction or replace() sets."""
    arguments = {arg for text in callers for arg in _field_arguments(ast.parse(text))}
    return sorted(
        f"{label}: {cls}.{name}"
        for label, text in sources
        for cls, name, k in _defaulted_fields(ast.parse(text))
        if not arguments & {(cls, name), (cls, k), ("replace", name)}
    )


def test_every_dataclass_default_is_set_by_some_caller():
    assert _unset_fields([(p.name, p.read_text()) for p in SOURCES], _callers()) == []


def test_unset_field_is_detected():
    source = (
        "from dataclasses import dataclass, replace\n"
        "@dataclass(frozen=True)\n"
        "class Cfg:\n"
        "    n: int\n    tol: float = 1e-9\n    cap: int = 8\n    low: float = 0.0\n"
        "    high: float = 1.0\n"
        "    @classmethod\n"
        "    def make(cls):\n        return cls(1, 1e-6)\n"
        "@dataclass\n"
        "class _Private:\n    x: int = 0\n"
        "class Plain:\n    y: int = 0\n"
    )
    assert _unset_fields([("mod.py", source)], [source]) == [
        "mod.py: Cfg.cap", "mod.py: Cfg.high", "mod.py: Cfg.low",
    ]
    callers = [source, "Cfg(2, cap=3)\nreplace(Cfg(1), low=2.0)\n"]
    assert _unset_fields([("mod.py", source)], callers) == ["mod.py: Cfg.high"]


def _public_attributes(tree):
    """(class name, attribute) of each dataclass field and property of
    the public classes."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for item in node.body:
            if dataclass and isinstance(item, ast.AnnAssign):
                yield node.name, item.target.id
            elif isinstance(item, ast.FunctionDef) and any(
                ast.unparse(d) == "property" for d in item.decorator_list
            ):
                yield node.name, item.name


def _attribute_reads(tree):
    """Names read as attributes: attribute loads and getattr() calls
    with a constant name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value


def _unread_attributes(sources, callers) -> list[str]:
    """Dataclass fields and properties of public classes that no caller
    reads; a read of the name on any object counts."""
    reads = {name for text in callers for name in _attribute_reads(ast.parse(text))}
    return sorted(
        f"{label}: {cls}.{name}"
        for label, text in sources
        for cls, name in _public_attributes(ast.parse(text))
        if name not in reads
    )


def test_every_public_attribute_is_read():
    assert _unread_attributes([(p.name, p.read_text()) for p in SOURCES], _callers()) == []


def test_unread_attribute_is_detected():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Result:\n"
        "    value: float\n    edge: float\n    n_eval: int = 0\n"
        "    @property\n    def ok(self):\n        return self.value > 0\n"
        "    @property\n    def spare(self):\n        return 0\n"
        "@dataclass\n"
        "class _Private:\n    x: int = 0\n"
        "class Plain:\n    y: int = 0\n"
    )
    callers = [source, "r = Result(1.0, 2.0)\nr.edge = 3.0\nprint(r.ok, getattr(r, 'n_eval'))\n"]
    assert _unread_attributes([("mod.py", source)], callers) == [
        "mod.py: Result.edge", "mod.py: Result.spare",
    ]


def _loaded_by_cli_import(modules, argv=None) -> str:
    """Which of modules importing levyreduce.cli loads, in a fresh
    interpreter, and then running it on argv when given."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, levyreduce.cli; "
    if argv is not None:
        probe += f"assert levyreduce.cli.run({argv!r}) == 0; "
    probe += f"print([m for m in {modules!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_leaves_out_scipy(tmp_path):
    # scipy is a test dependency only; importing it would add about
    # 0.2 s to the start of every pipeline
    assert _loaded_by_cli_import(["scipy"]) == "[]"
    # nor does a whole compare of exact atoms load it, with its lattice
    # level and the t factor of its band: 40k paths of 10 steps hold the
    # coarsest level's 16 shifts of 4096 paths
    doc = base_config(
        simulation={"x0": 1.0, "horizon": 0.1, "dt": 0.01, "n_paths": 40_000, "eps": 0.005,
                    "seed": 8},
        pricing={"tau_grid": [0.05, 0.1]},
    )
    (tmp_path / "compare.json").write_text(json.dumps(doc))
    argv = ["compare", str(tmp_path / "compare.json"), str(tmp_path / "out"), "--quiet"]
    assert _loaded_by_cli_import(["scipy"], argv) == "[]"
    summary = json.loads((tmp_path / "out" / "report.json").read_text())["summary"]
    assert summary["levels"][0]["sampling"] == "lattice"
    # nor does one of compound-Poisson jumps, whose lattice level maps
    # its normals through the package's own quantile: 8000 paths of 16
    # steps hold 64 shifts of 257 paths
    doc["simulation"].update(horizon=0.16, n_paths=8000, eps=0.05, seed=3)
    doc["pricing"]["tau_grid"] = [0.08, 0.16]
    (tmp_path / "poisson.json").write_text(json.dumps(doc))
    argv = ["compare", str(tmp_path / "poisson.json"), str(tmp_path / "poisson"), "--quiet"]
    assert _loaded_by_cli_import(["scipy"], argv) == "[]"
    summary = json.loads((tmp_path / "poisson" / "report.json").read_text())["summary"]
    assert (summary["scheme"], summary["levels"][0]["sampling"]) == ("compound_poisson", "lattice")


def test_cli_import_leaves_out_numpy_ma():
    # the plain np.unique imports numpy.ma, about 14 ms of start-up;
    # the package takes sorted distinct values with quadrature._distinct
    assert _loaded_by_cli_import(["numpy.ma"]) == "[]"


def test_cli_import_leaves_out_process_pools():
    # only a Monte Carlo leg that forks imports multiprocessing, so the
    # pipelines that never fork do not pay for it
    assert _loaded_by_cli_import(["multiprocessing", "concurrent.futures"]) == "[]"


CLOCKS = {"time", "timeit"}


def _clock_imports(source: str) -> list[str]:
    """The clock modules source imports, with their lines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if name.split(".")[0] in CLOCKS]
    return found


# the step-cost model of the Monte Carlo leg is a table timed once; a
# clock read at run time would make the path allocation, and so
# report.json, differ from run to run
@pytest.mark.parametrize("name", ["simulate.py", "pricing.py"])
def test_euler_and_pricing_modules_read_no_clock(name):
    assert _clock_imports((ROOT / "src" / "levyreduce" / name).read_text()) == []


def test_clock_import_is_detected():
    source = "import os, time\nfrom timeit import default_timer\nfrom .time import x\n"
    assert _clock_imports(source) == ["time (line 1)", "timeit (line 2)"]
