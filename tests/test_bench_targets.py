"""The benchmark calls cubegreen by name.

`perfbench/spans.py` lists the functions its traced run wraps in TARGETS
as (module, attribute, ...), and `perfbench/worker.py`, `deps.py` and
`oracle.py` call cubegreen directly.  A rename or deletion there would
only fail the benchmark run, so this test resolves every target and
every use here, and checks that each keyword the benchmark passes is a
parameter (or a dataclass field) of its callee.  The tracer looks each
target's module up in sys.modules and imports none, so the modules that
`worker.py` imports must load every one of them.  The files are read,
not imported, so nothing is written next to them.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = BENCH / "spans.py"
CALLERS = ("worker.py", "deps.py", "oracle.py")


def _targets():
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return [(mod, attr) for mod, attr, _layer, _info in namespace["TARGETS"]]


@pytest.mark.parametrize("module, attr", _targets())
def test_span_target_resolves(module, attr):
    mod = importlib.import_module("cubegreen." + module)
    if "." in attr:
        # methods are wrapped on the class itself, so they must be defined there
        cls_name, meth = attr.split(".")
        assert callable(getattr(mod, cls_name).__dict__.get(meth))
    else:
        assert callable(getattr(mod, attr, None))


def _uses(name: str) -> list[tuple[str, str, tuple[str, ...]]]:
    """(file:line, dotted cubegreen path, keywords passed) for every name a
    caller imports from cubegreen, every attribute it reads of such a name,
    and every call of either, which also gives the keywords."""
    tree = ast.parse((BENCH / name).read_text())
    bound, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cubegreen":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                uses.append((f"{name}:{node.lineno}", bound[alias.asname or alias.name], ()))
    calls = {id(c.func): c for c in ast.walk(tree) if isinstance(c, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in bound:
            path = f"{bound[node.value.id]}.{node.attr}"
        elif isinstance(node, ast.Name) and node.id in bound and id(node) in calls:
            path = bound[node.id]
        else:
            continue
        call = calls.get(id(node))
        keywords = tuple(k.arg for k in call.keywords if k.arg) if call else ()
        uses.append((f"{name}:{node.lineno}", path, keywords))
    return uses


def _resolve(path: str):
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        obj = getattr(obj, part, None) or importlib.import_module(".".join(parts[:i]))
    return obj


@pytest.mark.parametrize("caller", CALLERS)
def test_caller_uses_cubegreen(caller):
    assert _uses(caller), f"{caller} no longer uses cubegreen; update CALLERS"


@pytest.mark.parametrize("where, path, keywords", [
    pytest.param(*use, id=f"{use[0]} {use[1]}" + (f"({', '.join(use[2])})" if use[2] else ""))
    for use in sorted({use for caller in CALLERS for use in _uses(caller)})])
def test_benchmark_use_resolves(where, path, keywords):
    obj = _resolve(path)
    if keywords:
        params = inspect.signature(obj).parameters
        if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
            assert set(keywords) <= set(params), \
                f"{where}: {path} takes no {sorted(set(keywords) - set(params))}"


def _worker_modules() -> list[str]:
    """The cubegreen modules `perfbench/worker.py` imports, read with ast."""
    mods = []
    for node in ast.walk(ast.parse((BENCH / "worker.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "cubegreen":
            mods += [f"cubegreen.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cubegreen."):
            mods.append(node.module)
        elif isinstance(node, ast.Import):
            mods += [alias.name for alias in node.names if alias.name.startswith("cubegreen")]
    return mods


def test_worker_imports_load_every_traced_module():
    mods = _worker_modules()
    assert mods, "worker.py no longer imports cubegreen"
    code = (f"import importlib, sys\nfor m in {mods!r}: importlib.import_module(m)\n"
            "sys.stdout.write(' '.join(sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(BENCH.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    loaded = subprocess.run([sys.executable, "-B", "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    targets = {"cubegreen." + mod for mod, _attr in _targets()}
    assert targets - set(loaded) == set()
