"""Import structure of the package: every import at module top, no cycles;
and the entry points that the benchmark's traced pass wraps still exist."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import hnlab

_PACKAGE = Path(hnlab.__file__).parent
_MODULES = {p.stem: ast.parse(p.read_text("utf-8")) for p in sorted(_PACKAGE.glob("*.py"))}


def _local_imports(tree: ast.Module) -> set[str]:
    """Modules of this package that ``tree`` imports, by file stem."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:  # from . import name: a submodule, or else the package itself
                out.update(a.name if a.name in _MODULES else "__init__" for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            out.update(n.split(".")[1] for n in names if n and n.startswith("hnlab."))
    return out


def test_no_function_local_imports():
    offenders = [
        f"{name}.{fn.name}"
        for name, tree in _MODULES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(fn))
    ]
    assert offenders == []


def test_package_import_graph_is_acyclic():
    graph = {name: _local_imports(tree) for name, tree in _MODULES.items()}
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]) -> None:
        assert name not in path, f"import cycle: {' -> '.join(path + (name,))}"
        if name not in done:
            for dep in sorted(graph[name]):
                visit(dep, path + (name,))
            done.add(name)

    for name in graph:
        visit(name, ())


def test_bench_layer_functions_resolve():
    # Parsed, not imported: the bench harness patches modules when loaded.
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "tracing.py").read_text("utf-8"))
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "LAYER_FUNCTIONS"
    ]
    assert layers
    for module, func in layers:
        assert callable(getattr(importlib.import_module(f"hnlab.{module}"), func, None)), func
    assert "jobs" in inspect.signature(hnlab.verify_delta).parameters


def test_public_names_are_the_imported_ones():
    assert hnlab.__all__ == sorted(hnlab.__all__)
    assert not any(
        name.startswith("_") or inspect.ismodule(getattr(hnlab, name)) for name in hnlab.__all__
    )
    namespace: dict[str, object] = {}
    exec("from hnlab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == hnlab.__all__
