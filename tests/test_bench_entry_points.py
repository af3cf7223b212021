"""The names the benchmark under perfbench/ reaches in the package.

perfbench/ is read as syntax, never imported or run: its tracer wraps
every public function of the modules it names and patches the methods
in HOT, and points.py calls the package directly, so a deleted or
renamed name would break a bench run long after Tier-1 passed.
"""

import ast
import importlib
from pathlib import Path

import zetakit
from zetakit import zeros

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assigned(tree: ast.Module, name: str):
    [value] = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
    ]
    return ast.literal_eval(value)


def test_tracer_modules_import():
    tree = ast.parse((BENCH / "tracer.py").read_text())
    modules = _assigned(tree, "MODULES")
    assert modules
    for m in modules:
        importlib.import_module(f"zetakit.{m}")


def test_tracer_hot_targets_resolve():
    tree = ast.parse((BENCH / "tracer.py").read_text())
    hot = _assigned(tree, "HOT")
    assert hot
    for name, (modname, cls, meth) in hot.items():
        assert callable(getattr(getattr(importlib.import_module(modname), cls), meth)), name


def test_tracer_pool_workers_exist():
    """The per-layer item metrics are keyed by the pool worker's name."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    workers = {
        node.value[len("item:"):] for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith("item:") and len(node.value) > len("item:")
    }
    assert workers
    for name in workers:
        assert callable(getattr(zeros, name, None)), name


def test_points_calls_exist():
    tree = ast.parse((BENCH / "points.py").read_text())
    names = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "zetakit"
    }
    assert names
    for name in names:
        assert hasattr(zetakit, name), name
