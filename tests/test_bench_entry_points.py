"""The names the benchmark under perfbench/ reaches in the package.

perfbench/ is read as syntax, never imported or run: its tracer wraps
every public function of the modules it names and patches the methods
in HOT, and points.py calls the package directly, so a deleted or
renamed name would break a bench run long after Tier-1 passed.  The
same holds for the command lines run.py gives the CLI.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import zetakit
from zetakit import cli, zeros

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


def _help(argv, capsys) -> str:
    with pytest.raises(SystemExit):
        cli.main([*argv, "--help"])
    return capsys.readouterr().out


def _command_lines(tree: ast.Module, commands) -> list:
    """(subcommand, its --options) for every list literal in a function of
    the tree that starts with a subcommand name; a *name spread takes the
    list assigned to name in the same function."""
    lines = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        lists = {
            node.targets[0].id: node.value for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.List)
        }

        def words(node):
            for elt in node.elts:
                if isinstance(elt, ast.Starred):
                    yield from words(lists[elt.value.id])
                elif isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    yield elt.value

        for node in ast.walk(fn):
            if isinstance(node, ast.List) and node.elts and isinstance(node.elts[0], ast.Constant) \
                    and node.elts[0].value in commands:
                argv = list(words(node))
                lines.append((argv[0], [w for w in argv if w.startswith("--")]))
    return lines


def test_bench_command_lines_pass_only_accepted_options(capsys):
    """Every --option on a command line of run.py is one its subcommand
    accepts, so dropping an option from the CLI fails here before a
    bench run does."""
    commands = set(re.search(r"\{([\w,-]+)\}", _help([], capsys)).group(1).split(","))
    lines = _command_lines(ast.parse((BENCH / "run.py").read_text()), commands)
    assert {name for name, _ in lines} == commands
    for name, options in lines:
        accepted = set(re.findall(r"--[\w-]+", _help([name], capsys)))
        assert options and set(options) <= accepted, (name, set(options) - accepted)
