"""Source-layout rules checked on the package's syntax trees."""

import ast
from pathlib import Path

import zetakit

SRC = Path(zetakit.__file__).parent


def test_no_module_imports_another_modules_private_names():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("zetakit"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert not found, "; ".join(found)


def test_zero_pipeline_does_not_use_the_cauchy_ring():
    """Refinement takes zeta'(rho) from the Euler-Maclaurin pair; the ring
    is the independent second route of the Laurent data only."""
    tree = ast.parse((SRC / "zeros.py").read_text())
    found = [
        f"zeros.py:{node.lineno} imports {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.split(".")[-1] in ("taylor_ring", "zeta_deriv")
    ]
    assert not found, "; ".join(found)
