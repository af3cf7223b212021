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
