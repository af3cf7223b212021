"""Source-layout rules checked on the package's syntax trees."""

import ast
import subprocess
import sys
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


def test_no_module_imports_numpy():
    """mpmath is the package's one numerics dependency; numpy serves the
    tests as an independent oracle only."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "numpy" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "numpy imported at " + ", ".join(found)


def test_no_module_imports_dataclasses():
    """The result types are NamedTuples: ``dataclasses`` would load
    ``inspect`` and compile each class's methods at every start."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "dataclasses imported at " + ", ".join(found)


def test_importing_the_package_and_cli_loads_no_numpy():
    """Nor the process pool, which only map_ordered imports, when it
    starts one, nor ``dataclasses`` and the ``inspect`` it pulls in."""
    code = ("import sys, zetakit, zetakit.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'numpy'"
            " or m in ('concurrent.futures.process', 'dataclasses', 'inspect')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def _is_circle_node(node) -> bool:
    """An ``mp.exp`` whose argument multiplies ``mp.pi`` by ``mpc(0, +-2)``."""

    def is_attr(n, owner, attr):
        return (isinstance(n, ast.Attribute) and n.attr == attr
                and isinstance(n.value, ast.Name) and n.value.id == owner)

    def is_two_i(n):
        if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "mpc" and len(n.args) == 2):
            return False
        im = n.args[1]
        if isinstance(im, ast.UnaryOp) and isinstance(im.op, ast.USub):
            im = im.operand
        return isinstance(im, ast.Constant) and im.value == 2

    if not (isinstance(node, ast.Call) and is_attr(node.func, "mp", "exp") and node.args):
        return False
    inner = list(ast.walk(node.args[0]))
    return any(is_attr(n, "mp", "pi") for n in inner) and any(is_two_i(n) for n in inner)


def test_only_ring_samples_computes_circle_nodes():
    """Every circle around a point, the multiplicity probe and the
    residual sweep's ring, takes its nodes from zeta.ring_samples, which
    reads them from its memoized helper zeta._unit_nodes."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "zeta.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "_unit_nodes":
                    allowed = set(range(node.lineno, node.end_lineno + 1))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _is_circle_node(node) and node.lineno not in allowed
        ]
    assert not found, "circle nodes computed outside zeta.ring_samples at " + ", ".join(found)


def test_only_mobius_touches_mpmath_internals():
    """mpmath.libmp carries no API promise, so one module imports it: the
    fixed-point kernel in mobius.py.  Every other module takes its
    fixed-point conversions from mobius by a public name."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "mobius.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if any(n == "libmp" or n.startswith("mpmath.libmp") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "mpmath.libmp used outside mobius.py at " + ", ".join(found)


def _enclosing_functions(tree) -> dict:
    """Each node of tree mapped to the name of its innermost function."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else name
            owner[child] = inner
            visit(child, inner)

    visit(tree, None)
    return owner


def test_one_sign_walker_and_one_newton_step_serve_both_tiers():
    """In zeros.py the grid's Z signs are taken only inside _sign_brackets,
    and only _newton takes a Newton step (v / dv).imag, so the double and
    the mpmath tier share the walk and the iteration."""
    tree = ast.parse((SRC / "zeros.py").read_text())
    owner = _enclosing_functions(tree)
    signs = [
        owner[node] for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_grid_sign"
    ]
    steps = [
        owner[node] for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "imag"
        and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.Div)
    ]
    assert signs and set(signs) == {"_sign_brackets"}, signs
    assert steps == ["_newton"], steps


def test_one_theta_for_the_zero_pipeline():
    """zeros.py takes theta only as theta_float: it imports neither theta
    nor hardy_Z, and _backlund_count takes no theta argument."""
    tree = ast.parse((SRC / "zeros.py").read_text())
    imported = [
        alias.name for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
    ]
    assert not {"theta", "hardy_Z"} & set(imported), imported
    count = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_backlund_count"
    )
    assert [a.arg for a in count.args.args] == ["T", "value", "logderiv", "lib"]


def test_one_euler_maclaurin_remainder():
    """zeta.py takes the remainder of its Euler-Maclaurin sum from
    mobius.tail_jet: it imports neither the Bernoulli tail nor
    fixed_to_mpf, and the only callers of _bernoulli_tail are tail_jet and
    the Stieltjes jet at the pole, stieltjes_fixed."""
    tree = ast.parse((SRC / "zeta.py").read_text())
    imported = [
        alias.name for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
    ]
    assert not [n for n in imported if "bernoulli_tail" in n or "fixed_to_mpf" in n], imported
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = _enclosing_functions(tree)
        callers += [
            f"{path.name}:{owner[node]}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_bernoulli_tail"
        ]
    assert sorted(callers) == ["mobius.py:stieltjes_fixed", "mobius.py:tail_jet"], callers


def test_one_function_reads_the_bernoulli_numbers():
    """The Euler-Maclaurin tails of zeta and of the Mobius recursion share
    one Bernoulli table: the package calls none of mpmath's Bernoulli
    functions, and one function, mobius._bernoulli_ratio_fraction, reads
    the tangent numbers they come from."""
    found = []
    readers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("bernfrac", "bernoulli"):
                found.append(f"{path.name}:{node.lineno}")
            elif name == "_tangent_numbers":
                readers.append(f"{path.stem}.{owner[node]}")
    assert not found, "mpmath Bernoulli numbers read at " + ", ".join(found)
    assert readers == ["mobius._bernoulli_ratio_fraction"], readers


def test_only_mobius_sieves():
    """mobius.py decides how far to sieve mu: its Dirichlet and Mertens
    sums sieve the range they read, and no other module calls
    sieve_mobius."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "mobius.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "sieve_mobius"
        ]
    assert not found, "sieve_mobius called outside mobius.py at " + ", ".join(found)


def test_one_dirichlet_pass():
    """Every Dirichlet sum takes its powers from one kernel with no Mobius
    filter: only the hyperbola pass of the Mobius sums, the
    Euler-Maclaurin main sums of zeta and of the Stieltjes jet, and the
    ring's one jet at its centre call dirichlet_powers, and it takes no
    ``mu``.  The kernel owns its factor table: it takes no ``spf``, and
    zeta.py imports no smallest_prime_factors."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = _enclosing_functions(tree)
        callers += [
            f"{path.stem}.{owner[node]}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "dirichlet_powers"
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "dirichlet_powers":
                params = [a.arg for a in node.args.args + node.args.kwonlyargs]
                assert "mu" not in params and "spf" not in params, params
    assert sorted(callers) == [
        "mobius._hyperbola_partial", "mobius.stieltjes_fixed", "zeta._em_attempt", "zeta._shifted_main_sums",
    ], callers
    tree = ast.parse((SRC / "zeta.py").read_text())
    imported = [
        alias.name for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
    ]
    assert "smallest_prime_factors" not in imported, imported


def test_only_zeros_refuses_a_cache():
    """The zero cache has one reader, zeros.read_cache: it checks the
    header, the digits and every record, so zeros.py is the only module
    that raises CacheFormatError."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "zeros.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CacheFormatError"
        ]
    assert not found, "CacheFormatError raised outside zeros.py at " + ", ".join(found)
