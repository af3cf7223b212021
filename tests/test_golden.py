"""Byte-for-byte pins on the CLI at 30, 60 and 200 digits.

One session runs ``zeros`` then ``audit`` at --t-max 31.5 on a fresh
cache, then ``laurent`` for zero 1 (its upper neighbour is cached) and
zero 4 (the last cached zero, so the gap is walked on the scan grid),
and ``stieltjes --n-max 20``, all on one worker.  A second session runs
``zeros`` then ``audit`` at --t-max 100.3 on two workers, with its own
cache.  Those run at 30 digits.  Two more run ``zeros`` then ``audit``
at --t-max 40 on one worker, at 60 and at 200 digits, each with its own
cache; the 60-digit one then runs ``laurent`` for zero 1, and
``stieltjes --n-max 20`` runs once more at 60 digits.  Every
stdout, exit code and the cache after each ``zeros`` and ``audit`` must
match the files under ``tests/golden/``.

A change that means to move these bytes regenerates them with

    ZETAKIT_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py

and says why in its change notes.

The double-precision tier may only accept.  With its float pair replaced
by garbage, ``zeros`` then ``audit`` at --t-max 31.5 must still print
the pinned bytes, as must the 60- and 200-digit sessions with a NaN pair,
which refines every zero from its bracket midpoint; and a real finding
still exits 1 through the mpmath path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import shared
from zetakit import cli, zeros
from zetakit.zeta import em_pair_float

GOLDEN = Path(__file__).parent / "golden"
REGEN = os.environ.get("ZETAKIT_REGEN_GOLDEN") == "1"

# (name, argv, expected exit code, whether the cache is pinned after it,
# cache name, workers, digits); steps sharing a cache name run in order
# on it.  A step takes --cache and --workers only where its subcommand
# reads them (None otherwise).
STEPS = (
    ("zeros", ("zeros", "--t-max", "31.5"), 0, True, "t31", 1, 30),
    ("audit", ("audit", "--t-max", "31.5"), 0, True, "t31", 1, 30),
    ("laurent_1", ("laurent", "--index", "1", "--terms", "8", "--k-max", "10000"), 0, False, "t31", None, 30),
    ("laurent_4", ("laurent", "--index", "4", "--terms", "8", "--k-max", "10000"), 0, False, "t31", None, 30),
    ("stieltjes", ("stieltjes", "--n-max", "20"), 0, False, None, None, 30),
    ("stieltjes_d60", ("stieltjes", "--n-max", "20"), 0, False, None, None, 60),
    ("zeros_100", ("zeros", "--t-max", "100.3"), 0, True, "t100", 2, 30),
    ("audit_100", ("audit", "--t-max", "100.3"), 0, True, "t100", 2, 30),
    ("zeros_d60", ("zeros", "--t-max", "40"), 0, True, "t40d60", 1, 60),
    ("audit_d60", ("audit", "--t-max", "40"), 0, True, "t40d60", 1, 60),
    ("laurent_d60", ("laurent", "--index", "1", "--terms", "8", "--k-max", "10000"), 0, False, "t40d60", None, 60),
    ("zeros_d200", ("zeros", "--t-max", "40"), 0, True, "t40d200", 1, 200),
    ("audit_d200", ("audit", "--t-max", "40"), 0, True, "t40d200", 1, 200),
)


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """{name: (exit code, stdout bytes, cache bytes or None)} for STEPS."""
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for name, argv, _, pin_cache, cache_name, workers, digits in STEPS:
        cache = root / f"{cache_name}.cache"
        argv = [*argv, "--digits", str(digits)]
        if workers:
            argv += ["--workers", str(workers)]
        if cache_name:
            argv += ["--cache", str(cache)]
        run = subprocess.run([sys.executable, "-m", "zetakit.cli", *argv], capture_output=True)
        out[name] = (run.returncode, run.stdout, cache.read_bytes() if pin_cache else None)
    return out


def _check(path: Path, actual: bytes) -> None:
    if REGEN:
        GOLDEN.mkdir(exist_ok=True)
        path.write_bytes(actual)
    assert actual == path.read_bytes(), f"{path.name} differs from the pinned bytes"


@pytest.mark.parametrize("name,expected_code,pin_cache", [(s[0], s[2], s[3]) for s in STEPS])
def test_cli_bytes(session, name, expected_code, pin_cache):
    code, stdout, cache = session[name]
    assert code == expected_code
    _check(GOLDEN / f"{name}.out", stdout)
    if pin_cache:
        _check(GOLDEN / f"{name}.cache", cache)


# Ordinates of the zeros below 31.5, to double precision.
ZEROS_31 = (14.134725141734694, 21.022039638771555, 25.010857580145689, 30.424876125859513)


def _half_integer_pair(s):
    """zeta and zeta' turned by a quarter turn, which puts the count half
    an integer high, and near each zero zeta'/zeta gains 0.5/(s - rho),
    which puts the winding there at 1.5."""
    v, dv = em_pair_float(s)
    v, dv = 1j * v, 1j * dv
    for t in ZEROS_31:
        h = s - complex(0.5, t)
        if abs(h) < 0.3:
            dv += 0.5 * v / h
    return v, dv


def _off_basin_pair(s):
    """On the critical line zeta' is a billionfold too small, so the first
    Newton step leaves the bracket's basin."""
    v, dv = em_pair_float(s)
    return (v, dv * 1e-9) if s.real == 0.5 else (v, dv)


GARBAGE = {"nan": shared.nan_pair, "half-integer": _half_integer_pair, "off-basin": _off_basin_pair}


def _cli(argv, cache, capsys, digits=30):
    code = cli.main([*argv, "--digits", str(digits), "--workers", "1", "--cache", str(cache)])
    return code, capsys.readouterr().out.encode()


# (garbage, golden suffix, --t-max, digits): every garbage pair against
# the 30-digit goldens, and the NaN pair, which sends every zero down the
# midpoint path of refinement, against the 60- and 200-digit ones.
GARBAGE_RUNS = [pytest.param(g, "", "31.5", 30, id=g) for g in sorted(GARBAGE)] + [
    pytest.param("nan", f"_d{d}", "40", d, id=f"nan-d{d}") for d in (60, 200)
]


@pytest.mark.parametrize("garbage, suffix, t_max, digits", GARBAGE_RUNS)
def test_garbage_float_pair_leaves_the_bytes(garbage, suffix, t_max, digits, monkeypatch,
                                             tmp_path, capsys):
    monkeypatch.setattr(zeros, "em_pair_float", GARBAGE[garbage])
    cache = tmp_path / "zeros.cache"
    for name in ("zeros", "audit"):
        code, stdout = _cli((name, "--t-max", t_max), cache, capsys, digits)
        golden = f"{name}{suffix}"
        assert code == 0, golden
        assert stdout == (GOLDEN / f"{golden}.out").read_bytes(), golden
        assert cache.read_bytes() == (GOLDEN / f"{golden}.cache").read_bytes(), golden


def test_real_finding_exits_1_through_the_mpmath_path(monkeypatch, tmp_path, capsys):
    """A cached "zero" at t = 16.5, where there is none, winds 0 times on
    the 12-digit probe, so the audit calls it suspect and exits 1."""
    monkeypatch.setattr(zeros, "em_pair_float", shared.nan_pair)
    calls = []
    logderiv = zeros.zeta_logderiv
    monkeypatch.setattr(zeros, "zeta_logderiv", lambda s, ctx: calls.append(s) or logderiv(s, ctx))
    cache = tmp_path / "zeros.cache"
    cache.write_text("# zeta-zeros v1 digits=30\n1,16.5,1.0,0,refined\n")
    code, stdout = _cli(("audit", "--t-max", "20"), cache, capsys)
    assert code == 1
    assert b",0,suspect\n" in stdout
    assert len(calls) >= 16
