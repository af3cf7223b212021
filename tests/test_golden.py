"""Byte-for-byte pins on the CLI at 30 digits and one worker.

One session runs ``zeros`` then ``audit`` at --t-max 31.5 on a fresh
cache, then ``laurent`` for zero 1 (its upper neighbour is cached) and
zero 4 (the last cached zero, so the gap is walked on the scan grid),
and ``stieltjes --n-max 20``.  Every stdout, exit code and the cache
after each of the first two commands must match the files under
``tests/golden/``.

A change that means to move these bytes regenerates them with

    ZETAKIT_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py

and says why in its change notes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
REGEN = os.environ.get("ZETAKIT_REGEN_GOLDEN") == "1"
COMMON = ("--digits", "30", "--workers", "1")

# (name, argv, expected exit code, whether the cache is pinned after it)
STEPS = (
    ("zeros", ("zeros", "--t-max", "31.5"), 0, True),
    ("audit", ("audit", "--t-max", "31.5"), 0, True),
    ("laurent_1", ("laurent", "--index", "1", "--terms", "8", "--k-max", "10000"), 0, False),
    ("laurent_4", ("laurent", "--index", "4", "--terms", "8", "--k-max", "10000"), 0, False),
    ("stieltjes", ("stieltjes", "--n-max", "20"), 0, False),
)


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """{name: (exit code, stdout bytes, cache bytes or None)} for STEPS."""
    cache = tmp_path_factory.mktemp("golden") / "zeros.cache"
    out = {}
    for name, argv, _, pin_cache in STEPS:
        run = subprocess.run(
            [sys.executable, "-m", "zetakit.cli", *argv, *COMMON, "--cache", str(cache)],
            capture_output=True,
        )
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
