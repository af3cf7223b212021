"""Session-level caches shared across test modules.

The full scan to T = 100 is expensive, so whichever test needs it first
pays for it (the acceptance scan criterion, in the normal ordering) and
everyone else reuses the result.
"""

from __future__ import annotations

import os
from functools import lru_cache

from zetakit.precision import PrecisionContext
from zetakit.zeros import scan_with_count


def nan_pair(s):
    """The double-precision pair (zeta, zeta') replaced by NaNs: set as
    ``zeros.em_pair_float``, it makes every float-tier step reject, so the
    mpmath path runs (for refinement, the jets from the midpoint)."""
    nan = complex("nan")
    return nan, nan


def workers() -> int:
    return min(8, os.cpu_count() or 1)


@lru_cache(maxsize=None)
def ctx_digits(digits: int) -> PrecisionContext:
    return PrecisionContext.from_digits(digits)


@lru_cache(maxsize=None)
def zeros_to(T: int):
    """(records, n_winding) for the scan to height T at 30 digits."""
    return scan_with_count(T, ctx_digits(30), workers=workers())
