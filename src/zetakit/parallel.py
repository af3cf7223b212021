"""Deterministic parallel mapping.

Work items and results are plain picklable values; results come back in
submission order regardless of worker count, so output bytes never
depend on scheduling.
"""

from __future__ import annotations

import os


def map_ordered(fn, items, workers: int = 1) -> list:
    """[fn(x) for x in items] on at most workers processes, and never more
    than there are items or CPUs; one is an inline loop."""
    items = list(items)
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    # Imported here, so that a process that never starts a pool does not
    # pay the pool machinery's import (about 30 ms of CPU for `--help`).
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
