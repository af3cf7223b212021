"""map_ordered's pool size, checked without starting a process."""

import concurrent.futures
import os

import pytest

from zetakit import parallel


@pytest.fixture
def pool_sizes(monkeypatch) -> list:
    """The max_workers of every pool map_ordered opens; the stand-in pool
    maps inline."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return sizes


@pytest.mark.parametrize(
    "workers, n_items, cpus, size",
    [(500, 649, 2, 2), (2, 649, 2, 2), (500, 2, 2, 2), (500, 1, 2, None),
     (1, 649, 2, None), (8, 3, 1, None)],
)
def test_pool_never_exceeds_cpus_or_items(workers, n_items, cpus, size, pool_sizes, monkeypatch):
    """500 workers on 2 CPUs open a pool of 2; one worker, one item or one
    CPU maps inline.  The results are the same in every case."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    items = list(range(n_items))
    assert parallel.map_ordered(str, items, workers) == [str(x) for x in items]
    assert pool_sizes == ([] if size is None else [size])
