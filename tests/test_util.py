"""Shared helpers: the worker cap of the parallel map."""

import concurrent.futures
import os

from diracband import util


def test_pmap_caps_workers_by_items_and_cores(monkeypatch):
    seen = []

    class RecordingExecutor:
        """Stands in for the thread pool: records max_workers, maps serially."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        RecordingExecutor)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    squares = [x * x for x in range(10)]
    assert util.pmap(lambda x: x * x, range(10), threads=10 ** 6) == squares
    assert util.pmap(lambda x: x * x, range(2), threads=10 ** 6) == [0, 1]
    assert util.pmap(lambda x: x * x, range(10), threads=2) == squares
    assert seen == [3, 2, 2]
    # one item or one thread needs no pool at all
    assert util.pmap(lambda x: x * x, [4], threads=8) == [16]
    assert util.pmap(lambda x: x * x, range(3), threads=1) == [0, 1, 4]
    assert seen == [3, 2, 2]
