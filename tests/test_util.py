"""Shared helpers: the worker cap, errors and clean exit of the parallel map."""

import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diracband import util

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pmap runs serially where the platform cannot fork")


def test_pmap_caps_workers_by_items_and_cores(monkeypatch):
    seen = []

    class RecordingExecutor:
        """Stands in for the process pool: records max_workers, runs serially."""

        def __init__(self, max_workers, **kwargs):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingExecutor)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    squares = [x * x for x in range(10)]
    assert util.pmap(lambda x: x * x, range(10), threads=10 ** 6) == squares
    assert util.pmap(lambda x: x * x, range(2), threads=10 ** 6) == [0, 1]
    assert util.pmap(lambda x: x * x, range(10), threads=2) == squares
    assert seen == [3, 2, 2]
    # one item or one worker needs no pool at all
    assert util.pmap(lambda x: x * x, [4], threads=8) == [16]
    assert util.pmap(lambda x: x * x, range(3), threads=1) == [0, 1, 4]
    assert seen == [3, 2, 2]


@needs_fork
def test_pmap_runs_closures_in_children_and_joins_them(monkeypatch):
    monkeypatch.setattr(util, "_usable_cores", lambda: 2)
    offset = 7  # a closure: it reaches the workers by fork, not by pickle
    out = util.pmap(lambda x: (x + offset, os.getpid()), range(9), threads=2)
    assert [y for y, _ in out] == list(range(7, 16))
    assert os.getpid() not in {pid for _, pid in out}
    assert multiprocessing.active_children() == []
    assert util._PMAP_TASK is None


@needs_fork
def test_pmap_raises_a_worker_error_in_the_caller(monkeypatch):
    monkeypatch.setattr(util, "_usable_cores", lambda: 2)

    def fn(x):
        if x == 5:
            raise ValueError("node 5 is bad")
        return x

    with pytest.raises(ValueError, match="node 5 is bad"):
        util.pmap(fn, range(8), threads=2)
    assert multiprocessing.active_children() == []
    assert util._PMAP_TASK is None


@needs_fork
def test_pmap_forks_after_threaded_blas_without_hanging():
    # forking a process whose OpenBLAS threads have run is the known risk;
    # 20 pools after a threaded matmul, each worker doing BLAS work itself
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = (
        "import numpy as np\n"
        "from diracband import util\n"
        "util._usable_cores = lambda: 2\n"
        "a = np.random.default_rng(0).standard_normal((400, 400))\n"
        "b = a @ a\n"
        "want = [float(np.sum(a[i] @ a)) for i in range(4)]\n"
        "for _ in range(20):\n"
        "    a @ a\n"
        "    got = util.pmap(lambda i: float(np.sum(a[i] @ a)), range(4), 2)\n"
        "    assert got == want, (got, want)\n"
        "print('ok')\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
