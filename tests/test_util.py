"""Shared helpers: the worker cap, errors and clean exit of the parallel map,
and Brent's root finder against scipy's."""

import concurrent.futures
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from diracband import fields, util
from golden import regenerate as golden
from helpers import run_blas_script

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


@needs_fork
def test_pmap_pins_blas_in_the_caller_before_it_forks():
    # after a threaded product the caller sets numpy's BLAS to one thread
    # before the pool forks: every worker inherits it, and the caller keeps it
    out = run_blas_script(
        "import os\n"
        "import numpy as np\n"
        "import helpers\n"
        "from diracband import util\n"
        "if helpers.blas_threads() is None:\n"
        "    raise SystemExit\n"
        "util._usable_cores = lambda: 2\n"
        "a = np.random.default_rng(0).standard_normal((400, 400))\n"
        "a @ a\n"
        "seen = util.pmap(lambda i: (os.getpid(), helpers.blas_threads()),\n"
        "                 range(8), 2)\n"
        "assert os.getpid() not in {pid for pid, _ in seen}, seen\n"
        "print([t for _, t in seen], helpers.blas_threads())\n")
    if out == "":
        pytest.skip("numpy bundles no OpenBLAS")
    assert out == str([1] * 8) + " 1"


def _seeded_brackets(count: int, seed: int = 11) -> list:
    """(f, a, b): products of 2-7 linear factors, one root inside [a, b]."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        roots = rng.uniform(-3.0, 3.0, int(rng.integers(2, 8)))
        gap = float(np.min(np.abs(roots[1:] - roots[0])))
        a, b = roots[0] - gap * rng.uniform(0.05, 0.95, 2) * [1.0, -1.0]
        scale = float(rng.uniform(0.1, 10.0))
        cases.append((lambda x, r=roots, k=scale: k * float(np.prod(x - r)),
                      float(a), float(b)))
    return cases


def _plateau_brackets(monkeypatch, h: float, h1: float) -> list:
    """The (f, a, b) that `_plateau_norm(h, h1)` hands its root finder."""
    seen = []

    def record(f, a, b, xtol):
        seen.append((f, a, b))
        return util.brentq(f, a, b, xtol)

    monkeypatch.setattr(fields, "brentq", record)
    fields._plateau_norm.__wrapped__(h, h1)
    monkeypatch.undo()
    return seen


def test_brentq_returns_scipys_root(monkeypatch):
    # bit for bit where the machine matches the goldens' environment; scipy's
    # C may be compiled with FMA contraction elsewhere, and there each root
    # still ends in a bracket of width under xtol + rtol |x| around the zero,
    # so the two differ by at most twice that
    with open(Path(golden.HERE) / "ENV.json", encoding="utf-8") as fh:
        exact = json.load(fh) == golden.environment()
    # the norm brackets only the zeros besides the exact k / (h + h1), about
    # 37 per norm, so two norms feed it
    cases = [(c, 1e-13) for hh in [(0.4, 0.9), (0.5, 1.5)]
             for c in _plateau_brackets(monkeypatch, *hh)]
    assert len(cases) > 50
    cases += [(c, xtol) for c in _seeded_brackets(1000)
              for xtol in (1e-13, 2e-12, 1e-6)]
    rtol = 4.0 * sys.float_info.epsilon
    for (f, a, b), xtol in cases:
        want = scipy_brentq(f, a, b, xtol=xtol)
        got = util.brentq(f, a, b, xtol)
        if exact:
            assert got == want, (a, b, xtol)
        else:
            assert abs(got - want) <= 2.0 * (xtol + rtol * abs(want)), (a, b)


def test_brentq_refuses_what_scipys_refuses():
    cases = [
        # f(a) and f(b) of one sign
        (ValueError, lambda x: x * x + 1.0, -1.0, 1.0, 100),
        # a NaN inside the bracket, where the first secant step lands
        (ValueError, lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5,
         0.0, 1.0, 100),
        (RuntimeError, lambda x: x ** 3 - 0.3, 0.0, 1.0, 2),
    ]
    for error, f, a, b, maxiter in cases:
        with pytest.raises(error):
            scipy_brentq(f, a, b, xtol=1e-12, maxiter=maxiter)
        with pytest.raises(error):
            util.brentq(f, a, b, 1e-12, maxiter=maxiter)
