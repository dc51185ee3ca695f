"""Small shared helpers: deterministic frames, 1-d maximisation, parallel map."""

from __future__ import annotations

import concurrent.futures
import ctypes
import glob
import math
import os
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def unit(v: np.ndarray) -> np.ndarray:
    """Normalise a vector, rejecting zero input."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("zero vector has no direction")
    return v / norm


def check_unit(v: np.ndarray, name: str = "vector", tol: float = 1e-9) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > tol:
        raise ValueError(f"{name} must have unit length")
    return v


def complete_orthonormal(seed_vectors: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Extend orthonormal `seed_vectors` to an orthonormal basis of R^n.

    Completion runs Gram-Schmidt over the standard axes in index order, and
    each appended vector has its smallest-index sizeable component made
    positive.  The output is therefore reproducible bit for bit.
    """
    basis = [np.array(v, dtype=float) for v in seed_vectors]
    for b in basis:
        check_unit(b, "seed vector")
    for i in range(n):
        if len(basis) == n:
            break
        cand = np.zeros(n)
        cand[i] = 1.0
        for b in basis:
            cand = cand - np.dot(cand, b) * b
        norm = float(np.linalg.norm(cand))
        if norm > 1e-9:
            cand /= norm
            lead = int(np.argmax(np.abs(cand) > 1e-9))
            if cand[lead] < 0.0:
                cand = -cand
            basis.append(cand)
    if len(basis) != n:
        raise ValueError("could not complete an orthonormal basis")
    return np.array(basis)


def orthonormal_complement(e: np.ndarray) -> np.ndarray:
    """Rows spanning the orthogonal complement of the unit vector `e`."""
    e = check_unit(e, "direction")
    full = complete_orthonormal([e], e.shape[0])
    return full[1:]


def golden_max(f: Callable[[float], float], a: float, b: float,
               iters: int = 60) -> tuple[float, float]:
    """Golden-section maximisation of a unimodal-ish scalar function."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    if f1 >= f2:
        return x1, f1
    return x2, f2


def _usable_cores() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pmap(fn: Callable, items: Iterable, threads: int = 1) -> list:
    """Order-preserving map, optionally on a thread pool.

    The pool gets at most one worker per item and per usable core, whatever
    `threads` asks for.  Results are collected in input order regardless of
    completion order, so reports stay deterministic for any thread count.
    """
    items = list(items)
    workers = min(threads, len(items), _usable_cores())
    if workers <= 1:
        return [fn(x) for x in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@lru_cache(maxsize=None)
def scipy_blas_single_threaded() -> None:
    """Run the OpenBLAS bundled with scipy on one thread from now on.

    ARPACK (`scipy.sparse.linalg.eigsh`) calls that library, and with more
    than one thread its iterates, and so the last bits of the eigenvalues it
    returns, vary from run to run.  numpy's dense routines use a library of
    their own and keep their threads.  Runs once per process; changes
    nothing when scipy bundles no OpenBLAS (builds against a system BLAS).
    """
    import scipy

    base = os.path.dirname(scipy.__file__)
    for path in sorted(glob.glob(os.path.join(base + ".libs", "*openblas*")) +
                       glob.glob(os.path.join(base, ".dylibs", "*openblas*"))):
        lib = ctypes.CDLL(path)  # the copy scipy has loaded already
        for name in ("scipy_openblas_set_num_threads", "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter(1)
                return


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of the given order on [-1, 1] (read-only)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_panels(a: float, b: float, panels: int, order: int = 12
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    base_x, base_w = _leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights
