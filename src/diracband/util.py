"""Small shared helpers: deterministic frames and grids, 1-d search, pmap."""

from __future__ import annotations

import concurrent.futures
import ctypes
import glob
import importlib
import math
import os
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def transverse_directions(e: np.ndarray, count: int, rng) -> np.ndarray:
    """All `count` rows of `transverse_blocks(e, count, rng, chunk)` at once."""
    return next(transverse_blocks(e, count, rng, count))[1]


def transverse_blocks(e: np.ndarray, count: int, rng, chunk: int):
    """`count` unit vectors orthogonal to the unit vector `e`, in blocks.

    In R^3 these are the angles 2 pi j / count, j = 0, 1, ..., on the circle
    spanned by `orthonormal_complement(e)`; in higher dimensions they are
    normalised standard Gaussian draws from the generator `rng`, mapped into
    that complement.  Yields (j, rows) for blocks of at most `chunk` rows and
    builds each block only when it is reached.
    """
    perp = orthonormal_complement(e)
    for i in range(0, count, chunk):
        m = min(chunk, count - i)
        if perp.shape[0] == 2:
            phis = np.arange(i, i + m) * (2.0 * math.pi / count)
            yield i, np.outer(np.cos(phis), perp[0]) + np.outer(np.sin(phis), perp[1])
        else:
            raw = rng.standard_normal((m, perp.shape[0]))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            yield i, raw @ perp


def unit_grid(m: int, d: int) -> np.ndarray:
    """The m^d points of the uniform grid j / m on [0, 1)^d, as rows in C order."""
    mesh = np.meshgrid(*([np.arange(m) / m] * d), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def golden_max(f: Callable[[float], float], a: float, b: float
               ) -> tuple[float, float]:
    """Golden-section maximisation (60 steps) of a unimodal-ish scalar function."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(60):
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


# (fn, items) of the running `pmap`: its forked workers inherit them
_PMAP_TASK: Optional[tuple] = None
# chunks per worker, so that a worker that drew slow items gets fewer
_PMAP_CHUNKS_PER_WORKER = 4


def _pmap_chunk(lo: int, hi: int) -> list:
    fn, items = _PMAP_TASK
    return [fn(x) for x in items[lo:hi]]


def _pmap_worker_init() -> None:
    for package in ("numpy", "scipy"):
        blas_single_threaded(package)


def pmap(fn: Callable, items: Iterable, threads: int = 1) -> list:
    """Order-preserving map, optionally on forked worker processes.

    The pool gets at most one worker per item and per usable core, whatever
    `threads` asks for, and each worker runs numpy's and scipy's BLAS on one
    thread.  `fn` and the items reach the workers by fork inheritance, in
    contiguous chunks of indices, so only the results are pickled; `fn` may
    be a closure.  Results are collected in input order regardless of
    completion order, so reports stay deterministic for any worker count.
    An exception in a worker is raised here, without waiting for the chunks
    not yet started.  Where the platform cannot fork, the map runs serially.
    The workers are joined before returning.
    """
    global _PMAP_TASK
    items = list(items)
    workers = min(threads, len(items), _usable_cores())
    if workers <= 1:
        return [fn(x) for x in items]
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    size = -(-len(items) // (_PMAP_CHUNKS_PER_WORKER * workers))
    _PMAP_TASK = (fn, items)
    try:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_pmap_worker_init) as pool:
            chunks = [pool.submit(_pmap_chunk, lo, lo + size)
                      for lo in range(0, len(items), size)]
            try:
                return [y for chunk in chunks for y in chunk.result()]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    finally:
        _PMAP_TASK = None


@lru_cache(maxsize=None)
def blas_single_threaded(package: str) -> None:
    """Run the OpenBLAS bundled with `package` ("numpy" or "scipy") on one thread.

    The two wheels each bundle a library of their own.  ARPACK
    (`scipy.sparse.linalg.eigsh`) calls scipy's, and with more than one
    thread its iterates, and so the last bits of the eigenvalues it returns,
    vary from run to run; `pmap` workers set both, so that workers times
    BLAS threads stay within the cores.  Runs once per process and package;
    changes nothing when the package bundles no OpenBLAS (builds against a
    system BLAS).
    """
    base = os.path.dirname(importlib.import_module(package).__file__)
    for path in sorted(glob.glob(os.path.join(base + ".libs", "*openblas*")) +
                       glob.glob(os.path.join(base, ".dylibs", "*openblas*"))):
        lib = ctypes.CDLL(path)  # the copy the package has loaded already
        for name in ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
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
    """Composite Gauss-Legendre nodes/weights on [a, b], equal panels, flat."""
    nodes, weights = gauss_legendre_edges(np.linspace(a, b, panels + 1), order)
    return nodes.ravel(), weights.ravel()


def gauss_legendre_edges(edges: np.ndarray, order: int = 12
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on each panel between consecutive edges.

    `edges` runs along its last axis (leading axes are batches of lines);
    the results have shape edges.shape[:-1] + (panels, order).  A panel of
    zero length gets zero weights.
    """
    base_x, base_w = _leggauss(order)
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    return mid[..., None] + half[..., None] * base_x, half[..., None] * base_w
