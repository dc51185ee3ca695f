"""Shared builders and independent oracles for the test suite.

The oracles here recompute library quantities through a different route
(real-space quadrature, FFT collocation, brute-force enumeration) so the
tests compare two genuinely independent computations.
"""

import ctypes
import glob
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from diracband import (FourierField, Lattice, MeasureSpec, PotentialSet, fiber,
                       util)
from diracband.clifford import clifford_contraction
from diracband.fiber import FiberPoint, ModeSet, axial_transverse, g_table
from diracband.util import blas_single_threaded, gauss_legendre_panels
from diracband.verify import sobolev_direction_measure


def anticommutator(a, b):
    return a @ b + b @ a


def projector(e, et, sign, rep):
    """Spin projector attached to an orthonormal pair (e, et).

    For sign=+1 returns (I - i a(e) a(et)) / 2 and for sign=-1 the complement,
    where a(v) is the Clifford contraction of v.  Both are orthogonal
    projections of rank M/2, and they pinch the free symbol to zero when `et`
    is the radial direction transverse to `e`.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    e = np.asarray(e, dtype=float)
    et = np.asarray(et, dtype=float)
    if abs(np.linalg.norm(e) - 1.0) > 1e-12 or abs(np.linalg.norm(et) - 1.0) > 1e-12:
        raise ValueError("e and et must be unit vectors")
    if abs(np.dot(e, et)) > 1e-12:
        raise ValueError("e and et must be orthogonal")
    q = 1.0j * clifford_contraction(rep, e) @ clifford_contraction(rep, et)
    return 0.5 * (rep.identity - sign * q)


def free_band_values(lattice, rep, k, cutoff, mass=0.0):
    """Closed-form fiber spectrum for zero (or constant-mass) potential.

    Per window mode the eigenvalues are +-sqrt(|k + 2 pi N|^2 + mass^2), each
    with multiplicity M/2; returned ascending for direct comparison with the
    dense eigensolver.
    """
    modes = ModeSet.from_cutoff(lattice, cutoff)
    # unshifted, g_minus = g_plus = |k + 2 pi N| whatever the direction e
    fiber = FiberPoint(k=k, e=np.eye(lattice.n)[0])
    radii = g_table(axial_transverse(modes, fiber), fiber.kappa)[:, 0]
    roots = np.hypot(radii, mass)
    return np.sort(np.repeat(np.concatenate([-roots, roots]), rep.M // 2))


def check_dense_dim(dim):
    """Refuse a whole dense fiber of dimension `dim` whose complex entries
    exceed the memory budget: over 4,096 rows at 2^28 bytes."""
    if 16 * dim ** 2 > util.MEMORY_BUDGET:
        raise ValueError(
            f"fiber dimension {dim} exceeds the dense limit of "
            f"{util.MEMORY_BUDGET} bytes; reduce the cutoff")


def dense_matrix(op):
    """The whole (dim, dim) fiber, its diagonal blocks placed at their rows;
    refused over the memory budget before anything is allocated."""
    check_dense_dim(op.dim)
    out = np.zeros((op.dim, op.dim), dtype=complex)
    for rows, stack in op.blocks:
        out[rows[:, :, None], rows[:, None, :]] = stack
    return out


def all_blocks_sigma_min(op, weights=None):
    """The least LAPACK SVD value over every diagonal block of D W^{-1}
    (unit weights by default), one stacked call per block size: the result
    `weighted_sigma_min` must reproduce bit for bit without solving every
    block."""
    w = np.ones(len(op.modes)) if weights is None else np.asarray(weights)
    blas_single_threaded()
    scale = np.repeat(1.0 / w, op.pot.rep.M)
    return min(float(np.min(np.linalg.svd(stack * scale[rows][:, None, :],
                                          compute_uv=False)[:, -1]))
               for rows, stack in op.blocks)


def probe_oracle(op, count, seed):
    """`fiber.sigma_min_probe` serially through the dense view: the least
    |D phi| / |phi| over the columns of each chunk of PROBE_CHUNK_BYTES /
    (16 dim) vectors, chunk c drawn from the c-th child of SeedSequence(seed)
    block by block in `op.blocks` order, real and imaginary parts of each
    entry interleaved in the draws, and placed at the blocks' rows."""
    width = max(1, min(count, fiber.PROBE_CHUNK_BYTES // (16 * op.dim)))
    starts = range(0, count, width)
    children = np.random.SeedSequence(seed).spawn(len(starts))
    dense = dense_matrix(op)
    best = math.inf
    for start, child in zip(starts, children):
        rng = np.random.default_rng(child)
        b = min(width, count - start)
        phi = np.full((op.dim, b), np.nan, dtype=complex)  # rows no block sets
        for rows, _ in op.blocks:
            draws = rng.standard_normal(rows.shape + (b, 2))
            phi[rows] = draws[..., 0] + 1j * draws[..., 1]
        ratio = (np.linalg.norm(dense @ phi, axis=0)
                 / np.linalg.norm(phi, axis=0))
        best = min(best, float(np.min(ratio)))
    return best


def blas_threads():
    """The thread count of the OpenBLAS bundled with numpy, read through the
    getters named like the setters `util.blas_single_threaded` tries; None
    when numpy bundles no OpenBLAS."""
    base = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(base + ".libs", "*openblas*")) +
                       glob.glob(os.path.join(base, ".dylibs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return int(getter())
    return None


def run_blas_script(code, cwd=None):
    """Standard output of `code` in a fresh interpreter, run in `cwd`, that
    imports diracband and these helpers and starts numpy's OpenBLAS on two
    threads."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OPENBLAS_NUM_THREADS"] = "2"
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def outputs_under_blas_kernels(code):
    """Standard output of `code` in two fresh interpreters that import
    diracband: one at OpenBLAS's own kernel choice, one under
    OPENBLAS_CORETYPE=Prescott (builds that ignore the variable run both
    identically)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env.update(extra)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout.strip())
    return outs


def distinct_rows_oracle(mask):
    """(first, inverse) of the distinct rows of a boolean matrix by
    np.unique over the packed rows as structured voids."""
    _, first, inverse = np.unique(np.packbits(mask, axis=1), axis=0,
                                  return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def block_rows(op):
    """The row sets of a fiber's diagonal blocks, ordered by their first row."""
    return sorted((r for rows, _ in op.blocks for r in rows),
                  key=lambda r: int(r[0]))


def evaluate(field, points):
    """Synthesise the series at one point (n,) or a batch (P, n); real-flagged
    fields give real arrays (the imaginary residue is dropped)."""
    points = np.asarray(points, dtype=float)
    single = points.ndim == 1
    pts = points[None, :] if single else points
    reciprocal = field.lattice.reciprocal
    out = field._synthesise(
        lambda keys: np.exp(2.0j * math.pi * ((keys @ reciprocal) @ pts.T)),
        pts.shape[0])
    return out[0] if single else out


def evaluate_cell_grid(field, grid):
    """Values on the grid^n points j / grid of the period cell, in C order."""
    return field._synthesise(lambda keys: full_grid_phases(keys, grid),
                             grid ** field.lattice.n)


def random_real_vector_field(lattice, rng, pairs=4, span=2, scale=0.05):
    """Zero-mean real-valued vector field with `pairs` conjugate mode pairs."""
    n = lattice.n
    coeffs = {}
    while len(coeffs) < 2 * pairs:
        key = tuple(int(c) for c in rng.integers(-span, span + 1, size=n))
        if key == (0,) * n or key in coeffs or tuple(-c for c in key) in coeffs:
            continue
        val = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        coeffs[key] = val
        coeffs[tuple(-c for c in key)] = np.conj(val)
    return FourierField(lattice, "vector", coeffs, real=True)


def chiral_potential(lattice, rep, rng, mass=0.2):
    """Random real A on +-e_2, scalar V0 on +-e_1 plus a mean, V1 = mass alpha_{n+1}.

    Every composite coefficient commutes with the chirality, so for even n
    no diagonal block of a fiber mixes its even and odd rows.
    """
    n, eye = lattice.n, np.eye(rep.M, dtype=complex)
    e1, e2 = (tuple(int(j == i) for j in range(n)) for i in (0, 1))
    a = 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    A = FourierField(lattice, "vector",
                     {e2: a, tuple(-x for x in e2): np.conj(a)}, real=True)
    c = complex(0.15 + 0.05j)
    v0 = FourierField(lattice, "matrix",
                      {e1: c * eye, tuple(-x for x in e1): np.conj(c) * eye,
                       (0,) * n: 0.1 * eye}, dim=rep.M, hermitian=True)
    v1 = FourierField(lattice, "matrix", {(0,) * n: mass * rep.alphas[n]},
                      dim=rep.M, hermitian=True)
    return PotentialSet(A, v0, v1, rep)


def random_complex_vector_field(lattice, rng, count=5, span=2, scale=0.05):
    """Zero-mean vector field without conjugate symmetry."""
    n = lattice.n
    coeffs = {}
    while len(coeffs) < count:
        key = tuple(int(c) for c in rng.integers(-span, span + 1, size=n))
        if key == (0,) * n or key in coeffs:
            continue
        coeffs[key] = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return FourierField(lattice, "vector", coeffs)


def full_grid_phases(karr, grid):
    """exp(2 pi i (N, xi)) on the grid^n points xi of the whole cell, one
    axis per column of `karr` whether a key uses it or not."""
    n = karr.shape[1]
    mesh = np.meshgrid(*([np.arange(grid) / grid] * n), indexing="ij")
    xi = np.stack([g.ravel() for g in mesh], axis=1)
    return np.exp(2.0j * math.pi * (karr @ xi.T))


def full_grid_sup(field, grid):
    """Largest pointwise norm of a scalar or vector field on the grid^n
    points of the whole cell."""
    keys = np.array(list(field.coeffs), dtype=np.int64)
    vals = np.array([field.coeffs[tuple(k)] for k in keys], dtype=complex)
    out = np.tensordot(full_grid_phases(keys, grid).T, vals, axes=(1, 0))
    out = out.real if field.real else out
    if field.kind == "scalar":
        return float(np.max(np.abs(out)))
    return float(np.max(np.linalg.norm(out, axis=1)))


def field_on_axes(n, axes, rng, pairs=3, span=2, scale=0.05):
    """Zero-mean real vector field orthogonal to gamma = E_1 + E_2 whose keys
    use exactly `axes` coordinate axes (1 <= axes <= n).

    The keys are integer combinations of (1, -1, 0, ...), which uses the
    first two axes, and of E_3, ..., E_{axes}; a single axis is E_3 alone.
    """
    unit = np.eye(n, dtype=np.int64)
    if axes == 1:
        basis = [unit[2]]
    else:
        basis = [unit[0] - unit[1]] + [unit[j] for j in range(2, axes)]
    combos = [c for c in itertools.product(range(-span, span + 1),
                                           repeat=len(basis))
              if any(c) and next(x for x in c if x) > 0]
    coeffs = {}
    for i in rng.permutation(len(combos))[:pairs]:
        key = tuple(int(k) for k in np.dot(combos[i], basis))
        val = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        coeffs[key] = val
        coeffs[tuple(-c for c in key)] = np.conj(val)
    return FourierField(Lattice.cubic(n), "vector", coeffs, real=True)


def average_by_quadrature(A, gamma_coeffs, measure, et, points, t_span=30.0):
    """Real-space averaging oracle.

    Integrates A over one full period along gamma (Gauss grid; the integrand
    is a trigonometric polynomial, so this is exact to rounding) and then
    against the measure along et.  The plateau measure enters through its
    synthesised density, not through the transform the library multiplies
    with.
    """
    lattice = A.lattice
    gvec = lattice.point(np.asarray(gamma_coeffs, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    tau_nodes, tau_w = gauss_legendre_panels(0.0, 1.0, panels=6, order=12)

    if measure.kind == "dirac":
        offsets = tau_nodes[:, None] * gvec[None, :]
        weights = tau_w
    else:
        t_nodes, t_w = gauss_legendre_panels(-t_span, t_span,
                                             panels=int(3 * t_span), order=8)
        dens = measure.density(t_nodes)
        offsets = (tau_nodes[:, None, None] * gvec[None, None, :]
                   - t_nodes[None, :, None] * np.asarray(et)[None, None, :])
        offsets = offsets.reshape(-1, lattice.n)
        weights = (tau_w[:, None] * (t_w * dens)[None, :]).ravel()

    out = np.zeros((points.shape[0], lattice.n), dtype=complex)
    for i, x in enumerate(points):
        vals = evaluate(A, x[None, :] + offsets)
        out[i] = weights @ vals
    return out


def fft_apply_oracle(lattice, rep, modes, fiber, pot, phi):
    """Collocation route for the fiber action on a window state.

    phi has shape (m, M): one spinor per window mode.  The potential part is
    applied by pointwise multiplication on a coefficient-space FFT grid large
    enough that no product mode aliases; the symbol part is diagonal.  Valid
    whenever every (mode + potential offset) stays inside the grid's
    representable band, which the caller arranges by using an inner-supported
    phi.
    """
    n = lattice.n
    M = rep.M
    coords = np.asarray(modes.coords, dtype=np.int64)
    span = int(np.max(np.abs(coords))) if len(coords) else 0
    pot_span = 0
    composite = pot.composite()
    if composite.coeffs:
        pot_span = int(max(max(abs(c) for c in key) for key in composite.coeffs))
    g = 2 * (span + pot_span) + 3

    def place(keys, values, shape_tail):
        arr = np.zeros((g,) * n + shape_tail, dtype=complex)
        for key, val in zip(keys, values):
            arr[tuple(np.asarray(key) % g)] = val
        return arr

    phi_grid = place(coords, phi, (M,))
    pot_grid = place(list(composite.coeffs), list(composite.coeffs.values()),
                     (M, M))
    axes = tuple(range(n))
    phi_x = np.fft.ifftn(phi_grid, axes=axes) * g ** n
    pot_x = np.fft.ifftn(pot_grid, axes=axes) * g ** n
    prod_x = np.einsum("...ij,...j->...i", pot_x, phi_x)
    prod_c = np.fft.fftn(prod_x, axes=axes) / g ** n

    out = np.zeros((len(coords), M), dtype=complex)
    from diracband import symbol
    for i, row in enumerate(coords):
        out[i] = symbol(rep, lattice, fiber, row) @ phi[i]
        out[i] += prod_c[tuple(row % g)]
    return out


def brute_force_gamma(lattice, measure, h, R0, window):
    """Exhaustive searcher oracle: plain loops, no shared code path.

    Rebuilds the objective (slab ratio, then largest min orthogonal length,
    then shortest gamma, then lexicographic coefficients) from scratch.
    """
    n = lattice.n
    inv = np.linalg.inv(lattice.basis)
    bound = [int(math.floor(R0 * float(np.linalg.norm(inv[:, j])) + 1e-9))
             for j in range(n)]
    dual_bound = [int(math.floor(window * float(np.linalg.norm(lattice.basis[j]))
                                 + 1e-9)) for j in range(n)]
    duals = []
    for idx in np.ndindex(*[2 * b + 1 for b in dual_bound]):
        mc = tuple(i - b for i, b in zip(idx, dual_bound))
        if all(c == 0 for c in mc):
            continue
        v = np.asarray(mc, dtype=float) @ lattice.reciprocal
        if float(np.linalg.norm(v)) <= window:
            duals.append((mc, float(np.linalg.norm(v))))

    best_key, best = None, None
    scale1 = R0 ** (1.0 / (n - 1))
    for idx in np.ndindex(*[2 * b + 1 for b in bound]):
        mc = tuple(i - b for i, b in zip(idx, bound))
        if all(c == 0 for c in mc):
            continue
        gvec = np.asarray(mc, dtype=float) @ lattice.basis
        gnorm = float(np.linalg.norm(gvec))
        if gnorm > R0:
            continue
        slab = 0.0
        for p, w in zip(measure.points, measure.weights):
            if abs(float(np.dot(p, gvec))) <= h:
                slab += w
        total = float(np.sum(measure.weights))
        denom = max(h, R0 ** (-1.0 / (n - 1))) / gnorm
        ratio = (slab / total) / denom if total > 0 else 0.0
        orth = [ln for c, ln in duals if sum(a * b for a, b in zip(c, mc)) == 0]
        orth_key = -min(orth) / scale1 if orth else -math.inf
        key = (ratio, orth_key, gnorm, mc)
        if best_key is None or key < best_key:
            best_key, best = key, mc
    return best, best_key


def pipeline_measure(seed, q=0.75):
    """Sobolev direction measure (26 atoms) of a zero-mean real A on all
    modes of {-1, 0, 1}^3, drawn as perfbench's direction_search draws the
    first operation of a run with `seed`."""
    rng = np.random.default_rng([seed, 0])
    coeffs = {}
    for key in itertools.product((-1, 0, 1), repeat=3):
        nonzero = [c for c in key if c]
        if nonzero and nonzero[0] > 0:
            val = 0.03 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            coeffs[key] = val
            coeffs[tuple(-c for c in key)] = np.conj(val)
    A = FourierField(Lattice.cubic(3), "vector", coeffs, real=True)
    return sobolev_direction_measure(A, q)
