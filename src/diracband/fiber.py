"""Truncated Bloch fibers of the periodic Dirac operator.

A fiber is indexed by a quasimomentum k, a unit direction e and a
nonnegative imaginary shift kappa: the per-mode symbol is

    D_N = sum_j (k_j + 2 pi N_j + i kappa e_j) alpha_j .

On a finite mode window the operator is the block matrix with D_N plus the
potential mean on the diagonal and the potential coefficients V(N - N') off
the diagonal (block Toeplitz in the potential part).  It is held as a sparse
matrix: the potential stencil depends only on the window and the potential,
so it is built once per pair, and per fiber only the diagonal symbol blocks
change.  The dense matrix is a view built on demand, never over DENSE_LIMIT.

The singular values of a single symbol block are known in closed form: with
p the axial component of k + 2 pi N and q the transverse radius,

    g_minus = hypot(p, kappa - q),   g_plus = hypot(p, kappa + q),

each with multiplicity M/2.  These factors also drive the weighted
lower-bound checks.  The smallest singular value has two routes:
method="auto" takes the closed form when the potential is empty (the fiber
is block diagonal) and otherwise sparse LU plus Lanczos (ARPACK) on the
inverse Gram operator, or the LAPACK SVD for a diagonal block (below) of
at most DENSE_BLOCK_ROWS rows; method="dense" is the LAPACK SVD of every
block, the reference the other routes are checked against.

Two modes couple only when N - N' is a key of the potential, and two spin
indices only through the generators or a coefficient entry, so a fiber is
the exact direct sum of its diagonal blocks over the connected components
of that pattern: the stencil's nonzeros and I_m (x) the union of the
nonzero patterns of alpha_1 .. alpha_n.  The pattern is the same for every
fiber on a window.  The modes split by the cosets of the sublattice
the keys span (each mode alone for a potential mean), and for even n the
diagonal chirality of `build_clifford`, +-diag(1, -1, 1, -1, ...), splits the
spins whenever every coefficient commutes with it (Lawson and Michelsohn,
Spin Geometry, ch. I.5): such components hold only even or only odd rows.
Every solver works on these blocks: the eigenvalues are the sorted union of
theirs and sigma_min the smallest of theirs.  Dense solves set numpy's
OpenBLAS to one thread, for the rest of the process, so their bits do not
depend on the thread count.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                 splu)

from .clifford import CliffordRep, clifford_contraction
from .fields import PotentialSet
from .lattice import Lattice
from .util import blas_single_threaded, check_unit

DENSE_LIMIT = 4096
# Lanczos basis size of the sparse route: ARPACK's default of 20 stalls on
# the near-degenerate clusters of sigma_min that shifted fibers have
LANCZOS_NCV = 40
# ARPACK restarts before the sparse route gives up and falls back to dense
# (ARPACK's default, 10 times the dimension, lets a stalled node run for
# thousands of matvecs); no node of the shipped scans needs more than 10
LANCZOS_MAXITER = 100
# Largest diagonal block the auto route solves by dense SVD rather than by
# the sparse route.  On thomas_documented.json's blocks at cutoffs 20 to 26,
# with one BLAS thread, the dense SVD took 4.6, 7.1 and 12.2 ms at 148, 180
# and 228 rows, and the sparse route 7.5, 8.3 and 9.0 ms
DENSE_BLOCK_ROWS = 200


@dataclass(frozen=True)
class FiberPoint:
    """Quasimomentum k with direction e and imaginary shift kappa >= 0."""

    k: np.ndarray
    e: np.ndarray
    kappa: float = 0.0

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        e = np.asarray(self.e, dtype=float)
        if k.ndim != 1 or e.shape != k.shape:
            raise ValueError("k and e must be vectors of one length")
        e = check_unit(e, "direction e", tol=1e-12)
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "e", e)


class ModeSet:
    """Ordered window of reciprocal modes, indexable by coefficient tuple."""

    def __init__(self, lattice: Lattice, coords) -> None:
        arr = np.asarray(coords, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != lattice.n:
            raise ValueError("coords must be (m, n) integer rows")
        self.lattice = lattice
        self.coords = arr.copy()
        self.coords.flags.writeable = False
        self.index = {tuple(int(c) for c in row): i for i, row in enumerate(arr)}
        if len(self.index) != arr.shape[0]:
            raise ValueError("duplicate modes in the window")
        self.cutoff: Optional[float] = None
        # (stencil, components) on this window, one per PotentialSet
        # (`potential_stencil`)
        self._stencils: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @classmethod
    def from_cutoff(cls, lattice: Lattice, cutoff: float) -> "ModeSet":
        """All modes with |2 pi N| <= cutoff, origin first, then by (norm, lex)."""
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        out = cls(lattice, lattice.mode_window(cutoff))
        out.cutoff = float(cutoff)
        return out

    def __len__(self) -> int:
        return self.coords.shape[0]


def _momentum(lattice: Lattice, fiber: FiberPoint, N) -> np.ndarray:
    """x = k + 2 pi N, refused unless the fiber has the lattice's dimension."""
    if fiber.k.shape != (lattice.n,):
        raise ValueError(f"a fiber in {fiber.k.shape[0]} dimensions on a "
                         f"lattice in {lattice.n}")
    return fiber.k + 2.0 * math.pi * lattice.dual_point(np.asarray(N, dtype=float))


def symbol(rep: CliffordRep, lattice: Lattice, fiber: FiberPoint, N) -> np.ndarray:
    """The per-mode matrix sum_j (k_j + 2 pi N_j + i kappa e_j) alpha_j."""
    x = _momentum(lattice, fiber, N)
    return clifford_contraction(rep, x + 1.0j * fiber.kappa * fiber.e)


def _axial_transverse(lattice: Lattice, fiber: FiberPoint, N
                      ) -> tuple[float, float]:
    """(p, q) of x = k + 2 pi N: its axial part (x, e), its transverse radius.

    p and |x|^2 are correctly rounded sums (`math.fsum`), so the bits do not
    depend on the BLAS kernel.
    """
    x = _momentum(lattice, fiber, N)
    p = math.fsum((x * fiber.e).tolist())
    q2 = math.fsum((x * x).tolist()) - p * p
    return p, math.sqrt(q2) if q2 > 0.0 else 0.0


def g_factors(lattice: Lattice, fiber: FiberPoint, N) -> tuple[float, float]:
    """Closed-form extreme singular values (g_minus, g_plus) of one symbol."""
    p, q = _axial_transverse(lattice, fiber, N)
    return math.hypot(p, fiber.kappa - q), math.hypot(p, fiber.kappa + q)


def annulus_mask(modes: ModeSet, fiber: FiberPoint, beta: float) -> np.ndarray:
    """Which window modes N put k + 2 pi N in the critical annulus.

    A mode is selected when its `_axial_transverse` (p, q), the g-factors'
    own, has |p| < beta and |kappa - q| < beta.
    """
    pq = np.array([_axial_transverse(modes.lattice, fiber, N)
                   for N in modes.coords]).reshape(-1, 2)
    return (np.abs(pq[:, 0]) < beta) & (np.abs(fiber.kappa - pq[:, 1]) < beta)


@dataclass
class TruncatedDiracOperator:
    """One fiber on a mode window, held as a sparse (dim, dim) CSC matrix.

    `components` are the row sets of its diagonal blocks (see
    `potential_stencil`): the fiber has no entry outside them.
    """

    modes: ModeSet
    fiber: FiberPoint
    pot: PotentialSet
    sparse: sp.csc_array
    components: tuple

    @property
    def dim(self) -> int:
        return self.sparse.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense view of the fiber, built on first use.

        Refused over DENSE_LIMIT before anything is allocated.
        """
        check_dense_dim(self.dim)
        return self.sparse.toarray()

    def block(self, rows: np.ndarray) -> sp.csc_array:
        """The sparse diagonal block on the ascending `rows`, one of
        `components`; the fiber itself when it has a single component."""
        if len(rows) == self.dim:
            return self.sparse
        return self.sparse[rows][:, rows].tocsc()

    def dense_blocks(self, components) -> list:
        """Dense diagonal blocks on the given `components`, stacked by size.

        Returns (rows, stack) pairs: rows[i] are the rows of stack[i], a
        (count, size, size) array whose entries are copied from the sparse
        fiber, so a single block has the bits of the dense view.  Refused
        while the whole fiber is over DENSE_LIMIT.  Sets numpy's BLAS to one
        thread, for the solve that follows and for the rest of the process.
        """
        if not components:
            return []
        check_dense_dim(self.dim)
        blas_single_threaded("numpy")
        coo = self.sparse.tocoo()
        by_size: dict = {}
        for rows in components:
            by_size.setdefault(len(rows), []).append(rows)
        out = []
        for size, members in by_size.items():
            rows = np.stack(members)
            # stack row of each fiber row, -1 outside the chosen blocks
            pos = np.full(self.dim, -1, dtype=np.int64)
            pos[rows.reshape(-1)] = np.arange(rows.size)
            keep = pos[coo.row] >= 0
            stack = np.zeros(rows.size * size, dtype=complex)
            stack[pos[coo.row[keep]] * size + pos[coo.col[keep]] % size] = (
                coo.data[keep])
            out.append((rows, stack.reshape(len(members), size, size)))
        return out

    def mode_g_factors(self) -> np.ndarray:
        """(m, 2) array of closed-form (g_minus, g_plus) per window mode."""
        return np.array([g_factors(self.modes.lattice, self.fiber, row)
                         for row in self.modes.coords])


def potential_stencil(modes: ModeSet, pot: PotentialSet
                      ) -> tuple[sp.csc_array, tuple]:
    """(stencil, components) of every fiber on the window, built once per
    potential.

    Block (i, j) of the stencil is the composite coefficient V(N_i - N_j).
    Each required coefficient is materialised once and copied into every
    block it serves, so equal offsets give bit-identical blocks.
    `components` are the connected components of the pattern every fiber on
    the window shares: the stencil's nonzeros and I_m (x) the union of the
    nonzero patterns of alpha_1 .. alpha_n (the symbols); a row with neither
    is a component by itself.
    Exact zeros only, no tolerance: a dropped coupling would give a wrong
    spectrum.  Each is an array of ascending rows, and they are ordered by
    their first row.  A scan builds both before its `pmap`, so that forked
    workers inherit them.  The window must lie on the potential's lattice.
    Building warns, naming the cutoff, when some coefficients connect no
    two window modes: they are clipped.
    """
    built = modes._stencils.get(pot)
    if built is None:
        if not modes.lattice.same_as(pot.lattice):
            raise ValueError(
                "mode window and potential are on different lattices")
        rep, m = pot.rep, len(modes)
        M, dim = rep.M, rep.M * m
        coeffs = pot.composite().coeffs
        bi, bj, blocks = [], [], []
        clipped = 0
        for key, block in coeffs.items():
            targets = modes.coords + np.asarray(key, dtype=np.int64)
            placed = len(blocks)
            for j, target in enumerate(targets.tolist()):
                i = modes.index.get(tuple(target))
                if i is not None:
                    bi.append(i)
                    bj.append(j)
                    blocks.append(block)
            clipped += len(blocks) == placed
        if modes.cutoff is not None and clipped:
            warnings.warn(f"potential has {clipped} mode(s) beyond the "
                          f"convolution reach of the window at cutoff "
                          f"{modes.cutoff!r}; they are clipped",
                          RuntimeWarning, stacklevel=2)
        r, c = np.divmod(np.arange(M * M), M)  # block entries, row-major
        rows = (np.array(bi, dtype=np.int64)[:, None] * M + r).reshape(-1)
        cols = (np.array(bj, dtype=np.int64)[:, None] * M + c).reshape(-1)
        stencil = sp.csc_array(
            (np.array(blocks, dtype=complex).reshape(-1), (rows, cols)),
            shape=(dim, dim))
        stencil.eliminate_zeros()
        spins = sp.csr_array(np.any([a != 0 for a in rep.alphas[:rep.n]],
                                    axis=0).astype(float))
        # abs: a coefficient entry of -1 must not cancel a symbol entry
        pattern = abs(stencil) + sp.kron(sp.eye_array(m), spins)
        built = modes._stencils[pot] = (stencil, _components(pattern))
    return built


def _components(pattern: sp.sparray) -> tuple:
    """Connected components of a symmetric sparsity pattern, as arrays of
    ascending rows ordered by their first row."""
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(pattern, directed=False)
    _, first = np.unique(labels, return_index=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    labels = rank[labels]
    rows = np.argsort(labels, kind="stable")
    return tuple(np.split(rows, np.cumsum(np.bincount(labels))[:-1]))


def assemble(modes: ModeSet, fiber: FiberPoint, pot: PotentialSet
             ) -> TruncatedDiracOperator:
    """Sparse fiber matrix on the mode window.

    The block diagonal of symbols, the only part that changes from fiber to
    fiber, plus the window's potential stencil.  A diagonal entry is the
    symbol plus the potential mean and every other entry a single
    coefficient, so the dense view has the bits of a dense assembly.  The
    stencil checks the window against the potential when it is built, and
    each symbol the fiber against the lattice.
    """
    stencil, components = potential_stencil(modes, pot)
    lattice, rep, m = modes.lattice, pot.rep, len(modes)
    symbols = sp.bsr_array(
        (np.array([symbol(rep, lattice, fiber, N) for N in modes.coords]),
         np.arange(m), np.arange(m + 1)), shape=(rep.M * m, rep.M * m))
    # csc + bsr adds entrywise and drops the zeros inside the symbol blocks
    matrix = (stencil + symbols).tocsc()
    return TruncatedDiracOperator(modes=modes, fiber=fiber, pot=pot,
                                  sparse=matrix, components=components)


def eigenvalues(op: TruncatedDiracOperator) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian fiber (kappa = 0 only).

    Raises for shifted or non-Hermitian fibers; those carry spectral
    information through sigma_min instead.  The Hermitian check reads the
    sparse fiber; the spectrum is the sorted union of the dense eigenvalues
    of its diagonal blocks, one stacked call per block size, so fibers over
    DENSE_LIMIT are refused.  The first call sets numpy's OpenBLAS to one
    thread for the rest of the process (`TruncatedDiracOperator.dense_blocks`).
    """
    if op.fiber.kappa != 0.0:
        raise ValueError("shifted fibers are not Hermitian; use sigma_min")
    D = op.sparse
    scale = float(abs(D).max()) or 1.0
    asym = float(abs(D - D.conj().T).max())
    if asym > 1e-12 * scale:
        raise ValueError("fiber matrix is not Hermitian within tolerance; "
                         "use sigma_min")
    return np.sort(np.concatenate(
        [np.linalg.eigvalsh(stack).reshape(-1)
         for _, stack in op.dense_blocks(op.components)]))


def check_dense_dim(dim: int) -> None:
    """Refuse a dense fiber of dimension `dim` (modes times M) over DENSE_LIMIT.

    The dense view of a fiber checks it before it allocates; callers that
    know the mode window check it before the first fiber.
    """
    if dim > DENSE_LIMIT:
        raise ValueError(
            f"fiber dimension {dim} exceeds the dense limit {DENSE_LIMIT}; "
            "reduce the cutoff")


def _lanczos_sigma_min(D: sp.csc_array) -> Optional[float]:
    """sigma_min(D) = lambda_max((D^H D)^{-1})^(-1/2) by sparse LU and ARPACK.

    ARPACK runs on x -> D^{-1} D^{-H} x with k = 1 (sigma_min is
    degenerate, multiplicity M/2 in the free case), tol = 0, LANCZOS_NCV
    basis vectors, at most LANCZOS_MAXITER restarts, a fixed start vector,
    a fixed seed for the vectors ARPACK draws when its Krylov space turns
    invariant and scipy's BLAS on one thread, so reruns give the same bits.
    Returns None when `splu` finds D singular, ARPACK does not converge, or
    the singular triplet (u, sigma, v) with u = Dv / |Dv| misses the
    residual check |D^H u - sigma v| <= 1e-10 max(sigma, 1).
    """
    blas_single_threaded("scipy")
    try:
        lu = splu(D)
    except RuntimeError:  # exactly singular
        return None
    dim = D.shape[0]
    inverse_gram = LinearOperator(
        (dim, dim), dtype=complex,
        matvec=lambda x: lu.solve(lu.solve(x, trans="H")))
    try:
        lam, vecs = eigsh(inverse_gram, k=1, which="LM", tol=0,
                          v0=np.ones(dim, dtype=complex),
                          ncv=min(dim, LANCZOS_NCV), maxiter=LANCZOS_MAXITER,
                          rng=0)
    except ArpackNoConvergence:
        return None
    sigma = float(lam[0]) ** -0.5
    v = vecs[:, 0]
    Dv = D @ v
    u = Dv / np.linalg.norm(Dv)
    residual = float(np.linalg.norm(D.conj().T @ u - sigma * v))
    if not residual <= 1e-10 * max(sigma, 1.0):
        return None
    return sigma


def sigma_min(op: TruncatedDiracOperator, method: str = "auto") -> float:
    """Smallest singular value of the truncated fiber.

    `weighted_sigma_min` with unit weights, which leave every route's bits
    unchanged: the closed form when the potential is empty, otherwise the
    dense SVD or sparse LU plus Lanczos per diagonal block, by its size
    (method="auto"), or the dense LAPACK reference (method="dense").
    """
    return weighted_sigma_min(op, np.ones(len(op.modes)), method)


def weighted_sigma_min(op: TruncatedDiracOperator, weights: np.ndarray,
                       method: str = "auto") -> float:
    """min over nonzero phi of |D phi| / |W phi| with per-mode weights.

    Equivalently the smallest singular value of D W^{-1} (W is the diagonal
    weight, one positive entry per mode, repeated across the M spin
    components).  Every route takes the minimum over the fiber's diagonal
    blocks, which W commutes with.  method="auto" uses the exact per-mode
    factors, min g_minus / weight, when the potential is empty; otherwise it
    takes one stacked LAPACK SVD per size for the blocks of at most
    DENSE_BLOCK_ROWS rows, and sparse LU plus Lanczos on the column-scaled
    block of D W^{-1} for the larger ones, falling back to the dense SVD
    when that route cannot vouch for its value (see `_lanczos_sigma_min`).
    method="dense" forces the LAPACK SVD of every block, the reference
    route.  Dense work is refused over DENSE_LIMIT, and sets numpy's
    OpenBLAS to one thread for the rest of the process, as the sparse route
    does scipy's.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(op.modes),):
        raise ValueError("need one weight per window mode")
    if np.any(weights <= 0.0):
        raise ValueError("weights must be positive")
    if method not in ("auto", "dense"):
        raise ValueError("method must be 'auto' or 'dense'")
    if method == "auto" and op.pot.is_empty:
        return float(np.min(op.mode_g_factors()[:, 0] / weights))
    scale = np.repeat(1.0 / weights, op.pot.rep.M)
    best = math.inf
    dense = []
    for rows in op.components:
        sigma = None
        if method == "auto" and len(rows) > DENSE_BLOCK_ROWS:
            sigma = _lanczos_sigma_min(
                (op.block(rows) @ sp.diags_array(scale[rows])).tocsc())
        if sigma is None:
            dense.append(rows)
        else:
            best = min(best, sigma)
    for rows, stack in op.dense_blocks(dense):
        sigmas = np.linalg.svd(stack * scale[rows][:, None, :],
                               compute_uv=False)[:, -1]
        best = min(best, float(np.min(sigmas)))
    return best


def sigma_min_probe(op: TruncatedDiracOperator, count: int = 10000,
                    seed: int = 0) -> float:
    """Randomized lower-bound companion: min |D phi| over random unit phi.

    Always at least sigma_min; used to cross-check reported minima from the
    inequality side.  Needs at least one probe vector.
    """
    if count < 1:
        raise ValueError("the probe needs count >= 1")
    rng = np.random.default_rng(seed)
    block = min(count, 4096)
    best = math.inf
    done = 0
    while done < count:
        b = min(block, count - done)
        phi = rng.standard_normal((op.dim, b)) + 1.0j * rng.standard_normal((op.dim, b))
        phi /= np.linalg.norm(phi, axis=0, keepdims=True)
        norms = np.linalg.norm(op.matrix @ phi, axis=0)
        best = min(best, float(np.min(norms)))
        done += b
    return best
