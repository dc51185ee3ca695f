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
inverse Gram operator; method="dense" is the LAPACK SVD of the dense view,
the reference the other routes are checked against.
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

from .clifford import CliffordRep, clifford_contraction, projector
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


@dataclass(frozen=True)
class FiberPoint:
    """Quasimomentum k with direction e and imaginary shift kappa >= 0."""

    k: np.ndarray
    e: np.ndarray
    kappa: float = 0.0

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        e = check_unit(np.asarray(self.e, dtype=float), "direction e", tol=1e-12)
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
        self.vectors = arr @ lattice.reciprocal
        self.index = {tuple(int(c) for c in row): i for i, row in enumerate(arr)}
        if len(self.index) != arr.shape[0]:
            raise ValueError("duplicate modes in the window")
        self.cutoff: Optional[float] = None
        # potential stencils on this window, one per PotentialSet
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


def symbol(rep: CliffordRep, lattice: Lattice, fiber: FiberPoint, N) -> np.ndarray:
    """The per-mode matrix sum_j (k_j + 2 pi N_j + i kappa e_j) alpha_j."""
    x = fiber.k + 2.0 * math.pi * lattice.dual_point(np.asarray(N, dtype=float))
    return clifford_contraction(rep, x + 1.0j * fiber.kappa * fiber.e)


def g_factors(lattice: Lattice, fiber: FiberPoint, N) -> tuple[float, float]:
    """Closed-form extreme singular values (g_minus, g_plus) of one symbol.

    p = (x, e) and |x|^2 are correctly rounded sums (`math.fsum`), so the
    bits do not depend on the BLAS kernel.
    """
    x = fiber.k + 2.0 * math.pi * lattice.dual_point(np.asarray(N, dtype=float))
    p = math.fsum((x * fiber.e).tolist())
    q2 = math.fsum((x * x).tolist()) - p * p
    q = math.sqrt(q2) if q2 > 0.0 else 0.0
    return math.hypot(p, fiber.kappa - q), math.hypot(p, fiber.kappa + q)


def transverse_direction(x: np.ndarray, e: np.ndarray) -> Optional[np.ndarray]:
    """Unit vector along the component of x orthogonal to e; None on the axis."""
    x = np.asarray(x, dtype=float)
    perp = x - float(np.dot(x, e)) * e
    norm = float(np.linalg.norm(perp))
    if norm <= 1e-12 * float(np.linalg.norm(x)) or norm == 0.0:
        return None
    return perp / norm


def global_projection(rep: CliffordRep, k: np.ndarray, e: np.ndarray,
                      modes: ModeSet, sign: int) -> np.ndarray:
    """Blockwise spin projection adapted to each shifted momentum.

    Per mode the block is the projector for (e, transverse direction of
    k + 2 pi N); modes on the axis spanned by e get a zero block.
    """
    k = np.asarray(k, dtype=float)
    e = check_unit(np.asarray(e, dtype=float), "direction e", tol=1e-12)
    M = rep.M
    check_dense_dim(M * len(modes))
    out = np.zeros((M * len(modes), M * len(modes)), dtype=complex)
    for i in range(len(modes)):
        x = k + 2.0 * math.pi * modes.vectors[i]
        et = transverse_direction(x, e)
        if et is None:
            continue
        out[i * M:(i + 1) * M, i * M:(i + 1) * M] = projector(e, et, sign, rep)
    return out


@dataclass
class TruncatedDiracOperator:
    """One fiber on a mode window, held as a sparse (dim, dim) CSC matrix."""

    modes: ModeSet
    fiber: FiberPoint
    pot: PotentialSet
    sparse: sp.csc_array

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

    def mode_g_factors(self) -> np.ndarray:
        """(m, 2) array of closed-form (g_minus, g_plus) per window mode."""
        return np.array([g_factors(self.modes.lattice, self.fiber, row)
                         for row in self.modes.coords])


def potential_stencil(modes: ModeSet, pot: PotentialSet) -> sp.csc_array:
    """The potential part of every fiber on the window, built once per potential.

    Block (i, j) is the composite coefficient V(N_i - N_j).  Each required
    coefficient is materialised once and copied into every block it serves,
    so equal offsets give bit-identical blocks.  A scan builds it before
    its `pmap`, so that forked workers inherit it instead of each building
    their own.
    """
    stencil = modes._stencils.get(pot)
    if stencil is None:
        M, dim = pot.rep.M, pot.rep.M * len(modes)
        bi, bj, blocks = [], [], []
        for key, block in pot.composite().coeffs.items():
            targets = modes.coords + np.asarray(key, dtype=np.int64)
            for j, target in enumerate(targets.tolist()):
                i = modes.index.get(tuple(target))
                if i is not None:
                    bi.append(i)
                    bj.append(j)
                    blocks.append(block)
        r, c = np.divmod(np.arange(M * M), M)  # block entries, row-major
        rows = (np.array(bi, dtype=np.int64)[:, None] * M + r).reshape(-1)
        cols = (np.array(bj, dtype=np.int64)[:, None] * M + c).reshape(-1)
        stencil = sp.csc_array(
            (np.array(blocks, dtype=complex).reshape(-1), (rows, cols)),
            shape=(dim, dim))
        stencil.eliminate_zeros()
        modes._stencils[pot] = stencil
    return stencil


def assemble(modes: ModeSet, fiber: FiberPoint, pot: PotentialSet
             ) -> TruncatedDiracOperator:
    """Sparse fiber matrix on the mode window.

    The block diagonal of symbols, the only part that changes from fiber to
    fiber, plus the window's potential stencil.  A diagonal entry is the
    symbol plus the potential mean and every other entry a single
    coefficient, so the dense view has the bits of a dense assembly.  The
    window must lie on the potential's lattice.  A warning is raised when
    the potential support radius exceeds twice the window cutoff: such
    coefficients never connect two window modes.
    """
    lattice, rep = modes.lattice, pot.rep
    if not lattice.same_as(pot.lattice):
        raise ValueError("mode window and potential are on different lattices")
    if modes.cutoff is not None and pot.support_radius() > 2.0 * modes.cutoff:
        warnings.warn("potential has modes beyond the convolution reach of "
                      "the window; they are clipped", RuntimeWarning,
                      stacklevel=2)
    m = len(modes)
    symbols = sp.bsr_array(
        (np.array([symbol(rep, lattice, fiber, N) for N in modes.coords]),
         np.arange(m), np.arange(m + 1)), shape=(rep.M * m, rep.M * m))
    # csc + bsr adds entrywise and drops the zeros inside the symbol blocks
    matrix = (potential_stencil(modes, pot) + symbols).tocsc()
    return TruncatedDiracOperator(modes=modes, fiber=fiber, pot=pot,
                                  sparse=matrix)


def eigenvalues(op: TruncatedDiracOperator) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian fiber (kappa = 0 only).

    Raises for shifted or non-Hermitian fibers; those carry spectral
    information through sigma_min instead.  Works on the dense view, so
    fibers over DENSE_LIMIT are refused.
    """
    if op.fiber.kappa != 0.0:
        raise ValueError("shifted fibers are not Hermitian; use sigma_min")
    scale = float(np.max(np.abs(op.matrix))) or 1.0
    asym = float(np.max(np.abs(op.matrix - op.matrix.conj().T)))
    if asym > 1e-12 * scale:
        raise ValueError("fiber matrix is not Hermitian within tolerance; "
                         "use sigma_min")
    return np.linalg.eigvalsh(op.matrix)


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
    unchanged: the closed form when the potential is empty, sparse LU plus
    Lanczos otherwise (method="auto"), or the dense LAPACK reference
    (method="dense").
    """
    return weighted_sigma_min(op, np.ones(len(op.modes)), method)


def weighted_sigma_min(op: TruncatedDiracOperator, weights: np.ndarray,
                       method: str = "auto") -> float:
    """min over nonzero phi of |D phi| / |W phi| with per-mode weights.

    Equivalently the smallest singular value of D W^{-1} (W is the diagonal
    weight, one positive entry per mode, repeated across the M spin
    components).  method="auto" uses the exact per-block factors,
    min g_minus / weight, when the potential is empty (the matrix is block
    diagonal) and sparse LU plus Lanczos on the column-scaled D W^{-1}
    otherwise, falling back to the dense SVD when that route cannot vouch
    for its value (see `_lanczos_sigma_min`).  method="dense" forces the
    LAPACK SVD of the dense view, the reference route.  Dense work is
    refused over DENSE_LIMIT.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(op.modes),):
        raise ValueError("need one weight per window mode")
    if np.any(weights <= 0.0):
        raise ValueError("weights must be positive")
    if method not in ("auto", "dense"):
        raise ValueError("method must be 'auto' or 'dense'")
    scale = np.repeat(1.0 / weights, op.pot.rep.M)
    if method == "auto":
        if op.pot.is_empty:
            return float(np.min(op.mode_g_factors()[:, 0] / weights))
        sigma = _lanczos_sigma_min((op.sparse @ sp.diags_array(scale)).tocsc())
        if sigma is not None:
            return sigma
    check_dense_dim(op.dim)
    return float(np.linalg.svd(op.matrix * scale[None, :],
                               compute_uv=False)[-1])


def sigma_min_probe(op: TruncatedDiracOperator, count: int = 10000,
                    seed: int = 0) -> float:
    """Randomized lower-bound companion: min |D phi| over random unit phi.

    Always at least sigma_min; used to cross-check reported minima from the
    inequality side.
    """
    rng = np.random.default_rng(seed)
    block = max(1, min(count, 4096))
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
