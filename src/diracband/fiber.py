"""Truncated Bloch fibers of the periodic Dirac operator.

A fiber is indexed by a quasimomentum k, a unit direction e and a
nonnegative imaginary shift kappa: the per-mode symbol is

    D_N = sum_j (k_j + 2 pi N_j + i kappa e_j) alpha_j .

On a finite mode window the operator is the block matrix with D_N plus the
potential mean on the diagonal and the potential coefficients V(N - N') off
the diagonal (block Toeplitz in the potential part).  The singular values of
a single symbol block are known in closed form: with p the axial component
of k + 2 pi N and q the transverse radius,

    g_minus = hypot(p, kappa - q),   g_plus = hypot(p, kappa + q),

each with multiplicity M/2.  These factors also drive the weighted
lower-bound checks; for a potential-free fiber the block-diagonal structure
makes the extreme singular values available exactly, and the dense LAPACK
path is kept alongside for cross-validation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clifford import CliffordRep, clifford_contraction, projector
from .fields import PotentialSet
from .lattice import Lattice
from .util import check_unit

DENSE_LIMIT = 4096


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

    @classmethod
    def from_cutoff(cls, lattice: Lattice, cutoff: float) -> "ModeSet":
        """All modes with |2 pi N| <= cutoff, origin first, then by (norm, lex)."""
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        rows = [np.zeros(lattice.n, dtype=np.int64)]
        if cutoff > 0:
            coeffs, _ = lattice.points_in_ball(cutoff / (2.0 * math.pi), dual=True)
            rows.extend(coeffs)
        out = cls(lattice, np.array(rows, dtype=np.int64))
        out.cutoff = float(cutoff)
        return out

    def __len__(self) -> int:
        return self.coords.shape[0]


def symbol(rep: CliffordRep, lattice: Lattice, fiber: FiberPoint, N) -> np.ndarray:
    """The per-mode matrix sum_j (k_j + 2 pi N_j + i kappa e_j) alpha_j."""
    x = fiber.k + 2.0 * math.pi * lattice.dual_point(np.asarray(N, dtype=float))
    return clifford_contraction(rep, x + 1.0j * fiber.kappa * fiber.e)


def g_factors(lattice: Lattice, fiber: FiberPoint, N) -> tuple[float, float]:
    """Closed-form extreme singular values (g_minus, g_plus) of one symbol."""
    x = fiber.k + 2.0 * math.pi * lattice.dual_point(np.asarray(N, dtype=float))
    p = float(np.dot(x, fiber.e))
    q2 = float(np.dot(x, x)) - p * p
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


def global_projection(rep: CliffordRep, lattice: Lattice, k: np.ndarray,
                      e: np.ndarray, modes: ModeSet, sign: int) -> np.ndarray:
    """Blockwise spin projection adapted to each shifted momentum.

    Per mode the block is the projector for (e, transverse direction of
    k + 2 pi N); modes on the axis spanned by e get a zero block.
    """
    k = np.asarray(k, dtype=float)
    e = check_unit(np.asarray(e, dtype=float), "direction e", tol=1e-12)
    M = rep.M
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
    lattice: Lattice
    rep: CliffordRep
    modes: ModeSet
    fiber: FiberPoint
    pot: PotentialSet
    matrix: np.ndarray
    potential_empty: bool

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def mode_g_factors(self) -> np.ndarray:
        """(m, 2) array of closed-form (g_minus, g_plus) per window mode."""
        return np.array([g_factors(self.lattice, self.fiber, row)
                         for row in self.modes.coords])


def assemble(lattice: Lattice, rep: CliffordRep, modes: ModeSet,
             fiber: FiberPoint, pot: PotentialSet) -> TruncatedDiracOperator:
    """Dense fiber matrix on the mode window.

    Each required potential coefficient is materialised once and copied into
    every block it serves, so equal offsets give bit-identical blocks.  A
    warning is raised when the potential support radius exceeds twice the
    window cutoff: such coefficients never connect two window modes.
    """
    if pot.rep is not rep and pot.rep.M != rep.M:
        raise ValueError("potential and fiber use different generator sets")
    M = rep.M
    m = len(modes)
    if modes.cutoff is not None and pot.support_radius() > 2.0 * modes.cutoff:
        warnings.warn("potential has modes beyond the convolution reach of "
                      "the window; they are clipped", RuntimeWarning,
                      stacklevel=2)
    vhat = pot.composite()
    matrix = np.zeros((M * m, M * m), dtype=complex)
    for i in range(m):
        matrix[i * M:(i + 1) * M, i * M:(i + 1) * M] = symbol(
            rep, lattice, fiber, modes.coords[i])
    for key, block in vhat.coeffs.items():
        offset = np.asarray(key, dtype=np.int64)
        for j in range(m):
            target = tuple(int(c) for c in (modes.coords[j] + offset))
            i = modes.index.get(target)
            if i is not None:
                matrix[i * M:(i + 1) * M, j * M:(j + 1) * M] += block
    return TruncatedDiracOperator(lattice=lattice, rep=rep, modes=modes,
                                  fiber=fiber, pot=pot, matrix=matrix,
                                  potential_empty=pot.is_empty)


def eigenvalues(op: TruncatedDiracOperator) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian fiber (kappa = 0 only).

    Raises for shifted or non-Hermitian fibers; those carry spectral
    information through sigma_min instead.
    """
    if op.fiber.kappa != 0.0:
        raise ValueError("shifted fibers are not Hermitian; use sigma_min")
    scale = float(np.max(np.abs(op.matrix))) or 1.0
    asym = float(np.max(np.abs(op.matrix - op.matrix.conj().T)))
    if asym > 1e-12 * scale:
        raise ValueError("fiber matrix is not Hermitian within tolerance; "
                         "use sigma_min")
    return np.linalg.eigvalsh(op.matrix)


def check_dense_dim(dim: int, dense_limit: int = DENSE_LIMIT) -> None:
    """Refuse a dense fiber of dimension `dim` (modes times M) over the limit.

    Callers that know the mode window check it before `assemble` allocates
    the (dim, dim) matrix.
    """
    if dim > dense_limit:
        raise ValueError(
            f"fiber dimension {dim} exceeds the dense limit {dense_limit}; "
            "reduce the cutoff")


def sigma_min(op: TruncatedDiracOperator, method: str = "auto",
              dense_limit: int = DENSE_LIMIT) -> float:
    """Smallest singular value of the truncated fiber.

    method="auto" uses the exact per-block factors when the potential is
    empty (the matrix is block diagonal) and dense SVD otherwise;
    method="dense" forces the LAPACK path.
    """
    if method not in ("auto", "dense"):
        raise ValueError("method must be 'auto' or 'dense'")
    if method == "auto" and op.potential_empty:
        return float(np.min(op.mode_g_factors()[:, 0]))
    check_dense_dim(op.dim, dense_limit)
    return float(np.linalg.svd(op.matrix, compute_uv=False)[-1])


def weighted_sigma_min(op: TruncatedDiracOperator, weights: np.ndarray,
                       method: str = "auto",
                       dense_limit: int = DENSE_LIMIT) -> float:
    """min over nonzero phi of |D phi| / |W phi| with per-mode weights.

    Equivalently the smallest singular value of D W^{-1} (W is the diagonal
    weight, one positive entry per mode, repeated across the M spin
    components).  The potential-free case reduces to min g_minus / weight.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(op.modes),):
        raise ValueError("need one weight per window mode")
    if np.any(weights <= 0.0):
        raise ValueError("weights must be positive")
    if method not in ("auto", "dense"):
        raise ValueError("method must be 'auto' or 'dense'")
    if method == "auto" and op.potential_empty:
        return float(np.min(op.mode_g_factors()[:, 0] / weights))
    check_dense_dim(op.dim, dense_limit)
    scale = np.repeat(1.0 / weights, op.rep.M)
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
