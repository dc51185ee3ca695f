"""Period lattices, their reciprocals, and direction-vector searches.

A lattice is stored by its basis rows E_1..E_n; the reciprocal basis rows
satisfy (E_j, E*_l) = delta_jl.  A lattice vector gamma = sum m_j E_j and a
reciprocal vector gamma' = sum m'_l E*_l pair as (gamma, gamma') = m . m',
so orthogonality between the two lattices is decided in exact integer
arithmetic on the coefficient vectors, whatever the basis entries are.

The searcher at the bottom scores candidate directions gamma by how little
mass an atomic sphere measure leaves near the hyperplane orthogonal to
gamma, which is the quantity controlling the averaged-potential bounds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np


def reciprocal_basis(basis: np.ndarray) -> np.ndarray:
    """Rows E*_l with (E_j, E*_l) = delta_jl; raises on singular input."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise ValueError("basis must be a square matrix of row vectors")
    if np.linalg.cond(basis) > 1e12:
        raise ValueError("basis is singular or too ill-conditioned")
    return np.linalg.inv(basis).T


class Lattice:
    """Full-rank lattice in R^n given by basis rows."""

    def __init__(self, basis) -> None:
        basis = np.asarray(basis, dtype=float)
        self.basis = basis.copy()
        self.basis.flags.writeable = False
        self.reciprocal = reciprocal_basis(basis)
        self.reciprocal.flags.writeable = False

    @classmethod
    def cubic(cls, n: int) -> "Lattice":
        return cls(np.eye(n))

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    def same_as(self, other: "Lattice") -> bool:
        """True for the same object or an equal basis."""
        return other is self or np.array_equal(other.basis, self.basis)

    def point(self, coeffs) -> np.ndarray:
        """Lattice vector with integer coefficients `coeffs`."""
        return np.asarray(coeffs, dtype=float) @ self.basis

    def dual_point(self, coeffs) -> np.ndarray:
        """Reciprocal-lattice vector with integer coefficients `coeffs`."""
        return np.asarray(coeffs, dtype=float) @ self.reciprocal

    def direction(self, gamma_coeffs
                  ) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        """(integer coefficients, vector, |gamma|, gamma / |gamma|) of gamma."""
        gc = np.asarray(gamma_coeffs, dtype=np.int64)
        gvec = self.point(gc)
        gnorm = float(np.linalg.norm(gvec))
        if gnorm == 0.0:
            raise ValueError("gamma must be nonzero")
        return gc, gvec, gnorm, gvec / gnorm

    def shortest_length(self, dual: bool = False) -> float:
        basis = self.reciprocal if dual else self.basis
        # Rough but safe: the shortest nonzero vector is found inside the
        # ball of radius max row norm.
        r = float(np.max(np.linalg.norm(basis, axis=1)))
        coeffs, vecs = enumerate_points(basis, r)
        return float(np.min(np.linalg.norm(vecs, axis=1)))

    def points_in_ball(self, radius: float, dual: bool = False
                       ) -> tuple[np.ndarray, np.ndarray]:
        basis = self.reciprocal if dual else self.basis
        return enumerate_points(basis, radius)

    def mode_window(self, cutoff: float) -> np.ndarray:
        """Integer rows N with |2 pi N| <= cutoff: the origin, then by (norm, lex)."""
        rows = [np.zeros(self.n, dtype=np.int64)]
        if cutoff > 0:
            rows.extend(self.points_in_ball(cutoff / (2.0 * math.pi), dual=True)[0])
        return np.array(rows, dtype=np.int64)


def enumerate_points(basis: np.ndarray, radius: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """All nonzero lattice vectors with |v| <= radius.

    Returns (coeffs, vectors) sorted by (|v|, lexicographic coefficients).
    Completeness comes from the coefficient bound |m_j| <= radius * |E*_j|.
    """
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[0]
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    dual = reciprocal_basis(basis)
    bounds = [int(math.floor(radius * float(np.linalg.norm(dual[j])) + 1e-9))
              for j in range(n)]
    grids = np.meshgrid(*[np.arange(-b, b + 1) for b in bounds], indexing="ij")
    coeffs = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    nonzero = np.any(coeffs != 0, axis=1)
    coeffs = coeffs[nonzero]
    vectors = coeffs @ basis
    norms = np.linalg.norm(vectors, axis=1)
    keep = norms <= radius
    coeffs, vectors, norms = coeffs[keep], vectors[keep], norms[keep]
    # lexicographic tie-break on coefficients, primary key |v|
    order = np.lexsort(tuple(coeffs[:, j] for j in range(n - 1, -1, -1)) + (norms,))
    return coeffs[order], vectors[order]


@dataclass(frozen=True)
class SphereMeasure:
    """Finite atomic measure on the unit sphere: points (m, n), weights >= 0."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or wts.ndim != 1 or pts.shape[0] != wts.shape[0]:
            raise ValueError("points must be (m, n) and weights (m,)")
        if pts.shape[0] and np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) > 1e-12:
            raise ValueError("atoms must lie on the unit sphere")
        if np.any(wts < 0.0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def slab_mass(self, direction: np.ndarray, h: float) -> float:
        """Mass of {e' : |(e', direction)| <= h}; `direction` is not normalised."""
        if h < 0:
            raise ValueError("slab half-width must be nonnegative")
        if self.points.shape[0] == 0:
            return 0.0
        dots = np.abs(self.points @ np.asarray(direction, dtype=float))
        return float(np.sum(self.weights[dots <= h]))


@dataclass(frozen=True)
class GammaCertificate:
    """Scored direction candidate.

    slab_ratio is (slab mass / total mass) divided by
    |gamma|^(-1) * max(h, R0^(-1/(n-1))): the smallest cap for which the slab
    condition holds.  min_orth is the shortest reciprocal vector orthogonal
    to gamma inside the search window, divided by R0^(1/(n-1)): the
    orthogonality condition holds for every floor below it.
    """

    gamma_coeffs: tuple
    gamma: tuple
    gamma_norm: float
    R0: float
    h: float
    slab_mass: float
    total_mass: float
    slab_ratio: float
    min_orth_raw: Optional[float]
    min_orth: Optional[float]
    window: float

    def to_dict(self) -> dict:
        return {**asdict(self), "orthogonal_found": self.min_orth_raw is not None}


def _default_window(lattice: Lattice, R0: float, n: int, scale: float) -> float:
    return max(2.0 * scale * R0 ** (1.0 / (n - 1)),
               10.0 * lattice.shortest_length(dual=True))


def _dual_window(lattice: Lattice, window: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and norms of the nonzero reciprocal vectors within `window`."""
    dual_coeffs, dual_vecs = lattice.points_in_ball(window, dual=True)
    return dual_coeffs, np.linalg.norm(dual_vecs, axis=1)


def _certificate(lattice: Lattice, gamma_coeffs, measure: SphereMeasure,
                 h: float, R0: float, window: float,
                 dual: tuple[np.ndarray, np.ndarray]) -> GammaCertificate:
    """Score gamma against `dual`, the `_dual_window` of `window`."""
    n = lattice.n
    gc, gvec, gnorm, _ = lattice.direction(gamma_coeffs)

    dual_coeffs, dual_norms = dual
    orth = (dual_coeffs @ gc) == 0  # exact: integer pairing of the lattices
    min_orth_raw = float(np.min(dual_norms[orth])) if np.any(orth) else None
    scale1 = R0 ** (1.0 / (n - 1))
    min_orth = None if min_orth_raw is None else min_orth_raw / scale1

    slab = measure.slab_mass(gvec, h)
    total = measure.total_mass
    denom = (1.0 / gnorm) * max(h, R0 ** (-1.0 / (n - 1)))
    slab_ratio = (slab / total) / denom if total > 0.0 else 0.0
    return GammaCertificate(
        gamma_coeffs=tuple(int(c) for c in gc),
        gamma=tuple(float(g) for g in gvec),
        gamma_norm=gnorm,
        R0=float(R0),
        h=float(h),
        slab_mass=slab,
        total_mass=total,
        slab_ratio=slab_ratio,
        min_orth_raw=min_orth_raw,
        min_orth=min_orth,
        window=float(window),
    )


def check_gamma(lattice: Lattice, gamma_coeffs, measure: SphereMeasure,
                h: float, R0: float, orth_floor: float, slab_cap: float,
                window: Optional[float] = None
                ) -> tuple[bool, GammaCertificate]:
    """Evaluate the three admissibility conditions for a direction gamma.

    (1) |gamma| <= R0; (2) every reciprocal vector orthogonal to gamma inside
    the window is longer than orth_floor * R0^(1/(n-1)); (3) the sphere
    measure puts at most slab_cap * |gamma|^(-1) * max(h, R0^(-1/(n-1))) of
    its mass (relative) in the slab |(e', gamma)| <= h.  The window is a
    search bound, not a proof: vectors beyond it are not examined.
    """
    if h < 0 or R0 <= 0 or orth_floor <= 0 or slab_cap <= 0:
        raise ValueError("h must be >= 0 and R0, orth_floor, slab_cap positive")
    n = lattice.n
    if window is None:
        window = _default_window(lattice, R0, n, orth_floor)
    cert = _certificate(lattice, gamma_coeffs, measure, h, R0, window,
                        _dual_window(lattice, window))
    cond1 = cert.gamma_norm <= R0
    cond2 = (cert.min_orth_raw is None
             or cert.min_orth_raw > orth_floor * R0 ** (1.0 / (n - 1)))
    cond3 = cert.slab_ratio <= slab_cap
    return (cond1 and cond2 and cond3), cert


def find_gamma(lattice: Lattice, measure: SphereMeasure, h: float, R0: float,
               search_window: Optional[float] = None) -> GammaCertificate:
    """Best direction with |gamma| <= R0 under the slab objective.

    Minimises slab_ratio; ties broken by larger min_orth, then smaller
    |gamma|, then lexicographic coefficients.  The winner's certificate
    reports the achieved constants: the orthogonality condition holds for any
    floor below min_orth and the slab condition for any cap at or above
    slab_ratio.  The dual search window is enumerated once per call and
    every candidate is scored against it; `check_gamma` enumerates afresh.
    """
    if h < 0 or R0 <= 0:
        raise ValueError("h must be >= 0 and R0 positive")
    n = lattice.n
    if search_window is None:
        search_window = _default_window(lattice, R0, n, 1.0)
    coeffs, vecs = lattice.points_in_ball(R0)
    if coeffs.shape[0] == 0:
        raise ValueError("no lattice vectors inside |gamma| <= R0")
    dual = _dual_window(lattice, search_window)
    best = None
    best_key = None
    for row in coeffs:
        cert = _certificate(lattice, row, measure, h, R0, search_window, dual)
        orth_key = -cert.min_orth if cert.min_orth is not None else -math.inf
        key = (cert.slab_ratio, orth_key, cert.gamma_norm, cert.gamma_coeffs)
        if best_key is None or key < best_key:
            best, best_key = cert, key
    return best


def annulus_mask(vectors: np.ndarray, k: np.ndarray, e: np.ndarray,
                 kappa: float, beta: float) -> np.ndarray:
    """Which reciprocal vectors N put k + 2 pi N in the critical annulus.

    `vectors` holds the N as rows; a row is selected when the shifted
    momentum has |axial part along e| < beta and
    | kappa - |transverse part| | < beta.
    """
    xs = k[None, :] + 2.0 * math.pi * vectors
    axial = xs @ e
    perp = np.linalg.norm(xs - np.outer(axial, e), axis=1)
    return (np.abs(axial) < beta) & (np.abs(kappa - perp) < beta)
