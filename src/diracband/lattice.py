"""Period lattices, their reciprocals, and direction-vector searches.

A lattice is stored by its basis rows E_1..E_n; the reciprocal basis rows
satisfy (E_j, E*_l) = delta_jl.  A lattice vector gamma = sum m_j E_j and a
reciprocal vector gamma' = sum m'_l E*_l pair as (gamma, gamma') = m . m',
so orthogonality between the two lattices is decided in exact integer
arithmetic on the coefficient vectors, whatever the basis entries are.

The searcher at the bottom scores candidate directions gamma by how little
mass an atomic sphere measure leaves near the hyperplane orthogonal to
gamma, which is the quantity controlling the averaged-potential bounds.
It scores all candidates in one numpy pass, in blocks of bounded size, and
builds a certificate for the winner alone.  Both take their keys from
`_candidate_keys`, which is batch-invariant by construction: its products
are elementwise multiply-and-adds summed axis by axis, so a row's keys have
the same bits alone as in any block, and the winner and its report are
those of a loop over all candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .util import check_memory

# Entries per block of the candidate scoring temporaries (512 KiB of float64).
_BLOCK = 2 ** 16


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
        coeffs = self.points_in_ball(cutoff / (2.0 * math.pi), dual=True)[0]
        return np.concatenate([np.zeros((1, self.n), dtype=np.int64), coeffs])


def enumerate_points(basis: np.ndarray, radius: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """All nonzero lattice vectors with |v| <= radius.

    Returns (coeffs, vectors) sorted by (|v|, lexicographic coefficients).
    Completeness comes from the coefficient bound |m_j| <= radius * |E*_j|.
    The box is checked against the memory budget before it is built.
    """
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[0]
    dual = reciprocal_basis(basis)
    reach = [radius * float(np.linalg.norm(row)) for row in dual]
    if not all(0.0 <= r < math.inf for r in reach):  # NaN fails too
        raise ValueError("radius must be nonnegative and its box finite")
    bounds = [int(math.floor(r + 1e-9)) for r in reach]
    points = math.prod(2 * b + 1 for b in bounds)
    # 3 (n + 1) words a point at most: the box's coefficients, vectors and
    # norms, and the float coefficients, the squares or the points kept
    check_memory(24 * (n + 1) * points, f"the coefficient box of "
                 f"{' x '.join(str(2 * b + 1) for b in bounds)} points for "
                 f"lattice points within radius {radius:g}",
                 "use a smaller R0, window or cutoff")
    coeffs = np.stack(np.meshgrid(
        *[np.arange(-b, b + 1, dtype=np.int64) for b in bounds],
        indexing="ij"), axis=-1).reshape(-1, n)
    coeffs = np.delete(coeffs, points // 2, axis=0)  # the origin, at the centre
    vectors = coeffs @ basis
    # the arithmetic of np.linalg.norm(vectors, axis=1), one temporary fewer
    norms = np.sqrt(np.sum(vectors * vectors, axis=1))
    coeffs = coeffs[norms <= radius]  # one copy at a time
    vectors = vectors[norms <= radius]
    norms = norms[norms <= radius]
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


def _default_window(lattice: Lattice, R0: float, n: int, scale: float) -> float:
    return max(2.0 * scale * R0 ** (1.0 / (n - 1)),
               10.0 * lattice.shortest_length(dual=True))


def _dual_window(lattice: Lattice, window: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and norms of the nonzero reciprocal vectors within
    `window`, sorted by norm."""
    dual_coeffs, dual_vecs = lattice.points_in_ball(window, dual=True)
    return dual_coeffs, np.linalg.norm(dual_vecs, axis=1)


def _slab_ratio(slab, total: float, gnorm, h: float, R0: float, n: int):
    """(slab / total) / (|gamma|^-1 max(h, R0^(-1/(n-1)))), 0 for no mass.

    Elementwise on arrays with the bits of the scalar expression.
    """
    if total <= 0.0:
        return 0.0 * gnorm
    return (slab / total) / ((1.0 / gnorm) * max(h, R0 ** (-1.0 / (n - 1))))


def _certificate(lattice: Lattice, gamma_coeffs, measure: SphereMeasure,
                 h: float, R0: float, window: float,
                 dual: tuple[np.ndarray, np.ndarray]) -> dict:
    """Score gamma against `dual`, the `_dual_window` of `window`.

    The report dict: gamma's coefficients, vector and norm, R0, h, the slab
    and total masses, and slab_ratio, which is (slab mass / total mass)
    divided by |gamma|^(-1) * max(h, R0^(-1/(n-1))): the smallest cap for
    which the slab condition holds.  min_orth_raw is the shortest reciprocal
    vector orthogonal to gamma inside the search window, and min_orth that
    length divided by R0^(1/(n-1)): the orthogonality condition holds for
    every floor below it.  Both are None, and orthogonal_found false, when
    the window holds no such vector.
    """
    n = lattice.n
    gc = np.asarray(gamma_coeffs, dtype=np.int64).reshape(1, n)
    gvecs, gnorms, slabs = _candidate_keys(lattice, gc, measure, h)
    gnorm, slab = float(gnorms[0]), float(slabs[0])
    if gnorm == 0.0:
        raise ValueError("gamma must be nonzero")
    raw = float(_min_orth_raw(gc, dual)[0])
    min_orth_raw = None if math.isinf(raw) else raw
    scale1 = R0 ** (1.0 / (n - 1))
    min_orth = None if min_orth_raw is None else min_orth_raw / scale1
    total = measure.total_mass
    return {
        "gamma_coeffs": tuple(int(c) for c in gc[0]),
        "gamma": tuple(float(g) for g in gvecs[0]),
        "gamma_norm": gnorm,
        "R0": float(R0),
        "h": float(h),
        "slab_mass": slab,
        "total_mass": total,
        "slab_ratio": _slab_ratio(slab, total, gnorm, h, R0, n),
        "min_orth_raw": min_orth_raw,
        "min_orth": min_orth,
        "window": float(window),
        "orthogonal_found": min_orth_raw is not None,
    }


def check_gamma(lattice: Lattice, gamma_coeffs, measure: SphereMeasure,
                h: float, R0: float, orth_floor: float, slab_cap: float,
                window: Optional[float] = None
                ) -> tuple[bool, dict]:
    """Evaluate the three admissibility conditions for a direction gamma.

    (1) |gamma| <= R0; (2) every reciprocal vector orthogonal to gamma inside
    the window is longer than orth_floor * R0^(1/(n-1)); (3) the sphere
    measure puts at most slab_cap * |gamma|^(-1) * max(h, R0^(-1/(n-1))) of
    its mass (relative) in the slab |(e', gamma)| <= h.  The window is a
    search bound, not a proof: vectors beyond it are not examined.  Returns
    (all three hold, gamma's `_certificate` report).
    """
    if h < 0 or R0 <= 0 or orth_floor <= 0 or slab_cap <= 0:
        raise ValueError("h must be >= 0 and R0, orth_floor, slab_cap positive")
    n = lattice.n
    if window is None:
        window = _default_window(lattice, R0, n, orth_floor)
    cert = _certificate(lattice, gamma_coeffs, measure, h, R0, window,
                        _dual_window(lattice, window))
    cond1 = cert["gamma_norm"] <= R0
    cond2 = (not cert["orthogonal_found"]
             or cert["min_orth_raw"] > orth_floor * R0 ** (1.0 / (n - 1)))
    cond3 = cert["slab_ratio"] <= slab_cap
    return (cond1 and cond2 and cond3), cert


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a * b over the last axis, broadcast, added axis by axis: each
    entry is rounded alone, with the same bits whatever else the arrays hold."""
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


def _candidate_keys(lattice: Lattice, coeffs: np.ndarray,
                    measure: SphereMeasure, h: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """gamma, |gamma| and slab mass of every candidate row of `coeffs`.

    Batch-invariant by construction: every product is a `_dot`, and each
    distinct slab (a row of the candidates x atoms mask) is summed once over
    its masked weights, so a row's keys have the same bits alone as in any
    block.
    """
    gvecs = _dot(coeffs[:, None, :].astype(float), lattice.basis.T)
    gnorm = np.sqrt(_dot(gvecs, gvecs))
    slab = np.zeros(coeffs.shape[0])
    pts = measure.points
    if pts.shape[0]:
        step = max(1, _BLOCK // pts.shape[0])
        for lo in range(0, coeffs.shape[0], step):
            mask = np.abs(_dot(gvecs[lo:lo + step, None, :], pts)) <= h
            first, which = _distinct_rows(mask)
            masses = np.array([np.sum(measure.weights[mask[i]]) for i in first])
            slab[lo:lo + step] = masses[which]
    return gvecs, gnorm, slab


def _distinct_rows(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the distinct rows of a boolean matrix, in the
    order of np.unique(np.packbits(mask, axis=1), axis=0): each row packed
    into zero-padded big-endian 64-bit words (one word up to 64 columns),
    sorted by one stable np.lexsort, so `first` holds each group's first row.
    """
    packed = np.packbits(mask, axis=1)
    padded = np.zeros((mask.shape[0], -(-packed.shape[1] // 8) * 8), np.uint8)
    padded[:, :packed.shape[1]] = packed
    words = padded.view(">u8").astype(np.uint64)
    order = np.lexsort(words.T[::-1])
    ranked = words[order]
    start = np.ones(order.size, dtype=bool)
    start[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(start) - 1
    return order[start], inverse


def _min_orth_raw(gcs: np.ndarray, dual: tuple[np.ndarray, np.ndarray]
                  ) -> np.ndarray:
    """Shortest dual-window norm orthogonal to each row of `gcs`; inf if none.

    The window is sorted by norm, so the first orthogonal row is the
    shortest: rows are paired in blocks, and a candidate leaves the search
    at its first orthogonal row.
    """
    dual_coeffs, dual_norms = dual
    out = np.full(gcs.shape[0], np.inf)
    todo = np.arange(gcs.shape[0])
    lo = 0
    while todo.size and lo < dual_norms.shape[0]:
        hi = lo + max(1, _BLOCK // todo.size)
        orth = (dual_coeffs[lo:hi] @ gcs[todo].T) == 0  # exact integers
        hit = np.any(orth, axis=0)
        out[todo[hit]] = dual_norms[lo + np.argmax(orth[:, hit], axis=0)]
        todo, lo = todo[~hit], hi
    return out


def find_gamma(lattice: Lattice, measure: SphereMeasure, h: float, R0: float,
               search_window: Optional[float] = None) -> dict:
    """Best direction with |gamma| <= R0 under the slab objective.

    Minimises slab_ratio; ties broken by larger min_orth (no orthogonal
    vector in the window beats any), then smaller |gamma|, then
    lexicographic coefficients.  Returns the winner's `_certificate`
    report, whose keys are the achieved constants: the orthogonality
    condition holds for any floor below min_orth and the slab condition for
    any cap at or above slab_ratio.

    Every candidate is scored in one numpy pass, in blocks of bounded size,
    by `_candidate_keys`, whose keys are batch-invariant by construction:
    they are the bits one `_certificate` per candidate gives.  min_orth is
    computed only for the candidates tied at the smallest ratio, from the
    exact integer pairing with the dual window, which is enumerated once
    per call.  The winner's certificate comes from `_certificate`;
    `check_gamma` enumerates afresh.
    """
    if h < 0 or R0 <= 0:
        raise ValueError("h must be >= 0 and R0 positive")
    n = lattice.n
    if search_window is None:
        search_window = _default_window(lattice, R0, n, 1.0)
    coeffs, _ = lattice.points_in_ball(R0)
    if coeffs.shape[0] == 0:
        raise ValueError("no lattice vectors inside |gamma| <= R0")
    dual = _dual_window(lattice, search_window)
    _, gnorm, slab = _candidate_keys(lattice, coeffs, measure, h)
    ratio = _slab_ratio(slab, measure.total_mass, gnorm, h, R0, n)
    tied = np.flatnonzero(ratio == ratio.min())
    orth_key = -(_min_orth_raw(coeffs[tied], dual) / R0 ** (1.0 / (n - 1)))
    order = np.lexsort(tuple(coeffs[tied, j] for j in range(n - 1, -1, -1))
                       + (gnorm[tied], orth_key))
    return _certificate(lattice, coeffs[tied[order[0]]], measure, h, R0,
                        search_window, dual)

