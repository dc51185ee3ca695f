"""Trigonometric fields over a lattice, smoothing measures, and potentials.

Everything here is a finitely supported Fourier series indexed by reciprocal
coefficient vectors N: scalar, vector (C^n) or matrix (C^MxM) valued.  The
two workhorse operations are

* `averaged_potential`: the direction average of a vector field along a
  lattice vector gamma combined with a line mollification along a transverse
  unit vector et.  In Fourier form it keeps only modes orthogonal to gamma
  and multiplies each by the measure transform at 2 pi (N, et).
* `condition_value`: a bracket for the key smallness quantity
  |gamma| / pi * sup over transverse unit et of the sup-norm of
  (avg A, et) + i (avg A, e); below 1 the averaged field is weak enough for
  the lower-bound machinery downstream.

Sup-norms are always reported as brackets (grid maximum, coefficient sum):
lo <= true sup <= hi.  The grid maxima of `sup_norm` and `condition_value`
sample the cell grid of the coordinate axes some key uses: a series whose
keys are all 0 on an axis does not depend on that coordinate, so the full
grid only repeats the values of the smaller one.  `condition_value` scans
its directions in blocks whose (directions x grid points) table of complex
sums stays within DIRECTION_BLOCK_BYTES (128 MiB), and so do its phase
tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .clifford import CliffordRep, class_flags
from .lattice import GRID_LIMIT, Lattice
from .util import (brentq, check_unit, gauss_legendre_panels, golden_max,
                   orthonormal_complement, transverse_blocks, unit_grid)

KINDS = ("scalar", "vector", "matrix")
# Bytes of one block of `condition_value`'s (directions x grid points) table
# of complex sums: a block holds min(256, budget / (16 B x grid points))
# directions, and a grid whose (keys x grid points) phase table does not fit
# is refused before any table is built
DIRECTION_BLOCK_BYTES = 2 ** 27
# Largest plateau h1.  `_plateau_window`'s interpolant and sign grid grow
# with h1, so no resolution runs out; but `_plateau_norm` is checked against
# an independent quadrature only up to h1 = 16, and its cost grows as h1^2.
PLATEAU_H1_MAX = 16.0


def _coeff_norm(kind: str, value) -> float:
    if kind == "scalar":
        return abs(complex(value))
    if kind == "vector":
        return float(np.linalg.norm(value))
    return float(np.linalg.norm(value, ord=2))


class FourierField:
    """Finitely supported Fourier series over the reciprocal lattice.

    coeffs maps integer coefficient tuples N to values: complex scalars,
    complex (n,) vectors or complex (dim, dim) matrices.  `real=True` asserts
    the conjugate symmetry c(-N) = conj(c(N)) (real-valued field);
    `hermitian=True` asserts c(-N) = c(N)^H (Hermitian-matrix-valued field).
    Keys are stored sorted, so iteration order and floating-point sums are
    reproducible.
    """

    def __init__(self, lattice: Lattice, kind: str, coeffs: dict,
                 real: bool = False, hermitian: bool = False,
                 dim: Optional[int] = None) -> None:
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        self.lattice = lattice
        self.kind = kind
        n = lattice.n
        if kind == "vector":
            dim = n if dim is None else dim
            if dim != n:
                raise ValueError("vector fields must have one component per axis")
        if kind == "matrix" and dim is None:
            raise ValueError("matrix fields need an explicit dim")
        self.dim = dim
        store = {}
        for key in sorted(tuple(int(c) for c in k) for k in coeffs):
            raw = coeffs[key]  # int tuples hash-compare equal to numpy-int tuples
            if len(key) != n:
                raise ValueError(f"coefficient index {key} has wrong length")
            if kind == "scalar":
                val = complex(raw)
            else:
                val = np.asarray(raw, dtype=complex)
                want = (dim,) if kind == "vector" else (dim, dim)
                if val.shape != want:
                    raise ValueError(f"coefficient at {key} must have shape {want}")
                val = val.copy()
                val.flags.writeable = False
            store[tuple(key)] = val
        self.coeffs = store
        self.real = bool(real)
        self.hermitian = bool(hermitian)
        if self.real:
            self._check_pair_symmetry(lambda v: np.conj(v), "real-valued")
        if self.hermitian:
            if kind != "matrix":
                raise ValueError("hermitian flag applies to matrix fields")
            self._check_pair_symmetry(lambda v: np.conj(v).T, "Hermitian-valued")

    def _check_pair_symmetry(self, mate: Callable, label: str) -> None:
        for key, val in self.coeffs.items():
            neg = tuple(-c for c in key)
            other = self.coeff(neg)
            if np.max(np.abs(np.asarray(other) - mate(np.asarray(val)))) > 1e-12:
                raise ValueError(f"coefficients violate the {label} symmetry at {key}")

    # -- basic queries -----------------------------------------------------

    def is_empty(self) -> bool:
        return not self.coeffs

    def _zero_value(self):
        if self.kind == "scalar":
            return 0.0j
        if self.kind == "vector":
            return np.zeros(self.dim, dtype=complex)
        return np.zeros((self.dim, self.dim), dtype=complex)

    def coeff(self, key):
        return self.coeffs.get(tuple(int(c) for c in key), self._zero_value())

    def mean(self):
        """Zeroth Fourier coefficient (the cell average)."""
        return self.coeff((0,) * self.lattice.n)

    # -- evaluation --------------------------------------------------------

    def _stacked(self) -> tuple[np.ndarray, np.ndarray]:
        keys = np.array(list(self.coeffs), dtype=np.int64)
        vals = np.array([self.coeffs[tuple(k)] for k in keys], dtype=complex)
        return keys, vals

    def _synthesise(self, phase_table: Callable, count: int) -> np.ndarray:
        """Series values at `count` points, given the (S, count) phase table
        that `phase_table` builds from the stored keys."""
        if self.is_empty():
            return np.zeros((count,) + np.shape(self._zero_value()),
                            dtype=float if self.real else complex)
        keys, vals = self._stacked()
        out = np.tensordot(phase_table(keys).T, vals, axes=(1, 0))
        return out.real if self.real else out

    # -- arithmetic --------------------------------------------------------

    def __sub__(self, other: "FourierField") -> "FourierField":
        if not isinstance(other, FourierField):
            raise TypeError("can only combine FourierField instances")
        if other.kind != self.kind or not self.lattice.same_as(other.lattice):
            raise ValueError("fields must share kind and lattice")
        out = {}
        for key in sorted(set(self.coeffs) | set(other.coeffs)):
            out[key] = np.asarray(self.coeff(key)) - np.asarray(other.coeff(key))
        return FourierField(self.lattice, self.kind, out,
                            real=self.real and other.real,
                            hermitian=self.hermitian and other.hermitian,
                            dim=self.dim)


def zero_field(lattice: Lattice, kind: str, dim: Optional[int] = None
               ) -> FourierField:
    return FourierField(lattice, kind, {}, real=True, hermitian=kind == "matrix",
                        dim=dim)


# ---------------------------------------------------------------------------
# smoothing measures
# ---------------------------------------------------------------------------

def _bump_ramp(s):
    """Smooth monotone 0 -> 1 ramp; exactly 0 for s <= 0 and 1 for s >= 1."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    if np.any(mid):
        sm = s[mid]
        a = np.exp(-1.0 / sm)
        b = np.exp(-1.0 / (1.0 - sm))
        out[mid] = a / (a + b)
    return out


@dataclass(frozen=True)
class MeasureSpec:
    """Even measure on the line described through its Fourier transform.

    The transform equals 1 on [-2 pi h, 2 pi h].  `dirac` is the unit point
    mass (transform identically 1; any plateau radius is valid, stored as
    +inf by default).  `plateau` has a smooth even transform that is 1 up to
    2 pi h and 0 beyond 2 pi h1, built from the standard exp(-1/s) ramp.
    Its density, the synthesised inverse transform, vanishes at every
    k / (h + h1), k >= 1; its total variation, the integral of |density|
    between those and its other zeros, agrees with an independent quadrature
    to 1e-9 and is recorded in norm_bound.
    """

    kind: str
    h: float
    h1: Optional[float]
    norm_bound: float

    def __post_init__(self):
        # damping_factor and the gauge check read h from here unchecked
        if not self.h > 0:
            raise ValueError("plateau radius must be positive")

    @staticmethod
    def dirac(h: float = math.inf) -> "MeasureSpec":
        return MeasureSpec(kind="dirac", h=float(h), h1=None, norm_bound=1.0)

    @staticmethod
    def plateau(h: float, h1: float) -> "MeasureSpec":
        if not (0.0 < h < h1):
            raise ValueError("need 0 < h < h1")
        if h1 > PLATEAU_H1_MAX:
            raise ValueError(f"need h1 <= {PLATEAU_H1_MAX}, the plateau norm's "
                             f"accuracy is verified no further")
        norm = _plateau_norm(float(h), float(h1))
        return MeasureSpec(kind="plateau", h=float(h), h1=float(h1),
                           norm_bound=norm)

    def transform(self, p):
        """Fourier transform evaluated at p (vectorised)."""
        p = np.asarray(p, dtype=float)
        if self.kind == "dirac":
            return np.ones_like(p)
        lo = 2.0 * math.pi * self.h
        hi = 2.0 * math.pi * self.h1
        return _bump_ramp((hi - np.abs(p)) / (hi - lo))

    def density(self, t):
        """Synthesised density of the plateau measure (dirac has none)."""
        if self.kind != "plateau":
            raise ValueError("only the plateau measure has a density")
        return _plateau_density(self.h, self.h1, np.asarray(t, dtype=float))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "h": None if math.isinf(self.h) else self.h,
                "h1": self.h1, "norm_bound": self.norm_bound}


def _plateau_density(h: float, h1: float, t: np.ndarray) -> np.ndarray:
    hi = 2.0 * math.pi * h1
    lo = 2.0 * math.pi * h
    # enough panels to resolve the oscillation cos(p t) over [0, hi]
    tmax = float(np.max(np.abs(t))) if t.size else 1.0
    panels = int(max(24, math.ceil(1.5 * hi * max(tmax, 1.0) / (2.0 * math.pi)) + 8))
    nodes, weights = gauss_legendre_panels(0.0, hi, panels)
    weighted = weights * _bump_ramp((hi - nodes) / (hi - lo))
    # 1/pi * integral of transform * cos(p t) dp, summed along the contiguous
    # node axis in numpy's fixed order (no BLAS product, so the bits do not
    # depend on the OpenBLAS kernel)
    return np.sum(np.cos(np.outer(t, nodes)) * weighted, axis=1) / math.pi


def _clenshaw(c, x):
    """The Chebyshev series sum of c_k T_k(x), by Clenshaw's recurrence."""
    b1 = b2 = 0.0
    for ck in c[:0:-1]:
        b1, b2 = 2.0 * x * b1 - b2 + ck, b1
    return x * b1 - b2 + c[0]


def _plateau_window(h: float, h1: float, t0: float, t1: float
                    ) -> tuple[np.ndarray, float]:
    """Zeros of the plateau density f in [t0, t1], and its absolute mass there.

    One density call, at deg + 1 Chebyshev-Lobatto points, gives f's
    interpolant; deg exceeds by 24 the radians pi h1 (t1 - t0) that f's top
    frequency turns through on half the window, so the series matches f to
    rounding (Trefethen, ATAP, ch. 8).  The ramp's r(s) + r(1 - s) = 1 makes
    f(t) = sin(pi (h + h1) t) g(t) / pi: f vanishes at every k / (h + h1),
    k >= 1, and those are cuts.  The zeros of g are bracketed by the sign of
    f (-1)^floor((h + h1) t) on 8 deg + 1 points, less those within
    1e-9 / (h + h1) of a known zero, where that sign is rounding, and refined
    by `brentq` on the series.  The masses come from its antiderivative.
    """
    deg = math.ceil(math.pi * h1 * (t1 - t0)) + 24
    mid, half, rate = 0.5 * (t0 + t1), 0.5 * (t1 - t0), h + h1
    vals = _plateau_density(h, h1, mid + half * np.cos(np.pi * np.arange(deg + 1) / deg))
    vals[[0, deg]] *= 0.5
    # DCT-I, c_k = 2/deg sum_j'' f_j cos(pi j k / deg), in numpy's fixed order
    k = np.arange(deg + 1)
    c = np.sum(np.cos(np.pi / deg * (np.outer(k, k) % (2 * deg))) * vals, axis=1)
    c[[0, deg]] *= 0.5
    c = (c * (2.0 / deg)).tolist()

    def signed(x):
        return _clenshaw(c, x) * (1.0 - 2.0 * (np.floor(rate * (mid + half * x)) % 2.0))

    known = [(j / rate - mid) / half for j in range(
        max(1, math.ceil(t0 * rate)), math.floor(t1 * rate) + 1)]
    x = np.linspace(-1.0, 1.0, 8 * deg + 1)
    u = rate * (mid + half * x)
    x = x[np.abs(u - np.round(u)) > 1e-9]
    s = np.signbit(signed(x))
    cuts = np.array(sorted([-1.0, 1.0] + known + [
        brentq(signed, x[i], x[i + 1], xtol=1e-13) for i in np.nonzero(s[:-1] != s[1:])[0]]))
    # antiderivative: C_k = (c_{k-1} - c_{k+1}) / 2k, with c_0 counted twice
    ext = np.array([2.0 * c[0]] + c[1:] + [0.0, 0.0])
    anti = [0.0] + ((ext[:-2] - ext[2:]) / (2.0 * np.arange(1, deg + 2))).tolist()
    masses = np.abs(np.diff(_clenshaw(anti, cuts)))
    return mid + half * cuts[1:-1], half * float(np.sum(masses))


@lru_cache(maxsize=32)
def _plateau_norm(h: float, h1: float) -> float:
    """Total variation of the plateau measure: integral of |density|.

    The scan runs out in windows of width max(2, 4 / h1), each from one
    density call (`_plateau_window`), and stops after 3 windows that each add
    under 1e-10 of the total.  The cuts are the exact zeros k / (h + h1) and
    the bracketed others; the result agrees with an independent quadrature of
    |density| between its zeros to 1e-9 for h1 up to `PLATEAU_H1_MAX`.
    """
    total, quiet, t0 = 0.0, 0, 0.0
    step = max(2.0, 4.0 / h1)
    while t0 < 400.0 * step:
        part = _plateau_window(h, h1, t0, t0 + step)[1]
        total += part
        t0 += step
        if part < 1e-10 * max(total, 1.0):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    return 2.0 * total


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

class PotentialSet:
    """Vector potential A plus the two matrix potentials, with their classes.

    Every V0 coefficient must commute with the first n generators and every
    V1 coefficient must anticommute with them (the zero matrix does both).
    `composite` packs everything into one matrix-valued field
    V0 + V1 - sum_j A_j alpha_j, which is how the potential enters a fiber.
    """

    def __init__(self, A: FourierField, V0: FourierField, V1: FourierField,
                 rep: CliffordRep) -> None:
        if A.kind != "vector":
            raise ValueError("A must be a vector field")
        if V0.kind != "matrix" or V1.kind != "matrix":
            raise ValueError("V0 and V1 must be matrix fields")
        if V0.dim != rep.M or V1.dim != rep.M:
            raise ValueError(f"matrix potentials must act on C^{rep.M}")
        if A.lattice.n != rep.n:
            raise ValueError("field dimension and generator count disagree")
        if not (A.lattice.same_as(V0.lattice) and A.lattice.same_as(V1.lattice)):
            raise ValueError("A, V0 and V1 must share one lattice")
        for name, field, idx in (("V0", V0, 0), ("V1", V1, 1)):
            for key, val in field.coeffs.items():
                commutes, anticommutes = class_flags(val, rep)
                ok = commutes if idx == 0 else anticommutes
                if not ok:
                    raise ValueError(
                        f"{name} coefficient at {key} is not in class s{idx}")
        self.A = A
        self.V0 = V0
        self.V1 = V1
        self.rep = rep
        self.lattice = A.lattice

    @classmethod
    def zero(cls, lattice: Lattice, rep: CliffordRep) -> "PotentialSet":
        return cls(zero_field(lattice, "vector"),
                   zero_field(lattice, "matrix", dim=rep.M),
                   zero_field(lattice, "matrix", dim=rep.M), rep)

    @property
    def is_empty(self) -> bool:
        return self.A.is_empty() and self.V0.is_empty() and self.V1.is_empty()

    def composite(self) -> FourierField:
        rep = self.rep
        out = {}
        keys = sorted(set(self.A.coeffs) | set(self.V0.coeffs) | set(self.V1.coeffs))
        for key in keys:
            val = np.zeros((rep.M, rep.M), dtype=complex)
            val += np.asarray(self.V0.coeff(key))
            val += np.asarray(self.V1.coeff(key))
            a = np.asarray(self.A.coeff(key))
            for j in range(rep.n):
                val -= a[j] * rep.alphas[j]
            out[key] = val
        return FourierField(self.lattice, "matrix", out, dim=rep.M)


def coefficient_sum(field: FourierField) -> float:
    """Sum of the coefficient norms: a certified upper bound on the field's sup."""
    total = 0.0
    for val in field.coeffs.values():
        total += _coeff_norm(field.kind, val)
    return total


def sup_norm(field: FourierField, grid_per_axis: Optional[int] = None
             ) -> tuple[float, float]:
    """Bracket (lo, hi) for the sup of the pointwise norm of the field.

    hi is the coefficient-norm sum (a rigorous upper bound); lo is the
    maximum over the uniform cell grid, with grid_per_axis points on each
    coordinate axis some key uses (a rigorous lower bound, equal to the
    maximum over the full grid of the cell).  Pointwise norms: |.| for
    scalars, Euclidean for vectors, spectral for matrices.
    """
    if field.is_empty():
        return 0.0, 0.0
    hi = coefficient_sum(field)
    keys = np.array(list(field.coeffs), dtype=np.int64)
    if grid_per_axis is None:
        span = int(np.max(np.max(keys, axis=0) - np.min(keys, axis=0)))
        grid_per_axis = int(min(33, max(2 * span + 1, 9)))
    spanned = _spanned_axes(keys)
    vals = field._synthesise(lambda _: _grid_phases(spanned, grid_per_axis),
                             grid_per_axis ** spanned.shape[1])
    if field.kind == "scalar":
        lo = float(np.max(np.abs(vals)))
    elif field.kind == "vector":
        lo = float(np.max(np.linalg.norm(vals, axis=1)))
    else:
        lo = float(np.max(np.linalg.svd(vals, compute_uv=False)[:, 0]))
    return lo, hi


def w_norm(pot: PotentialSet) -> float:
    """Certified upper bound n * sup|A| + sup|V0| + sup|V1| on the potential size."""
    return (pot.rep.n * coefficient_sum(pot.A) + coefficient_sum(pot.V0)
            + coefficient_sum(pot.V1))


# ---------------------------------------------------------------------------
# direction averaging
# ---------------------------------------------------------------------------

def averaged_potential(A: FourierField, gamma_coeffs, measure: MeasureSpec,
                       et: np.ndarray) -> FourierField:
    """Average A along the lattice vector gamma and mollify along et.

    Fourier coefficients: modes with (N, gamma) != 0 (an exact integer test
    on the coefficient vectors) are annihilated; surviving modes are scaled
    by the measure transform at 2 pi (N, et).  Requires et to be a unit
    vector orthogonal to gamma.
    """
    if A.kind != "vector":
        raise ValueError("averaging applies to vector fields")
    lattice = A.lattice
    gc, gvec, gnorm, _ = lattice.direction(gamma_coeffs)
    et = check_unit(np.asarray(et, dtype=float), "et")
    if abs(float(np.dot(et, gvec))) > 1e-10 * gnorm:
        raise ValueError("et must be orthogonal to gamma")
    out = {}
    for key, val in A.coeffs.items():
        if int(np.dot(np.asarray(key, dtype=np.int64), gc)) != 0:
            continue
        nvec = lattice.dual_point(key)
        mult = float(measure.transform(2.0 * math.pi * float(np.dot(nvec, et))))
        if mult == 0.0:
            continue
        out[key] = mult * np.asarray(val)
    return FourierField(lattice, "vector", out, real=A.real)


def orthogonal_modes(A: FourierField, gc: np.ndarray) -> list:
    """Nonzero keys N with (N, gamma) = 0, in stored (sorted) order.

    `gc` holds gamma's integer coefficients, so the test is exact.
    """
    return [k for k in A.coeffs
            if int(np.dot(np.asarray(k, dtype=np.int64), gc)) == 0 and any(k)]


def _spanned_axes(karr: np.ndarray) -> np.ndarray:
    """The key rows without the coordinate axes on which every key is 0.

    A dropped axis adds only exact zeros to each phase (N, xi), so the cell
    grid of the axes left holds the same values as the full grid, which
    repeats each of them once per position on the dropped axes.  Keeps the
    first axis when no key uses any.
    """
    used = np.any(karr != 0, axis=0)
    return karr[:, used] if used.any() else karr[:, :1]


def _grid_points(karr: np.ndarray, grid: int) -> int:
    """grid^d, the cell grid of the d axes of the key rows `karr`.

    Refuses a phase table of more than GRID_LIMIT entries.
    """
    n = karr.shape[1]
    if karr.shape[0] * grid ** n > GRID_LIMIT:
        raise ValueError(
            f"a cell grid of {grid}^{n} points for {karr.shape[0]} modes needs "
            f"{karr.shape[0] * grid ** n} phase entries, over the limit "
            f"{GRID_LIMIT}; use a smaller grid")
    return grid ** n


def _grid_phases(karr: np.ndarray, grid: int) -> np.ndarray:
    """The (rows, grid^d) table exp(2 pi i (N, xi)) over the cell grid xi of
    the d axes of the key rows `karr`, refused as `_grid_points` refuses."""
    _grid_points(karr, grid)
    # (S, G); the grid is a temporary, freed before the complex table exists
    table = 2.0j * math.pi * (karr @ unit_grid(grid, karr.shape[1]).T)
    return np.exp(table, out=table)  # in place: one complex table at a time


def _block_height(karr: np.ndarray, grid: int) -> int:
    """Directions per block of `condition_value`'s table on this cell grid.

    Refuses, before any table is built, a grid whose (keys x grid points)
    phase table exceeds DIRECTION_BLOCK_BYTES; a direction's row, no longer
    than that table, then fits too.
    """
    row = 16 * _grid_points(karr, grid)
    table = karr.shape[0] * row
    if table > DIRECTION_BLOCK_BYTES:
        raise ValueError(
            f"a cell grid of {grid}^{karr.shape[1]} points for "
            f"{karr.shape[0]} modes needs {table} bytes of phases, over the "
            f"budget {DIRECTION_BLOCK_BYTES}; use a smaller grid")
    return min(256, DIRECTION_BLOCK_BYTES // row)


def condition_value(A: FourierField, gamma_coeffs, measure: MeasureSpec,
                    sphere_samples: int = 4096, scan_grid: int = 16,
                    refine_grid: int = 48, rng=None) -> dict:
    """Bracket the smallness quantity theta for a zero-mean vector field.

    hi comes from the coefficient sum |gamma| / pi * sum over modes
    orthogonal to gamma of sup|transform| * b_N, with b_N = |A_N| for
    real-valued fields and the slightly larger certified combination bound
    for complex-valued ones.  lo scans the unit vectors et orthogonal to
    gamma that `transverse_blocks` builds 256 at a time (a uniform circle when
    n = 3, seeded random directions otherwise) and takes grid maxima of
    |(avg A, et) + i (avg A, e)|; the best one is evaluated again on the
    finer refine grid, after a golden-section refinement of its angle when
    n = 3.  Both grids cover only the axes the orthogonal keys use, and the
    scan takes its directions in blocks of at most DIRECTION_BLOCK_BYTES
    (128 MiB) of table; a scan or refine grid whose phase table exceeds that
    budget is refused before the scan starts.  Returns the report dict:
    theta_lo, theta_hi, best_et, the sups f_lo and f_hi (theta = |gamma| f /
    pi) and the direction count samples, 0 when no mode is orthogonal to
    gamma.  The condition holds when theta_hi < 1.
    """
    if A.kind != "vector":
        raise ValueError("condition_value applies to vector fields")
    if _coeff_norm(A.kind, A.mean()) > 1e-13:
        raise ValueError("the field must have zero mean")
    lattice = A.lattice
    n = lattice.n
    gc, _, gnorm, e = lattice.direction(gamma_coeffs)
    keys = orthogonal_modes(A, gc)

    # certified upper bound
    hi_sum = 0.0
    for key in keys:
        v = np.asarray(A.coeffs[key])
        if A.real:
            bound = float(np.linalg.norm(v))
        else:
            axial = complex(np.dot(v, e))
            bound = float(np.linalg.norm(v - axial * e)) + abs(axial)
        hi_sum += bound
    f_hi = hi_sum
    theta_hi = gnorm * f_hi / math.pi

    # sampled lower bound
    if not keys:
        zero_et = orthonormal_complement(e)[0]
        return {"theta_lo": 0.0, "theta_hi": 0.0,
                "best_et": tuple(float(c) for c in zero_et),
                "f_lo": 0.0, "f_hi": 0.0, "samples": 0}
    karr = np.array(keys, dtype=np.int64)
    vals = np.array([np.asarray(A.coeffs[k]) for k in keys])  # (S, n)
    nvecs = karr @ lattice.reciprocal  # (S, n)
    spanned = _spanned_axes(karr)
    _block_height(spanned, refine_grid)  # refuse before the scan
    height = _block_height(spanned, scan_grid)
    phases = _grid_phases(spanned, scan_grid)

    def sup_for_et(et_batch: np.ndarray, use_phases) -> np.ndarray:
        # coefficients of (avg A, et) + i (avg A, e) per sample
        mult = measure.transform(2.0 * math.pi * (nvecs @ et_batch.T))  # (S, B)
        comb = vals @ et_batch.T + 1.0j * (vals @ e)[:, None]  # (S, B)
        rows = (mult * comb).T  # (B, S)
        g = rows @ use_phases  # (B, G)
        return np.max(np.abs(g), axis=1)

    best_val, best, best_row = -1.0, 0, None
    # directions are built 256 at a time whatever the block height, so that
    # their bits do not depend on it
    for i, chunk in transverse_blocks(e, sphere_samples, np.random.default_rng(
            0 if rng is None else rng), 256):
        for lo in range(0, chunk.shape[0], height):
            ets = chunk[lo:lo + height]
            # a single row would take BLAS's matrix-vector route, whose bits
            # differ from the matrix-matrix route of a longer block
            sups = sup_for_et(ets if ets.shape[0] > 1
                              else np.repeat(ets, 2, axis=0), phases)
            j = int(np.argmax(sups[:ets.shape[0]]))
            if sups[j] > best_val:
                best_val, best, best_row = float(sups[j]), i + lo + j, ets[j]
    del phases
    fphases = _grid_phases(spanned, refine_grid)

    def objective(et: np.ndarray) -> float:
        return float(sup_for_et(et[None, :], fphases)[0])

    if n == 3:
        # golden-section search for the best angle around the best sample
        u, v = orthonormal_complement(e)

        def on_circle(phi: float) -> np.ndarray:
            return math.cos(phi) * u + math.sin(phi) * v

        width = 2.0 * math.pi / sphere_samples
        best_phi = best * width
        phi_star, f_best = golden_max(lambda phi: objective(on_circle(phi)),
                                      best_phi - width, best_phi + width)
        if f_best < best_val:
            phi_star, f_best = best_phi, objective(on_circle(best_phi))
        best_et = on_circle(phi_star)
    else:
        best_et = best_row
        f_best = objective(best_et)
    f_lo = max(f_best, best_val)
    theta_lo = gnorm * f_lo / math.pi
    return {"theta_lo": theta_lo, "theta_hi": theta_hi,
            "best_et": tuple(float(c) for c in best_et),
            "f_lo": f_lo, "f_hi": f_hi, "samples": sphere_samples}
