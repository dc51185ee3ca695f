"""Empirical verification harnesses for the spectral lower bounds.

Everything in this module produces EMPIRICAL certificates: statements about
truncations of the fiber operators on explicit mode windows and
quasimomentum grids, never proofs.  Smallest singular values take the
"auto" route of `fiber.sigma_min`: the closed form for potential-free
fibers, sparse LU plus Lanczos otherwise; dense LAPACK is the reference it
is tested against.  Reports carry the truncation metadata (cutoff, mode
count, grids) and, where available, closed-form cross-checks and randomized
lower-bound probes.

The three checks:

* `verify_thomas_bound`: on the face (k, gamma) = pi, scan imaginary shifts
  kappa and test sigma_min >= theta * pi / |gamma| * damping_factor; report
  the smallest shift after which the bound holds on the whole grid.
* `verify_weighted_split`: the two-zone weighted inequality; modes inside the
  critical annulus are weighted by the damped floor, the rest by their free
  factor g_minus.
* `weighted_floor`: the all-mode weighted floor (weights g_minus), whose
  value is exactly 1 for the free operator.

`condition_chain_pipeline` drives the direction searcher with the
Sobolev-weighted atomic measure built from a field's coefficients and
validates the smallness chain (sampled sup <= orthogonal coefficient sum <=
Cauchy-Schwarz split) at every sampled transverse direction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .fiber import (FiberPoint, ModeSet, assemble, check_dense_dim,
                    potential_stencil, sigma_min, sigma_min_probe,
                    weighted_sigma_min)
from .fields import (ConditionValue, FourierField, MeasureSpec, PotentialSet,
                     averaged_potential, condition_value, orthogonal_modes,
                     sup_norm, w_norm)
from .gauge import damping_factor, default_kernel_constant
from .lattice import Lattice, SphereMeasure, annulus_mask, find_gamma
from .util import pmap, transverse_directions, unit_grid


def k_face_grid(lattice: Lattice, gamma_coeffs, points_per_axis: int = 5
                ) -> np.ndarray:
    """Uniform grid on the face (k, gamma) = pi of the dual cell.

    Anchored at pi gamma / |gamma|^2 and spanned by the projections of the
    scaled reciprocal basis vectors onto the orthogonal complement of gamma
    (a greedy deterministic choice of n-1 independent projections).
    """
    if points_per_axis < 1:
        raise ValueError("points_per_axis must be positive")
    _, gvec, gnorm, e = lattice.direction(gamma_coeffs)
    base = math.pi * gvec / gnorm ** 2
    n = lattice.n

    spans: list[np.ndarray] = []
    accepted: list[np.ndarray] = []
    for row in lattice.reciprocal:
        w = 2.0 * math.pi * row
        w = w - float(np.dot(w, e)) * e
        w = w - float(np.dot(w, e)) * e  # second pass tightens orthogonality
        r = w.copy()
        for b in accepted:
            r = r - float(np.dot(r, b)) * b
        norm = float(np.linalg.norm(r))
        if norm > 1e-9 * (float(np.linalg.norm(w)) + 1.0):
            spans.append(w)
            accepted.append(r / norm)
        if len(spans) == n - 1:
            break
    if len(spans) != n - 1:
        raise ValueError("could not span the transverse section")

    fracs = unit_grid(points_per_axis, n - 1)  # (m^(n-1), n-1)
    return base[None, :] + fracs @ np.array(spans)


class _Face:
    """The face (k, gamma) = pi that all three checks scan, and its fibers.

    Holds gamma, |gamma|, e = gamma / |gamma| and the k grid; `scan` solves
    every (k, kappa) node of the grid on one mode window.
    """

    def __init__(self, pot: PotentialSet, gamma_coeffs,
                 k_points_per_axis: int) -> None:
        self.pot = pot
        self.gc, _, self.gnorm, self.e = pot.lattice.direction(gamma_coeffs)
        self.ks = k_face_grid(pot.lattice, self.gc, k_points_per_axis)

    @cached_property
    def w_bound(self) -> float:
        return w_norm(self.pot)

    def cutoff(self, cutoff: Optional[float], kappas) -> float:
        """The given cutoff, or one that clears the largest shift and |W|."""
        if cutoff is not None:
            return float(cutoff)
        kmax = float(np.max(np.linalg.norm(self.ks, axis=1)))
        return 3.0 * (max(kappas) + self.w_bound) + kmax

    def damping(self, measure: MeasureSpec, sphere_samples: int, what: str
                ) -> tuple[ConditionValue, float, float]:
        """(condition bracket, kernel constant, damping factor) of A on the face.

        Raises when the bracket reaches 1, where `what` is unavailable.
        """
        A = self.pot.A
        cond = condition_value(A, self.gc, measure, sphere_samples=sphere_samples)
        if cond.theta_hi >= 1.0:
            raise ValueError(f"averaged-field bracket reaches 1; {what} unavailable")
        return cond, default_kernel_constant(), damping_factor(A, self.gc, measure)

    def scan(self, kappas, cutoff: float, threads: int,
             weights: Optional[Callable] = None) -> tuple[ModeSet, np.ndarray]:
        """Mode window and the (len k, len kappas) table of smallest singular values.

        Without `weights` each node gives sigma_min(D); otherwise
        weighted_sigma_min(D, weights(D)).  A potential-free fiber takes the
        closed-form route; any other the sparse route, whose fallback is
        dense, so its size is checked against the dense limit before the
        first fiber is assembled.  The window's potential stencil is built
        here, before the nodes fan out to `pmap`'s workers.
        """
        modes = ModeSet.from_cutoff(self.pot.lattice, cutoff)
        if not self.pot.is_empty:
            check_dense_dim(len(modes) * self.pot.rep.M)
        potential_stencil(modes, self.pot)
        shape = (self.ks.shape[0], len(kappas))

        def solve(node):
            i, j = node
            fiber = FiberPoint(k=self.ks[i], e=self.e, kappa=kappas[j])
            op = assemble(modes, fiber, self.pot)
            if weights is None:
                return sigma_min(op)
            return weighted_sigma_min(op, weights(op))

        values = pmap(solve, list(np.ndindex(shape)), threads)
        return modes, np.array(values).reshape(shape)


@dataclass
class ThomasBoundReport:
    gamma_coeffs: tuple
    gamma_norm: float
    theta: float
    condition: ConditionValue
    damping: float
    bound: float
    kappas: list
    k_points: list
    sigma: np.ndarray  # (len k, len kappas)
    kappa_star: Optional[float]
    cutoff: float
    mode_count: int
    dim: int
    w_bound: float
    kernel_constant: float
    free_closed_form: Optional[np.ndarray] = None
    probe: Optional[dict] = None
    refinement: Optional[dict] = None

    @property
    def holds(self) -> bool:
        return self.kappa_star is not None

    def margin_rows(self) -> list:
        rows = []
        for i, k in enumerate(self.k_points):
            for j, kap in enumerate(self.kappas):
                rows.append({"k_index": i, "kappa": kap,
                             "sigma_min": float(self.sigma[i, j]),
                             "bound": self.bound,
                             "margin": float(self.sigma[i, j]) - self.bound})
        return rows

    def to_dict(self) -> dict:
        """`asdict` with `sigma` as sigma_table, verdict and holds added and
        the absent optional blocks left out."""
        out = asdict(self)
        out["sigma_table"] = out.pop("sigma")
        for key in ("free_closed_form", "probe", "refinement"):
            if out[key] is None:
                del out[key]
        return {**out, "verdict": "EMPIRICAL", "holds": self.holds}


def _kappa_star(sigma: np.ndarray, kappas, bound: float) -> Optional[float]:
    ok = np.min(sigma, axis=0) >= bound  # per kappa, worst k
    star = None
    for j in range(len(kappas) - 1, -1, -1):
        if ok[j]:
            star = float(kappas[j])
        else:
            break
    return star


def verify_thomas_bound(pot: PotentialSet, gamma_coeffs, measure: MeasureSpec,
                        theta: float, kappas=None, k_points_per_axis: int = 5,
                        cutoff: Optional[float] = None,
                        refine_factor: Optional[float] = None,
                        probe_count: int = 0, seed: int = 0,
                        sphere_samples: int = 4096,
                        threads: int = 1) -> ThomasBoundReport:
    """Scan the shifted fibers on the face (k, gamma) = pi against the bound.

    The bound is theta * pi / |gamma| * damping_factor(A).  Preconditions:
    the smallness bracket must stay below 1 and theta must fit inside
    (0, 1 - theta_hi).  kappa_star is the smallest scanned shift from which
    the bound holds at every grid node for all larger scanned shifts.
    """
    face = _Face(pot, gamma_coeffs, k_points_per_axis)
    cond, const, damping = face.damping(measure, sphere_samples, "bound")
    if not 0.0 < theta < 1.0 - cond.theta_hi:
        raise ValueError("theta must lie in (0, 1 - theta_hi)")
    bound = theta * math.pi / face.gnorm * damping

    if kappas is None:
        kappas = [math.pi / face.gnorm * 2.0 ** j for j in range(3)]
    kappas = [float(k) for k in kappas]
    if sorted(kappas) != kappas:
        raise ValueError("kappas must be increasing")
    cutoff = face.cutoff(cutoff, kappas)

    modes, sigma = face.scan(kappas, cutoff, threads)
    report = ThomasBoundReport(
        gamma_coeffs=tuple(int(c) for c in face.gc), gamma_norm=face.gnorm,
        theta=theta, condition=cond, damping=damping, bound=bound,
        kappas=kappas, k_points=[tuple(float(c) for c in k) for k in face.ks],
        sigma=sigma, kappa_star=_kappa_star(sigma, kappas, bound),
        cutoff=cutoff, mode_count=len(modes), dim=len(modes) * pot.rep.M,
        w_bound=face.w_bound, kernel_constant=const)
    if pot.is_empty:
        # sigma_min took the per-mode closed form (min g_minus) at every node
        report.free_closed_form = sigma.copy()
    if probe_count > 0:
        i, j = np.unravel_index(int(np.argmin(sigma)), sigma.shape)
        fiber = FiberPoint(k=face.ks[i], e=face.e, kappa=kappas[j])
        op = assemble(modes, fiber, pot)
        probe_val = sigma_min_probe(op, count=probe_count, seed=seed)
        report.probe = {"k_index": int(i), "kappa": float(kappas[j]),
                        "count": probe_count, "seed": seed,
                        "probe_min": probe_val,
                        "consistent": bool(probe_val >= sigma[i, j] - 1e-9)}
    if refine_factor is not None:
        fine_cutoff = cutoff * float(refine_factor)
        fine_modes, fine_sigma = face.scan(kappas, fine_cutoff, threads)
        rel = np.abs(fine_sigma - sigma) / np.maximum(np.abs(fine_sigma), 1e-300)
        report.refinement = {
            "cutoff": fine_cutoff,
            "mode_count": len(fine_modes),
            "dim": len(fine_modes) * pot.rep.M,
            "max_rel_change": float(np.max(rel)),
            "kappa_star": _kappa_star(fine_sigma, kappas, bound),
            "sigma_table": [[float(s) for s in row] for row in fine_sigma],
        }
    return report


# ---------------------------------------------------------------------------
# weighted bounds
# ---------------------------------------------------------------------------

@dataclass
class WeightedSplitReport:
    gamma_coeffs: tuple
    gamma_norm: float
    delta: float
    beta: float
    condition: ConditionValue
    damping: float
    floor: float
    rows: list = field(default_factory=list)
    one_minus_delta_star: float = math.nan
    cutoff: float = 0.0
    mode_count: int = 0
    kernel_constant: float = 0.0

    @property
    def holds(self) -> bool:
        return bool(self.rows) and all(r["passes"] for r in self.rows)

    def to_dict(self) -> dict:
        return {**asdict(self), "verdict": "EMPIRICAL", "holds": self.holds}


def verify_weighted_split(pot: PotentialSet, gamma_coeffs,
                          measure: MeasureSpec, delta: float, beta: float,
                          kappas, k_points_per_axis: int = 3,
                          cutoff: Optional[float] = None,
                          sphere_samples: int = 4096,
                          threads: int = 1) -> WeightedSplitReport:
    """Two-zone weighted lower bound on the face (k, gamma) = pi.

    Per node, modes in the critical annulus (half-width beta) get the damped
    floor, damping * (1 - theta_hi) * pi / |gamma|, as weight and the rest
    their free factor g_minus; the check is whether the squared weighted
    minimum stays above 1 - delta.  Requires every kappa > beta.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    kappas = [float(k) for k in kappas]
    if not all(k > beta for k in kappas):
        raise ValueError("every kappa must exceed beta")
    face = _Face(pot, gamma_coeffs, k_points_per_axis)
    cond, const, damping = face.damping(measure, sphere_samples, "floor")
    floor = damping * (1.0 - cond.theta_hi) * math.pi / face.gnorm
    cutoff = face.cutoff(cutoff, kappas)

    def annulus(modes: ModeSet, k: np.ndarray, kappa: float) -> np.ndarray:
        return annulus_mask(modes.vectors, k, face.e, kappa, beta)

    def weights(op) -> np.ndarray:
        w = op.mode_g_factors()[:, 0]  # same floats the auto path uses
        w[annulus(op.modes, op.fiber.k, op.fiber.kappa)] = floor
        return w

    modes, ratio = face.scan(kappas, cutoff, threads, weights)
    report = WeightedSplitReport(
        gamma_coeffs=tuple(int(c) for c in face.gc), gamma_norm=face.gnorm,
        delta=delta, beta=beta, condition=cond, damping=damping, floor=floor,
        cutoff=cutoff, mode_count=len(modes), kernel_constant=const)
    for i, j in np.ndindex(ratio.shape):
        mask = annulus(modes, face.ks[i], kappas[j])
        value = float(ratio[i, j])
        report.rows.append({"k_index": i, "kappa": kappas[j],
                            "annulus_modes": int(np.sum(mask)),
                            "ratio_sq": value * value,
                            "passes": bool(value * value >= 1.0 - delta)})
    report.one_minus_delta_star = min(r["ratio_sq"] for r in report.rows)
    return report


def weighted_floor(pot: PotentialSet, gamma_coeffs, kappas,
                   k_points_per_axis: int = 3, cutoff: Optional[float] = None,
                   threads: int = 1) -> dict:
    """All-mode weighted floor: min over the grid of sigma_min(D W^{-1}).

    Weights are the free factors g_minus.  For the free operator the value
    is exactly 1 at every node; for small potentials it obeys the
    perturbation floor 1 - W |gamma| / pi, which is reported alongside;
    `passes` says whether the minimum reaches that floor (to 1e-12).
    """
    face = _Face(pot, gamma_coeffs, k_points_per_axis)
    kappas = [float(k) for k in kappas]
    cutoff = face.cutoff(cutoff, kappas)
    modes, ratio = face.scan(kappas, cutoff, threads,
                             lambda op: op.mode_g_factors()[:, 0])
    rows = [{"k_index": i, "kappa": kappas[j], "ratio": float(ratio[i, j])}
            for i, j in np.ndindex(ratio.shape)]
    ratio_min = min(r["ratio"] for r in rows)
    floor = 1.0 - face.w_bound * face.gnorm / math.pi
    return {
        "verdict": "EMPIRICAL",
        "gamma_coeffs": [int(c) for c in face.gc],
        "gamma_norm": face.gnorm,
        "kappas": kappas,
        "rows": rows,
        "ratio_min": ratio_min,
        "perturbation_floor": floor,
        "passes": bool(ratio_min >= floor - 1e-12),
        "w_bound": face.w_bound,
        "cutoff": cutoff,
        "mode_count": len(modes),
    }


# ---------------------------------------------------------------------------
# direction-search pipeline
# ---------------------------------------------------------------------------

def sobolev_direction_measure(A: FourierField, q: float) -> SphereMeasure:
    """Atomic sphere measure with weight |N|^2q |A_N|^2 at each direction N/|N|.

    Parallel modes accumulate onto the same atom (reduced integer direction);
    opposite modes stay antipodal atoms.
    """
    lattice = A.lattice
    acc: dict = {}
    for key, val in A.coeffs.items():
        ik = np.asarray(key, dtype=np.int64)
        if not np.any(ik):
            continue
        g = int(np.gcd.reduce(np.abs(ik)[np.abs(ik) > 0]))
        prim = tuple(int(c) for c in ik // g)
        nvec = lattice.dual_point(key)
        weight = float(np.linalg.norm(nvec)) ** (2.0 * q) * \
            float(np.linalg.norm(np.asarray(val))) ** 2
        acc[prim] = acc.get(prim, 0.0) + weight
    points, weights = [], []
    for prim in sorted(acc):
        nvec = lattice.dual_point(prim)
        points.append(nvec / float(np.linalg.norm(nvec)))
        weights.append(acc[prim])
    return SphereMeasure(points=np.reshape(points, (-1, lattice.n)),
                         weights=np.array(weights))


def condition_chain_pipeline(A: FourierField, q: float, h: float, h1: float,
                             R0_list, et_samples: int = 16,
                             grid_per_axis: int = 32,
                             search_window: Optional[float] = None,
                             seed: int = 0) -> dict:
    """Search directions over growing radii and validate the smallness chain.

    For each R0 the searcher runs on the Sobolev-weighted atomic measure of
    A; at every sampled transverse direction et the chain

        |gamma| * grid-sup |avg A|  <=  |gamma| * sum of |A_N| over the
        orthogonal modes with |(N, et)| <= h1  <=  Cauchy-Schwarz split

    is asserted.  Requires 2 q > n - 2 (summability of the weights) and a
    zero-mean A.  The outer member per R0 is reported so its decay across
    radii can be observed.
    """
    lattice = A.lattice
    n = lattice.n
    if not 2.0 * q > n - 2:
        raise ValueError("need 2 q > n - 2")
    if np.max(np.abs(np.asarray(A.mean()))) > 1e-13:
        raise ValueError("the field must have zero mean")
    if not 0.0 < h < h1:
        raise ValueError("need 0 < h < h1")
    mu1 = sobolev_direction_measure(A, q)
    mu = MeasureSpec.plateau(h, h1)
    sobolev_total = float(np.sum(mu1.weights))

    rows = []
    for R0 in R0_list:
        cert = find_gamma(lattice, mu1, h, float(R0), search_window)
        gc, _, gnorm, e = lattice.direction(cert.gamma_coeffs)

        orth = []
        for key in orthogonal_modes(A, gc):
            nvec = lattice.dual_point(key)
            orth.append((key, float(np.linalg.norm(nvec)), nvec,
                         float(np.linalg.norm(np.asarray(A.coeffs[key])))))
        right_sq = sum(r ** (2.0 * q) * a * a for _, r, _, a in orth)
        ets = transverse_directions(e, et_samples, np.random.default_rng(seed))

        per_et = []
        chain_ok = True
        for et in ets:
            av = averaged_potential(A, gc, mu, et)
            f_lo = gnorm * sup_norm(av, grid_per_axis)[0]
            sel = [(r, a) for _, r, nvec, a in orth
                   if abs(float(np.dot(nvec, et))) <= h1]
            middle = gnorm * sum(a for _, a in sel)
            inv_sum = sum(r ** (-2.0 * q) for r, _ in sel)
            outer = gnorm * math.sqrt(inv_sum) * math.sqrt(right_sq)
            ok = (f_lo <= middle * (1.0 + 1e-12) + 1e-15 and
                  middle <= outer * (1.0 + 1e-12) + 1e-15)
            chain_ok = chain_ok and ok
            per_et.append({"et": [float(c) for c in et], "f_lo": f_lo,
                           "middle": middle, "outer": outer, "ok": bool(ok)})
        rows.append({
            "R0": float(R0),
            "certificate": cert.to_dict(),
            "orthogonal_modes": len(orth),
            "f_lo_max": max(p["f_lo"] for p in per_et),
            "middle_max": max(p["middle"] for p in per_et),
            "outer_max": max(p["outer"] for p in per_et),
            "chain_ok": bool(chain_ok),
            "per_et": per_et,
        })
    outer_values = [r["outer_max"] for r in rows]
    return {
        "verdict": "EMPIRICAL",
        "q": q,
        "h": h,
        "h1": h1,
        "measure_norm": mu.norm_bound,
        "sobolev_total": sobolev_total,
        "atom_count": int(mu1.points.shape[0]),
        "rows": rows,
        "outer_values": outer_values,
        "outer_decreasing": all(b < a + 1e-15 for a, b in
                                zip(outer_values[:-1], outer_values[1:])),
        "chain_ok": all(r["chain_ok"] for r in rows),
    }
