"""Gauge pairs that integrate the averaged-field defect, and their bound.

Given a zero-mean vector field A, a lattice vector gamma and a unit
transverse direction et, this module averages A along gamma to At and builds
two scalar trigonometric polynomials (Phi1, Phi2) whose in-plane derivatives
reproduce the defect A - At:

    d1 Phi1 - d2 Phi2 = (A - At) . et      (transverse component)
    d2 Phi1 + d1 Phi2 = (A - At) . e       (axial component)

where d1, d2 differentiate along et and e = gamma / |gamma|.  The pair is
uniformly bounded by a kernel constant times |mu| * max(|gamma|, 1/h) * sup|A|.
The constant depends only on a smooth radial cutoff eta: it is (2/pi) times
the L1 norm of G(x, y) = x / (x^2 + y^2) * integral of eta'(tau) J0(tau r) dtau.
`bessel_kernel_constant` evaluates that norm by a polar reduction and
cross-validates it against a fixed two-dimensional Gauss-Legendre rule in
Cartesian coordinates.  The constant of the default cutoff is pinned as the
module literal DEFAULT_KERNEL_CONSTANT, the polar route's value, so the
processes that only read it do not recompute it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .fields import (FourierField, MeasureSpec, averaged_potential,
                     coefficient_sum, sup_norm)
from .util import (brentq, check_unit, gauss_legendre_edges,
                   gauss_legendre_panels)

# bessel_kernel_constant(cross_check=False)["constant"] for EtaSpec(), with
# numpy 2.4.6 and scipy 1.17.1; test_gauge checks it against the function
DEFAULT_KERNEL_CONSTANT = 1.705846011870747
# Finest radial sample spacing of `bessel_kernel_constant`.  The sample holds
# rmax / step points (rmax from 20 to 210), and the constant's cost grows as
# 1 / step: 8.6 s at this spacing against 1.4 s at 0.01 without the cross
# route, in process on a 2-core x86-64 machine.
SAMPLE_STEP_MIN = 1e-3

# ---------------------------------------------------------------------------
# gauge pair
# ---------------------------------------------------------------------------

def _defect_modes(A: FourierField, gamma_coeffs, measure: MeasureSpec,
                  et: np.ndarray):
    """(key, N, (N, et), (N, e), (d_N, et), (d_N, e)) per mode of the defect
    d = A - At, in stored order, with e = gamma / |gamma| and At the average
    of A along gamma.  et must be a unit vector (to 1e-10) orthogonal to gamma.
    """
    e = A.lattice.direction(gamma_coeffs)[3]
    et = check_unit(np.asarray(et, dtype=float), "et", tol=1e-10)
    At = averaged_potential(A, gamma_coeffs, measure, et)
    for key, val in (A - At).coeffs.items():
        nvec = A.lattice.dual_point(key)
        yield (key, nvec, float(np.dot(nvec, et)), float(np.dot(nvec, e)),
               complex(np.dot(val, et)), complex(np.dot(val, e)))


def build_phi(A: FourierField, gamma_coeffs, measure: MeasureSpec,
              et: np.ndarray) -> tuple[FourierField, FourierField]:
    """Coefficient-wise solution of the in-plane div/curl system.

    With nu1 = (N, et), nu2 = (N, e) and the components a, b of the defect
    A - At along (et, e), the coefficients are

        Phi1_N = (nu1 a + nu2 b) / (2 pi i (nu1^2 + nu2^2))
        Phi2_N = -(nu2 a - nu1 b) / (2 pi i (nu1^2 + nu2^2))

    and modes with nu1 = nu2 = 0 carry no defect and are dropped.
    """
    coeffs1, coeffs2 = {}, {}
    for key, nvec, nu1, nu2, a, b in _defect_modes(A, gamma_coeffs, measure, et):
        plane = math.hypot(nu1, nu2)
        if plane <= 1e-12 * float(np.linalg.norm(nvec)):
            # the defect vanishes identically on such modes
            if max(abs(a), abs(b)) > 1e-10:
                raise ValueError(f"defect at in-plane-zero mode {key}")
            continue
        denom = 2.0j * math.pi * (nu1 * nu1 + nu2 * nu2)
        p1 = (nu1 * a + nu2 * b) / denom
        p2 = -(nu2 * a - nu1 * b) / denom
        if p1 != 0.0:
            coeffs1[key] = p1
        if p2 != 0.0:
            coeffs2[key] = p2
    return (FourierField(A.lattice, "scalar", coeffs1, real=A.real),
            FourierField(A.lattice, "scalar", coeffs2, real=A.real))


# ---------------------------------------------------------------------------
# radial cutoff and the kernel constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaSpec:
    """Smooth radial cutoff: 0 below tau_lo, 1 at and above tau_hi.

    The transition uses the standard exp(-1/s) ramp, so eta is infinitely
    smooth and the boundary values are attained exactly.  tau_hi must stay
    at or below 2 pi for the mode-multiplier identity used by the gauge
    bound check.
    """

    tau_lo: float = math.pi
    tau_hi: float = 2.0 * math.pi

    def __post_init__(self):
        if not (0.0 < self.tau_lo < self.tau_hi <= 2.0 * math.pi + 1e-12):
            raise ValueError("need 0 < tau_lo < tau_hi <= 2 pi")

    def eta(self, tau):
        tau = np.asarray(tau, dtype=float)
        return _ramp((tau - self.tau_lo) / (self.tau_hi - self.tau_lo))

    def eta_prime(self, tau):
        tau = np.asarray(tau, dtype=float)
        return (_ramp_prime((tau - self.tau_lo) / (self.tau_hi - self.tau_lo))
                / (self.tau_hi - self.tau_lo))


def _ramp_exps(sm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-1/s) and exp(-1/(1 - s)) on the open unit interval.

    Evaluated with scalar math.exp so the bits do not depend on which SIMD
    loop numpy dispatches np.exp to on the running CPU.
    """
    vals = sm.tolist()
    a = np.array([math.exp(-1.0 / x) for x in vals])
    b = np.array([math.exp(-1.0 / (1.0 - x)) for x in vals])
    return a, b


def _ramp(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    if np.any(mid):
        a, b = _ramp_exps(s[mid])
        out[mid] = a / (a + b)
    return out


def _ramp_prime(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    mid = (s > 0.0) & (s < 1.0)
    if np.any(mid):
        sm = s[mid]
        a, b = _ramp_exps(sm)
        da = a / sm ** 2
        db = b / (1.0 - sm) ** 2
        out[mid] = (da * b + a * db) / (a + b) ** 2
    return out


@lru_cache(maxsize=128)
def _radial_rule(eta: EtaSpec, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and eta'-weighted weights of the transition-band rule (read-only)."""
    nodes, weights = gauss_legendre_panels(eta.tau_lo, eta.tau_hi, panels)
    wd = weights * eta.eta_prime(nodes)
    nodes.flags.writeable = False
    wd.flags.writeable = False
    return nodes, wd


def radial_kernel(eta: EtaSpec, r: np.ndarray) -> np.ndarray:
    """g(r) = integral over the transition band of eta'(tau) J0(tau r) dtau.

    Composite Gauss-Legendre with the panel count scaled to the oscillation
    of J0 at the largest radius requested; g(0) = 1 by construction.

    Each g(r) is a fixed-order numpy sum over the quadrature nodes, and the
    eta' weights come from scalar math.exp, so the value does not depend on
    the BLAS kernel or on numpy's SIMD dispatch.  The last bits may still
    differ across numpy, scipy or LAPACK versions (scipy's j0 and the
    Legendre nodes may round differently); the accuracy of the quadrature,
    not its last bits, is what the callers rely on.
    """
    from scipy import special

    r = np.atleast_1d(np.asarray(r, dtype=float))
    rmax = float(np.max(r)) if r.size else 1.0
    cycles = (eta.tau_hi - eta.tau_lo) * max(rmax, 1.0) / (2.0 * math.pi)
    panels = int(max(16, math.ceil(3.0 * cycles) + 8))
    nodes, wd = _radial_rule(eta, panels)
    out = np.empty_like(r)
    chunk = 4096
    for i in range(0, r.size, chunk):
        vals = special.j0(np.outer(r[i:i + chunk], nodes))
        vals *= wd
        out[i:i + chunk] = np.sum(vals, axis=1)
    return out


def bessel_kernel_constant(eta: EtaSpec = EtaSpec(), *,
                           sample_step: float = 0.01,
                           radial_tol: float = 1e-7,
                           cross_check: bool = True) -> dict:
    """Kernel constant (2/pi) * L1(G) for the gauge-pair bound.

    Polar route: with G(x, y) = cos(phi) * g(r) / r in polar coordinates and
    area element r dr dphi, the angular factor integrates to 4, so
    L1(G) = 4 * integral of |g(r)| dr.  The radial integral is split at the
    zeros of g (bracketed on a fine sample, refined by Brent's method) and runs
    to rmax; rmax starts at 20 and grows by 10 a round until the pieces ending
    in its last 5 hold under radial_tol of the total (or rmax passes 200).

    Cross route: 4 times the integral of |G| over the quarter disc x, y > 0,
    r < rmax by the fixed Cartesian rule of `_quadrant_norm`, on a cubic-spline
    surrogate of g through the samples (spacing sample_step) that the zeros
    were bracketed on.  It never reduces to the radial integral.  The relative
    difference of the two routes is reported; at the default sample_step the
    spline's interpolation error, about 3e-9, is most of it.  `passes` says
    the routes agree to 1e-4 relative; without the cross route `norm_l1_2d`
    and `cross_residual` are None and `passes` is true.
    """
    if not sample_step >= SAMPLE_STEP_MIN:
        raise ValueError(f"sample_step must be >= {SAMPLE_STEP_MIN}")
    block = 5.0
    # radial profile, extended until the tail is negligible
    rmax = 4.0 * block
    while True:
        rs = np.arange(0.0, rmax + sample_step, sample_step)
        gs = radial_kernel(eta, rs)
        # locate sign changes, refine by brentq on the true profile
        zeros = []
        signs = np.sign(gs)
        for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
            z = brentq(lambda r: float(radial_kernel(eta, np.array([r]))[0]),
                       rs[i], rs[i + 1], xtol=1e-13)
            zeros.append(z)
        breaks = np.concatenate([[0.0], zeros, [rmax]])
        pieces = []
        for a, b in zip(breaks[:-1], breaks[1:]):
            nodes, weights = gauss_legendre_panels(a, b, max(2, int((b - a) / 0.5) + 1),
                                                   order=24)
            pieces.append((b, float(np.sum(weights * np.abs(radial_kernel(eta, nodes))))))
        total = sum(p for _, p in pieces)
        tail = sum(p for b, p in pieces if b > rmax - block)
        if tail < radial_tol * total or rmax > 200.0:
            break
        rmax += 2.0 * block
    norm_polar = 4.0 * total

    norm_2d = None
    residual = None
    if cross_check:
        from scipy import interpolate

        norm_2d = 4.0 * _quadrant_norm(interpolate.CubicSpline(rs, gs),
                                       np.array(zeros), rmax)
        residual = abs(norm_2d - norm_polar) / norm_polar

    return {
        "constant": (2.0 / math.pi) * norm_polar,
        "norm_l1": norm_polar,
        "norm_l1_2d": norm_2d,
        "cross_residual": residual,
        "passes": residual is None or residual <= 1e-4,
        "rmax": rmax,
        "tail_estimate": tail,
        "zero_count": len(zeros),
        "tau_lo": eta.tau_lo,
        "tau_hi": eta.tau_hi,
        "sample_step": sample_step,
    }


def _quadrant_norm(profile, zeros: np.ndarray, rmax: float) -> float:
    """Integral of x / r^2 * |profile(r)| over x, y > 0, r < rmax.

    A tensor-product composite Gauss-Legendre rule of order 12 in Cartesian
    coordinates.  The outer x axis is cut at the zeros of the profile and at
    rmax.  Each piece is graded geometrically toward its right end, where the
    inner integral has a (z - x)^(3/2) singularity as the line at x stops
    crossing the circle r = z; the first piece is also graded toward x = 0.  Each inner line is cut where it crosses the zero circles,
    at y = sqrt(z^2 - x^2), and where it leaves the quadrant, and graded
    toward y = 0 on the scale x, where x / r^2 peaks; each of its pieces is
    one panel.  The lines are evaluated 128 at a time.
    """
    order, lines = 12, 128
    grade = 4.0 ** -np.arange(4)
    breaks = np.concatenate([[0.0], zeros, [rmax]])
    a, b = breaks[:-1, None], breaks[1:, None]
    edges = np.sort(np.concatenate([(b - (b - a) * grade).ravel(),
                                    breaks[1] * grade[1:], [rmax]]))
    xs, wx = (v.ravel() for v in gauss_legendre_edges(edges, order))
    levels = int(math.ceil(math.log(rmax / xs[0], 4.0))) + 1
    total = 0.0
    for i in range(0, xs.size, lines):
        x = xs[i:i + lines, None]
        top = np.sqrt(rmax * rmax - x * x)
        cuts = np.concatenate([np.zeros_like(x),
                               np.minimum(x * 4.0 ** np.arange(levels), top),
                               np.sqrt(np.maximum(zeros * zeros - x * x, 0.0)),
                               top], axis=1)
        y, wy = gauss_legendre_edges(np.sort(cuts, axis=1), order)
        x = x[..., None]
        r2 = x * x + y * y
        inner = np.sum(x / r2 * np.abs(profile(np.sqrt(r2))) * wy, axis=(1, 2))
        total += float(np.sum(wx[i:i + lines] * inner))
    return total


def default_kernel_constant() -> float:
    """The kernel constant of the default cutoff EtaSpec(), a module literal.

    DEFAULT_KERNEL_CONSTANT holds the bits `bessel_kernel_constant(
    cross_check=False)["constant"]` gives with numpy 2.4.6 and scipy 1.17.1, so
    no process recomputes it and the reports that read it carry the same
    constant on every machine and library version.  Elsewhere the function's
    last bits may differ from the literal; the two agree to `radial_tol`
    (about 1e-7 relative), the accuracy of either.
    """
    return DEFAULT_KERNEL_CONSTANT


# ---------------------------------------------------------------------------
# damping factor and the bound check
# ---------------------------------------------------------------------------

def _gauge_scale(A: FourierField, gamma_coeffs, measure: MeasureSpec) -> float:
    """t = max(|gamma|, 1/h), h the measure's; 1/h is 0 for h = inf (point mass)."""
    gnorm = A.lattice.direction(gamma_coeffs)[2]
    return max(gnorm, 0.0 if math.isinf(measure.h) else 1.0 / measure.h)


def damping_factor(A: FourierField, gamma_coeffs, measure: MeasureSpec) -> float:
    """exp(-4 k |mu| max(|gamma|, 1/h) sup|A|), k the default kernel constant;
    1 iff A = 0."""
    t = _gauge_scale(A, gamma_coeffs, measure)
    return math.exp(-4.0 * default_kernel_constant() * measure.norm_bound * t
                    * coefficient_sum(A))


def gauge_bound_check(A: FourierField, gamma_coeffs, measure: MeasureSpec,
                      et: np.ndarray, grid_per_axis: Optional[int] = None) -> dict:
    """Empirical check of the gauge-pair sup bound at the frame (et, e).

    Builds (Phi1, Phi2) from A, gamma, the measure and the unit transverse
    direction et (which must be orthogonal to gamma); compares grid lower
    bounds of their sup-norms against k * |mu| * max(|gamma|, 1/h) * sup|A|
    (certified upper), k the constant of the default cutoff eta, and asserts
    the exact multiplier identity: every mode carrying defect has
    eta(2 pi t |in-plane frequency|) == 1 for that same eta.
    """
    const = default_kernel_constant()
    t = _gauge_scale(A, gamma_coeffs, measure)
    phi1, phi2 = build_phi(A, gamma_coeffs, measure, et)
    a_lo, a_hi = sup_norm(A, grid_per_axis)
    bound = const * measure.norm_bound * t * a_hi
    lo1 = sup_norm(phi1, grid_per_axis)[0]
    lo2 = sup_norm(phi2, grid_per_axis)[0]

    # multiplier identity on active modes
    eta, eta_ok, active = EtaSpec(), True, 0
    for _, _, nu1, nu2, a, b in _defect_modes(A, gamma_coeffs, measure, et):
        if max(abs(a), abs(b)) == 0.0:
            continue
        active += 1
        if float(eta.eta(2.0 * math.pi * t * math.hypot(nu1, nu2))) != 1.0:
            eta_ok = False
    ok1 = lo1 <= bound * (1.0 + 1e-12) + 1e-15
    ok2 = lo2 <= bound * (1.0 + 1e-12) + 1e-15
    return {
        "kernel_constant": const,
        "t": t,
        "measure_norm": measure.norm_bound,
        "a_sup_lo": a_lo,
        "a_sup_hi": a_hi,
        "bound": bound,
        "phi1_sup_lo": lo1,
        "phi2_sup_lo": lo2,
        "phi1_ok": bool(ok1),
        "phi2_ok": bool(ok2),
        "eta_multiplier_one": bool(eta_ok),
        "active_modes": active,
        "ok": bool(ok1 and ok2 and eta_ok),
    }
