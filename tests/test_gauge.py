"""Gauge pairs, the radial cutoff kernel, and the sup-norm bound check."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from diracband import gauge
from diracband.fields import FourierField, MeasureSpec, averaged_potential, sup_norm
from diracband.gauge import (DEFAULT_KERNEL_CONSTANT, EtaSpec, _quadrant_norm,
                             bessel_kernel_constant, build_phi, damping_factor,
                             default_kernel_constant, gauge_bound_check,
                             radial_kernel)
from helpers import (evaluate, outputs_under_blas_kernels,
                     random_real_vector_field)

GAMMA = (1, 0, 0)
E = np.array([1.0, 0.0, 0.0])  # GAMMA / |GAMMA| on the cubic lattice
ET = np.array([0.0, 1.0, 0.0])


def test_gauge_pair_rejects_bad_frame_inputs(lat3, rng):
    A = random_real_vector_field(lat3, rng, pairs=2)
    mu = MeasureSpec.dirac()
    with pytest.raises(ValueError, match="gamma must be nonzero"):
        build_phi(A, (0, 0, 0), mu, ET)
    with pytest.raises(ValueError, match="et must have unit length"):
        build_phi(A, GAMMA, mu, np.array([0.0, 2.0, 0.0]))
    with pytest.raises(ValueError, match="et must have unit length"):
        # passes the averaging's 1e-9 unit check, not the pair's 1e-10
        build_phi(A, GAMMA, mu, np.array([0.0, 1.0 + 5e-10, 0.0]))
    with pytest.raises(ValueError, match="et must be orthogonal to gamma"):
        build_phi(A, GAMMA, mu, E)


@pytest.mark.parametrize("kind", ["dirac", "plateau"])
def test_gauge_pair_solves_defect_system(lat3, rng, kind):
    mu = MeasureSpec.dirac() if kind == "dirac" else MeasureSpec.plateau(0.5, 1.5)
    for _ in range(5):
        A = random_real_vector_field(lat3, rng, pairs=4)
        At = averaged_potential(A, GAMMA, mu, ET)
        phi1, phi2 = build_phi(A, GAMMA, mu, ET)
        assert phi1.real and phi2.real
        diff = A - At
        for key in diff.coeffs:
            nvec = lat3.dual_point(key)
            nu1 = 2.0j * math.pi * float(np.dot(nvec, ET))
            nu2 = 2.0j * math.pi * float(np.dot(nvec, E))
            p1, p2 = phi1.coeff(key), phi2.coeff(key)
            a = complex(np.dot(diff.coeff(key), ET))
            b = complex(np.dot(diff.coeff(key), E))
            assert abs(nu1 * p1 - nu2 * p2 - a) < 1e-12
            assert abs(nu2 * p1 + nu1 * p2 - b) < 1e-12


def test_gauge_pair_matches_finite_differences(lat3, rng):
    # real-space check: directional derivatives recover the defect
    mu = MeasureSpec.dirac()
    A = random_real_vector_field(lat3, rng, pairs=3)
    At = averaged_potential(A, GAMMA, mu, ET)
    phi1, phi2 = build_phi(A, GAMMA, mu, ET)
    diff = A - At
    eps = 1e-5

    def dderiv(f, x, u):
        return (evaluate(f, x + eps * u) - evaluate(f, x - eps * u)) / (2 * eps)

    for x in rng.uniform(-1.0, 1.0, size=(4, 3)):
        d1p1 = dderiv(phi1, x, ET)
        d2p1 = dderiv(phi1, x, E)
        d1p2 = dderiv(phi2, x, ET)
        d2p2 = dderiv(phi2, x, E)
        want = evaluate(diff, x)
        assert abs(d1p1 - d2p2 - float(np.dot(want, ET))) < 1e-6
        assert abs(d2p1 + d1p2 - float(np.dot(want, E))) < 1e-6


def test_eta_spec():
    eta = EtaSpec()
    assert float(eta.eta(math.pi)) == 0.0
    assert float(eta.eta(2.0 * math.pi)) == 1.0
    assert float(eta.eta(1.5 * math.pi)) == 0.5
    taus = np.linspace(2.0, 7.0, 101)
    assert np.all(np.diff(eta.eta(taus)) >= 0.0)
    # derivative vanishes outside the band and matches a difference quotient
    assert float(eta.eta_prime(math.pi - 0.1)) == 0.0
    assert float(eta.eta_prime(2.0 * math.pi + 0.1)) == 0.0
    mid, step = 4.4, 1e-6
    fd = (float(eta.eta(mid + step)) - float(eta.eta(mid - step))) / (2 * step)
    assert abs(fd - float(eta.eta_prime(mid))) < 1e-6

    with pytest.raises(ValueError):
        EtaSpec(tau_lo=2.0, tau_hi=1.0)
    with pytest.raises(ValueError):
        EtaSpec(tau_lo=1.0, tau_hi=7.0)


def test_radial_kernel_against_quad():
    eta = EtaSpec()
    assert abs(float(radial_kernel(eta, np.array([0.0]))[0]) - 1.0) < 1e-12
    from scipy.special import j0
    for r in (0.5, 3.7, 12.0):
        want = quad(lambda tau: float(eta.eta_prime(tau)) * j0(tau * r),
                    eta.tau_lo, eta.tau_hi, epsabs=1e-13, limit=200)[0]
        got = float(radial_kernel(eta, np.array([r]))[0])
        assert abs(got - want) < 1e-10


@pytest.fixture(scope="module")
def polar_report():
    return bessel_kernel_constant(cross_check=False)


def test_kernel_constant_frozen(polar_report, monkeypatch):
    report = polar_report
    assert abs(report["constant"] - 1.7058460118707472) < 1e-10
    assert abs(report["norm_l1"] - 2.679536649524293) < 1e-10
    assert abs(report["constant"] - (2.0 / math.pi) * report["norm_l1"]) < 1e-14
    assert report["norm_l1_2d"] is None and report["cross_residual"] is None
    assert report["tail_estimate"] < 1e-7 * report["norm_l1"] / 4.0 * 10
    # without the cross route there is nothing to disagree with
    assert report["passes"] is True
    assert report["zero_count"] >= 50
    assert report["rmax"] >= 20.0
    # the routes must agree to 1e-4: a stand-in cross route that misses the
    # polar norm by a chosen residual (on a coarse, cheap profile) sets it
    coarse = dict(sample_step=0.1, radial_tol=1e-3)
    norm = bessel_kernel_constant(cross_check=False, **coarse)["norm_l1"]
    for residual, passes in ((1e-4 * (1.0 - 1e-9), True), (1.5e-4, False)):
        monkeypatch.setattr(gauge, "_quadrant_norm",
                            lambda *args, r=residual: norm * (1.0 + r) / 4.0)
        crossed = bessel_kernel_constant(**coarse)
        assert crossed["cross_residual"] == pytest.approx(residual, rel=1e-9)
        assert crossed["passes"] is passes


def test_kernel_sample_step_is_bounded_before_allocating():
    # 1e-8 would ask for a 14.9 GiB radial sample at rmax = 20
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="sample_step must be >= 0.001"):
            bessel_kernel_constant(sample_step=1e-8, cross_check=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_default_kernel_constant_is_the_polar_value(polar_report):
    # the literal is the function's value where it was pinned; other numpy or
    # scipy versions may move the function's last bits, not more
    assert default_kernel_constant() == DEFAULT_KERNEL_CONSTANT
    assert (abs(polar_report["constant"] - DEFAULT_KERNEL_CONSTANT)
            <= 1e-13 * DEFAULT_KERNEL_CONSTANT)


def test_quadrant_rule_matches_the_radial_integral():
    # over the quarter disc, x / r^2 * |f(r)| integrates to the integral of
    # |f| over [0, rmax]; for cos up to 7 pi / 2 that is 1 + 2 + 2 + 2
    zeros = np.array([0.5, 1.5, 2.5]) * math.pi
    got = _quadrant_norm(np.cos, zeros, 3.5 * math.pi)
    assert abs(got - 7.0) < 1e-9 * 7.0


def test_kernel_constant_independent_of_blas_kernel():
    # OpenBLAS picks its gemv kernel from OPENBLAS_CORETYPE; the constant must
    # come out with the same bits either way
    outs = outputs_under_blas_kernels(
        "from diracband.gauge import bessel_kernel_constant; "
        "print(repr(bessel_kernel_constant(cross_check=False)['constant']))")
    assert outs[0] == outs[1]
    assert abs(float(outs[0]) - 1.7058460118707472) < 1e-10


def test_damping_factor(lat3, rng):
    const = default_kernel_constant()
    A = random_real_vector_field(lat3, rng, pairs=2)
    mu = MeasureSpec.dirac()
    from diracband.fields import zero_field
    assert damping_factor(zero_field(lat3, "vector"), GAMMA, mu) == 1.0

    # documented single-pair example: sup-bound 0.1, |gamma| = 1
    v = np.array([0.0, 0.0, 0.05])
    doc = FourierField(lat3, "vector", {(0, 1, 0): v, (0, -1, 0): v}, real=True)
    got = damping_factor(doc, GAMMA, mu)
    assert abs(got - 0.5054337008315438) < 1e-12
    assert abs(got - math.exp(-0.4 * default_kernel_constant())) < 1e-15

    # finite smoothing radius switches the scale to 1/h once that is larger
    f1 = damping_factor(doc, GAMMA, MeasureSpec.plateau(0.25, 0.75))
    hi = sup_norm(doc)[1]
    t = 4.0
    norm = MeasureSpec.plateau(0.25, 0.75).norm_bound
    assert abs(f1 - math.exp(-4.0 * const * norm * t * hi)) < 1e-15

    with pytest.raises(ValueError):
        damping_factor(A, (0, 0, 0), mu)


@pytest.mark.parametrize("kind", ["dirac", "plateau"])
def test_gauge_bound_check_random_draws(lat3, rng, kind):
    mu = MeasureSpec.dirac() if kind == "dirac" else MeasureSpec.plateau(0.5, 1.5)
    for _ in range(3):
        A = random_real_vector_field(lat3, rng, pairs=4)
        result = gauge_bound_check(A, GAMMA, mu, ET)
        assert result["kernel_constant"] == default_kernel_constant()
        assert result["ok"]
        assert result["eta_multiplier_one"]
        assert result["phi1_sup_lo"] <= result["bound"] + 1e-15
        assert result["active_modes"] > 0
        assert result["t"] == (1.0 if kind == "dirac" else 2.0)


def test_gauge_bound_check_rejects_et_not_orthogonal_to_gamma(lat3, rng):
    A = random_real_vector_field(lat3, rng, pairs=3)
    tilted = np.array([0.6, 0.8, 0.0])
    with pytest.raises(ValueError, match="et must be orthogonal to gamma"):
        gauge_bound_check(A, GAMMA, MeasureSpec.dirac(), tilted)
