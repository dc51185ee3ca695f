"""Fourier fields, smoothing measures, potentials and direction averaging."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from diracband import fields, util
from diracband.fields import (FourierField, MeasureSpec, PotentialSet,
                              _grid_phases, averaged_potential,
                              condition_value, sup_norm, w_norm, zero_field)
from diracband.lattice import Lattice
from golden import regenerate as golden
from helpers import (average_by_quadrature, evaluate, evaluate_cell_grid,
                     field_on_axes, full_grid_phases, full_grid_sup,
                     outputs_under_blas_kernels,
                     random_complex_vector_field, random_real_vector_field)


def direct_eval(field, x):
    # plain loop synthesis, no stacking or broadcasting shortcuts
    total = np.asarray(field._zero_value())
    for key, val in field.coeffs.items():
        nvec = np.asarray(key, dtype=float) @ field.lattice.reciprocal
        total = total + np.asarray(val) * np.exp(2j * math.pi * np.dot(nvec, x))
    return total


# -- FourierField basics -----------------------------------------------------

def test_constructor_rejects_bad_input(lat3):
    with pytest.raises(ValueError):
        FourierField(lat3, "tensor", {})
    with pytest.raises(ValueError):
        FourierField(lat3, "scalar", {(1, 0): 1.0})
    with pytest.raises(ValueError):
        FourierField(lat3, "vector", {(1, 0, 0): np.ones(2)})
    with pytest.raises(ValueError):
        FourierField(lat3, "matrix", {})  # needs dim
    with pytest.raises(ValueError):
        FourierField(lat3, "vector", {}, hermitian=True)
    # conjugate symmetry is enforced when the real flag is set
    with pytest.raises(ValueError):
        FourierField(lat3, "scalar", {(1, 0, 0): 1.0, (-1, 0, 0): 2.0},
                     real=True)
    FourierField(lat3, "scalar", {(1, 0, 0): 1 + 2j, (-1, 0, 0): 1 - 2j},
                 real=True)


def test_support_sorted_and_defaults(lat3):
    f = FourierField(lat3, "scalar", {(1, 0, 0): 2.0, (-1, 0, 0): 2.0,
                                      (0, 1, 0): 1.0})
    assert tuple(f.coeffs) == ((-1, 0, 0), (0, 1, 0), (1, 0, 0))
    assert f.coeff((5, 5, 5)) == 0.0
    assert f.mean() == 0.0
    g = FourierField(lat3, "scalar", {(0, 0, 0): 3.0})
    assert g.mean() == 3.0
    assert zero_field(lat3, "vector").is_empty()


def test_evaluate_matches_direct_sum(lat3, rng):
    f = random_complex_vector_field(lat3, rng, count=6)
    pts = rng.uniform(-2.0, 2.0, size=(7, 3))
    got = evaluate(f, pts)
    want = np.array([direct_eval(f, x) for x in pts])
    assert np.max(np.abs(got - want)) < 1e-13
    # single-point call agrees with the batch row
    one = evaluate(f, pts[0])
    assert np.allclose(one, got[0], rtol=0, atol=1e-15)


def test_real_field_evaluates_real(lat3, rng):
    f = random_real_vector_field(lat3, rng, pairs=3)
    pts = rng.uniform(-1.0, 1.0, size=(5, 3))
    vals = evaluate(f, pts)
    assert vals.dtype == np.float64
    want = np.array([direct_eval(f, x) for x in pts])
    assert np.max(np.abs(vals - want.real)) < 1e-13
    assert np.max(np.abs(want.imag)) < 1e-13


def test_cell_grid_matches_pointwise(lat3, rng):
    f = random_complex_vector_field(lat3, rng, count=4)
    m = 5
    grid = evaluate_cell_grid(f, m)
    mesh = np.meshgrid(*([np.arange(m) / m] * 3), indexing="ij")
    xi = np.stack([g.ravel() for g in mesh], axis=1)
    pts = xi @ lat3.basis
    assert np.max(np.abs(grid - evaluate(f, pts))) < 1e-13


def test_field_arithmetic(lat3):
    a = FourierField(lat3, "scalar", {(1, 0, 0): 1.0, (-1, 0, 0): 1.0},
                     real=True)
    b = FourierField(lat3, "scalar", {(1, 0, 0): 2.0j, (0, 1, 0): 1.0})
    s = a - b
    assert s.coeff((1, 0, 0)) == 1.0 - 2.0j
    assert s.coeff((0, 1, 0)) == -1.0
    assert not s.real  # one operand lacks the symmetry
    d = a - s
    for key in b.coeffs:
        assert d.coeff(key) == b.coeff(key)


# -- smoothing measures ------------------------------------------------------

def test_measure_validation():
    with pytest.raises(ValueError):
        MeasureSpec.dirac(h=-1.0)
    with pytest.raises(ValueError):
        MeasureSpec.plateau(0.5, 0.4)
    with pytest.raises(ValueError):
        MeasureSpec.plateau(0.0, 1.0)
    mu = MeasureSpec.dirac()
    assert math.isinf(mu.h) and mu.norm_bound == 1.0
    assert mu.to_dict()["h"] is None
    with pytest.raises(ValueError):
        mu.density(0.0)


def test_plateau_h1_is_bounded_before_the_norm_is_computed(monkeypatch):
    # past h1 = 16 the norm is not checked against an oracle, and its time
    # and memory grow as h1^2: at 1e300 no window can be allocated
    calls = []
    monkeypatch.setattr(fields, "_plateau_norm",
                        lambda h, h1: calls.append(h1) or 1.0)
    for h1 in (17.0, 1e300):
        with pytest.raises(ValueError, match="h1 <= 16.0"):
            MeasureSpec.plateau(0.5, h1)
    assert calls == []
    monkeypatch.undo()
    assert MeasureSpec.plateau(0.5, 16.0).norm_bound > 1.0


def test_measure_refuses_nonpositive_h_however_built():
    for h in (0.0, -0.25, math.nan):
        with pytest.raises(ValueError, match="radius must be positive"):
            MeasureSpec(kind="dirac", h=h, h1=None, norm_bound=1.0)


def test_plateau_transform_shape():
    mu = MeasureSpec.plateau(0.5, 1.5)
    assert float(mu.transform(0.0)) == 1.0
    assert float(mu.transform(2.0 * math.pi * 0.5)) == 1.0
    assert float(mu.transform(2.0 * math.pi * 1.5)) == 0.0
    assert float(mu.transform(100.0)) == 0.0
    # ramp midpoint is exactly one half by the a/(a+b) symmetry
    assert float(mu.transform(2.0 * math.pi * 1.0)) == 0.5
    p = np.linspace(0.0, 12.0, 301)
    vals = mu.transform(p)
    assert np.array_equal(vals, mu.transform(-p))
    assert np.all(np.diff(vals) <= 1e-15)  # nonincreasing in |p|
    assert float(MeasureSpec.dirac().transform(37.0)) == 1.0


def _ramp(s):
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    a = math.exp(-1.0 / s)
    b = math.exp(-1.0 / (1.0 - s))
    return a / (a + b)


def _density_oracle(h, h1, t_max):
    """Inverse transform via a closed-form plateau part plus a ramp integral.

    The ramp integral is a fixed Gauss rule whose panel count resolves
    cos(p t) up to t_max, so one precomputed grid serves every call.
    """
    lo, hi = 2.0 * math.pi * h, 2.0 * math.pi * h1
    panels = int(math.ceil(1.2 * (hi - lo) * max(t_max, 1.0) / (2.0 * math.pi))) + 8
    x, w = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1] - edges[0])
    pn = (mids[:, None] + half * x[None, :]).ravel()
    pw = np.tile(half * w, panels)
    weighted = pw * np.array([_ramp((hi - p) / (hi - lo)) for p in pn])

    def dens(t):
        t = np.asarray(t, dtype=float)
        plateau_part = np.where(t == 0.0, lo, np.sin(lo * t) / np.where(t == 0.0, 1.0, t))
        return (plateau_part + np.cos(np.outer(t, pn)) @ weighted) / math.pi

    return dens


def _oracle_norm(h, h1, t_max):
    """2 x integral of |density| over [0, t_max], apart from `_plateau_norm`.

    |density| is only piecewise smooth, so blind adaptive quadrature is
    untrustworthy here: integrate sign-definite pieces between zeros scanned
    on a 1/1000 grid and sum their absolute masses.
    """
    dens = _density_oracle(h, h1, t_max=t_max)
    grid = np.linspace(0.0, t_max, int(round(1000 * t_max)) + 1)
    vals = np.concatenate([dens(grid[i:i + 4096]) for i in range(0, grid.size, 4096)])
    eps = 1e-14
    cuts = [0.0]
    for i in np.nonzero((np.abs(vals[:-1]) > eps) & (np.abs(vals[1:]) > eps)
                        & (np.sign(vals[:-1]) != np.sign(vals[1:])))[0]:
        cuts.append(brentq(lambda t: float(dens(t)[0]), grid[i], grid[i + 1],
                           xtol=1e-14))
    cuts += [float(g) for g in grid[1:-1][np.abs(vals[1:-1]) <= eps]]
    cuts = sorted(cuts) + [t_max]
    x24, w24 = np.polynomial.legendre.leggauss(24)
    total_abs = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        nodes = 0.5 * (a + b) + 0.5 * (b - a) * x24
        total_abs += abs(float((0.5 * (b - a) * w24) @ dens(nodes)))
    return 2.0 * total_abs


def test_plateau_norm_frozen_and_quadrature():
    mu = MeasureSpec.plateau(0.5, 1.5)
    assert abs(mu.norm_bound - 1.4478712603736383) < 1e-9
    assert abs(_oracle_norm(0.5, 1.5, 60.0) - mu.norm_bound) < 1e-9

    # signed mass recovers the transform at zero (plain quadrature is fine
    # for the smooth signed density)
    dens = _density_oracle(0.5, 1.5, t_max=60.0)
    total_signed = sum(quad(lambda t: float(dens(t)[0]), a, a + 2.0,
                            epsabs=1e-12, limit=400)[0]
                       for a in np.arange(0.0, 60.0, 2.0))
    assert abs(2.0 * total_signed - 1.0) < 1e-7


def test_plateau_norm_matches_oracle_at_wide_ramp():
    # h1 = 8 takes the 2-wide windows of every h1 >= 2; past t = 8 the
    # density holds under 1e-11 of the norm
    assert abs(_oracle_norm(1.0, 8.0, 8.0)
               - MeasureSpec.plateau(1.0, 8.0).norm_bound) < 1e-9


def test_plateau_window_keeps_zeros_next_to_exact_ones():
    # at (0.5, 1.5) the density vanishes at every half-integer, which falls
    # on the window's sign grid, and another zero lies 0.02 before 5 and
    # 0.0011 before 10: both zeros of each pair must be cuts
    for t0, t1, near, exact in [(8 / 3, 16 / 3, 4.979846394, 5.0),
                                (8.0, 32 / 3, 9.998853766, 10.0)]:
        zeros, _ = fields._plateau_window(0.5, 1.5, t0, t1)
        assert np.min(np.abs(zeros - near)) < 1e-9
        assert np.min(np.abs(zeros - exact)) < 1e-12


def test_plateau_norm_independent_of_blas_kernel():
    # OpenBLAS picks its kernels from OPENBLAS_CORETYPE; the norm sums in
    # numpy's fixed order and must keep its bits either way
    outs = outputs_under_blas_kernels(
        "from diracband.fields import MeasureSpec; print(repr(["
        "MeasureSpec.plateau(0.5, 1.5).norm_bound, "
        "MeasureSpec.plateau(0.4, 0.9).norm_bound]))")
    assert outs[0] == outs[1]


def test_density_transform_pair():
    # density and transform must be Fourier partners at interior points too
    mu = MeasureSpec.plateau(0.5, 1.5)
    p = 2.0 * math.pi * 0.75
    back = 2.0 * sum(quad(lambda t: float(mu.density(np.array([t]))[0]),
                          a, a + 4.0, weight="cos", wvar=p, limit=200)[0]
                     for a in np.arange(0.0, 120.0, 4.0))
    assert abs(back - float(mu.transform(p))) < 1e-6
    t = np.linspace(-8.0, 8.0, 33)
    assert np.max(np.abs(mu.density(t) - mu.density(-t))) < 1e-14


# -- potentials --------------------------------------------------------------

def _matrix_pair_field(lat3, rep, base, weight):
    coeffs = {(1, 0, 0): weight * base, (-1, 0, 0): np.conj(weight) * base}
    return FourierField(lat3, "matrix", coeffs, dim=rep.M)


def test_potential_class_checks(lat3, rep3):
    eye = np.eye(rep3.M, dtype=complex)
    mass = rep3.alphas[rep3.n]
    v0 = _matrix_pair_field(lat3, rep3, eye, 0.2)
    v1 = FourierField(lat3, "matrix", {(0, 0, 0): 0.3 * mass}, dim=rep3.M)
    a = zero_field(lat3, "vector")
    pot = PotentialSet(a, v0, v1, rep3)
    assert not pot.is_empty

    with pytest.raises(ValueError):
        PotentialSet(a, FourierField(lat3, "matrix", {(0, 0, 0): mass},
                                     dim=rep3.M), zero_field(lat3, "matrix",
                                                             dim=rep3.M), rep3)
    with pytest.raises(ValueError):
        PotentialSet(a, zero_field(lat3, "matrix", dim=rep3.M),
                     FourierField(lat3, "matrix", {(0, 0, 0): eye},
                                  dim=rep3.M), rep3)
    assert PotentialSet.zero(lat3, rep3).is_empty


def test_potential_parts_share_one_lattice(lat3, rep3):
    # a V0 or V1 on another basis would have its keys read on A's lattice
    skewed = Lattice([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.2, 0.3, 1.2]])
    eye = np.eye(rep3.M, dtype=complex)
    a = zero_field(lat3, "vector")
    zm = zero_field(lat3, "matrix", dim=rep3.M)
    off = _matrix_pair_field(skewed, rep3, eye, 0.2)
    with pytest.raises(ValueError, match="share one lattice"):
        PotentialSet(a, off, zm, rep3)
    with pytest.raises(ValueError, match="share one lattice"):
        PotentialSet(a, zm, zero_field(skewed, "matrix", dim=rep3.M), rep3)
    # an equal basis on a separate object is the same lattice
    same = _matrix_pair_field(Lattice.cubic(3), rep3, eye, 0.2)
    assert not PotentialSet(a, same, zm, rep3).is_empty


def test_composite_and_w_norm(lat3, rep3):
    eye = np.eye(rep3.M, dtype=complex)
    mass = rep3.alphas[rep3.n]
    avec = np.array([0.01, 0.02 + 0.01j, -0.03])
    a = FourierField(lat3, "vector", {(1, 0, 0): avec,
                                      (-1, 0, 0): np.conj(avec)}, real=True)
    v0 = _matrix_pair_field(lat3, rep3, eye, 0.2)
    v1 = FourierField(lat3, "matrix", {(0, 0, 0): 0.3 * mass}, dim=rep3.M)
    pot = PotentialSet(a, v0, v1, rep3)
    comp = pot.composite()

    want = 0.2 * eye - sum(avec[j] * rep3.alphas[j] for j in range(3))
    assert np.max(np.abs(comp.coeff((1, 0, 0)) - want)) < 1e-15
    assert np.max(np.abs(comp.coeff((0, 0, 0)) - 0.3 * mass)) < 1e-15

    expect = 3 * 2 * float(np.linalg.norm(avec)) + 2 * 0.2 + 0.3
    assert abs(w_norm(pot) - expect) < 1e-12


def test_sup_norm_brackets(lat3, rng):
    f = FourierField(lat3, "scalar", {(1, 0, 0): 0.7, (-1, 0, 0): 0.7},
                     real=True)
    lo, hi = sup_norm(f)
    assert lo == hi == 1.4  # the grid contains the maximising point
    g = random_real_vector_field(lat3, rng, pairs=5)
    lo, hi = sup_norm(g)
    assert 0.0 < lo <= hi
    assert sup_norm(zero_field(lat3, "scalar")) == (0.0, 0.0)


# -- averaging ---------------------------------------------------------------

def test_averaging_annihilates_and_scales(lat3):
    v = np.array([0.0, 0.1, 0.0])
    coeffs = {(1, 0, 0): v, (-1, 0, 0): v, (0, 2, 0): v, (0, -2, 0): v}
    A = FourierField(lat3, "vector", coeffs, real=True)
    mu = MeasureSpec.plateau(0.5, 1.5)
    et = np.array([0.0, 1.0, 0.0])
    av = averaged_potential(A, (1, 0, 0), mu, et)
    # modes hitting gamma vanish exactly; survivors carry the transform value
    assert (1, 0, 0) not in av.coeffs and (-1, 0, 0) not in av.coeffs
    mult = float(mu.transform(2.0 * math.pi * 2.0))
    if mult == 0.0:
        assert (0, 2, 0) not in av.coeffs
    else:
        assert np.allclose(av.coeff((0, 2, 0)), mult * v, rtol=0, atol=1e-15)

    with pytest.raises(ValueError):
        averaged_potential(A, (1, 0, 0), mu, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        averaged_potential(A, (0, 0, 0), mu, et)


@pytest.mark.parametrize("kind", ["dirac", "plateau"])
def test_averaging_matches_quadrature(lat3, rng, kind):
    mu = MeasureSpec.dirac() if kind == "dirac" else MeasureSpec.plateau(0.4, 1.1)
    tol = 1e-12 if kind == "dirac" else 5e-6
    A = random_real_vector_field(lat3, rng, pairs=4, span=2)
    et = np.array([0.0, 1.0, 0.0])
    gamma = (1, 0, 0)
    pts = rng.uniform(-1.5, 1.5, size=(12, 3))
    got = evaluate(averaged_potential(A, gamma, mu, et), pts)
    want = average_by_quadrature(A, gamma, mu, et, pts)
    assert np.max(np.abs(got - want)) < tol


# -- smallness bracket -------------------------------------------------------

def test_condition_single_pair_closed_form(lat3):
    v = np.array([0.01, 0.03, 0.02])
    A = FourierField(lat3, "vector", {(0, 1, 0): v, (0, -1, 0): v}, real=True)
    cv = condition_value(A, (1, 0, 0), MeasureSpec.dirac(), sphere_samples=1024)
    expect = 2.0 * float(np.linalg.norm(v)) / math.pi
    assert abs(cv["theta_hi"] - expect) < 1e-13
    assert cv["theta_lo"] <= cv["theta_hi"] + 1e-12
    assert abs(cv["theta_lo"] - expect) < 1e-9 * expect
    assert cv["theta_hi"] < 1.0 and cv["theta_lo"] < 1.0


def test_condition_documented_value(lat3):
    v = np.array([0.0, 0.0, 0.05])
    A = FourierField(lat3, "vector", {(0, 1, 0): v, (0, -1, 0): v}, real=True)
    cv = condition_value(A, (1, 0, 0), MeasureSpec.dirac())
    assert abs(cv["theta_hi"] - 0.03183098861837907) < 1e-14
    assert abs(cv["theta_lo"] - cv["theta_hi"]) < 1e-9


def test_condition_complex_certificate(lat3):
    v = np.array([0.03j, 0.01, 0.02 + 0.01j])
    A = FourierField(lat3, "vector", {(0, 1, 0): v})
    cv = condition_value(A, (1, 0, 0), MeasureSpec.dirac(), sphere_samples=512)
    perp = float(np.linalg.norm(v[1:]))
    expect = (perp + abs(v[0])) / math.pi
    assert abs(cv["theta_hi"] - expect) < 1e-14
    assert cv["theta_lo"] <= cv["theta_hi"] + 1e-12


def test_condition_edge_cases(lat3):
    # all modes parallel to gamma: averaging kills everything
    v = np.array([0.1, 0.0, 0.0])
    A = FourierField(lat3, "vector", {(1, 0, 0): v, (-1, 0, 0): v}, real=True)
    cv = condition_value(A, (1, 0, 0), MeasureSpec.dirac(), sphere_samples=16)
    assert cv == {"theta_lo": 0.0, "theta_hi": 0.0, "best_et": cv["best_et"],
                  "f_lo": 0.0, "f_hi": 0.0, "samples": 0}
    assert cv["theta_hi"] < 1.0 and cv["theta_lo"] < 1.0

    big = FourierField(lat3, "vector", {(0, 1, 0): np.array([0.0, 0.0, 2.0]),
                                        (0, -1, 0): np.array([0.0, 0.0, 2.0])},
                       real=True)
    cv2 = condition_value(big, (1, 0, 0), MeasureSpec.dirac(),
                          sphere_samples=512)
    assert cv2["theta_lo"] >= 1.0 and cv2["theta_hi"] >= 1.0

    with pytest.raises(ValueError):
        mean = FourierField(lat3, "vector", {(0, 0, 0): v})
        condition_value(mean, (1, 0, 0), MeasureSpec.dirac())


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), real=st.booleans(), plateau=st.booleans())
def test_condition_bracket_property(seed, real, plateau):
    from diracband.lattice import Lattice
    lat = Lattice.cubic(3)
    rng = np.random.default_rng(seed)
    if real:
        A = random_real_vector_field(lat, rng, pairs=3)
    else:
        A = random_complex_vector_field(lat, rng, count=4)
    mu = MeasureSpec.plateau(0.5, 1.5) if plateau else MeasureSpec.dirac()
    cv = condition_value(A, (1, 0, 0), mu, sphere_samples=256, scan_grid=8,
                         refine_grid=24)
    assert cv["theta_lo"] <= cv["theta_hi"] + 1e-12
    assert cv["f_lo"] >= 0.0


def four_dim_field():
    """A real field on the cubic lattice in R^4, three of its four pairs
    orthogonal to gamma = E_1."""
    half = {(0, 1, 0, 0): [0.05, 0.0, 0.02, 0.01],
            (0, 0, 1, 1): [0.01, 0.02, 0.0, 0.03],
            (0, 0, 0, 2): [0.02, 0.01, 0.0, 0.0],
            (1, 1, 0, 0): [0.01, 0.01, 0.01, 0.01]}
    coeffs = {}
    for key, val in half.items():
        coeffs[key] = np.array(val)
        coeffs[tuple(-c for c in key)] = np.array(val)
    return FourierField(Lattice.cubic(4), "vector", coeffs, real=True)


def test_condition_four_dimensional_scan():
    # the seeded direction scan for n >= 4, pinned to recorded values
    cv = condition_value(four_dim_field(), (1, 0, 0, 0),
                         MeasureSpec.plateau(0.5, 1.5), sphere_samples=256,
                         scan_grid=8, refine_grid=16)
    expect = {"theta_lo": 0.05463151683720352, "theta_hi": 0.07292448259475144}
    for name, want in expect.items():
        assert abs(cv[name] - want) <= 1e-12 * want
    want_et = [0.0, 0.6807592104647162, 0.7295872644161706, 0.06534004108649821]
    assert np.max(np.abs(np.array(cv["best_et"]) - want_et)) <= 1e-12
    assert cv["samples"] == 256 and cv["theta_lo"] <= cv["theta_hi"]


def test_condition_scan_memory_is_chunked():
    # 4096 directions times 8^4 grid points scanned in one product would
    # take about 400 MB; chunked, the scan stays small
    A = four_dim_field()
    tracemalloc.start()
    try:
        condition_value(A, (1, 0, 0, 0), MeasureSpec.plateau(0.5, 1.5),
                        sphere_samples=4096, scan_grid=8, refine_grid=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_grid_phases_built_in_place():
    # the float argument and one complex table, not two tables at once
    karr = np.array([[1, 0, 0, 0], [0, 1, -1, 0], [2, -1, 3, 1],
                     [0, 0, 1, 1], [-1, -1, 0, 2], [1, 2, 3, -1]])
    tracemalloc.start()
    try:
        table = _grid_phases(karr, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * table.nbytes
    xi = np.stack([g.ravel() for g in np.meshgrid(*[np.arange(16) / 16] * 4,
                                                  indexing="ij")], axis=1)
    assert np.allclose(table, np.exp(2j * math.pi * (karr @ xi.T)),
                       rtol=0, atol=1e-12)


def test_condition_directions_built_per_block(lat3):
    # 500,000 circle directions held at once take 12 MB, and building them
    # peaked at 32 MB; a block of 256 is built only when the scan reaches it
    A = FourierField(lat3, "vector", {(0, 1, 0): np.array([0.1, 0.0, 0.05]),
                                      (0, -1, 0): np.array([0.1, 0.0, 0.05])},
                     real=True)
    tracemalloc.start()
    try:
        cv = condition_value(A, (1, 0, 0), MeasureSpec.plateau(0.5, 1.5),
                             sphere_samples=500000, scan_grid=2, refine_grid=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
    assert cv["samples"] == 500000 and cv["theta_lo"] <= cv["theta_hi"]


# -- cell grids on the axes the keys use -------------------------------------

def _golden_environment() -> bool:
    with open(os.path.join(golden.HERE, "ENV.json"), encoding="utf-8") as fh:
        return json.load(fh) == golden.environment()


def _assert_ulps(got: float, want: float, ulps: int = 4) -> None:
    assert abs(got - want) <= ulps * np.spacing(want), (got, want)


def _full_grid_condition(monkeypatch, *args, **kwargs) -> dict:
    """`condition_value` sampling the grid^n points of the whole cell."""
    with monkeypatch.context() as m:
        m.setattr(fields, "_spanned_axes", lambda karr: karr)
        m.setattr(fields, "_grid_phases", full_grid_phases)
        return condition_value(*args, **kwargs)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("droppable", [0, 1, 2])
def test_spanned_grid_sups_equal_full_grid(monkeypatch, n, droppable):
    # the dropped axes add exact zeros to every phase, so the grid of the
    # axes the keys use holds the values of the full grid: bit for bit where
    # the machine matches the goldens' environment, within 4 ulp elsewhere
    exact = _golden_environment()
    gamma = (1, 1) + (0,) * (n - 2)
    for seed in range(3):
        A = field_on_axes(n, n - droppable, np.random.default_rng([n, seed]))
        for grid in (9, 16):
            got, want = sup_norm(A, grid)[0], full_grid_sup(A, grid)
            if exact:
                assert got == want
            else:
                _assert_ulps(got, want)
        mu = MeasureSpec.plateau(0.5, 1.5) if seed else MeasureSpec.dirac()
        kwargs = dict(sphere_samples=300, scan_grid=8, refine_grid=16)
        got = condition_value(A, gamma, mu, **kwargs)
        want = _full_grid_condition(monkeypatch, A, gamma, mu, **kwargs)
        if exact:
            assert got == want
        else:
            for name in ("theta_lo", "f_lo"):
                _assert_ulps(got[name], want[name])


@pytest.mark.parametrize("n", [3, 4])
def test_spanned_grid_condition_on_odd_grids(monkeypatch, n):
    # OpenBLAS (0.3.31, SkylakeX) computes the last (points mod 4) columns of
    # the (directions x grid points) product with another kernel, and so
    # with other roundings: where those columns hold the maximum, the
    # spanned grid's sup sits up to 2 ulp from the full grid's, and the
    # angle search may then settle on another best_et of equal sup
    gamma = (1, 1) + (0,) * (n - 2)
    for axes in (1, 2, n - 1):
        for seed in range(4):
            A = field_on_axes(n, axes, np.random.default_rng([n, axes, seed]))
            kwargs = dict(sphere_samples=64, scan_grid=9, refine_grid=15)
            got = condition_value(A, gamma, MeasureSpec.dirac(), **kwargs)
            want = _full_grid_condition(monkeypatch, A, gamma,
                                        MeasureSpec.dirac(), **kwargs)
            for name in ("theta_lo", "f_lo"):
                _assert_ulps(got[name], want[name])


@pytest.mark.parametrize("height", [15, 85])
def test_condition_report_independent_of_block_height(monkeypatch, height):
    # the budget holds the 12 keys' phase table as it is built and `height`
    # directions of 24 B a grid point; blocks of 15 or 85 end the first 256
    # directions with one of a single direction, which must not take another
    # BLAS route than the rest, and the last 8 of the 264 make a shorter
    # block.  The refine grid is coarser than the scan grid, so the scan's
    # maximum is the reported f_lo.  Circle directions at n = 3, seeded
    # random ones at n = 4, on 12 keys that use every axis
    for n in (3, 4):
        A = field_on_axes(n, n, np.random.default_rng(0), pairs=6)
        gamma = (1, 1) + (0,) * (n - 2)
        kwargs = dict(sphere_samples=264, scan_grid=8, refine_grid=4)
        want = condition_value(A, gamma, MeasureSpec.plateau(0.5, 1.5),
                               **kwargs)
        keys = np.array(fields.orthogonal_modes(A, np.array(gamma)))
        assert keys.shape == (12, n) and np.all(np.any(keys != 0, axis=0))
        table = 8 ** n * (24 * 12 + 16 * n)
        with monkeypatch.context() as m:
            m.setattr(util, "MEMORY_BUDGET", table + height * 24 * 8 ** n)
            assert fields._block_height(keys, 8) == height
            got = condition_value(A, gamma, MeasureSpec.plateau(0.5, 1.5),
                                  **kwargs)
        assert got == want


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cell_grid_brackets_hold_in_higher_dimensions(n):
    lat = Lattice.cubic(n)
    gamma = (1,) + (0,) * (n - 1)
    mu = MeasureSpec.plateau(0.5, 1.5)
    for seed in range(3):
        rng = np.random.default_rng([n, seed])
        A = random_real_vector_field(lat, rng, pairs=3, span=1)
        lo, hi = sup_norm(A, 8)
        assert 0.0 < lo <= hi * (1.0 + 1e-12)
        cv = condition_value(A, gamma, mu, sphere_samples=64, scan_grid=8,
                             refine_grid=12)
        assert cv["theta_lo"] <= cv["theta_hi"] * (1.0 + 1e-12) + 1e-15
        # a refine grid whose table is too large is refused before the scan
        # builds anything
        tracemalloc.start()
        try:
            try:
                cv = condition_value(A, gamma, mu, sphere_samples=64,
                                     scan_grid=8, refine_grid=25)
                refused = False
            except ValueError as exc:
                assert "cell grid of 25^" in str(exc)
                refused = True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        keys = fields.orthogonal_modes(A, np.array(gamma))
        axes = fields._spanned_axes(np.array(keys)).shape[1] if keys else 0
        # the phase table as it is built and two directions' sums
        assert refused == (25 ** axes * (24 * len(keys) + 16 * axes + 48)
                           > util.MEMORY_BUDGET)
        if refused:
            assert peak < 1e6
        else:
            assert cv["theta_lo"] <= cv["theta_hi"] * (1.0 + 1e-12) + 1e-15


def test_refine_phase_table_over_budget_is_refused():
    # keys +-E_2 .. +-E_5 use four axes: the 48^4 refine grid's phase table
    # holds 8 x 48^4 complex entries, 680 MB; the memory budget refuses it
    # before the scan builds anything
    n = 5
    coeffs = {}
    for j in range(1, n):
        key = tuple(int(i == j) for i in range(n))
        val = np.full(n, 0.01)
        coeffs[key] = val
        coeffs[tuple(-c for c in key)] = val
    A = FourierField(Lattice.cubic(n), "vector", coeffs, real=True)
    gamma = (1,) + (0,) * (n - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"cell grid of 48\^4"):
            condition_value(A, gamma, MeasureSpec.plateau(0.5, 1.5),
                            sphere_samples=64, refine_grid=48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
