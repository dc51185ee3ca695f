"""Verification harnesses: face grids, shift scans, weighted floors, chain."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diracband import Lattice, bands, build_clifford, cli, fiber, verify
from diracband.fiber import FiberPoint, ModeSet, assemble, sigma_min
from diracband.fields import (FourierField, MeasureSpec, PotentialSet,
                              zero_field, w_norm)
from diracband.gauge import default_kernel_constant
from diracband.verify import (condition_chain_pipeline, k_face_grid,
                              sobolev_direction_measure, verify_thomas_bound,
                              verify_weighted_split, weighted_floor)
from helpers import random_real_vector_field

KERNEL_C = 1.7058460118707472
GAMMA = (1, 0, 0)
SMALL_CUTOFF = 2.0 * math.pi * 1.5


def tiny_potential(lat3, rep3, rng, scale=1.0):
    A = random_real_vector_field(lat3, rng, pairs=2, span=1, scale=0.02 * scale)
    zm = zero_field(lat3, "matrix", dim=rep3.M)
    return PotentialSet(A, zm, zm, rep3)


@pytest.mark.parametrize("gamma", [(1, 0, 0), (1, 1, 0)])
def test_face_grid_satisfies_face_equation(lat3, gamma):
    ks = k_face_grid(lat3, gamma, points_per_axis=3)
    assert ks.shape == (9, 3)
    gvec = lat3.point(gamma)
    pairings = ks @ gvec
    assert np.max(np.abs(pairings - math.pi)) < 1e-12
    # all nodes distinct
    assert len({tuple(np.round(k, 9)) for k in ks}) == 9


def test_face_grid_validation(lat3):
    with pytest.raises(ValueError):
        k_face_grid(lat3, (0, 0, 0))
    with pytest.raises(ValueError):
        k_face_grid(lat3, GAMMA, points_per_axis=0)


def test_thomas_scan_free_matches_closed_form(lat3, rep3):
    pot = PotentialSet.zero(lat3, rep3)
    report = verify_thomas_bound(lat3, rep3, pot, GAMMA, MeasureSpec.dirac(),
                                 theta=0.5, kappas=[4.0, 8.0],
                                 k_points_per_axis=2, cutoff=SMALL_CUTOFF)
    assert report.damping == 1.0
    assert report.bound == pytest.approx(0.5 * math.pi, abs=1e-15)
    # the harness carries the per-process default constant unchanged; the
    # constant itself is accurate to radial_tol, so its value is checked to a
    # tolerance rather than to one platform's last bits
    assert report.kernel_constant == default_kernel_constant()
    assert abs(report.kernel_constant - KERNEL_C) < 1e-10
    assert report.dim == report.mode_count * rep3.M
    # the closed-form table against the dense SVD route at every grid node
    assert np.array_equal(report.free_closed_form, report.sigma)
    modes = ModeSet.from_cutoff(lat3, SMALL_CUTOFF)
    e = lat3.point(GAMMA) / np.linalg.norm(lat3.point(GAMMA))
    for i, k in enumerate(report.k_points):
        for j, kappa in enumerate(report.kappas):
            op = assemble(lat3, rep3, modes,
                          FiberPoint(k=np.array(k), e=e, kappa=kappa), pot)
            dense = sigma_min(op, method="dense")
            assert abs(report.sigma[i, j] - dense) < 1e-10
    # the face keeps every axial component at pi or beyond
    assert float(np.min(report.sigma)) >= math.pi - 1e-12
    assert report.holds and report.kappa_star == 4.0
    rows = report.margin_rows()
    assert len(rows) == 4 * 2
    assert all(r["margin"] >= math.pi / 2.0 - 1e-12 for r in rows)
    d = report.to_dict()
    assert d["verdict"] == "EMPIRICAL" and d["holds"] is True


def test_thomas_scan_tiny_potential_stays_near_free(lat3, rep3, rng):
    pot = tiny_potential(lat3, rep3, rng, scale=1e-4)
    free = PotentialSet.zero(lat3, rep3)
    kwargs = dict(kappas=[4.0, 8.0], k_points_per_axis=2, cutoff=SMALL_CUTOFF,
                  sphere_samples=256)
    got = verify_thomas_bound(lat3, rep3, pot, GAMMA, MeasureSpec.dirac(),
                              theta=0.5, **kwargs)
    ref = verify_thomas_bound(lat3, rep3, free, GAMMA, MeasureSpec.dirac(),
                              theta=0.5, **kwargs)
    # eigenvalue perturbation is bounded by the potential sup norm
    assert np.max(np.abs(got.sigma - ref.sigma)) <= w_norm(pot) + 1e-12
    assert got.damping < 1.0
    assert got.condition.theta_hi < 1e-4
    assert got.holds


def test_thomas_scan_probe_and_refinement(lat3, rep3, rng):
    pot = tiny_potential(lat3, rep3, rng)
    report = verify_thomas_bound(lat3, rep3, pot, GAMMA, MeasureSpec.dirac(),
                                 theta=0.5, kappas=[4.0], k_points_per_axis=2,
                                 cutoff=SMALL_CUTOFF, sphere_samples=256,
                                 probe_count=500, seed=3, refine_factor=1.0)
    assert report.probe["consistent"]
    assert report.probe["probe_min"] >= float(np.min(report.sigma)) - 1e-9
    # refining by factor 1 reruns the identical truncation
    assert report.refinement["max_rel_change"] == 0.0
    assert report.refinement["kappa_star"] == report.kappa_star


def test_thomas_scan_free_refinement_is_stable(lat3, rep3):
    pot = PotentialSet.zero(lat3, rep3)
    report = verify_thomas_bound(lat3, rep3, pot, GAMMA, MeasureSpec.dirac(),
                                 theta=0.5, kappas=[4.0, 8.0],
                                 k_points_per_axis=2, cutoff=SMALL_CUTOFF,
                                 refine_factor=1.4)
    assert report.refinement["mode_count"] > report.mode_count
    # enlarging a free window only adds modes far from the critical annulus
    assert report.refinement["max_rel_change"] < 1e-12


def test_thomas_scan_preconditions(lat3, rep3, rng):
    free = PotentialSet.zero(lat3, rep3)
    with pytest.raises(ValueError):
        verify_thomas_bound(lat3, rep3, free, GAMMA, MeasureSpec.dirac(),
                            theta=1.5, kappas=[4.0], k_points_per_axis=1,
                            cutoff=SMALL_CUTOFF)
    with pytest.raises(ValueError):
        verify_thomas_bound(lat3, rep3, free, GAMMA, MeasureSpec.dirac(),
                            theta=0.5, kappas=[8.0, 4.0], k_points_per_axis=1,
                            cutoff=SMALL_CUTOFF)
    # a large field pushes the smallness bracket past 1
    v = np.array([0.0, 0.0, 10.0])
    big = FourierField(lat3.__class__.cubic(3), "vector",
                       {(0, 1, 0): v, (0, -1, 0): v}, real=True)
    zm = zero_field(lat3, "matrix", dim=rep3.M)
    pot = PotentialSet(big, zm, zm, rep3)
    with pytest.raises(ValueError):
        verify_thomas_bound(lat3, rep3, pot, GAMMA, MeasureSpec.dirac(),
                            theta=0.1, kappas=[4.0], k_points_per_axis=1,
                            cutoff=SMALL_CUTOFF, sphere_samples=128)


def test_dense_limit_checked_before_assembly(monkeypatch):
    # n = 4 at cutoff 20: 569 modes, dim 4,552, over the dense limit; a
    # small constant mass keeps the fibers off the closed-form route
    lat4 = Lattice.cubic(4)
    rep4 = build_clifford(4)
    mass = FourierField(lat4, "matrix", {(0, 0, 0, 0): 0.1 * rep4.alphas[4]},
                        dim=rep4.M, hermitian=True)
    pot = PotentialSet(zero_field(lat4, "vector"),
                       zero_field(lat4, "matrix", dim=rep4.M), mass, rep4)

    # the sparse fiber assembles in little memory; its dense view refuses
    fib = FiberPoint(k=np.full(4, 0.1), e=np.array([1.0, 0.0, 0.0, 0.0]))
    tracemalloc.start()
    try:
        op = assemble(lat4, rep4, ModeSet.from_cutoff(lat4, 20.0), fib, pot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.dim == 4552
    assert peak < 50e6
    with pytest.raises(ValueError, match="dimension 4552 exceeds the dense limit"):
        op.matrix
    with pytest.raises(ValueError, match="dimension 4552 exceeds the dense limit"):
        fiber.eigenvalues(op)

    def no_assembly(*args, **kwargs):
        raise AssertionError("assemble ran before the size check")

    monkeypatch.setattr(verify, "assemble", no_assembly)
    monkeypatch.setattr(bands, "assemble", no_assembly)
    with pytest.raises(ValueError, match="dimension 4552 exceeds the dense limit"):
        verify_thomas_bound(lat4, rep4, pot, (1, 0, 0, 0), MeasureSpec.dirac(),
                            theta=0.5, kappas=[4.0], k_points_per_axis=1,
                            cutoff=20.0, kernel_constant=KERNEL_C)
    e = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="dimension 4552 exceeds the dense limit"):
        bands.band_sweep(lat4, rep4, pot, np.zeros(4), e, (0.0, 1.0), 2, 20.0)


def test_free_scan_allocates_no_dense_fiber():
    # n = 4 at cutoff 20 (dim 4,552, 16 nodes): the closed form reads no
    # fiber matrix, so none is allocated, whatever the dense limit
    lat4 = Lattice.cubic(4)
    rep4 = build_clifford(4)
    tracemalloc.start()
    try:
        out = weighted_floor(lat4, rep4, PotentialSet.zero(lat4, rep4),
                             (1, 0, 0, 0), kappas=[math.pi, 2.0 * math.pi],
                             k_points_per_axis=2, cutoff=20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["mode_count"] == 569
    assert peak < 50e6
    assert len(out["rows"]) == 16
    assert all(r["ratio"] == 1.0 for r in out["rows"])


def test_auto_matches_dense_on_shipped_scans(tmp_path, monkeypatch):
    # every node of the shipped shifted-fiber configs: the sparse route
    # against the dense LAPACK reference, with the scans' own weights
    rel = []

    def against_dense(route):
        def solve(op, *args):
            got = route(op, *args)
            want = route(op, *args, method="dense")
            rel.append(abs(got - want) / want)
            return got
        return solve

    monkeypatch.setattr(verify, "sigma_min", against_dense(fiber.sigma_min))
    monkeypatch.setattr(verify, "weighted_sigma_min",
                        against_dense(fiber.weighted_sigma_min))
    configs = Path(__file__).resolve().parents[1] / "configs"
    for command, name in (("verify-thomas", "thomas_documented"),
                          ("verify-weighted", "weighted_split"),
                          ("verify-weighted", "weighted_floor")):
        cli.main([command, "--config", str(configs / f"{name}.json"),
                  "--out", str(tmp_path / name)])
    assert len(rel) == 75 + 18 + 18
    assert max(rel) <= 1e-12


def test_weighted_split_free_is_exact(lat3, rep3):
    pot = PotentialSet.zero(lat3, rep3)
    # axial components on the face sit at pi or beyond, so the annulus only
    # populates once its half-width passes pi
    report = verify_weighted_split(lat3, rep3, pot, GAMMA, MeasureSpec.dirac(),
                                   delta=0.5, beta=3.5, kappas=[4.0, 8.0],
                                   k_points_per_axis=2, cutoff=SMALL_CUTOFF)
    # free factors divided by themselves off the annulus, and the face floor
    # pi never exceeds g_minus on it: the worst ratio is exactly 1
    assert report.floor == pytest.approx(math.pi, abs=1e-15)
    assert report.one_minus_delta_star == 1.0
    assert report.holds
    assert any(r["annulus_modes"] > 0 for r in report.rows)


def test_weighted_split_small_potential(lat3, rep3, rng):
    pot = tiny_potential(lat3, rep3, rng)
    report = verify_weighted_split(lat3, rep3, pot, GAMMA, MeasureSpec.dirac(),
                                   delta=0.5, beta=1.0, kappas=[4.0],
                                   k_points_per_axis=2, cutoff=SMALL_CUTOFF,
                                   sphere_samples=256)
    assert report.holds
    assert all(r["ratio_sq"] >= 0.5 for r in report.rows)
    assert report.one_minus_delta_star == min(r["ratio_sq"]
                                              for r in report.rows)
    d = report.to_dict()
    assert d["verdict"] == "EMPIRICAL" and d["damping"] < 1.0


def test_weighted_split_preconditions(lat3, rep3):
    pot = PotentialSet.zero(lat3, rep3)
    with pytest.raises(ValueError):
        verify_weighted_split(lat3, rep3, pot, GAMMA, MeasureSpec.dirac(),
                              delta=1.0, beta=1.0, kappas=[4.0],
                              cutoff=SMALL_CUTOFF)
    with pytest.raises(ValueError):
        verify_weighted_split(lat3, rep3, pot, GAMMA, MeasureSpec.dirac(),
                              delta=0.5, beta=5.0, kappas=[4.0],
                              cutoff=SMALL_CUTOFF)


def test_weighted_floor_free_is_one(lat3, rep3):
    pot = PotentialSet.zero(lat3, rep3)
    out = weighted_floor(lat3, rep3, pot, GAMMA, kappas=[4.0, 8.0],
                         k_points_per_axis=2, cutoff=SMALL_CUTOFF)
    assert out["ratio_min"] == 1.0
    assert all(r["ratio"] == 1.0 for r in out["rows"])
    assert out["perturbation_floor"] == 1.0


def test_weighted_floor_obeys_perturbation_bound(lat3, rep3, rng):
    pot = tiny_potential(lat3, rep3, rng)
    out = weighted_floor(lat3, rep3, pot, GAMMA, kappas=[4.0],
                         k_points_per_axis=2, cutoff=SMALL_CUTOFF)
    # sup perturbation / smallest weight, with weights >= pi/|gamma| on face
    assert out["perturbation_floor"] == 1.0 - out["w_bound"] / math.pi
    assert out["ratio_min"] >= out["perturbation_floor"] - 1e-10


def test_sobolev_measure_accumulates_parallel_modes(lat3):
    v1 = np.array([0.0, 0.3, 0.0])
    v2 = np.array([0.0, 0.0, 0.1])
    v3 = np.array([0.2, 0.0, 0.0])
    A = FourierField(lat3, "vector", {
        (1, 0, 0): v1, (-1, 0, 0): v1,
        (2, 0, 0): v2, (-2, 0, 0): v2,
        (0, 1, 0): v3, (0, -1, 0): v3,
    }, real=True)
    mu = sobolev_direction_measure(A, q=1.0)
    atoms = {tuple(np.round(p, 9)): w
             for p, w in zip(mu.points, mu.weights)}
    assert len(atoms) == 4
    want_x = 0.3 ** 2 + 4.0 * 0.1 ** 2  # |N|^2 weights 1 and 4 on one atom
    assert atoms[(1.0, 0.0, 0.0)] == pytest.approx(want_x, rel=1e-14)
    assert atoms[(-1.0, 0.0, 0.0)] == pytest.approx(want_x, rel=1e-14)
    assert atoms[(0.0, 1.0, 0.0)] == pytest.approx(0.04, rel=1e-14)

    empty = sobolev_direction_measure(zero_field(lat3, "vector"), q=1.0)
    assert empty.points.shape == (0, 3)


def test_chain_pipeline_zero_field_degenerates(lat3):
    out = condition_chain_pipeline(zero_field(lat3, "vector"), q=1.0, h=0.1,
                                   h1=1.2, R0_list=[2.0], et_samples=4,
                                   grid_per_axis=8)
    assert out["atom_count"] == 0
    assert out["chain_ok"]
    assert out["outer_values"] == [0.0]
    assert out["rows"][0]["f_lo_max"] == 0.0


def test_chain_pipeline_members_recomputable(lat3, rng):
    A = random_real_vector_field(lat3, rng, pairs=3, span=2, scale=0.05)
    out = condition_chain_pipeline(A, q=1.5, h=0.1, h1=1.2,
                                   R0_list=[1.5, 3.0], et_samples=6,
                                   grid_per_axis=12)
    assert out["chain_ok"]
    assert len(out["outer_values"]) == 2
    for row in out["rows"]:
        assert row["f_lo_max"] <= row["middle_max"] * (1 + 1e-12) + 1e-15
        assert row["middle_max"] <= row["outer_max"] * (1 + 1e-12) + 1e-15

    # re-derive the middle member of one sampled direction from A itself
    row = out["rows"][1]
    gc = np.asarray(row["certificate"]["gamma_coeffs"], dtype=np.int64)
    gnorm = float(np.linalg.norm(lat3.point(gc)))
    probe = row["per_et"][0]
    et = np.asarray(probe["et"])
    total = 0.0
    for key, val in A.coeffs.items():
        ik = np.asarray(key, dtype=np.int64)
        if not np.any(ik) or int(np.dot(ik, gc)) != 0:
            continue
        if abs(float(np.dot(lat3.dual_point(key), et))) <= 1.2:
            total += float(np.linalg.norm(val))
    assert probe["middle"] == pytest.approx(gnorm * total, rel=1e-12)


def test_chain_pipeline_preconditions(lat3, rng):
    A = random_real_vector_field(lat3, rng, pairs=1, span=1)
    with pytest.raises(ValueError):
        condition_chain_pipeline(A, q=0.5, h=0.1, h1=1.0, R0_list=[2.0])
    with pytest.raises(ValueError):
        condition_chain_pipeline(A, q=1.0, h=1.0, h1=0.5, R0_list=[2.0])
    biased = FourierField(lat3, "vector",
                          {(0, 0, 0): np.array([0.1, 0.0, 0.0])}, real=True)
    with pytest.raises(ValueError):
        condition_chain_pipeline(biased, q=1.0, h=0.1, h1=1.0, R0_list=[2.0])
