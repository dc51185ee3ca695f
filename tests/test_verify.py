"""Verification harnesses: face grids, shift scans, weighted floors, chain."""

import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from diracband import (Lattice, bands, build_clifford, cli, config, fiber,
                       verify)
from diracband.fiber import FiberPoint, ModeSet, assemble, sigma_min
from diracband.fields import (FourierField, MeasureSpec, PotentialSet,
                              zero_field, w_norm)
from diracband.gauge import default_kernel_constant
from diracband.verify import (condition_chain_pipeline, k_face_grid,
                              sobolev_direction_measure, verify_thomas_bound,
                              verify_weighted_split, weighted_floor)
from helpers import dense_matrix, random_real_vector_field, run_blas_script

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
    report = verify_thomas_bound(pot, GAMMA, MeasureSpec.dirac(),
                                 theta=0.5, kappas=[4.0, 8.0],
                                 k_points_per_axis=2, cutoff=SMALL_CUTOFF)
    assert report["damping"] == 1.0
    assert report["bound"] == pytest.approx(0.5 * math.pi, abs=1e-15)
    # the harness carries the per-process default constant unchanged; the
    # constant itself is accurate to radial_tol, so its value is checked to a
    # tolerance rather than to one platform's last bits
    assert report["kernel_constant"] == default_kernel_constant()
    assert abs(report["kernel_constant"] - KERNEL_C) < 1e-10
    assert report["dim"] == report["mode_count"] * rep3.M
    # the closed-form table against the dense SVD route at every grid node
    modes = ModeSet.from_cutoff(lat3, SMALL_CUTOFF)
    e = lat3.point(GAMMA) / np.linalg.norm(lat3.point(GAMMA))
    sigma = np.array(report["sigma_table"])
    for i, k in enumerate(report["k_points"]):
        for j, kappa in enumerate(report["kappas"]):
            op = assemble(modes,
                          FiberPoint(k=np.array(k), e=e, kappa=kappa), pot)
            dense = sigma_min(op, method="dense")
            assert abs(sigma[i, j] - dense) < 1e-10
    # the face keeps every axial component at pi or beyond, so every one of
    # the 4 x 2 nodes clears the bound pi / 2 by at least pi / 2
    assert sigma.shape == (4, 2)
    assert float(np.min(sigma)) >= math.pi - 1e-12
    assert float(np.min(sigma)) - report["bound"] >= math.pi / 2.0 - 1e-12
    assert report["holds"] is True and report["kappa_star"] == 4.0
    assert report["verdict"] == "EMPIRICAL"
    # neither optional block is present when it was not asked for
    assert "probe" not in report and "refinement" not in report


def test_thomas_scan_tiny_potential_stays_near_free(lat3, rep3, rng):
    pot = tiny_potential(lat3, rep3, rng, scale=1e-4)
    free = PotentialSet.zero(lat3, rep3)
    kwargs = dict(kappas=[4.0, 8.0], k_points_per_axis=2, cutoff=SMALL_CUTOFF,
                  sphere_samples=256)
    got = verify_thomas_bound(pot, GAMMA, MeasureSpec.dirac(),
                              theta=0.5, **kwargs)
    ref = verify_thomas_bound(free, GAMMA, MeasureSpec.dirac(),
                              theta=0.5, **kwargs)
    # eigenvalue perturbation is bounded by the potential sup norm
    assert (np.max(np.abs(np.array(got["sigma_table"])
                          - np.array(ref["sigma_table"])))
            <= w_norm(pot) + 1e-12)
    assert got["damping"] < 1.0
    assert got["condition"]["theta_hi"] < 1e-4
    assert got["holds"]


def test_thomas_scan_probe_and_refinement(lat3, rep3, rng):
    pot = tiny_potential(lat3, rep3, rng)
    report = verify_thomas_bound(pot, GAMMA, MeasureSpec.dirac(),
                                 theta=0.5, kappas=[4.0], k_points_per_axis=2,
                                 cutoff=SMALL_CUTOFF, sphere_samples=256,
                                 probe_count=500, seed=3, refine_factor=1.0)
    assert "probe" in report and "refinement" in report
    assert report["probe"]["consistent"]
    assert (report["probe"]["probe_min"]
            >= float(np.min(report["sigma_table"])) - 1e-9)
    # refining by factor 1 reruns the identical truncation
    assert report["refinement"]["max_rel_change"] == 0.0
    assert report["refinement"]["kappa_star"] == report["kappa_star"]


def test_potential_stencil_built_once_per_window(lat3, rep3, rng, monkeypatch):
    # every node and the probe of a scan share one stencil and one set of
    # block components per mode window: one composite and one component
    # labelling for the scan window, and one each for the refined window
    pot = tiny_potential(lat3, rep3, rng)
    calls, labellings = [], []
    composite = PotentialSet.composite
    components = fiber._components

    def counted(self):
        calls.append(self)
        return composite(self)

    def counted_components(rows, cols, dim):
        labellings.append(dim)
        return components(rows, cols, dim)

    monkeypatch.setattr(PotentialSet, "composite", counted)
    monkeypatch.setattr(fiber, "_components", counted_components)
    verify_thomas_bound(pot, GAMMA, MeasureSpec.dirac(), theta=0.5,
                        kappas=[4.0, 8.0], k_points_per_axis=2,
                        cutoff=SMALL_CUTOFF, sphere_samples=256, probe_count=10, refine_factor=1.4,
                        threads=2)
    assert len(calls) == 2
    assert len(labellings) == 2 and labellings[0] != labellings[1]


def test_refinement_scan_warns_for_each_clipped_window():
    # at cutoffs 3.0 and 3.75 each window is the origin alone, so every
    # nonzero mode of the documented potential is clipped; the two warnings
    # come from one line and name their cutoffs, so the default filter,
    # which drops a repeated text from the same line, shows both
    p = config.parse_verify_thomas(config.load_file(str(
        Path(__file__).resolve().parents[1] / "configs"
        / "thomas_documented.json")))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        verify_thomas_bound(p["pot"], p["gamma"], p["measure"], p["theta"],
                            kappas=p["kappas"], k_points_per_axis=1,
                            cutoff=3.0, refine_factor=1.25, sphere_samples=256)
    texts = [str(w.message) for w in caught
             if issubclass(w.category, RuntimeWarning)]
    assert len(texts) == 2
    assert "cutoff 3.0;" in texts[0] and "cutoff 3.75;" in texts[1]
    assert all("4 mode(s)" in t for t in texts)


def test_thomas_scan_free_refinement_is_stable(lat3, rep3):
    pot = PotentialSet.zero(lat3, rep3)
    report = verify_thomas_bound(pot, GAMMA, MeasureSpec.dirac(),
                                 theta=0.5, kappas=[4.0, 8.0],
                                 k_points_per_axis=2, cutoff=SMALL_CUTOFF,
                                 refine_factor=1.4)
    assert report["refinement"]["mode_count"] > report["mode_count"]
    # enlarging a free window only adds modes far from the critical annulus
    assert report["refinement"]["max_rel_change"] < 1e-12


def test_thomas_scan_preconditions(lat3, rep3, rng):
    free = PotentialSet.zero(lat3, rep3)
    with pytest.raises(ValueError):
        verify_thomas_bound(free, GAMMA, MeasureSpec.dirac(),
                            theta=1.5, kappas=[4.0], k_points_per_axis=1,
                            cutoff=SMALL_CUTOFF)
    with pytest.raises(ValueError):
        verify_thomas_bound(free, GAMMA, MeasureSpec.dirac(),
                            theta=0.5, kappas=[8.0, 4.0], k_points_per_axis=1,
                            cutoff=SMALL_CUTOFF)
    # a negative probe count was skipped silently
    with pytest.raises(ValueError, match="probe_count"):
        verify_thomas_bound(free, GAMMA, MeasureSpec.dirac(),
                            theta=0.5, kappas=[4.0], k_points_per_axis=1,
                            cutoff=SMALL_CUTOFF, probe_count=-1)
    # a large field pushes the smallness bracket past 1
    v = np.array([0.0, 0.0, 10.0])
    big = FourierField(lat3.__class__.cubic(3), "vector",
                       {(0, 1, 0): v, (0, -1, 0): v}, real=True)
    zm = zero_field(lat3, "matrix", dim=rep3.M)
    pot = PotentialSet(big, zm, zm, rep3)
    with pytest.raises(ValueError):
        verify_thomas_bound(pot, GAMMA, MeasureSpec.dirac(),
                            theta=0.1, kappas=[4.0], k_points_per_axis=1,
                            cutoff=SMALL_CUTOFF, sphere_samples=128)


def mass_potential4():
    """n = 4, a small constant mass: it keeps the fibers off the closed-form
    route, and every diagonal block is one mode of M = 4 rows."""
    lat4 = Lattice.cubic(4)
    rep4 = build_clifford(4)
    mass = FourierField(lat4, "matrix", {(0, 0, 0, 0): 0.1 * rep4.alphas[4]},
                        dim=rep4.M, hermitian=True)
    return PotentialSet(zero_field(lat4, "vector"),
                        zero_field(lat4, "matrix", dim=rep4.M), mass, rep4)


def no_assembly(*args, **kwargs):
    raise AssertionError("assemble ran before the size check")


def test_dense_limit_checked_before_assembly(monkeypatch, tmp_path, capsys):
    # n = 4 at cutoff 20: 569 modes, dim 4,552, over the dense limit of a
    # whole fiber, in 1,138 blocks of 4 rows, 18,208 stack entries
    pot = mass_potential4()
    fib = FiberPoint(k=np.full(4, 0.1), e=np.array([1.0, 0.0, 0.0, 0.0]))
    tracemalloc.start()
    try:
        op = assemble(ModeSet.from_cutoff(pot.lattice, 20.0), fib, pot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.dim == 4552
    assert peak < 50e6
    # the dense view refuses; the solvers and the sweep read the blocks
    with pytest.raises(ValueError, match="dimension 4552 exceeds the dense limit"):
        dense_matrix(op)
    assert fiber.eigenvalues(op).shape == (4552,)
    e = np.array([1.0, 0.0, 0.0, 0.0])
    sheet = bands.band_sweep(pot, np.zeros(4), e, (0.0, 1.0), 2, 20.0)
    assert sheet.energies.shape == (2, 4552)

    # stacks over the square of the limit are refused before the first fiber
    monkeypatch.setattr(fiber, "DENSE_LIMIT", 128)
    monkeypatch.setattr(verify, "assemble", no_assembly)
    monkeypatch.setattr(bands, "assemble", no_assembly)
    refusal = (r"the diagonal blocks hold 18208 entries, over the dense "
               r"limit 128\^2")
    with pytest.raises(ValueError, match=refusal):
        verify_thomas_bound(pot, (1, 0, 0, 0), MeasureSpec.dirac(),
                            theta=0.5, kappas=[4.0], k_points_per_axis=1,
                            cutoff=20.0)
    with pytest.raises(ValueError, match=refusal):
        bands.band_sweep(pot, np.zeros(4), e, (0.0, 1.0), 2, 20.0)
    path = tmp_path / "mass4.json"
    path.write_text(config.canonical_dumps({
        "lattice": {"cubic": 4},
        "potential": {"V1": {"hermitian": True, "modes": [
            {"coeffs": [0, 0, 0, 0], "scalar": 0.1}]}},
        "measure": {"kind": "dirac"},
        "thomas": {"gamma": [1, 0, 0, 0], "theta": 0.5, "kappas": [4.0],
                   "k_points_per_axis": 1, "cutoff": 20.0}}), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["verify-thomas", "--config", str(path)]) == 1
    assert "the diagonal blocks hold 18208 entries" in capsys.readouterr().err


def test_probe_runs_blockwise_past_the_dense_view():
    # the probe multiplies block by block, in column chunks of at most
    # PROBE_CHUNK_BYTES, so a probed scan of the dim-4,552 window runs
    # without the dense view, which would take 331 MB and is refused
    pot = mass_potential4()
    tracemalloc.start()
    try:
        report = verify_thomas_bound(pot, (1, 0, 0, 0), MeasureSpec.dirac(),
                                     theta=0.5, kappas=[4.0],
                                     k_points_per_axis=1, cutoff=20.0,
                                     probe_count=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["dim"] == 4552
    assert report["probe"]["count"] == 1000 and report["probe"]["consistent"]
    assert peak < 50e6  # 9.9 MB measured: four arrays of a 2 MiB chunk
    fib = FiberPoint(k=np.array(report["k_points"][0]),
                     e=np.array([1.0, 0.0, 0.0, 0.0]), kappa=4.0)
    op = assemble(ModeSet.from_cutoff(pot.lattice, 20.0), fib, pot)
    with pytest.raises(ValueError, match="dimension 4552 exceeds the dense limit"):
        dense_matrix(op)


def test_free_scan_allocates_no_dense_fiber():
    # n = 4 at cutoff 20 (dim 4,552, 16 nodes): the closed form reads no
    # fiber matrix, so none is allocated, whatever the dense limit
    lat4 = Lattice.cubic(4)
    rep4 = build_clifford(4)
    tracemalloc.start()
    try:
        out = weighted_floor(PotentialSet.zero(lat4, rep4),
                             (1, 0, 0, 0), kappas=[math.pi, 2.0 * math.pi],
                             k_points_per_axis=2, cutoff=20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["mode_count"] == 569
    assert peak < 50e6
    assert len(out["rows"]) == 16
    assert all(r["ratio"] == 1.0 for r in out["rows"])


def test_weighted_split_free_is_exact(lat3, rep3):
    pot = PotentialSet.zero(lat3, rep3)
    # axial components on the face sit at pi or beyond, so the annulus only
    # populates once its half-width passes pi
    report = verify_weighted_split(pot, GAMMA, MeasureSpec.dirac(),
                                   delta=0.5, beta=3.5, kappas=[4.0, 8.0],
                                   k_points_per_axis=2, cutoff=SMALL_CUTOFF)
    # free factors divided by themselves off the annulus, and the face floor
    # pi never exceeds g_minus on it: the worst ratio is exactly 1
    assert report["floor"] == pytest.approx(math.pi, abs=1e-15)
    assert report["one_minus_delta_star"] == 1.0
    assert report["holds"]
    assert any(r["annulus_modes"] > 0 for r in report["rows"])


def test_weighted_split_small_potential(lat3, rep3, rng):
    pot = tiny_potential(lat3, rep3, rng)
    report = verify_weighted_split(pot, GAMMA, MeasureSpec.dirac(),
                                   delta=0.5, beta=1.0, kappas=[4.0],
                                   k_points_per_axis=2, cutoff=SMALL_CUTOFF,
                                   sphere_samples=256)
    assert report["holds"]
    assert all(r["ratio_sq"] >= 0.5 for r in report["rows"])
    assert report["one_minus_delta_star"] == min(r["ratio_sq"]
                                                 for r in report["rows"])
    assert report["verdict"] == "EMPIRICAL" and report["damping"] < 1.0


def test_weighted_split_preconditions(lat3, rep3):
    pot = PotentialSet.zero(lat3, rep3)
    with pytest.raises(ValueError):
        verify_weighted_split(pot, GAMMA, MeasureSpec.dirac(),
                              delta=1.0, beta=1.0, kappas=[4.0],
                              cutoff=SMALL_CUTOFF)
    with pytest.raises(ValueError):
        verify_weighted_split(pot, GAMMA, MeasureSpec.dirac(),
                              delta=0.5, beta=5.0, kappas=[4.0],
                              cutoff=SMALL_CUTOFF)


def test_weighted_floor_free_is_one(lat3, rep3):
    pot = PotentialSet.zero(lat3, rep3)
    out = weighted_floor(pot, GAMMA, kappas=[4.0, 8.0],
                         k_points_per_axis=2, cutoff=SMALL_CUTOFF)
    assert out["ratio_min"] == 1.0
    assert all(r["ratio"] == 1.0 for r in out["rows"])
    assert out["perturbation_floor"] == 1.0
    assert out["passes"] is True


def test_weighted_floor_obeys_perturbation_bound(lat3, rep3, rng):
    pot = tiny_potential(lat3, rep3, rng)
    out = weighted_floor(pot, GAMMA, kappas=[4.0],
                         k_points_per_axis=2, cutoff=SMALL_CUTOFF)
    # sup perturbation / smallest weight, with weights >= pi/|gamma| on face
    assert out["perturbation_floor"] == 1.0 - out["w_bound"] / math.pi
    assert out["ratio_min"] >= out["perturbation_floor"] - 1e-10
    assert out["passes"] is True


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


def test_checks_scan_the_condition_on_one_blas_thread():
    # a fresh process that starts OpenBLAS on two threads runs the condition
    # scan of verify_thomas_bound on one: the face pins it first, so at any
    # --threads no threaded BLAS call runs before the scan's workers fork
    out = run_blas_script(
        "import helpers\n"
        "from diracband import config, verify\n"
        "if helpers.blas_threads() is None:\n"
        "    raise SystemExit\n"
        "seen = []\n"
        "scan = verify.condition_value\n"
        "def spy(*args, **kwargs):\n"
        "    seen.append(helpers.blas_threads())\n"
        "    return scan(*args, **kwargs)\n"
        "verify.condition_value = spy\n"
        "p = config.parse_verify_thomas(\n"
        "    config.load_file('configs/thomas_documented.json'))\n"
        "verify.verify_thomas_bound(p['pot'], p['gamma'], p['measure'],\n"
        "                           p['theta'], k_points_per_axis=1,\n"
        "                           cutoff=8.0, sphere_samples=256)\n"
        "print(seen)\n", cwd=Path(__file__).resolve().parents[1])
    if out == "":
        pytest.skip("numpy bundles no OpenBLAS")
    assert out == "[1]"
