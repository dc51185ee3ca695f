"""Acceptance checklist, one test per numbered criterion.

Each test prints a single [PASS k] / [FAIL k] line (visible with -s or -rA;
under plain `pytest -v` the test name plus PASSED/FAILED carries the same
information).  Tolerances are pinned here and nowhere else.
"""

import functools
import json
import math
import os

import numpy as np
import pytest

from diracband import config as cfg
from diracband.bands import band_sweep
from diracband.cli import main
from diracband.clifford import (anticommutator, build_clifford,
                                clifford_contraction, projector)
from diracband.fields import (FourierField, MeasureSpec, PotentialSet,
                              averaged_potential, zero_field)
from diracband.fiber import FiberPoint, ModeSet, g_factors, symbol
from diracband.gauge import (bessel_kernel_constant, build_phi,
                             gauge_bound_check, EtaSpec)
from diracband.lattice import Lattice, SphereMeasure, check_gamma, find_gamma
from diracband.util import orthonormal_complement
from diracband.verify import condition_chain_pipeline, verify_thomas_bound, \
    weighted_floor
from helpers import (average_by_quadrature, brute_force_gamma,
                     random_real_vector_field)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL {num}] {label}")
                raise
            print(f"\n[PASS {num}] {label}")
        return run
    return wrap


def load_config(name):
    return cfg.load_file(os.path.join(CONFIG_DIR, name))


@criterion(1, "generator and projector identities, n = 3..6")
def test_01_clifford_identities():
    rng = np.random.default_rng(1)
    for n in range(3, 7):
        rep = build_clifford(n)
        assert rep.M == 2 ** ((n + 2) // 2)
        eye = rep.identity
        for i in range(n + 1):
            for j in range(i, n + 1):
                want = 2.0 * eye if i == j else 0.0 * eye
                assert np.array_equal(
                    anticommutator(rep.alphas[i], rep.alphas[j]), want)
        for _ in range(5):
            e = rng.standard_normal(n)
            e /= np.linalg.norm(e)
            et = orthonormal_complement(e)[0]
            p, r = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.0)
            kappa = rng.uniform(0.0, 1.0)
            sym = clifford_contraction(rep, (p + 1.0j * kappa) * e + r * et)
            for sign in (1, -1):
                proj = projector(e, et, sign, rep)
                assert np.max(np.abs(proj @ proj - proj)) < 1e-12
                assert np.max(np.abs(proj - proj.conj().T)) < 1e-12
                assert round(float(np.trace(proj).real)) == rep.M // 2
                assert np.max(np.abs(proj @ sym @ proj)) < 1e-12


@criterion(2, "symbol singular values and the face floor")
def test_02_symbol_spectra(lat3, rep3):
    rng = np.random.default_rng(2)
    for _ in range(100):
        e = rng.standard_normal(3)
        e /= np.linalg.norm(e)
        fib = FiberPoint(k=rng.uniform(-3.0, 3.0, size=3), e=e,
                         kappa=float(rng.uniform(0.0, 8.0)))
        N = tuple(int(c) for c in rng.integers(-3, 4, size=3))
        sv = np.sort(np.linalg.svd(symbol(rep3, lat3, fib, N),
                                   compute_uv=False))
        gm, gp = g_factors(lat3, fib, N)
        want = np.sort(np.array([gp, gp, gm, gm]))
        assert np.max(np.abs(sv - want)) <= 1e-10 * max(1.0, gp)

    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 2.5)
    for gamma in [(1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0)]:
        gvec = lat3.point(gamma)
        gnorm = float(np.linalg.norm(gvec))
        floor = math.pi / gnorm
        for kappa in (0.0, 1.0, 7.3):
            fib = FiberPoint(k=math.pi * gvec / gnorm ** 2, e=gvec / gnorm,
                             kappa=kappa)
            low = min(g_factors(lat3, fib, row)[0] for row in modes.coords)
            if gamma == (1, 0, 0):
                assert low >= floor  # anchor is exact on an axis
            else:
                # allow two roundings of the face anchor point
                assert low >= floor * (1.0 - 1e-15)


@criterion(3, "averaging against the double-quadrature oracle")
def test_03_averaged_potential(lat3):
    rng = np.random.default_rng(3)
    A = random_real_vector_field(lat3, rng, pairs=4, span=2)
    gamma = (1, 1, 0)
    et = np.array([0.0, 0.0, 1.0])
    points = rng.uniform(0.0, 1.0, size=(50, 3))
    for measure, tol in [(MeasureSpec.dirac(), 1e-12),
                         (MeasureSpec.plateau(0.4, 1.1), 1e-6)]:
        av = averaged_potential(A, gamma, measure, et)
        want = average_by_quadrature(A, gamma, measure, et, points)
        assert np.max(np.abs(av.evaluate(points) - want)) <= tol
        for key in av.coeffs:
            assert np.dot(key, gamma) == 0  # annihilation is exact


@criterion(4, "gauge pair identities and the mode multiplier")
def test_04_gauge_identities(lat3):
    rng = np.random.default_rng(4)
    gammas = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 1)]
    measures = [MeasureSpec.dirac(), MeasureSpec.plateau(0.5, 1.5)]
    for draw in range(100):
        A = random_real_vector_field(lat3, rng, pairs=3, span=2)
        gamma = gammas[draw % len(gammas)]
        measure = measures[draw % 2]
        axis = lat3.direction(gamma)[3]
        et = orthonormal_complement(axis)[0]
        At = averaged_potential(A, gamma, measure, et)
        p1, p2 = build_phi(A, gamma, measure, et)
        diff = A - At
        for key, val in diff.coeffs.items():
            nvec = lat3.dual_point(key)
            nu1 = float(np.dot(nvec, et))
            nu2 = float(np.dot(nvec, axis))
            a = complex(np.dot(val, et))
            b = complex(np.dot(val, axis))
            coef1 = p1.coeffs.get(key, 0.0)
            coef2 = p2.coeffs.get(key, 0.0)
            scale = max(abs(a), abs(b), 1e-30)
            two_pi_i = 2.0j * math.pi
            assert abs(two_pi_i * (nu1 * coef1 - nu2 * coef2) - a) <= 1e-12 * scale
            assert abs(two_pi_i * (nu2 * coef1 + nu1 * coef2) - b) <= 1e-12 * scale
        if draw % 5 == 0:
            result = gauge_bound_check(A, gamma, measure, et, grid_per_axis=8)
            assert result["eta_multiplier_one"] is True


@criterion(5, "kernel constant routes and the sup-norm bound, zero failures")
def test_05_kernel_constant_and_bound(lat3):
    report = bessel_kernel_constant(EtaSpec(), cross_check=True)
    assert report.cross_residual is not None
    assert report.cross_residual <= 1e-4
    assert report.constant == pytest.approx(1.7058460118707472, abs=1e-7)

    rng = np.random.default_rng(5)
    gammas = [(1, 0, 0), (0, 0, 1), (1, 1, 0), (2, -1, 1)]
    failures = 0
    for draw in range(100):
        A = random_real_vector_field(lat3, rng, pairs=3, span=2)
        gamma = gammas[draw % len(gammas)]
        gvec = lat3.point(gamma)
        axis = gvec / float(np.linalg.norm(gvec))
        et = orthonormal_complement(axis)[0]
        for measure in (MeasureSpec.dirac(), MeasureSpec.plateau(0.5, 1.5)):
            result = gauge_bound_check(A, gamma, measure, et, grid_per_axis=8)
            failures += 0 if result["ok"] else 1
    assert failures == 0


@criterion(6, "direction search optimal against exhaustive enumeration")
def test_06_find_gamma_exhaustive(lat3):
    rng = np.random.default_rng(6)
    for R0 in (2.0, 3.0, 4.0, 5.0, 6.0):
        count = int(rng.integers(1, 11))
        points = rng.standard_normal((count, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        measure = SphereMeasure(points=points,
                                weights=rng.uniform(0.1, 1.0, size=count))
        cert = find_gamma(lat3, measure, 0.1, R0)
        best, _ = brute_force_gamma(lat3, measure, 0.1, R0, cert.window)
        assert cert.gamma_coeffs == best
        ok, cert2 = check_gamma(lat3, cert.gamma_coeffs, measure, 0.1, R0,
                                orth_floor=(cert.min_orth or 1.0) * 0.99,
                                slab_cap=max(cert.slab_ratio, 1e-9),
                                window=cert.window)
        assert ok
        assert cert2.slab_ratio == cert.slab_ratio
        assert cert2.min_orth_raw == cert.min_orth_raw


@criterion(7, "free bands and the constant-mass shift")
def test_07_free_bands(lat3, rep3):
    cutoff = 2.0 * math.pi * 1.5
    k0 = np.array([0.25, -0.15, 0.05])
    e = np.array([1.0, 0.0, 0.0])
    modes = ModeSet.from_cutoff(lat3, cutoff)

    def closed_form(k, mass):
        vals = []
        for row in modes.coords:
            r = float(np.linalg.norm(k + 2.0 * math.pi
                                     * lat3.dual_point(row)))
            root = math.hypot(r, mass)
            vals.extend([root, -root] * (rep3.M // 2))
        return np.sort(np.array(vals))

    free = band_sweep(PotentialSet.zero(lat3, rep3), k0, e,
                      (-1.0, 1.0), 20, cutoff)
    for xi, row in zip(free.xis, free.energies):
        assert np.max(np.abs(row - closed_form(k0 + xi * e, 0.0))) <= 1e-10

    mass = 0.6
    v1 = FourierField(lat3, "matrix",
                      {(0, 0, 0): mass * rep3.alphas[rep3.n]}, dim=rep3.M,
                      hermitian=True)
    pot = PotentialSet(zero_field(lat3, "vector"),
                       zero_field(lat3, "matrix", dim=rep3.M), v1, rep3)
    massive = band_sweep(pot, k0, e, (-1.0, 1.0), 20, cutoff)
    for xi, row in zip(massive.xis, massive.energies):
        assert np.max(np.abs(row - closed_form(k0 + xi * e, mass))) <= 1e-10


@criterion(8, "documented shift scan with cutoff-refinement stability")
def test_08_thomas_documented(lat3, rep3):
    parsed = cfg.parse_verify_thomas(load_config("thomas_documented.json"))
    report = verify_thomas_bound(
        parsed["pot"], parsed["gamma"],
        parsed["measure"], parsed["theta"], kappas=parsed["kappas"],
        k_points_per_axis=parsed["k_points_per_axis"],
        cutoff=parsed["cutoff"], probe_count=parsed["probe_count"],
        refine_factor=1.25, threads=4)
    assert report.condition.theta_hi <= 0.3
    assert report.w_bound <= 1.0
    assert report.holds
    assert report.kappa_star == math.pi
    assert report.bound == pytest.approx(0.7939334007045397, abs=1e-12)
    assert report.probe["consistent"]
    assert report.refinement["kappa_star"] == report.kappa_star
    assert report.refinement["max_rel_change"] < 0.10

    free = verify_thomas_bound(
        PotentialSet.zero(lat3, rep3), parsed["gamma"],
        MeasureSpec.dirac(), 0.5, kappas=parsed["kappas"],
        k_points_per_axis=5, cutoff=12.0, threads=4)
    assert np.max(np.abs(free.sigma - free.free_closed_form)) <= 1e-10


@criterion(9, "weighted floor: exactly 1 free, perturbation bound held")
def test_09_weighted_floor(lat3, rep3):
    free = weighted_floor(PotentialSet.zero(lat3, rep3),
                          (1, 0, 0), kappas=[math.pi, 2.0 * math.pi],
                          k_points_per_axis=3, cutoff=16.0)
    assert all(r["ratio"] == 1.0 for r in free["rows"])
    assert free["ratio_min"] == 1.0

    parsed = cfg.parse_verify_weighted(load_config("weighted_floor.json"))
    out = weighted_floor(parsed["pot"],
                         parsed["gamma"], parsed["kappas"],
                         k_points_per_axis=parsed["k_points_per_axis"],
                         cutoff=parsed["cutoff"])
    assert all(r["ratio"] >= out["perturbation_floor"] - 1e-12
               for r in out["rows"])


@criterion(10, "smallness chain ordered and decaying across radii")
def test_10_condition_chain(lat3):
    parsed = cfg.parse_find_gamma(load_config("pipeline_documented.json"))
    out = condition_chain_pipeline(
        parsed["A"], parsed["q"], parsed["h"], parsed["h1"],
        parsed["R0_list"], et_samples=parsed["et_samples"],
        grid_per_axis=parsed["grid_per_axis"], seed=parsed["seed"])
    assert out["chain_ok"]
    frozen = [0.28131652501047455, 0.15332318807016768, 0.0]
    assert out["outer_values"] == pytest.approx(frozen, abs=1e-12)
    a, b, c = out["outer_values"]
    assert a > b > c


@criterion(11, "byte-identical command reruns and the committed golden")
def test_11_cli_determinism(tmp_path):
    jobs = [
        ("bands", os.path.join(CONFIG_DIR, "free_bands.json")),
        ("check-condition", os.path.join(CONFIG_DIR, "condition.json")),
        ("find-gamma", os.path.join(CONFIG_DIR, "find_gamma_atoms.json")),
        ("verify-thomas", os.path.join(CONFIG_DIR, "thomas_documented.json")),
        ("verify-weighted", os.path.join(CONFIG_DIR, "weighted_floor.json")),
        ("verify-weighted", os.path.join(CONFIG_DIR, "weighted_split.json")),
        ("gauge-bound", os.path.join(CONFIG_DIR, "gauge_bound.json")),
        ("kernel-constant", os.path.join(CONFIG_DIR, "kernel.json")),
    ]
    for idx, (command, config) in enumerate(jobs):
        snapshots = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{idx}_{attempt}"
            # find-gamma's search mode draws nothing and refuses a seed
            seed = (["--seed", "0"] if command in
                    ("check-condition", "verify-thomas") else [])
            code = main([command, "--config", config, *seed,
                         "--out", str(out)])
            assert code == 0, (command, config)
            snapshots.append({name: (out / name).read_bytes()
                              for name in os.listdir(out)})
        assert snapshots[0] == snapshots[1], (command, config)

    golden = open(os.path.join(GOLDEN_DIR, "find_gamma_atoms.json"),
                  "rb").read()
    produced = (tmp_path / "2_first" / "find-gamma.json").read_bytes()
    assert produced == golden
