"""Truncated fiber assembly, closed-form factors, and singular-value routes."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from diracband import config, fiber
from diracband.clifford import build_clifford
from diracband.fiber import (FiberPoint, ModeSet, assemble, eigenvalues,
                             g_factors, global_projection, sigma_min,
                             sigma_min_probe, symbol, transverse_direction,
                             weighted_sigma_min)
from diracband.fields import FourierField, PotentialSet, zero_field
from diracband.verify import k_face_grid
from helpers import fft_apply_oracle, random_real_vector_field


def random_fiber(rng, kappa=None):
    e = rng.standard_normal(3)
    e /= np.linalg.norm(e)
    if kappa is None:
        kappa = float(rng.uniform(0.0, 8.0))
    return FiberPoint(k=rng.uniform(-3.0, 3.0, size=3), e=e, kappa=kappa)


def small_potential(lat3, rep3, rng):
    A = random_real_vector_field(lat3, rng, pairs=2, span=1)
    eye = np.eye(rep3.M, dtype=complex)
    mass = rep3.alphas[rep3.n]
    c = complex(0.1 + 0.05j)
    v0 = FourierField(lat3, "matrix", {(1, 0, 0): c * eye,
                                       (-1, 0, 0): np.conj(c) * eye},
                      dim=rep3.M, hermitian=True)
    v1 = FourierField(lat3, "matrix", {(0, 0, 0): 0.15 * mass}, dim=rep3.M,
                      hermitian=True)
    return PotentialSet(A, v0, v1, rep3)


def test_fiber_point_validation():
    with pytest.raises(ValueError):
        FiberPoint(k=np.zeros(3), e=np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        FiberPoint(k=np.zeros(3), e=np.array([1.0, 0.0, 0.0]), kappa=-1.0)


def test_mode_window_enumeration(lat3):
    cutoff = 2.0 * math.pi * 1.9
    modes = ModeSet.from_cutoff(lat3, cutoff)
    assert tuple(modes.coords[0]) == (0, 0, 0)
    # complete: exactly the integer vectors with |2 pi N| <= cutoff
    want = set()
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                if 2.0 * math.pi * math.sqrt(a * a + b * b + c * c) <= cutoff:
                    want.add((a, b, c))
    assert set(modes.index) == want
    # sorted by norm after the origin
    norms = np.linalg.norm(modes.vectors, axis=1)
    assert np.all(np.diff(norms[1:]) >= -1e-12)

    assert len(ModeSet.from_cutoff(lat3, 0.0)) == 1
    with pytest.raises(ValueError):
        ModeSet(lat3, np.zeros((2, 3), dtype=np.int64))  # duplicates
    with pytest.raises(ValueError):
        ModeSet(lat3, np.zeros((1, 2), dtype=np.int64))


def test_symbol_square_identity(lat3, rep3, rng):
    fib = random_fiber(rng)
    for N in [(0, 0, 0), (1, -2, 0)]:
        s = symbol(rep3, lat3, fib, N)
        z = fib.k + 2.0 * math.pi * lat3.dual_point(np.asarray(N, float)) \
            + 1.0j * fib.kappa * fib.e
        want = complex(np.dot(z, z)) * np.eye(rep3.M)
        assert np.max(np.abs(s @ s - want)) < 1e-12 * max(1.0, abs(np.dot(z, z)))


def test_symbol_singular_values_match_g_factors(lat3, rep3, rng):
    for _ in range(10):
        fib = random_fiber(rng)
        N = tuple(int(c) for c in rng.integers(-2, 3, size=3))
        sv = np.linalg.svd(symbol(rep3, lat3, fib, N), compute_uv=False)
        gm, gp = g_factors(lat3, fib, N)
        M = rep3.M
        want = np.concatenate([np.full(M // 2, gp), np.full(M // 2, gm)])
        scale = max(1.0, gp)
        assert np.max(np.abs(np.sort(sv) - np.sort(want))) < 1e-10 * scale


@pytest.mark.parametrize("gamma", [(1, 0, 0), (1, 1, 0)])
def test_face_floor_is_arithmetic(lat3, rng, gamma):
    # on the face (k, gamma) = pi every shifted momentum keeps an axial
    # component in pi/|gamma| + (2 pi / |gamma|) Z
    gvec = lat3.point(gamma)
    gnorm = float(np.linalg.norm(gvec))
    e = gvec / gnorm
    k = math.pi * gvec / (gnorm * gnorm)
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 2.5)
    for kappa in (0.0, 1.0, 7.3):
        fib = FiberPoint(k=k, e=e, kappa=kappa)
        gm = np.array([g_factors(lat3, fib, row)[0] for row in modes.coords])
        assert np.min(gm) >= math.pi / gnorm - 1e-12


def test_assemble_matches_fft_collocation(lat3, rep3, rng):
    pot = small_potential(lat3, rep3, rng)
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 2.2)
    fib = random_fiber(rng)
    op = assemble(lat3, rep3, modes, fib, pot)
    m, M = len(modes), rep3.M
    phi = rng.standard_normal((m, M)) + 1.0j * rng.standard_normal((m, M))
    got = (op.matrix @ phi.ravel()).reshape(m, M)
    want = fft_apply_oracle(lat3, rep3, modes, fib, pot, phi)
    scale = float(np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_assemble_warns_on_clipped_potential(lat3, rep3, rng):
    v = np.array([0.05, 0.0, 0.0])
    A = FourierField(lat3, "vector", {(3, 0, 0): v, (-3, 0, 0): v}, real=True)
    pot = PotentialSet(A, zero_field(lat3, "matrix", dim=rep3.M),
                       zero_field(lat3, "matrix", dim=rep3.M), rep3)
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.2)
    with pytest.warns(RuntimeWarning):
        assemble(lat3, rep3, modes, FiberPoint(k=np.zeros(3),
                                               e=np.array([1.0, 0, 0])), pot)


def test_eigenvalues_free_closed_form(lat3, rep3, rng):
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.5)
    k = rng.uniform(-0.5, 0.5, size=3)
    fib = FiberPoint(k=k, e=np.array([1.0, 0.0, 0.0]))
    op = assemble(lat3, rep3, modes, fib, PotentialSet.zero(lat3, rep3))
    evs = eigenvalues(op)
    half = rep3.M // 2
    want = []
    for row in modes.coords:
        r = float(np.linalg.norm(k + 2.0 * math.pi * lat3.dual_point(row)))
        want.extend([r] * half + [-r] * half)
    assert np.max(np.abs(evs - np.sort(want))) < 1e-10

    # constant mass term shifts every branch to +-hypot(|x|, mass)
    mass = 0.4
    v1 = FourierField(lat3, "matrix", {(0, 0, 0): mass * rep3.alphas[rep3.n]},
                      dim=rep3.M, hermitian=True)
    op2 = assemble(lat3, rep3, modes, fib,
                   PotentialSet(zero_field(lat3, "vector"),
                                zero_field(lat3, "matrix", dim=rep3.M), v1, rep3))
    evs2 = eigenvalues(op2)
    want2 = []
    for row in modes.coords:
        r = float(np.linalg.norm(k + 2.0 * math.pi * lat3.dual_point(row)))
        want2.extend([math.hypot(r, mass)] * half + [-math.hypot(r, mass)] * half)
    assert np.max(np.abs(evs2 - np.sort(want2))) < 1e-10


def test_eigenvalues_rejects_non_hermitian(lat3, rep3, rng):
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi)
    with pytest.raises(ValueError):
        op = assemble(lat3, rep3, modes,
                      FiberPoint(k=np.zeros(3), e=np.array([1.0, 0, 0]),
                                 kappa=2.0), PotentialSet.zero(lat3, rep3))
        eigenvalues(op)
    # one-sided matrix coefficient: still a valid operator, not Hermitian
    v0 = FourierField(lat3, "matrix",
                      {(1, 0, 0): 0.2 * np.eye(rep3.M, dtype=complex)},
                      dim=rep3.M)
    op = assemble(lat3, rep3, modes, FiberPoint(k=np.zeros(3),
                                                e=np.array([1.0, 0, 0])),
                  PotentialSet(zero_field(lat3, "vector"), v0,
                               zero_field(lat3, "matrix", dim=rep3.M), rep3))
    with pytest.raises(ValueError):
        eigenvalues(op)


def test_sigma_min_routes_agree(lat3, rep3, rng):
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.4)
    fib = random_fiber(rng, kappa=3.0)
    free = assemble(lat3, rep3, modes, fib, PotentialSet.zero(lat3, rep3))
    auto = sigma_min(free)
    assert auto == float(np.min(free.mode_g_factors()[:, 0]))
    assert abs(auto - sigma_min(free, method="dense")) < 1e-10 * max(1.0, auto)

    op = assemble(lat3, rep3, modes, fib, small_potential(lat3, rep3, rng))
    s_auto = sigma_min(op)  # sparse LU plus Lanczos
    s_dense = sigma_min(op, method="dense")
    assert abs(s_auto - s_dense) <= 1e-12 * s_dense

    with pytest.raises(ValueError):
        sigma_min(op, method="qr")
    with pytest.raises(ValueError):
        sigma_min(op, method="dense", dense_limit=4)


def test_weighted_sigma_min(lat3, rep3, rng):
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.4)
    fib = random_fiber(rng, kappa=2.0)
    free = assemble(lat3, rep3, modes, fib, PotentialSet.zero(lat3, rep3))

    # weighting by the exact factors flattens the free ratio to exactly 1
    gm = free.mode_g_factors()[:, 0]
    assert weighted_sigma_min(free, gm) == 1.0
    w = rng.uniform(0.5, 2.0, size=len(modes))
    auto = weighted_sigma_min(free, w)
    dense = weighted_sigma_min(free, w, method="dense")
    assert abs(auto - dense) < 1e-10 * max(1.0, auto)

    op = assemble(lat3, rep3, modes, fib, small_potential(lat3, rep3, rng))
    got = weighted_sigma_min(op, w)
    scale = np.repeat(1.0 / w, rep3.M)
    want = float(np.linalg.svd(op.matrix * scale[None, :], compute_uv=False)[-1])
    assert weighted_sigma_min(op, w, method="dense") == want
    assert abs(got - want) <= 1e-12 * want

    with pytest.raises(ValueError):
        weighted_sigma_min(op, w[:-1])
    with pytest.raises(ValueError):
        weighted_sigma_min(op, 0.0 * w)


def test_sparse_route_falls_back_to_dense(lat3, rep3, rng, monkeypatch):
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.4)
    op = assemble(lat3, rep3, modes, random_fiber(rng, kappa=3.0),
                  small_potential(lat3, rep3, rng))
    w = rng.uniform(0.5, 2.0, size=len(modes))
    dense = sigma_min(op, method="dense")
    dense_w = weighted_sigma_min(op, w, method="dense")
    real_eigsh = fiber.eigsh
    calls = []

    def singular(*args, **kwargs):
        calls.append("splu")
        raise RuntimeError("Factor is exactly singular")

    def no_convergence(*args, **kwargs):
        calls.append("eigsh")
        raise ArpackNoConvergence("no convergence", np.zeros(0),
                                  np.zeros((0, 0)))

    def wrong_vector(*args, **kwargs):
        # the right eigenvalue with a vector that is no singular vector
        calls.append("residual")
        lam, vecs = real_eigsh(*args, **kwargs)
        return lam, np.ones_like(vecs) / math.sqrt(vecs.shape[0])

    for name, fake in (("splu", singular), ("eigsh", no_convergence),
                       ("eigsh", wrong_vector)):
        with monkeypatch.context() as m:
            m.setattr(fiber, name, fake)
            del calls[:]
            assert sigma_min(op) == dense
            assert weighted_sigma_min(op, w) == dense_w
            assert len(calls) == 2
            # the fallback is dense, so it keeps the dense limit
            with pytest.raises(ValueError, match="exceeds the dense limit"):
                sigma_min(op, dense_limit=4)


def test_sparse_route_repeats_its_bits():
    # a weighted-floor node of the shipped config whose ARPACK iterates
    # depended on the thread count of scipy's BLAS: reruns give one value
    root = Path(__file__).resolve().parents[1]
    p = config.parse_verify_weighted(
        config.load_file(str(root / "configs" / "weighted_floor.json")))
    lat, gc = p["lattice"], p["gamma"]
    g = lat.point(gc)
    modes = ModeSet.from_cutoff(lat, p["cutoff"])
    k = k_face_grid(lat, gc, p["k_points_per_axis"])[1]
    op = assemble(lat, p["rep"], modes,
                  FiberPoint(k=k, e=g / np.linalg.norm(g), kappa=p["kappas"][1]),
                  p["pot"])
    w = op.mode_g_factors()[:, 0]
    assert len({repr(weighted_sigma_min(op, w)) for _ in range(4)}) == 1


def test_g_factors_independent_of_blas_kernel():
    # every (g_minus, g_plus) of the shipped weighted-split face scan, under
    # the default OpenBLAS kernel and under OPENBLAS_CORETYPE=Prescott
    root = Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import numpy as np",
        "from diracband import config",
        "from diracband.fiber import FiberPoint, ModeSet, g_factors",
        "from diracband.verify import k_face_grid",
        "p = config.parse_verify_weighted(config.load_file(%r))"
        % str(root / "configs" / "weighted_split.json"),
        "lat, gc = p['lattice'], p['gamma']",
        "g = lat.point(gc)",
        "e = g / np.linalg.norm(g)",
        "modes = ModeSet.from_cutoff(lat, p['cutoff'])",
        "for k in k_face_grid(lat, gc, p['k_points_per_axis']):",
        "    for kappa in p['kappas']:",
        "        f = FiberPoint(k=k, e=e, kappa=kappa)",
        "        for row in modes.coords:",
        "            print(repr(g_factors(lat, f, row)))",
    ])
    outs = []
    for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env.update(extra)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] +
            ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout.splitlines())
    assert len(outs[0]) == 9 * 2 * 81
    assert outs[0] == outs[1]


def test_probe_stays_above_sigma_min(lat3, rep3, rng):
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.2)
    fib = random_fiber(rng, kappa=4.0)
    op = assemble(lat3, rep3, modes, fib, small_potential(lat3, rep3, rng))
    smin = sigma_min(op)
    probe = sigma_min_probe(op, count=2000, seed=7)
    assert probe >= smin - 1e-12
    assert sigma_min_probe(op, count=2000, seed=7) == probe  # seeded


def test_global_projection_transfer(lat3, rep3, rng):
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.4)
    e = np.array([1.0, 0.0, 0.0])
    k = np.array([0.4, 0.2, -0.3])
    fib = FiberPoint(k=k, e=e, kappa=2.5)
    op = assemble(lat3, rep3, modes, fib, PotentialSet.zero(lat3, rep3))
    p_minus = global_projection(rep3, lat3, k, e, modes, -1)
    p_plus = global_projection(rep3, lat3, k, e, modes, +1)
    for p in (p_minus, p_plus):
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p - p.conj().T)) < 1e-12
    # each momentum lies in its own (axial, transverse) plane, so the free
    # fiber swaps the two projections
    lhs = op.matrix @ p_minus
    rhs = p_plus @ op.matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-11

    # axis momenta have no transverse direction and produce zero blocks
    assert transverse_direction(np.array([2.0, 0.0, 0.0]), e) is None
    et = transverse_direction(k + 2.0 * math.pi * np.array([0, 1, 0]), e)
    assert abs(float(np.dot(et, e))) < 1e-12
