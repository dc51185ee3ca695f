"""Truncated fiber assembly, closed-form factors, and singular-value routes."""

import concurrent.futures
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse import csgraph

from diracband import build_clifford, cli, config, fiber, util, verify
from diracband.clifford import PAULI_X, PAULI_Z
from diracband.fiber import (FiberPoint, ModeSet, annulus_mask, assemble,
                             axial_transverse, eigenvalues, g_factors,
                             g_table, sigma_min, sigma_min_probe, symbol,
                             weighted_sigma_min)
from diracband.fields import FourierField, PotentialSet, zero_field
from diracband.lattice import Lattice
from helpers import (all_blocks_sigma_min, block_rows, chiral_potential,
                     dense_matrix, fft_apply_oracle, probe_oracle,
                     random_real_vector_field)

ROOT = Path(__file__).resolve().parents[1]


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
    # a misshaped k used to broadcast: k = [0.3] or 0.3 gave the bits of
    # k = (0.3, 0.3, 0.3)
    for k, e in (([0.3], (1.0, 0.0, 0.0)), (0.3, (1.0, 0.0, 0.0)),
                 ([[0.3, 0.0, 0.0]], (1.0, 0.0, 0.0)), (np.zeros(3), 1.0)):
        with pytest.raises(ValueError, match="vectors of one length"):
            FiberPoint(k=k, e=e)


def test_fiber_in_another_dimension_is_refused(lat3, rep3, rng):
    # a k and e pair of one length is a fiber, but not on a 3-D lattice
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi)
    pot = small_potential(lat3, rep3, rng)
    for k, e in (([0.3], [1.0]), (np.zeros(4), np.eye(4)[0])):
        fib = FiberPoint(k=k, e=e, kappa=1.0)
        for call in (lambda: symbol(rep3, lat3, fib, (0, 1, 0)),
                     lambda: g_factors(lat3, fib, (0, 1, 0)),
                     lambda: assemble(modes, fib, pot),
                     lambda: axial_transverse(modes, fib)):
            with pytest.raises(ValueError, match="lattice in 3"):
                call()


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
    norms = np.linalg.norm(modes.coords @ lat3.reciprocal, axis=1)
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
    op = assemble(modes, fib, pot)
    m, M = len(modes), rep3.M
    phi = rng.standard_normal((m, M)) + 1.0j * rng.standard_normal((m, M))
    got = (dense_matrix(op) @ phi.ravel()).reshape(m, M)
    want = fft_apply_oracle(lat3, rep3, modes, fib, pot, phi)
    scale = float(np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_assemble_refuses_window_on_another_lattice(lat3, rep3):
    skewed = Lattice([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.2, 0.3, 1.2]])
    fib = FiberPoint(k=np.zeros(3), e=np.array([1.0, 0.0, 0.0]))
    pot = PotentialSet.zero(lat3, rep3)
    with pytest.raises(ValueError, match="different lattices"):
        assemble(ModeSet.from_cutoff(skewed, 8.0), fib, pot)
    # an equal basis on a separate object is the same lattice
    modes = ModeSet.from_cutoff(Lattice.cubic(3), 8.0)
    assert assemble(modes, fib, pot).dim == len(modes) * rep3.M


def test_assemble_warns_on_clipped_potential(lat3, rep3, rng):
    v = np.array([0.05, 0.0, 0.0])
    A = FourierField(lat3, "vector", {(3, 0, 0): v, (-3, 0, 0): v}, real=True)
    pot = PotentialSet(A, zero_field(lat3, "matrix", dim=rep3.M),
                       zero_field(lat3, "matrix", dim=rep3.M), rep3)
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.2)
    with pytest.warns(RuntimeWarning):
        assemble(modes, FiberPoint(k=np.zeros(3),
                                   e=np.array([1.0, 0, 0])), pot)


def test_clipping_warns_once_at_any_thread_count():
    # at cutoff 3.0 the window is the origin alone and the documented
    # potential reaches 2 pi; the window is checked once, when its stencil is
    # built before the scan's workers fork, not once per worker and probe
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    runs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "diracband.cli", "verify-thomas",
             "--config", str(root / "configs" / "thomas_documented.json"),
             "--cutoff", "3.0", "--threads", threads],
            env=env, capture_output=True, text=True)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0] == runs[1]
    assert runs[0][2].count("RuntimeWarning") == 1


def test_eigenvalues_free_closed_form(lat3, rep3, rng):
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.5)
    k = rng.uniform(-0.5, 0.5, size=3)
    fib = FiberPoint(k=k, e=np.array([1.0, 0.0, 0.0]))
    op = assemble(modes, fib, PotentialSet.zero(lat3, rep3))
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
    op2 = assemble(modes, fib,
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
        op = assemble(modes,
                      FiberPoint(k=np.zeros(3), e=np.array([1.0, 0, 0]),
                                 kappa=2.0), PotentialSet.zero(lat3, rep3))
        eigenvalues(op)
    # one-sided matrix coefficient: still a valid operator, not Hermitian
    v0 = FourierField(lat3, "matrix",
                      {(1, 0, 0): 0.2 * np.eye(rep3.M, dtype=complex)},
                      dim=rep3.M)
    op = assemble(modes, FiberPoint(k=np.zeros(3),
                                    e=np.array([1.0, 0, 0])),
                  PotentialSet(zero_field(lat3, "vector"), v0,
                               zero_field(lat3, "matrix", dim=rep3.M), rep3))
    with pytest.raises(ValueError):
        eigenvalues(op)


def test_sigma_min_routes_agree(lat3, rep3, rng, monkeypatch):
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.4)
    fib = random_fiber(rng, kappa=3.0)
    free = assemble(modes, fib, PotentialSet.zero(lat3, rep3))
    auto = sigma_min(free)
    assert auto == float(np.min(free.mode_g_factors()[:, 0]))
    assert abs(auto - sigma_min(free, method="dense")) < 1e-10 * max(1.0, auto)

    op = assemble(modes, fib, small_potential(lat3, rep3, rng))
    # with a potential both routes are the LAPACK SVD of the diagonal blocks
    assert sigma_min(op) == sigma_min(op, method="dense")

    with pytest.raises(ValueError):
        sigma_min(op, method="qr")
    # the size limit belongs to the window's stencil: a fiber already
    # assembled is solved whatever the limit, and a new window is refused
    want = sigma_min(op, method="dense")
    window = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.4)
    monkeypatch.setattr(util, "MEMORY_BUDGET", 16 * 4 ** 2)
    assert sigma_min(op, method="dense") == want
    with pytest.raises(ValueError, match="diagonal blocks hold [0-9]+ entries "
                       "needs [0-9]+ bytes, over the memory budget of 256 "):
        assemble(window, fib, op.pot)


def test_weighted_sigma_min(lat3, rep3, rng):
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.4)
    fib = random_fiber(rng, kappa=2.0)
    free = assemble(modes, fib, PotentialSet.zero(lat3, rep3))

    # weighting by the exact factors flattens the free ratio to exactly 1
    gm = free.mode_g_factors()[:, 0]
    assert weighted_sigma_min(free, gm) == 1.0
    w = rng.uniform(0.5, 2.0, size=len(modes))
    auto = weighted_sigma_min(free, w)
    dense = weighted_sigma_min(free, w, method="dense")
    assert abs(auto - dense) < 1e-10 * max(1.0, auto)

    op = assemble(modes, fib, small_potential(lat3, rep3, rng))
    got = weighted_sigma_min(op, w)
    scale = np.repeat(1.0 / w, rep3.M)
    want = float(np.linalg.svd(dense_matrix(op) * scale[None, :],
                               compute_uv=False)[-1])
    assert weighted_sigma_min(op, w, method="dense") == want
    assert abs(got - want) <= 1e-12 * want

    with pytest.raises(ValueError):
        weighted_sigma_min(op, w[:-1])
    with pytest.raises(ValueError):
        weighted_sigma_min(op, 0.0 * w)


def blocks(op):
    """The diagonal blocks of `op`'s dense view, one per component."""
    return [dense_matrix(op)[np.ix_(rows, rows)] for rows in block_rows(op)]


def block_parities(op):
    """The set of row parities of each diagonal block of `op`."""
    assert np.array_equal(np.sort(np.concatenate(block_rows(op))),
                          np.arange(op.dim))
    return [set((rows % 2).tolist()) for rows in block_rows(op)]


def shifted_fiber4(rng):
    e = rng.standard_normal(4)
    return FiberPoint(k=rng.uniform(-0.5, 0.5, size=4), e=e / np.linalg.norm(e),
                      kappa=2.5)


def test_split_weighted_sigma_min_matches_whole_fiber(rng):
    lat4, rep4 = Lattice.cubic(4), build_clifford(4)
    modes = ModeSet.from_cutoff(lat4, 2.0 * math.pi * 1.45)
    op = assemble(modes, shifted_fiber4(rng), chiral_potential(lat4, rep4, rng))
    # every block lies in one chiral half
    assert all(len(p) == 1 for p in block_parities(op))
    for w in (np.ones(len(modes)), rng.uniform(0.5, 2.0, size=len(modes))):
        scale = np.repeat(1.0 / w, rep4.M)
        want = float(np.linalg.svd(dense_matrix(op) * scale[None, :],
                                   compute_uv=False)[-1])
        for method in ("auto", "dense"):
            got = weighted_sigma_min(op, w, method)
            assert abs(got - want) <= 1e-12 * want


def test_even_n_potential_off_the_chirality_couples_parities(rng):
    # I x I x X commutes with alpha_1..alpha_4, so it is a valid V0, but
    # not with the chirality, a phase times I x I x Z: the chiral halves
    # would drop a coupling, so some block must hold even and odd rows
    lat4, rep4 = Lattice.cubic(4), build_clifford(4)
    omega = reduce(np.matmul, rep4.alphas)
    xx = np.kron(np.eye(4), PAULI_X)
    assert not np.array_equal(omega @ xx, xx @ omega)
    chiral = chiral_potential(lat4, rep4, rng)
    v0 = FourierField(lat4, "matrix", {(1, 0, 0, 0): 0.2 * xx,
                                       (-1, 0, 0, 0): 0.2 * xx},
                      dim=rep4.M, hermitian=True)
    pot = PotentialSet(chiral.A, v0, chiral.V1, rep4)
    modes = ModeSet.from_cutoff(lat4, 2.0 * math.pi * 1.45)
    fib = shifted_fiber4(rng)
    op = assemble(modes, fib, pot)
    assert any(len(p) == 2 for p in block_parities(op))
    # the dense route is one LAPACK call per block, stacked or not
    assert sigma_min(op, method="dense") == min(
        float(np.linalg.svd(b, compute_uv=False)[-1]) for b in blocks(op))
    want = float(np.linalg.svd(dense_matrix(op), compute_uv=False)[-1])
    for method in ("auto", "dense"):
        assert abs(sigma_min(op, method) - want) <= 1e-12 * want
    flat = assemble(modes, FiberPoint(k=fib.k, e=fib.e), pot)
    got = eigenvalues(flat)
    assert np.array_equal(got, np.sort(np.concatenate(
        [np.linalg.eigvalsh(b) for b in blocks(flat)])))
    want = np.linalg.eigvalsh(dense_matrix(flat))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_even_n_mass_convention_keeps_spectrum(rng):
    # V1 = mass alpha_5 = mass Z x Z x Z splits the fiber; the explicit
    # V1 = mass Z x Z x X, which the same unitary on the last factor maps
    # to it while fixing alpha_1..alpha_4, takes the whole fiber
    lat4, rep4 = Lattice.cubic(4), build_clifford(4)
    mass = 0.2
    chiral = chiral_potential(lat4, rep4, rng, mass=mass)
    zzx = reduce(np.kron, [PAULI_Z, PAULI_Z, PAULI_X])
    v1 = FourierField(lat4, "matrix", {(0, 0, 0, 0): mass * zzx},
                      dim=rep4.M, hermitian=True)
    whole_pot = PotentialSet(chiral.A, chiral.V0, v1, rep4)
    modes = ModeSet.from_cutoff(lat4, 2.0 * math.pi * 1.45)
    fib = shifted_fiber4(rng)
    flat = FiberPoint(k=fib.k, e=fib.e)
    split, whole = (assemble(modes, flat, p) for p in (chiral, whole_pot))
    assert all(len(p) == 1 for p in block_parities(split))
    assert any(len(p) == 2 for p in block_parities(whole))
    want = eigenvalues(whole)
    assert np.max(np.abs(eigenvalues(split) - want)) <= (
        1e-12 * np.max(np.abs(want)))
    split, whole = (assemble(modes, fib, p) for p in (chiral, whole_pot))
    for method in ("auto", "dense"):
        want = sigma_min(whole, method)
        assert abs(sigma_min(split, method) - want) <= 1e-12 * want


# mode windows of 27, 33, 11 and 13 modes (dims 108, 264, 88, 208)
COMPONENT_CUTOFFS = {3: 2.0 * math.pi * 1.75, 4: 2.0 * math.pi * 1.45,
                     5: 2.0 * math.pi * 1.05, 6: 2.0 * math.pi * 1.05}


def keyed_potential(lat, rep, rng, keys):
    """Random real A and scalar V0 on the keys and their negatives, plus a
    scalar V0 mean and V1 = 0.2 alpha_{n+1}; all commute with the chirality."""
    n, eye = lat.n, np.eye(rep.M, dtype=complex)
    a_modes, v0_modes = {}, {(0,) * n: 0.1 * eye}
    for key in keys:
        neg = tuple(-x for x in key)
        a = 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        c = 0.1 * complex(rng.uniform(0.5, 1.0), rng.uniform(-0.5, 0.5))
        a_modes.update({key: a, neg: np.conj(a)})
        v0_modes.update({key: c * eye, neg: np.conj(c) * eye})
    return PotentialSet(
        FourierField(lat, "vector", a_modes, real=True),
        FourierField(lat, "matrix", v0_modes, dim=rep.M, hermitian=True),
        FourierField(lat, "matrix", {(0,) * n: 0.2 * rep.alphas[n]},
                     dim=rep.M, hermitian=True), rep)


@pytest.mark.parametrize("probes", [200])
@pytest.mark.parametrize("span", ["lattice", "plane", "index2", "mean"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_component_routes_match_whole_fiber(n, span, probes, rng,
                                            monkeypatch):
    lat, rep = Lattice.cubic(n), build_clifford(n)
    axes = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    keys = {"lattice": axes, "plane": axes[:2],
            "index2": [tuple(2 * x for x in axes[0])] + axes[1:],
            "mean": []}[span]
    pot = keyed_potential(lat, rep, rng, keys)
    modes = ModeSet.from_cutoff(lat, COMPONENT_CUTOFFS[n])
    e = rng.standard_normal(n)
    e /= np.linalg.norm(e)
    k = rng.uniform(-0.5, 0.5, size=n)
    patterns = []
    components = fiber._components

    def recording(rows, cols, dim):
        patterns.append((rows, cols, dim))
        return components(rows, cols, dim)

    monkeypatch.setattr(fiber, "_components", recording)
    fib = FiberPoint(k=k, e=e, kappa=2.5)
    op = assemble(modes, fib, pot)

    # the blocks partition the rows and hold every entry of the fiber;
    # each lies in one chiral half for even n
    parities = block_parities(op)
    matrix = dense_matrix(op)
    outside = matrix.copy()
    for rows, stack in op.blocks:
        for r, block in zip(rows, stack):
            assert np.array_equal(block, matrix[np.ix_(r, r)])
            outside[np.ix_(r, r)] = 0.0
    assert not np.any(outside)
    # the dense view is a dense assembly, entry for entry: each mode's
    # symbol plus the potential mean on the diagonal, V(N_i - N_j) off it
    coeffs, M = pot.composite().coeffs, rep.M
    want = np.zeros((op.dim, op.dim), dtype=complex)
    for i, Ni in enumerate(modes.coords):
        want[i * M:(i + 1) * M, i * M:(i + 1) * M] = symbol(rep, lat, fib, Ni)
        for j, Nj in enumerate(modes.coords):
            key = tuple((Ni - Nj).tolist())
            if key in coeffs:
                want[i * M:(i + 1) * M, j * M:(j + 1) * M] += coeffs[key]
    assert np.array_equal(matrix, want)
    # the blocks' row sets, in ascending rows, are the components scipy
    # finds on the same pattern, which holds every entry of the fiber
    (rows, cols, dim), = patterns
    pattern = scipy.sparse.coo_array((np.ones(len(rows)), (rows, cols)),
                                     shape=(dim, dim)).toarray()
    assert not np.any((matrix != 0) & (pattern == 0))
    count, labels = csgraph.connected_components(pattern, directed=False)
    comps = block_rows(op)
    assert len(comps) == count
    assert len({int(labels[c[0]]) for c in comps}) == count
    assert all(np.all(labels[c] == labels[c[0]]) for c in comps)
    assert all(np.all(np.diff(c) > 0) for c in comps)
    halves = 2 if n % 2 == 0 else 1
    if halves == 2:
        assert all(len(p) == 1 for p in parities)
    block_modes = [modes.coords[np.unique(rows // rep.M)] for rows in comps]
    if span == "lattice":
        assert len(comps) == halves
    elif span == "plane":  # one block per value of (N_3, ..., N_n)
        assert all(len(np.unique(c[:, 2:], axis=0)) == 1 for c in block_modes)
        assert len(comps) == halves * len(
            np.unique(modes.coords[:, 2:], axis=0))
    elif span == "index2":  # one block per parity of N_1
        assert all(len(np.unique(c[:, 0] % 2)) == 1 for c in block_modes)
        assert len(comps) == 2 * halves
    else:  # one block per mode or half-mode
        assert all(len(c) == 1 for c in block_modes)
        assert len(comps) == halves * len(modes)

    # unit, random and annulus weights (verify_weighted_split's rule: g_minus,
    # and a floor on the annulus); the pruned solve gives the float of the
    # oracle that solves every block
    annulus = g_table(op.axial_transverse, fib.kappa)[:, 0]
    annulus[annulus_mask(op.axial_transverse, fib.kappa, 3.5)] = 1.5
    for w in (np.ones(len(modes)), rng.uniform(0.5, 2.0, size=len(modes)),
              annulus):
        scale = np.repeat(1.0 / w, rep.M)
        want = float(np.linalg.svd(matrix * scale[None, :],
                                   compute_uv=False)[-1])
        for method in ("auto", "dense"):
            got = weighted_sigma_min(op, w, method)
            assert abs(got - want) <= 1e-12 * want, method
            assert got == all_blocks_sigma_min(op, w), method
    # from the inequality side: no random unit vector of the whole fiber
    # goes below the blocks' minimum
    s = sigma_min(op)
    assert sigma_min_probe(op, count=probes) >= s * (1.0 - 1e-12)
    flat = assemble(modes, FiberPoint(k=k, e=e), pot)
    want = np.linalg.eigvalsh(dense_matrix(flat))
    got = eigenvalues(flat)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_block_over_dense_limit_is_refused(lat3, rep3, rng, monkeypatch):
    # the stacks are dense, so stacks of more complex entries than the memory
    # budget holds are refused when the window's stencil is built, before
    # they are allocated
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.4)
    monkeypatch.setattr(util, "MEMORY_BUDGET", 16 * 16 ** 2)
    with pytest.raises(ValueError, match="window whose diagonal blocks hold "
                       "[0-9]+ entries needs [0-9]+ bytes, over the memory "
                       "budget of 4096 bytes"):
        assemble(modes, random_fiber(rng), small_potential(lat3, rep3, rng))
    # without a potential every block is one mode: 7 blocks of 16 entries
    free = assemble(modes, random_fiber(rng), PotentialSet.zero(lat3, rep3))
    assert max(len(rows) for rows in block_rows(free)) == rep3.M


def test_connected_block_takes_the_lapack_svd():
    # a thomas_documented.json node solved as one block of 588 rows: both
    # routes give the bits of the LAPACK SVD of the whole dense fiber, and
    # no solve loads scipy
    root = Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from diracband import config, fiber",
        "from diracband.fiber import (FiberPoint, ModeSet, assemble, "
        "sigma_min, weighted_sigma_min)",
        "from diracband.verify import k_face_grid",
        "p = config.parse_verify_thomas(config.load_file(%r))"
        % str(root / "configs" / "thomas_documented.json"),
        "lat, gc = p['lattice'], p['gamma']",
        "g = lat.point(gc)",
        "k = k_face_grid(lat, gc, p['k_points_per_axis'])[6]",
        "# the whole fiber as one block",
        "fiber._components = lambda rows, cols, dim: (np.arange(dim),)",
        "op = assemble(ModeSet.from_cutoff(lat, p['cutoff']), "
        "FiberPoint(k=k, e=g / np.linalg.norm(g), kappa=p['kappas'][2]), "
        "p['pot'])",
        "assert [rows.shape for rows, _ in op.blocks] == [(1, 588)]",
        "w = op.mode_g_factors()[:, 0]",
        "scale = np.repeat(1.0 / w, op.pot.rep.M)",
        "block = op.blocks[0][1][0]",
        "for got, matrix in ((sigma_min(op), block),",
        "                    (weighted_sigma_min(op, w), block * scale)):",
        "    want = np.linalg.svd(matrix, compute_uv=False)[-1]",
        "    assert got == want, (got, want)",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_g_factors_independent_of_blas_kernel():
    # every (g_minus, g_plus) of the shipped weighted-split face scan, under
    # the default OpenBLAS kernel and under OPENBLAS_CORETYPE=Prescott
    root = Path(__file__).resolve().parents[1]
    code = "\n".join([
        "import numpy as np",
        "from diracband import config",
        "from diracband.fiber import FiberPoint, ModeSet, annulus_mask, "
        "axial_transverse, g_factors",
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
        "        print(annulus_mask(axial_transverse(modes, f), kappa, "
        "p['beta']).tolist())",
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
    assert len(outs[0]) == 9 * 2 * (81 + 1)
    assert outs[0] == outs[1]


def test_probe_stays_above_sigma_min(lat3, rep3, rng):
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.2)
    fib = random_fiber(rng, kappa=4.0)
    op = assemble(modes, fib, small_potential(lat3, rep3, rng))
    smin = sigma_min(op)
    probe = sigma_min_probe(op, count=2000, seed=7)
    assert probe >= smin - 1e-12
    assert sigma_min_probe(op, count=2000, seed=7) == probe  # seeded
    # no probe vector gave inf, which claims nothing
    for count in (0, -3):
        with pytest.raises(ValueError, match="count >= 1"):
            sigma_min_probe(op, count=count)


@pytest.mark.parametrize("count", [1, 5, 23])
def test_probe_is_the_same_at_any_thread_count(count, lat3, rep3, rng,
                                               monkeypatch):
    # chunks of 7 vectors, each from its own child of the seed: one vector,
    # less than a chunk, and four chunks with a short last one
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.2)
    op = assemble(modes, random_fiber(rng, kappa=4.0),
                  small_potential(lat3, rep3, rng))
    monkeypatch.setattr(fiber, "PROBE_CHUNK_BYTES", 16 * op.dim * 7)
    monkeypatch.setattr(fiber, "_usable_cores", lambda: 3)
    values = [sigma_min_probe(op, count=count, seed=11, threads=t)
              for t in (1, 2, 3)]
    assert values[0] == values[1] == values[2]
    assert values[0] == pytest.approx(probe_oracle(op, count, 11), rel=1e-12)


def test_probe_threads_are_joined(lat3, rep3, rng, monkeypatch):
    modes = ModeSet.from_cutoff(lat3, 2.0 * math.pi * 1.2)
    op = assemble(modes, random_fiber(rng, kappa=4.0),
                  small_potential(lat3, rep3, rng))
    monkeypatch.setattr(fiber, "PROBE_CHUNK_BYTES", 16 * op.dim * 50)
    monkeypatch.setattr(fiber, "_usable_cores", lambda: 2)
    pools = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        RecordingPool)
    before = threading.active_count()
    value = sigma_min_probe(op, count=200, seed=3, threads=2)
    assert pools == [2]
    assert threading.active_count() == before
    assert value == sigma_min_probe(op, count=200, seed=3)


def test_probe_draws_each_block_where_it_is_multiplied():
    # a chunk holds the vectors and image of one stack at a time, never a
    # dim-wide array: the dim-588 fiber of thomas_documented has stacks of
    # 148, 116, 84 and 20 rows (1.08 PROBE_CHUNK_BYTES measured)
    raw = config.load_file(str(ROOT / "configs" / "thomas_documented.json"))
    pot = config.parse_verify_thomas(raw)["pot"]
    fib = FiberPoint(k=np.array([math.pi, 0.3, -0.2]),
                     e=np.array([1.0, 0.0, 0.0]), kappa=math.pi)
    op = assemble(ModeSet.from_cutoff(pot.lattice, 20.0), fib, pot)
    assert op.dim == 588 and len(op.blocks) == 4
    sigma_min_probe(op, count=2000)
    tracemalloc.start()
    try:
        sigma_min_probe(op, count=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * fiber.PROBE_CHUNK_BYTES


# the pruned block solve of weighted_sigma_min against the oracle that
# solves every block (tests/helpers.py): the same float, compared with ==

def test_pruned_solve_is_the_all_blocks_minimum_on_shipped_scans(
        tmp_path, monkeypatch):
    # every node of the shipped Thomas and weighted scans, in process
    pairs = []

    def unit(op):
        got = sigma_min(op)
        pairs.append((got, all_blocks_sigma_min(op)))
        return got

    def weighted(op, w):
        got = weighted_sigma_min(op, w)
        pairs.append((got, all_blocks_sigma_min(op, w)))
        return got

    monkeypatch.setattr(verify, "sigma_min", unit)
    monkeypatch.setattr(verify, "weighted_sigma_min", weighted)
    for command, name in (("verify-thomas", "thomas_documented"),
                          ("verify-weighted", "weighted_split"),
                          ("verify-weighted", "weighted_floor")):
        path = ROOT / "configs" / f"{name}.json"
        assert cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / name)]) in (0, 2)
    assert len(pairs) == 75 + 18 + 18
    assert [got for got, _ in pairs] == [want for _, want in pairs]


def test_pruned_solve_finds_a_minimum_past_the_lowest_free_factor(lat3,
                                                                  rep3):
    # a strong coupling pulls the block whose least g_minus is 0.13 above
    # the lowest one 0.17 below that block's sigma_min: ordering by g_minus
    # alone would stop before it
    eye = np.eye(rep3.M, dtype=complex)
    c = 0.23 - 0.047j
    a = np.array([-0.255 + 0.135j, -0.014 + 0.065j, 0.101 + 0.150j])
    pot = PotentialSet(
        FourierField(lat3, "vector", {(0, 1, 0): a, (0, -1, 0): np.conj(a)},
                     real=True),
        FourierField(lat3, "matrix", {(1, 0, 0): c * eye,
                                      (-1, 0, 0): np.conj(c) * eye},
                     dim=rep3.M, hermitian=True),
        FourierField(lat3, "matrix", {(0, 0, 0): 0.2 * rep3.alphas[3]},
                     dim=rep3.M, hermitian=True), rep3)
    modes = ModeSet.from_cutoff(lat3, 3.0 * math.pi)
    op = assemble(modes, FiberPoint(k=np.array([math.pi, 0.3, 1.3]),
                                    e=np.array([1.0, 0.0, 0.0]), kappa=8.65),
                  pot)
    gm = g_table(op.axial_transverse, op.fiber.kappa)[:, 0]
    per_block = sorted(
        (float(np.min(gm[r // rep3.M])),
         float(np.linalg.svd(b, compute_uv=False)[-1]))
        for rows, stack in op.blocks for r, b in zip(rows, stack))
    lowest, argmin = per_block[0], min(per_block, key=lambda gs: gs[1])
    assert argmin[0] > lowest[0] + 0.1 and argmin[1] < lowest[1] - 0.1
    assert sigma_min(op) == all_blocks_sigma_min(op) == argmin[1]


def test_thomas_scan_solves_few_blocks_per_node(monkeypatch):
    # thomas_documented.json: 7 blocks in 4 stacks per node, yet at most
    # 1.5 SVD calls
    p = config.parse_verify_thomas(config.load_file(
        str(ROOT / "configs" / "thomas_documented.json")))
    lat, gc = p["lattice"], p["gamma"]
    g = lat.point(gc)
    modes = ModeSet.from_cutoff(lat, p["cutoff"])
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    nodes = 0
    for k in verify.k_face_grid(lat, gc, p["k_points_per_axis"]):
        for kappa in p["kappas"]:
            op = assemble(modes, FiberPoint(k=k, e=g / np.linalg.norm(g),
                                            kappa=kappa), p["pot"])
            assert sum(rows.shape[0] for rows, _ in op.blocks) == 7
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "svd", counted)
                sigma_min(op)
            nodes += 1
    assert nodes == 75
    assert len(calls) <= 1.5 * nodes


def test_cholesky_test_answers_each_block_of_a_stack():
    # sigma_min 2, 0.5, 1 and 3 against t = 1: a block at t is not shown
    # above it, and a failing block does not sink the others
    blocks = np.stack([np.diag([s, 4.0, 5.0, 6.0])
                       for s in (2.0, 0.5, 1.0, 3.0)]).astype(complex)
    got = fiber._certified_above(blocks, np.ones(4))
    assert got.tolist() == [True, False, False, True]
