"""Band sweeps against closed forms, plus the flatness diagnostic."""

import math

import numpy as np
import pytest

from diracband import Lattice, build_clifford
from diracband.bands import BandSheet, band_sweep, nonconstancy_report
from diracband.fiber import FiberPoint, ModeSet, assemble
from diracband.fields import FourierField, PotentialSet, zero_field
from helpers import (block_rows, chiral_potential, dense_matrix,
                     free_band_values)

E_X = np.array([1.0, 0.0, 0.0])
CUTOFF = 2.0 * math.pi * 1.5


def test_sweep_validation(lat3, rep3):
    pot = PotentialSet.zero(lat3, rep3)
    with pytest.raises(ValueError):
        band_sweep(pot, np.zeros(3), E_X, (0.0, 1.0), 1, CUTOFF)
    with pytest.raises(ValueError):
        band_sweep(pot, np.zeros(3), E_X, (1.0, 1.0), 5, CUTOFF)
    with pytest.raises(ValueError):
        band_sweep(pot, np.zeros(3), 2.0 * E_X, (0.0, 1.0), 5,
                   CUTOFF)


def test_free_sweep_matches_closed_form(lat3, rep3, rng):
    k0 = rng.uniform(-0.4, 0.4, size=3)
    sheet = band_sweep(PotentialSet.zero(lat3, rep3), k0, E_X,
                       (-1.0, 1.0), 20, CUTOFF)
    assert sheet.band_count == sheet.mode_count * rep3.M
    for xi, row in zip(sheet.xis, sheet.energies):
        want = free_band_values(lat3, rep3, k0 + xi * E_X, CUTOFF)
        assert np.max(np.abs(row - want)) < 1e-10


def test_mass_and_scalar_shifts(lat3, rep3):
    k0 = np.array([0.3, -0.1, 0.2])
    mass, level = 0.7, 0.25
    eye = np.eye(rep3.M, dtype=complex)
    v0 = FourierField(lat3, "matrix", {(0, 0, 0): level * eye}, dim=rep3.M,
                      hermitian=True)
    v1 = FourierField(lat3, "matrix", {(0, 0, 0): mass * rep3.alphas[rep3.n]},
                      dim=rep3.M, hermitian=True)
    zv = zero_field(lat3, "vector")
    zm = zero_field(lat3, "matrix", dim=rep3.M)

    massive = band_sweep(PotentialSet(zv, zm, v1, rep3), k0, E_X,
                         (-0.5, 0.5), 7, CUTOFF)
    for xi, row in zip(massive.xis, massive.energies):
        want = free_band_values(lat3, rep3, k0 + xi * E_X, CUTOFF, mass=mass)
        assert np.max(np.abs(row - want)) < 1e-10

    # a constant scalar level commutes with everything: rigid shift
    shifted = band_sweep(PotentialSet(zv, v0, zm, rep3), k0, E_X,
                         (-0.5, 0.5), 7, CUTOFF)
    free = band_sweep(PotentialSet.zero(lat3, rep3), k0, E_X,
                      (-0.5, 0.5), 7, CUTOFF)
    assert np.max(np.abs(shifted.energies - (free.energies + level))) < 1e-10


def test_free_sweep_reflection_symmetry(lat3, rep3):
    sheet = band_sweep(PotentialSet.zero(lat3, rep3), np.zeros(3),
                       E_X, (-0.9, 0.9), 9, CUTOFF)
    # |(-xi) e + 2 pi N| runs over the same set as |xi e + 2 pi N|
    assert np.max(np.abs(sheet.energies - sheet.energies[::-1])) < 1e-10


def test_bands_are_lipschitz_in_xi(lat3, rep3, rng):
    # the sweep parameter enters through a norm-1 involution, so each sorted
    # eigenvalue moves by at most the step
    from helpers import random_real_vector_field
    A = random_real_vector_field(lat3, rng, pairs=2, span=1)
    pot = PotentialSet(A, zero_field(lat3, "matrix", dim=rep3.M),
                       zero_field(lat3, "matrix", dim=rep3.M), rep3)
    sheet = band_sweep(pot, np.array([0.2, 0.1, 0.0]), E_X,
                       (-0.6, 0.6), 13, CUTOFF)
    step = sheet.xis[1] - sheet.xis[0]
    jumps = np.abs(np.diff(sheet.energies, axis=0))
    assert float(np.max(jumps)) <= step + 1e-12


@pytest.mark.parametrize("n, cutoff", [(4, 2.0 * math.pi * 1.45),
                                       (6, 2.0 * math.pi)])
def test_split_sweep_matches_whole_fiber(n, cutoff, rng):
    # even n: each fiber is solved as its diagonal blocks, each inside one
    # chiral half; the sorted union must be the spectrum of the whole fiber
    lat, rep = Lattice.cubic(n), build_clifford(n)
    pot = chiral_potential(lat, rep, rng)
    k0 = rng.uniform(-0.5, 0.5, size=n)
    e = rng.standard_normal(n)
    e /= np.linalg.norm(e)
    sheet = band_sweep(pot, k0, e, (-0.5, 0.5), 3, cutoff)
    modes = ModeSet.from_cutoff(lat, cutoff)
    assert sheet.band_count == len(modes) * rep.M
    for xi, row in zip(sheet.xis, sheet.energies):
        op = assemble(modes, FiberPoint(k=k0 + xi * e, e=e), pot)
        assert all(len(set((rows % 2).tolist())) == 1
                   for rows in block_rows(op))
        want = np.linalg.eigvalsh(dense_matrix(op))
        assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))


def test_split_mass_sweep_matches_closed_form():
    lat4, rep4 = Lattice.cubic(4), build_clifford(4)
    mass, cutoff = 0.6, 2.0 * math.pi * 1.45
    v1 = FourierField(lat4, "matrix", {(0, 0, 0, 0): mass * rep4.alphas[4]},
                      dim=rep4.M, hermitian=True)
    pot = PotentialSet(zero_field(lat4, "vector"),
                       zero_field(lat4, "matrix", dim=rep4.M), v1, rep4)
    k0, e = np.array([0.3, -0.1, 0.2, 0.05]), np.eye(4)[1]
    sheet = band_sweep(pot, k0, e, (-0.5, 0.5), 5, cutoff)
    for xi, row in zip(sheet.xis, sheet.energies):
        want = free_band_values(lat4, rep4, k0 + xi * e, cutoff, mass=mass)
        assert np.max(np.abs(row - want)) < 1e-10


def test_nonconstancy_report_free(lat3, rep3):
    sheet = band_sweep(PotentialSet.zero(lat3, rep3),
                       np.array([0.3, 0.2, -0.1]), E_X, (-1.0, 1.0), 15,
                       CUTOFF)
    half = sheet.free_band_max() / 2.0
    rep = nonconstancy_report(sheet, (-half, half))
    assert rep["bands_in_window"] > 0
    assert rep["suspect_flat_bands"] == []
    assert rep["threshold"] == 1e-6
    assert rep["mode_count"] == sheet.mode_count
    assert rep["xi_step"] == pytest.approx(2.0 / 14.0)
    for row in rep["rows"]:
        assert row["variation"] > 1e-6

    with pytest.raises(ValueError):
        nonconstancy_report(sheet, (1.0, -1.0))


def test_nonconstancy_report_flags_synthetic_flat():
    energies = np.column_stack([
        np.full(11, 0.5),                    # flat inside the window
        np.linspace(0.0, 1.0, 11),           # dispersive inside
        np.full(11, 9.0),                    # flat but outside
    ])
    sheet = BandSheet(k0=np.zeros(3), e=E_X, xis=np.linspace(0, 1, 11),
                      energies=energies, cutoff=1.0, mode_count=1)
    rep = nonconstancy_report(sheet, (-1.0, 1.0), threshold=1e-6)
    assert rep["suspect_flat_bands"] == [0]
    assert rep["bands_in_window"] == 2
    assert rep["rows"][0]["variation"] == 0.0
