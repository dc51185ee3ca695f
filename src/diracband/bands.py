"""Band functions along a quasimomentum line, and flatness diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CliffordRep
from .fiber import (FiberPoint, ModeSet, assemble, check_dense_dim,
                    eigenvalues, g_factors, potential_stencil)
from .fields import PotentialSet
from .lattice import Lattice
from .util import check_unit, pmap


@dataclass
class BandSheet:
    """Eigenvalue table over a 1-d quasimomentum sweep (rows: xi samples)."""

    k0: np.ndarray
    e: np.ndarray
    xis: np.ndarray
    energies: np.ndarray  # (samples, dim), each row ascending
    cutoff: float
    mode_count: int

    @property
    def band_count(self) -> int:
        return self.energies.shape[1]

    def free_band_max(self) -> float:
        return float(np.max(np.abs(self.energies)))


def band_sweep(pot: PotentialSet, k0: np.ndarray, e: np.ndarray,
               xi_range: tuple[float, float], samples: int, cutoff: float,
               threads: int = 1) -> BandSheet:
    """Eigenvalues of the unshifted fiber at k0 + xi e over a uniform xi grid."""
    if samples < 2:
        raise ValueError("need at least two samples")
    lo, hi = float(xi_range[0]), float(xi_range[1])
    if not hi > lo:
        raise ValueError("xi_range must be increasing")
    k0 = np.asarray(k0, dtype=float)
    e = check_unit(np.asarray(e, dtype=float), "sweep direction", tol=1e-9)
    modes = ModeSet.from_cutoff(pot.lattice, cutoff)
    check_dense_dim(len(modes) * pot.rep.M)
    potential_stencil(modes, pot)  # once, before pmap's workers fork
    xis = np.linspace(lo, hi, samples)

    def solve(xi: float) -> np.ndarray:
        fiber = FiberPoint(k=k0 + xi * e, e=e, kappa=0.0)
        return eigenvalues(assemble(modes, fiber, pot))

    energies = np.array(pmap(solve, xis, threads))
    return BandSheet(k0=k0, e=e, xis=xis, energies=energies,
                     cutoff=float(cutoff), mode_count=len(modes))


def nonconstancy_report(sheet: BandSheet, energy_window: tuple[float, float],
                        threshold: float = 1e-6) -> dict:
    """Per-band variation over the sweep, restricted to a spectral window.

    A band participates when any of its values falls inside the window; its
    variation is max - min over the whole sweep.  Bands with variation below
    `threshold` are flagged as suspect flat (an empirical statement at this
    truncation and grid, not a proof of flatness).
    """
    lo, hi = float(energy_window[0]), float(energy_window[1])
    if not hi > lo:
        raise ValueError("energy window must be increasing")
    rows = []
    flagged = []
    for nu in range(sheet.band_count):
        col = sheet.energies[:, nu]
        inside = np.any((col >= lo) & (col <= hi))
        if not inside:
            continue
        variation = float(np.max(col) - np.min(col))
        row = {"band": nu, "min": float(np.min(col)), "max": float(np.max(col)),
               "variation": variation, "suspect_flat": variation < threshold}
        rows.append(row)
        if row["suspect_flat"]:
            flagged.append(nu)
    return {
        "window": [lo, hi],
        "threshold": threshold,
        "bands_in_window": len(rows),
        "suspect_flat_bands": flagged,
        "rows": rows,
        "xi_step": float(sheet.xis[1] - sheet.xis[0]),
        "cutoff": sheet.cutoff,
        "mode_count": sheet.mode_count,
    }


def free_band_values(lattice: Lattice, rep: CliffordRep, k: np.ndarray,
                     cutoff: float, mass: float = 0.0) -> np.ndarray:
    """Closed-form fiber spectrum for zero (or constant-mass) potential.

    Per window mode the eigenvalues are +-sqrt(|k + 2 pi N|^2 + mass^2), each
    with multiplicity M/2; returned ascending for direct comparison with the
    dense eigensolver.
    """
    modes = ModeSet.from_cutoff(lattice, cutoff)
    # unshifted, g_minus = g_plus = |k + 2 pi N| whatever the direction e
    fiber = FiberPoint(k=k, e=np.eye(lattice.n)[0])
    radii = np.array([g_factors(lattice, fiber, row)[0] for row in modes.coords])
    roots = np.hypot(radii, mass)
    return np.sort(np.repeat(np.concatenate([-roots, roots]), rep.M // 2))
