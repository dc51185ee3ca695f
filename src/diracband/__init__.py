"""Spectral toolkit for periodic Dirac operators.

Builds Hermitian anticommuting generator sets, assembles Bloch fibers with
complex quasimomentum shifts on truncated Fourier windows, sweeps band
functions, and runs empirical singular-value lower-bound checks (plain,
damped and weighted) together with the gauge and direction-search machinery
those checks rest on.
"""

from .bands import BandSheet, band_sweep, nonconstancy_report
from .clifford import (CliffordRep, build_clifford, class_flags,
                       clifford_contraction)
from .fiber import (FiberPoint, ModeSet, TruncatedDiracOperator, assemble,
                    eigenvalues, g_factors, sigma_min, sigma_min_probe, symbol,
                    weighted_sigma_min)
from .fields import (FourierField, MeasureSpec, PotentialSet,
                     averaged_potential, condition_value, sup_norm, w_norm,
                     zero_field)
from .gauge import (EtaSpec, bessel_kernel_constant, build_phi,
                    damping_factor, default_kernel_constant, gauge_bound_check,
                    radial_kernel)
from .lattice import (Lattice, SphereMeasure, check_gamma, enumerate_points,
                      find_gamma, reciprocal_basis)
from .verify import (condition_chain_pipeline, k_face_grid,
                     sobolev_direction_measure, verify_thomas_bound,
                     verify_weighted_split, weighted_floor)

__version__ = "0.1.0"

__all__ = [
    "BandSheet", "band_sweep", "nonconstancy_report",
    "CliffordRep", "build_clifford", "class_flags", "clifford_contraction",
    "FiberPoint", "ModeSet", "TruncatedDiracOperator", "assemble",
    "eigenvalues", "g_factors", "sigma_min", "sigma_min_probe", "symbol",
    "weighted_sigma_min",
    "FourierField", "MeasureSpec", "PotentialSet",
    "averaged_potential", "condition_value", "sup_norm", "w_norm",
    "zero_field",
    "EtaSpec", "bessel_kernel_constant", "build_phi", "damping_factor",
    "default_kernel_constant", "gauge_bound_check", "radial_kernel",
    "Lattice", "SphereMeasure", "check_gamma",
    "enumerate_points", "find_gamma", "reciprocal_basis",
    "condition_chain_pipeline", "k_face_grid", "sobolev_direction_measure",
    "verify_thomas_bound", "verify_weighted_split", "weighted_floor",
    "__version__",
]
