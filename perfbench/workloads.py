"""Seeded inputs of the three workloads and the command line of one operation.

An operation is one call of `diracband.cli.main` on a generated config.  The
inputs of operation `index` in a run with seed `seed` are drawn from
`numpy.random.default_rng([seed, index])`, so the same seed gives the same
inputs.  Every generated potential has the same Fourier modes for every
seed, so the work per operation does not depend on the seed; only the
values, and with them the verdicts, change.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

# Plateau measure of configs/pipeline_documented.json.  It is kept fixed so
# that the plateau norm warmed in set-up is the one every operation reads.
PIPELINE_H = 0.4
PIPELINE_H1 = 0.9

THOMAS_CUTOFF = 20.0
BANDS_CUTOFF = 12.0
BANDS_SAMPLES = 16


def _cplx(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _neighbour_keys(n: int) -> list:
    """Nonzero keys in {-1, 0, 1}^n whose first nonzero entry is positive."""
    out = []
    for key in itertools.product((-1, 0, 1), repeat=n):
        nz = [c for c in key if c]
        if nz and nz[0] > 0:
            out.append(key)
    return out


def _neg(key) -> list:
    return [-c for c in key]


def _random_potential(rng, n: int, v0_mean: bool) -> dict:
    """Seeded values on the modes of configs/thomas_documented.json.

    A is a real field on the pair +-e_2, V0 a Hermitian scalar field on the
    pair +-e_1 (plus a real mean when `v0_mean`), V1 a real scalar mean times
    the mass involution.  The modes are fixed so that every seed gives fibers
    of the same sparsity pattern, and so the same dense-solver work.
    """
    ka = tuple(int(j == 1) for j in range(n))
    kv = tuple(int(j == 0) for j in range(n))
    a = 0.03 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    c0 = 0.2 * complex(rng.uniform(0.5, 1.0), rng.uniform(-0.5, 0.5))
    v0_modes = [{"coeffs": list(kv), "scalar": _cplx(c0)},
                {"coeffs": _neg(kv), "scalar": _cplx(c0.conjugate())}]
    if v0_mean:
        v0_modes.append({"coeffs": [0] * n,
                         "scalar": float(rng.uniform(-0.2, 0.2))})
    return {
        "A": {"real": True, "modes": [
            {"coeffs": list(ka), "value": [_cplx(z) for z in a]},
            {"coeffs": _neg(ka), "value": [_cplx(z) for z in np.conj(a)]}]},
        "V0": {"hermitian": True, "modes": v0_modes},
        "V1": {"hermitian": True, "modes": [
            {"coeffs": [0] * n, "scalar": float(rng.uniform(0.1, 0.3))}]},
    }


def thomas_config(rng) -> dict:
    """Class and size of configs/thomas_documented.json (dim 588, 25 x 3 nodes)."""
    return {
        "lattice": {"cubic": 3},
        "potential": _random_potential(rng, 3, v0_mean=False),
        "measure": {"kind": "dirac"},
        "thomas": {
            "gamma": [1, 0, 0],
            "theta": 0.5,
            "kappas": [math.pi, 2.0 * math.pi, 4.0 * math.pi],
            "k_points_per_axis": 5,
            "cutoff": THOMAS_CUTOFF,
            "probe_count": 2000,
        },
        "seed": int(rng.integers(0, 2 ** 31)),
    }


def bands_config(rng) -> dict:
    """n = 4 (M = 8) at cutoff 12 (dim 520), one line of 16 samples."""
    direction = rng.standard_normal(4)
    direction /= np.linalg.norm(direction)
    return {
        "lattice": {"cubic": 4},
        "potential": _random_potential(rng, 4, v0_mean=True),
        "bands": {
            "k0": [float(c) for c in rng.uniform(-math.pi, math.pi, 4)],
            "direction": [float(c) for c in direction],
            "xi_range": [-1.0, 1.0],
            "samples": BANDS_SAMPLES,
            "cutoff": BANDS_CUTOFF,
        },
    }


def pipeline_config(rng) -> dict:
    """Zero-mean real A on all 26 modes of {-1, 0, 1}^3, as in the documented config."""
    modes = []
    for key in _neighbour_keys(3):
        a = 0.03 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        modes.append({"coeffs": list(key), "value": [_cplx(z) for z in a]})
        modes.append({"coeffs": _neg(key),
                      "value": [_cplx(z) for z in np.conj(a)]})
    return {
        "lattice": {"cubic": 3},
        "potential": {"A": {"real": True, "modes": modes}},
        "pipeline": {
            "q": 0.75,
            "h": PIPELINE_H,
            "h1": PIPELINE_H1,
            "R0_list": [2, 4, 8],
            "et_samples": 8,
            "grid_per_axis": 16,
        },
    }


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def threads_for(workload: str, override=None):
    """The --threads value an operation passes, or None for the CLI default."""
    if override is not None:
        return override
    return usable_cores() if workload == "thomas_scan" else None


def prepare(workload: str, seed: int, index: int, work_dir: str,
            threads=None) -> tuple[list, dict]:
    """Write operation `index`'s config; return (cli argv, config)."""
    command, make = {
        "thomas_scan": ("verify-thomas", thomas_config),
        "band_sweep": ("bands", bands_config),
        "direction_search": ("find-gamma", pipeline_config),
    }[workload]
    config = make(np.random.default_rng([seed, index]))
    path = os.path.join(work_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    argv = [command, "--config", path, "--out", os.path.join(work_dir, "out")]
    threads = threads_for(workload, threads)
    if threads is not None:
        argv += ["--threads", str(threads)]
    return argv, config
