"""Correctness checks of the program's outputs, computed apart from it.

Each check takes the config an operation ran on and the artifacts it wrote,
and returns a list of problems (empty when the output is right).  The
oracles use their own generator matrices, mode windows, fiber assembly and
direction search, and `scipy` solvers where the program uses `numpy` ones; they
import nothing from `diracband`.  Tolerances are fixed here, before any
output is seen:

* thomas_scan: sigma_min agrees to 1e-9 relative with our own dense fiber
  and `scipy.linalg.svdvals` at the checked nodes; every sigma_min lies
  within the potential's coefficient-norm sum of the free closed form
  (Weyl); the probe never undercuts the scanned minimum by more than 1e-9.
* band_sweep: rows ascending with one entry per fiber dimension; each row
  sums to m * tr(mean composite coefficient); sorted eigenvalues within the
  coefficient-norm sum of the free values +-|k + 2 pi N| (Weyl); checked
  rows agree to 1e-9 (relative to the largest eigenvalue) with our own
  fiber and `scipy.linalg.eigvalsh`.
* direction_search: the reported gamma wins a brute-force search over
  |gamma| <= R0 with the documented tie-break; min_orth_raw matches a
  brute-force search; f_lo <= middle <= outer at every et, and outer
  matches our Cauchy-Schwarz value to 1e-12 relative.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from functools import reduce

import numpy as np
from scipy import linalg

TWO_PI = 2.0 * math.pi
SVD_RTOL = 1e-9
EIG_RTOL = 1e-9
CHAIN_RTOL = 1e-12


# ---------------------------------------------------------------------------
# generators, potentials, windows and fibers
# ---------------------------------------------------------------------------

def generators(n: int) -> list:
    """n + 1 anticommuting Hermitian involutions on C^M, M = 2^((n+2)//2).

    Jordan-Wigner chain Z..Z X I..I, Z..Z Y I..I, ..., then Z..Z; the first n
    act on the momenta and the last is the mass involution.
    """
    px = np.array([[0, 1], [1, 0]], dtype=complex)
    py = np.array([[0, -1j], [1j, 0]], dtype=complex)
    pz = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    m = (n + 2) // 2
    mats = []
    for j in range(m):
        for p in (px, py):
            mats.append(reduce(np.kron, [pz] * j + [p] + [eye] * (m - j - 1)))
    mats.append(reduce(np.kron, [pz] * m))
    mats = mats[:n + 1]
    size = mats[0].shape[0]
    for a, b in itertools.combinations_with_replacement(range(n + 1), 2):
        want = 2.0 * np.eye(size) if a == b else 0.0
        if np.max(np.abs(mats[a] @ mats[b] + mats[b] @ mats[a] - want)) > 0.0:
            raise AssertionError("generator chain is not a Clifford set")
    return mats


def _complex(node) -> complex:
    return complex(node[0], node[1]) if isinstance(node, list) else complex(node)


def composite(potential: dict, gens: list) -> dict:
    """Coefficients V0 + V1 - sum_j A_j alpha_j of the config's potential."""
    n = len(gens) - 1
    M = gens[0].shape[0]
    out: dict = {}

    def add(key, mat):
        key = tuple(int(c) for c in key)
        out[key] = out.get(key, np.zeros((M, M), dtype=complex)) + mat

    for mode in potential.get("A", {}).get("modes", []):
        vec = [_complex(v) for v in mode["value"]]
        add(mode["coeffs"], -sum(v * a for v, a in zip(vec, gens[:n])))
    for name, base in (("V0", np.eye(M, dtype=complex)), ("V1", gens[n])):
        for mode in potential.get(name, {}).get("modes", []):
            if "scalar" in mode:
                add(mode["coeffs"], _complex(mode["scalar"]) * base)
            else:
                add(mode["coeffs"], np.array([[_complex(c) for c in row]
                                              for row in mode["value"]]))
    return out


def coefficient_norm_sum(coeffs: dict) -> float:
    """Sum of spectral norms: bounds the potential part of every fiber."""
    return float(sum(np.linalg.norm(c, 2) for c in coeffs.values()))


def window(n: int, cutoff: float) -> np.ndarray:
    """Integer N with |2 pi N| <= cutoff on the cubic lattice (any order)."""
    r = cutoff / TWO_PI
    b = int(math.floor(r))
    grid = np.array(list(itertools.product(range(-b, b + 1), repeat=n)),
                    dtype=np.int64)
    return grid[np.sum(grid * grid, axis=1) <= r * r]


def fiber(gens: list, modes: np.ndarray, k, e, kappa: float,
          coeffs: dict) -> np.ndarray:
    """Dense fiber: symbol blocks on the diagonal, V(N_i - N_j) off it."""
    n = len(gens) - 1
    M = gens[0].shape[0]
    m = modes.shape[0]
    x = np.asarray(k)[None, :] + TWO_PI * modes + 1j * kappa * np.asarray(e)
    symbols = np.einsum("mj,jab->mab", x, np.array(gens[:n]))
    D = np.zeros((m * M, m * M), dtype=complex)
    for i in range(m):
        D[i * M:(i + 1) * M, i * M:(i + 1) * M] = symbols[i]
    index = {tuple(row): i for i, row in enumerate(modes.tolist())}
    for key, block in coeffs.items():
        for j, row in enumerate(modes.tolist()):
            i = index.get(tuple(a + b for a, b in zip(row, key)))
            if i is not None:
                D[i * M:(i + 1) * M, j * M:(j + 1) * M] += block
    return D


def free_sigma_min(modes: np.ndarray, k, e, kappa: float) -> float:
    """min over window modes of hypot(p, kappa - q) for x = k + 2 pi N."""
    x = np.asarray(k)[None, :] + TWO_PI * modes
    p = x @ np.asarray(e)
    q = np.sqrt(np.maximum(np.sum(x * x, axis=1) - p * p, 0.0))
    return float(np.min(np.hypot(p, kappa - q)))


# ---------------------------------------------------------------------------
# thomas_scan
# ---------------------------------------------------------------------------

def check_thomas(config: dict, report: dict, nodes) -> list:
    """`nodes` are (k_index, kappa_index) pairs to solve densely here."""
    problems = []
    gens = generators(3)
    coeffs = composite(config["potential"], gens)
    vnorm = coefficient_norm_sum(coeffs)
    cutoff = config["thomas"]["cutoff"]
    modes = window(3, cutoff)
    dim = modes.shape[0] * gens[0].shape[0]
    if report["dim"] != dim or report["mode_count"] != modes.shape[0]:
        problems.append(f"window: dim {report['dim']} != {dim}")
    gamma = np.array(config["thomas"]["gamma"], dtype=float)
    e = gamma / np.linalg.norm(gamma)
    kappas = report["kappas"]
    ks = np.array(report["k_points"])
    sigma = np.array(report["sigma_table"])
    if sigma.shape != (ks.shape[0], len(kappas)) or ks.shape[0] != \
            config["thomas"]["k_points_per_axis"] ** 2:
        return problems + [f"sigma_table has shape {sigma.shape}"]
    if np.max(np.abs(ks @ gamma - math.pi)) > 1e-12:
        problems.append("k points are off the face (k, gamma) = pi")
    for i, j in itertools.product(range(ks.shape[0]), range(len(kappas))):
        free = free_sigma_min(modes, ks[i], e, kappas[j])
        if abs(sigma[i, j] - free) > vnorm + 1e-9:
            problems.append(f"node ({i},{j}): sigma {sigma[i, j]!r} is "
                            f"{abs(sigma[i, j] - free):.3g} from free {free!r}")
    for i, j in nodes:
        D = fiber(gens, modes, ks[i], e, kappas[j], coeffs)
        ref = float(linalg.svdvals(D)[-1])
        if abs(sigma[i, j] - ref) > SVD_RTOL * ref:
            problems.append(f"node ({i},{j}): sigma {sigma[i, j]!r} vs "
                            f"dense {ref!r}")
    probe = report.get("probe")
    if probe is None:
        problems.append("no probe in the report")
    else:
        j = kappas.index(probe["kappa"])
        if probe["probe_min"] < sigma[probe["k_index"], j] - 1e-9:
            problems.append(f"probe_min {probe['probe_min']!r} undercuts "
                            f"sigma {sigma[probe['k_index'], j]!r}")
    return problems


# ---------------------------------------------------------------------------
# band_sweep
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> tuple[list, np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


def check_bands(config: dict, csv_text: str, rows) -> list:
    """`rows` are sample indices to solve densely here."""
    problems = []
    node = config["bands"]
    n = len(node["k0"])
    gens = generators(n)
    M = gens[0].shape[0]
    coeffs = composite(config.get("potential", {}), gens)
    vnorm = coefficient_norm_sum(coeffs)
    modes = window(n, node["cutoff"])
    m = modes.shape[0]
    header, table = parse_csv(csv_text)
    if len(header) != m * M + 1 or table.shape != (node["samples"], m * M + 1):
        return [f"table shape {table.shape}, expected "
                f"({node['samples']}, {m * M + 1})"]
    xis = np.linspace(*node["xi_range"], node["samples"])
    if np.max(np.abs(table[:, 0] - xis)) > 1e-15:
        problems.append("xi column differs from the sample grid")
    e = np.array(node["direction"]) / np.linalg.norm(node["direction"])
    k0 = np.array(node["k0"])
    trace = m * np.trace(coeffs.get((0,) * n, np.zeros((M, M)))).real
    for r in range(table.shape[0]):
        energies = table[r, 1:]
        if np.any(np.diff(energies) < 0.0):
            problems.append(f"row {r} is not ascending")
        total = float(np.sum(energies))
        if abs(total - trace) > 1e-10 * float(np.sum(np.abs(energies))) + 1e-12:
            problems.append(f"row {r}: sum {total!r} != m tr V_0 {trace!r}")
        x = (k0 + table[r, 0] * e)[None, :] + TWO_PI * modes
        radii = np.linalg.norm(x, axis=1)
        free = np.sort(np.concatenate([np.repeat(-radii, M // 2),
                                       np.repeat(radii, M // 2)]))
        dev = float(np.max(np.abs(np.sort(energies) - free)))
        if dev > vnorm + 1e-9:
            problems.append(f"row {r}: {dev:.3g} from the free spectrum, "
                            f"bound {vnorm:.3g}")
    for r in rows:
        D = fiber(gens, modes, k0 + table[r, 0] * e, e, 0.0, coeffs)
        ref = linalg.eigvalsh(D)
        dev = float(np.max(np.abs(table[r, 1:] - ref)))
        if dev > EIG_RTOL * float(np.max(np.abs(ref))):
            problems.append(f"row {r}: eigenvalues differ by {dev:.3g} "
                            "from the dense solve")
    return problems


# ---------------------------------------------------------------------------
# direction_search
# ---------------------------------------------------------------------------

def sobolev_atoms(config: dict, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Atoms N/|N| (N reduced to primitive) with weight |N|^2q |A_N|^2."""
    acc: dict = {}
    for mode in config["potential"]["A"]["modes"]:
        key = np.array(mode["coeffs"], dtype=np.int64)
        g = math.gcd(*(abs(int(c)) for c in key))
        prim = tuple(int(c) // g for c in key)
        val = np.array([_complex(v) for v in mode["value"]])
        w = float(np.linalg.norm(key.astype(float))) ** (2.0 * q) * \
            float(np.linalg.norm(val)) ** 2
        acc[prim] = acc.get(prim, 0.0) + w
    prims = sorted(acc)
    pts = np.array(prims, dtype=float)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts, np.array([acc[p] for p in prims])


def ball(n: int, radius: float) -> np.ndarray:
    """Nonzero integer vectors with |v| <= radius."""
    b = int(math.floor(radius + 1e-9))
    grid = np.array(list(itertools.product(range(-b, b + 1), repeat=n)),
                    dtype=np.int64)
    norms = np.sqrt(np.sum(grid * grid, axis=1).astype(float))
    return grid[(norms <= radius) & np.any(grid != 0, axis=1)]


def min_orthogonal(cands: np.ndarray, radius: float) -> np.ndarray:
    """Per candidate, shortest dual vector within `radius` orthogonal to it."""
    dual = ball(cands.shape[1], radius)
    dnorm = np.sqrt(np.sum(dual * dual, axis=1).astype(float))
    out = np.empty(cands.shape[0])
    for s in range(0, cands.shape[0], 256):
        orth = (dual @ cands[s:s + 256].T) == 0
        out[s:s + 256] = np.min(np.where(orth, dnorm[:, None], np.inf), axis=0)
    return out


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def gamma_winner(config: dict, R0: float) -> dict:
    """Brute-force direction search: smallest slab ratio, then larger
    min_orth, then smaller |gamma|, then lexicographic coefficients."""
    node = config["pipeline"]
    q, h = node["q"], node["h"]
    n = 3
    pts, wts = sobolev_atoms(config, q)
    cands = ball(n, R0)
    gnorm = np.sqrt(np.sum(cands * cands, axis=1).astype(float))
    slab = (np.abs(cands.astype(float) @ pts.T) <= h) @ wts
    denom = (1.0 / gnorm) * max(h, R0 ** (-1.0 / (n - 1)))
    ratio = (slab / np.sum(wts)) / denom
    win = max(2.0 * R0 ** (1.0 / (n - 1)), 10.0)
    orth = min_orthogonal(cands, win)
    best = None
    for c in range(cands.shape[0]):
        key = (ratio[c], orth[c], gnorm[c], tuple(int(v) for v in cands[c]))
        if best is None or _better(key, best):
            best = key
    return {"gamma_coeffs": list(best[3]), "slab_ratio": float(best[0]),
            "min_orth_raw": float(best[1]), "window": win}


def _better(a: tuple, b: tuple) -> bool:
    """Tie-break order with 1e-12 relative ties on the float keys."""
    for pos, sign in ((0, 1.0), (1, -1.0), (2, 1.0)):
        if a[pos] != b[pos] and not _close(a[pos], b[pos], 1e-12):
            return sign * (a[pos] - b[pos]) < 0.0
    return a[3] < b[3]


def check_direction(config: dict, report: dict) -> list:
    problems = []
    node = config["pipeline"]
    q, h1 = node["q"], node["h1"]
    if [r["R0"] for r in report["rows"]] != [float(v) for v in node["R0_list"]]:
        return ["rows do not follow R0_list"]
    amodes = {tuple(m["coeffs"]): np.array([_complex(v) for v in m["value"]])
              for m in config["potential"]["A"]["modes"]}
    for row in report["rows"]:
        cert = row["certificate"]
        want = gamma_winner(config, row["R0"])
        if cert["gamma_coeffs"] != want["gamma_coeffs"]:
            problems.append(f"R0 {row['R0']}: gamma {cert['gamma_coeffs']} "
                            f"but the search gives {want['gamma_coeffs']}")
            continue
        if cert["window"] != want["window"]:
            problems.append(f"R0 {row['R0']}: window {cert['window']!r} vs "
                            f"{want['window']!r}")
        if cert["slab_ratio"] != want["slab_ratio"] and not _close(
                cert["slab_ratio"], want["slab_ratio"], CHAIN_RTOL):
            problems.append(f"R0 {row['R0']}: slab_ratio "
                            f"{cert['slab_ratio']!r} vs {want['slab_ratio']!r}")
        if cert["min_orth_raw"] is None or not _close(
                cert["min_orth_raw"], want["min_orth_raw"], CHAIN_RTOL):
            problems.append(f"R0 {row['R0']}: min_orth_raw "
                            f"{cert['min_orth_raw']!r} vs {want['min_orth_raw']!r}")
        gc = np.array(cert["gamma_coeffs"], dtype=np.int64)
        gnorm = float(np.linalg.norm(gc.astype(float)))
        orth = [(np.array(k, dtype=float), float(np.linalg.norm(v)))
                for k, v in sorted(amodes.items())
                if any(k) and int(np.dot(k, gc)) == 0]
        right_sq = sum(np.linalg.norm(nv) ** (2.0 * q) * a * a
                       for nv, a in orth)
        for p in row["per_et"]:
            et = np.array(p["et"])
            sel = [(nv, a) for nv, a in orth if abs(float(nv @ et)) <= h1]
            outer = gnorm * math.sqrt(sum(np.linalg.norm(nv) ** (-2.0 * q)
                                          for nv, _ in sel)) * math.sqrt(right_sq)
            if not (p["f_lo"] <= p["middle"] * (1 + CHAIN_RTOL) + 1e-15 and
                    p["middle"] <= p["outer"] * (1 + CHAIN_RTOL) + 1e-15):
                problems.append(f"R0 {row['R0']}: chain broken at et {p['et']}")
            if p["outer"] != outer and not _close(p["outer"], outer,
                                                  CHAIN_RTOL):
                problems.append(f"R0 {row['R0']}: outer {p['outer']!r} vs "
                                f"Cauchy-Schwarz {outer!r}")
    return problems
