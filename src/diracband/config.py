"""Strict JSON configuration layer for the command line front end.

Configs are plain JSON.  Complex numbers are written as [re, im]; lattice
basis entries may be exact rationals written as strings "p/q".  Unknown
keys are rejected, every numeric parameter is range-checked at load, and
all errors carry RFC 6901 JSON-pointer paths to the offending node.

`canonical_dumps` re-emits a parsed config with sorted keys and fixed
layout, so emit -> reload -> emit is byte-identical.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .clifford import CliffordRep, build_clifford
from .fields import (PLATEAU_H1_MAX, FourierField, MeasureSpec, PotentialSet,
                     zero_field)
from .gauge import SAMPLE_STEP_MIN
from .lattice import Lattice, SphereMeasure


class ConfigError(ValueError):
    """Validation failure; `path` is a JSON pointer into the config."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path if path else "/"
        self.message = message
        super().__init__(f"{self.path}: {message}")


def _escape(token: str) -> str:
    return token.replace("~", "~0").replace("/", "~1")


def _join(path: str, token) -> str:
    return f"{path}/{_escape(str(token))}"


# ---------------------------------------------------------------------------
# raw JSON handling
# ---------------------------------------------------------------------------

def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError("", f"duplicate key '{key}'")
        seen[key] = value
    return seen


def _reject_constant(name):
    raise ConfigError("", f"non-finite literal '{name}' is not allowed")


def loads(text: str) -> dict:
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicates,
                         parse_constant=_reject_constant)
    except ConfigError:
        raise
    except ValueError as exc:  # also integers over Python's digit limit
        raise ConfigError("", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("", "top level must be an object")
    return raw


def load_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError("", f"not UTF-8: {exc}") from exc
    return loads(text)


def canonical_dumps(raw) -> str:
    """Stable re-emission: sorted keys, two-space indent, trailing newline."""
    return json.dumps(raw, sort_keys=True, indent=2, ensure_ascii=True,
                      allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# scalar parsers
# ---------------------------------------------------------------------------

def _object(node, path, required=(), optional=()):
    if not isinstance(node, dict):
        raise ConfigError(path, "expected an object")
    allowed = set(required) | set(optional)
    for key in node:
        if key not in allowed:
            raise ConfigError(_join(path, key), "unknown key")
    for key in required:
        if key not in node:
            raise ConfigError(path, f"missing required key '{key}'")
    return node


def _list(node, path, length=None, min_length=None):
    if not isinstance(node, list):
        raise ConfigError(path, "expected an array")
    if length is not None and len(node) != length:
        raise ConfigError(path, f"expected exactly {length} entries")
    if min_length is not None and len(node) < min_length:
        raise ConfigError(path, f"expected at least {min_length} entries")
    return node


def _number(node, path, *, gt=None, ge=None, lt=None, le=None) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(path, "expected a number")
    try:
        x = float(node)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(path, "expected a finite number")
    if gt is not None and not x > gt:
        raise ConfigError(path, f"must be > {gt}")
    if ge is not None and not x >= ge:
        raise ConfigError(path, f"must be >= {ge}")
    if lt is not None and not x < lt:
        raise ConfigError(path, f"must be < {lt}")
    if le is not None and not x <= le:
        raise ConfigError(path, f"must be <= {le}")
    return x


def _integer(node, path, *, ge=None, le=None) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(path, "expected an integer")
    if ge is not None and node < ge:
        raise ConfigError(path, f"must be >= {ge}")
    if le is not None and node > le:
        raise ConfigError(path, f"must be <= {le}")
    return int(node)


def _boolean(node, path) -> bool:
    if not isinstance(node, bool):
        raise ConfigError(path, "expected true or false")
    return node


def _string(node, path, choices=None) -> str:
    if not isinstance(node, str):
        raise ConfigError(path, "expected a string")
    if choices is not None and node not in choices:
        raise ConfigError(path, f"expected one of {sorted(choices)}")
    return node


def _rational(node, path) -> float:
    """Number, or an exact rational written 'p/q'."""
    if isinstance(node, str):
        try:
            return float(Fraction(node))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(path, f"invalid rational: {exc}") from exc
    return _number(node, path)


def _complex_entry(node, path) -> complex:
    """Number, or a two-element array [re, im]."""
    if isinstance(node, list):
        _list(node, path, length=2)
        return complex(_number(node[0], _join(path, 0)),
                       _number(node[1], _join(path, 1)))
    return complex(_number(node, path))


def _int_tuple(node, path, length) -> tuple:
    """Integer coordinates of at most 2^20 in size: every int64 pairing of
    two such n-vectors, n <= 8, stays below 2^43."""
    _list(node, path, length=length)
    return tuple(_integer(v, _join(path, i), ge=-2 ** 20, le=2 ** 20)
                 for i, v in enumerate(node))


def _float_vector(node, path, length) -> np.ndarray:
    _list(node, path, length=length)
    return np.array([_number(v, _join(path, i)) for i, v in enumerate(node)])


def _direction(node, path, length, what="direction") -> np.ndarray:
    """A nonzero vector of `length` numbers, scaled to unit length."""
    v = _float_vector(node, path, length)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ConfigError(path, f"{what} must be nonzero")
    return v / norm


def _positive_list(node, path) -> list:
    """A nonempty array of numbers > 0."""
    _list(node, path, min_length=1)
    return [_number(v, _join(path, i), gt=0.0) for i, v in enumerate(node)]


# ---------------------------------------------------------------------------
# domain builders
# ---------------------------------------------------------------------------

def build_lattice(node, path) -> Lattice:
    node = _object(node, path, optional=("cubic", "basis"))
    if ("cubic" in node) == ("basis" in node):
        raise ConfigError(path, "give exactly one of 'cubic' or 'basis'")
    if "cubic" in node:
        n = _integer(node["cubic"], _join(path, "cubic"), ge=2, le=8)
        return Lattice.cubic(n)
    rows = _list(node["basis"], _join(path, "basis"), min_length=2)
    n = len(rows)
    if n > 8:
        raise ConfigError(_join(path, "basis"), "at most 8 rows supported")
    basis = np.zeros((n, n))
    for i, row in enumerate(rows):
        rpath = _join(_join(path, "basis"), i)
        _list(row, rpath, length=n)
        for j, entry in enumerate(row):
            basis[i, j] = _rational(entry, _join(rpath, j))
    try:
        return Lattice(basis)
    except ValueError as exc:
        raise ConfigError(_join(path, "basis"), str(exc)) from exc


def build_measure(node, path) -> MeasureSpec:
    node = _object(node, path, required=("kind",), optional=("h", "h1"))
    kind = _string(node["kind"], _join(path, "kind"), choices={"dirac", "plateau"})
    if kind == "dirac":
        if "h1" in node:
            raise ConfigError(_join(path, "h1"), "dirac measure takes no h1")
        if "h" in node:
            return MeasureSpec.dirac(_number(node["h"], _join(path, "h"), gt=0.0))
        return MeasureSpec.dirac()
    for key in ("h", "h1"):
        if key not in node:
            raise ConfigError(path, f"plateau measure needs '{key}'")
    h = _number(node["h"], _join(path, "h"), gt=0.0)
    h1 = _number(node["h1"], _join(path, "h1"), gt=h, le=PLATEAU_H1_MAX)
    return MeasureSpec.plateau(h, h1)


def _field(node, path, lattice: Lattice, kind: str, flag: str, entry_keys: dict,
           value, **kwargs) -> FourierField:
    """A field block: its flag, then each mode's coefficients and `value`."""
    node = _object(node, path, required=("modes",), optional=(flag,))
    flags = {flag: _boolean(node.get(flag, False), _join(path, flag))}
    entries = _list(node["modes"], _join(path, "modes"))
    coeffs: dict = {}
    for i, entry in enumerate(entries):
        epath = _join(_join(path, "modes"), i)
        entry = _object(entry, epath, **entry_keys)
        key = _int_tuple(entry["coeffs"], _join(epath, "coeffs"), lattice.n)
        if key in coeffs:
            raise ConfigError(_join(epath, "coeffs"), "duplicate mode")
        coeffs[key] = value(entry, epath)
    try:
        return FourierField(lattice, kind, coeffs, **flags, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _vector_field(node, path, lattice: Lattice) -> FourierField:
    def value(entry, epath):
        vpath = _join(epath, "value")
        _list(entry["value"], vpath, length=lattice.n)
        return [_complex_entry(v, _join(vpath, j))
                for j, v in enumerate(entry["value"])]

    return _field(node, path, lattice, "vector", "real",
                  {"required": ("coeffs", "value")}, value)


def _matrix_value(entry, epath, rep: CliffordRep, scalar_base):
    """One matrix coefficient: explicit M x M rows, or scalar * base matrix."""
    has_value = "value" in entry
    has_scalar = "scalar" in entry
    if has_value == has_scalar:
        raise ConfigError(epath, "give exactly one of 'value' or 'scalar'")
    if has_scalar:
        return _complex_entry(entry["scalar"], _join(epath, "scalar")) * scalar_base
    M = rep.M
    vpath = _join(epath, "value")
    rows = _list(entry["value"], vpath, length=M)
    mat = np.zeros((M, M), dtype=complex)
    for i, row in enumerate(rows):
        rpath = _join(vpath, i)
        _list(row, rpath, length=M)
        for j, cell in enumerate(row):
            mat[i, j] = _complex_entry(cell, _join(rpath, j))
    return mat


def _matrix_field(node, path, lattice: Lattice, rep: CliffordRep,
                  scalar_base: np.ndarray) -> FourierField:
    return _field(node, path, lattice, "matrix", "hermitian",
                  {"required": ("coeffs",), "optional": ("value", "scalar")},
                  lambda entry, epath: _matrix_value(entry, epath, rep,
                                                     scalar_base),
                  dim=rep.M)


def build_potential(node, path, lattice: Lattice, rep: CliffordRep
                    ) -> PotentialSet:
    """Potential block; a missing block or missing parts mean zero.

    V0 'scalar' entries multiply the identity; V1 'scalar' entries multiply
    the extra involution (the mass direction), which anticommutes with the
    first n generators.
    """
    if node is None:
        return PotentialSet.zero(lattice, rep)
    node = _object(node, path, optional=("A", "V0", "V1"))
    A = (_vector_field(node["A"], _join(path, "A"), lattice)
         if "A" in node else zero_field(lattice, "vector"))
    eye = np.eye(rep.M, dtype=complex)
    mass = rep.alphas[rep.n]
    V0 = (_matrix_field(node["V0"], _join(path, "V0"), lattice, rep, eye)
          if "V0" in node else zero_field(lattice, "matrix", dim=rep.M))
    V1 = (_matrix_field(node["V1"], _join(path, "V1"), lattice, rep, mass)
          if "V1" in node else zero_field(lattice, "matrix", dim=rep.M))
    try:
        return PotentialSet(A, V0, V1, rep)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _gamma(node, path, lattice: Lattice) -> tuple:
    gc = _int_tuple(node, path, lattice.n)
    if not any(gc):
        raise ConfigError(path, "gamma must be nonzero")
    return gc


def build_sphere_measure(node, path, lattice: Lattice) -> SphereMeasure:
    entries = _list(node, path)
    points, weights = [], []
    for i, entry in enumerate(entries):
        epath = _join(path, i)
        entry = _object(entry, epath, required=("point", "weight"))
        points.append(_direction(entry["point"], _join(epath, "point"),
                                 lattice.n, "atom direction"))
        weights.append(_number(entry["weight"], _join(epath, "weight"), ge=0.0))
    return SphereMeasure(points=np.reshape(points, (-1, lattice.n)),
                         weights=np.array(weights))


# ---------------------------------------------------------------------------
# per-command validators
# ---------------------------------------------------------------------------

def _preamble(raw, required, optional=(), potential=True) -> dict:
    """Shared head of a command config, checked in this order: the top-level
    keys, the lattice, the seed (only where `optional` names it, for the
    commands that draw random numbers), then (with `potential`) the
    generators and the potential block."""
    _object(raw, "", required=("lattice",) + required,
            optional=("potential",) + optional)
    lattice = build_lattice(raw["lattice"], "/lattice")
    out = {"lattice": lattice}
    if "seed" in optional:
        out["seed"] = _integer(raw.get("seed", 0), "/seed", ge=0)
    if potential:
        out["pot"] = build_potential(raw.get("potential"), "/potential",
                                     lattice, build_clifford(lattice.n))
    return out


def _vector_potential(raw, pot: PotentialSet) -> FourierField:
    """A of a command that reads only the vector potential; V0 and V1 refused."""
    for key in ("V0", "V1"):
        if key in (raw.get("potential") or {}):
            raise ConfigError(_join("/potential", key),
                              "unused: this command reads only A")
    return pot.A


def _optional(parse, node, path, key, **bounds):
    """`parse` of node[key] at path/key, or None when the key is absent."""
    return parse(node[key], _join(path, key), **bounds) if key in node else None


def parse_bands(raw) -> dict:
    out = _preamble(raw, ("bands",))
    lattice = out["lattice"]
    node = _object(raw["bands"], "/bands",
                   required=("k0", "direction", "xi_range", "samples", "cutoff"),
                   optional=("energy_window", "threshold"))
    k0 = _float_vector(node["k0"], "/bands/k0", lattice.n)
    e = _direction(node["direction"], "/bands/direction", lattice.n)
    xi = _list(node["xi_range"], "/bands/xi_range", length=2)
    a = _number(xi[0], "/bands/xi_range/0")
    b = _number(xi[1], "/bands/xi_range/1", gt=a)
    window = None
    if "energy_window" in node:
        win = _list(node["energy_window"], "/bands/energy_window", length=2)
        lo = _number(win[0], "/bands/energy_window/0")
        hi = _number(win[1], "/bands/energy_window/1", gt=lo)
        window = (lo, hi)
    return {
        **out, "k0": k0, "e": e, "xi_range": (a, b),
        "samples": _integer(node["samples"], "/bands/samples", ge=2, le=100000),
        "cutoff": _number(node["cutoff"], "/bands/cutoff", gt=0.0),
        "energy_window": window,
        "threshold": _number(node.get("threshold", 1e-6), "/bands/threshold",
                             gt=0.0),
    }


def parse_check_condition(raw) -> dict:
    out = _preamble(raw, ("measure", "condition"), ("seed",))
    measure = build_measure(raw["measure"], "/measure")
    node = _object(raw["condition"], "/condition", required=("gamma",),
                   optional=("sphere_samples", "scan_grid", "refine_grid"))
    return {
        **out, "A": _vector_potential(raw, out["pot"]), "measure": measure,
        "gamma": _gamma(node["gamma"], "/condition/gamma", out["lattice"]),
        "sphere_samples": _integer(node.get("sphere_samples", 4096),
                                   "/condition/sphere_samples", ge=8, le=10 ** 7),
        "scan_grid": _integer(node.get("scan_grid", 16),
                              "/condition/scan_grid", ge=2, le=256),
        "refine_grid": _integer(node.get("refine_grid", 48),
                                "/condition/refine_grid", ge=2, le=512),
    }


def parse_find_gamma(raw) -> dict:
    out = _preamble(raw, (), ("seed", "search", "pipeline"), potential=False)
    lattice = out["lattice"]
    if ("search" in raw) == ("pipeline" in raw):
        raise ConfigError("", "give exactly one of 'search' or 'pipeline'")

    if "search" in raw:
        for key in ("potential", "seed"):  # both serve only the pipeline
            if key in raw:
                raise ConfigError(f"/{key}", "unused in atom-search mode")
        node = _object(raw["search"], "/search", required=("atoms", "h", "R0"),
                       optional=("window",))
        return {
            **out, "mode": "search",
            "measure": build_sphere_measure(node["atoms"], "/search/atoms",
                                            lattice),
            "h": _number(node["h"], "/search/h", gt=0.0),
            "R0": _number(node["R0"], "/search/R0", gt=0.0),
            "window": _optional(_number, node, "/search", "window", gt=0.0),
        }

    pot = build_potential(raw.get("potential"), "/potential", lattice,
                          build_clifford(lattice.n))
    node = _object(raw["pipeline"], "/pipeline",
                   required=("q", "h", "h1", "R0_list"),
                   optional=("et_samples", "grid_per_axis", "window"))
    h = _number(node["h"], "/pipeline/h", gt=0.0)
    r0s = _positive_list(node["R0_list"], "/pipeline/R0_list")
    return {
        **out, "mode": "pipeline", "A": _vector_potential(raw, pot),
        "q": _number(node["q"], "/pipeline/q", gt=0.0),
        "h": h,
        "h1": _number(node["h1"], "/pipeline/h1", gt=h, le=PLATEAU_H1_MAX),
        "R0_list": r0s,
        "et_samples": _integer(node.get("et_samples", 16),
                               "/pipeline/et_samples", ge=1, le=4096),
        "grid_per_axis": _integer(node.get("grid_per_axis", 32),
                                  "/pipeline/grid_per_axis", ge=3, le=257),
        "window": _optional(_number, node, "/pipeline", "window", gt=0.0),
    }


def parse_verify_thomas(raw) -> dict:
    out = _preamble(raw, ("measure", "thomas"), ("seed",))
    measure = build_measure(raw["measure"], "/measure")
    node = _object(raw["thomas"], "/thomas", required=("gamma", "theta"),
                   optional=("kappas", "k_points_per_axis", "cutoff",
                             "refine_factor", "probe_count", "sphere_samples"))
    kappas = None
    if "kappas" in node:
        kappas = _positive_list(node["kappas"], "/thomas/kappas")
        if sorted(kappas) != kappas:
            raise ConfigError("/thomas/kappas", "must be increasing")
    return {
        **out, "measure": measure,
        "gamma": _gamma(node["gamma"], "/thomas/gamma", out["lattice"]),
        "theta": _number(node["theta"], "/thomas/theta", gt=0.0, lt=1.0),
        "kappas": kappas,
        "k_points_per_axis": _integer(node.get("k_points_per_axis", 5),
                                      "/thomas/k_points_per_axis", ge=1, le=64),
        "cutoff": _optional(_number, node, "/thomas", "cutoff", gt=0.0),
        "refine_factor": _optional(_number, node, "/thomas", "refine_factor",
                                   gt=1.0),
        "probe_count": _integer(node.get("probe_count", 0),
                                "/thomas/probe_count", ge=0, le=10 ** 6),
        "sphere_samples": _integer(node.get("sphere_samples", 4096),
                                   "/thomas/sphere_samples", ge=8, le=10 ** 7),
    }


def parse_verify_weighted(raw) -> dict:
    out = _preamble(raw, ("weighted",), ("measure",))
    node = _object(raw["weighted"], "/weighted",
                   required=("mode", "gamma", "kappas"),
                   optional=("delta", "beta", "k_points_per_axis", "cutoff",
                             "sphere_samples"))
    mode = _string(node["mode"], "/weighted/mode", choices={"split", "floor"})
    kappas = _positive_list(node["kappas"], "/weighted/kappas")
    out.update({
        "mode": mode,
        "gamma": _gamma(node["gamma"], "/weighted/gamma", out["lattice"]),
        "kappas": kappas,
        "k_points_per_axis": _integer(node.get("k_points_per_axis", 3),
                                      "/weighted/k_points_per_axis", ge=1, le=64),
        "cutoff": _optional(_number, node, "/weighted", "cutoff", gt=0.0),
    })
    if mode == "floor":
        for key in ("delta", "beta", "sphere_samples"):
            if key in node:
                raise ConfigError(_join("/weighted", key),
                                  "only used in split mode")
        if "measure" in raw:
            raise ConfigError("/measure", "only used in split mode")
        return out
    if "measure" not in raw:
        raise ConfigError("", "split mode needs a 'measure' block")
    for key in ("delta", "beta"):
        if key not in node:
            raise ConfigError("/weighted", f"split mode needs '{key}'")
    out["measure"] = build_measure(raw["measure"], "/measure")
    out["delta"] = _number(node["delta"], "/weighted/delta", gt=0.0, lt=1.0)
    out["beta"] = _number(node["beta"], "/weighted/beta", gt=0.0)
    if not all(k > out["beta"] for k in kappas):
        raise ConfigError("/weighted/kappas", "every kappa must exceed beta")
    out["sphere_samples"] = _integer(node.get("sphere_samples", 4096),
                                     "/weighted/sphere_samples", ge=8, le=10 ** 7)
    return out


def parse_gauge_bound(raw) -> dict:
    out = _preamble(raw, ("measure", "gauge"))
    lattice = out["lattice"]
    measure = build_measure(raw["measure"], "/measure")
    node = _object(raw["gauge"], "/gauge", required=("gamma",),
                   optional=("et", "grid_per_axis"))
    et = _optional(_direction, node, "/gauge", "et", length=lattice.n)
    gamma = _gamma(node["gamma"], "/gauge/gamma", lattice)
    if et is not None and abs(float(np.dot(lattice.direction(gamma)[3], et))) > 1e-10:
        raise ConfigError("/gauge/et", "must be orthogonal to gamma")
    return {
        **out, "A": _vector_potential(raw, out["pot"]), "measure": measure,
        "gamma": gamma, "et": et,
        "grid_per_axis": _optional(_integer, node, "/gauge", "grid_per_axis",
                                   ge=3, le=257),
    }


def parse_kernel_constant(raw) -> dict:
    _object(raw, "", optional=("kernel",))
    node = _object(raw.get("kernel", {}), "/kernel",
                   optional=("tau_lo", "tau_hi", "sample_step", "radial_tol",
                             "cross_check"))
    tau_lo = _number(node.get("tau_lo", math.pi), "/kernel/tau_lo", gt=0.0)
    tau_hi = _number(node.get("tau_hi", 2.0 * math.pi), "/kernel/tau_hi",
                     gt=tau_lo, le=2.0 * math.pi)
    return {
        "tau_lo": tau_lo, "tau_hi": tau_hi,
        "sample_step": _number(node.get("sample_step", 0.01),
                               "/kernel/sample_step", ge=SAMPLE_STEP_MIN,
                               le=1.0),
        "radial_tol": _number(node.get("radial_tol", 1e-7),
                              "/kernel/radial_tol", gt=0.0, le=1e-2),
        "cross_check": _boolean(node.get("cross_check", True),
                                "/kernel/cross_check"),
    }


PARSERS = {
    "bands": parse_bands,
    "check-condition": parse_check_condition,
    "find-gamma": parse_find_gamma,
    "verify-thomas": parse_verify_thomas,
    "verify-weighted": parse_verify_weighted,
    "gauge-bound": parse_gauge_bound,
    "kernel-constant": parse_kernel_constant,
}
