"""Spans around the calls into diracband's modules, taken from outside.

`Tracer.install` replaces each traced function by a wrapper in every
`diracband` module that holds it by name (`verify`, `bands` and `cli` use
`from ... import`), so calls between modules are seen wherever they come
from.  A span records name, start, end, parent span, operation id and a few
attributes; spans stay in memory and are written as JSON Lines at the end.
A span's self time is its duration minus the union of its children's
intervals.  Calls made on `util.pmap` worker threads take the open `pmap`
span as their parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# (module, attribute, span name)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("config", "load_file", "config.parse"),
    ("gauge", "bessel_kernel_constant", "gauge.bessel_kernel_constant"),
    ("gauge", "radial_kernel", "gauge.radial_kernel"),
    ("util", "gauss_legendre_panels", "util.gauss_legendre_panels"),
    ("util", "pmap", "util.pmap"),
    ("fields", "condition_value", "fields.condition_value"),
    ("fields", "averaged_potential", "fields.averaged_potential"),
    ("fields", "sup_norm", "fields.sup_norm"),
    ("verify", "verify_thomas_bound", "verify.verify_thomas_bound"),
    ("verify", "condition_chain_pipeline", "verify.condition_chain_pipeline"),
    ("fiber", "assemble", "fiber.assemble"),
    ("fiber", "sigma_min", "fiber.sigma_min"),
    ("fiber", "sigma_min_probe", "fiber.sigma_min_probe"),
    ("fiber", "eigenvalues", "fiber.eigenvalues"),
    ("clifford", "clifford_contraction", "clifford.clifford_contraction"),
    ("bands", "band_sweep", "bands.band_sweep"),
    ("lattice", "find_gamma", "lattice.find_gamma"),
    ("lattice", "enumerate_points", "lattice.enumerate_points"),
)

SETUP = -1  # operation id of spans recorded during set-up


def _attrs(name: str, args, result) -> dict:
    if name == "fiber.assemble":
        return {"dim": int(result.dim)}
    if name == "util.pmap":
        return {"items": len(args[1])}
    if name == "lattice.enumerate_points":
        return {"key": repr((args[0].tolist(), float(args[1])))}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = SETUP
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float) -> None:
        """Add a top-level span timed by the caller."""
        self.spans.append({"id": next(self._ids), "name": name, "start": start,
                           "end": end, "parent": None, "op": self.op})

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "util.pmap":
                args = (args[0], list(args[1])) + args[2:]
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._pool_parent
            sid = next(tracer._ids)
            stack.append(sid)
            if name == "util.pmap":
                outer, tracer._pool_parent = tracer._pool_parent, sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == "util.pmap":
                    tracer._pool_parent = outer
            tracer.spans.append({"id": sid, "name": name, "start": start,
                                 "end": end, "parent": parent, "op": tracer.op,
                                 **_attrs(name, args, result)})
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever a diracband module holds it by name."""
        mods = {name: m for name, m in sys.modules.items()
                if name == "diracband" or name.startswith("diracband.")}
        for mod, attr, span in TARGETS:
            orig = getattr(mods["diracband." + mod], attr)
            traced = self.wrap(span, orig)
            for m in mods.values():
                if m.__dict__.get(attr) is orig:
                    setattr(m, attr, traced)
        config = mods["diracband.config"]
        for command, parse in list(config.PARSERS.items()):
            config.PARSERS[command] = self.wrap("config.parse", parse)
        fields = mods["diracband.fields"]
        plateau = fields.MeasureSpec.__dict__["plateau"].__func__
        fields.MeasureSpec.plateau = staticmethod(
            self.wrap("fields.plateau", plateau))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def self_times(spans: list) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


# per-layer metric -> (span name, statistic, unit)
LAYER_METRICS = {
    "setup.import_s": ("setup.import", "self", "s"),
    "gauge.bessel_kernel_constant_s": ("gauge.bessel_kernel_constant", "self", "s"),
    "gauge.radial_kernel_s": ("gauge.radial_kernel", "self", "s"),
    "gauge.radial_kernel_calls": ("gauge.radial_kernel", "calls", "count"),
    "util.gauss_legendre_panels_calls": ("util.gauss_legendre_panels", "calls", "count"),
    "fields.plateau_s": ("fields.plateau", "self", "s"),
    "config.parse_s": ("config.parse", "self", "s"),
    "cli.main_self_s": ("cli.main", "self", "s"),
    "fields.condition_value_s": ("fields.condition_value", "self", "s"),
    "verify.verify_thomas_bound_s": ("verify.verify_thomas_bound", "self", "s"),
    "fiber.sigma_min_probe_s": ("fiber.sigma_min_probe", "self", "s"),
    "fiber.sigma_min_s": ("fiber.sigma_min", "self", "s"),
    "fiber.sigma_min_calls": ("fiber.sigma_min", "calls", "count"),
    "util.pmap_s": ("util.pmap", "self", "s"),
    "util.pmap_items": ("util.pmap", "items", "count"),
    "fiber.assemble_s": ("fiber.assemble", "self", "s"),
    "fiber.assemble_calls": ("fiber.assemble", "calls", "count"),
    "clifford.clifford_contraction_calls": ("clifford.clifford_contraction", "calls", "count"),
    "fiber.eigenvalues_s": ("fiber.eigenvalues", "self", "s"),
    "bands.band_sweep_s": ("bands.band_sweep", "self", "s"),
    "fiber.dim": ("fiber.assemble", "dim", "count"),
    "fiber.dense_mb": ("fiber.assemble", "dense_mb", "MB"),
    "lattice.find_gamma_s": ("lattice.find_gamma", "self", "s"),
    "lattice.enumerate_points_s": ("lattice.enumerate_points", "self", "s"),
    "lattice.enumerate_points_calls": ("lattice.enumerate_points", "calls", "count"),
    "lattice.enumerate_points_distinct_ratio": ("lattice.enumerate_points", "distinct", "ratio"),
    "fields.averaged_potential_s": ("fields.averaged_potential", "self", "s"),
    "fields.sup_norm_s": ("fields.sup_norm", "self", "s"),
    "verify.condition_chain_pipeline_s": ("verify.condition_chain_pipeline", "self", "s"),
}


def layer_metrics(spans: list, ops: int) -> dict:
    """Per-layer values: the one set-up's share plus the per-operation share.

    Sums (self time, calls, items, dense MB) count set-up spans once and
    divide operation spans by the operation count; `fiber.dim` is the largest
    fiber assembled; the distinct ratio (distinct argument sets / calls) is
    taken per operation and averaged.
    """
    own = self_times(spans)
    out = {}
    for metric, (name, stat, unit) in LAYER_METRICS.items():
        mine = [s for s in spans if s["name"] == name]
        if stat == "dim":
            value = max((s["dim"] for s in mine), default=0)
        elif stat == "distinct":
            by_op: dict = {}
            for s in mine:
                if s["op"] != SETUP:
                    by_op.setdefault(s["op"], []).append(s["key"])
            value = (sum(len(set(k)) / len(k) for k in by_op.values())
                     / len(by_op)) if by_op else 0.0
        else:
            def amount(s):
                if stat == "self":
                    return own[s["id"]]
                if stat == "calls":
                    return 1
                if stat == "items":
                    return s["items"]
                return s["dim"] ** 2 * 16 / 1e6
            setup = sum(amount(s) for s in mine if s["op"] == SETUP)
            per_op = sum(amount(s) for s in mine if s["op"] != SETUP)
            value = setup + per_op / max(ops, 1)
        out[metric] = {"value": value, "unit": unit}
    return out
