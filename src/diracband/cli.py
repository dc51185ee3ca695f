"""Command line front end.

Subcommands wrap the library's sweeps and checks, read a strict JSON config
(--config), and emit byte-deterministic artifacts: JSON reports with sorted
keys and CSV tables with 17-significant-digit floats.  Without --out the
JSON report goes to stdout; CSV side tables are written only under --out.
Each subcommand is declared once, in `_COMMANDS`: its runner returns the
report, the verdict and the side tables, and `main` writes them.  The
library's checks already return their reports as JSON-ready dicts; a runner
adds at most the config echo it wants in the report, and builds the CSV
tables from the report's own keys.

Exit codes: 0 when the run's checks pass, 2 when the run completed but some
empirical check failed (reports are still written), 1 for usage or config
errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import config as cfg
from .bands import band_sweep, nonconstancy_report
from .fields import condition_value
from .gauge import EtaSpec, bessel_kernel_constant, gauge_bound_check
from .lattice import find_gamma
from .util import orthonormal_complement
from .verify import condition_chain_pipeline, verify_thomas_bound, \
    verify_weighted_split, weighted_floor


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command runners: parsed config (with --seed and --cutoff applied) and
# --threads -> (report, passes, {CSV file name: text}); the docstring is the
# command's help line
# ---------------------------------------------------------------------------

def _run_bands(parsed, threads):
    """sweep fiber eigenvalues along a quasimomentum line"""
    sheet = band_sweep(parsed["pot"], parsed["k0"], parsed["e"],
                       parsed["xi_range"], parsed["samples"], parsed["cutoff"],
                       threads=threads)
    window = parsed["energy_window"]
    if window is None:
        half = sheet.free_band_max() / 2.0
        window = (-half, half)
    report = nonconstancy_report(sheet, window, parsed["threshold"])
    header = ["xi"] + [f"E_{j + 1}" for j in range(sheet.band_count)]
    rows = [[xi] + energies for xi, energies in
            zip(sheet.xis.tolist(), sheet.energies.tolist())]
    return (report, not report["suspect_flat_bands"],
            {"bands.csv": _csv(header, rows)})


def _run_check_condition(parsed, threads):
    """bracket the averaged-field smallness value"""
    cv = condition_value(parsed["A"], parsed["gamma"], parsed["measure"],
                         sphere_samples=parsed["sphere_samples"],
                         scan_grid=parsed["scan_grid"],
                         refine_grid=parsed["refine_grid"],
                         rng=np.random.default_rng(parsed["seed"]))
    passes = cv["theta_hi"] < 1.0
    return ({"gamma": list(parsed["gamma"]),
             "measure": parsed["measure"].to_dict(),
             "passes": passes, **cv}, passes, {})


def _run_find_gamma(parsed, threads):
    """search period directions (or run the decay pipeline)"""
    if parsed["mode"] == "search":
        cert = find_gamma(parsed["lattice"], parsed["measure"], parsed["h"],
                          parsed["R0"], parsed["window"])
        return {"mode": "search", **cert}, True, {}
    result = condition_chain_pipeline(
        parsed["A"], parsed["q"], parsed["h"], parsed["h1"],
        parsed["R0_list"], et_samples=parsed["et_samples"],
        grid_per_axis=parsed["grid_per_axis"],
        search_window=parsed["window"], seed=parsed["seed"])
    return {"mode": "pipeline", **result}, result["chain_ok"], {}


def _run_verify_thomas(parsed, threads):
    """scan shifted fibers against the damped lower bound"""
    report = verify_thomas_bound(
        parsed["pot"], parsed["gamma"], parsed["measure"], parsed["theta"],
        kappas=parsed["kappas"],
        k_points_per_axis=parsed["k_points_per_axis"], cutoff=parsed["cutoff"],
        refine_factor=parsed["refine_factor"],
        probe_count=parsed["probe_count"], seed=parsed["seed"],
        sphere_samples=parsed["sphere_samples"], threads=threads)
    bound = report["bound"]
    margins = _csv(["k_index", "kappa", "sigma_min", "bound", "margin"],
                   [[i, kappa, sigma, bound, sigma - bound]
                    for i, row in enumerate(report["sigma_table"])
                    for kappa, sigma in zip(report["kappas"], row)])
    return report, report["holds"], {"margins.csv": margins}


def _run_verify_weighted(parsed, threads):
    """weighted singular-value floors on the critical face"""
    if parsed["mode"] == "split":
        report = verify_weighted_split(
            parsed["pot"], parsed["gamma"], parsed["measure"], parsed["delta"],
            parsed["beta"], parsed["kappas"],
            k_points_per_axis=parsed["k_points_per_axis"],
            cutoff=parsed["cutoff"], sphere_samples=parsed["sphere_samples"],
            threads=threads)
        return {"mode": "split", **report}, report["holds"], {}
    result = weighted_floor(
        parsed["pot"], parsed["gamma"], parsed["kappas"],
        k_points_per_axis=parsed["k_points_per_axis"],
        cutoff=parsed["cutoff"], threads=threads)
    return {"mode": "floor", **result}, result["passes"], {}


def _run_gauge_bound(parsed, threads):
    """gauge-pair sup-norm bound check at one frame"""
    et = parsed["et"]
    if et is None:
        e = parsed["lattice"].direction(parsed["gamma"])[3]
        et = orthonormal_complement(e)[0]
    result = gauge_bound_check(parsed["A"], parsed["gamma"], parsed["measure"],
                               et, grid_per_axis=parsed["grid_per_axis"])
    return ({"gamma": list(parsed["gamma"]), "et": [float(c) for c in et],
             "measure": parsed["measure"].to_dict(), **result},
            result["ok"], {})


def _run_kernel_constant(parsed, threads):
    """compute the oscillatory-kernel constant"""
    eta = EtaSpec(parsed["tau_lo"], parsed["tau_hi"])
    result = bessel_kernel_constant(eta, sample_step=parsed["sample_step"],
                                    radial_tol=parsed["radial_tol"],
                                    cross_check=parsed["cross_check"])
    return result, result["passes"], {}


# name: (runner, JSON report file, flags beyond --config, --out and --threads)
_COMMANDS = {
    "bands": (_run_bands, "bands.json", ("--cutoff",)),
    "check-condition": (_run_check_condition, "check-condition.json",
                        ("--seed",)),
    "find-gamma": (_run_find_gamma, "find-gamma.json", ("--seed",)),
    "verify-thomas": (_run_verify_thomas, "verify-thomas.json",
                      ("--seed", "--cutoff")),
    "verify-weighted": (_run_verify_weighted, "verify-weighted.json",
                        ("--cutoff",)),
    "gauge-bound": (_run_gauge_bound, "gauge_bound.json", ()),
    "kernel-constant": (_run_kernel_constant, "kernel-constant.json", ()),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here 2 means a failed check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diracband",
        description="Spectral checks for periodic Dirac operators.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (runner, _, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=runner.__doc__)
        sp.set_defaults(seed=None, cutoff=None)
        sp.add_argument("--config", required=name != "kernel-constant",
                        help="path to the JSON config")
        sp.add_argument("--out", default=None,
                        help="directory for artifacts (default: JSON to stdout)")
        if "--seed" in flags:
            sp.add_argument("--seed", type=int,
                            help="seed for randomized probes (overrides config)")
        sp.add_argument("--threads", type=int, default=1,
                        help="worker processes for grid sweeps")
        if "--cutoff" in flags:
            sp.add_argument("--cutoff", type=float,
                            help="mode-window radius (overrides config)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be positive")
    if args.cutoff is not None and args.cutoff <= 0:
        parser.error("--cutoff must be positive")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")

    try:
        raw = cfg.load_file(args.config) if args.config else {}
        if args.seed is not None and isinstance(raw, dict):
            # the flag overrides the config's seed and is checked like it
            raw = {**raw, "seed": args.seed}
        parsed = cfg.PARSERS[args.command](raw)
    except cfg.ConfigError as exc:
        print(f"config error at {exc.path}: {exc.message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    if args.cutoff is not None:  # the flag overrides the config
        parsed["cutoff"] = args.cutoff

    runner, report_name, _ = _COMMANDS[args.command]
    try:
        report, passes, tables = runner(parsed, args.threads)
        text = cfg.canonical_dumps({"command": args.command, **report})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.write(text)
    else:
        os.makedirs(args.out, exist_ok=True)
        for name, body in {report_name: text, **tables}.items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8",
                      newline="\n") as fh:
                fh.write(body)
    return 0 if passes else 2


if __name__ == "__main__":
    sys.exit(main())
