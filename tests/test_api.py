"""The package's public names all resolve, importing the CLI stays light, a
five-dimensional condition check stays small, a four-dimensional Thomas scan
past the dense limit of a whole fiber runs and probes, and the README's
quickstart runs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import diracband

ROOT = Path(__file__).resolve().parents[1]


def _src_env() -> dict:
    """The environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_all_names_resolve():
    missing = [name for name in diracband.__all__
               if not hasattr(diracband, name)]
    assert missing == []
    namespace: dict = {}
    exec("from diracband import *", namespace)
    assert set(diracband.__all__) <= set(namespace)


def test_traced_names_resolve():
    # perfbench/tracing.py wraps these by name, so a rename would break
    # `--trace 1` runs at install time
    import importlib
    import importlib.util

    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module("diracband." + mod),
                                attr)), (mod, attr)
    from diracband import cli, config, fields
    assert set(config.PARSERS) == set(cli._COMMANDS)
    for name, parse in config.PARSERS.items():
        assert getattr(config, parse.__name__) is parse, name
    assert callable(fields.MeasureSpec.__dict__["plateau"].__func__)


def test_cli_import_leaves_scipy_solvers_unloaded():
    # scipy serves only the kernel constant, and loads inside it;
    # numpy.polynomial serves only the Gauss-Legendre rules, and loads at the
    # first one
    code = ("import sys, diracband.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_commands_other_than_kernel_constant_load_no_scipy(tmp_path):
    # every block of these shipped configs is solved dense, and the plateau
    # norm finds the density's zeros with util.brentq, so of the shipped
    # configs only kernel.json loads scipy
    runs = [("bands", "free_bands"), ("verify-thomas", "thomas_documented"),
            ("verify-weighted", "weighted_split"),
            ("verify-weighted", "weighted_floor"),
            ("check-condition", "condition"), ("gauge-bound", "gauge_bound"),
            ("find-gamma", "pipeline_documented"),
            ("find-gamma", "find_gamma_atoms")]
    code = "\n".join([
        "import os, sys",
        "from diracband import cli",
        f"for command, name in {runs!r}:",
        f"    config = os.path.join({str(ROOT / 'configs')!r}, name + '.json')",
        f"    out = os.path.join({str(tmp_path)!r}, name)",
        "    if cli.main([command, '--config', config, '--out', out]) != 0:",
        "        sys.exit(name)",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, check=True,
                          timeout=300)
    assert proc.stdout.strip() == "[]"


def test_five_dimensional_condition_check_stays_small(tmp_path):
    # the keys orthogonal to gamma = E_1 use two of the five axes, so the
    # scan and refine grids hold 16^2 and 48^2 points, not 16^5 and 48^5;
    # the wrapper's only child is the command, whose peak RSS it reports
    modes = []
    for key, value in (((0, 1, 0, 0, 0), [0.05, 0.0, 0.02, 0.0, 0.01]),
                       ((0, 0, 0, 2, 0), [0.0, 0.03, 0.0, 0.01, 0.0]),
                       ((1, 1, 0, 0, 0), [0.01] * 5)):
        for sign in (1, -1):
            modes.append({"coeffs": [sign * c for c in key], "value": value})
    config = tmp_path / "condition5.json"
    config.write_text(json.dumps({
        "lattice": {"cubic": 5},
        "potential": {"A": {"real": True, "modes": modes}},
        "measure": {"kind": "plateau", "h": 0.5, "h1": 1.5},
        "condition": {"gamma": [1, 0, 0, 0, 0], "sphere_samples": 4096,
                      "scan_grid": 16, "refine_grid": 48}}), encoding="utf-8")
    command = [sys.executable, "-m", "diracband.cli", "check-condition",
               "--config", str(config), "--out", str(tmp_path / "out")]
    code = "\n".join([
        "import resource, subprocess, sys",
        f"code = subprocess.run({command!r}).returncode",
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, check=True,
                          timeout=120)
    exit_code, peak_kib = (int(v) for v in proc.stdout.split())
    assert exit_code == 0
    assert peak_kib < 120 * 1024  # 42 MB measured at 2 cores, numpy 2.4.6
    report = json.loads(
        (tmp_path / "out" / "check-condition.json").read_text())
    assert report["theta_lo"] <= report["theta_hi"] and report["passes"]


def run_thomas4(tmp_path, probe_count):
    """Exit code, peak RSS in KiB and report of the n = 4 analogue of
    thomas_documented.json at cutoff 25 (one node, kappa = pi), run as a
    subprocess under a wrapper whose only child is the command."""
    config = tmp_path / "thomas4.json"
    config.write_text(json.dumps({
        "lattice": {"cubic": 4},
        "potential": {
            "A": {"real": True, "modes": [
                {"coeffs": [0, 1, 0, 0], "value": [0.0, 0.0, 0.05, 0.0]},
                {"coeffs": [0, -1, 0, 0], "value": [0.0, 0.0, 0.05, 0.0]}]},
            "V0": {"hermitian": True, "modes": [
                {"coeffs": [1, 0, 0, 0], "scalar": 0.2},
                {"coeffs": [-1, 0, 0, 0], "scalar": 0.2}]},
            "V1": {"hermitian": True, "modes": [
                {"coeffs": [0, 0, 0, 0], "scalar": 0.2}]}},
        "measure": {"kind": "dirac"},
        "thomas": {"gamma": [1, 0, 0, 0], "theta": 0.5, "kappas": [math.pi],
                   "k_points_per_axis": 1, "cutoff": 25.0,
                   "probe_count": probe_count}}), encoding="utf-8")
    command = [sys.executable, "-m", "diracband.cli", "verify-thomas",
               "--config", str(config), "--out", str(tmp_path / "out")]
    code = "\n".join([
        "import resource, subprocess, sys",
        f"code = subprocess.run({command!r}).returncode",
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, check=True,
                          timeout=120)
    exit_code, peak_kib = (int(v) for v in proc.stdout.split())
    report = json.loads(
        (tmp_path / "out" / "verify-thomas.json").read_text())
    return exit_code, peak_kib, report


def test_four_dimensional_thomas_scan_runs_blockwise(tmp_path):
    # dim 10,056, over the dense limit of a whole fiber, in 90 blocks of at
    # most 180 rows, so the scan runs
    exit_code, peak_kib, report = run_thomas4(tmp_path, 0)
    assert exit_code in (0, 2)
    assert peak_kib < 200 * 1024  # 93 MB measured at 2 cores, numpy 2.4.6
    assert report["dim"] == 10056


def test_four_dimensional_thomas_scan_probes_blockwise(tmp_path):
    # the probe draws and multiplies block by block in column chunks of at
    # most PROBE_CHUNK_BYTES, so 2,000 probe vectors of the dim-10,056 fiber
    # run without its dense view
    exit_code, peak_kib, report = run_thomas4(tmp_path, 2000)
    assert exit_code in (0, 2)
    # 98 MB measured at 2 cores, numpy 2.4.6, as without the probe
    assert peak_kib < 150 * 1024
    assert report["probe"]["count"] == 2000 and report["probe"]["consistent"]


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", block], env=_src_env(),
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert proc.stdout.splitlines() == ["(21, 76)", "True 4.0"]
