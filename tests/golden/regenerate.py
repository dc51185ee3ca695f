"""Rewrite the golden artifacts of the shipped configs.

    python3 tests/golden/regenerate.py

Runs every shipped config through the command line at --threads 1, with the
config's own seed, writes its --out artifacts (the JSON report and any CSV
table) to tests/golden/<config name>/, and records what their last bits
depend on (versions, numpy's SIMD level, the OpenBLAS kernel) in
tests/golden/ENV.json.  `test_11_cli_determinism` compares fresh runs with
these files: byte for byte where the environment matches ENV.json, to a
stated tolerance elsewhere.  Regenerate only when an artifact changes on
purpose, and name every changed field in the change log.
"""

import ctypes
import glob
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CONFIG_DIR = os.path.join(ROOT, "configs")

# (subcommand, config) for each of the shipped configs
JOBS = (
    ("bands", "free_bands.json"),
    ("check-condition", "condition.json"),
    ("find-gamma", "find_gamma_atoms.json"),
    ("find-gamma", "pipeline_documented.json"),
    ("verify-thomas", "thomas_documented.json"),
    ("verify-weighted", "weighted_floor.json"),
    ("verify-weighted", "weighted_split.json"),
    ("gauge-bound", "gauge_bound.json"),
    ("kernel-constant", "kernel.json"),
)


def golden_dir(config: str) -> str:
    return os.path.join(HERE, os.path.splitext(config)[0])


def _blas(package) -> str:
    """The runtime configuration of the OpenBLAS a package bundles.

    It names the kernel OpenBLAS picked for this CPU, which moves last bits
    as much as a version does.  Without a bundled OpenBLAS, the build-time
    name and version of the BLAS.
    """
    base = os.path.dirname(package.__file__)
    for path in sorted(glob.glob(os.path.join(base + ".libs", "*openblas*")) +
                       glob.glob(os.path.join(base, ".dylibs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_",
                     "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_char_p
                return getter().decode().strip()
    info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"


def environment() -> dict:
    """What the artifact bits depend on besides the code."""
    import numpy as np
    import scipy

    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    return {"python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__, "numpy_simd": simd.get("found"),
            "numpy_blas": _blas(np), "scipy": scipy.__version__,
            "scipy_blas": _blas(scipy)}


def run(command: str, config: str, out: str) -> int:
    """One command-line run of a shipped config; returns its exit code."""
    from diracband.cli import main
    return main([command, "--config", os.path.join(CONFIG_DIR, config),
                 "--out", out])


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for command, config in JOBS:
        out = golden_dir(config)
        shutil.rmtree(out, ignore_errors=True)
        code = run(command, config, out)
        print(f"{command} {config}: exit {code}, {sorted(os.listdir(out))}")
        if code != 0:
            return 1
    # the single-file golden two tests read by its old name
    shutil.copyfile(os.path.join(golden_dir("find_gamma_atoms.json"),
                                 "find-gamma.json"),
                    os.path.join(HERE, "find_gamma_atoms.json"))
    with open(os.path.join(HERE, "ENV.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(environment(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
