"""Command-line runs whose artifacts must repeat bit for bit: under another
OpenBLAS kernel, and at any worker count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, tmp_path, name, **env_extra):
    """One `python -m diracband.cli` subprocess; returns (stdout, artifacts)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = tmp_path / name
    proc = subprocess.run(
        [sys.executable, "-m", "diracband.cli", *args, "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, check=True)
    return proc.stdout, {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("args", [
    ["verify-weighted", "--config", "configs/weighted_floor.json"],
    ["verify-weighted", "--config", "configs/weighted_floor.json",
     "--cutoff", "12"],
    ["verify-thomas", "--config", "configs/thomas_documented.json",
     "--cutoff", "12", "--seed", "3"],
], ids=["weighted_floor", "weighted_floor_cutoff_12", "thomas_cutoff_12"])
def test_reruns_repeat_under_another_blas_kernel(args, tmp_path):
    # under this kernel these reports repeat only while every fiber is
    # solved by the dense SVD with numpy's BLAS on one thread
    runs = [run_cli(args, tmp_path, f"run{i}", OPENBLAS_CORETYPE="Prescott")
            for i in range(2)]
    assert runs[0] == runs[1]


def test_thomas_report_is_the_same_at_any_thread_count(tmp_path):
    args = ["verify-thomas", "--config", "configs/thomas_documented.json"]
    one, two = (run_cli(args + ["--threads", t], tmp_path, f"threads{t}")
                for t in ("1", "2"))
    assert one == two
