"""The benchmark's correctness checks pass on the program's output and fail
on copies perturbed beyond their tolerances.

Runs the CLI in-process on shrunken versions of each workload's generated
config, so the whole file takes seconds:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from diracband import cli  # noqa: E402


def _run(tmp_path, command, config, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(path), "--out", str(out)])
    assert code in (0, 2)
    return (out / name).read_text()


@pytest.fixture(scope="module")
def thomas(tmp_path_factory):
    config = workloads.thomas_config(np.random.default_rng([7, 0]))
    config["thomas"].update(cutoff=9.0, k_points_per_axis=2, probe_count=200)
    text = _run(tmp_path_factory.mktemp("thomas"), "verify-thomas", config,
                "verify-thomas.json")
    return config, json.loads(text)


@pytest.fixture(scope="module")
def bands(tmp_path_factory):
    config = workloads.bands_config(np.random.default_rng([7, 0]))
    config["bands"].update(cutoff=7.0, samples=4)
    return config, _run(tmp_path_factory.mktemp("bands"), "bands", config,
                        "bands.csv")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    config = workloads.pipeline_config(np.random.default_rng([7, 0]))
    config["pipeline"].update(R0_list=[2, 4], et_samples=4, grid_per_axis=8)
    text = _run(tmp_path_factory.mktemp("pipeline"), "find-gamma", config,
                "find-gamma.json")
    return config, json.loads(text)


ALL_NODES = [(i, j) for i in range(4) for j in range(3)]


def test_thomas_passes(thomas):
    config, report = thomas
    assert checks.check_thomas(config, report, ALL_NODES) == []


def test_thomas_catches_raised_sigma(thomas):
    config, report = thomas
    bad = copy.deepcopy(report)
    bad["sigma_table"][1][2] += 1e-6
    assert checks.check_thomas(config, bad, [(1, 2)])


def test_thomas_catches_weyl_violation(thomas):
    config, report = thomas
    bad = copy.deepcopy(report)
    bad["sigma_table"][3][0] += 5.0
    assert checks.check_thomas(config, bad, [])


def test_thomas_catches_probe_below_minimum(thomas):
    config, report = thomas
    bad = copy.deepcopy(report)
    probe = bad["probe"]
    j = bad["kappas"].index(probe["kappa"])
    probe["probe_min"] = bad["sigma_table"][probe["k_index"]][j] - 1e-6
    assert checks.check_thomas(config, bad, [])


def _with_row(text, row, values):
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    lines[row + 1] = ",".join(cells[:1] + ["%.17g" % v for v in values])
    return "\n".join(lines) + "\n"


def test_bands_pass(bands):
    config, text = bands
    assert checks.check_bands(config, text, [0, 1, 2, 3]) == []


def test_bands_catch_moved_eigenvalue(bands):
    config, text = bands
    _, table = checks.parse_csv(text)
    row = table[0, 1:].copy()
    i = int(np.argmax(np.diff(row) > 1e-5))  # a move that keeps the order
    row[i] += 1e-6
    assert checks.check_bands(config, _with_row(text, 0, row), [0])


def test_bands_catch_wrong_trace(bands):
    config, text = bands
    _, table = checks.parse_csv(text)
    row = table[2, 1:].copy()
    row[-1] += 1e-3
    assert checks.check_bands(config, _with_row(text, 2, row), [])


def test_bands_catch_unsorted_row(bands):
    config, text = bands
    _, table = checks.parse_csv(text)
    row = table[1, 1:].copy()
    row[[0, -1]] = row[[-1, 0]]
    assert checks.check_bands(config, _with_row(text, 1, row), [])


def test_direction_passes(pipeline):
    config, report = pipeline
    assert checks.check_direction(config, report) == []


def test_direction_catches_runner_up(pipeline):
    config, report = pipeline
    bad = copy.deepcopy(report)
    cert = bad["rows"][1]["certificate"]
    # -gamma ties gamma on every key but the lexicographic one
    cert["gamma_coeffs"] = [-c for c in cert["gamma_coeffs"]]
    assert checks.check_direction(config, bad)


def test_direction_catches_min_orth(pipeline):
    config, report = pipeline
    bad = copy.deepcopy(report)
    bad["rows"][0]["certificate"]["min_orth_raw"] *= 1.0 + 1e-9
    assert checks.check_direction(config, bad)


def test_direction_catches_outer_and_chain(pipeline):
    config, report = pipeline
    bad = copy.deepcopy(report)
    bad["rows"][0]["per_et"][1]["outer"] *= 1.0 + 1e-9
    assert checks.check_direction(config, bad)
    bad = copy.deepcopy(report)
    p = bad["rows"][1]["per_et"][0]
    p["f_lo"] = p["middle"] * 1.01
    assert checks.check_direction(config, bad)


def test_self_time_subtracts_union_of_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 5.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 7.0},  # overlaps id 2
        {"id": 4, "parent": 3, "start": 4.0, "end": 6.0},
    ]
    own = tracing.self_times(spans)
    assert own == {1: 4.0, 2: 4.0, 3: 2.0, 4: 2.0}
