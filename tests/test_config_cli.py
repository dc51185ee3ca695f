"""Strict config parsing and the command line front end, run in process."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from diracband import config as cfg
from diracband.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def config_path(name):
    return os.path.join(CONFIG_DIR, name)


def write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# raw JSON layer
# ---------------------------------------------------------------------------

def test_loads_rejects_duplicates_and_nonfinite():
    with pytest.raises(cfg.ConfigError, match="duplicate key"):
        cfg.loads('{"a": 1, "a": 2}')
    with pytest.raises(cfg.ConfigError, match="non-finite"):
        cfg.loads('{"a": NaN}')
    with pytest.raises(cfg.ConfigError, match="non-finite"):
        cfg.loads('{"a": Infinity}')
    with pytest.raises(cfg.ConfigError, match="top level"):
        cfg.loads('[1, 2]')
    with pytest.raises(cfg.ConfigError, match="invalid JSON"):
        cfg.loads('{"a": ')


def test_canonical_dumps_is_idempotent():
    text = '{"b": [1, 2.5], "a": {"y": true, "x": "1/3"}}'
    once = cfg.canonical_dumps(cfg.loads(text))
    again = cfg.canonical_dumps(cfg.loads(once))
    assert once == again
    assert once.endswith("\n")
    assert once.index('"a"') < once.index('"b"')


# ---------------------------------------------------------------------------
# domain parsing
# ---------------------------------------------------------------------------

def test_lattice_block_accepts_rationals():
    lat = cfg.build_lattice(
        {"basis": [["1", "0", "0"], [0, 1, 0], [0, 0, "1/2"]]}, "/lattice")
    assert lat.basis[2, 2] == 0.5
    with pytest.raises(cfg.ConfigError) as err:
        cfg.build_lattice({"basis": [["1", "0"], ["0", "1/0"]]}, "/lattice")
    assert err.value.path == "/lattice/basis/1/1"
    with pytest.raises(cfg.ConfigError, match="exactly one"):
        cfg.build_lattice({"cubic": 3, "basis": [[1]]}, "/lattice")


def test_unknown_keys_carry_json_pointers():
    raw = cfg.load_file(config_path("free_bands.json"))
    raw["bands"]["stray"] = 1
    with pytest.raises(cfg.ConfigError) as err:
        cfg.parse_bands(raw)
    assert err.value.path == "/bands/stray"
    assert str(err.value) == "/bands/stray: unknown key"

    raw = cfg.load_file(config_path("free_bands.json"))
    raw["extra"] = {}
    with pytest.raises(cfg.ConfigError) as err:
        cfg.parse_bands(raw)
    assert err.value.path == "/extra"


def test_measure_block_validation():
    with pytest.raises(cfg.ConfigError) as err:
        cfg.build_measure({"kind": "dirac", "h1": 1.0}, "/measure")
    assert err.value.path == "/measure/h1"
    with pytest.raises(cfg.ConfigError, match="needs 'h1'"):
        cfg.build_measure({"kind": "plateau", "h": 0.5}, "/measure")
    with pytest.raises(cfg.ConfigError) as err:
        cfg.build_measure({"kind": "plateau", "h": 0.5, "h1": 0.5}, "/measure")
    assert err.value.path == "/measure/h1"
    spec = cfg.build_measure({"kind": "plateau", "h": 0.5, "h1": 1.5},
                             "/measure")
    assert (spec.h, spec.h1) == (0.5, 1.5)


def test_potential_block_errors(tmp_path):
    raw = cfg.load_file(config_path("thomas_documented.json"))
    raw["potential"]["V0"]["modes"][0]["value"] = [[0] * 4] * 4
    with pytest.raises(cfg.ConfigError, match="exactly one of 'value' or"):
        cfg.parse_verify_thomas(raw)

    raw = cfg.load_file(config_path("condition.json"))
    raw["potential"]["A"]["modes"].append(
        {"coeffs": [0, 1, 0], "value": [0.0, 0.0, 0.0]})
    with pytest.raises(cfg.ConfigError) as err:
        cfg.parse_check_condition(raw)
    assert err.value.path.endswith("/coeffs")
    assert "duplicate mode" in err.value.message

    raw = cfg.load_file(config_path("condition.json"))
    raw["condition"]["gamma"] = [0, 0, 0]
    with pytest.raises(cfg.ConfigError, match="gamma must be nonzero"):
        cfg.parse_check_condition(raw)


def test_complex_entries_parse_as_pairs():
    raw = cfg.load_file(config_path("gauge_bound.json"))
    parsed = cfg.parse_gauge_bound(raw)
    val = parsed["A"].coeffs[(0, 1, 0)]
    assert val[1] == 0.02 + 0.01j and val[2] == -0.03j


def test_find_gamma_mode_exclusivity():
    base = {"lattice": {"cubic": 3}}
    with pytest.raises(cfg.ConfigError, match="exactly one of 'search'"):
        cfg.parse_find_gamma(dict(base))
    both = dict(base)
    both["search"] = {"atoms": [], "h": 0.1, "R0": 2.0}
    both["pipeline"] = {"q": 1.0, "h": 0.1, "h1": 1.0, "R0_list": [2.0]}
    with pytest.raises(cfg.ConfigError, match="exactly one of 'search'"):
        cfg.parse_find_gamma(both)
    unused = dict(base)
    unused["search"] = {"atoms": [], "h": 0.1, "R0": 2.0}
    unused["potential"] = {}
    with pytest.raises(cfg.ConfigError) as err:
        cfg.parse_find_gamma(unused)
    assert err.value.path == "/potential"


def test_weighted_mode_cross_constraints():
    raw = cfg.load_file(config_path("weighted_floor.json"))
    raw["weighted"]["delta"] = 0.5
    with pytest.raises(cfg.ConfigError, match="only used in split mode"):
        cfg.parse_verify_weighted(raw)

    raw = cfg.load_file(config_path("weighted_split.json"))
    del raw["measure"]
    with pytest.raises(cfg.ConfigError, match="needs a 'measure' block"):
        cfg.parse_verify_weighted(raw)

    raw = cfg.load_file(config_path("weighted_split.json"))
    raw["weighted"]["beta"] = 99.0
    with pytest.raises(cfg.ConfigError, match="must exceed beta"):
        cfg.parse_verify_weighted(raw)


def _set(raw, pointer, value):
    *parents, last = pointer.strip("/").split("/")
    node = raw
    for token in parents:
        node = node[int(token)] if isinstance(node, list) else node[token]
    node[int(last) if isinstance(node, list) else last] = value


@pytest.mark.parametrize("command,name,pointer,message", [
    ("bands", "free_bands.json", "/bands/direction",
     "direction must be nonzero"),
    ("gauge-bound", "gauge_bound.json", "/gauge/et",
     "direction must be nonzero"),
    ("find-gamma", "find_gamma_atoms.json", "/search/atoms/0/point",
     "atom direction must be nonzero"),
])
def test_zero_direction_is_refused(command, name, pointer, message):
    raw = cfg.load_file(config_path(name))
    _set(raw, pointer, [0, 0, 0])
    with pytest.raises(cfg.ConfigError) as err:
        cfg.PARSERS[command](raw)
    assert (err.value.path, err.value.message) == (pointer, message)


@pytest.mark.parametrize("command,name,pointer", [
    ("verify-thomas", "thomas_documented.json", "/thomas/kappas"),
    ("verify-weighted", "weighted_floor.json", "/weighted/kappas"),
    ("find-gamma", "pipeline_documented.json", "/pipeline/R0_list"),
])
@pytest.mark.parametrize("value,suffix,message", [
    ([], "", "expected at least 1 entries"),
    ([0], "/0", "must be > 0.0"),
])
def test_positive_lists_are_refused(command, name, pointer, value, suffix,
                                    message):
    raw = cfg.load_file(config_path(name))
    _set(raw, pointer, value)
    with pytest.raises(cfg.ConfigError) as err:
        cfg.PARSERS[command](raw)
    assert (err.value.path, err.value.message) == (pointer + suffix, message)


def test_pipeline_checks_r0_list_before_q():
    raw = cfg.load_file(config_path("pipeline_documented.json"))
    raw["pipeline"].update({"R0_list": [], "q": -1})
    with pytest.raises(cfg.ConfigError) as err:
        cfg.parse_find_gamma(raw)
    assert err.value.path == "/pipeline/R0_list"


def test_empty_atom_list_gives_an_empty_measure():
    raw = cfg.load_file(config_path("find_gamma_atoms.json"))
    raw["search"]["atoms"] = []
    measure = cfg.parse_find_gamma(raw)["measure"]
    assert measure.points.shape == (0, 3)
    assert measure.weights.shape == (0,)


@pytest.mark.parametrize("command,name", [
    ("bands", "free_bands.json"),
    ("verify-weighted", "weighted_floor.json"),
    ("gauge-bound", "gauge_bound.json"),
    ("kernel-constant", "kernel.json"),
])
def test_cli_seed_key_refused_where_nothing_is_drawn(tmp_path, capsys,
                                                     command, name):
    payload = json.loads(open(config_path(name)).read())
    payload["seed"] = 1
    path = write_config(tmp_path, payload)
    assert main([command, "--config", path]) == 1
    assert "config error at /seed: unknown key" in capsys.readouterr().err


def test_cli_search_mode_refuses_a_seed_key(tmp_path, capsys):
    # find-gamma offers a seed for its pipeline mode; the search draws nothing
    payload = json.loads(open(config_path("find_gamma_atoms.json")).read())
    payload["seed"] = 1
    path = write_config(tmp_path, payload)
    assert main(["find-gamma", "--config", path]) == 1
    assert ("config error at /seed: unused in atom-search mode"
            in capsys.readouterr().err)


def test_cli_search_mode_refuses_the_seed_flag(capsys):
    argv = ["find-gamma", "--config", config_path("find_gamma_atoms.json")]
    assert main(argv + ["--seed", "1"]) == 1
    assert ("config error at /seed: unused in atom-search mode"
            in capsys.readouterr().err)
    assert main(argv) == 0


def test_cli_floor_mode_rejects_sphere_samples(tmp_path, capsys):
    payload = json.loads(open(config_path("weighted_floor.json")).read())
    payload["weighted"]["sphere_samples"] = -5
    path = write_config(tmp_path, payload)
    assert main(["verify-weighted", "--config", path]) == 1
    assert ("config error at /weighted/sphere_samples: only used in split "
            "mode") in capsys.readouterr().err


def test_cli_gauge_et_must_be_orthogonal_to_gamma(tmp_path, capsys):
    payload = json.loads(open(config_path("gauge_bound.json")).read())
    payload["gauge"]["et"] = [1, 1, 0]
    path = write_config(tmp_path, payload)
    assert main(["gauge-bound", "--config", path]) == 1
    assert ("config error at /gauge/et: must be orthogonal to gamma"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command,name", [
    ("check-condition", "condition.json"),
    ("gauge-bound", "gauge_bound.json"),
    ("find-gamma", "pipeline_documented.json"),
])
@pytest.mark.parametrize("part,scalar", [("V0", 0.2), ("V1", 0.1)])
def test_cli_vector_potential_commands_reject_v0_v1(tmp_path, capsys, command,
                                                    name, part, scalar):
    # these commands read only A; a matrix potential would be dropped
    payload = json.loads(open(config_path(name)).read())
    payload["potential"][part] = {"hermitian": True, "modes": [
        {"coeffs": [0, 0, 0], "scalar": scalar}]}
    path = write_config(tmp_path, payload)
    assert main([command, "--config", path]) == 1
    assert (f"config error at /potential/{part}: unused: this command reads "
            "only A") in capsys.readouterr().err


def test_kernel_defaults():
    parsed = cfg.parse_kernel_constant({})
    assert parsed["tau_lo"] == math.pi
    assert parsed["tau_hi"] == 2.0 * math.pi
    assert parsed["cross_check"] is True


# ---------------------------------------------------------------------------
# command line, in process
# ---------------------------------------------------------------------------

def test_cli_bands_artifacts(tmp_path):
    out = tmp_path / "out"
    code = main(["bands", "--config", config_path("free_bands.json"),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "bands.json").read_text())
    assert report["command"] == "bands"
    assert report["suspect_flat_bands"] == []
    csv_lines = (out / "bands.csv").read_text().splitlines()
    assert csv_lines[0].startswith("xi,E_1,")
    assert len(csv_lines) == 21  # header + one row per sample


def test_cli_find_gamma_matches_golden(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["find-gamma", "--config", config_path("find_gamma_atoms.json"),
                 "--out", str(out)])
    assert code == 0
    golden = open(os.path.join(GOLDEN_DIR, "find_gamma_atoms.json"),
                  encoding="utf-8").read()
    assert (out / "find-gamma.json").read_text() == golden
    # without --out the same JSON goes to stdout
    capsys.readouterr()
    assert main(["find-gamma", "--config",
                 config_path("find_gamma_atoms.json")]) == 0
    assert capsys.readouterr().out == golden


def test_cli_thomas_runs_are_byte_identical(tmp_path):
    path = write_config(tmp_path, {
        "lattice": {"cubic": 3},
        "potential": {"A": {"real": True, "modes": [
            {"coeffs": [0, 1, 0], "value": [0.0, 0.0, 0.05]},
            {"coeffs": [0, -1, 0], "value": [0.0, 0.0, 0.05]},
        ]}},
        "measure": {"kind": "dirac"},
        "thomas": {"gamma": [1, 0, 0], "theta": 0.5, "kappas": [4.0],
                   "k_points_per_axis": 2, "cutoff": 9.4,
                   "sphere_samples": 256, "probe_count": 200},
    })
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["verify-thomas", "--config", path,
                     "--out", str(out)]) == 0
        outs.append({name: (out / name).read_bytes()
                     for name in ("verify-thomas.json", "margins.csv")})
    assert outs[0] == outs[1]
    report = json.loads(outs[0]["verify-thomas.json"])
    assert report["holds"] and report["probe"]["consistent"]


def test_cli_kernel_constant(tmp_path, capsys):
    path = write_config(tmp_path, {"kernel": {"cross_check": False}})
    assert main(["kernel-constant", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "kernel-constant"
    assert report["constant"] == pytest.approx(1.7058460118707472, abs=1e-6)


def test_cli_failing_check_exits_two(tmp_path):
    path = write_config(tmp_path, {
        "lattice": {"cubic": 3},
        "potential": {"A": {"real": True, "modes": [
            {"coeffs": [0, 1, 0], "value": [0.0, 0.0, 5.0]},
            {"coeffs": [0, -1, 0], "value": [0.0, 0.0, 5.0]},
        ]}},
        "measure": {"kind": "dirac"},
        "condition": {"gamma": [1, 0, 0], "sphere_samples": 128,
                      "scan_grid": 8, "refine_grid": 16},
    })
    out = tmp_path / "out"
    code = main(["check-condition", "--config", path, "--out", str(out)])
    assert code == 2
    report = json.loads((out / "check-condition.json").read_text())
    assert report["passes"] is False  # report still written on failure


def test_cli_config_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"lattice": {"cubic": 3}}', encoding="utf-8")
    assert main(["bands", "--config", str(bad)]) == 1
    assert "config error at /" in capsys.readouterr().err

    assert main(["bands", "--config", str(tmp_path / "missing.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_cli_runtime_errors_exit_one(tmp_path, capsys):
    # theta passes static range checks but collides with the measured bracket
    path = write_config(tmp_path, {
        "lattice": {"cubic": 3},
        "potential": {"A": {"real": True, "modes": [
            {"coeffs": [0, 1, 0], "value": [0.0, 0.0, 0.9]},
            {"coeffs": [0, -1, 0], "value": [0.0, 0.0, 0.9]},
        ]}},
        "measure": {"kind": "dirac"},
        "thomas": {"gamma": [1, 0, 0], "theta": 0.5, "kappas": [4.0],
                   "k_points_per_axis": 1, "cutoff": 9.4,
                   "sphere_samples": 128},
    })
    assert main(["verify-thomas", "--config", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_oversized_cell_grid_exits_one(tmp_path, capsys):
    # refine_grid 512 is within the config bounds, but its phase table on
    # this field would take about 8.6 GB
    payload = json.loads(open(config_path("condition.json")).read())
    payload["condition"]["refine_grid"] = 512
    path = write_config(tmp_path, payload)
    tracemalloc.start()
    try:
        code = main(["check-condition", "--config", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "cell grid of 512^3 points" in capsys.readouterr().err
    assert peak < 50e6


def test_cli_usage_errors_exit_one(capsys):
    for argv in ([], ["no-such-command"],
                 ["bands", "--config", "x.json", "--threads", "0"],
                 ["bands", "--config", "x.json", "--seed", "1"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        capsys.readouterr()


HELP_LINES = {
    "bands": "sweep fiber eigenvalues along a quasimomentum line",
    "check-condition": "bracket the averaged-field smallness value",
    "find-gamma": "search period directions (or run the decay pipeline)",
    "verify-thomas": "scan shifted fibers against the damped lower bound",
    "verify-weighted": "weighted singular-value floors on the critical face",
    "gauge-bound": "gauge-pair sup-norm bound check at one frame",
    "kernel-constant": "compute the oscillatory-kernel constant",
}


def _help(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv + ["-h"])
    assert err.value.code == 0
    return capsys.readouterr().out


def test_cli_command_table(capsys):
    top = _help(capsys, [])
    offers = {"--seed": set(), "--cutoff": set(), "--threads": set()}
    for command, line in HELP_LINES.items():
        assert " ".join(top.split()).count(f"{command} {line}") == 1
        text = _help(capsys, [command])
        offers = {flag: found | ({command} if flag in text else set())
                  for flag, found in offers.items()}
    assert offers == {
        "--seed": {"check-condition", "find-gamma", "verify-thomas"},
        "--cutoff": {"bands", "verify-thomas", "verify-weighted"},
        "--threads": set(HELP_LINES),
    }
