"""Strict config parsing and the command line front end, run in process."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from diracband import check_gamma, condition_value, find_gamma
from diracband import config as cfg
from diracband.cli import _COMMANDS, main

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

def overflowing_bands_configs():
    """(pointer, config text) pairs whose numbers do not fit a float, or
    whose mode coordinates do not fit an int64."""
    bands = json.loads(open(config_path("free_bands.json")).read())
    big_int = json.dumps(bands).replace('"cutoff": 9.0',
                                        '"cutoff": ' + "1" * 401)
    big_mode = {**bands, "potential": {"A": {"modes": [
        {"coeffs": [2 ** 63, 0, 0], "value": [0.0, 0.0, 0.0]}]}}}
    bands["lattice"] = {"basis": [["1" + "0" * 400 + "/1", 0, 0],
                                  [0, 1, 0], [0, 0, 1]]}
    return [("/bands/cutoff", big_int),
            ("/lattice/basis/0/0", json.dumps(bands)),
            ("/potential/A/modes/0/coeffs/0", json.dumps(big_mode))]


def test_loads_rejects_duplicates_and_nonfinite(tmp_path):
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
    # an integer over Python's 4,300-digit conversion limit
    with pytest.raises(cfg.ConfigError, match="invalid JSON"):
        cfg.loads('{"a": ' + "1" * 4301 + "}")
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"a": "\xff"}')
    with pytest.raises(cfg.ConfigError, match="not UTF-8"):
        cfg.load_file(str(latin))
    for pointer, text in overflowing_bands_configs():
        with pytest.raises(cfg.ConfigError) as err:
            cfg.parse_bands(cfg.loads(text))
        assert err.value.path == pointer


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

    bad.write_bytes(b'{"lattice": {"cubic": 3}, "a": "\xff"}')
    assert main(["bands", "--config", str(bad)]) == 1
    assert "config error at /: not UTF-8" in capsys.readouterr().err
    bad.write_text('{"a": ' + "1" * 4301 + "}", encoding="utf-8")
    assert main(["bands", "--config", str(bad)]) == 1
    assert "config error at /: invalid JSON" in capsys.readouterr().err
    for pointer, text in overflowing_bands_configs():
        bad.write_text(text, encoding="utf-8")
        assert main(["bands", "--config", str(bad)]) == 1
        assert f"config error at {pointer}:" in capsys.readouterr().err
    weighted = json.loads(open(config_path("weighted_split.json")).read())
    weighted["weighted"]["gamma"] = [2 ** 63, 0, 0]
    bad.write_text(json.dumps(weighted), encoding="utf-8")
    assert main(["verify-weighted", "--config", str(bad)]) == 1
    assert "config error at /weighted/gamma/0:" in capsys.readouterr().err


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
    # refine_grid 512 is within the config bounds; the keys orthogonal to
    # gamma = (1, 1, 1) use all three axes, so the phase table on 512^3
    # points would take about 8.6 GB
    payload = json.loads(open(config_path("condition.json")).read())
    value = [0.02, -0.01, -0.01]
    payload["potential"]["A"]["modes"] = [
        {"coeffs": [s * c for c in key], "value": value}
        for key in ([1, -1, 0], [0, 1, -1]) for s in (1, -1)]
    payload["condition"]["gamma"] = [1, 1, 1]
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


def test_cli_oversized_gauge_grid_exits_one(tmp_path, capsys):
    # grid_per_axis 257 is within the config bounds; A's 6 keys +-E_j use
    # all three axes, so sup|A| on 257^3 points would peak at about 2.4 GB
    payload = json.loads(open(config_path("gauge_bound.json")).read())
    payload["potential"]["A"]["modes"] = [
        {"coeffs": [s * int(i == j) for i in range(3)], "value": [0.01] * 3}
        for j in range(3) for s in (1, -1)]
    payload["gauge"]["grid_per_axis"] = 257
    path = write_config(tmp_path, payload)
    tracemalloc.start()
    try:
        code = main(["gauge-bound", "--config", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "cell grid of 257^3 points for 6 modes" in capsys.readouterr().err
    assert peak < 50e6


def test_cli_fine_grid_on_spanned_axes_runs(tmp_path, capsys):
    # the keys of configs/condition.json orthogonal to gamma = E_1 use two
    # axes, so refine_grid 512 samples 512^2 points
    payload = json.loads(open(config_path("condition.json")).read())
    payload["condition"]["refine_grid"] = 512
    assert main(["check-condition", "--config",
                 write_config(tmp_path, payload)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["theta_lo"] <= report["theta_hi"]


def test_cli_oversized_face_grid_exits_one(tmp_path, capsys):
    # 64 points per axis on the 7-dimensional face of the 8-cube would take
    # 32 TiB of coordinates
    path = write_config(tmp_path, {
        "lattice": {"cubic": 8},
        "weighted": {"mode": "floor", "gamma": [1, 0, 0, 0, 0, 0, 0, 0],
                     "kappas": [4.0], "k_points_per_axis": 64}})
    tracemalloc.start()
    try:
        code = main(["verify-weighted", "--config", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert "face grid of 64^7 points" in err and "k_points_per_axis" in err
    assert peak < 50e6


@pytest.mark.parametrize("command,name,pointer,value,flags,radius", [
    ("find-gamma", "find_gamma_atoms.json", "/search/R0", 300, [], "300"),
    ("find-gamma", "find_gamma_atoms.json", "/search/window", 1000, [],
     "1000"),
    ("find-gamma", "pipeline_documented.json", "/pipeline/R0_list", [2, 300],
     [], "300"),
    # cutoff 5000 is dual radius 5000 / (2 pi)
    ("bands", "free_bands.json", None, None, ["--cutoff", "5000"], "795.775"),
])
def test_cli_oversized_enumeration_exits_one(tmp_path, capsys, command, name,
                                             pointer, value, flags, radius):
    # the coefficient boxes would charge from 21 GB (R0 300: 601^3 points of
    # 96 B) to 770 GB (window 1000) before any point is kept
    raw = cfg.load_file(config_path(name))
    if pointer is not None:
        _set(raw, pointer, value)
    path = write_config(tmp_path, raw)
    tracemalloc.start()
    try:
        code = main([command, "--config", path, *flags])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert f"points for lattice points within radius {radius} needs" in err
    assert "coefficient box" in err and "over the memory budget" in err
    assert peak < 50e6


@pytest.mark.parametrize("command,name,pointer,value,message", [
    # past h1 = 16 the plateau norm is not checked, and its time and memory
    # grow as h1^2 (a window at 1e4 would hold a 32 GB table)
    ("check-condition", "condition.json", "/measure/h1", 1e300, "<= 16.0"),
    ("check-condition", "condition.json", "/measure/h1", 17, "<= 16.0"),
    ("find-gamma", "pipeline_documented.json", "/pipeline/h1", 1e300,
     "<= 16.0"),
    ("find-gamma", "pipeline_documented.json", "/pipeline/h1", 17, "<= 16.0"),
    # 1e-8 would ask for a 14.9 GiB radial sample
    ("kernel-constant", "kernel.json", "/kernel/sample_step", 1e-8,
     ">= 0.001"),
])
def test_cli_oversized_resolution_exits_one(tmp_path, capsys, command, name,
                                            pointer, value, message):
    raw = cfg.load_file(config_path(name))
    _set(raw, pointer, value)
    path = write_config(tmp_path, raw)
    tracemalloc.start()
    try:
        code = main([command, "--config", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert f"config error at {pointer}: must be {message}" in err
    assert "Traceback" not in err
    assert peak < 50e6


def _assert_json_native(node, path=""):
    """Only str keys, and no numpy scalar or array, anywhere in a report."""
    if isinstance(node, dict):
        for key, val in node.items():
            assert type(key) is str, f"{path}: key {key!r}"
            _assert_json_native(val, f"{path}/{key}")
    elif isinstance(node, (list, tuple)):
        for k, val in enumerate(node):
            _assert_json_native(val, f"{path}/{k}")
    else:
        assert type(node) in (str, int, float, bool, type(None)), \
            f"{path}: {type(node).__name__}"


@pytest.mark.parametrize("command,name,edits", [
    # an empty measure: every candidate ties at slab ratio 0
    ("find-gamma", "find_gamma_atoms.json", {"/search/atoms": []}),
    # no dual vector orthogonal to the winner inside the window
    ("find-gamma", "find_gamma_atoms.json",
     {"/search/atoms": [], "/search/R0": 2, "/search/window": 1.0}),
    # every atom on the slab edge: |(e', gamma)| = 1 = h for gamma = e_j
    ("find-gamma", "find_gamma_atoms.json", {"/search/h": 1.0}),
    # no band inside the energy window
    ("bands", "free_bands.json", {"/bands/energy_window": [100, 101],
                                  "/bands/cutoff": 3.0}),
    # every band flagged flat, over two samples
    ("bands", "free_bands.json", {"/bands/threshold": 1e9, "/bands/samples": 2,
                                  "/bands/cutoff": 3.0}),
])
def test_cli_reports_are_json_native(tmp_path, capsys, command, name, edits):
    # main writes the runner's report as it is, with no conversion walk
    raw = cfg.load_file(config_path(name))
    for pointer, value in edits.items():
        _set(raw, pointer, value)
    report, _, _ = _COMMANDS[command][0](cfg.PARSERS[command](raw), 1)
    _assert_json_native(report)
    if command == "find-gamma" and not raw["search"]["atoms"]:
        assert report["slab_ratio"] == 0.0
        assert report["orthogonal_found"] is ("window" not in raw["search"])
    if command == "bands":
        assert report["bands_in_window"] == len(report["rows"])
        assert report["suspect_flat_bands"] == (
            [] if "energy_window" in raw["bands"]
            else [row["band"] for row in report["rows"]])
    assert main([command, "--config", write_config(tmp_path, raw)]) in (0, 2)
    assert capsys.readouterr().out == cfg.canonical_dumps(
        {"command": command, **report})


def test_searches_return_the_dicts_the_cli_writes(capsys):
    # the bracket and the direction searches return plain dicts that
    # canonical_dumps writes as they are: the CLI report holds every key
    p = cfg.parse_check_condition(cfg.load_file(config_path("condition.json")))
    cv = condition_value(p["A"], p["gamma"], p["measure"],
                         sphere_samples=p["sphere_samples"],
                         scan_grid=p["scan_grid"],
                         refine_grid=p["refine_grid"],
                         rng=np.random.default_rng(p["seed"]))
    p = cfg.parse_find_gamma(
        cfg.load_file(config_path("find_gamma_atoms.json")))
    cert = find_gamma(p["lattice"], p["measure"], p["h"], p["R0"], p["window"])
    ok, again = check_gamma(p["lattice"], cert["gamma_coeffs"], p["measure"],
                            p["h"], p["R0"],
                            orth_floor=(cert["min_orth"] or 1.0) * 0.99,
                            slab_cap=max(cert["slab_ratio"], 1e-9),
                            window=cert["window"])
    assert ok
    for command, name, result in (
            ("check-condition", "condition.json", cv),
            ("find-gamma", "find_gamma_atoms.json", cert),
            ("find-gamma", "find_gamma_atoms.json", again)):
        assert type(result) is dict
        _assert_json_native(result)
        assert main([command, "--config", config_path(name)]) in (0, 2)
        report = json.loads(capsys.readouterr().out)
        assert json.loads(cfg.canonical_dumps(result)) == {
            key: report[key] for key in result}
    assert set(cv) == {"theta_lo", "theta_hi", "best_et", "f_lo", "f_hi",
                       "samples"}
    assert again == cert


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
