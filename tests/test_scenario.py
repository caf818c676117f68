"""Scenario file parsing: strict schema, curve sources, nested sections."""

import json
import re

import pytest

from riesim.adversary import AttackMode
from riesim.detector import AvailabilityModel, default_dead_time_curve
from riesim.protocol import Basis, PolarizationState
from riesim.scenario import (MAX_GRID_POINTS, MutualInfoSettings, ScenarioError,
                             _parse_mutualinfo, load_scenario)


def write_config(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


def test_empty_config_uses_defaults():
    scenario = load_scenario(data={})
    assert scenario.seed == 1
    assert scenario.attack.mode is AttackMode.NONE
    # every load shares the one default curve, whose arrays are read-only
    assert scenario.curve is load_scenario(data={}).curve is default_dead_time_curve()


def test_full_config_round_trip(tmp_path):
    path = write_config(tmp_path, {
        "seed": 99,
        "out": "outdir",
        "workers": 2,
        "dead_time_curve": {"table": [[0.0, 20e-9], [50e6, 30e-9]]},
        "protocol": {
            "n_rounds": 1000,
            "p0": 0.8,
            "abort_threshold": 0.1,
            "availability_model": "linear_bound",
            "fixed_alice": ["Z", 0],
        },
        "attack": {"mode": "rie_deterministic", "delta_s": 1e-8},
        "sweep": {"rates_cps": [1e6], "duration_s": 0.001},
        "scan": {"lambda_par_cps": [1e6], "lambda_perp_cps": [5e6, 10e6]},
        "mutualinfo": {"r_step": 0.5},
    })
    scenario = load_scenario(path)
    assert scenario.seed == 99
    assert scenario.curve.dead_time_at(25e6) == pytest.approx(25e-9)
    assert scenario.attack.mode is AttackMode.RIE_DETERMINISTIC
    config = scenario.protocol_config()
    assert config.p0 == 0.8
    assert config.seed == 99
    assert config.availability_model is AvailabilityModel.LINEAR_BOUND
    assert config.fixed_alice == PolarizationState(Basis.Z, 0)
    assert scenario.scan.lambda_perp_cps == (5e6, 10e6)
    assert scenario.mutualinfo.grid() == [0.0, 0.5, 1.0]


def test_curve_from_csv(tmp_path):
    csv_path = tmp_path / "curve.csv"
    csv_path.write_text("lambda_cps,t_d_seconds\n0,2e-8\n1e7,3e-8\n")
    path = write_config(tmp_path, {"dead_time_curve": {"csv": "curve.csv"}})
    scenario = load_scenario(path)
    assert scenario.curve.dead_time_at(5e6) == pytest.approx(2.5e-8)


def test_unknown_root_key_rejected():
    with pytest.raises(ScenarioError, match="unknown key"):
        load_scenario(data={"bogus": 1})


def test_unknown_protocol_key_rejected():
    with pytest.raises(ScenarioError, match="protocol"):
        load_scenario(data={"protocol": {"n_rounds": 10, "p0": 1.0, "typo": 4}})


def test_unknown_attack_key_rejected():
    with pytest.raises(ScenarioError, match="attack"):
        load_scenario(data={"attack": {"mode": "none", "oops": True}})


def test_unknown_attack_mode_rejected():
    with pytest.raises(ScenarioError, match="attack mode"):
        load_scenario(data={"attack": {"mode": "quantum_hammer"}})


def test_unknown_availability_model_rejected():
    with pytest.raises(ScenarioError, match="availability_model"):
        load_scenario(data={"protocol": {"n_rounds": 1, "p0": 1.0,
                                         "availability_model": "magic"}})


def test_bad_fixed_alice_rejected():
    with pytest.raises(ScenarioError, match="fixed_alice"):
        load_scenario(data={"protocol": {"n_rounds": 1, "p0": 1.0, "fixed_alice": "Z0"}})


def test_curve_sources_are_exclusive():
    with pytest.raises(ScenarioError):
        load_scenario(data={"dead_time_curve": {"default": True, "table": [[0, 1e-8]]}})
    with pytest.raises(ScenarioError):
        load_scenario(data={"dead_time_curve": {}})


def test_invalid_attack_parameters_rejected():
    with pytest.raises(ScenarioError):
        load_scenario(data={"attack": {"mode": "rie_deterministic"}})


def test_scan_grid_expansion():
    scenario = load_scenario(data={
        "scan": {"lambda_par_cps": [1e6],
                 "lambda_perp_grid": {"start_cps": 1e6, "stop_cps": 3e6, "num": 3}}
    })
    assert scenario.scan.lambda_perp_cps == (1e6, 2e6, 3e6)


def test_scan_grid_and_list_are_exclusive():
    with pytest.raises(ScenarioError):
        load_scenario(data={"scan": {
            "lambda_perp_cps": [1e6],
            "lambda_perp_grid": {"start_cps": 1e6, "stop_cps": 2e6, "num": 2}}})


def test_empty_scan_grid_rejected():
    with pytest.raises(ScenarioError, match="grids"):
        load_scenario(data={"scan": {"lambda_perp_cps": []}})


def test_empty_sweep_rates_rejected():
    with pytest.raises(ScenarioError, match="sweep"):
        load_scenario(data={"sweep": {"rates_cps": []}})


def test_protocol_section_requires_core_fields():
    with pytest.raises(ScenarioError, match="p0"):
        load_scenario(data={"protocol": {"n_rounds": 5}})
    with pytest.raises(ScenarioError, match="p0"):
        load_scenario(data={}).protocol_config()


@pytest.mark.parametrize("protocol, message", [
    pytest.param({"n_rounds": 10, "p0": 2}, "p0 must be in (0, 1], got 2.0", id="p0 above 1"),
    pytest.param({"n_rounds": 0, "p0": 0.9}, "n_rounds must be >= 1", id="no rounds"),
    pytest.param({"n_rounds": 10, "p0": 0.9, "abort_threshold": 0.5},
                 "abort threshold must be in (0, 0.5)", id="abort threshold at 0.5"),
    pytest.param({"n_rounds": 10, "p0": 0.9, "background_rate_cps": -1},
                 "background rate must be >= 0", id="negative background rate"),
    # numpy's multinomial draw takes at most 2**63 - 1 rounds
    pytest.param({"n_rounds": 1e30, "p0": 0.9},
                 "n_rounds must be <= 2**63 - 1, got 1000000000000000019884624838656",
                 id="n_rounds above int64"),
])
def test_protocol_section_checked_at_load(protocol, message):
    with pytest.raises(ScenarioError, match=re.escape(f"invalid protocol section: {message}")):
        load_scenario(data={"protocol": protocol})


def test_attack_delta_s_may_be_null():
    scenario = load_scenario(data={"attack": {"mode": "intercept_resend", "delta_s": None}})
    assert scenario.attack.delta_s is None


@pytest.mark.parametrize("curve", [
    {"table": [[0, 1e-8], [1e6, float("nan")]]},
    {"table": [[0, 1e-8], [float("inf"), 2e-8]]},
    {"csv": "curve.csv"},
], ids=["nan dead time", "infinite rate", "csv nan"])
def test_non_finite_curve_rejected(tmp_path, curve):
    (tmp_path / "curve.csv").write_text("lambda_cps,t_d_seconds\n0,nan\n")
    with pytest.raises(ScenarioError, match="invalid dead_time_curve: .*finite"):
        load_scenario(write_config(tmp_path, {"dead_time_curve": curve}))


def test_histogram_bin_cap_checked_at_load():
    with pytest.raises(ScenarioError, match=re.escape(
            "sweep.max_gap_s / sweep.bin_width_s: the histogram would need 2e+08 bins")):
        load_scenario(data={"sweep": {"bin_width_s": 1e-15}})


def test_stream_event_cap_checked_at_load():
    with pytest.raises(ScenarioError, match=re.escape(
            "sweep.rates_cps[0] * sweep.duration_s: the stream would hold 1e+12 events, "
            "more than the limit of 134217728")):
        load_scenario(data={"sweep": {"rates_cps": [1e12], "duration_s": 1}})


def test_scan_cell_cap_checked_at_load():
    perp = {"start_cps": 0, "stop_cps": 1, "num": 1500}
    with pytest.raises(ScenarioError, match=re.escape(
            "scan.lambda_par_cps x scan.lambda_perp_cps: the scan would have 4500000 cells")):
        load_scenario(data={"scan": {"lambda_par_cps": [1e6] * 3000, "lambda_perp_grid": perp}})
    scan = load_scenario(data={"scan": {"lambda_par_cps": [1e6] * 2796, "lambda_perp_grid": perp}})
    assert len(scan.scan.lambda_par_cps) * len(scan.scan.lambda_perp_cps) <= MAX_GRID_POINTS


def test_mutualinfo_point_cap_boundary():
    # r_step 1/(cap - 1) gives exactly MAX_GRID_POINTS points on [0, 1], 1/cap one more
    load_scenario(data={"mutualinfo": {"r_step": 1.0 / (MAX_GRID_POINTS - 1)}})
    with pytest.raises(ScenarioError, match="mutualinfo.r_step must be large enough"):
        load_scenario(data={"mutualinfo": {"r_step": 1.0 / MAX_GRID_POINTS}})


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(path)


@pytest.mark.parametrize("raw, message", [
    (b'{"seed": 1, \xff}', "'utf-8' codec can't decode byte 0xff in position 12"),
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
], ids=["byte not UTF-8", "nested 100000 deep"])
def test_undecodable_or_too_deep_json_reported(tmp_path, raw, message):
    path = tmp_path / "broken.json"
    path.write_bytes(raw)
    with pytest.raises(ScenarioError, match=re.escape(f"config {path} is not valid JSON: {message}")):
        load_scenario(path)


def test_config_encoding_follows_json_not_the_locale(tmp_path):
    # JSON's own detection: a UTF-8 byte order mark and UTF-16 both read
    for raw in (b"\xef\xbb\xbf" + b'{"seed": 3}', '{"seed": 3}'.encode("utf-16")):
        path = tmp_path / "scenario.json"
        path.write_bytes(raw)
        assert load_scenario(path).seed == 3


def test_missing_file_reported(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")


@pytest.mark.parametrize("data, key", [
    pytest.param({"seed": "x"}, "seed", id="seed string"),
    pytest.param({"seed": 1.7}, "seed", id="seed fraction"),
    pytest.param({"seed": True}, "seed", id="seed boolean"),
    pytest.param({"workers": 2.5}, "workers", id="workers fraction"),
    pytest.param({"workers": "2"}, "workers", id="workers string"),
    pytest.param({"protocol": {"n_rounds": True, "p0": 1.0}}, "protocol.n_rounds",
                 id="n_rounds boolean"),
    pytest.param({"protocol": {"n_rounds": 1e5 + 0.5, "p0": 1.0}}, "protocol.n_rounds",
                 id="n_rounds fraction"),
    pytest.param({"protocol": {"n_rounds": "100", "p0": 1.0}}, "protocol.n_rounds",
                 id="n_rounds string"),
    pytest.param({"sweep": {"min_count": 2.5}}, "sweep.min_count", id="min_count fraction"),
    pytest.param({"sweep": {"min_count": False}}, "sweep.min_count", id="min_count boolean"),
    pytest.param({"scan": {"lambda_perp_grid": {"start_cps": 1e6, "stop_cps": 3e6, "num": 2.5}}},
                 "scan.lambda_perp_grid.num", id="grid num fraction"),
    pytest.param({"scan": {"lambda_perp_grid": {"start_cps": 1e6, "stop_cps": 3e6, "num": "3"}}},
                 "scan.lambda_perp_grid.num", id="grid num string"),
    pytest.param({"scan": {"lambda_perp_grid": {"start_cps": 1e6, "stop_cps": 3e6, "num": True}}},
                 "scan.lambda_perp_grid.num", id="grid num boolean"),
    pytest.param({"protocol": {"n_rounds": 10, "p0": 1.0, "fixed_alice": ["Z", 1.5]}},
                 r"protocol.fixed_alice\[1\]", id="fixed_alice bit fraction"),
    pytest.param({"protocol": {"n_rounds": 10, "p0": 1.0, "fixed_alice": ["Z", True]}},
                 r"protocol.fixed_alice\[1\]", id="fixed_alice bit boolean"),
])
def test_non_integer_fields_rejected(data, key):
    with pytest.raises(ScenarioError, match=f"{key} must be an integer"):
        load_scenario(data=data)


def test_integral_floats_accepted_as_integers():
    scenario = load_scenario(data={
        "seed": 7.0, "workers": 2.0,
        "protocol": {"n_rounds": 1e5, "p0": 1.0},
        "sweep": {"min_count": 3.0},
    })
    config = scenario.protocol_config()
    assert (scenario.seed, config.n_rounds, scenario.sweep.min_count) == (7, 100_000, 3)
    assert all(type(v) is int for v in (scenario.seed, config.n_rounds, scenario.sweep.min_count))


@pytest.mark.parametrize("data, key", [
    pytest.param({"sweep": {"duration_s": "x"}}, "sweep.duration_s", id="duration string"),
    pytest.param({"sweep": {"bin_width_s": True}}, "sweep.bin_width_s", id="bin width boolean"),
    pytest.param({"sweep": {"max_gap_s": None}}, "sweep.max_gap_s", id="max gap null"),
    pytest.param({"sweep": {"rates_cps": [1e6, "2e6"]}}, r"sweep.rates_cps\[1\]",
                 id="sweep rate string"),
    pytest.param({"sweep": {"rates_cps": 1e6}}, "sweep.rates_cps", id="sweep rates not a list"),
    pytest.param({"scan": {"e_abort": "x"}}, "scan.e_abort", id="scan e_abort string"),
    pytest.param({"scan": {"lambda_par_cps": [False]}}, r"scan.lambda_par_cps\[0\]",
                 id="lambda_par boolean"),
    pytest.param({"scan": {"lambda_perp_cps": ["1e6"]}}, r"scan.lambda_perp_cps\[0\]",
                 id="lambda_perp string"),
    pytest.param({"scan": {"lambda_perp_grid": {"start_cps": "0", "stop_cps": 1e6, "num": 2}}},
                 "scan.lambda_perp_grid.start_cps", id="grid start string"),
    pytest.param({"scan": {"lambda_perp_grid": {"start_cps": 0, "stop_cps": [1e6], "num": 2}}},
                 "scan.lambda_perp_grid.stop_cps", id="grid stop list"),
    pytest.param({"mutualinfo": {"r_step": "x"}}, "mutualinfo.r_step", id="r_step string"),
    pytest.param({"mutualinfo": {"r_start": True}}, "mutualinfo.r_start",
                 id="r_start boolean"),
    pytest.param({"mutualinfo": {"e_abort": "0.1"}}, "mutualinfo.e_abort",
                 id="mutualinfo e_abort string"),
    pytest.param({"protocol": {"n_rounds": 10, "p0": True}}, "protocol.p0", id="p0 boolean"),
    pytest.param({"protocol": {"n_rounds": 10, "p0": 0.9, "background_rate_cps": float("nan")}},
                 "protocol.background_rate_cps", id="background rate nan"),
    pytest.param({"protocol": {"n_rounds": 10, "p0": 0.9, "transmission": "1"}},
                 "protocol.transmission", id="transmission string"),
    pytest.param({"attack": {"mode": "rie_non_deterministic", "lambda_perp_cps": float("inf")}},
                 "attack.lambda_perp_cps", id="attack lambda_perp infinite"),
    pytest.param({"attack": {"mode": "rie_deterministic", "delta_s": float("nan")}},
                 "attack.delta_s", id="delta nan"),
    pytest.param({"attack": {"eve_basis_prior": "0.5"}}, "attack.eve_basis_prior",
                 id="eve basis prior string"),
    pytest.param({"attack": {"lambda_parallel_cps": None}}, "attack.lambda_parallel_cps",
                 id="lambda_parallel null"),
    # JSON integer literals beyond float range
    pytest.param({"mutualinfo": {"r_stop": 10**400}}, "mutualinfo.r_stop",
                 id="r_stop beyond float range"),
    pytest.param({"sweep": {"rates_cps": [1e6, -10**400]}}, r"sweep.rates_cps\[1\]",
                 id="sweep rate beyond float range"),
    pytest.param({"scan": {"lambda_perp_grid": {"start_cps": 0, "stop_cps": 10**400, "num": 2}}},
                 "scan.lambda_perp_grid.stop_cps", id="grid stop beyond float range"),
    pytest.param({"dead_time_curve": {"table": [[0, 2e-8], [10**400, 2e-8]]}},
                 r"dead_time_curve.table\[1\]\[0\]", id="table rate beyond float range"),
    pytest.param({"dead_time_curve": {"table": [[0, -10**400]]}},
                 r"dead_time_curve.table\[0\]\[1\]", id="table dead time beyond float range"),
])
def test_non_number_fields_rejected(data, key):
    with pytest.raises(ScenarioError, match=f"{key} must be a "):
        load_scenario(data=data)


@pytest.mark.parametrize("section, message", [
    ({"r_step": 0}, "r_step must be > 0"),
    ({"r_step": -0.1}, "r_step must be > 0"),
    ({"r_step": float("nan")}, "r_step must be a finite number"),
    ({"r_stop": float("inf")}, "r_stop must be a finite number"),
    # r_start + k * r_step stays r_start for every k
    ({"r_start": 1e308, "r_stop": 1e308, "r_step": 1e-300},
     "r_step must be large enough for at most 4194304 grid points"),
], ids=["zero step", "negative step", "nan step", "infinite stop", "step absorbed by start"])
def test_mutualinfo_grid_must_end(section, message):
    # checked while parsing: a grid that never passes r_stop is refused at the cap
    with pytest.raises(ScenarioError, match=f"mutualinfo.{message}"):
        _parse_mutualinfo(section)


def test_integer_valued_numbers_become_floats():
    scenario = load_scenario(data={
        "sweep": {"rates_cps": [1000000], "duration_s": 1},
        "scan": {"lambda_par_cps": [1000000],
                 "lambda_perp_grid": {"start_cps": 0, "stop_cps": 2000000, "num": 3.0}},
        "mutualinfo": {"r_stop": 1, "r_step": 1},
    })
    assert scenario.sweep.rates_cps == (1e6,) and scenario.sweep.duration_s == 1.0
    assert scenario.scan.lambda_perp_cps == (0.0, 1e6, 2e6)
    assert scenario.mutualinfo.grid() == [0.0, 1.0]
    assert all(type(v) is float for v in (
        scenario.sweep.rates_cps[0], scenario.sweep.duration_s,
        *scenario.scan.lambda_par_cps, *scenario.scan.lambda_perp_cps, scenario.mutualinfo.r_step))


@pytest.mark.parametrize("data, where", [
    ({"dead_time_curve": 5}, "dead_time_curve"),
    ({"dead_time_curve": [[0.0, 2e-8]]}, "dead_time_curve"),
    ({"protocol": [1000, 0.9]}, "protocol"),
    ({"attack": "intercept_resend"}, "attack"),
    ({"sweep": 5}, "sweep"),
    ({"scan": [1e6]}, "scan"),
    ({"scan": {"lambda_perp_grid": [1, 2]}}, "scan.lambda_perp_grid"),
    ({"mutualinfo": 0.01}, "mutualinfo"),
    ({"scan": 5}, "scan"),
    ([1], "config root"),
], ids=["dead_time_curve a number", "dead_time_curve a list", "protocol a list",
        "attack a string", "sweep a number", "scan a list", "lambda_perp_grid a list",
        "mutualinfo a number", "scan a number", "config root a list"])
def test_non_object_sections_rejected(data, where):
    with pytest.raises(ScenarioError, match=f"^{where} must be a JSON object"):
        load_scenario(data=data)


@pytest.mark.parametrize("data, key, rule", [
    pytest.param({"sweep": {"rates_cps": [1e6, 0]}}, "sweep.rates_cps[1]", "> 0",
                 id="sweep rate zero"),
    pytest.param({"sweep": {"rates_cps": [-1e6]}}, "sweep.rates_cps[0]", "> 0",
                 id="sweep rate negative"),
    pytest.param({"sweep": {"duration_s": -1}}, "sweep.duration_s", ">= 0",
                 id="sweep duration negative"),
    pytest.param({"sweep": {"bin_width_s": 0}}, "sweep.bin_width_s", "> 0",
                 id="sweep bin width zero"),
    pytest.param({"sweep": {"min_count": 0}}, "sweep.min_count", ">= 1",
                 id="sweep min_count zero"),
    pytest.param({"scan": {"lambda_par_cps": [1e6, -1.0]}}, "scan.lambda_par_cps[1]", ">= 0",
                 id="lambda_par negative"),
    pytest.param({"scan": {"lambda_perp_cps": [-5e6]}}, "scan.lambda_perp_cps[0]", ">= 0",
                 id="lambda_perp -5e6"),
    pytest.param({"scan": {"lambda_perp_grid": {"start_cps": -1e6, "stop_cps": 3e6, "num": 3}}},
                 "scan.lambda_perp_grid.start_cps", ">= 0", id="lambda_perp_grid start -1e6"),
    pytest.param({"scan": {"e_abort": 0.7}}, "scan.e_abort", "in (0, 0.5)",
                 id="scan e_abort 0.7"),
    pytest.param({"scan": {"e_abort": 0}}, "scan.e_abort", "in (0, 0.5)", id="scan e_abort 0"),
    pytest.param({"mutualinfo": {"e_abort": 0.7}}, "mutualinfo.e_abort", "in (0, 0.5)",
                 id="mutualinfo e_abort 0.7"),
    pytest.param({"mutualinfo": {"e_abort": 0.5}}, "mutualinfo.e_abort", "in (0, 0.5)",
                 id="mutualinfo e_abort 0.5"),
    pytest.param({"mutualinfo": {"r_start": -0.1}}, "mutualinfo.r_start", ">= 0",
                 id="mutualinfo r_start -0.1"),
    pytest.param({"sweep": {"max_gap_s": -1}}, "sweep.max_gap_s", "> 0", id="sweep max_gap -1"),
    pytest.param({"sweep": {"max_gap_s": 0}}, "sweep.max_gap_s", "> 0", id="sweep max_gap 0"),
    pytest.param({"scan": {"lambda_perp_grid": {"start_cps": 0, "stop_cps": 1, "num": 1e12}}},
                 "scan.lambda_perp_grid.num", "<= 4194304", id="lambda_perp_grid num 1e12"),
    pytest.param({"mutualinfo": {"r_step": 1e-15}}, "mutualinfo.r_step",
                 "large enough for at most 4194304 grid points", id="mutualinfo r_step 1e-15"),
    pytest.param({"seed": -1}, "seed", ">= 0", id="seed -1"),
    pytest.param({"seed": -2.0}, "seed", ">= 0", id="seed -2.0"),
    pytest.param({"out": None}, "out", "a non-empty string", id="out null"),
    pytest.param({"out": ""}, "out", "a non-empty string", id="out empty"),
    pytest.param({"out": ["results"]}, "out", "a non-empty string", id="out a list"),
    pytest.param({"out": True}, "out", "a non-empty string", id="out true"),
    pytest.param({"out": 7}, "out", "a non-empty string", id="out 7"),
    pytest.param({"sweep": {"bin_width_s": 1e7, "max_gap_s": 1e7}},
                 "sweep.max_gap_s / sweep.bin_width_s: the histogram's upper edge",
                 "at most 2**63 - 1 ps", id="histogram edge past int64"),
])
def test_out_of_range_values_rejected(data, key, rule):
    with pytest.raises(ScenarioError, match=re.escape(f"{key} must be {rule}, got ")):
        load_scenario(data=data)


def test_range_boundaries_accepted():
    scenario = load_scenario(data={
        "seed": 0,
        "sweep": {"duration_s": 0, "min_count": 1},
        "scan": {"lambda_par_cps": [0, -0.0],
                 "lambda_perp_grid": {"start_cps": 0, "stop_cps": 0, "num": 1}},
        "mutualinfo": {"r_start": 0, "e_abort": 0.49},
    })
    assert scenario.seed == 0
    assert scenario.sweep.duration_s == 0.0 and scenario.sweep.min_count == 1
    assert scenario.scan.lambda_perp_cps == (0.0,)


@pytest.mark.parametrize("r_start, r_stop", [
    (0.5, 0.4), (1.0 + 2e-12, 1.0), (1.0 + 5e-13, 1.0), (0.3, 0.3),
])
def test_mutualinfo_empty_grid_check_matches_grid(r_start, r_stop):
    section = {"r_start": r_start, "r_stop": r_stop, "r_step": 0.1}
    if MutualInfoSettings(**section).grid():
        assert load_scenario(data={"mutualinfo": section}).mutualinfo.grid()
    else:
        with pytest.raises(ScenarioError, match="mutualinfo grid is empty"):
            load_scenario(data={"mutualinfo": section})


@pytest.mark.parametrize("text, message", [
    ("", "empty dead-time curve file"),
    ("lambda_cps\n", "expected two columns, got header ['lambda_cps']"),
    ("lambda_cps,t_d_seconds\n", "dead-time curve has no data rows"),
], ids=["empty", "one column", "header only"])
def test_curve_csv_without_points_rejected(tmp_path, text, message):
    (tmp_path / "curve.csv").write_text(text)
    with pytest.raises(ScenarioError, match=re.escape(
            f"invalid dead_time_curve: {tmp_path / 'curve.csv'}: {message}")):
        load_scenario(write_config(tmp_path, {"dead_time_curve": {"csv": "curve.csv"}}))


def test_curve_csv_skips_blank_rows(tmp_path):
    (tmp_path / "curve.csv").write_text("lambda_cps,t_d_seconds\n0,2e-8\n\n1e7,3e-8\n")
    scenario = load_scenario(write_config(tmp_path, {"dead_time_curve": {"csv": "curve.csv"}}))
    assert scenario.curve.rates_cps.tolist() == [0.0, 1e7]
    assert scenario.curve.dead_times_s.tolist() == [2e-8, 3e-8]


def test_fixed_alice_may_be_null():
    scenario = load_scenario(data={"protocol": {"n_rounds": 1, "p0": 1.0, "fixed_alice": None}})
    assert scenario.protocol_config().fixed_alice is None


def test_fixed_alice_unknown_basis_rejected():
    with pytest.raises(ScenarioError, match=re.escape(
            'fixed_alice must be ["Z"|"X", 0|1] or null, got [\'Q\', 0]')):
        load_scenario(data={"protocol": {"n_rounds": 1, "p0": 1.0, "fixed_alice": ["Q", 0]}})


@pytest.mark.parametrize("grid, message", [
    ({"start_cps": 1e6, "stop_cps": 3e6}, "needs start_cps, stop_cps, num"),
    ({"start_cps": 1e6, "stop_cps": 3e6, "num": 0}, "must have num >= 1 and stop >= start"),
    ({"start_cps": 3e6, "stop_cps": 1e6, "num": 3}, "must have num >= 1 and stop >= start"),
], ids=["no num", "num 0", "stop below start"])
def test_perp_grid_shape_rejected(grid, message):
    with pytest.raises(ScenarioError, match=re.escape(f"scan.lambda_perp_grid {message}")):
        load_scenario(data={"scan": {"lambda_perp_grid": grid}})


@pytest.mark.parametrize("data, message", [
    # protocol: the section's shape, then its required keys, then their values
    ({"protocol": {"n_rounds": 5, "typo": 1}}, "unknown key(s) in protocol: typo"),
    ({"protocol": {"n_rounds": "x"}}, "protocol section needs at least n_rounds and p0"),
    # scan: "not both" before the perp rates are read
    ({"scan": {"lambda_perp_cps": ["x"], "lambda_perp_grid": {"start_cps": 0}}},
     "scan: give lambda_perp_cps or lambda_perp_grid, not both"),
    ({"scan": {"lambda_perp_cps": [1e6], "lambda_perp_grid": {}, "typo": 1}},
     "unknown key(s) in scan: typo"),
    # sweep: an empty rate list after the histogram checks
    ({"sweep": {"rates_cps": [], "bin_width_s": 0}}, "sweep.bin_width_s must be > 0, got 0.0"),
    ({"sweep": {"rates_cps": [], "duration_s": -1}}, "sweep.duration_s must be >= 0, got -1.0"),
    # mutualinfo: an empty grid after the range checks
    ({"mutualinfo": {"r_start": 0.5, "r_stop": 0.4, "e_abort": 0.7}},
     "mutualinfo.e_abort must be in (0, 0.5), got 0.7"),
    # sections in the loader's order: scan, mutualinfo, sweep, seed
    ({"seed": -1, "sweep": {"rates_cps": []}, "mutualinfo": {"r_start": 2},
      "scan": {"lambda_perp_cps": []}}, "scan grids must not be empty"),
    ({"seed": -1, "sweep": {"rates_cps": []}, "mutualinfo": {"r_start": 2}},
     "mutualinfo grid is empty"),
    ({"seed": -1, "sweep": {"rates_cps": []}}, "sweep.rates_cps must not be empty"),
], ids=["protocol unknown key", "protocol keys missing", "scan perp both given",
        "scan unknown key", "sweep bin width zero", "sweep duration negative",
        "mutualinfo e_abort above 0.5", "scan before mutualinfo", "mutualinfo before sweep",
        "sweep before seed"])
def test_first_of_two_faults_reported(data, message):
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        load_scenario(data=data)
