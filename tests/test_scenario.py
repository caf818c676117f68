"""Scenario file parsing: strict schema, curve sources, nested sections."""

import json
import re

import numpy as np
import pytest

from riesim.adversary import AttackMode
from riesim.detector import AvailabilityModel, default_dead_time_curve
from riesim.quantum import Basis, PolarizationState
from riesim.scenario import MAX_GRID_POINTS, ScenarioError, _parse_mutualinfo, load_scenario


def write_config(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


def test_empty_config_uses_defaults():
    scenario = load_scenario(data={})
    assert scenario.seed == 1
    assert scenario.attack.mode is AttackMode.NONE
    np.testing.assert_array_equal(
        scenario.curve.rates_cps, default_dead_time_curve().rates_cps)


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
    ({"n_rounds": 10, "p0": 2}, "p0 must be in (0, 1], got 2.0"),
    ({"n_rounds": 0, "p0": 0.9}, "n_rounds must be >= 1"),
    ({"n_rounds": 10, "p0": 0.9, "abort_threshold": 0.5}, "abort threshold must be in (0, 0.5)"),
    ({"n_rounds": 10, "p0": 0.9, "background_rate_cps": -1}, "background rate must be >= 0"),
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


def test_missing_file_reported(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")


@pytest.mark.parametrize("data, key", [
    ({"seed": "x"}, "seed"),
    ({"seed": 1.7}, "seed"),
    ({"seed": True}, "seed"),
    ({"workers": 2.5}, "workers"),
    ({"workers": "2"}, "workers"),
    ({"protocol": {"n_rounds": True, "p0": 1.0}}, "protocol.n_rounds"),
    ({"protocol": {"n_rounds": 1e5 + 0.5, "p0": 1.0}}, "protocol.n_rounds"),
    ({"protocol": {"n_rounds": "100", "p0": 1.0}}, "protocol.n_rounds"),
    ({"sweep": {"min_count": 2.5}}, "sweep.min_count"),
    ({"sweep": {"min_count": False}}, "sweep.min_count"),
    ({"scan": {"lambda_perp_grid": {"start_cps": 1e6, "stop_cps": 3e6, "num": 2.5}}},
     "scan.lambda_perp_grid.num"),
    ({"scan": {"lambda_perp_grid": {"start_cps": 1e6, "stop_cps": 3e6, "num": "3"}}},
     "scan.lambda_perp_grid.num"),
    ({"scan": {"lambda_perp_grid": {"start_cps": 1e6, "stop_cps": 3e6, "num": True}}},
     "scan.lambda_perp_grid.num"),
    ({"protocol": {"n_rounds": 10, "p0": 1.0, "fixed_alice": ["Z", 1.5]}},
     r"protocol.fixed_alice\[1\]"),
    ({"protocol": {"n_rounds": 10, "p0": 1.0, "fixed_alice": ["Z", True]}},
     r"protocol.fixed_alice\[1\]"),
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
    ({"sweep": {"duration_s": "x"}}, "sweep.duration_s"),
    ({"sweep": {"bin_width_s": True}}, "sweep.bin_width_s"),
    ({"sweep": {"max_gap_s": None}}, "sweep.max_gap_s"),
    ({"sweep": {"rates_cps": [1e6, "2e6"]}}, r"sweep.rates_cps\[1\]"),
    ({"sweep": {"rates_cps": 1e6}}, "sweep.rates_cps"),
    ({"scan": {"e_abort": "x"}}, "scan.e_abort"),
    ({"scan": {"lambda_par_cps": [False]}}, r"scan.lambda_par_cps\[0\]"),
    ({"scan": {"lambda_perp_cps": ["1e6"]}}, r"scan.lambda_perp_cps\[0\]"),
    ({"scan": {"lambda_perp_grid": {"start_cps": "0", "stop_cps": 1e6, "num": 2}}},
     "scan.lambda_perp_grid.start_cps"),
    ({"scan": {"lambda_perp_grid": {"start_cps": 0, "stop_cps": [1e6], "num": 2}}},
     "scan.lambda_perp_grid.stop_cps"),
    ({"mutualinfo": {"r_step": "x"}}, "mutualinfo.r_step"),
    ({"mutualinfo": {"r_start": True}}, "mutualinfo.r_start"),
    ({"mutualinfo": {"e_abort": "0.1"}}, "mutualinfo.e_abort"),
    ({"protocol": {"n_rounds": 10, "p0": True}}, "protocol.p0"),
    ({"protocol": {"n_rounds": 10, "p0": 0.9, "background_rate_cps": float("nan")}},
     "protocol.background_rate_cps"),
    ({"protocol": {"n_rounds": 10, "p0": 0.9, "transmission": "1"}}, "protocol.transmission"),
    ({"attack": {"mode": "rie_non_deterministic", "lambda_perp_cps": float("inf")}},
     "attack.lambda_perp_cps"),
    ({"attack": {"mode": "rie_deterministic", "delta_s": float("nan")}}, "attack.delta_s"),
    ({"attack": {"eve_basis_prior": "0.5"}}, "attack.eve_basis_prior"),
    ({"attack": {"lambda_parallel_cps": None}}, "attack.lambda_parallel_cps"),
])
def test_non_number_fields_rejected(data, key):
    with pytest.raises(ScenarioError, match=f"{key} must be a "):
        load_scenario(data=data)


@pytest.mark.parametrize("section, message", [
    ({"r_step": 0}, "r_step must be > 0"),
    ({"r_step": -0.1}, "r_step must be > 0"),
    ({"r_step": float("nan")}, "r_step must be a finite number"),
    ({"r_stop": float("inf")}, "r_stop must be a finite number"),
], ids=["zero step", "negative step", "nan step", "infinite stop"])
def test_mutualinfo_grid_must_end(section, message):
    # checked while parsing, before grid() would loop without end
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
])
def test_non_object_sections_rejected(data, where):
    with pytest.raises(ScenarioError, match=f"^{where} must be a JSON object"):
        load_scenario(data=data)


@pytest.mark.parametrize("data, key, rule", [
    ({"sweep": {"rates_cps": [1e6, 0]}}, "sweep.rates_cps[1]", "> 0"),
    ({"sweep": {"rates_cps": [-1e6]}}, "sweep.rates_cps[0]", "> 0"),
    ({"sweep": {"duration_s": -1}}, "sweep.duration_s", ">= 0"),
    ({"sweep": {"bin_width_s": 0}}, "sweep.bin_width_s", "> 0"),
    ({"sweep": {"min_count": 0}}, "sweep.min_count", ">= 1"),
    ({"scan": {"lambda_par_cps": [1e6, -1.0]}}, "scan.lambda_par_cps[1]", ">= 0"),
    ({"scan": {"lambda_perp_cps": [-5e6]}}, "scan.lambda_perp_cps[0]", ">= 0"),
    ({"scan": {"lambda_perp_grid": {"start_cps": -1e6, "stop_cps": 3e6, "num": 3}}},
     "scan.lambda_perp_grid.start_cps", ">= 0"),
    ({"scan": {"e_abort": 0.7}}, "scan.e_abort", "in (0, 0.5)"),
    ({"scan": {"e_abort": 0}}, "scan.e_abort", "in (0, 0.5)"),
    ({"mutualinfo": {"e_abort": 0.7}}, "mutualinfo.e_abort", "in (0, 0.5)"),
    ({"mutualinfo": {"e_abort": 0.5}}, "mutualinfo.e_abort", "in (0, 0.5)"),
    ({"mutualinfo": {"r_start": -0.1}}, "mutualinfo.r_start", ">= 0"),
    ({"sweep": {"max_gap_s": -1}}, "sweep.max_gap_s", "> 0"),
    ({"sweep": {"max_gap_s": 0}}, "sweep.max_gap_s", "> 0"),
    ({"scan": {"lambda_perp_grid": {"start_cps": 0, "stop_cps": 1, "num": 1e12}}},
     "scan.lambda_perp_grid.num", "<= 4194304"),
    ({"mutualinfo": {"r_step": 1e-15}}, "mutualinfo.r_step",
     "large enough for at most 4194304 grid points"),
])
def test_out_of_range_values_rejected(data, key, rule):
    with pytest.raises(ScenarioError, match=re.escape(f"{key} must be {rule}, got ")):
        load_scenario(data=data)


def test_range_boundaries_accepted():
    scenario = load_scenario(data={
        "sweep": {"duration_s": 0, "min_count": 1},
        "scan": {"lambda_par_cps": [0, -0.0],
                 "lambda_perp_grid": {"start_cps": 0, "stop_cps": 0, "num": 1}},
        "mutualinfo": {"r_start": 0, "e_abort": 0.49},
    })
    assert scenario.sweep.duration_s == 0.0 and scenario.sweep.min_count == 1
    assert scenario.scan.lambda_perp_cps == (0.0,)


@pytest.mark.parametrize("r_start, r_stop", [
    (0.5, 0.4), (1.0 + 2e-12, 1.0), (1.0 + 5e-13, 1.0), (0.3, 0.3),
])
def test_mutualinfo_empty_grid_check_matches_grid(r_start, r_stop):
    section = {"r_start": r_start, "r_stop": r_stop, "r_step": 0.1}
    if _parse_mutualinfo(section).grid():
        assert load_scenario(data={"mutualinfo": section}).mutualinfo.grid()
    else:
        with pytest.raises(ScenarioError, match="mutualinfo grid is empty"):
            load_scenario(data={"mutualinfo": section})
