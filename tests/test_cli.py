"""End-to-end command runs: outputs, determinism, exit codes."""

import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from riesim.cli import main
from riesim.timetag import apply_dead_time, generate_poisson_stream, write_timestamps


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


@pytest.fixture
def base_config(tmp_path):
    return write_config(tmp_path, {
        "seed": 5,
        "out": str(tmp_path / "results"),
        "protocol": {"n_rounds": 50000, "p0": 1.0},
        "attack": {"mode": "intercept_resend"},
        "sweep": {"rates_cps": [20e6], "duration_s": 0.004},
        "scan": {"lambda_par_cps": [1e6],
                 "lambda_perp_grid": {"start_cps": 1e6, "stop_cps": 30e6, "num": 30}},
        "mutualinfo": {"r_step": 0.1},
    })


def test_simulate_writes_report_and_branches(tmp_path, base_config, capsys):
    assert main(["--config", str(base_config), "simulate"]) == 0
    out = tmp_path / "results"
    report = (out / "simulation_report.txt").read_text()
    assert "qber_observed:" in report
    assert "abort: true" in report  # plain intercept-resend trips the monitor
    branches = (out / "simulation_branches.csv").read_text().splitlines()
    assert branches[0].startswith("eve_basis,eve_bit,bob_basis")
    assert len(branches) == 9  # header + 8 branches
    assert "abort=true" in capsys.readouterr().out


def test_simulate_is_byte_identical_across_runs(tmp_path, base_config):
    main(["--config", str(base_config), "simulate"])
    first = (tmp_path / "results" / "simulation_report.txt").read_bytes()
    main(["--config", str(base_config), "simulate"])
    second = (tmp_path / "results" / "simulation_report.txt").read_bytes()
    assert first == second


def test_simulate_workers_flag_keeps_outputs_identical(tmp_path, base_config):
    main(["--config", str(base_config), "simulate"])
    sequential = (tmp_path / "results" / "simulation_report.txt").read_bytes()
    main(["--config", str(base_config), "--workers", "2", "simulate"])
    parallel = (tmp_path / "results" / "simulation_report.txt").read_bytes()
    assert sequential == parallel


def test_seed_flag_overrides_config(tmp_path, base_config):
    main(["--config", str(base_config), "simulate"])
    first = (tmp_path / "results" / "simulation_report.txt").read_text()
    main(["--config", str(base_config), "--seed", "6", "simulate"])
    second = (tmp_path / "results" / "simulation_report.txt").read_text()
    assert first != second
    assert "seed: 6" in second


def test_simulate_stealthy_rie_scenario(tmp_path, capsys):
    # suppression ratio 0.2 on a flat 23.3 ns curve: QBER settles near
    # 0.2/2.4 = 0.0833, under the 0.11 abort threshold
    config = write_config(tmp_path, {
        "seed": 12,
        "out": str(tmp_path / "results"),
        "dead_time_curve": {"table": [[0.0, 23.3e-9], [100e6, 23.3e-9]]},
        "protocol": {"n_rounds": 400000, "p0": 1.0},
        "attack": {"mode": "rie_non_deterministic",
                   "lambda_parallel_cps": 0.0,
                   "lambda_perp_cps": 69072712.0},  # -ln(0.2)/23.3e-9
    })
    assert main(["--config", str(config), "simulate"]) == 0
    report = (tmp_path / "results" / "simulation_report.txt").read_text()
    qber = float(report.split("qber_observed: ")[1].splitlines()[0])
    assert abs(qber - 0.2 / 2.4) < 0.005
    assert "abort: false" in report


def test_analytic_reports_closed_forms(tmp_path, capsys):
    config = write_config(tmp_path, {
        "out": str(tmp_path / "results"),
        "protocol": {"n_rounds": 1, "p0": 1.0},
        "attack": {"mode": "rie_deterministic", "delta_s": 1e-8},
    })
    assert main(["--config", str(config), "analytic"]) == 0
    text = (tmp_path / "results" / "analytic.txt").read_text()
    assert "r: 0.0" in text
    assert "stealthy: true" in text
    assert "i_ae_sifted: 1.0" in text
    assert "e_obs: 0.0" in text


@pytest.mark.parametrize("attack", [{"attack": {"mode": "none"}}, {}])
def test_analytic_without_attack_exits_2(tmp_path, capsys, attack):
    config = write_config(tmp_path, {"out": str(tmp_path / "results"),
                                     "protocol": {"n_rounds": 1000, "p0": 0.9}, **attack})
    assert main(["--config", str(config), "analytic"]) == 2
    assert "error: analytic needs an attack: attack.mode is 'none'\n" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_analytic_reads_protocol_section(tmp_path):
    config = write_config(tmp_path, {
        "out": str(tmp_path / "results"),
        "protocol": {"n_rounds": 1, "p0": 0.9, "transmission": 0.5,
                     "abort_threshold": 0.2, "availability_model": "linear_bound"},
        "attack": {"mode": "intercept_resend"},
    })
    assert main(["--config", str(config), "analytic"]) == 0
    text = (tmp_path / "results" / "analytic.txt").read_text()
    assert "p_parallel: 0.45\n" in text and "p_perp: 0.45\n" in text
    assert "e_abort: 0.2\n" in text


@pytest.mark.parametrize("protocol", [None, {"n_rounds": 10}, {"n_rounds": 10, "p0": 1.5}])
def test_analytic_rejects_bad_protocol_section(tmp_path, capsys, protocol):
    data = {"out": str(tmp_path / "results"), "attack": {"mode": "intercept_resend"}}
    if protocol is not None:
        data["protocol"] = protocol
    assert main(["--config", str(write_config(tmp_path, data)), "analytic"]) == 2
    assert "protocol" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def _key_values(path):
    return dict(line.split(": ", 1) for line in path.read_text().splitlines() if ": " in line)


def test_readme_example_scenario_runs_and_agrees(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    config = write_config(tmp_path, json.loads(example))
    out = tmp_path / "results"
    assert main(["--config", str(config), "--out", str(out), "analytic"]) == 0
    assert main(["--config", str(config), "--out", str(out), "simulate"]) == 0
    expected = float(_key_values(out / "analytic.txt")["e_obs"])
    report = _key_values(out / "simulation_report.txt")
    sigma = math.sqrt(expected * (1.0 - expected) / int(report["n_sifted"]))
    assert abs(float(report["qber_observed"]) - expected) < 4.0 * sigma


README_ATTACK = {
    "seed": 7,
    "protocol": {"n_rounds": 1000000, "p0": 0.9, "abort_threshold": 0.11},
    "attack": {"mode": "rie_non_deterministic", "lambda_parallel_cps": 1e6,
               "lambda_perp_cps": 25e6},
}
FIXED_BIASED = {
    "seed": 3,
    "protocol": {"n_rounds": 1000000, "p0": 0.85, "basis_prior": 0.7, "fixed_alice": ["X", 1],
                 "background_rate_cps": 1e6, "transmission": 0.8,
                 "availability_model": "linear_bound"},
    "attack": {"mode": "rie_non_deterministic", "lambda_perp_cps": 20e6, "eve_basis_prior": 0.3},
}
# sha256 of (simulation_report.txt, simulation_branches.csv): every simulate
# output follows from the round law and the seed, so a change here is a
# behaviour change
SIMULATE_PINS = {
    "readme attack": (README_ATTACK, (
        "446dbeae5ce560c13749a3db5f6a837d616fc1b8ad48fb0ec8cf2f8f8d2bb371",
        "bcf1bd629cb307c41c8dfff5549d03d9f312258b1a3dee5b4012c97c1d7014a4")),
    "fixed X1, biased priors": (FIXED_BIASED, (
        "670b7de69ecbb3bc37239579a905ea9d6ca934cffffe039dc0110fc6b90ac9dc",
        "4ba88154d06f1b9426ccc01d0aee7e589e940d992c427500ba83e582d4f14e19")),
}


@pytest.mark.parametrize("name", list(SIMULATE_PINS))
def test_simulate_bytes_are_pinned(tmp_path, name):
    data, digests = SIMULATE_PINS[name]
    out = tmp_path / "results"
    assert main(["--config", str(write_config(tmp_path, data)), "--out", str(out), "simulate"]) == 0
    files = ("simulation_report.txt", "simulation_branches.csv")
    assert tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files) == digests


SWEEP_RATES = [1e6, 5e6, 20e6, 40e6]
# sha256 of (deadtime_sweep.csv, busy_fraction.csv, stdout): the fixed point
# of every rate decides these bytes, so a change here is a behaviour change
SWEEP_PINS = {
    "readme sweep": ({"seed": 7, "dead_time_curve": {"default": True},
                      "sweep": {"rates_cps": SWEEP_RATES, "duration_s": 0.05}}, (
        "ee9ff4091c73f8dcfadf74c307fad3a60c9be3afc502f117f6fc7cf3e4a7542f",
        "12079dd3b50a8e63b7666c4aaef7d8edb306069d3083495ea20cb859ffb2f12b",
        "77bc5bc43c10a9dbc3cb728fed60dd6f11fa6197e1661f47bdd4d81e614b8280")),
    # the benchmark's sweep scenario at its tiny size, seed 1
    "bench sweep, tiny": ({"seed": 923725081, "dead_time_curve": {"default": True},
                           "sweep": {"rates_cps": SWEEP_RATES, "duration_s": 0.01,
                                     "bin_width_s": 5e-10}}, (
        "98640bb2f315cf1ac0bfc8405791c937b1ad3a4022f5d15cf6b37278d3561fee",
        "2d3d8cc1f7ad4231c1c113079dd4f8257b66304e3841608e5485fc680255fd16",
        "0324573bc2fd40b74213401cda134b5671ab8a9b19d98a0c57bca713ea49c2b5")),
}


@pytest.mark.parametrize("name", list(SWEEP_PINS))
def test_sweep_deadtime_bytes_are_pinned(tmp_path, capsys, name):
    data, digests = SWEEP_PINS[name]
    out = tmp_path / "results"
    config = write_config(tmp_path, data)
    assert main(["--config", str(config), "--out", str(out), "sweep-deadtime"]) == 0
    outputs = [(out / f).read_bytes() for f in ("deadtime_sweep.csv", "busy_fraction.csv")]
    outputs.append(capsys.readouterr().out.encode())
    assert tuple(hashlib.sha256(blob).hexdigest() for blob in outputs) == digests


def test_stealth_scan_csv(tmp_path, base_config):
    assert main(["--config", str(base_config), "stealth-scan"]) == 0
    lines = (tmp_path / "results" / "stealth_scan.csv").read_text().splitlines()
    assert lines[1] == "lambda_par_cps,lambda_perp_cps,r_bound,stealthy"
    assert len(lines) == 32  # metadata + header + 30 rows
    assert any(line.endswith("true") for line in lines[2:])


def test_mutualinfo_csv(tmp_path, base_config):
    assert main(["--config", str(base_config), "mutualinfo"]) == 0
    lines = (tmp_path / "results" / "mutual_info.csv").read_text().splitlines()
    assert lines[0].startswith("# r_threshold=0.282")
    assert lines[1] == "r,i_ab,i_ae"
    assert len(lines) == 13  # 0.0 .. 1.0 in steps of 0.1


def test_sweep_deadtime_outputs(tmp_path, base_config):
    assert main(["--config", str(base_config), "sweep-deadtime"]) == 0
    sweep = (tmp_path / "results" / "deadtime_sweep.csv").read_text().splitlines()
    busy = (tmp_path / "results" / "busy_fraction.csv").read_text().splitlines()
    assert sweep[0] == "lambda_obs_cps,t_d_est_s"
    assert busy[0] == "lambda_obs_cps,busy_fraction"
    assert len(sweep) == 2 and len(busy) == 2
    lam, t_d = (float(x) for x in sweep[1].split(","))
    lam_b, fraction = (float(x) for x in busy[1].split(","))
    assert lam_b == lam
    assert fraction == pytest.approx(lam * t_d, rel=1e-12)


def test_deadtime_extract_recovers_known_dead_time(tmp_path, base_config):
    stream = generate_poisson_stream(50e6, 0.005, seed=3)
    filtered = apply_dead_time(stream, constant_dead_time_s=23.3e-9)
    tags = tmp_path / "tags.txt"
    write_timestamps(filtered, tags)
    assert main(["--config", str(base_config), "deadtime-extract", str(tags)]) == 0
    report = (tmp_path / "results" / "deadtime_extract.txt").read_text()
    estimate = float(report.split("dead_time_estimate_s: ")[1])
    assert abs(estimate - 23.3e-9) <= 0.5e-9
    hist = (tmp_path / "results" / "deadtime_extract_histogram.csv").read_text().splitlines()
    assert hist[0] == "bin_lower_edge_s,count"


def test_deadtime_extract_empty_file_fails(tmp_path, base_config, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["--config", str(base_config), "deadtime-extract", str(empty)]) == 1
    assert "insufficient data" in capsys.readouterr().err


def test_deadtime_extract_malformed_line_names_line(tmp_path, base_config, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("100\n200\noops\n")
    assert main(["--config", str(base_config), "deadtime-extract", str(bad)]) == 1
    assert "line 3" in capsys.readouterr().err


def test_deadtime_extract_negative_tick_names_line(tmp_path, base_config, capsys):
    bad = tmp_path / "neg.txt"
    bad.write_text("-5\n10\n20\n")
    assert main(["--config", str(base_config), "deadtime-extract", str(bad)]) == 1
    assert f"error: {bad}: negative timestamp at line 1: '-5'\n" in capsys.readouterr().err


def test_deadtime_extract_huge_tick_names_line(tmp_path, base_config, capsys):
    # 400 digits: int() reads it, float() would overflow
    bad = tmp_path / "huge.txt"
    bad.write_text("1\n" + "2" * 400 + "\n")
    assert main(["--config", str(base_config), "deadtime-extract", str(bad)]) == 1
    assert (f"error: {bad}: timestamp at line 2 is too large (400 characters)\n"
            in capsys.readouterr().err)


@pytest.mark.parametrize("raw, message", [
    (b"1\n\xff\n", "line 2: '\\udcff'"),
    (b"\xff1\n2\n", "line 1: '\\udcff1'"),
    # CRLF and CR end one line each, as text mode reads them
    (b"1\r\n2\r3\n4\xc3", "line 4: '4\\udcc3'"),
    # the first bad line is named, decodable or not
    (b"1\nabc\n\xff\n", "line 2: 'abc'"),
])
def test_deadtime_extract_undecodable_byte_names_line(tmp_path, base_config, capsys, raw,
                                                      message):
    bad = tmp_path / "bytes.txt"
    bad.write_bytes(raw)
    assert main(["--config", str(base_config), "deadtime-extract", str(bad)]) == 1
    assert f"error: {bad}: malformed timestamp at {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--bin-width", "0"], "--bin-width must be > 0, got 0.0"),
    (["--bin-width", "nan"], "--bin-width must be a finite number, got nan"),
    (["--max-gap", "0"], "--max-gap must be > 0, got 0.0"),
    (["--max-gap", "inf"], "--max-gap must be a finite number, got inf"),
    (["--min-count", "0"], "--min-count must be >= 1, got 0"),
    (["--max-gap", "1e300"], "--max-gap / --bin-width: the histogram would need inf bins, "
                              "more than the limit of 1048576"),
    (["--max-gap", "10", "--bin-width", "1e-12"], "--max-gap / --bin-width: the histogram "
                                                  "would need 1e+13 bins, more than the limit "
                                                  "of 1048576"),
])
def test_deadtime_extract_flag_overrides_exit_2(tmp_path, base_config, capsys, flags, message):
    # the overrides meet the loader's conditions on the sweep section
    tags = tmp_path / "tags.txt"
    tags.write_text("0\n1000\n2000\n")
    assert main(["--config", str(base_config), "deadtime-extract", *flags, str(tags)]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_invalid_config_fails_before_any_output(tmp_path, capsys):
    config = write_config(tmp_path, {"out": str(tmp_path / "results"), "nope": 1})
    assert main(["--config", str(config), "simulate"]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_simulate_without_protocol_section_fails(tmp_path, capsys):
    config = write_config(tmp_path, {"out": str(tmp_path / "results")})
    assert main(["--config", str(config), "simulate"]) == 2
    assert "protocol" in capsys.readouterr().err


def test_runs_without_config_file(tmp_path):
    # every command except simulate has usable defaults
    assert main(["--out", str(tmp_path), "mutualinfo"]) == 0
    assert (tmp_path / "mutual_info.csv").exists()


def test_simulate_accepts_integral_float_rounds(tmp_path, capsys):
    config = write_config(tmp_path, {"out": str(tmp_path / "results"),
                                     "protocol": {"n_rounds": 1e5, "p0": 1.0}})
    assert main(["--config", str(config), "simulate"]) == 0
    assert "rounds=100000 " in capsys.readouterr().out
    assert "n_rounds: 100000\n" in (tmp_path / "results" / "simulation_report.txt").read_text()


@pytest.mark.parametrize("data, key", [
    ({"protocol": {"n_rounds": True, "p0": 1.0}}, "protocol.n_rounds"),
    ({"seed": "x", "protocol": {"n_rounds": 100, "p0": 1.0}}, "seed"),
    ({"seed": 1.7, "protocol": {"n_rounds": 100, "p0": 1.0}}, "seed"),
])
def test_simulate_rejects_non_integer_fields(tmp_path, capsys, data, key):
    config = write_config(tmp_path, {"out": str(tmp_path / "results"), **data})
    assert main(["--config", str(config), "simulate"]) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("command, data, key", [
    ("mutualinfo", {"mutualinfo": {"r_step": "x"}}, "mutualinfo.r_step"),
    ("stealth-scan", {"scan": {"e_abort": "x"}}, "scan.e_abort"),
    ("sweep-deadtime", {"sweep": {"duration_s": "x"}}, "sweep.duration_s"),
])
def test_non_number_fields_exit_2(tmp_path, capsys, command, data, key):
    config = write_config(tmp_path, {"out": str(tmp_path / "results"), **data})
    assert main(["--config", str(config), command]) == 2
    assert f"{key} must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


RIE = {"mode": "rie_non_deterministic", "lambda_perp_cps": 25e6}


@pytest.mark.parametrize("command, data, message", [
    ("stealth-scan", {"protocol": {"n_rounds": 10, "p0": 2}},
     "invalid protocol section: p0 must be in (0, 1], got 2.0"),
    ("analytic", {"protocol": {"n_rounds": 10, "p0": 0.9, "background_rate_cps": math.nan},
                  "attack": RIE}, "protocol.background_rate_cps must be a finite number"),
    ("analytic", {"protocol": {"n_rounds": 10, "p0": 0.9},
                  "attack": dict(RIE, lambda_perp_cps=math.inf)},
     "attack.lambda_perp_cps must be a finite number"),
    ("analytic", {"protocol": {"n_rounds": 10, "p0": 0.9},
                  "attack": {"mode": "rie_deterministic", "delta_s": math.nan}},
     "attack.delta_s must be a finite number"),
    ("analytic", {"protocol": {"n_rounds": 10, "p0": True}, "attack": RIE},
     "protocol.p0 must be a finite number"),
    ("simulate", {"protocol": {"n_rounds": 10, "p0": 0.9, "fixed_alice": ["Z", 1.5]},
                  "attack": RIE}, "protocol.fixed_alice[1] must be an integer"),
    ("stealth-scan", {"dead_time_curve": {"table": [[0, 1e-8], [1e6, math.nan]]}},
     "invalid dead_time_curve: curve rates and dead times must be finite"),
    ("analytic", {"dead_time_curve": {"csv": "curve.csv"},
                  "protocol": {"n_rounds": 10, "p0": 0.9}, "attack": RIE},
     "invalid dead_time_curve: curve rates and dead times must be finite"),
])
def test_bad_protocol_attack_or_curve_exits_2(tmp_path, capsys, command, data, message):
    (tmp_path / "curve.csv").write_text("lambda_cps,t_d_seconds\n0,nan\n")
    config = write_config(tmp_path, {"out": str(tmp_path / "results"), **data})
    assert main(["--config", str(config), command]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("data, where", [
    ({"sweep": 5}, "sweep"),
    ({"scan": {"lambda_perp_grid": [1, 2]}}, "scan.lambda_perp_grid"),
])
def test_non_object_section_exits_2(tmp_path, capsys, data, where):
    config = write_config(tmp_path, {"out": str(tmp_path / "results"), **data})
    assert main(["--config", str(config), "mutualinfo"]) == 2
    assert f"{where} must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("command, data, key", [
    ("sweep-deadtime", {"sweep": {"duration_s": -1}}, "sweep.duration_s"),
    ("sweep-deadtime", {"sweep": {"bin_width_s": 0}}, "sweep.bin_width_s"),
    ("stealth-scan", {"scan": {"e_abort": 0.7}}, "scan.e_abort"),
    ("stealth-scan", {"scan": {"lambda_par_cps": [-1e6]}}, "scan.lambda_par_cps[0]"),
    ("stealth-scan", {"scan": {"lambda_perp_grid": {"start_cps": -1, "stop_cps": 1e6, "num": 2}}},
     "scan.lambda_perp_grid.start_cps"),
    ("mutualinfo", {"mutualinfo": {"e_abort": 0.7}}, "mutualinfo.e_abort"),
    # a bad value fails every command, not only the one that reads it
    ("mutualinfo", {"sweep": {"duration_s": -1}}, "sweep.duration_s"),
    ("mutualinfo", {"scan": {"e_abort": 0.7}}, "scan.e_abort"),
    ("stealth-scan", {"scan": {"lambda_perp_grid": {"start_cps": 0, "stop_cps": 1, "num": 1e12}}},
     "scan.lambda_perp_grid.num"),
    ("mutualinfo", {"mutualinfo": {"r_step": 1e-15}}, "mutualinfo.r_step"),
])
def test_out_of_range_values_exit_2(tmp_path, capsys, command, data, key):
    config = write_config(tmp_path, {"out": str(tmp_path / "results"), **data})
    assert main(["--config", str(config), command]) == 2
    assert f"error: {key} must be " in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("command, data, message", [
    ("sweep-deadtime", {"sweep": {"rates_cps": [1e6, 1e12], "duration_s": 1}},
     "sweep.rates_cps[1] * sweep.duration_s: the stream would hold 1e+12 events"),
    ("stealth-scan", {"scan": {"lambda_par_cps": [1e6] * 3000,
                               "lambda_perp_grid": {"start_cps": 0, "stop_cps": 1, "num": 1500}}},
     "scan.lambda_par_cps x scan.lambda_perp_cps: the scan would have 4500000 cells"),
])
def test_stream_and_scan_caps_exit_2(tmp_path, capsys, command, data, message):
    config = write_config(tmp_path, {"out": str(tmp_path / "results"), **data})
    assert main(["--config", str(config), command]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()
