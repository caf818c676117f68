"""Workload definitions: scenario inputs, CLI argv per op, and output checks.

Each workload is one closed-loop client calling ``riesim.cli.main`` on a
scenario this module writes from the benchmark seed.  The program only ever
sees the generated scenario, the generated timestamp file and ``--seed``.

The checks are written against the file formats the CLI documents, not
against the package's own functions, so a defect in the package cannot make
its own output look correct.  The truth curve below is the default
dead-time table the scenarios select with ``{"default": true}``; if the
package's default curve changes, the sweep check fails, which is the point.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BIN_WIDTH_S = 0.5e-9
E_ABORT = 0.11
EXTRACT_DEAD_TIME_S = 26.6e-9

# Default dead-time anchors (rate cps, dead time s), held here as the oracle.
TRUTH_CURVE = (
    (0.0, 23.3e-9), (2.0e6, 23.3e-9), (4.0e6, 24.0e-9), (8.0e6, 26.6e-9),
    (12.0e6, 28.8e-9), (16.0e6, 30.2e-9), (20.0e6, 31.0e-9), (25.0e6, 31.5e-9),
    (60.0e6, 31.5e-9),
)


def truth_dead_time(rate_cps: float) -> float:
    rates, times = zip(*TRUTH_CURVE)
    return float(np.interp(rate_cps, rates, times))


def derived_seed(seed: int, stream: int) -> int:
    """A 32-bit seed for one use of the benchmark seed (op index or input)."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def op_seed(seed: int, index: int) -> int:
    return derived_seed(seed, index)


def tags_seed(seed: int) -> int:
    return derived_seed(seed, 1_000_000)


def import_cli(root: Path):
    """Import ``riesim.cli`` from the checkout's ``src``, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import riesim.cli

    if src not in Path(riesim.cli.__file__).resolve().parents:
        raise ImportError(f"riesim was imported from {riesim.cli.__file__}, not from {src}")
    return riesim.cli


# --- sizes ---------------------------------------------------------------

@dataclass(frozen=True)
class Size:
    sweep_duration_s: float
    extract_duration_s: float
    n_rounds: int
    scan_par: int
    scan_perp: int
    r_step: float


SIZES = {
    # The sizes the workloads are defined at (see README.md).
    "full": Size(0.05, 0.1, 20_000_000, 100, 2000, 1e-4),
    # Self-test only: same code paths, a fraction of a second per op.
    "tiny": Size(0.01, 0.005, 200_000, 5, 40, 1e-2),
}

SWEEP_RATES_CPS = (1e6, 5e6, 20e6, 40e6)
EXTRACT_RATE_CPS = 20e6


def scenario(workload: str, seed: int, size: Size) -> dict:
    """The scenario JSON for one workload; the same seed gives the same file."""
    data = {
        "seed": derived_seed(seed, 2_000_000),
        "out": "out",
        "workers": 1,
        "dead_time_curve": {"default": True},
        "sweep": {"rates_cps": list(SWEEP_RATES_CPS), "duration_s": size.sweep_duration_s,
                  "bin_width_s": BIN_WIDTH_S},
    }
    if workload == "attack":
        data["protocol"] = {"n_rounds": size.n_rounds, "p0": 0.9, "abort_threshold": E_ABORT,
                            "availability_model": "exponential"}
        data["attack"] = {"mode": "rie_non_deterministic", "lambda_parallel_cps": 1e6,
                          "lambda_perp_cps": 25e6}
    if workload == "scan":
        data["scan"] = {
            "lambda_par_cps": [0.5e6 + 0.05e6 * i for i in range(size.scan_par)],
            "lambda_perp_grid": {"start_cps": 0.5e6, "stop_cps": 31e6, "num": size.scan_perp},
            "e_abort": E_ABORT,
        }
        data["mutualinfo"] = {"r_start": 0.0, "r_stop": 1.0, "r_step": size.r_step,
                              "e_abort": E_ABORT}
    return data


def write_inputs(workload: str, seed: int, size: Size, directory: Path) -> None:
    """Write the scenario (and, for extract, the timestamp file) and load the
    scenario through the package, as a user's first command would."""
    from riesim import timetag
    from riesim.scenario import load_scenario

    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "scenario.json"
    path.write_text(json.dumps(scenario(workload, seed, size), indent=1))
    load_scenario(path)
    if workload == "extract":
        stream = timetag.generate_poisson_stream(
            EXTRACT_RATE_CPS, size.extract_duration_s, tags_seed(seed))
        kept = timetag.apply_dead_time(stream, constant_dead_time_s=EXTRACT_DEAD_TIME_S)
        timetag.write_timestamps(kept, directory / "tags.txt")


# --- ops -------------------------------------------------------------------

COMMANDS = {
    "sweep": (("sweep-deadtime",),),
    "extract": (("deadtime-extract", "{tags}"),),
    "attack": (("simulate",), ("analytic",)),
    "scan": (("stealth-scan",), ("mutualinfo",)),
}

WORKLOADS = tuple(COMMANDS)


def argvs(workload: str, directory: Path, seed: int, outdir: Path) -> list[list[str]]:
    """The CLI argument lists one op runs, in order."""
    common = ["--config", str(directory / "scenario.json"), "--seed", str(seed),
              "--out", str(outdir)]
    tags = str(directory / "tags.txt")
    return [common + [part.format(tags=tags) for part in cmd] for cmd in COMMANDS[workload]]


def items_per_op(workload: str, size: Size, context: dict) -> int:
    """Work units in one op: raw events, timestamps parsed, rounds, or cells
    plus r points."""
    if workload == "sweep":
        return round(sum(SWEEP_RATES_CPS) * size.sweep_duration_s)
    if workload == "extract":
        return context["tag_lines"]
    if workload == "attack":
        return size.n_rounds
    n_r = int(round(1.0 / size.r_step)) + 1
    return size.scan_par * size.scan_perp + n_r


def prepare_context(workload: str, directory: Path, size: Size) -> dict:
    """Facts about the inputs the checks need, measured from the files."""
    context = {}
    if workload == "extract":
        with (directory / "tags.txt").open("rb") as fh:
            context["tag_lines"] = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return context


# --- checks ----------------------------------------------------------------

def _key_values(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        if ": " in line and not line.startswith(" "):
            key, value = line.split(": ", 1)
            out[key] = value
    return out


def _csv_rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def check_sweep(outdir: Path, size: Size, context: dict) -> list[str]:
    rows = _csv_rows(outdir / "deadtime_sweep.csv")
    if rows[0] != ["lambda_obs_cps", "t_d_est_s"] or len(rows) != 1 + len(SWEEP_RATES_CPS):
        return [f"deadtime_sweep.csv: expected header and {len(SWEEP_RATES_CPS)} rows"]
    points = [(float(a), float(b)) for a, b in rows[1:]]
    problems = []
    for lam, est in points:
        truth = truth_dead_time(lam)
        if abs(est - truth) > max(BIN_WIDTH_S, 0.03 * truth):
            problems.append(f"sweep point at {lam:.4g} cps: {est!r} vs truth {truth!r}")
    low = min(points)
    high = max(points)
    if not high[1] > low[1]:
        problems.append("sweep estimates do not rise from the lowest rate to the highest")
    busy = _csv_rows(outdir / "busy_fraction.csv")
    if len(busy) != 1 + len(SWEEP_RATES_CPS):
        problems.append("busy_fraction.csv: wrong row count")
    return problems


def check_extract(outdir: Path, size: Size, context: dict) -> list[str]:
    report = _key_values(outdir / "deadtime_extract.txt")
    problems = []
    if int(report["n_timestamps"]) != context["tag_lines"]:
        problems.append(f"n_timestamps {report['n_timestamps']} != {context['tag_lines']} lines")
    estimate = float(report["dead_time_estimate_s"])
    if not EXTRACT_DEAD_TIME_S - BIN_WIDTH_S - 1e-18 <= estimate <= EXTRACT_DEAD_TIME_S + 1e-18:
        problems.append(f"dead-time estimate {estimate!r} outside [26.6 ns - 1 bin, 26.6 ns]")
    hist = _csv_rows(outdir / "deadtime_extract_histogram.csv")
    if len(hist) < 2:
        problems.append("histogram CSV is empty")
    return problems


def e_obs(r: float) -> float:
    return r / (2.0 * (1.0 + r))


def read_attack(outdir: Path) -> dict:
    report = _key_values(outdir / "simulation_report.txt")
    rows = _csv_rows(outdir / "simulation_branches.csv")
    analytic = _key_values(outdir / "analytic.txt")
    return {"report": report, "branches": rows, "analytic": analytic}


def check_attack(outdir: Path, size: Size, context: dict) -> list[str]:
    data = read_attack(outdir)
    report, rows, analytic = data["report"], data["branches"], data["analytic"]
    problems = []
    n = {k: int(report[k]) for k in ("n_rounds", "n_clicks", "n_sifted", "n_errors")}
    if n["n_rounds"] != size.n_rounds:
        problems.append(f"n_rounds {n['n_rounds']} != {size.n_rounds}")
    if not n["n_errors"] <= n["n_sifted"] <= n["n_clicks"] <= n["n_rounds"]:
        problems.append(f"counts out of order: {n}")
    header, body = rows[0], rows[1:]
    if len(body) != 8:
        return problems + [f"simulation_branches.csv: {len(body)} branch rows, expected 8"]
    col = {name: i for i, name in enumerate(header)}
    if sum(int(r[col["n_rounds"]]) for r in body) != n["n_rounds"]:
        problems.append("branch n_rounds do not sum to n_rounds")
    aligned = [r for r in body if r[col["eve_basis"]] == r[col["bob_basis"]]]
    orth = [r for r in body if r[col["eve_basis"]] != r[col["bob_basis"]]]

    def rate(group):
        return sum(int(r[col["n_clicks"]]) for r in group) / sum(int(r[col["n_rounds"]]) for r in group)

    r_hat = rate(orth) / rate(aligned)
    qber = float(report["qber_observed"])
    expected = e_obs(r_hat)
    sigma = math.sqrt(expected * (1.0 - expected) / n["n_sifted"])
    if abs(qber - expected) > 5.0 * sigma:
        problems.append(f"qber {qber!r} is {abs(qber - expected) / sigma:.1f} sigma from "
                        f"e_obs(r_hat={r_hat!r}) = {expected!r}")
    r = float(analytic["r"])
    if not math.isclose(float(analytic["e_obs"]), e_obs(r), rel_tol=1e-12, abs_tol=0.0):
        problems.append(f"analytic e_obs {analytic['e_obs']} != r/(2(1+r)) for r={r!r}")
    return problems


def analytic_gap_sigma(outdir: Path) -> float:
    """Distance between simulate's QBER and analytic's e_obs, in binomial sigma."""
    data = read_attack(outdir)
    qber = float(data["report"]["qber_observed"])
    expected = float(data["analytic"]["e_obs"])
    n_sifted = int(data["report"]["n_sifted"])
    return abs(qber - expected) / math.sqrt(expected * (1.0 - expected) / n_sifted)


def check_scan(outdir: Path, size: Size, context: dict) -> list[str]:
    threshold = 2.0 * E_ABORT / (1.0 - 2.0 * E_ABORT)
    problems = []
    n_rows = 0
    prev_par, prev_bound = None, None
    with (outdir / "stealth_scan.csv").open(newline="") as fh:
        lines = (line for line in fh if not line.startswith("#"))
        reader = csv.reader(lines)
        if next(reader, None) != ["lambda_par_cps", "lambda_perp_cps", "r_bound", "stealthy"]:
            return ["stealth_scan.csv: bad header"]
        for row in reader:
            n_rows += 1
            if len(row) != 4:
                problems.append(f"stealth_scan.csv row {n_rows}: {len(row)} fields")
                break
            par, bound, flag = row[0], float(row[2]), row[3]
            if flag != ("true" if bound < threshold else "false"):
                problems.append(f"stealth_scan.csv row {n_rows}: stealthy={flag} with r_bound={bound!r}")
                break
            if par == prev_par and bound > prev_bound:
                problems.append(f"stealth_scan.csv row {n_rows}: r_bound rises along lambda_perp")
                break
            prev_par, prev_bound = par, bound
    if n_rows != size.scan_par * size.scan_perp and not problems:
        problems.append(f"stealth_scan.csv: {n_rows} rows, expected {size.scan_par * size.scan_perp}")
    info = _csv_rows(outdir / "mutual_info.csv")
    if info[0] != ["r", "i_ab", "i_ae"] or len(info) != 1 + int(round(1.0 / size.r_step)) + 1:
        problems.append("mutual_info.csv: bad header or row count")
    for r, i_ab, i_ae in info[1:]:
        if float(r) < 0.282 and float(i_ae) < float(i_ab):  # the stealth region
            problems.append(f"mutual_info.csv: i_ae < i_ab at r={r}")
            break
    return problems


CHECKS = {
    "sweep": check_sweep,
    "extract": check_extract,
    "attack": check_attack,
    "scan": check_scan,
}


def check(workload: str, outdir: Path, size: Size, context: dict) -> list[str]:
    """Problems found in one op's outputs; an unreadable or missing file is one."""
    try:
        return CHECKS[workload](outdir, size, context)
    except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
