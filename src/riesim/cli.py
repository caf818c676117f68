"""Scenario runner: every capability behind one executable.

Subcommands: deadtime-extract, sweep-deadtime, simulate, analytic,
stealth-scan, mutualinfo.  Configuration comes from one JSON scenario file
(--config); --seed/--out flags override the file, and --workers is accepted
for compatibility and has no effect.  Every command is deterministic per
(config, seed) and emits plot-ready CSV rather than rendered figures.  Where
the process may run on two CPUs, stealth-scan formats the later half of its
CSV rows in one forked child and sweep-deadtime fills its draws on a second
thread; the bytes are the same.  deadtime-extract runs on one thread.
Exit codes: 0 on success, 2 for configuration/validation failures (raised
before any computation), 1 for data-level errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from . import analysis, timetag
from .adversary import AttackMode, branch_click_probabilities, effective_r
from .detector import DeadTimeCurve, busy_fraction
from .protocol import run_simulation
from .scenario import (ScenarioConfig, ScenarioError, check_histogram, check_seed,
                       load_scenario)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riesim",
        description="Recovery-induced erasure attack simulator and analysis toolkit",
    )
    parser.add_argument("--config", type=Path, default=None, help="scenario JSON file")
    parser.add_argument("--seed", type=int, default=None, help="override scenario seed")
    parser.add_argument("--out", type=Path, default=None, help="override output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted for compatibility; has no effect")
    sub = parser.add_subparsers(dest="command", required=True)

    extract = sub.add_parser(
        "deadtime-extract",
        help="estimate dead time from a timestamp file (integer picoseconds per line)",
    )
    extract.add_argument("timestamps", type=Path, help="timestamp file to analyze")
    extract.add_argument("--bin-width", type=float, default=None, help="histogram bin width [s]")
    extract.add_argument("--max-gap", type=float, default=None, help="largest gap histogrammed [s]")
    extract.add_argument("--min-count", type=int, default=None, help="counts defining the onset bin")

    sub.add_parser("sweep-deadtime", help="recover t_d(lambda) from synthetic streams")
    sub.add_parser("simulate", help="run the Monte Carlo protocol simulation")
    sub.add_parser("analytic", help="evaluate the closed forms for the configured attack")
    sub.add_parser("stealth-scan", help="conservative bound over the loading-rate grid")
    sub.add_parser("mutualinfo", help="information curves I(A;B), I(A;E) versus r")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses: built on the first call, not at import, and
    reused by every later call in the process.  parse_args keeps no state
    between calls, and nothing else is cached: each call re-reads its
    scenario file."""
    return build_parser()


def _outdir(scenario: ScenarioConfig, args) -> Path:
    out = args.out if args.out is not None else Path(scenario.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_deadtime_extract(scenario: ScenarioConfig, args) -> int:
    sweep = scenario.sweep
    bin_width = args.bin_width if args.bin_width is not None else sweep.bin_width_s
    max_gap = args.max_gap if args.max_gap is not None else sweep.max_gap_s
    min_count = args.min_count if args.min_count is not None else sweep.min_count
    # the scenario values passed this check at load; a failure names a flag
    check_histogram(bin_width, max_gap, min_count, ("--bin-width", "--max-gap", "--min-count"))
    n_timestamps, duration_s, hist = timetag.read_interarrival_histogram(
        args.timestamps, bin_width, max_gap)
    out = _outdir(scenario, args)
    # written before the estimate, so a histogram with no onset bin is left
    # to show why the estimate failed
    hist.write_csv(out / "deadtime_extract_histogram.csv")
    estimate = timetag.estimate_dead_time(hist, min_count)
    report = (
        f"n_timestamps: {n_timestamps}\n"
        f"observed_rate_cps: {n_timestamps / duration_s!r}\n"
        f"bin_width_s: {bin_width!r}\n"
        f"min_count: {min_count}\n"
        f"dead_time_estimate_s: {estimate!r}\n"
    )
    (out / "deadtime_extract.txt").write_text(report)
    print(report, end="")
    return 0


def cmd_sweep_deadtime(scenario: ScenarioConfig, args) -> int:
    sweep = scenario.sweep
    points = timetag.sweep_dead_time(
        sweep.rates_cps,
        scenario.curve,
        sweep.duration_s,
        sweep.bin_width_s,
        scenario.seed,
        max_gap_s=sweep.max_gap_s,
        min_count=sweep.min_count,
    )
    # every busy fraction before either file: an estimate the curve rejects
    # (an onset of 0 s) fails the command with no output written
    busy = [busy_fraction(pt.lambda_obs_cps,
                          DeadTimeCurve.from_points([(pt.lambda_obs_cps, pt.dead_time_est_s)]))
            for pt in points]
    out = _outdir(scenario, args)
    timetag.write_sweep_csv(points, out / "deadtime_sweep.csv")
    with (out / "busy_fraction.csv").open("w") as fh:
        fh.write("lambda_obs_cps,busy_fraction\n")
        for pt, fraction in zip(points, busy):
            fh.write(f"{pt.lambda_obs_cps!r},{fraction!r}\n")
    for pt in points:
        print(f"lambda_obs={pt.lambda_obs_cps:.6g} cps  t_d={pt.dead_time_est_s:.4g} s")
    return 0


def cmd_simulate(scenario: ScenarioConfig, args) -> int:
    report = run_simulation(scenario.protocol_config(), scenario.attack)
    out = _outdir(scenario, args)
    report.write_text(out / "simulation_report.txt")
    if report.per_branch_stats is not None:
        report.write_branch_csv(out / "simulation_branches.csv")
    qber = "none" if report.qber_observed is None else f"{report.qber_observed:.6f}"
    print(
        f"rounds={report.n_rounds} sifted={report.n_sifted} "
        f"qber={qber} abort={str(report.abort).lower()}"
    )
    return 0


def cmd_analytic(scenario: ScenarioConfig, args) -> int:
    config = scenario.protocol_config()
    if scenario.attack.mode is AttackMode.NONE:
        # r = p_perp / p_parallel is defined only for an attack
        raise ScenarioError("analytic needs an attack: attack.mode is 'none'")
    e_abort = config.abort_threshold
    p_par, p_perp = branch_click_probabilities(config, scenario.attack)
    ratio = effective_r(config, scenario.attack)
    qber = analysis.e_obs(ratio)
    threshold = analysis.r_threshold(e_abort)
    lines = [
        f"p_parallel: {p_par!r}",
        f"p_perp: {p_perp!r}",
        f"r: {ratio!r}",
        f"e_obs: {qber!r}",
        f"e_abort: {e_abort!r}",
        f"r_threshold: {threshold!r}",
        f"stealthy: {str(ratio < threshold).lower()}",
        f"sift_probability: {analysis.sift_probability(p_par, p_perp)!r}",
        f"erasure_probability: {1.0 - (p_par + p_perp) / 2.0!r}",
        f"i_ae_sifted: {analysis.mutual_info_eve_sifted(ratio)!r}",
        f"i_ab_sifted: {analysis.mutual_info_bob_sifted(ratio)!r}",
    ]
    text = "\n".join(lines) + "\n"
    out = _outdir(scenario, args)
    (out / "analytic.txt").write_text(text)
    print(text, end="")
    return 0


def cmd_stealth_scan(scenario: ScenarioConfig, args) -> int:
    scan = scenario.scan
    result = analysis.stealth_scan(
        scan.lambda_par_cps, scan.lambda_perp_cps, scenario.curve, scan.e_abort
    )
    out = _outdir(scenario, args)
    analysis.write_stealth_csv(result, out / "stealth_scan.csv")
    n_stealthy = int(result.stealthy.sum())
    n_invalid = int(result.valid.size - result.valid.sum())
    print(f"rows={len(result)} stealthy={n_stealthy} saturated={n_invalid}")
    return 0


def cmd_mutualinfo(scenario: ScenarioConfig, args) -> int:
    settings = scenario.mutualinfo
    triples = analysis.mutual_info_curve(settings.grid())
    out = _outdir(scenario, args)
    analysis.write_mutual_info_csv(triples, out / "mutual_info.csv", settings.e_abort)
    print(f"rows={len(triples)} r_threshold={analysis.r_threshold(settings.e_abort)!r}")
    return 0


_COMMANDS = {
    "deadtime-extract": cmd_deadtime_extract,
    "sweep-deadtime": cmd_sweep_deadtime,
    "simulate": cmd_simulate,
    "analytic": cmd_analytic,
    "stealth-scan": cmd_stealth_scan,
    "mutualinfo": cmd_mutualinfo,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        if args.seed is not None:
            check_seed(args.seed, "--seed")
            scenario = replace(scenario, seed=args.seed)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](scenario, args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
