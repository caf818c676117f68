"""Scenario configuration: one JSON file describing a full run.

The file is schema-validated before anything executes; unknown keys are
rejected so a typo cannot silently fall back to a default.  Command-line
flags override the corresponding file values.
"""

from __future__ import annotations

import json
from math import isfinite
from dataclasses import dataclass, field, replace
from pathlib import Path

from .adversary import AttackConfig, AttackMode
from .detector import AvailabilityModel, DeadTimeCurve, default_dead_time_curve
from .protocol import ProtocolConfig
from .quantum import Basis, PolarizationState
from .timetag import (DEFAULT_BIN_WIDTH_S, DEFAULT_MAX_GAP_S, DEFAULT_MIN_COUNT,
                      expected_events, histogram_bins)

__all__ = ["ScenarioConfig", "ScenarioError", "SweepSettings", "ScanSettings",
           "MutualInfoSettings", "check_histogram"]


# the bench scan has 200k cells and its mutualinfo grid 10,001 points; the
# cap keeps a mistyped num or r_step from exhausting memory at load
MAX_GRID_POINTS = 1 << 22


class ScenarioError(ValueError):
    """Configuration file failed validation."""


def _take(section, allowed, where: str) -> None:
    """Reject a section that is not a JSON object or has unknown keys."""
    if not isinstance(section, dict):
        raise ScenarioError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _integer(value, key: str) -> int:
    """An integer-valued JSON number; integral floats such as 1e6 pass."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _number(value, key: str) -> float:
    """A finite JSON number as a float; booleans, strings, null, NaN and
    infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not isfinite(value):
        raise ScenarioError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _numbers(values, key: str) -> tuple[float, ...]:
    """A JSON list of numbers; a bad entry is named by its index."""
    if not isinstance(values, (list, tuple)):
        raise ScenarioError(f"{key} must be a list of numbers, got {values!r}")
    return tuple(_number(v, f"{key}[{i}]") for i, v in enumerate(values))


def _require(ok: bool, key: str, rule: str, value) -> None:
    """Range check of a parsed value; rule reads as "<key> must be <rule>"."""
    if not ok:
        raise ScenarioError(f"{key} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class SweepSettings:
    rates_cps: tuple[float, ...] = (1e6, 5e6, 20e6, 40e6)
    duration_s: float = 0.05
    bin_width_s: float = DEFAULT_BIN_WIDTH_S
    max_gap_s: float = DEFAULT_MAX_GAP_S
    min_count: int = DEFAULT_MIN_COUNT


@dataclass(frozen=True)
class ScanSettings:
    lambda_par_cps: tuple[float, ...] = (1e6, 2e6, 5e6, 10e6)
    lambda_perp_cps: tuple[float, ...] = tuple(0.5e6 * i for i in range(1, 61))
    e_abort: float = 0.11


@dataclass(frozen=True)
class MutualInfoSettings:
    r_start: float = 0.0
    r_stop: float = 1.0
    r_step: float = 0.01
    e_abort: float = 0.11

    def grid(self) -> list[float]:
        values = []
        k = 0
        while True:
            r = self.r_start + k * self.r_step
            if r > self.r_stop + 1e-12:
                break
            values.append(round(r, 12))
            k += 1
        return values


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 1
    out: str = "."
    curve: DeadTimeCurve = field(default_factory=default_dead_time_curve)
    protocol: ProtocolConfig | None = None
    attack: AttackConfig = field(default_factory=AttackConfig)
    sweep: SweepSettings = field(default_factory=SweepSettings)
    scan: ScanSettings = field(default_factory=ScanSettings)
    mutualinfo: MutualInfoSettings = field(default_factory=MutualInfoSettings)

    def protocol_config(self) -> ProtocolConfig:
        """The protocol section, checked at load, with this run's seed."""
        if self.protocol is None:
            raise ScenarioError("protocol section needs at least n_rounds and p0")
        return replace(self.protocol, seed=self.seed)


def _parse_curve(section, base_dir: Path) -> DeadTimeCurve:
    if section is None:
        return default_dead_time_curve()
    _take(section, {"default", "table", "csv"}, "dead_time_curve")
    given = [k for k in ("default", "table", "csv") if section.get(k)]
    if len(given) != 1:
        raise ScenarioError("dead_time_curve needs exactly one of: default, table, csv")
    if given[0] == "default":
        return default_dead_time_curve()
    try:
        if given[0] == "table":
            return DeadTimeCurve.from_points(section["table"])
        return DeadTimeCurve.from_csv(base_dir / section["csv"])
    except (TypeError, ValueError, OSError) as exc:
        raise ScenarioError(f"invalid dead_time_curve: {exc}") from exc


def _fixed_alice(value) -> PolarizationState | None:
    if value is None:
        return None
    rule = f'fixed_alice must be ["Z"|"X", 0|1] or null, got {value!r}'
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(rule)
    bit = _integer(value[1], "protocol.fixed_alice[1]")
    try:
        return PolarizationState(Basis(value[0]), bit)
    except (TypeError, ValueError):
        raise ScenarioError(rule) from None


def _parse_protocol(section, seed: int, curve: DeadTimeCurve) -> ProtocolConfig | None:
    if section is None:
        return None
    allowed = {
        "n_rounds", "p0", "abort_threshold", "basis_prior", "availability_model",
        "transmission", "background_rate_cps", "fixed_alice",
    }
    _take(section, allowed, "protocol")
    if "n_rounds" not in section or "p0" not in section:
        raise ScenarioError("protocol section needs at least n_rounds and p0")
    out = {}
    for key, value in section.items():
        if key == "n_rounds":
            out[key] = _integer(value, "protocol.n_rounds")
        elif key == "availability_model":
            try:
                out[key] = AvailabilityModel(value)
            except ValueError:
                raise ScenarioError(f"unknown availability_model {value!r}") from None
        elif key == "fixed_alice":
            out[key] = _fixed_alice(value)
        else:
            out[key] = _number(value, f"protocol.{key}")
    try:
        return ProtocolConfig(seed=seed, dead_time_curve=curve, **out)
    except ValueError as exc:
        raise ScenarioError(f"invalid protocol section: {exc}") from exc


def _parse_attack(section) -> AttackConfig:
    if section is None:
        return AttackConfig()
    allowed = {"mode", "lambda_parallel_cps", "lambda_perp_cps", "delta_s", "eve_basis_prior"}
    _take(section, allowed, "attack")
    out = {}
    for key, value in section.items():
        if key == "mode":
            try:
                out[key] = AttackMode(value)
            except ValueError:
                raise ScenarioError(f"unknown attack mode {value!r}") from None
        elif not (key == "delta_s" and value is None):
            out[key] = _number(value, f"attack.{key}")
    try:
        return AttackConfig(**out)
    except ValueError as exc:
        raise ScenarioError(f"invalid attack section: {exc}") from exc


def _parse_sweep(section) -> SweepSettings:
    if section is None:
        return SweepSettings()
    allowed = {"rates_cps", "duration_s", "bin_width_s", "max_gap_s", "min_count"}
    _take(section, allowed, "sweep")
    out = {}
    for key, value in section.items():
        if key == "rates_cps":
            out[key] = _numbers(value, "sweep.rates_cps")
            for i, rate in enumerate(out[key]):
                _require(rate > 0, f"sweep.rates_cps[{i}]", "> 0", rate)
        elif key == "min_count":
            out[key] = _integer(value, "sweep.min_count")
        else:
            out[key] = _number(value, f"sweep.{key}")
    settings = SweepSettings(**out)
    # the conditions sweep_dead_time and its stages check, here before any work
    _require(settings.duration_s >= 0, "sweep.duration_s", ">= 0", settings.duration_s)
    for i, rate in enumerate(settings.rates_cps):
        try:
            expected_events(rate, settings.duration_s)
        except ValueError as exc:
            raise ScenarioError(f"sweep.rates_cps[{i}] * sweep.duration_s: {exc}") from None
    check_histogram(settings.bin_width_s, settings.max_gap_s, settings.min_count,
                    ("sweep.bin_width_s", "sweep.max_gap_s", "sweep.min_count"))
    return settings


def check_histogram(bin_width_s, max_gap_s, min_count, keys) -> None:
    """Validate the inter-arrival histogram settings of sweep-deadtime and
    deadtime-extract: finite widths > 0, at most MAX_HISTOGRAM_BINS bins and
    min_count >= 1.  keys names the three values (scenario keys or
    command-line flags) in the error."""
    for key, width in zip(keys, (bin_width_s, max_gap_s)):
        _require(isfinite(width), key, "a finite number", width)
        _require(width > 0, key, "> 0", width)
    try:
        histogram_bins(bin_width_s, max_gap_s)
    except ValueError as exc:
        raise ScenarioError(f"{keys[1]} / {keys[0]}: {exc}") from None
    _require(min_count >= 1, keys[2], ">= 1", min_count)


def _rates(values, key: str) -> tuple[float, ...]:
    """A list of loading rates, each >= 0."""
    rates = _numbers(values, key)
    for i, rate in enumerate(rates):
        _require(rate >= 0, f"{key}[{i}]", ">= 0", rate)
    return rates


def _parse_scan(section) -> ScanSettings:
    if section is None:
        return ScanSettings()
    allowed = {"lambda_par_cps", "lambda_perp_cps", "lambda_perp_grid", "e_abort"}
    _take(section, allowed, "scan")
    out = {}
    if "lambda_par_cps" in section:
        out["lambda_par_cps"] = _rates(section["lambda_par_cps"], "scan.lambda_par_cps")
    if "lambda_perp_cps" in section and "lambda_perp_grid" in section:
        raise ScenarioError("scan: give lambda_perp_cps or lambda_perp_grid, not both")
    if "lambda_perp_cps" in section:
        out["lambda_perp_cps"] = _rates(section["lambda_perp_cps"], "scan.lambda_perp_cps")
    if "lambda_perp_grid" in section:
        grid = section["lambda_perp_grid"]
        _take(grid, {"start_cps", "stop_cps", "num"}, "scan.lambda_perp_grid")
        if len(grid) != 3:
            raise ScenarioError("scan.lambda_perp_grid needs start_cps, stop_cps, num")
        start = _number(grid["start_cps"], "scan.lambda_perp_grid.start_cps")
        _require(start >= 0, "scan.lambda_perp_grid.start_cps", ">= 0", start)
        stop = _number(grid["stop_cps"], "scan.lambda_perp_grid.stop_cps")
        num = _integer(grid["num"], "scan.lambda_perp_grid.num")
        if num < 1 or stop < start:
            raise ScenarioError("scan.lambda_perp_grid must have num >= 1 and stop >= start")
        _require(num <= MAX_GRID_POINTS, "scan.lambda_perp_grid.num", f"<= {MAX_GRID_POINTS}", num)
        step = (stop - start) / (num - 1) if num > 1 else 0.0
        out["lambda_perp_cps"] = tuple(start + i * step for i in range(num))
    if "e_abort" in section:
        out["e_abort"] = _number(section["e_abort"], "scan.e_abort")
    settings = ScanSettings(**out)
    _require(0 < settings.e_abort < 0.5, "scan.e_abort", "in (0, 0.5)", settings.e_abort)
    cells = len(settings.lambda_par_cps) * len(settings.lambda_perp_cps)
    if cells > MAX_GRID_POINTS:
        raise ScenarioError(f"scan.lambda_par_cps x scan.lambda_perp_cps: the scan would have "
                            f"{cells} cells, more than the limit of {MAX_GRID_POINTS}")
    return settings


def _parse_mutualinfo(section) -> MutualInfoSettings:
    if section is None:
        return MutualInfoSettings()
    allowed = {"r_start", "r_stop", "r_step", "e_abort"}
    _take(section, allowed, "mutualinfo")
    settings = MutualInfoSettings(**{k: _number(v, f"mutualinfo.{k}") for k, v in section.items()})
    _require(settings.r_step > 0, "mutualinfo.r_step", "> 0", settings.r_step)
    _require(settings.r_start >= 0, "mutualinfo.r_start", ">= 0", settings.r_start)
    # grid() has floor(steps) + 1 points, up to rounding; counted without building it
    steps = (settings.r_stop + 1e-12 - settings.r_start) / settings.r_step
    _require(steps < MAX_GRID_POINTS, "mutualinfo.r_step",
             f"large enough for at most {MAX_GRID_POINTS} grid points", settings.r_step)
    _require(0 < settings.e_abort < 0.5, "mutualinfo.e_abort", "in (0, 0.5)", settings.e_abort)
    return settings


def load_scenario(path=None, data: dict | None = None) -> ScenarioConfig:
    """Parse and validate a scenario, from a JSON file or an in-memory dict."""
    base_dir = Path(".")
    if path is not None:
        path = Path(path)
        base_dir = path.parent
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise ScenarioError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"config {path} is not valid JSON: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ScenarioError("config root must be a JSON object")
    allowed = {"seed", "out", "workers", "dead_time_curve", "protocol", "attack",
               "sweep", "scan", "mutualinfo"}
    _take(data, allowed, "config root")
    # workers is accepted for compatibility and has no effect
    _integer(data.get("workers", 1), "workers")
    scan = _parse_scan(data.get("scan"))
    if not scan.lambda_par_cps or not scan.lambda_perp_cps:
        raise ScenarioError("scan grids must not be empty")
    mutualinfo = _parse_mutualinfo(data.get("mutualinfo"))
    # grid() is empty exactly when its first point already lies past r_stop
    if mutualinfo.r_start > mutualinfo.r_stop + 1e-12:
        raise ScenarioError("mutualinfo grid is empty")
    sweep = _parse_sweep(data.get("sweep"))
    if not sweep.rates_cps:
        raise ScenarioError("sweep.rates_cps must not be empty")
    seed = _integer(data.get("seed", 1), "seed")
    curve = _parse_curve(data.get("dead_time_curve"), base_dir)
    return ScenarioConfig(
        seed=seed,
        out=str(data.get("out", ".")),
        curve=curve,
        protocol=_parse_protocol(data.get("protocol"), seed, curve),
        attack=_parse_attack(data.get("attack")),
        sweep=sweep,
        scan=scan,
        mutualinfo=mutualinfo,
    )
