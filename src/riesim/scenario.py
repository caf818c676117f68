"""Scenario configuration: one JSON file describing a full run.

The file is schema-validated before anything executes; unknown keys are
rejected so a typo cannot silently fall back to a default.  Command-line
flags override the corresponding file values.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import partial
from math import inf, isfinite
from pathlib import Path

from .adversary import AttackConfig, AttackMode
from .detector import AvailabilityModel, DeadTimeCurve, default_dead_time_curve
from .protocol import Basis, PolarizationState, ProtocolConfig
from .timetag import (DEFAULT_BIN_WIDTH_S, DEFAULT_MAX_GAP_S, DEFAULT_MIN_COUNT,
                      expected_events, histogram_bins)

__all__ = ["ScenarioConfig", "ScenarioError", "SweepSettings", "ScanSettings",
           "MutualInfoSettings", "check_histogram", "check_seed"]


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
    """A finite JSON number as a float; booleans, strings, null, NaN,
    infinities and integer literals beyond float range are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{key} must be a finite number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = inf
    if not isfinite(number):
        raise ScenarioError(f"{key} must be a finite number, got {value!r}")
    return number


def _rates(values, key: str, positive: bool = False) -> tuple[float, ...]:
    """A JSON list of rates, each a finite number >= 0, or > 0 if positive; a
    bad entry is named by its index."""
    if not isinstance(values, (list, tuple)):
        raise ScenarioError(f"{key} must be a list of numbers, got {values!r}")
    rates = tuple(_number(v, f"{key}[{i}]") for i, v in enumerate(values))
    for i, rate in enumerate(rates):
        _require(rate > 0 if positive else rate >= 0, f"{key}[{i}]",
                 "> 0" if positive else ">= 0", rate)
    return rates


def _path(value, key: str) -> str:
    """A non-empty JSON string, as a directory to write into."""
    if not isinstance(value, str) or not value:
        raise ScenarioError(f"{key} must be a non-empty string, got {value!r}")
    return value


def _choice(enum, what: str):
    """Converter to a member of enum by value; what names the field in the error."""
    def convert(value, key: str):
        try:
            return enum(value)
        except ValueError:
            raise ScenarioError(f"unknown {what} {value!r}") from None
    return convert


def _require(ok: bool, key: str, rule: str, value) -> None:
    """Range check of a parsed value; rule reads as "<key> must be <rule>"."""
    if not ok:
        raise ScenarioError(f"{key} must be {rule}, got {value!r}")


def _fields(section, where: str, converters) -> dict:
    """The keys of a section converted: the section must be a JSON object
    whose keys all appear in converters, and each present key is converted,
    in file order, by its converter under the name "<where>.<key>"."""
    _take(section, converters, where)
    return {key: converters[key](value, f"{where}.{key}") for key, value in section.items()}


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

    def n_points(self) -> int:
        """The grid's length: the first k with r_start + k * r_step past
        r_stop + 1e-12, or MAX_GRID_POINTS + 1 if there are more.  That sum
        never falls as k grows, so bisection finds k, even where the step is
        too small to move r_start."""
        stop = self.r_stop + 1e-12
        return bisect_left(range(MAX_GRID_POINTS + 1), True,
                           key=lambda k: self.r_start + k * self.r_step > stop)

    def grid(self) -> list[float]:
        return [round(self.r_start + k * self.r_step, 12) for k in range(self.n_points())]


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


def _curve_table(rows) -> list:
    """dead_time_curve.table: a JSON list of [rate_cps, dead_time_s] pairs of
    JSON numbers; a bad row or entry is named by its index.  NaN and
    infinities pass, and the curve rejects them as the CSV path does; an
    integer literal beyond float range is rejected here."""
    key = "dead_time_curve.table"
    if not isinstance(rows, (list, tuple)):
        raise ScenarioError(f"{key} must be a list of [rate_cps, dead_time_s] pairs, got {rows!r}")
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            raise ScenarioError(f"{key}[{i}] must be a [rate_cps, dead_time_s] pair, got {row!r}")
        for j, value in enumerate(row):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ScenarioError(f"{key}[{i}][{j}] must be a number, got {value!r}")
            if isinstance(value, int):
                _number(value, f"{key}[{i}][{j}]")
    return rows


def _parse_curve(section, base_dir: Path) -> DeadTimeCurve:
    if section is None:
        return default_dead_time_curve()
    _take(section, {"default", "table", "csv"}, "dead_time_curve")
    given = [k for k in ("default", "table", "csv") if section.get(k)]
    if len(given) != 1:
        raise ScenarioError("dead_time_curve needs exactly one of: default, table, csv")
    if given[0] == "default":
        return default_dead_time_curve()
    points = _curve_table(section["table"]) if given[0] == "table" else None
    try:
        if points is None:
            return DeadTimeCurve.from_csv(base_dir / section["csv"])
        return DeadTimeCurve.from_points(points)
    except (TypeError, ValueError, OSError) as exc:
        raise ScenarioError(f"invalid dead_time_curve: {exc}") from exc


def _fixed_alice(value, key: str) -> PolarizationState | None:
    if value is None:
        return None
    rule = f'fixed_alice must be ["Z"|"X", 0|1] or null, got {value!r}'
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(rule)
    bit = _integer(value[1], f"{key}[1]")
    try:
        return PolarizationState(Basis(value[0]), bit)
    except (TypeError, ValueError):
        raise ScenarioError(rule) from None


def _parse_protocol(section, seed: int, curve: DeadTimeCurve) -> ProtocolConfig | None:
    if section is None:
        return None
    converters = {
        "n_rounds": _integer, "p0": _number, "abort_threshold": _number, "basis_prior": _number,
        "availability_model": _choice(AvailabilityModel, "availability_model"),
        "transmission": _number, "background_rate_cps": _number, "fixed_alice": _fixed_alice,
    }
    _take(section, converters, "protocol")
    if "n_rounds" not in section or "p0" not in section:
        raise ScenarioError("protocol section needs at least n_rounds and p0")
    fields = _fields(section, "protocol", converters)
    try:
        return ProtocolConfig(seed=seed, dead_time_curve=curve, **fields)
    except ValueError as exc:
        raise ScenarioError(f"invalid protocol section: {exc}") from exc


def _parse_attack(section) -> AttackConfig:
    if section is None:
        return AttackConfig()
    fields = _fields(section, "attack", {
        "mode": _choice(AttackMode, "attack mode"), "lambda_parallel_cps": _number,
        "lambda_perp_cps": _number, "eve_basis_prior": _number,
        # null is delta_s's default, which only the deterministic mode rejects
        "delta_s": lambda value, key: None if value is None else _number(value, key),
    })
    try:
        return AttackConfig(**fields)
    except ValueError as exc:
        raise ScenarioError(f"invalid attack section: {exc}") from exc


def _parse_sweep(section) -> SweepSettings:
    if section is None:
        return SweepSettings()
    settings = SweepSettings(**_fields(section, "sweep", {
        "rates_cps": partial(_rates, positive=True), "duration_s": _number,
        "bin_width_s": _number, "max_gap_s": _number, "min_count": _integer,
    }))
    # the conditions sweep_dead_time and its stages check, here before any work
    _require(settings.duration_s >= 0, "sweep.duration_s", ">= 0", settings.duration_s)
    for i, rate in enumerate(settings.rates_cps):
        try:
            expected_events(rate, settings.duration_s)
        except ValueError as exc:
            raise ScenarioError(f"sweep.rates_cps[{i}] * sweep.duration_s: {exc}") from None
    check_histogram(settings.bin_width_s, settings.max_gap_s, settings.min_count,
                    ("sweep.bin_width_s", "sweep.max_gap_s", "sweep.min_count"))
    if not settings.rates_cps:
        raise ScenarioError("sweep.rates_cps must not be empty")
    return settings


def check_histogram(bin_width_s, max_gap_s, min_count, keys) -> None:
    """Validate the inter-arrival histogram settings of sweep-deadtime and
    deadtime-extract: finite widths > 0 of whole picoseconds, at most
    MAX_HISTOGRAM_BINS bins and min_count >= 1.  keys names the three values
    (scenario keys or command-line flags) in the error."""
    for key, width in zip(keys, (bin_width_s, max_gap_s)):
        _require(isfinite(width), key, "a finite number", width)
        _require(width > 0, key, "> 0", width)
    try:
        histogram_bins(bin_width_s, max_gap_s)
    except ValueError as exc:
        raise ScenarioError(f"{keys[1]} / {keys[0]}: {exc}") from None
    _require(min_count >= 1, keys[2], ">= 1", min_count)


def check_seed(seed: int, key: str) -> None:
    """The run seed is a non-negative integer (numpy's SeedSequence takes no
    other); key names it (the scenario key or the --seed flag) in the error."""
    _require(seed >= 0, key, ">= 0", seed)


def _perp_grid(grid, key: str) -> tuple[float, ...]:
    """num evenly spaced rates from start_cps to stop_cps."""
    fields = _fields(grid, key, {"start_cps": _number, "stop_cps": _number, "num": _integer})
    if len(fields) != 3:
        raise ScenarioError(f"{key} needs start_cps, stop_cps, num")
    start, stop, num = fields["start_cps"], fields["stop_cps"], fields["num"]
    _require(start >= 0, f"{key}.start_cps", ">= 0", start)
    if num < 1 or stop < start:
        raise ScenarioError(f"{key} must have num >= 1 and stop >= start")
    _require(num <= MAX_GRID_POINTS, f"{key}.num", f"<= {MAX_GRID_POINTS}", num)
    step = (stop - start) / (num - 1) if num > 1 else 0.0
    return tuple(start + i * step for i in range(num))


def _parse_scan(section) -> ScanSettings:
    if section is None:
        return ScanSettings()
    converters = {"lambda_par_cps": _rates, "lambda_perp_cps": _rates,
                  "lambda_perp_grid": _perp_grid, "e_abort": _number}
    _take(section, converters, "scan")
    if "lambda_perp_cps" in section and "lambda_perp_grid" in section:
        raise ScenarioError("scan: give lambda_perp_cps or lambda_perp_grid, not both")
    fields = _fields(section, "scan", converters)
    if "lambda_perp_grid" in fields:
        fields["lambda_perp_cps"] = fields.pop("lambda_perp_grid")
    settings = ScanSettings(**fields)
    _require(0 < settings.e_abort < 0.5, "scan.e_abort", "in (0, 0.5)", settings.e_abort)
    cells = len(settings.lambda_par_cps) * len(settings.lambda_perp_cps)
    if cells > MAX_GRID_POINTS:
        raise ScenarioError(f"scan.lambda_par_cps x scan.lambda_perp_cps: the scan would have "
                            f"{cells} cells, more than the limit of {MAX_GRID_POINTS}")
    if not settings.lambda_par_cps or not settings.lambda_perp_cps:
        raise ScenarioError("scan grids must not be empty")
    return settings


def _parse_mutualinfo(section) -> MutualInfoSettings:
    if section is None:
        return MutualInfoSettings()
    settings = MutualInfoSettings(**_fields(section, "mutualinfo", dict.fromkeys(
        ("r_start", "r_stop", "r_step", "e_abort"), _number)))
    _require(settings.r_step > 0, "mutualinfo.r_step", "> 0", settings.r_step)
    _require(settings.r_start >= 0, "mutualinfo.r_start", ">= 0", settings.r_start)
    points = settings.n_points()
    _require(points <= MAX_GRID_POINTS, "mutualinfo.r_step",
             f"large enough for at most {MAX_GRID_POINTS} grid points", settings.r_step)
    _require(0 < settings.e_abort < 0.5, "mutualinfo.e_abort", "in (0, 0.5)", settings.e_abort)
    if not points:
        raise ScenarioError("mutualinfo grid is empty")
    return settings


def load_scenario(path=None, data: dict | None = None) -> ScenarioConfig:
    """Parse and validate a scenario, from a JSON file or an in-memory dict."""
    base_dir = Path(".")
    if path is not None:
        path = Path(path)
        base_dir = path.parent
        # bytes, so that JSON's rules pick the encoding, not the locale
        try:
            data = json.loads(path.read_bytes())
        except OSError as exc:
            raise ScenarioError(f"cannot read config {path}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
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
    mutualinfo = _parse_mutualinfo(data.get("mutualinfo"))
    sweep = _parse_sweep(data.get("sweep"))
    seed = _integer(data.get("seed", 1), "seed")
    check_seed(seed, "seed")
    curve = _parse_curve(data.get("dead_time_curve"), base_dir)
    return ScenarioConfig(
        seed=seed,
        out=_path(data.get("out", "."), "out"),
        curve=curve,
        protocol=_parse_protocol(data.get("protocol"), seed, curve),
        attack=_parse_attack(data.get("attack")),
        sweep=sweep,
        scan=scan,
        mutualinfo=mutualinfo,
    )
