"""In-memory span tracer that wraps the package's public functions from outside.

Each wrapped call records a span: name, op ("unit") id, parent span, start
and end.  Spans live in flat arrays while the benchmark runs and are written
to one ``.npz`` file at the end.  Per-unit aggregates (calls, total and self
seconds per span name, plus exact counters) are kept alongside, and the
per-layer metrics are computed from them.

A function is patched where its caller looks it up: ``run_simulation`` is
bound into ``riesim.cli`` by name, ``busy_fraction`` into ``riesim.cli``,
``riesim.analysis`` and ``riesim.detector``, and so on.  ``install`` returns
an undo list and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import statistics
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.unit = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, name, child seconds]
        self.unit_id = -1
        self.aggregates: list[dict[str, list]] = []
        self.counters: list[dict[str, float]] = []

    def begin_unit(self) -> int:
        """Start a new op (or set-up) unit; spans and counts go to it."""
        self.unit_id += 1
        self.aggregates.append(defaultdict(lambda: [0, 0.0, 0.0]))
        self.counters.append(defaultdict(float))
        return self.unit_id

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[self.unit_id][name] += amount

    @property
    def current(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    @contextmanager
    def span(self, name: str):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.unit.append(self.unit_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        frame = [index, name, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        try:
            yield
        finally:
            t1 = perf_counter()
            self.end[index] = t1
            self._stack.pop()
            duration = t1 - t0
            if self._stack:
                self._stack[-1][2] += duration
            agg = self.aggregates[self.unit_id][name]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[2]

    def wrap(self, fn, name: str, hook=None):
        """``fn`` recording a span; ``hook(tracer, parent_name, args, result)``
        adds exact counts after each call."""

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, parent, args, result)
            return result

        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            unit=np.frombuffer(self.unit, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# --- what gets patched ------------------------------------------------------

def _hook_generate(tr, parent, args, result):
    tr.count("generate.events", len(result))


def _hook_apply(tr, parent, args, result):
    tr.count("apply.raw", len(args[0]))
    tr.count("apply.kept", len(result))


def _hook_read(tr, parent, args, result):
    tr.count("read.lines", len(result))


def _hook_dead_time_at(tr, parent, args, result):
    if parent == "timetag.apply_dead_time":
        tr.count("fixed_point.curve_evals")


def _hook_simulation(tr, parent, args, result):
    tr.count("simulation.rounds", result.n_rounds)
    tr.count("simulation.sifted", result.n_sifted)


def _hook_scan(tr, parent, args, result):
    tr.count("scan.cells", len(result))
    tr.count("scan.saturated", sum(1 for row in result if not row.valid))


def _targets(cli):
    """(container, attribute or key, span name, hook) for every patched name.

    Some spans feed no metric (``timetag.sweep_dead_time``, the CSV writers):
    they are wrapped so that their time is not counted as the caller's self
    time."""
    import riesim.adversary as adversary
    import riesim.analysis as analysis
    import riesim.detector as detector
    import riesim.protocol as protocol
    import riesim.scenario as scenario
    import riesim.timetag as timetag

    targets = [(cli._COMMANDS, cmd, f"cli.{cmd}", None) for cmd in cli._COMMANDS]
    targets += [
        (cli, "load_scenario", "scenario.load_scenario", None),
        (scenario, "load_scenario", "scenario.load_scenario", None),
        (cli, "run_simulation", "protocol.run_simulation", _hook_simulation),
        (protocol.SimulationReport, "write_text", "protocol.report_write", None),
        (protocol.SimulationReport, "write_branch_csv", "protocol.report_write", None),
        (cli, "branch_click_probabilities", "adversary.branch_click_probabilities", None),
        (adversary, "branch_click_probabilities", "adversary.branch_click_probabilities", None),
        (timetag, "sweep_dead_time", "timetag.sweep_dead_time", None),
        (timetag, "generate_poisson_stream", "timetag.generate", _hook_generate),
        (timetag, "apply_dead_time", "timetag.apply_dead_time", _hook_apply),
        (timetag, "interarrival_histogram", "timetag.histogram", None),
        (timetag, "estimate_dead_time", "timetag.histogram", None),
        (timetag, "read_timestamps", "timetag.read", _hook_read),
        (timetag, "write_timestamps", "timetag.write", None),
        (timetag, "write_sweep_csv", "timetag.write_sweep_csv", None),
        (analysis, "stealth_scan", "analysis.stealth_scan", _hook_scan),
        (analysis, "write_stealth_csv", "analysis.write_stealth_csv", None),
        (analysis, "mutual_info_curve", "analysis.mutual_info_curve", None),
        (analysis, "write_mutual_info_csv", "analysis.write_mutual_info_csv", None),
        (detector.DeadTimeCurve, "dead_time_at", "detector.dead_time_at", _hook_dead_time_at),
    ]
    targets += [(module, "busy_fraction", "detector.busy_fraction", None)
                for module in (cli, analysis, detector)]
    return targets


def install(tracer: Tracer, cli) -> list:
    undo = []
    for container, key, name, hook in _targets(cli):
        if isinstance(container, dict):
            original = container[key]
            container[key] = tracer.wrap(original, name, hook)
        else:
            original = container.__dict__[key]
            setattr(container, key, tracer.wrap(original, name, hook))
        undo.append((container, key, original))
    return undo


def uninstall(undo: list) -> None:
    for container, key, original in reversed(undo):
        if isinstance(container, dict):
            container[key] = original
        else:
            setattr(container, key, original)


# --- per-layer metrics ------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _unit_metrics(agg: dict, cnt: dict) -> dict[str, float]:
    """Metrics of one op with the traced set-up added to it."""

    def calls(name):
        return agg[name][0] if name in agg else 0

    def total(name):
        return agg[name][1] if name in agg else 0.0

    def self_s(name):
        return agg[name][2] if name in agg else 0.0

    cli_self = sum(v[2] for k, v in agg.items() if k.startswith("cli."))
    out = {
        "cli.self_s": cli_self,
        "cli.output_bytes": cnt.get("cli.output_bytes", 0.0),
    }
    for cmd in ("sweep-deadtime", "deadtime-extract", "simulate", "analytic",
                "stealth-scan", "mutualinfo"):
        out[f"cli.{cmd}.s"] = total(f"cli.{cmd}")
    out.update({
        "scenario.load_scenario.s": total("scenario.load_scenario"),
        "timetag.generate.self_s": self_s("timetag.generate"),
        "timetag.generate.events": cnt.get("generate.events", 0.0),
        "timetag.apply_dead_time.self_s": self_s("timetag.apply_dead_time"),
        "timetag.fixed_point.curve_evals": cnt.get("fixed_point.curve_evals", 0.0),
        "timetag.kept_ratio": _ratio(cnt.get("apply.kept", 0.0), cnt.get("apply.raw", 0.0)),
        "timetag.histogram.self_s": self_s("timetag.histogram"),
        "timetag.read.self_s": self_s("timetag.read"),
        "timetag.read.lines_per_s": _ratio(cnt.get("read.lines", 0.0), total("timetag.read")),
        "timetag.write.self_s": self_s("timetag.write"),
        "protocol.run_simulation.self_s": self_s("protocol.run_simulation"),
        "protocol.rounds_per_s": _ratio(cnt.get("simulation.rounds", 0.0),
                                        total("protocol.run_simulation")),
        "protocol.sift_ratio": _ratio(cnt.get("simulation.sifted", 0.0),
                                      cnt.get("simulation.rounds", 0.0)),
        "protocol.report_write.self_s": self_s("protocol.report_write"),
        "adversary.branch_click_probabilities.s": total("adversary.branch_click_probabilities"),
        "analysis.stealth_scan.self_s": self_s("analysis.stealth_scan"),
        "analysis.cells_per_s": _ratio(cnt.get("scan.cells", 0.0), total("analysis.stealth_scan")),
        "analysis.saturated_ratio": _ratio(cnt.get("scan.saturated", 0.0), cnt.get("scan.cells", 0.0)),
        "analysis.write_stealth_csv.self_s": self_s("analysis.write_stealth_csv"),
        "analysis.mutual_info_curve.self_s": self_s("analysis.mutual_info_curve"),
        "detector.dead_time_at.calls": float(calls("detector.dead_time_at")),
        "detector.dead_time_at.self_s": self_s("detector.dead_time_at"),
        "detector.busy_fraction.calls": float(calls("detector.busy_fraction")),
    })
    return out


# Unit of every per-layer metric, including the three that run.py adds.
UNITS = {
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "cli.sweep-deadtime.s": "s", "cli.deadtime-extract.s": "s", "cli.simulate.s": "s",
    "cli.analytic.s": "s", "cli.stealth-scan.s": "s", "cli.mutualinfo.s": "s",
    "scenario.load_scenario.s": "s",
    "timetag.generate.self_s": "s", "timetag.generate.events": "count",
    "timetag.apply_dead_time.self_s": "s", "timetag.fixed_point.curve_evals": "count",
    "timetag.kept_ratio": "ratio", "timetag.histogram.self_s": "s",
    "timetag.read.self_s": "s", "timetag.read.lines_per_s": "1/s", "timetag.write.self_s": "s",
    "protocol.run_simulation.self_s": "s", "protocol.rounds_per_s": "1/s",
    "protocol.sift_ratio": "ratio", "protocol.report_write.self_s": "s",
    "adversary.branch_click_probabilities.s": "s",
    "analysis.stealth_scan.self_s": "s", "analysis.cells_per_s": "1/s",
    "analysis.saturated_ratio": "ratio", "analysis.write_stealth_csv.self_s": "s",
    "analysis.mutual_info_curve.self_s": "s",
    "detector.dead_time_at.calls": "count", "detector.dead_time_at.self_s": "s",
    "detector.busy_fraction.calls": "count",
    "trace.overhead_s": "s", "protocol.analytic_gap_sigma": "sigma",
    "protocol.workers2_speedup": "x",
}

# Metrics that are exact for a seed: taken from the first op, not a median.
EXACT = {
    "cli.output_bytes", "timetag.generate.events", "timetag.fixed_point.curve_evals",
    "timetag.kept_ratio", "protocol.sift_ratio", "analysis.saturated_ratio",
    "detector.dead_time_at.calls", "detector.busy_fraction.calls",
}


def layer_metrics(tracer: Tracer, setup_unit: int, op_units) -> dict[str, float]:
    """Per-layer values: each op plus the traced set-up; the median over ops
    for timings, the first op for exact counts."""

    def merged(unit):
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        cnt = defaultdict(float)
        for source in (setup_unit, unit):
            for name, (c, t, s) in tracer.aggregates[source].items():
                entry = agg[name]
                entry[0] += c
                entry[1] += t
                entry[2] += s
            for name, value in tracer.counters[source].items():
                cnt[name] += value
        return _unit_metrics(agg, cnt)

    per_op = [merged(unit) for unit in op_units]
    return {
        name: per_op[0][name] if name in EXACT else statistics.median(m[name] for m in per_op)
        for name in per_op[0]
    }
