"""Public API: every exported name resolves, and removed names stay removed."""

import dataclasses
import importlib
import inspect
import pkgutil

import riesim
from riesim.analysis import StealthScan
from riesim.detector import DeadTimeCurve
from riesim.quantum import PolarizationState
from riesim.timetag import InterArrivalHistogram, TimestampStream, apply_dead_time

MODULES = [riesim] + [importlib.import_module(f"riesim.{info.name}")
                      for info in pkgutil.iter_modules(riesim.__path__)]

# DetectorUnit, ArrivalResult and the module-level dead_time_at duplicated
# rules the package keeps once elsewhere; branch_table and BranchRow rendered
# SimulationReport.per_branch_stats a third time; the other names are the
# per-round sampler's helpers and its Born rule on the four named states,
# which live in tests/reference.py; no command called ChannelParams and
# mutual_info_erasure_bsc, nor the constant-t_d inverse observed_to_true_rate
REMOVED = ("A", "ArrivalResult", "BranchRow", "ChannelParams", "D", "DetectorUnit", "EveAction",
           "H", "V", "branch_table", "dead_time_at", "deterministic_suppression", "intercept",
           "loading_for_branch", "mutual_info_erasure_bsc", "observed_to_true_rate",
           "projection_prob", "route_through_pbs")


def test_every_exported_name_resolves():
    missing = [f"{module.__name__}.{name}" for module in MODULES
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert len(MODULES) > 1 and not missing


def test_removed_names_are_not_importable():
    present = [f"{module.__name__}.{name}" for module in MODULES
               for name in REMOVED if hasattr(module, name)]
    assert not present
    assert not hasattr(PolarizationState, "complement")
    assert not hasattr(StealthScan, "__getitem__")
    assert not hasattr(DeadTimeCurve, "to_csv")
    assert not hasattr(InterArrivalHistogram, "bin_edges_s")
    assert "resolution_s" not in {f.name for f in dataclasses.fields(TimestampStream)}
    # the rate-dependent window is sweep_dead_time's; the filter takes a constant one
    assert list(inspect.signature(apply_dead_time).parameters) == ["stream", "constant_dead_time_s"]
