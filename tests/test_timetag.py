"""Timestamp generation, dead-time filtering, histogram onset estimation."""

import hashlib
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import reference

from riesim import timetag
from riesim.detector import DeadTimeCurve, default_dead_time_curve
from riesim.timetag import (
    TICK_S,
    EstimationError,
    FixedPointError,
    InsufficientDataError,
    InterArrivalHistogram,
    TimestampStream,
    _filter_constant,
    apply_dead_time,
    estimate_dead_time,
    generate_poisson_stream,
    interarrival_histogram,
    read_timestamps,
    sweep_dead_time,
    write_sweep_csv,
    write_timestamps,
)


# ---------------------------------------------------------------- generator


def test_poisson_count_matches_rate():
    stream = generate_poisson_stream(1e6, 1.0, seed=11)
    expected = 1e6
    assert abs(len(stream) - expected) < 4 * math.sqrt(expected)


def test_zero_duration_gives_empty_stream():
    stream = generate_poisson_stream(1e6, 0.0, seed=3)
    assert len(stream) == 0


def test_same_seed_gives_identical_stream():
    a = generate_poisson_stream(5e6, 0.01, seed=42)
    b = generate_poisson_stream(5e6, 0.01, seed=42)
    np.testing.assert_array_equal(a.ticks, b.ticks)


def test_different_seed_gives_different_stream():
    a = generate_poisson_stream(5e6, 0.01, seed=1)
    b = generate_poisson_stream(5e6, 0.01, seed=2)
    assert len(a) != len(b) or not np.array_equal(a.ticks, b.ticks)


def test_timestamps_quantized_to_resolution():
    stream = generate_poisson_stream(1e7, 0.001, seed=5)
    assert stream.ticks.dtype == np.int64
    assert np.all(stream.ticks % timetag.RESOLUTION_TICKS == 0)


def test_timestamps_strictly_increasing_and_in_range():
    stream = generate_poisson_stream(5e7, 0.002, seed=6)
    t = stream.ticks
    assert np.all(np.diff(t) > 0)
    assert t[0] >= 0 and t[-1] * TICK_S <= stream.duration_s


def test_nonpositive_rate_rejected():
    with pytest.raises(ValueError):
        generate_poisson_stream(0.0, 1.0, seed=0)


@pytest.mark.parametrize("rate, duration, message", [
    (float("nan"), 1e-3, "true rate must be finite and > 0, got nan"),
    (float("inf"), 1e-3, "true rate must be finite and > 0, got inf"),
    (1e6, float("nan"), "duration must be finite and >= 0, got nan"),
    (1e6, float("inf"), "duration must be finite and >= 0, got inf"),
], ids=["nan rate", "infinite rate", "nan duration", "infinite duration"])
def test_non_finite_rate_or_duration_named(rate, duration, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate_poisson_stream(rate, duration, seed=1)


def test_stream_event_cap(monkeypatch):
    # checked before any draw, so 1e12 expected events fail at once
    with pytest.raises(ValueError, match="the stream would hold 1e\\+12 events"):
        generate_poisson_stream(1e12, 1.0, seed=0)
    monkeypatch.setattr(timetag, "MAX_STREAM_EVENTS", 1000)
    assert timetag.expected_events(1e3, 1.0) == 1000.0
    with pytest.raises(ValueError, match="more than the limit of 1000"):
        generate_poisson_stream(1e3, 1.001, seed=0)
    # ticks stay below 2**62 ps, about 53 days
    with pytest.raises(ValueError, match="the stream would last 5e\\+06 s, more than"):
        generate_poisson_stream(1.0, 5e6, seed=0)


# (event count, sha256 of ticks.tobytes()) per (rate, duration, seed): every
# output of sweep-deadtime follows from these bytes, so a change here is a
# behaviour change
STREAM_PINS = {
    (1e6, 0.0, 3): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1e4, 0.05, 5): (534, "828acccf5a6ccb448b0be94fd1c570d6ad92f5902ffb55f782287d99b961720c"),
    (2e5, 0.001, 7): (195, "23fa84a4ed09f96fd72d39f9df6699fd515a0647e76cb42cce6b9aa1a569bd4a"),
    (5e6, 0.01, 42): (49976, "ff288b9db0e8b3ac5ede3d23ea638c597123b3ec66ac6c38226d4d774356352e"),
    (1e7, 0.003, 0): (30205, "9249a40f96c7014706ff5b611c09f1926d4a38cc24d1f8b1807b42f56fe3bae1"),
    (40e6, 0.05, 2000001): (1998498, "eb2031738d591ff9ddddf9ff8eca21548269ed68a39871d5a94908f6aff0ff5f"),
}


@pytest.mark.parametrize("rate, duration, seed", sorted(STREAM_PINS))
def test_stream_bytes_are_pinned(rate, duration, seed):
    stream = generate_poisson_stream(rate, duration, seed)
    size, digest = STREAM_PINS[(rate, duration, seed)]
    assert len(stream) == size
    assert hashlib.sha256(stream.ticks.tobytes()).hexdigest() == digest


def test_stream_spanning_several_blocks(monkeypatch):
    monkeypatch.setattr(timetag, "_first_block_size", lambda expected: 1024)
    rate, duration = 1e6, 0.01
    times = generate_poisson_stream(rate, duration, seed=5).ticks
    assert times.size > 2 * 1024  # later blocks hold at most 1024 gaps each
    assert np.all(np.diff(times) > 0)
    assert 0 <= times[0] and times[-1] * TICK_S <= duration
    expected = rate * duration
    assert abs(times.size - expected) < 5 * math.sqrt(expected)


@st.composite
def repeated_grid_steps(draw):
    """Ascending times in seconds whose grid steps come in runs of 1-3 equal
    ones, a run of 2-3 at the first or last position or across a block edge,
    a duration at or just short of the last time, and the block size of
    _quantize's compaction."""
    runs = draw(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=1, max_size=40))
    where = draw(st.sampled_from(["first", "last", "edge"]))
    if where == "first":
        at = 0
    elif where == "last":
        at = len(runs) - 1
    else:
        at = draw(st.integers(0, len(runs) - 1))
    runs[at] = draw(st.sampled_from([2, 3]))
    starts = np.cumsum([0] + runs[:-1])
    # at an edge the block ends after the run's first step; elsewhere any size
    block = (int(starts[at]) + 1 if where == "edge"
             else draw(st.sampled_from([1, 2, 3, 7, timetag._BLOCK])))
    gaps = draw(st.lists(st.integers(1, 10**6), min_size=len(runs), max_size=len(runs)))
    steps = np.repeat(np.cumsum(gaps), runs)
    # -0.3, -0.1 and +0.1 of a grid step through each run: ascending, and
    # each rounds to its run's step
    offsets = np.arange(steps.size) - np.repeat(starts, runs)
    times = (steps - 0.3 + 0.2 * offsets) * (GRID * TICK_S)
    duration = times[-1] * draw(st.sampled_from([1.0, 1 - 1e-9]))
    return times, duration, block


@settings(max_examples=300, deadline=None)
@given(repeated_grid_steps())
def test_quantize_drops_repeats_like_a_masked_copy(case):
    times, duration, block = case
    expected = reference.quantize(times.copy(), duration)
    with mock.patch.object(timetag, "_BLOCK", block):
        ticks = timetag._quantize(times.copy(), duration)
    assert ticks.tobytes() == expected.tobytes()


# ---------------------------------------------------------------- dead-time filter


GRID = timetag.RESOLUTION_TICKS


def _draw_window(draw, ticks, tied):
    """A window in ticks: `tied`, which some gaps equal, an exact difference
    of two stream ticks, zero, longer than the stream, or arbitrary."""
    kind = draw(st.sampled_from(["tied", "tied", "difference", "difference",
                                 "zero", "longer", "any"]))
    if kind == "tied":
        return tied
    if kind == "difference" and ticks.size >= 2:
        i, j = sorted(draw(st.lists(st.integers(0, ticks.size - 1), min_size=2, max_size=2,
                                    unique=True)))
        return int(ticks[j] - ticks[i])
    if kind == "zero":
        return 0
    if kind == "longer":
        span = int(ticks[-1] - ticks[0]) if ticks.size else 0
        return span + draw(st.integers(1, 10**6))
    return draw(st.integers(1, 10**5))


@st.composite
def tick_streams_and_windows(draw):
    """Strictly increasing ticks on the 8 ps grid, with a window from
    _draw_window whose tied choice is a grid multiple that some gaps equal."""
    steps = draw(st.integers(1, 8000) | st.sampled_from([2000, 3000, 4000]))
    start = draw(st.integers(0, 10_000))
    # gaps on a coarse grid make sums of consecutive gaps hit the window often
    gaps = draw(st.lists(st.integers(1, 6000) | st.sampled_from([1000, 2000, 3000, steps]),
                         max_size=400))
    grid = start + np.cumsum(np.asarray([0] + gaps, dtype=np.int64))
    ticks = GRID * grid[: draw(st.integers(0, grid.size))]
    return ticks, _draw_window(draw, ticks, GRID * steps)


# small blocks put block edges between the events, segments and kept events
# of short streams
BLOCKS = [1, 2, 3, 7, timetag._BLOCK]


@settings(max_examples=400, deadline=None)
@given(tick_streams_and_windows(), st.sampled_from(BLOCKS))
def test_filter_matches_sequential_reference(case, block):
    ticks, window = case
    with mock.patch.object(timetag, "_BLOCK", block):
        kept = _filter_constant(ticks, window)
    assert np.array_equal(kept, reference.sequential_filter(ticks, window))


def test_filter_keeps_event_exactly_at_window_end():
    stream = TimestampStream(np.array([0, 10, 20, 30, 40, 45, 65]), duration_s=1e-10)
    expected = [0, 20, 40, 65]
    assert reference.sequential_filter(stream.ticks, 20).tolist() == expected
    assert _filter_constant(stream.ticks, 20).tolist() == expected
    assert apply_dead_time(stream, constant_dead_time_s=20e-12).ticks.tolist() == expected


def test_filter_takes_any_window_and_ticks_below_2_62():
    stream = TimestampStream(np.array([0, 10, 2**62 - 1]), duration_s=1e7)
    assert apply_dead_time(stream, constant_dead_time_s=1e300).ticks.tolist() == [0]
    with pytest.raises(ValueError, match=r"ticks below 2\*\*62, got 4611686018427387904"):
        apply_dead_time(TimestampStream([0, 2**62], 1e7), constant_dead_time_s=1e-9)
    with pytest.raises(ValueError, match="1-d array of integers"):
        TimestampStream(np.array([1e-6, 2e-6]), duration_s=1e-5)


def test_gaps_equal_to_a_whole_tick_window_are_kept():
    # 24.0 ns is 3000 grid steps: the default curve's 4 Mcps anchor and
    # DeadTimeCurve.constant(24e-9).  An event a whole window after its
    # predecessor starts a segment, so every such raw gap is kept
    stream = generate_poisson_stream(40e6, 0.05, seed=4)
    ties = np.flatnonzero(np.diff(stream.ticks) == 24_000) + 1
    out = apply_dead_time(stream, constant_dead_time_s=24.0e-9)
    assert ties.size == 247 and np.isin(stream.ticks[ties], out.ticks).all()
    assert len(out) == 1_020_592


@pytest.mark.parametrize("rate", [1e6, 20e6, 40e6])
def test_filter_matches_reference_on_sweep_streams(rate):
    ticks = generate_poisson_stream(rate, 0.05, seed=int(rate)).ticks
    for window in (23_300, 31_500):
        assert np.array_equal(_filter_constant(ticks, window),
                              reference.sequential_filter(ticks, window))


@pytest.mark.parametrize("window", [
    # ~40 mean gaps: one chain walks the whole stream with few live pointers
    1e-6,
    # ~6 mean gaps: hundreds of live pointers, nearly all short of their
    # window after the probe, so they fall back to the search
    150e-9,
    # half a grid step: every event is kept
    4e-12,
    # 3000 grid steps: gaps equal to the window are ties
    24.0e-9,
])
def test_kept_mask_matches_sequential_reference_at_extreme_windows(window):
    ticks = generate_poisson_stream(40e6, 0.005, seed=4).ticks
    window = timetag._window_ticks(window)
    expected = reference.sequential_filter(ticks, window).tobytes()
    for block in BLOCKS:
        with mock.patch.object(timetag, "_BLOCK", block):
            kept = timetag._kept_mask(ticks, window)
        assert ticks[kept].tobytes() == expected, block


@st.composite
def window_steps(draw):
    """A tick stream, the window w of its current kept set and the next
    window w' >= 1 tick: a few grid steps or a few percent from w (the fixed
    point's steps), or any _draw_window window.  With w' < w the stream may
    gain an event at t_last + w' after the last event t_last kept at w."""
    ticks, old = draw(tick_streams_and_windows())
    kind = draw(st.sampled_from(["near", "near", "fraction", "window"]))
    if kind == "near":
        new = old + draw(st.integers(-40, 40).filter(bool)) * GRID
    elif kind == "fraction":
        new = round(old * draw(st.floats(0.9, 1.1)))
    else:
        new = _draw_window(draw, ticks, GRID * draw(st.integers(1, 8000)))
    new = max(new, 1)
    if ticks.size and new < old and draw(st.booleans()):
        last = ticks[timetag._kept_mask(ticks, old)][-1]
        if last + new > ticks[-1]:
            ticks = np.append(ticks, last + new)
    return ticks, old, new


@settings(max_examples=500, deadline=None)
@given(window_steps(), st.sampled_from(BLOCKS))
def test_refilter_step_matches_full_pass(case, block):
    ticks, old, new = case
    kept = timetag._kept_mask(ticks, old)
    with mock.patch.object(timetag, "_BLOCK", block):
        timetag._refilter(ticks, kept, old, new)
    assert ticks[kept].tobytes() == _filter_constant(ticks, new).tobytes()


# windows in ticks, written as floats so that the cases keep their ids
@pytest.mark.parametrize("times, old, new, expected", [
    # no event follows the last kept one (0) at w = 10; at w' = 6 the tail
    # event 8 is kept
    ([0, 5, 8], 10.0, 6.0, [0, 8]),
    ([0, 5, 8, 20], 10.0, 6.0, [0, 8, 20]),
    # a longer window drops 2, 4 and 9 and keeps 5
    ([0, 2, 4, 5, 9], 2.0, 5.0, [0, 5]),
])
def test_refilter_step_examples(times, old, new, expected):
    ticks = np.asarray(times, dtype=np.int64)
    kept = timetag._kept_mask(ticks, int(old))
    timetag._refilter(ticks, kept, int(old), int(new))
    assert ticks[kept].tolist() == expected
    assert ticks[kept].tobytes() == reference.sequential_filter(ticks, int(new)).tobytes()


def test_refilter_same_window_keeps_mask():
    ticks = generate_poisson_stream(40e6, 0.001, seed=3).ticks
    kept = timetag._kept_mask(ticks, 30_000)
    before = kept.copy()
    timetag._refilter(ticks, kept, 30_000, 30_000)
    assert np.array_equal(kept, before)


def test_zero_dead_time_is_identity():
    stream = generate_poisson_stream(1e6, 0.01, seed=9)
    out = apply_dead_time(stream, constant_dead_time_s=0.0)
    np.testing.assert_array_equal(out.ticks, stream.ticks)


def test_close_pair_loses_second_event():
    stream = TimestampStream(np.array([1_000_000, 1_001_000]), duration_s=1e-5)
    out = apply_dead_time(stream, constant_dead_time_s=23.3e-9)
    np.testing.assert_array_equal(out.ticks, [1_000_000])


def test_filtered_stream_never_violates_dead_window():
    stream = generate_poisson_stream(3e7, 0.005, seed=12)
    out = apply_dead_time(stream, constant_dead_time_s=23.3e-9)
    assert np.diff(out.ticks).min() >= 23_300


def test_constant_filter_throughput_matches_formula():
    beta = 50e6
    t_d = 23.3e-9
    stream = generate_poisson_stream(beta, 0.02, seed=21)
    out = apply_dead_time(stream, constant_dead_time_s=t_d)
    expected = beta / (1.0 + t_d * beta)
    assert abs(out.observed_rate_cps - expected) / expected < 0.02


def test_rate_dependent_filter_self_consistency():
    curve = default_dead_time_curve()
    stream = generate_poisson_stream(30e6, 0.01, seed=30)
    out = apply_dead_time(stream, curve=curve)
    # the applied window must equal the curve at the output's own rate
    window = curve.dead_time_at(out.observed_rate_cps)
    assert np.diff(out.ticks).min() >= timetag._ticks_of(window) * (1 - 1e-9)


class RecordingCurve:
    """A dead-time curve that logs every (rate, window) lookup.  Its table is
    the wrapped curve's, which observed_rate reads without a lookup."""

    def __init__(self, curve):
        self.curve = curve
        self.rates_cps = curve.rates_cps
        self.dead_times_s = curve.dead_times_s
        self.lookups = []

    def dead_time_at(self, rate_cps):
        window = self.curve.dead_time_at(rate_cps)
        self.lookups.append((rate_cps, window))
        return window


def test_rate_dependent_filter_converges_through_count_plateau_cycle():
    # regression: on this stream no count is self-consistent, so plain
    # iteration cycles between two count plateaus (relative gap ~1e-4); the
    # filter must bisect down to the two adjacent
    # counts either side of the sign change and end there instead of raising
    curve = RecordingCurve(default_dead_time_curve())
    stream = generate_poisson_stream(20e6, 0.1, seed=335)
    out = apply_dead_time(stream, curve=curve)
    ends = reference.exact_fixed_point(stream, curve.curve)
    assert len(ends) == 2 and len(out) in ends
    window = curve.curve.dead_time_at(out.observed_rate_cps)
    assert np.diff(out.ticks).min() >= timetag._ticks_of(window) - GRID
    # the bisection ran: the last window was looked up at a whole count next
    # to one looked up before it, and keeps a different count of events
    counts = [round(rate * stream.duration_s) for rate, _ in curve.lookups]
    assert counts[-1] - 1 in counts[:-1] or counts[-1] + 1 in counts[:-1]
    assert counts[-1] != len(out)


def test_rate_dependent_filter_diagnostics_on_non_convergence(monkeypatch):
    curve = default_dead_time_curve()
    stream = generate_poisson_stream(40e6, 0.005, seed=31)
    monkeypatch.setattr(timetag, "_FIXED_POINT_ITERATIONS", 1)
    with pytest.raises(FixedPointError) as excinfo:
        apply_dead_time(stream, curve=curve)
    assert len(excinfo.value.trace) == 1


@pytest.mark.parametrize("rate, duration, seed", [
    (1e6, 0.05, 1), (5e6, 0.05, 2), (20e6, 0.05, 3), (40e6, 0.05, 4),
    # the stream whose iteration cycles between two count plateaus (see above)
    (20e6, 0.1, 335),
])
def test_rate_dependent_filter_matches_full_pass_oracle(monkeypatch, rate, duration, seed):
    curve = default_dead_time_curve()
    stream = generate_poisson_stream(rate, duration, seed)
    oracle_curve, curve_seen = RecordingCurve(curve), RecordingCurve(curve)
    expected, trace = reference.fixed_point_filter(stream, oracle_curve)
    out = apply_dead_time(stream, curve=curve_seen)
    assert out.ticks.tobytes() == expected.ticks.tobytes()
    assert out.duration_s == expected.duration_s
    # the same windows at the same rates, in the same order
    assert curve_seen.lookups == oracle_curve.lookups
    # one iteration short, both give up with the same trace
    monkeypatch.setattr(timetag, "_FIXED_POINT_ITERATIONS", len(trace) - 1)
    with pytest.raises(FixedPointError) as oracle_error:
        reference.fixed_point_filter(stream, curve)
    with pytest.raises(FixedPointError) as error:
        apply_dead_time(stream, curve=curve)
    assert error.value.trace == oracle_error.value.trace == trace[:-1]


@pytest.mark.parametrize("rate", [1e6, 5e6, 20e6, 40e6])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_rate_dependent_filter_ends_on_the_self_consistent_count(rate, seed):
    # 5 ms streams keep 5k-90k events, so one count moves the rate by 1e-5
    # to 2e-4: coarse enough that some have no self-consistent count
    curve = default_dead_time_curve()
    stream = generate_poisson_stream(rate, 0.005, seed)
    assert len(apply_dead_time(stream, curve=curve)) in reference.exact_fixed_point(stream, curve)


def test_nan_dead_time_rejected_and_infinite_keeps_the_first_event():
    stream = generate_poisson_stream(1e6, 0.001, seed=1)
    for dead in (float("nan"), -1e-9):
        with pytest.raises(ValueError, match=f"^dead time must be >= 0, got {dead!r}$"):
            apply_dead_time(stream, constant_dead_time_s=dead)
    kept = apply_dead_time(stream, constant_dead_time_s=float("inf"))
    assert kept.ticks.tolist() == stream.ticks[:1].tolist()


def _alternating(n):
    return np.arange(n) % 2 == 0


def _random(n):
    return np.random.default_rng(n).random(n) < 0.45


def _runs(n):
    # runs of 1-9 kept then 1-9 dropped events, so small blocks end inside runs
    lengths = np.random.default_rng(n).integers(1, 10, size=n)
    return (np.repeat(np.arange(lengths.size), lengths) % 2 == 0)[:n]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("make_mask", [
    lambda n: np.zeros(n, dtype=bool), lambda n: np.ones(n, dtype=bool),
    _alternating, _random, _runs,
], ids=["all False", "all True", "alternating", "random", "runs"])
def test_select_equals_boolean_gather(monkeypatch, block, make_mask):
    monkeypatch.setattr(timetag, "_BLOCK", block)
    for n in (0, 1, 1000):
        mask = make_mask(n)
        for dtype in (np.int64, np.float64):
            values = np.arange(3, 3 + 7 * n, 7).astype(dtype)
            selected, expected = timetag._select(values, mask), values[mask]
            assert selected.dtype == expected.dtype
            assert selected.flags.c_contiguous
            assert np.array_equal(selected, expected)


def test_filter_requires_exactly_one_mode():
    stream = generate_poisson_stream(1e6, 0.001, seed=1)
    with pytest.raises(ValueError):
        apply_dead_time(stream)
    with pytest.raises(ValueError):
        apply_dead_time(stream, constant_dead_time_s=1e-8, curve=default_dead_time_curve())


# ---------------------------------------------------------------- histogram


def test_histogram_places_gaps_in_expected_bins():
    stream = TimestampStream(np.array([0, 10_000, 35_000]), duration_s=1e-6)  # 10 ns, 25 ns
    hist = interarrival_histogram(stream, bin_width_s=1e-9, max_gap_s=100e-9)
    assert hist.counts[10] == 1
    assert hist.counts[25] == 1
    assert hist.counts.sum() == 2


def test_histogram_needs_two_timestamps():
    stream = TimestampStream(np.array([1_000_000]), duration_s=1e-5)
    with pytest.raises(InsufficientDataError):
        interarrival_histogram(stream, 1e-9, 100e-9)


def test_bins_below_dead_time_are_empty():
    stream = generate_poisson_stream(40e6, 0.005, seed=44)
    out = apply_dead_time(stream, constant_dead_time_s=23.3e-9)
    hist = interarrival_histogram(out, bin_width_s=0.5e-9, max_gap_s=200e-9)
    first_possible = int(23.3e-9 / 0.5e-9)
    assert hist.counts[:first_possible].sum() == 0


def test_unfiltered_exponential_gaps_fit_exponential_decay():
    beta = 10e6
    stream = generate_poisson_stream(beta, 0.05, seed=50)
    hist = interarrival_histogram(stream, bin_width_s=2e-9, max_gap_s=400e-9)
    n_gaps = len(stream) - 1
    edges = np.arange(hist.counts.size + 1) * hist.bin_width_s
    expected = n_gaps * (np.exp(-beta * edges[:-1]) - np.exp(-beta * edges[1:]))
    # quantization at 8 ps is invisible at 2 ns bins; chi-square on the well
    # populated region against the exponential inter-arrival law
    keep = expected > 50
    stat, p_value = chisquare(hist.counts[keep], expected[keep], sum_check=False)
    assert p_value > 1e-4


def test_histogram_counts_gaps_within_range_only():
    # gaps of 50 ns, 100 ns (on the upper edge of the last 1 ns bin, so in
    # none) and 850 ns (past max_gap)
    stream = TimestampStream(np.array([0, 50_000, 150_000, 1_000_000]), duration_s=1e-5)
    hist = interarrival_histogram(stream, bin_width_s=1e-9, max_gap_s=100e-9)
    assert hist.counts.sum() == 1


def test_histogram_widths_are_whole_picoseconds():
    for bin_width, max_gap in ((3e-13, 2e-9), (0.5e-9, 2.0005e-9)):
        with pytest.raises(ValueError, match="must be whole numbers of picoseconds"):
            timetag.histogram_bins(bin_width, max_gap)


@settings(max_examples=300, deadline=None)
@given(tick_streams_and_windows(), st.integers(1, 4000) | st.sampled_from([8, 500, 1000, 8000]),
       st.integers(1, 50_000))
def test_histogram_matches_per_gap_loop(case, bin_ticks, max_ticks):
    # 500 ps bins put gaps of 1000, 2000 and 3000 grid steps on bin edges
    ticks = case[0]
    assume(ticks.size >= 2)
    hist = interarrival_histogram(TimestampStream(ticks, duration_s=ticks[-1] * TICK_S),
                                  bin_ticks * TICK_S, max_ticks * TICK_S)
    expected = [0] * -(-max_ticks // bin_ticks)
    for gap in np.diff(ticks).tolist():
        if gap <= max_ticks and gap // bin_ticks < len(expected):
            expected[gap // bin_ticks] += 1
    assert hist.counts.tolist() == expected


def test_histogram_bin_count_is_capped():
    cap = timetag.MAX_HISTOGRAM_BINS
    assert timetag.histogram_bins(0.5e-9, 200e-9) == 400
    assert timetag.histogram_bins(1.0, cap) == cap
    stream = TimestampStream(np.array([0, 1000, 2000]), duration_s=1e-8)
    # 1e300 / 0.5e-9 overflows to inf, 10 / 1e-12 asks for 1e13 bins
    for bin_width, max_gap in ((1.0, cap + 0.5), (0.5e-9, 1e300), (1e-12, 10.0)):
        with pytest.raises(ValueError, match="histogram would need"):
            timetag.histogram_bins(bin_width, max_gap)
        with pytest.raises(ValueError, match="histogram would need"):
            interarrival_histogram(stream, bin_width, max_gap)


# ---------------------------------------------------------------- onset estimator


def test_estimate_recovers_constant_dead_time():
    stream = generate_poisson_stream(50e6, 0.01, seed=60)
    out = apply_dead_time(stream, constant_dead_time_s=23.3e-9)
    hist = interarrival_histogram(out, bin_width_s=0.5e-9, max_gap_s=200e-9)
    estimate = estimate_dead_time(hist)
    assert 22.8e-9 <= estimate <= 23.8e-9


def test_estimate_recovers_high_rate_dead_time_within_one_bin():
    stream = generate_poisson_stream(40e6, 0.01, seed=61)
    out = apply_dead_time(stream, constant_dead_time_s=31.5e-9)
    hist = interarrival_histogram(out, bin_width_s=0.5e-9, max_gap_s=200e-9)
    estimate = estimate_dead_time(hist)
    assert abs(estimate - 31.5e-9) <= 0.5e-9


def test_estimate_never_exceeds_true_dead_time():
    # onset returns a bin lower edge, so the bias is a non-negative
    # underestimate bounded by one bin width
    for seed, t_d in [(70, 20e-9), (71, 25.1e-9), (72, 30.7e-9)]:
        stream = generate_poisson_stream(40e6, 0.01, seed=seed)
        out = apply_dead_time(stream, constant_dead_time_s=t_d)
        hist = interarrival_histogram(out, bin_width_s=0.5e-9, max_gap_s=200e-9)
        estimate = estimate_dead_time(hist)
        assert estimate <= t_d + 1e-15
        assert t_d - estimate < 0.5e-9


def test_all_zero_histogram_raises():
    hist = InterArrivalHistogram(bin_width_s=1e-9, counts=np.zeros(100, dtype=np.int64))
    with pytest.raises(EstimationError):
        estimate_dead_time(hist)


def test_min_count_guards_against_stray_outlier():
    counts = np.zeros(100, dtype=np.int64)
    counts[10] = 1  # lone stray count
    counts[40] = 25
    hist = InterArrivalHistogram(bin_width_s=1e-9, counts=counts)
    assert estimate_dead_time(hist, min_count=2) == pytest.approx(40e-9)


# ---------------------------------------------------------------- sweep


def test_sweep_flat_truth_gives_flat_recovery():
    curve = DeadTimeCurve.constant(25e-9)
    points = sweep_dead_time([5e6, 20e6], curve, duration_s=0.01, bin_width_s=0.5e-9, seed=80)
    for pt in points:
        assert abs(pt.dead_time_est_s - 25e-9) <= 0.5e-9


def test_sweep_single_rate_gives_single_point():
    curve = DeadTimeCurve.constant(25e-9)
    points = sweep_dead_time([10e6], curve, duration_s=0.005, bin_width_s=0.5e-9, seed=81)
    assert len(points) == 1


def test_sweep_recovers_default_curve_at_each_rate():
    curve = default_dead_time_curve()
    bin_width = 0.5e-9
    points = sweep_dead_time([1e6, 5e6, 20e6, 40e6], curve, duration_s=0.05,
                             bin_width_s=bin_width, seed=82)
    for pt in points:
        truth = curve.dead_time_at(pt.lambda_obs_cps)
        tolerance = max(bin_width, 0.03 * truth)
        assert abs(pt.dead_time_est_s - truth) <= tolerance


def test_sweep_rejects_empty_rate_list():
    with pytest.raises(ValueError):
        sweep_dead_time([], default_dead_time_curve(), 0.01, 0.5e-9, seed=0)


# ---------------------------------------------------------------- memory


def _peak_bytes(call, *args, **kwargs):
    """call's result and the most bytes it held at once beyond what was held
    when it began, as tracemalloc counts them: numpy reports its buffers to
    tracemalloc, so the figure repeats exactly."""
    tracemalloc.start()
    try:
        return call(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a pinned 40 Mcps x 50 ms stream: 2.0M events, 16.0 MB of ticks
LARGE_STREAM = (40e6, 0.05, 2000001)


def test_generator_holds_about_one_stream():
    # the first draw imports numpy.random's modules: not part of the figure
    generate_poisson_stream(1e3, 1e-3, seed=0)
    stream, peak = _peak_bytes(generate_poisson_stream, *LARGE_STREAM)
    # the draws' buffer, which the ticks overwrite, and a mask of one byte an event
    assert peak < 1.5 * stream.ticks.nbytes


def test_curve_filter_holds_its_input_and_less_than_as_much_again():
    stream = generate_poisson_stream(*LARGE_STREAM)
    _, peak = _peak_bytes(apply_dead_time, stream, curve=default_dead_time_curve())
    assert stream.ticks.nbytes + peak < 2.2 * stream.ticks.nbytes


def test_selecting_kept_events_holds_the_result_and_under_a_megabyte():
    stream = generate_poisson_stream(*LARGE_STREAM)
    filtered = apply_dead_time(stream, curve=default_dead_time_curve())
    kept = np.zeros(len(stream), dtype=bool)
    kept[np.searchsorted(stream.ticks, filtered.ticks)] = True
    selected, peak = _peak_bytes(timetag._select, stream.ticks, kept)
    assert np.array_equal(selected, filtered.ticks)
    # one block's indices and values beside the result
    assert peak < selected.nbytes + 1_000_000


def test_sweep_holds_one_raw_stream_at_a_time():
    # the README sweep
    rates, duration, seed = [1e6, 5e6, 20e6, 40e6], 0.05, 7
    largest = max(generate_poisson_stream(rate, duration, seed + index).ticks.nbytes
                  for index, rate in enumerate(rates))
    _, peak = _peak_bytes(sweep_dead_time, rates, default_dead_time_curve(), duration,
                          0.5e-9, seed)
    assert peak < 2.5 * largest


def test_histogram_holds_its_gaps_and_a_byte_an_event():
    stream = generate_poisson_stream(*LARGE_STREAM)
    _, peak = _peak_bytes(interarrival_histogram, stream)
    # the gaps, binned in place, and the out-of-range mask; no in-range copy
    assert peak < 1.3 * stream.ticks.nbytes


def test_reading_a_digit_only_file_holds_about_twice_the_file(tmp_path):
    path = tmp_path / "tags.txt"
    write_timestamps(generate_poisson_stream(1e7, 0.05, seed=94), path)
    size = path.stat().st_size
    _, peak = _peak_bytes(read_timestamps, path)
    # the bytes, the byte test's result while it runs, then the ticks
    assert peak < 2.2 * size


def test_reading_a_crlf_file_line_by_line_holds_about_twice_the_file(tmp_path):
    path = tmp_path / "tags.txt"
    write_timestamps(generate_poisson_stream(1e7, 0.05, seed=94), path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    size = path.stat().st_size
    _, peak = _peak_bytes(read_timestamps, path)
    # the bytes and the ticks, 8 bytes a line, as the lines are read
    assert peak < 2.2 * size


# ---------------------------------------------------------------- file formats


def test_timestamp_file_round_trip(tmp_path):
    stream = generate_poisson_stream(1e7, 0.001, seed=90)
    path = tmp_path / "tags.txt"
    write_timestamps(stream, path)
    assert path.read_text() == "".join(f"{tick}\n" for tick in stream.ticks)
    loaded = read_timestamps(path)
    assert loaded.ticks.tobytes() == stream.ticks.tobytes()
    assert loaded.duration_s == stream.ticks[-1] * TICK_S


def test_timestamp_file_spans_several_write_chunks(tmp_path):
    stream = generate_poisson_stream(5e7, 0.003, seed=92)
    assert len(stream) > 2 * 65536
    path = tmp_path / "tags.txt"
    write_timestamps(stream, path)
    assert path.read_text() == "".join(f"{tick}\n" for tick in stream.ticks)


def test_timestamp_file_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1000\n2000\nxyz\n")
    with pytest.raises(ValueError, match="line 3"):
        read_timestamps(path)


# in bulk and line by line; a repeated tick and a step back
@pytest.mark.parametrize("text", ["1000\n1000\n", "2000\n1000\n", "1\n 2000\n1000\n"])
def test_timestamp_file_out_of_order_names_file(tmp_path, text):
    path = tmp_path / "order.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as excinfo:
        read_timestamps(path)
    assert str(excinfo.value) == f"{path}: timestamps must be strictly ascending"


def test_timestamp_file_empty_is_insufficient_data(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(InsufficientDataError):
        read_timestamps(path)


def _read_by_line(path):
    """read_timestamps with the bulk parse refused: the per-line reference."""
    with mock.patch.object(timetag, "_ticks_in_bulk", return_value=None):
        return read_timestamps(path)


def _outcome(read, path):
    try:
        stream = read(path)
    except Exception as exc:  # the exception is the outcome under comparison
        return type(exc), str(exc)
    return stream.ticks.tobytes(), stream.duration_s


# line forms the bulk parse must leave to the line reader, which accepts some
# of them and rejects the others
_LINE_FORMS = ["{}", " {} ", "\t{}", "+{}", "-{}", "{}_0", "{}\r", "", "٣{}", "{} 1"]


@st.composite
def timestamp_files(draw):
    # up to 18 digits the bulk parse may take the file; 19 to 25 it must not
    digits = draw(st.sampled_from([7, 18, 25]))
    ticks = sorted(draw(st.lists(st.integers(0, 10**digits - 1), max_size=12, unique=True)))
    if not draw(st.booleans()):
        # digit-only lines, the form write_timestamps writes and the bulk parse takes
        lines = [str(tick) for tick in ticks]
        newline = "\n"
    else:
        lines = [draw(st.one_of(
            st.sampled_from(_LINE_FORMS).map(lambda form, tick=tick: form.format(tick)),
            st.text(alphabet="0123456789+-_ \t\r٣", max_size=25),
        )) for tick in ticks]
        newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (newline.join(lines) + draw(st.sampled_from(["", newline]))).encode()


@settings(max_examples=500, deadline=None)
@given(raw=timestamp_files())
def test_read_matches_line_reader(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "read_property_tags.txt"
    path.write_bytes(raw)
    assert _outcome(read_timestamps, path) == _outcome(_read_by_line, path)


@pytest.mark.parametrize("text, ticks", [
    ("1\r\n2\r\n3\r\n", [1, 2, 3]),
    ("1\r2\r3", [1, 2, 3]),
    ("1\n\n2\n\n", [1, 2]),
    ("\n1\n2\n", [1, 2]),
    ("  1\n\t2 \n", [1, 2]),
    ("+5\n6\n", [5, 6]),
    ("1_000\n2_000\n", [1000, 2000]),
    ("1\n1000000000000000000\n", [1, 10**18]),
    # the largest tick, the int64 maximum
    ("1\n9223372036854775807\n", [1, 2**63 - 1]),
    ("1\n٣\n", [1, 3]),
    # ticks above 2**53 that are one float apart stay distinct
    (f"1\n{2**60}\n{2**60 + 1}\n", [1, 2**60, 2**60 + 1]),
])
def test_timestamp_file_line_forms(tmp_path, text, ticks):
    path = tmp_path / "tags.txt"
    path.write_bytes(text.encode())
    stream = read_timestamps(path)
    assert stream.ticks.tolist() == ticks
    assert stream.duration_s == float(ticks[-1]) * 1e-12


def test_timestamp_file_tick_beyond_int64_names_line(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text(f"1\n{2**63}\n")
    with pytest.raises(ValueError, match=r"tags.txt: timestamp at line 2 is above 2\*\*63 - 1"):
        read_timestamps(path)


def test_timestamp_file_whitespace_only_is_insufficient_data(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text(" \n\t\n\n")
    with pytest.raises(InsufficientDataError):
        read_timestamps(path)


def test_digit_only_file_skips_the_line_reader(tmp_path, monkeypatch):
    stream = generate_poisson_stream(1e7, 0.001, seed=93)
    lf = tmp_path / "lf.txt"
    write_timestamps(stream, lf)
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    line_reader = timetag._ticks_by_line
    calls = []

    def refuse(raw, path):
        raise AssertionError("the line reader ran on a digit-only LF file")

    def record(raw, path):
        calls.append(path)
        return line_reader(raw, path)

    monkeypatch.setattr(timetag, "_ticks_by_line", refuse)
    bulk = read_timestamps(lf)
    monkeypatch.setattr(timetag, "_ticks_by_line", record)
    by_line = read_timestamps(crlf)
    assert calls == [crlf]
    assert bulk.ticks.tobytes() == by_line.ticks.tobytes()
    assert bulk.duration_s == by_line.duration_s


def test_timestamp_file_is_opened_once(tmp_path, monkeypatch):
    # CRLF lines go to the line reader, which reads the bytes already read
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"0\r\n1000\r\n2000\r\n")
    opened = []
    open_path = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(self)
        return open_path(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    assert read_timestamps(path).ticks.tolist() == [0, 1000, 2000]
    assert opened == [path]


# what _ticks_in_bulk relies on numpy's text parser to do
@pytest.mark.parametrize("raw, values", [
    # a blank line is extra whitespace between values, so it is skipped
    (b"1\n\n2\n", [1, 2]),
    # a file of one LF reads as a spurious 0
    (b"\n", [0]),
    # strtoll clamps a value past int64 to 2**63 - 1
    (b"9" * 25 + b"\n", [2**63 - 1]),
], ids=["blank line skipped", "lone LF is 0", "overflow clamped"])
def test_numpy_text_parse_reliances(raw, values):
    assert np.fromstring(raw, dtype=np.int64, sep="\n").tolist() == values


@pytest.mark.parametrize("raw, ticks, by_line", [
    (b"1\n\n2\n", [1, 2], True),
    # 25 characters, but a value below 10**18
    (b"0\n0000000000000000000001000\n2000\n", [0, 1000, 2000], False),
    (b"1\n1000000000000000000\n", [1, 10**18], True),
], ids=["blank line", "zero-padded", "10**18"])
def test_bulk_parse_guard_sends_each_reliance_to_its_reader(tmp_path, monkeypatch, raw,
                                                           ticks, by_line):
    path = tmp_path / "tags.txt"
    path.write_bytes(raw)
    line_reader = timetag._ticks_by_line
    calls = []

    def record(raw, path):
        calls.append(path)
        return line_reader(raw, path)

    monkeypatch.setattr(timetag, "_ticks_by_line", record)
    assert read_timestamps(path).ticks.tolist() == ticks
    assert calls == ([path] if by_line else [])


def test_timestamp_file_of_one_newline_has_no_timestamps(tmp_path):
    path = tmp_path / "lf.txt"
    path.write_bytes(b"\n")
    with pytest.raises(InsufficientDataError, match="no timestamps in file"):
        read_timestamps(path)


def test_timestamp_file_of_25_nines_names_its_line(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_bytes(b"1\n" + b"9" * 25 + b"\n")
    with pytest.raises(ValueError, match=r"line 2 is above 2\*\*63 - 1 \(25 characters\)"):
        read_timestamps(path)


def test_sweep_csv_schema(tmp_path):
    curve = DeadTimeCurve.constant(24e-9)
    points = sweep_dead_time([10e6], curve, duration_s=0.002, bin_width_s=0.5e-9, seed=91)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(points, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda_obs_cps,t_d_est_s"
    assert len(lines) == 2
