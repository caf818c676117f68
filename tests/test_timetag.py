"""Timestamp generation, dead-time filtering, histogram onset estimation."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import reference

from riesim import timetag
from riesim.detector import DeadTimeCurve, default_dead_time_curve
from riesim.timetag import (
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
    np.testing.assert_array_equal(a.timestamps_s, b.timestamps_s)


def test_different_seed_gives_different_stream():
    a = generate_poisson_stream(5e6, 0.01, seed=1)
    b = generate_poisson_stream(5e6, 0.01, seed=2)
    assert len(a) != len(b) or not np.array_equal(a.timestamps_s, b.timestamps_s)


def test_timestamps_quantized_to_resolution():
    stream = generate_poisson_stream(1e7, 0.001, seed=5)
    ticks = stream.timestamps_s / timetag.RESOLUTION_S
    np.testing.assert_allclose(ticks, np.round(ticks), atol=1e-6)


def test_timestamps_strictly_increasing_and_in_range():
    stream = generate_poisson_stream(5e7, 0.002, seed=6)
    t = stream.timestamps_s
    assert np.all(np.diff(t) > 0)
    assert t[0] >= 0.0 and t[-1] <= stream.duration_s


def test_nonpositive_rate_rejected():
    with pytest.raises(ValueError):
        generate_poisson_stream(0.0, 1.0, seed=0)


def test_stream_event_cap(monkeypatch):
    # checked before any draw, so 1e12 expected events fail at once
    with pytest.raises(ValueError, match="the stream would hold 1e\\+12 events"):
        generate_poisson_stream(1e12, 1.0, seed=0)
    monkeypatch.setattr(timetag, "MAX_STREAM_EVENTS", 1000)
    assert timetag.expected_events(1e3, 1.0) == 1000.0
    with pytest.raises(ValueError, match="more than the limit of 1000"):
        generate_poisson_stream(1e3, 1.001, seed=0)


# (event count, sha256 of timestamps_s.tobytes()) per (rate, duration, seed):
# every output of sweep-deadtime follows from these bytes, so a change here
# is a behaviour change
STREAM_PINS = {
    (1e6, 0.0, 3): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1e4, 0.05, 5): (534, "65d13ae75037925d83ea7cd0ed869d95c20de1c45fa328e94dafc96e09303a17"),
    (2e5, 0.001, 7): (195, "b21c971fb3ec95997d83e636ae1483e833c873e9ad33a93811856696c96f3e65"),
    (5e6, 0.01, 42): (49976, "50cc83e85bb096b0a2f6e37a9bbe1795e30596fd334c1f831e94b14ad116c709"),
    (1e7, 0.003, 0): (30205, "509367a531e350854c980a9ef3a1995826d79fe9ca63d5021066b12567902bdc"),
    (40e6, 0.05, 2000001): (1998498, "328b2b7256cce21d3c22bd3fe991b9082713d2a3764d5200f6bc4dd4b7ab6764"),
}


@pytest.mark.parametrize("rate, duration, seed", sorted(STREAM_PINS))
def test_stream_bytes_are_pinned(rate, duration, seed):
    stream = generate_poisson_stream(rate, duration, seed)
    size, digest = STREAM_PINS[(rate, duration, seed)]
    assert len(stream) == size
    assert hashlib.sha256(stream.timestamps_s.tobytes()).hexdigest() == digest


def test_stream_spanning_several_blocks(monkeypatch):
    monkeypatch.setattr(timetag, "_first_block_size", lambda expected: 1024)
    rate, duration = 1e6, 0.01
    times = generate_poisson_stream(rate, duration, seed=5).timestamps_s
    assert times.size > 2 * 1024  # later blocks hold at most 1024 gaps each
    assert np.all(np.diff(times) > 0)
    assert 0.0 <= times[0] and times[-1] <= duration
    expected = rate * duration
    assert abs(times.size - expected) < 5 * math.sqrt(expected)


# ---------------------------------------------------------------- dead-time filter


TICK_S = 8e-12


def _reference_filter(times_s, dead_s):
    """The sequential non-paralyzable rule, one kept event at a time: the
    oracle for the segment-parallel kernel."""
    n = times_s.size
    if n == 0 or dead_s <= 0:
        return times_s.copy()
    next_idx = np.searchsorted(times_s, times_s + dead_s, side="left")
    kept = np.empty(n, dtype=np.int64)
    k = 0
    i = 0
    while i < n:
        kept[k] = i
        k += 1
        i = next_idx[i]
    return times_s[kept[:k]]


def _draw_window(draw, times):
    """A window that is a tick multiple (ties t[j] == t[i] + d), an exact
    difference of two stream times, zero, sub-tick, longer than the stream,
    or arbitrary."""
    kind = draw(st.sampled_from(["ticks", "ticks", "difference", "difference",
                                 "zero", "subtick", "longer", "any"]))
    if kind == "ticks":
        return draw(st.integers(1, 8000) | st.sampled_from([2000, 3000, 4000])) * TICK_S
    if kind == "difference" and times.size >= 2:
        i, j = sorted(draw(st.lists(st.integers(0, times.size - 1), min_size=2, max_size=2,
                                    unique=True)))
        return times[j] - times[i]
    if kind == "zero":
        return 0.0
    if kind == "subtick":
        return draw(st.floats(1e-15, TICK_S, exclude_max=True))
    if kind == "longer":
        span = times[-1] - times[0] if times.size else 0.0
        return span + draw(st.floats(TICK_S, 1e-6))
    return draw(st.floats(1e-15, 1e-7))


@st.composite
def tick_streams_and_windows(draw):
    """Strictly increasing integer-tick times times 8 ps, with a window from
    _draw_window."""
    start = draw(st.integers(0, 10_000))
    # gaps on a coarse grid make sums of consecutive gaps hit the window often
    gaps = draw(st.lists(st.integers(1, 6000) | st.sampled_from([1000, 2000, 3000]),
                         max_size=400))
    ticks = start + np.cumsum(np.asarray([0] + gaps, dtype=np.int64))
    times = ticks[: draw(st.integers(0, ticks.size))] * TICK_S
    return times, _draw_window(draw, times)


@settings(max_examples=400, deadline=None)
@given(tick_streams_and_windows())
def test_filter_matches_sequential_reference(case):
    times, window = case
    assert np.array_equal(_filter_constant(times, window), _reference_filter(times, window))


def test_filter_keeps_event_exactly_at_window_end():
    times = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 4.5, 6.5])
    expected = [0.0, 2.0, 4.0, 6.5]
    np.testing.assert_array_equal(_reference_filter(times, 2.0), expected)
    np.testing.assert_array_equal(_filter_constant(times, 2.0), expected)


def test_filter_window_below_float_spacing_keeps_every_event():
    # t + 1e-300 == t, so no event can suppress another (the sequential walk
    # never leaves the first event here)
    times = np.arange(1, 50) * TICK_S
    np.testing.assert_array_equal(_filter_constant(times, 1e-300), times)


@pytest.mark.parametrize("rate", [1e6, 20e6, 40e6])
def test_filter_matches_reference_on_sweep_streams(rate):
    stream = generate_poisson_stream(rate, 0.05, seed=int(rate))
    for window in (23.3e-9, 31.5e-9):
        assert np.array_equal(_filter_constant(stream.timestamps_s, window),
                              _reference_filter(stream.timestamps_s, window))


@st.composite
def window_steps(draw):
    """A tick stream, the window w of its current kept set and the next
    window w': a few ticks or a fraction of a tick from w (the fixed point's
    steps), or any _draw_window window.  With w' < w the stream may gain an
    event at t_last + w', the float sum the chase makes, after the last
    event t_last kept at w."""
    times, old = draw(tick_streams_and_windows())
    kind = draw(st.sampled_from(["near", "near", "fraction", "difference", "window"]))
    if kind == "near":
        new = old + draw(st.integers(-40, 40).filter(bool)) * TICK_S
    elif kind == "fraction":
        new = old * draw(st.floats(0.9, 1.1))
    elif kind == "difference" and times.size >= 2:
        # a tie t[j] - t[i] == w' with t[i] early in the stream, where the
        # difference and the sum t[i] + w' round apart
        i = draw(st.integers(0, min(times.size - 2, 3)))
        new = times[draw(st.integers(i + 1, times.size - 1))] - times[i]
    else:
        new = _draw_window(draw, times)
    if times.size and new < old and draw(st.booleans()):
        last = times[timetag._kept_mask(times, old)][-1]
        if last + new > times[-1]:
            times = np.append(times, last + new)
    return times, old, new


@settings(max_examples=500, deadline=None)
@given(window_steps(), st.sampled_from([1, 2, 3, 7, timetag._REFILTER_BLOCK]))
def test_refilter_step_matches_full_pass(case, block):
    times, old, new = case
    kept = timetag._kept_mask(times, old)
    # small blocks put block edges between the kept events of short streams
    with mock.patch.object(timetag, "_REFILTER_BLOCK", block):
        timetag._refilter(times, kept, old, new)
    assert times[kept].tobytes() == _filter_constant(times, new).tobytes()


@pytest.mark.parametrize("times, old, new, expected", [
    # no event follows the last kept one (0) at w = 10; at w' = 6 the tail
    # event 8 is kept
    ([0.0, 5.0, 8.0], 10.0, 6.0, [0.0, 8.0]),
    ([0.0, 5.0, 8.0, 20.0], 10.0, 6.0, [0.0, 8.0, 20.0]),
    # a longer window drops 2, 4 and 9 and keeps 5
    ([0.0, 2.0, 4.0, 5.0, 9.0], 2.0, 5.0, [0.0, 5.0]),
    # w' = t[1] - t[0] in floating point, yet t[0] + w' > t[1]: the chase
    # drops t[1] at w', so the step must too
    ([1.976e-09, 1.4632e-08, 3e-08], 1e-08, 1.4632e-08 - 1.976e-09, [1.976e-09, 3e-08]),
    # t[1] - t[0] < w' but t[1] >= t[0] + w' in floating point: the chase
    # keeps t[1] at w', so the step must too
    ([6.8049936e-05, 6.807541599999999e-05, 6.809e-05], 3e-08, 2.548e-08,
     [6.8049936e-05, 6.807541599999999e-05]),
])
def test_refilter_step_examples(times, old, new, expected):
    times = np.asarray(times)
    kept = timetag._kept_mask(times, old)
    timetag._refilter(times, kept, old, new)
    assert times[kept].tolist() == expected
    assert times[kept].tobytes() == _reference_filter(times, new).tobytes()


def test_refilter_same_window_keeps_mask():
    times = generate_poisson_stream(40e6, 0.001, seed=3).timestamps_s
    kept = timetag._kept_mask(times, 30e-9)
    before = kept.copy()
    timetag._refilter(times, kept, 30e-9, 30e-9)
    assert np.array_equal(kept, before)


def test_zero_dead_time_is_identity():
    stream = generate_poisson_stream(1e6, 0.01, seed=9)
    out = apply_dead_time(stream, constant_dead_time_s=0.0)
    np.testing.assert_array_equal(out.timestamps_s, stream.timestamps_s)


def test_close_pair_loses_second_event():
    stream = TimestampStream(np.array([1e-6, 1e-6 + 1e-9]), duration_s=1e-5)
    out = apply_dead_time(stream, constant_dead_time_s=23.3e-9)
    np.testing.assert_array_equal(out.timestamps_s, [1e-6])


def test_filtered_stream_never_violates_dead_window():
    stream = generate_poisson_stream(3e7, 0.005, seed=12)
    out = apply_dead_time(stream, constant_dead_time_s=23.3e-9)
    assert np.all(np.diff(out.timestamps_s) >= 23.3e-9)


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
    assert np.all(np.diff(out.timestamps_s) >= window * (1 - 1e-9))


def test_rate_dependent_filter_converges_through_count_plateau_cycle():
    # regression: at this seed and scale the plain iteration cycles between
    # two adjacent count plateaus (relative gap ~1e-4, above the rate
    # tolerance); the filter must accept the sub-resolution window instead
    # of raising
    curve = default_dead_time_curve()
    stream = generate_poisson_stream(20e6, 0.1, seed=335)
    out = apply_dead_time(stream, curve=curve)
    window = curve.dead_time_at(out.observed_rate_cps)
    assert np.all(np.diff(out.timestamps_s) >= window - timetag.RESOLUTION_S)


def test_rate_dependent_filter_diagnostics_on_non_convergence(monkeypatch):
    curve = default_dead_time_curve()
    stream = generate_poisson_stream(40e6, 0.005, seed=31)
    monkeypatch.setattr(timetag, "_FIXED_POINT_ITERATIONS", 1)
    with pytest.raises(FixedPointError) as excinfo:
        apply_dead_time(stream, curve=curve)
    assert len(excinfo.value.trace) == 1


class RecordingCurve:
    """A dead-time curve that logs every (rate, window) lookup."""

    def __init__(self, curve):
        self.curve = curve
        self.lookups = []

    def dead_time_at(self, rate_cps):
        window = self.curve.dead_time_at(rate_cps)
        self.lookups.append((rate_cps, window))
        return window


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
    assert out.timestamps_s.tobytes() == expected.timestamps_s.tobytes()
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


def test_filter_requires_exactly_one_mode():
    stream = generate_poisson_stream(1e6, 0.001, seed=1)
    with pytest.raises(ValueError):
        apply_dead_time(stream)
    with pytest.raises(ValueError):
        apply_dead_time(stream, constant_dead_time_s=1e-8, curve=default_dead_time_curve())


# ---------------------------------------------------------------- histogram


def test_histogram_places_gaps_in_expected_bins():
    times = np.array([0.0, 10e-9, 35e-9])  # gaps: 10 ns, 25 ns
    stream = TimestampStream(times, duration_s=1e-6)
    hist = interarrival_histogram(stream, bin_width_s=1e-9, max_gap_s=100e-9)
    assert hist.counts[10] == 1
    assert hist.counts[25] == 1
    assert hist.counts.sum() == 2


def test_histogram_needs_two_timestamps():
    stream = TimestampStream(np.array([1e-6]), duration_s=1e-5)
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
    times = np.array([0.0, 50e-9, 1e-6])  # second gap exceeds max_gap
    stream = TimestampStream(times, duration_s=1e-5)
    hist = interarrival_histogram(stream, bin_width_s=1e-9, max_gap_s=100e-9)
    assert hist.counts.sum() == 1


def test_histogram_bin_count_is_capped():
    cap = timetag.MAX_HISTOGRAM_BINS
    assert timetag.histogram_bins(0.5e-9, 200e-9) == 400
    assert timetag.histogram_bins(1.0, cap) == cap
    stream = TimestampStream(np.array([0.0, 1e-9, 2e-9]), duration_s=1e-8)
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


# ---------------------------------------------------------------- file formats


def test_timestamp_file_round_trip(tmp_path):
    stream = generate_poisson_stream(1e7, 0.001, seed=90)
    path = tmp_path / "tags.txt"
    write_timestamps(stream, path)
    ticks = np.round(stream.timestamps_s * 1e12).astype(np.int64)
    assert path.read_text() == "".join(f"{tick}\n" for tick in ticks)
    loaded = read_timestamps(path)
    np.testing.assert_allclose(loaded.timestamps_s, stream.timestamps_s, rtol=0, atol=1e-15)


def test_timestamp_file_spans_several_write_chunks(tmp_path):
    stream = generate_poisson_stream(5e7, 0.003, seed=92)
    assert len(stream) > 2 * 65536
    path = tmp_path / "tags.txt"
    write_timestamps(stream, path)
    ticks = np.round(stream.timestamps_s * 1e12).astype(np.int64)
    assert path.read_text() == "".join(f"{tick}\n" for tick in ticks)


def test_timestamp_file_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1000\n2000\nxyz\n")
    with pytest.raises(ValueError, match="line 3"):
        read_timestamps(path)


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
    return stream.timestamps_s.tobytes(), stream.duration_s


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
    ("1\n9223372036854775808\n", [1, 2**63]),
    ("1\n٣\n", [1, 3]),
    # the largest tick float() converts without overflow
    (f"1\n{2**1024 - 2**970 - 1}\n", [1, 2**1024 - 2**970 - 1]),
])
def test_timestamp_file_line_forms(tmp_path, text, ticks):
    path = tmp_path / "tags.txt"
    path.write_bytes(text.encode())
    stream = read_timestamps(path)
    expected = np.asarray(ticks, dtype=float) * 1e-12
    assert stream.timestamps_s.tobytes() == expected.tobytes()
    assert stream.duration_s == expected[-1]


def test_timestamp_file_tick_beyond_float_names_line(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text(f"1\n{2**1024 - 2**970}\n")
    with pytest.raises(ValueError, match="tags.txt: timestamp at line 2 is too large"):
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

    def refuse(path):
        raise AssertionError("the line reader ran on a digit-only LF file")

    def record(path):
        calls.append(path)
        return line_reader(path)

    monkeypatch.setattr(timetag, "_ticks_by_line", refuse)
    bulk = read_timestamps(lf)
    monkeypatch.setattr(timetag, "_ticks_by_line", record)
    by_line = read_timestamps(crlf)
    assert calls == [crlf]
    assert bulk.timestamps_s.tobytes() == by_line.timestamps_s.tobytes()
    assert bulk.duration_s == by_line.duration_s


def test_sweep_csv_schema(tmp_path):
    curve = DeadTimeCurve.constant(24e-9)
    points = sweep_dead_time([10e6], curve, duration_s=0.002, bin_width_s=0.5e-9, seed=91)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(points, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda_obs_cps,t_d_est_s"
    assert len(lines) == 2
