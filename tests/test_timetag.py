"""Timestamp generation, dead-time filtering, histogram onset estimation."""

import bisect
import contextlib
import hashlib
import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare, ttest_ind

import reference
from reference import ALPHA

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
    read_interarrival_histogram,
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


# the order is tested _BLOCK pairs at a time: a fault on either side of a
# block's edge, and in the last, short block
@pytest.mark.parametrize("fault", [3, 4, 5, 9])
def test_stream_order_is_tested_across_block_edges(monkeypatch, fault):
    monkeypatch.setattr(timetag, "_BLOCK", 4)
    ticks = np.arange(10) * 8
    TimestampStream(ticks, 1.0)
    ticks[fault] = ticks[fault - 1]
    with pytest.raises(ValueError, match="strictly increasing"):
        TimestampStream(ticks, 1.0)


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


# (event count, sha256 of ticks.tobytes()) per (rate, duration, seed): the
# generator is the sweep's renewal chain at a window of no length, so a change
# here is a behaviour change of both
STREAM_PINS = {
    (1e6, 0.0, 3): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1e4, 0.05, 5): (534, "bf0dfb1f50dfecfcf571288b6da20ab9e25039358859d012abffa175cf61e440"),
    (2e5, 0.001, 7): (195, "6083a717dcfecc42533dbd1114d0997d7c5dfa2d2c4e745392fdf8713b57dd2d"),
    (5e6, 0.01, 42): (49972, "655fe54bedf523b8a00d43333d1fe5fc4ee9fa75b106b4fd3cbcd2dbbf3abfb8"),
    (1e7, 0.003, 0): (30202, "2d406b66303f9b4f8be4b3988fc7fca2d750c27ff723ecc0e3c741ad485f4df6"),
    (40e6, 0.05, 2000001): (1998491, "dc4cc4f5f8c51dd42a5964dc3d97e0fc3f9d93f981db9ff622b0e6384ee7777f"),
}


@pytest.mark.parametrize("rate, duration, seed", sorted(STREAM_PINS))
def test_stream_bytes_are_pinned(rate, duration, seed):
    stream = generate_poisson_stream(rate, duration, seed)
    size, digest = STREAM_PINS[(rate, duration, seed)]
    assert len(stream) == size
    assert hashlib.sha256(stream.ticks.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("block", [4099, timetag._BLOCK])
@pytest.mark.parametrize("sigmas", [0.0, -50.0], ids=["at the expected count", "50 sigma short"])
def test_stream_past_its_ticks_buffer_is_the_same(monkeypatch, block, sigmas):
    # a buffer that half of the streams, or all of them, overflow: the ticks
    # past it are made in blocks of their own
    monkeypatch.setattr(timetag, "_BLOCK", block)
    monkeypatch.setattr(timetag, "_TICKS_SIGMAS", sigmas)
    for args in [(1e4, 0.05, 5), (5e6, 0.01, 42), (40e6, 0.05, 2000001)]:
        ticks = generate_poisson_stream(*args).ticks
        assert (len(ticks), hashlib.sha256(ticks.tobytes()).hexdigest()) == STREAM_PINS[args]


def test_stream_spanning_several_blocks(monkeypatch):
    monkeypatch.setattr(timetag, "_BLOCK", 1024)
    rate, duration = 1e6, 0.01
    times = generate_poisson_stream(rate, duration, seed=5).ticks
    assert times.size > 2 * 1024  # drawn in blocks of 1024 gaps
    assert np.all(np.diff(times) > 0)
    assert 0 <= times[0] and times[-1] * TICK_S <= duration
    expected = rate * duration
    assert abs(times.size - expected) < 5 * math.sqrt(expected)


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


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), -5.0])
def test_stream_duration_must_be_finite_and_not_negative(duration):
    # with no ticks, and with ticks that NaN or inf would take in
    for ticks in ([], [0, 8]):
        with pytest.raises(ValueError, match=f"^duration must be finite and >= 0, got {duration!r}$"):
            TimestampStream(np.array(ticks, dtype=np.int64), duration)


@pytest.mark.parametrize("width", [float("nan"), float("inf"), float("-inf"), 0.0, -1e-9])
def test_histogram_bin_width_must_be_finite_and_positive(width):
    # estimate_dead_time would read a NaN or infinite onset off such bins
    with pytest.raises(ValueError, match=f"^bin width must be finite and > 0, got {width!r}$"):
        InterArrivalHistogram(bin_width_s=width, counts=np.array([0, 3, 5]))


def test_gaps_equal_to_a_whole_tick_window_are_kept():
    # 24.0 ns is 3000 grid steps: the default curve's 4 Mcps anchor and
    # DeadTimeCurve.constant(24e-9).  An event a whole window after its
    # predecessor starts a segment, so every such raw gap is kept
    stream = generate_poisson_stream(40e6, 0.05, seed=4)
    ties = np.flatnonzero(np.diff(stream.ticks) == 24_000) + 1
    out = apply_dead_time(stream, constant_dead_time_s=24.0e-9)
    assert ties.size == 244 and np.isin(stream.ticks[ties], out.ticks).all()
    assert len(out) == 1_020_602


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
    reference.assert_kept_count_fits_law(len(out), beta, t_d, 0.02)


def _geometric_bins(q, n, n_bins=20):
    """Lower edges of about n_bins bins of G ~ Geom(q) (the empty slots
    before the first held one) at its quantiles, and each bin's probability.
    G = 0, a gap of exactly d slots, has a bin of its own when n draws
    expect 5 or more there."""
    quantiles = np.log1p(-np.arange(n_bins) / n_bins) / np.log1p(-q)
    edges = np.unique(np.ceil(np.append(quantiles, 1.0 if n * q >= 5 else 0.0)))
    tail = np.exp(edges * np.log1p(-q))
    return edges, tail - np.append(tail[1:], 0.0)


@pytest.mark.parametrize("rate, seed", [(5e6, 101), (40e6, 102)])
def test_filter_kept_gaps_follow_the_geometric_law(rate, seed):
    # a kept gap is d slots, the least the window keeps, plus the empty
    # slots G before the next held one, G ~ Geom(q = 1 - exp(-rate * 8 ps));
    # this is the law timetag._KeptChain draws from
    window = 25_000
    d = -(-window // GRID)
    gaps = np.diff(_filter_constant(reference.poisson_stream(rate, 0.02, seed).ticks, window))
    assert np.all(gaps % GRID == 0) and gaps.min() >= GRID * d
    extra = gaps // GRID - d
    edges, probabilities = _geometric_bins(-math.expm1(-rate * GRID * TICK_S), extra.size)
    observed = np.bincount(np.searchsorted(edges, extra, side="right") - 1,
                           minlength=edges.size)
    assert chisquare(observed, probabilities * extra.size).pvalue > ALPHA


# ---------------------------------------------------------------- renewal sampler


def _smallest(curve):
    return float(np.min(curve.dead_times_s))


def _sampled(rate, duration, seed, curve):
    """One rate of sweep_dead_time: its chain, kept count and window."""
    chain = timetag._KeptChain(rate, duration, seed)
    return (chain, *timetag._fixed_point(chain.count, rate, curve, duration))


def _count_oracle(rate, duration, seed):
    """The kept count at a window over every slot of the same draws."""
    return partial(reference.chain_kept_count, timetag._KeptChain(rate, duration, seed))


@pytest.mark.parametrize("rate", [1e6, 40e6])
@pytest.mark.parametrize("window", [0, 1, 7, 8, 9, 23_300, 31_500, 10**6, timetag.MAX_STREAM_TICK])
def test_chain_count_matches_counting_every_slot(rate, window):
    chain = timetag._KeptChain(rate, 0.002, 5)
    assert chain.count(window) == reference.chain_kept_count(chain, window)
    # one slot is the least gap at any window below 8 ticks
    if window <= GRID:
        assert chain.count(window) == chain.count(GRID)


def test_chain_count_with_the_last_slot_on_and_beside_block_edges(monkeypatch):
    # 64-gap blocks; the last slot moved onto, before and after events that
    # start a block or follow one, back and forth between blocks, so that
    # each search meets its bound exactly and the kept block sums change.
    # The chain is drawn to its own last slot first, 32 blocks, so the
    # blocks of these events are drawn again from their states
    monkeypatch.setattr(timetag, "_BLOCK", 64)
    chain = timetag._KeptChain(40e6, 1e-4, 3)
    window = 25_000
    assert chain.count(window) == reference.chain_kept_count(chain, window) > 30 * 64
    slots = reference.chain_slots(chain, window)
    for event in (64, 65, 127, 128, 192, 5, 130, 0):
        for last in (slots[event] - 1, slots[event], slots[event] + 1):
            chain.last = int(last)
            assert chain.count(window) == reference.chain_kept_count(chain, window)


@pytest.mark.parametrize("block, duration, max_gap", [
    # blocks of 64 gaps: the histogram bins every gap past 64 slots one by one
    (64, 1e-4, 200e-9),
    # 1 us bins gaps up to 125,000 slots, past a block of 65,536, one by one
    (timetag._BLOCK, 0.05, 1e-6),
], ids=["blocks of 64", "max gap past 65,536 slots"])
def test_chain_draws_blocks_again_from_their_states(monkeypatch, block, duration, max_gap):
    monkeypatch.setattr(timetag, "_BLOCK", block)
    redrawn = []
    gaps_of = timetag._KeptChain._gaps

    def record(chain, b):
        if b < len(chain._before) - 1 - timetag._HELD:
            redrawn.append(b)
        return gaps_of(chain, b)

    monkeypatch.setattr(timetag._KeptChain, "_gaps", record)
    chain = timetag._KeptChain(40e6, duration, 5, max_gap)
    # counted at one slot first, the chain draws 63 blocks of 64 or 31 of _BLOCK
    # and holds its last two, so the counts and histograms at windows far
    # longer read blocks drawn again from the generator's saved states
    assert chain.count(8) == reference.chain_kept_count(chain, 8)
    assert len(chain._before) - 1 > timetag._HELD + 20
    for window in (10**6, 10**5, 25_000):
        count = reference.chain_kept_count(chain, window)
        assert chain.count(window) == count
        stream = TimestampStream(GRID * reference.chain_slots(chain, window)[:count], duration)
        expected = interarrival_histogram(stream, 0.5e-9, max_gap).counts.tolist()
        assert chain.histogram(window, 0.5e-9).counts.tolist() == expected
    assert redrawn and min(redrawn) == 0


@pytest.mark.parametrize("slot", [0, 1, 3, 7, 10**9 + 7, 2**40 + 1, 6_250_000_000])
def test_chain_last_slot_is_the_last_the_generator_keeps(slot):
    # the generator keeps a tick t iff t * TICK_S <= duration
    duration = slot * GRID * TICK_S
    assert timetag._KeptChain(1e3, duration, 0).last == slot
    if slot:
        below = float(np.nextafter(duration, 0.0))
        assert timetag._KeptChain(1e3, below, 0).last == slot - 1


def test_chain_of_a_long_sparse_stream_stays_within_int64():
    # 46 days at 1e-6 cps: the first block's 65,536 gaps of ~1.25e17 slots
    # would sum past 2**63, so its draw is cut once its sum passes 2**60
    chain = timetag._KeptChain(1e-6, 4e6, 1)
    assert chain.count(25_000) == reference.chain_kept_count(chain, 25_000) == 2
    assert chain._cut and len(chain._before) == 2
    gaps = chain._gaps(0)
    assert gaps.min() >= 0 and sum(gaps.tolist()) == chain._before[-1] < 2**62


@pytest.mark.parametrize("rate, duration, window", [
    (40e6, 0.005, 0), (40e6, 0.005, 23_300), (1e6, 0.005, 10**6), (1e6, 0.005, 10**12),
    # a long sparse stream whose draw is cut at 2**60; and one whose first
    # block of 65,536 gaps, cut at about 9,200 gaps of ~2**47 slots, would
    # sum past 2**63 in steps of d ~ 2**53 slots
    (1e-6, 4e6, 0), (1e-3, 4e6, 10**17),
])
def test_chain_ticks_are_its_kept_events(monkeypatch, rate, duration, window):
    # in the ticks' buffer, and in blocks of their own past a buffer 50
    # sigma short
    for sigmas in (timetag._TICKS_SIGMAS, -50.0):
        monkeypatch.setattr(timetag, "_TICKS_SIGMAS", sigmas)
        chain = timetag._KeptChain(rate, duration, 3)
        count = reference.chain_kept_count(chain, window)
        expected = GRID * reference.chain_slots(chain, window)[:count]
        assert chain.ticks(window).tolist() == expected.tolist()


def test_chain_keeps_no_arrival_past_the_duration():
    # the generator drops an arrival past the duration before it rounds it
    # to slot 0, so a stream of no duration is empty at any rate
    for seed in range(20):
        assert timetag._KeptChain(1e12, 0.0, seed).count(0) == 0


def _windows(chain):
    """A window of 0, below 8 ticks, of any size, at or past the chain's
    last slot or MAX_STREAM_TICK."""
    return (st.just(0) | st.integers(1, 7) | st.integers(8, 60_000)
            | st.sampled_from([GRID * chain.last, GRID * (chain.last + 1) + 3,
                               timetag.MAX_STREAM_TICK]))


@st.composite
def chains_and_bins(draw):
    """A chain drawn in blocks of 7 to _BLOCK gaps, first counted at none or
    some of _windows (so that it is drawn further than its window needs, or
    drawn again with more blocks); a window from _windows; bins of 1-3000 ps
    (mostly not a multiple of 8 ps) and a max gap anywhere inside the last
    bin."""
    rate = draw(st.floats(1e5, 4e7))
    duration = draw(st.floats(1e-5, 5e-4))
    block = draw(st.sampled_from([7, 64, 4099, timetag._BLOCK]))
    bin_ticks = draw(st.sampled_from([12, 333, 500]) | st.integers(1, 3000))
    n_bins = draw(st.integers(1, 400))
    max_ticks = n_bins * bin_ticks - draw(st.integers(0, bin_ticks - 1))
    with mock.patch.object(timetag, "_BLOCK", block):
        chain = timetag._KeptChain(rate, duration, draw(st.integers(0, 2**32 - 1)),
                                   max_ticks * TICK_S)
    for earlier in draw(st.lists(_windows(chain), max_size=3)):
        chain.count(earlier)
    return chain, draw(_windows(chain)), bin_ticks, max_ticks


@settings(max_examples=150, deadline=None)
@given(chains_and_bins())
def test_chain_count_and_histogram_match_every_slot(case):
    chain, window, bin_ticks, max_ticks = case
    count = reference.chain_kept_count(chain, window)
    assert chain.count(window) == count
    if count < 2:
        with pytest.raises(InsufficientDataError):
            chain.histogram(window, bin_ticks * TICK_S)
        return
    gaps = GRID * np.diff(reference.chain_slots(chain, window)[:count])
    binned = gaps[gaps <= max_ticks] // bin_ticks
    n_bins = -(-max_ticks // bin_ticks)
    expected = np.bincount(binned[binned < n_bins], minlength=n_bins).tolist()
    assert chain.histogram(window, bin_ticks * TICK_S).counts.tolist() == expected


def test_rate_dependent_filter_self_consistency():
    curve = default_dead_time_curve()
    _, count, window = _sampled(30e6, 0.01, 30, curve)
    # the applied window is the curve's at the output's own rate
    assert window == timetag._window_ticks(curve.dead_time_at(count / 0.01))


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
    # regression: on these draws no count is self-consistent, so plain
    # iteration cycles between two count plateaus (relative gap ~1e-4); the
    # fixed point must bisect down to the two adjacent counts either side of
    # the sign change and end there instead of raising
    curve = RecordingCurve(default_dead_time_curve())
    rate, duration, seed = 20e6, 0.1, 45
    _, count, window = _sampled(rate, duration, seed, curve)
    kept_at = _count_oracle(rate, duration, seed)
    ends = reference.exact_fixed_point(kept_at, kept_at(timetag._window_ticks(23.3e-9)),
                                       duration, curve.curve)
    assert len(ends) == 2 and count in ends
    assert kept_at(window) == count
    # the bisection ran: the last window was looked up at a whole count next
    # to one looked up before it, and keeps a different count of events
    counts = [round(rate * duration) for rate, _ in curve.lookups]
    assert counts[-1] - 1 in counts[:-1] or counts[-1] + 1 in counts[:-1]
    assert counts[-1] != count


def test_rate_dependent_filter_diagnostics_on_non_convergence(monkeypatch):
    curve = default_dead_time_curve()
    monkeypatch.setattr(timetag, "_FIXED_POINT_ITERATIONS", 1)
    with pytest.raises(FixedPointError) as excinfo:
        sweep_dead_time([40e6], curve, 0.005, 0.5e-9, seed=31)
    assert len(excinfo.value.trace) == 1


@pytest.mark.parametrize("rate, duration, seed", [
    (1e6, 0.05, 1), (5e6, 0.05, 2), (20e6, 0.05, 3), (40e6, 0.05, 4), (20e6, 0.1, 335),
    # draws whose iteration cycles between two count plateaus (see above)
    (20e6, 0.1, 45),
])
def test_rate_dependent_filter_matches_full_pass_oracle(monkeypatch, rate, duration, seed):
    curve = default_dead_time_curve()
    kept_at = _count_oracle(rate, duration, seed)
    oracle_curve, curve_seen = RecordingCurve(curve), RecordingCurve(curve)
    count, window = timetag._fixed_point(kept_at, rate, oracle_curve, duration)
    chain, *result = _sampled(rate, duration, seed, curve_seen)
    assert result == [count, window]
    # the same windows at the same rates, in the same order
    assert curve_seen.lookups == oracle_curve.lookups
    # the histogram of the kept gaps is that of the kept events' ticks; 1 ns
    # bins and a 40 ns max gap put gaps on bin edges and on max_gap
    stream = TimestampStream(GRID * reference.chain_slots(kept_at.args[0], window)[:count],
                             duration)
    for bin_width, max_gap in ((0.5e-9, 200e-9), (1e-9, 40e-9)):
        expected = interarrival_histogram(stream, bin_width, max_gap).counts.tolist()
        for block in (4099, timetag._BLOCK):
            with mock.patch.object(timetag, "_BLOCK", block):
                hist = timetag._KeptChain(rate, duration, seed, max_gap).histogram(window,
                                                                                   bin_width)
                assert hist.counts.tolist() == expected
    # one iteration short, both give up with the same trace
    monkeypatch.setattr(timetag, "_FIXED_POINT_ITERATIONS", len(oracle_curve.lookups) - 1)
    with pytest.raises(FixedPointError) as oracle_error:
        timetag._fixed_point(kept_at, rate, curve, duration)
    with pytest.raises(FixedPointError) as error:
        timetag._fixed_point(chain.count, rate, curve, duration)
    assert error.value.trace == oracle_error.value.trace
    assert [dead_s for _, dead_s, _ in error.value.trace] == [
        dead_s for _, dead_s in oracle_curve.lookups[:-1]]


@pytest.mark.parametrize("rate", [1e6, 5e6, 20e6, 40e6])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_rate_dependent_filter_ends_on_the_self_consistent_count(rate, seed):
    # 5 ms streams keep 5k-90k events, so one count moves the rate by 1e-5
    # to 2e-4: coarse enough that some have no self-consistent count
    curve = default_dead_time_curve()
    kept_at = _count_oracle(rate, 0.005, seed)
    _, count, _ = _sampled(rate, 0.005, seed, curve)
    n_max = kept_at(timetag._window_ticks(_smallest(curve)))
    assert count in reference.exact_fixed_point(kept_at, n_max, 0.005, curve)


def _recorded_counts(monkeypatch):
    """A list that gets (chain, window, blocks drawn before, after) for each
    _KeptChain.count."""
    counts = []
    count = timetag._KeptChain.count

    def record(chain, window):
        blocks = len(chain._before) - 1
        kept = count(chain, window)
        counts.append((chain, window, blocks, len(chain._before) - 1))
        return kept

    monkeypatch.setattr(timetag._KeptChain, "count", record)
    return counts


def _short(chain, window):
    """Whether the chain's gaps less its last block fall short of its last
    slot at `window`: that block was needed."""
    d = chain._least(window)
    return (chain._size - chain._block) * d + chain._before[-2] <= chain.last - chain.first


def test_sweep_draws_more_when_the_chain_runs_short(monkeypatch):
    sweeps = [([1e6, 40e6], default_dead_time_curve(), 0.005, 0.5e-9, seed)
              for seed in (82, 83, 84)]
    expected = [sweep_dead_time(*args) for args in sweeps]
    counts = _recorded_counts(monkeypatch)
    monkeypatch.setattr(timetag, "_BLOCK", 7)
    # the counts and histograms read only the gaps up to the last slot
    assert [sweep_dead_time(*args) for args in sweeps] == expected
    # each rate's first count draws the chain; a later count at a smaller
    # window, which the chain falls short at, draws more blocks (seeds 82
    # and 84: their fixed points' second window is a slot shorter)
    firsts = {}
    for chain, window, before, after in counts:
        firsts.setdefault(id(chain), (before, after))
    assert len(firsts) == 6 and all(before == 0 < after for before, after in firsts.values())
    assert any(0 < before < after for chain, window, before, after in counts)


@pytest.mark.parametrize("rate, block", [(1e6, timetag._BLOCK), (40e6, 4099), (20e6, 7)])
def test_chain_drawn_again_is_the_chain_drawn_once_at_its_final_size(monkeypatch, rate, block):
    # counted at falling windows (1 us, 100 ns, one slot), the chain is
    # drawn again with more blocks each time; counted at the smallest at
    # once, it is drawn once.  At 1 Mcps, 2e5 raw events fill four blocks of
    # _BLOCK
    duration = 0.2 if rate == 1e6 else 0.002
    monkeypatch.setattr(timetag, "_BLOCK", block)
    windows = [10**6, 10**5, 8]
    again = timetag._KeptChain(rate, duration, 11)
    sizes = []
    for window in windows:
        again.count(window)
        sizes.append(again._size)
    assert sizes[0] < sizes[1] < sizes[2]
    once = timetag._KeptChain(rate, duration, 11)
    once.count(windows[-1])
    assert once._size == again._size and once.first == again.first
    assert once._before == again._before and once._states == again._states
    assert np.array_equal(once._counts, again._counts)
    gaps = reference.chain_gaps(once, once._size)
    for chain in (once, again):
        assert _chain_gaps(chain).tobytes() == gaps.tobytes()
    for window in (0, 8, 23_300, GRID * once.last):
        assert once.count(window) == again.count(window)


def test_readme_sweep_draws_each_chain_once(monkeypatch):
    counts = _recorded_counts(monkeypatch)
    filled_on = _threads_filling(monkeypatch)
    taken = _threads_calling(monkeypatch, timetag._KeptChain, "_take")
    sweep_dead_time([1e6, 5e6, 20e6, 40e6], default_dead_time_curve(), 0.05, 0.5e-9, 7)
    chains = {id(chain): chain for chain, *_ in counts}
    assert len(chains) == 4
    # each block filled is taken once: none is given back or drawn twice
    assert len(filled_on) == len(taken) == sum(len(chain._before) - 1 for chain in chains.values())
    # and each chain draws up to the block that its smallest window needs
    for chain in chains.values():
        assert _short(chain, min(window for c, window, *_ in counts if c is chain))


# fixed before the check was first run: sampler seeds 0-39 and raw-stream
# seeds 1000-1039, 2 ms streams
LAW_SEEDS = range(40)


@pytest.mark.parametrize("rate, curve", [
    (1e6, default_dead_time_curve()), (5e6, default_dead_time_curve()),
    (20e6, default_dead_time_curve()), (40e6, default_dead_time_curve()),
    # a window below one 8 ps slot keeps every held slot: d = 1
    (20e6, DeadTimeCurve.constant(5e-12)),
], ids=["1 Mcps", "5 Mcps", "20 Mcps", "40 Mcps", "20 Mcps, 5 ps window"])
def test_sampler_matches_the_filtered_generator_in_law(rate, curve):
    """The sweep's kept stream against the rate-dependent filter of the
    textbook raw stream (reference.poisson_stream): Welch's test on the kept
    counts and a two-sample chi-square on the gaps in slots past d, each at
    ALPHA."""
    duration = 0.002
    counts, extras = ([], []), ([], [])
    for seed in LAW_SEEDS:
        chain, count, window = _sampled(rate, duration, seed, curve)
        counts[0].append(count)
        extras[0].append(reference.chain_gaps(chain, count - 1))
        stream, stream_window = reference.fixed_point_filter(
            reference.poisson_stream(rate, duration, 1000 + seed), curve)
        d = timetag._KeptChain.slots(stream_window)
        counts[1].append(len(stream))
        extras[1].append(np.diff(stream.ticks) // GRID - d)
    assert ttest_ind(*counts, equal_var=False).pvalue > ALPHA
    extras = [np.concatenate(extra) for extra in extras]
    assert extras[1].min() >= 0
    edges, _ = _geometric_bins(-math.expm1(-rate * GRID * TICK_S),
                               min(extra.size for extra in extras))
    table = [np.bincount(np.searchsorted(edges, extra, side="right") - 1, minlength=edges.size)
             for extra in extras]
    assert chi2_contingency(table).pvalue > ALPHA


@pytest.mark.parametrize("rate", [1e6, 20e6, 40e6])
def test_generator_matches_the_textbook_stream_in_law(rate):
    """The generator, the renewal chain at a window of no length, against
    cumulative exponential arrivals rounded onto the grid
    (reference.poisson_stream): Welch's test on the event counts and a
    two-sample chi-square on the gaps in slots past one, each at ALPHA."""
    duration = 0.002
    counts, extras = ([], []), ([], [])
    for seed in LAW_SEEDS:
        for side, stream in enumerate((generate_poisson_stream(rate, duration, seed),
                                       reference.poisson_stream(rate, duration, 1000 + seed))):
            counts[side].append(len(stream))
            extras[side].append(np.diff(stream.ticks) // GRID - 1)
    assert ttest_ind(*counts, equal_var=False).pvalue > ALPHA
    extras = [np.concatenate(extra) for extra in extras]
    assert extras[0].min() >= 0 and extras[1].min() >= 0
    edges, _ = _geometric_bins(-math.expm1(-rate * GRID * TICK_S),
                               min(extra.size for extra in extras))
    table = [np.bincount(np.searchsorted(edges, extra, side="right") - 1, minlength=edges.size)
             for extra in extras]
    assert chi2_contingency(table).pvalue > ALPHA


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
    # a constant dead time is the filter's one mode; the rate-dependent
    # window is the sweep's (sweep_dead_time)
    stream = generate_poisson_stream(1e6, 0.001, seed=1)
    with pytest.raises(TypeError):
        apply_dead_time(stream)
    with pytest.raises(TypeError):
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
    assert chisquare(hist.counts[keep], expected[keep], sum_check=False).pvalue > ALPHA


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


def test_histogram_edge_stays_within_int64():
    # one bin of 5e18 ps ends below 2**63 - 1; two of them, or one of
    # 1e19 ps, end past it
    stream = TimestampStream(np.array([0, 1000, 2000]), duration_s=1e-8)
    assert interarrival_histogram(stream, 5e6, 5e6).counts.tolist() == [2]
    for bin_width, max_gap in ((5e6, 6e6), (1e7, 1e7)):
        with pytest.raises(ValueError, match=r"upper edge must be at most 2\*\*63 - 1 ps"):
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


# ---------------------------------------------------------------- threads


def _allow_cpus(monkeypatch, n_cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)), raising=False)


def _threads_calling(monkeypatch, owner, name):
    """A list that gets the thread of each call of owner.name."""
    threads = []
    call = getattr(owner, name)

    def recorded(*args):
        threads.append(threading.current_thread())
        return call(*args)

    monkeypatch.setattr(owner, name, recorded)
    return threads


def _threads_filling(monkeypatch, fail_at=None, error=None):
    """A list that gets the thread of each fill the chain hands to
    timetag._filled; the fill numbered fail_at (from 1) raises error instead."""
    threads = []
    filled = timetag._filled

    def recorded(fill, parts, ahead):
        def fill_here(out):
            threads.append(threading.current_thread())
            if len(threads) == fail_at:
                raise error
            fill(out=out)

        return filled(fill_here, parts, ahead)

    monkeypatch.setattr(timetag, "_filled", recorded)
    return threads


@pytest.mark.parametrize("block", [4099, timetag._BLOCK])
def test_sweep_is_the_same_on_one_cpu_and_two(monkeypatch, block):
    # the README sweep: chains of 51k-1.05M draws
    rates, duration, seed = [1e6, 5e6, 20e6, 40e6], 0.05, 7
    monkeypatch.setattr(timetag, "_BLOCK", block)
    filled_on = _threads_filling(monkeypatch)
    points = {}
    for n_cpus in (1, 2):
        _allow_cpus(monkeypatch, n_cpus)
        threads = threading.active_count()
        points[n_cpus] = sweep_dead_time(rates, default_dead_time_curve(), duration, 0.5e-9,
                                         seed)
        assert threading.active_count() == threads
        # no thread on one CPU; on two, the blocks a chain fills ahead are
        # filled on a worker
        assert (set(filled_on) != {threading.current_thread()}) == (n_cpus == 2)
    assert points[1] == points[2]


@pytest.mark.parametrize("block", [4099, timetag._BLOCK])
def test_generator_is_the_same_on_one_cpu_and_two(monkeypatch, block):
    # the largest pinned stream: 2.0M draws in 31 or 488 parts
    args = (40e6, 0.05, 2000001)
    monkeypatch.setattr(timetag, "_BLOCK", block)
    filled_on = _threads_filling(monkeypatch)
    for n_cpus in (1, 2):
        _allow_cpus(monkeypatch, n_cpus)
        threads = threading.active_count()
        ticks = generate_poisson_stream(*args).ticks
        assert hashlib.sha256(ticks.tobytes()).hexdigest() == STREAM_PINS[args][1]
        # the draws are filled on a worker on two CPUs only, and it is joined
        workers = set(filled_on) - {threading.current_thread()}
        assert bool(workers) == (n_cpus == 2)
        assert threading.active_count() == threads
        assert not any(worker.is_alive() for worker in workers)


@pytest.mark.parametrize("block", [4099, timetag._BLOCK])
@pytest.mark.parametrize("bins", [(0.5e-9, 200e-9), (1e-9, 40.5e-9)],
                         ids=["README bins", "max gap inside the last bin"])
def test_histogram_is_the_same_on_one_cpu_and_two(monkeypatch, block, bins):
    stream = generate_poisson_stream(40e6, 0.005, seed=95)
    gaps = np.diff(stream.ticks)
    assert gaps.size > 2 * timetag._BLOCK
    bin_ticks, max_ticks = round(bins[0] / TICK_S), round(bins[1] / TICK_S)
    n_bins = timetag.histogram_bins(*bins)
    binned = gaps[gaps <= max_ticks] // bin_ticks
    expected = np.bincount(binned[binned < n_bins], minlength=n_bins).tolist()
    monkeypatch.setattr(timetag, "_BLOCK", block)
    binned_on = _threads_calling(monkeypatch, timetag, "_bin")
    for n_cpus in (1, 2):
        _allow_cpus(monkeypatch, n_cpus)
        threads = threading.active_count()
        assert interarrival_histogram(stream, *bins).counts.tolist() == expected
        assert threading.active_count() == threads
        assert set(binned_on) == {threading.current_thread()}


def _chain_gaps(chain):
    """Every gap the chain has drawn, block by block, held or drawn again
    (into the one spare buffer, so each is copied out)."""
    return np.concatenate([chain._gaps(b).copy() for b in range(len(chain._before) - 1)])


@pytest.mark.parametrize("block", [4099, timetag._BLOCK])
@pytest.mark.parametrize("rate, seed", [(5e6, 8), (40e6, 10)])
def test_chain_sums_are_those_of_one_sequential_draw(monkeypatch, block, rate, seed):
    monkeypatch.setattr(timetag, "_BLOCK", block)
    for n_cpus in (1, 2):
        _allow_cpus(monkeypatch, n_cpus)
        chain = timetag._KeptChain(rate, 0.05, seed)
        chain.count(23_300)
        gaps = reference.chain_gaps(chain, chain._size)
        assert _chain_gaps(chain).tobytes() == gaps.tobytes()
        # the prefix sums of the gaps at each block's first event
        sums = np.concatenate(([0], np.cumsum(gaps)))
        assert chain._before == sums[::block].tolist() + [sums[-1]] * bool(gaps.size % block)
        # the slots of a gap up to the default max gap, 25,000, capped at a block
        top = min(round(timetag.DEFAULT_MAX_GAP_S / (GRID * TICK_S)), block)
        assert np.array_equal(chain._counts, np.bincount(np.minimum(gaps, top), minlength=top + 1))


@pytest.mark.parametrize("rate, duration", [
    # 5 hours at 2.2e-4 cps: 1024 gaps of ~2**49 slots, whose sums pass
    # 2**58 about halfway and stay below 2**60
    (2.22e-4, 18014.0),
    # the long sparse stream above, whose draw is cut at 2**60
    (1e-6, 4e6),
], ids=["sums past 2**58", "sums past 2**60"])
def test_chain_of_large_sums_is_the_same_on_one_cpu_and_two(monkeypatch, rate, duration):
    # one block of 1024 gaps, in order, cut after the first gap whose exact
    # prefix sum reaches 2**60 (an int64 cumsum of 1024 gaps of ~1.25e17
    # slots would overflow); either passes the last slot
    monkeypatch.setattr(timetag, "_BLOCK", 1024)
    gaps = reference.chain_gaps(timetag._KeptChain(rate, duration, 1), 1024)
    sums = [0, *itertools.accumulate(gaps.tolist())]
    cut = bisect.bisect_left(sums, 2**60)
    gaps, sums = gaps[:cut], sums[:cut + 1]
    assert (sums[-1] >= 2**60) == (rate == 1e-6)
    top = min(round(timetag.DEFAULT_MAX_GAP_S / (GRID * TICK_S)), 1024)
    filled_on = _threads_filling(monkeypatch)
    for n_cpus in (1, 2):
        _allow_cpus(monkeypatch, n_cpus)
        filled_on.clear()
        chain = timetag._KeptChain(rate, duration, 1)
        assert chain.count(25_000) == reference.chain_kept_count(chain, 25_000)
        # no block is filled past the one the chain passes its last slot in
        assert len(filled_on) == 1 and chain._cut == (rate == 1e-6)
        assert _chain_gaps(chain).tobytes() == gaps.tobytes()
        assert chain._before == [0, sums[-1]]
        assert np.array_equal(chain._counts,
                              np.bincount(np.minimum(gaps, top), minlength=top + 1))


@pytest.mark.parametrize("block", [7, 4099])
def test_a_block_filled_ahead_and_not_taken_is_given_back(monkeypatch, block):
    # each run of draws ends as a worker's may: with one block filled ahead
    # that the count does not take.  The generator is set back before it, so
    # the counts, the histogram and every gap are those of one sequential draw
    monkeypatch.setattr(timetag, "_BLOCK", block)
    fills = []

    def filled_ahead(fill, parts, ahead):
        parts = iter(parts)
        try:
            for part in parts:
                fills.append(part)
                fill(out=part)
                yield part
        finally:
            fills.append(None)
            fill(out=next(parts))

    monkeypatch.setattr(timetag, "_filled", filled_ahead)
    chain = timetag._KeptChain(20e6, 0.002, 9)
    runs = 0
    for window in (10**6, 31_500, 23_300, 8):
        blocks = len(chain._before) - 1
        assert chain.count(window) == reference.chain_kept_count(chain, window)
        runs += len(chain._before) - 1 > blocks
    blocks = len(chain._before) - 1
    assert runs >= 3 and len(fills) == blocks + runs and len(chain._states) == blocks
    assert _chain_gaps(chain).tobytes() == reference.chain_gaps(chain, chain._size).tobytes()
    count = reference.chain_kept_count(chain, 23_300)
    stream = TimestampStream(GRID * reference.chain_slots(chain, 23_300)[:count], 0.002)
    assert (chain.histogram(23_300, 0.5e-9).counts.tolist()
            == interarrival_histogram(stream).counts.tolist())


def _work_on(fill, parts, work):
    """work(part) for each part timetag._filled(fill, parts) yields, up to
    the first for which it returns False, with a worker asked to fill ahead
    at every part."""
    with contextlib.closing(timetag._filled(fill, parts, lambda: True)) as filled:
        for part in filled:
            if not work(part):
                break


@pytest.mark.parametrize("stop", [None, 500], ids=["every part", "work ends at part 500"])
def test_overlap_works_each_part_after_its_fill_and_joins_its_worker(monkeypatch, stop):
    _allow_cpus(monkeypatch, 2)
    # a 1 us switch interval interleaves the two threads as finely as it can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        filled, worked = [], []

        def fill(out):
            filled.append(out)
            if stop is not None and out > stop:
                # a worker still filling once the work has ended is seen
                # filling the rest, or alive after the work returns
                time.sleep(0.01)

        def work(part):
            assert filled[part] == part
            worked.append(part)
            return part != stop

        threads = threading.active_count()
        runner = threading.Thread(target=_work_on, args=(fill, list(range(2000)), work))
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    assert worked == list(range(2000 if stop is None else stop + 1))
    # filled in order, and no more once the work has ended
    assert filled == list(range(len(filled)))
    assert (len(filled) == 2000) == (stop is None)


@pytest.mark.parametrize("n_cpus, n_parts", [(1, 2000), (2, 1)],
                         ids=["one cpu", "one part"])
def test_overlap_on_one_cpu_or_of_one_part_runs_on_this_thread(monkeypatch, n_cpus, n_parts):
    _allow_cpus(monkeypatch, n_cpus)
    threads = threading.active_count()
    for stop in (None, n_parts // 2):
        calls, seen_on = [], set()

        def fill(out):
            seen_on.add(threading.current_thread())
            calls.append(("fill", out))

        def work(part):
            seen_on.add(threading.current_thread())
            calls.append(("work", part))
            return part != stop

        last = n_parts - 1 if stop is None else stop
        _work_on(fill, list(range(n_parts)), work)
        # each part filled, then worked, up to the part whose work says stop
        assert calls == [(step, part) for part in range(last + 1) for step in ("fill", "work")]
        assert seen_on == {threading.current_thread()}
    error = RuntimeError("the last part's fill failed")

    def failing(out):
        if out == n_parts - 1:
            raise error

    worked = []
    with pytest.raises(RuntimeError) as excinfo:
        _work_on(failing, list(range(n_parts)), lambda part: worked.append(part) or True)
    assert excinfo.value is error
    assert worked == list(range(n_parts - 1))
    assert threading.active_count() == threads


def test_parts_are_advanced_on_the_calling_thread_only(monkeypatch):
    # numpy parts, as the chain's: a worker that compared one with == would
    # die, and leave the caller waiting for its fill
    _allow_cpus(monkeypatch, 2)
    advanced_on, worked = [], []

    def parts():
        for k in range(200):
            advanced_on.append(threading.current_thread())
            yield np.full(4, float(k))

    def fill(out):
        out += 0.5

    def work(part):
        worked.append(float(part[0]))
        return True

    threads = threading.active_count()
    runner = threading.Thread(target=_work_on, args=(fill, parts(), work), daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert threading.active_count() == threads
    assert worked == [k + 0.5 for k in range(200)]
    assert advanced_on == [runner] * 200


def test_overlap_raises_the_work_error_over_the_fill_error(monkeypatch):
    _allow_cpus(monkeypatch, 2)
    working = threading.Event()
    fill_error, work_error = RuntimeError("fill"), RuntimeError("work")

    def fill(out):
        # the second fill fails once the first part's work has begun
        if out == 1:
            working.wait(timeout=60)
            raise fill_error

    def work(part):
        working.set()
        time.sleep(0.05)
        raise work_error

    threads = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        _work_on(fill, [0, 1, 2], work)
    assert excinfo.value is work_error
    assert threading.active_count() == threads


def test_a_failed_draw_raises_itself_and_leaves_no_thread(monkeypatch):
    _allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(timetag, "_BLOCK", 4099)
    error = RuntimeError("the third part's draws failed")
    filled_on = _threads_filling(monkeypatch, fail_at=3, error=error)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        # about 100k draws: 25 blocks
        timetag._KeptChain(40e6, 0.005, 1).count(23_300)
    assert excinfo.value is error
    assert threading.active_count() == threads
    # the first block is filled on this thread, the rest ahead on the worker
    this = threading.current_thread()
    assert len(filled_on) == 3 and filled_on[0] is this and this not in filled_on[1:]


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
    # the one buffer the chain's draws fill and turn into ticks in place,
    # sized for the expected count plus 10 sigma; the chain makes no ring
    assert peak < 1.5 * stream.ticks.nbytes


# the default curve's window at the 40 Mcps stream's kept rate
LARGE_STREAM_WINDOW_S = 31.5e-9


def test_curve_filter_holds_its_input_and_less_than_as_much_again():
    stream = generate_poisson_stream(*LARGE_STREAM)
    _, peak = _peak_bytes(apply_dead_time, stream, constant_dead_time_s=LARGE_STREAM_WINDOW_S)
    assert stream.ticks.nbytes + peak < 2.2 * stream.ticks.nbytes


def test_selecting_kept_events_holds_the_result_and_under_a_megabyte():
    stream = generate_poisson_stream(*LARGE_STREAM)
    filtered = apply_dead_time(stream, constant_dead_time_s=LARGE_STREAM_WINDOW_S)
    kept = np.zeros(len(stream), dtype=bool)
    kept[np.searchsorted(stream.ticks, filtered.ticks)] = True
    selected, peak = _peak_bytes(timetag._select, stream.ticks, kept)
    assert np.array_equal(selected, filtered.ticks)
    # one block's indices and values beside the result
    assert peak < selected.nbytes + 1_000_000


@pytest.mark.parametrize("duration", [0.05, 0.2])
def test_sweep_holds_a_few_blocks_at_any_duration(duration):
    # the README sweep's largest rate, at its duration and four times it;
    # the first draw imports numpy.random's modules
    timetag.generate_poisson_stream(1e3, 1e-3, seed=0)
    _, peak = _peak_bytes(sweep_dead_time, [40e6], default_dead_time_curve(), duration,
                          0.5e-9, 7)
    # one chain: its ring of four blocks (the two it holds, one filled
    # ahead and a spare), one block's prefix sums and the slot counts and
    # their temporaries (0.2 MB each), 2.8 MB in all; a chain that held
    # every gap traced 9.5 and 34.4 MB
    assert peak < 6 * 8 * timetag._BLOCK


def test_histogram_holds_one_block_of_gaps():
    stream = generate_poisson_stream(*LARGE_STREAM)
    _, peak = _peak_bytes(interarrival_histogram, stream)
    # one _BLOCK of gaps (0.5 MB), binned in place, and its out-of-range
    # mask, whatever the stream's 16 MB
    assert peak < 1_000_000


def test_reading_a_digit_only_file_holds_its_ticks_and_a_few_pieces(tmp_path):
    path = tmp_path / "tags.txt"
    write_timestamps(generate_poisson_stream(1e7, 0.05, seed=94), path)
    stream, peak = _peak_bytes(read_timestamps, path)
    # the ticks as they grow (by a sixteenth at a time), and beside them the
    # read buffer, one piece and its block's ticks and words (3.6 pieces)
    assert peak < 1.1 * stream.ticks.nbytes + 4 * timetag._PIECE


def test_reading_a_crlf_file_line_by_line_holds_its_ticks_and_a_few_pieces(tmp_path):
    path = tmp_path / "tags.txt"
    write_timestamps(generate_poisson_stream(1e7, 0.05, seed=94), path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    stream, peak = _peak_bytes(read_timestamps, path)
    # the ticks, and one piece and its lines as they are read (3.6 pieces)
    assert peak < 1.1 * stream.ticks.nbytes + 4 * timetag._PIECE


@pytest.mark.parametrize("pieces", [1, 4, 16])
def test_histogram_of_a_file_holds_a_few_pieces_whatever_its_size(tmp_path, pieces):
    # lines of 10 digits and an LF
    ticks = 10**9 + 1000 * np.arange(pieces * timetag._PIECE // 11)
    path = tmp_path / "tags.txt"
    write_timestamps(TimestampStream(ticks, float(ticks[-1]) * TICK_S), path)
    assert path.stat().st_size > (pieces - 1) * timetag._PIECE
    (count, _, _), peak = _peak_bytes(read_interarrival_histogram, path)
    assert count == ticks.size
    # the read buffer, one piece, its block's ticks and words, those ticks
    # behind the last of the block before, and the histogram's gaps (4.3 pieces)
    assert peak < 5 * timetag._PIECE


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
    # up to 18 digits the bulk parse may take the file; 19 to 25 it must not.
    # 8, 9, 16 and 17 digits put a line's first digit at the edge of a word,
    # and short first lines leave no room for a word before them
    digits = draw(st.sampled_from([1, 7, 8, 9, 16, 17, 18, 25]))
    ticks = sorted(draw(st.lists(st.integers(0, 10**digits - 1), max_size=12, unique=True)))
    form = draw(st.sampled_from(["digits", "zero-padded", "many runs", "line forms"]))
    newline = "\n"
    if form == "digits":
        # the form write_timestamps writes and the bulk parse takes
        lines = [str(tick) for tick in ticks]
    elif form == "zero-padded":
        # widths that rise and fall, past 18 characters too: the bulk parse
        # takes a piece only while its rows stay within 18 and never narrow
        lines = [str(tick).zfill(draw(st.integers(1, 25))) for tick in ticks]
    elif form == "many runs":
        # every line a run of its own, 10 or 20 characters and one more on
        # every other line: rows that narrow, which only the line reader takes
        step, width = draw(st.integers(1, 10**6)), draw(st.sampled_from([10, 20]))
        lines = [str(i * step).zfill(width + i % 2) for i in range(draw(st.integers(60, 70)))]
    else:
        lines = [draw(st.one_of(
            st.sampled_from(_LINE_FORMS).map(lambda form, tick=tick: form.format(tick)),
            st.text(alphabet="0123456789+-_ \t\r٣", max_size=25),
        )) for tick in ticks]
        newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (newline.join(lines) + draw(st.sampled_from(["", newline]))).encode()


def _read_and_histogram(path, bin_width_s, max_gap_s):
    """read_interarrival_histogram by way of the whole stream."""
    stream = read_timestamps(path)
    return len(stream), stream.duration_s, interarrival_histogram(stream, bin_width_s, max_gap_s)


def _histogram_outcome(read, path, bins):
    try:
        count, duration_s, hist = read(path, *bins)
    except Exception as exc:  # the exception is the outcome under comparison
        return type(exc), str(exc)
    return count, duration_s, hist.counts.tobytes()


@settings(max_examples=500, deadline=None)
@given(raw=timestamp_files(), piece=st.integers(1, 24),
       bins=st.sampled_from([(0.5e-9, 200e-9), (1e-12, 1e-9)]))
def test_read_matches_line_reader(tmp_path_factory, raw, piece, bins):
    path = tmp_path_factory.getbasetemp() / "read_property_tags.txt"
    path.write_bytes(raw)
    expected = _outcome(_read_by_line, path)
    assert _outcome(read_timestamps, path) == expected
    whole = _histogram_outcome(_read_and_histogram, path, bins)
    assert _histogram_outcome(read_interarrival_histogram, path, bins) == whole
    # pieces of a few bytes: lines and runs of equal width cross their edges
    with mock.patch.object(timetag, "_PIECE", piece):
        assert _outcome(read_timestamps, path) == expected
        assert _histogram_outcome(read_interarrival_histogram, path, bins) == whole


# the fault the whole file gives, with its line number: the first parse fault
# in file order, which wins over an order fault on an earlier line; an order
# fault only when every line parses
@pytest.mark.parametrize("raw, message", [
    (b"1000\n999\n" + "".join(f"{t}\n" for t in range(2000, 2010)).encode() + b"12a\n",
     "malformed timestamp at line 13: '12a'"),
    (b"2\n1\n3\n-4\n", "negative timestamp at line 4: '-4'"),
    (b"2\n1\n3\n" + b"9" * 20 + b"\n", "timestamp at line 4 is above 2**63 - 1 (20 characters)"),
    (b"1\n" + b"7" * 30 + b"x\n", f"malformed timestamp at line 2: '{'7' * 30}x'"),
    (b"1\n" + b"2".zfill(30) + b"\n1\n", "timestamps must be strictly ascending"),
    (b"1\r\n2\r\n\r\n3\r\n+x\r\n", "malformed timestamp at line 5: '+x'"),
    (b"1\r2\r\r3\rx\r", "malformed timestamp at line 5: 'x'"),
    (b"1\r2\n3\r4\nx\n", "malformed timestamp at line 5: 'x'"),
    (b"1000\n1000\n", "timestamps must be strictly ascending"),
], ids=["malformed after an order fault", "negative after an order fault",
        "above int64 after an order fault", "malformed line longer than a piece",
        "order fault after a line longer than a piece", "CRLF", "CR only", "CR and LF",
        "equal ticks either side of a piece edge"])
@pytest.mark.parametrize("piece", [1, 5, 8, timetag._PIECE])
def test_reading_in_pieces_keeps_the_first_fault(tmp_path, monkeypatch, raw, message, piece):
    path = tmp_path / "tags.txt"
    path.write_bytes(raw)
    monkeypatch.setattr(timetag, "_PIECE", piece)
    for read in (read_timestamps, read_interarrival_histogram):
        with pytest.raises(ValueError) as excinfo:
            read(path)
        assert str(excinfo.value) == f"{path}: {message}"


# a bad line is quoted whole up to 40 characters, else by its first 40 and
# its length; the first read cuts a line of 1.3 MB, and two more are held
# and joined with the third up to its LF
@pytest.mark.parametrize("line, message", [
    (b"x" * 40, f"malformed timestamp at line 2: '{'x' * 40}'"),
    (b"x" * 41, f"malformed timestamp at line 2: '{'x' * 40}'... (41 characters)"),
    (b"-" + b"9" * 39, f"negative timestamp at line 2: '-{'9' * 39}'"),
    (b"-" + b"9" * 40, f"negative timestamp at line 2: '-{'9' * 39}'... (41 characters)"),
    (b"x" * 1_300_000, f"malformed timestamp at line 2: '{'x' * 40}'... (1300000 characters)"),
], ids=["malformed, 40 characters", "malformed, 41 characters", "negative, 40 characters",
        "negative, 41 characters", "malformed, three reads"])
def test_a_bad_line_is_quoted_up_to_40_characters(tmp_path, line, message):
    path = tmp_path / "tags.txt"
    path.write_bytes(b"1\n" + line + b"\n")
    for read in (read_timestamps, read_interarrival_histogram):
        with pytest.raises(ValueError) as excinfo:
            read(path)
        assert str(excinfo.value) == f"{path}: {message}"


def test_long_zero_padded_line_reads_as_the_line_reader_reads_it(tmp_path):
    # int() refuses more than 4300 digits unless the interpreter is told otherwise
    path = tmp_path / "tags.txt"
    path.write_bytes(b"1\n" + b"5".zfill(5000) + b"\n")
    assert _outcome(read_timestamps, path) == _outcome(_read_by_line, path)


def test_digit_only_file_across_blocks_and_word_edges(tmp_path):
    # runs of 8, 9, 16 and 17 digits, each longer than _BLOCK rows
    rows = 70_000
    assert rows > timetag._BLOCK
    steps = 3 * np.arange(2 * rows)
    ticks = np.concatenate([10**8 - 3 * rows + steps, 10**16 - 3 * rows + steps])
    duration_s = float(ticks[-1]) * TICK_S
    path = tmp_path / "tags.txt"
    write_timestamps(TimestampStream(ticks, duration_s), path)
    assert path.read_bytes() == "".join(f"{tick}\n" for tick in ticks.tolist()).encode()
    assert (_outcome(read_timestamps, path) == _outcome(_read_by_line, path)
            == (ticks.tobytes(), duration_s))


def test_run_longer_than_a_block_in_one_piece(tmp_path):
    # 6-digit rows (ticks below 1 us): with 5-digit rows, the only ascending
    # rows whose run in a 512 KB piece can exceed _BLOCK rows
    ticks = np.arange(100_000, 170_000)
    assert ticks.size > timetag._BLOCK
    path = tmp_path / "tags.txt"
    write_timestamps(TimestampStream(ticks, float(ticks[-1]) * TICK_S), path)
    assert path.stat().st_size < timetag._PIECE
    assert (_outcome(read_timestamps, path) == _outcome(_read_by_line, path)
            == (ticks.tobytes(), float(ticks[-1]) * TICK_S))
    for bins in [(0.5e-9, 200e-9), (1e-12, 1e-9)]:
        with mock.patch.object(timetag, "_ticks_in_bulk", return_value=None):
            whole = _histogram_outcome(_read_and_histogram, path, bins)
        assert _histogram_outcome(read_interarrival_histogram, path, bins) == whole


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
], ids=["CRLF", "CR without a final one", "blank lines", "blank first line",
        "spaces and tabs", "plus sign", "underscores", "10**18", "int64 maximum",
        "Arabic-Indic digit", "one float apart above 2**53"])
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

    def refuse(raw, path, lines):
        raise AssertionError("the line reader ran on a digit-only LF file")

    def record(raw, path, lines):
        calls.append(path)
        return line_reader(raw, path, lines)

    monkeypatch.setattr(timetag, "_ticks_by_line", refuse)
    bulk = read_timestamps(lf)
    # ticks of 6 to 9 digits: four runs of equal-width lines
    assert len({len(str(tick)) for tick in stream.ticks.tolist()}) == 4
    unterminated = tmp_path / "unterminated.txt"
    unterminated.write_bytes(lf.read_bytes()[:-1])
    assert read_timestamps(unterminated).ticks.tobytes() == bulk.ticks.tobytes()
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


# which reader takes a file at each edge of what the bulk parse takes: rows
# of 1 to 18 digits whose widths never narrow
@pytest.mark.parametrize("raw, ticks, by_line", [
    (b"1\n\n2\n", [1, 2], True),
    # 25 characters, though a value below 10**18
    (b"0\n0000000000000000000001000\n2000\n", [0, 1000, 2000], True),
    (b"1\n1000000000000000000\n", [1, 10**18], True),
    (b"0\n1000\n2000", [0, 1000, 2000], False),
    ("".join(f"{10**k}\n" for k in range(18)).encode(), [10**k for k in range(18)], False),
    # 65 lines of alternating width: every other row narrows
    ("".join(f"{t:0{2 + t % 2}d}\n" for t in range(65)).encode(), list(range(65)), True),
    (b"1\n" + b"2".zfill(640) + b"\n", [1, 2], True),
    (b"1\n" + b"2".zfill(641) + b"\n", [1, 2], True),
], ids=["blank line", "zero-padded", "10**18", "no final LF", "18 width runs",
        "rows that narrow", "640 characters", "641 characters"])
def test_bulk_parse_guard_sends_each_reliance_to_its_reader(tmp_path, monkeypatch, raw,
                                                           ticks, by_line):
    path = tmp_path / "tags.txt"
    path.write_bytes(raw)
    line_reader = timetag._ticks_by_line
    calls = []

    def record(raw, path, lines):
        calls.append(path)
        return line_reader(raw, path, lines)

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
