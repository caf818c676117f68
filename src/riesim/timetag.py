"""Synthetic timestamp streams and dead-time extraction from inter-arrival histograms.

This reproduces the bench methodology for measuring t_d(lambda) without
hardware: load a detector with Poisson arrivals at a known true rate, keep
only the events outside the recovery window of the previous registered
event, histogram the kept inter-arrival gaps, and read the dead time off the
onset of the first populated bin.  Sweeping the true rate recovers the full
rate-dependent dead-time curve.  The sweep draws each kept stream from its
renewal law (_KeptChain), block by block from its seed as its counts ask,
and generate_poisson_stream reads the raw stream off the same law at a
window of no length; apply_dead_time is the event filter the law describes.

A stream holds int64 ticks of 1 ps, the unit of the on-disk format (one
integer per line), on the generator's 8 ps tagger grid.  Seconds appear only
at the edges (duration, rate, dead window, bins, CSVs), so the filter and the
histogram decide a gap equal to the window or on a bin edge exactly.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import io
import itertools
import math
import queue
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._cpus import two_cpus
from .detector import DeadTimeCurve, observed_rate

__all__ = [
    "TimestampStream",
    "InterArrivalHistogram",
    "SweepPoint",
    "InsufficientDataError",
    "EstimationError",
    "FixedPointError",
    "generate_poisson_stream",
    "apply_dead_time",
    "expected_events",
    "histogram_bins",
    "interarrival_histogram",
    "estimate_dead_time",
    "sweep_dead_time",
    "read_timestamps",
    "read_interarrival_histogram",
    "write_timestamps",
    "write_sweep_csv",
]

TICK_S = 1e-12
RESOLUTION_TICKS = 8
DEFAULT_BIN_WIDTH_S = 0.5e-9
DEFAULT_MAX_GAP_S = 200e-9
DEFAULT_MIN_COUNT = 2
# the README and bench histograms have 400 bins; the cap keeps a mistyped
# max_gap / bin_width from asking numpy for terabytes
MAX_HISTOGRAM_BINS = 1 << 20
# the README and bench streams hold at most 2.0M events; the cap keeps a
# mistyped rate or duration from asking numpy for terabytes of gaps
MAX_STREAM_EVENTS = 1 << 27
# generated and filtered ticks stay below 2**62 (53 days): tick + window fits int64
MAX_STREAM_TICK = 1 << 62
# the widest row the bulk parse takes, read as three 8-byte words: every
# value it reads lies below 10**18
_BULK_DIGITS = 18
# bytes read from a timestamp file at a time (_pieces): beside what it keeps,
# a read holds its bytes, the piece cut from them and that piece's ticks and
# scratch, a few pieces whatever the file's size (a line longer than a piece
# is held whole, as the reads it spans)
_PIECE = 1 << 19
# the characters of a bad line an error quotes (_quoted)
_QUOTED = 40
_LF = ord("\n")
_ZERO = ord("0")
# write_timestamps: where a tick gains a digit, and the digits of 0 to 99
_POWERS_OF_TEN = np.array([10**k for k in range(1, 19)], dtype=np.int64)
_DIGIT_PAIRS = np.frombuffer("".join(f"{pair:02d}" for pair in range(100)).encode(),
                             dtype=np.uint16)
# the sweep's rate-dependent fixed point: iteration cap
_FIXED_POINT_ITERATIONS = 20
# _chase probes this many events past each pointer before it searches; with
# fewer live pointers than _PROBE_MIN_LIVE a step's numpy calls cost more than
# its searches, so it searches at once
_PROBE_EVENTS = 4
_PROBE_MIN_LIVE = 64
# elements each blockwise pass takes per numpy call (kept ticks placed,
# events tested for a segment start, pointers chased, kept events selected,
# gaps drawn or binned, lines written): its temporaries stay near 0.5 MB
# instead of the length of the stream, and its Python loops run n / _BLOCK
# times
_BLOCK = 1 << 16
# the blocks of gaps a kept chain holds (_KeptChain): its last _HELD
_HELD = 2
# generate_poisson_stream's ticks buffer holds the expected count and this
# many standard deviations; a stream longer still goes on in blocks of its own
_TICKS_SIGMAS = 10.0


class InsufficientDataError(ValueError):
    """Too few timestamps to carry out the requested analysis."""


class EstimationError(ValueError):
    """No histogram bin qualifies as the dead-time onset."""


class FixedPointError(RuntimeError):
    """Self-consistent rate-dependent filtering failed to converge."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = list(trace)


@dataclass(frozen=True)
class TimestampStream:
    """Strictly increasing int64 ticks t of TICK_S over [0, duration]: the
    duration in seconds as given, finite and >= 0, and t * TICK_S <= duration_s."""

    ticks: np.ndarray
    duration_s: float

    def __post_init__(self):
        if not (math.isfinite(self.duration_s) and self.duration_s >= 0):
            raise ValueError(f"duration must be finite and >= 0, got {self.duration_s!r}")
        t = np.asarray(self.ticks)
        if t.ndim != 1 or (t.size and t.dtype.kind not in "iu"):
            raise ValueError("ticks must be a 1-d array of integers")
        t = t.astype(np.int64, copy=False)
        if t.size and (not _ascending(t) or t[0] < 0 or t[-1] * TICK_S > self.duration_s):
            raise ValueError("ticks must be strictly increasing within [0, duration]")
        object.__setattr__(self, "ticks", t)

    def __len__(self) -> int:
        return int(self.ticks.size)

    @property
    def observed_rate_cps(self) -> float:
        return len(self) / self.duration_s if self.duration_s > 0 else 0.0


@dataclass(frozen=True)
class InterArrivalHistogram:
    """Counts of consecutive-gap durations in uniform bins starting at zero,
    of a finite width > 0."""

    bin_width_s: float
    counts: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.bin_width_s) and self.bin_width_s > 0):
            raise ValueError(f"bin width must be finite and > 0, got {self.bin_width_s!r}")
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))

    def write_csv(self, path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_lower_edge_s", "count"])
            for i, count in enumerate(self.counts):
                writer.writerow([repr(i * self.bin_width_s), int(count)])


def _ascending(t: np.ndarray) -> bool:
    """Whether t strictly increases, tested _BLOCK pairs at a time."""
    for start in range(0, t.size - 1, _BLOCK):
        pairs = t[start:start + _BLOCK + 1]
        if np.any(pairs[1:] <= pairs[:-1]):
            return False
    return True


def _ticks_of(seconds: float) -> float:
    """`seconds` in ticks, the one conversion of a time given in seconds: a
    quotient within 1e-12 (relative, far above float rounding) of a whole
    count is that count, so 0.5e-9 s is 500 ticks, not 500.00000000000006."""
    exact = seconds / TICK_S
    nearest = float(np.rint(exact))
    return nearest if abs(exact - nearest) <= 1e-12 * abs(exact) else exact


def _window_ticks(dead_s: float) -> int:
    """The dead window in whole ticks: a gap of g ticks is at least dead_s iff
    g >= ceil(_ticks_of(dead_s)); capped at MAX_STREAM_TICK, past every gap."""
    return math.ceil(min(_ticks_of(dead_s), MAX_STREAM_TICK))


def expected_events(beta_cps: float, duration_s: float) -> float:
    """Expected event count beta * duration of a Poisson stream; ValueError
    unless beta is finite and > 0 and the duration finite and >= 0, above
    MAX_STREAM_EVENTS, or when the duration reaches MAX_STREAM_TICK."""
    if not (math.isfinite(beta_cps) and beta_cps > 0):
        raise ValueError(f"true rate must be finite and > 0, got {beta_cps!r}")
    if not (math.isfinite(duration_s) and duration_s >= 0):
        raise ValueError(f"duration must be finite and >= 0, got {duration_s!r}")
    if not duration_s / TICK_S < MAX_STREAM_TICK:
        raise ValueError(f"the stream would last {duration_s:.6g} s, more than the limit of "
                         f"{MAX_STREAM_TICK * TICK_S:.6g} s")
    expected = beta_cps * duration_s
    if not expected <= MAX_STREAM_EVENTS:
        raise ValueError(
            f"the stream would hold {expected:.6g} events, more than the limit of "
            f"{MAX_STREAM_EVENTS}"
        )
    return expected


def generate_poisson_stream(beta_cps: float, duration_s: float, seed: int) -> TimestampStream:
    """Homogeneous Poisson arrivals at true rate beta over [0, duration],
    deterministic per seed, on the tagger grid: the held slots, every one of
    which the kept chain keeps at a window of no length (_KeptChain)."""
    return TimestampStream(_KeptChain(beta_cps, duration_s, seed, 0.0).ticks(0), duration_s)


def _chase(ticks: np.ndarray, dead: int, kept: np.ndarray, cur: np.ndarray,
           end: np.ndarray) -> None:
    """Walk the chains that start at the kept events `cur` up to their segment
    ends `end`, all in lockstep, and mark every event they land on in `kept`.

    Each step maps every live pointer i to the first j with
    t[j] >= t[i] + dead, the sequential rule's comparison (j > i, since the
    window is at least one tick), and drops the pointers that reached their
    segment's end.  The step first probes the next _PROBE_EVENTS events one
    at a time, since at 1-40 Mcps and 20-30 ns windows almost every next kept
    event lies within them; only the pointers still short of their window after the
    probe search the stream (searchsorted).  With fewer than _PROBE_MIN_LIVE
    live pointers, as in the long walks of a window much longer than the
    mean gap, every pointer searches at once.
    """
    while cur.size:
        reach = ticks[cur] + dead
        if cur.size < _PROBE_MIN_LIVE:
            nxt = np.searchsorted(ticks, reach, side="left")
        else:
            # the events after i that are short of the window come first, so
            # counting them gives the first one that is not; an index past
            # the stream reads its last event, short of the window whenever
            # that index is reached, so such a pointer goes on to the search
            nxt = cur + 1
            for _ in range(_PROBE_EVENTS):
                nxt += np.take(ticks, nxt, mode="clip") < reach
            short = np.flatnonzero(nxt > cur + _PROBE_EVENTS)
            nxt[short] = np.searchsorted(ticks, reach[short], side="left")
        # compress is faster than a boolean gather, which branches on each
        # pointer; it builds 8-byte indices as a take would, for at most
        # _BLOCK pointers a step
        live = nxt < end
        cur = nxt.compress(live)
        end = end.compress(live)
        kept[cur] = True


def _kept_mask(ticks: np.ndarray, dead: int) -> np.ndarray:
    """The kept set of _filter_constant(ticks, dead) as a mask: one full pass."""
    n = ticks.size
    if n == 0 or dead <= 0:
        return np.ones(n, dtype=bool)
    kept = np.empty(n, dtype=bool)
    kept[0] = True
    # the segment starts, _BLOCK events at a time
    for start in range(1, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        np.greater_equal(ticks[start:stop], ticks[start - 1:stop - 1] + dead,
                         out=kept[start:stop])
    # each segment runs from its start to the next one, the last to n; the
    # segments are independent, so _BLOCK of them at a time are chased
    bounds = np.flatnonzero(np.append(kept, True))
    starts, ends = bounds[:-1], bounds[1:]
    for start in range(0, starts.size, _BLOCK):
        _chase(ticks, dead, kept, starts[start:start + _BLOCK], ends[start:start + _BLOCK])
    return kept


def _filter_constant(ticks: np.ndarray, dead: int) -> np.ndarray:
    """Non-paralyzable thinning: keep an event iff it lies at least dead
    ticks past the previously kept event.  Suppressed events never extend the window.

    The sequential rule walks one event at a time: from a kept event i the
    next kept one is the first j with t[j] >= t[i] + dead.  This kernel
    gets the same kept set without that walk.

    Segments.  If t[i] >= t[i-1] + dead, event i is kept whatever came
    before: every earlier kept event k has t[k] <= t[i-1], so its window
    t[k] + dead ends no later than t[i], and the walk cannot jump past i
    (it always lands on the first event at or past the window's end).  The
    first event is kept too.  These always-kept events cut the stream into
    independent segments; the walk enters each one at its first event and
    leaves it exactly at the next segment's first event.

    Chase.  The walks of _BLOCK segments at a time advance in lockstep
    (_chase), so the number of numpy steps is the longest chain in
    any one segment of each block, not the stream length.
    """
    return _select(ticks, _kept_mask(ticks, dead))


def _select(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """values[mask] for a 1-d `values` and a boolean `mask` as long, gathered
    by index one _BLOCK at a time, so its only temporaries are one block's
    indices and values."""
    # a boolean gather branches on each element, which mispredicts at the
    # filter's ~45 % kept density; flatnonzero and take do not
    out = np.empty(np.count_nonzero(mask), dtype=values.dtype)
    size = 0
    for start in range(0, mask.size, _BLOCK):
        block = values[start:start + _BLOCK].take(np.flatnonzero(mask[start:start + _BLOCK]))
        out[size:size + block.size] = block
        size += block.size
    return out


def apply_dead_time(stream: TimestampStream, *, constant_dead_time_s: float) -> TimestampStream:
    """Suppress events inside a recovery window of constant_dead_time_s: an
    event is kept iff it lies at least the window (in whole ticks,
    _window_ticks) past the previously kept one."""
    t = stream.ticks
    if t.size and t[-1] >= MAX_STREAM_TICK:
        raise ValueError(f"the dead-time filter takes ticks below 2**62, got {t[-1]}")
    # NaN fails this test; an infinite window keeps only the first event
    if not constant_dead_time_s >= 0:
        raise ValueError(f"dead time must be >= 0, got {constant_dead_time_s!r}")
    return TimestampStream(_filter_constant(t, _window_ticks(constant_dead_time_s)),
                           stream.duration_s)


def histogram_bins(bin_width_s: float, max_gap_s: float) -> int:
    """Bins of width bin_width_s that cover [0, max_gap_s]; ValueError unless
    both are finite and > 0, above MAX_HISTOGRAM_BINS, if either is not a
    whole number of ticks, or if the bins' upper edge passes 2**63 - 1 ticks,
    past which int64 gaps cannot be binned."""
    for name, seconds in (("bin width", bin_width_s), ("max gap", max_gap_s)):
        if not (math.isfinite(seconds) and seconds > 0):
            raise ValueError(f"{name} must be finite and > 0, got {seconds!r}")
    bin_ticks, max_ticks = _ticks_of(bin_width_s), _ticks_of(max_gap_s)
    n_bins = np.ceil(max_ticks / bin_ticks)
    if not n_bins <= MAX_HISTOGRAM_BINS:
        raise ValueError(
            f"the histogram would need {n_bins:.6g} bins, more than the limit of "
            f"{MAX_HISTOGRAM_BINS}"
        )
    if not (bin_ticks.is_integer() and max_ticks.is_integer()):
        raise ValueError(f"bin width {bin_width_s!r} s and max gap {max_gap_s!r} s must be "
                         f"whole numbers of picoseconds")
    edge = int(n_bins) * int(bin_ticks)
    if edge > 2**63 - 1:
        raise ValueError(f"the histogram's upper edge must be at most 2**63 - 1 ps, got {edge} ps")
    return int(n_bins)


def interarrival_histogram(
    stream: TimestampStream,
    bin_width_s: float = DEFAULT_BIN_WIDTH_S,
    max_gap_s: float = DEFAULT_MAX_GAP_S,
) -> InterArrivalHistogram:
    """Histogram of adjacent gaps g <= max_gap in bins k * w <= g < (k + 1) * w
    of width w: a gap on a bin edge counts in the upper bin, so one equal to
    max_gap on the last bin's upper edge counts in none.  The ticks are
    folded _BLOCK at a time (_fold).

    No command calls it: it is the tests' oracle for read_interarrival_histogram
    and the kept chain's histogram, and perfbench/tracer.py wraps it by name."""
    x = stream.ticks
    _binning(bin_width_s, max_gap_s, x.size)  # its errors, before any gap is made
    blocks = (x[lo:lo + _BLOCK] for lo in range(0, x.size, _BLOCK))
    counts = _fold(blocks, bin_width_s, max_gap_s)[3]
    return InterArrivalHistogram(bin_width_s=bin_width_s, counts=counts[:-1])


def _binning(bin_width_s: float, max_gap_s: float, events: int) -> tuple[int, int, int]:
    """The bins of interarrival_histogram over `events` timestamps: their
    number, their width in ticks and the tick limit below which a gap is
    binned.  ValueError on bins it refuses, then InsufficientDataError below
    two timestamps."""
    n_bins = histogram_bins(bin_width_s, max_gap_s)
    if events < 2:
        raise InsufficientDataError(f"insufficient data: need at least 2 timestamps for an "
                                    f"inter-arrival histogram, got {events}")
    bin_ticks = int(_ticks_of(bin_width_s))
    return n_bins, bin_ticks, min(int(_ticks_of(max_gap_s)) + 1, n_bins * bin_ticks)


def _bin(gaps: np.ndarray, binning: tuple[int, int, int], counts: np.ndarray) -> None:
    """Add the int64 tick gaps `gaps` into `counts` (_binning's bins and one
    more), binned in place: every gap out of range goes to the extra bin."""
    n_bins, bin_ticks, limit = binning
    gaps[gaps >= limit] = n_bins * bin_ticks
    counts += np.bincount(np.floor_divide(gaps, bin_ticks, out=gaps), minlength=n_bins + 1)


def _fold(blocks, bin_width_s: float, max_gap_s: float):
    """The tick count, the last tick, whether the ticks strictly increase and
    the counts of _binning's bins and one more (None if no gap was binned)
    of the int64 tick blocks `blocks`, taken in order.

    Each block's gaps, the first behind the last tick of the block before,
    are made in one buffer, grown only for a block longer than itself,
    tested for order there and binned in place (_bin).  An order fault stops
    the binning but not the count."""
    count = 0
    ordered = True
    binning = counts = last = None
    buffer = np.empty(0, dtype=np.int64)
    for block in blocks:
        if ordered and block.size:
            if buffer.size < block.size:
                buffer = np.empty(block.size, dtype=np.int64)
            gaps = buffer[:block.size if count else block.size - 1]
            if count:
                gaps[0] = block[0] - last
            np.subtract(block[1:], block[:-1], out=gaps[gaps.size - block.size + 1:])
            ordered = not gaps.size or gaps.min() > 0
            if ordered and gaps.size:
                if binning is None:
                    binning = _binning(bin_width_s, max_gap_s, 2)
                    counts = np.zeros(binning[0] + 1, dtype=np.int64)
                _bin(gaps, binning, counts)
        count += block.size
        if block.size:
            last = int(block[-1])
    return count, last, ordered, counts


def _filled(fill, parts, ahead):
    """Each of the iterable `parts` in order, once fill(out=part) has
    returned for it; a fill's exception is raised at its part, as itself.

    Only this thread advances `parts`.  With two CPUs it hands the part
    after the next one to a worker thread whenever ahead(), asked as the
    caller asks for the next part, says so, and the worker fills it while
    the caller works on the next one: at most one part ahead of the one the
    caller works on.  Every other part (each one on one CPU) is filled on
    this thread when it is asked for.  Once the caller stops (at the end,
    or by closing this iterator, as contextlib.closing does on a break or
    an error) no more parts are handed over, and the worker is joined; an
    error of the caller's then wins over a fill's."""
    parts = iter(parts)
    overlap = two_cpus()
    # the parts handed to the worker, then None; for each, None once it is
    # filled, or the exception its fill raised
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()
    worker = None

    def fill_each():
        # not iter(todo.get, None), which would compare a part with ==
        while (part := todo.get()) is not None:
            try:
                fill(out=part)
            except BaseException as exc:
                done.put(exc)
                return
            done.put(None)

    try:
        # the next part, and whether it was handed to the worker
        part, handed = next(parts, None), False
        while part is not None:
            if not handed:
                fill(out=part)
            # the part after this one is handed over before this one is
            # waited for, so that a worker still filling this one goes
            # straight on to it
            after = next(parts, None) if overlap and ahead() else None
            if after is not None:
                if worker is None:
                    worker = threading.Thread(target=fill_each)
                    worker.start()
                todo.put(after)
            if handed and (failed := done.get()) is not None:
                raise failed
            yield part
            handed = after is not None
            part = after if handed else next(parts, None)
    finally:
        if worker is not None:
            todo.put(None)
            worker.join()


def estimate_dead_time(hist: InterArrivalHistogram, min_count: int = DEFAULT_MIN_COUNT) -> float:
    """Dead time from the onset of the first statistically populated bin.

    Returns the lower edge of the first bin holding at least `min_count`
    gaps.  min_count > 1 guards against a stray outlier defining the onset.
    When no gap is shorter than the dead time, as behind a non-paralyzable
    detector, the estimate is at least the lower edge of the bin holding
    the dead time, so less than one bin width below it.  It has no such
    bound above: the bins just past the dead time may hold fewer than
    `min_count` gaps.  At 1 Mcps for 10 ms, with 0.5 ns bins and a 23.3 ns
    window, it reads 23.5 ns with probability 0.40 and 24.0 ns with
    probability 0.018.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    qualifying = np.nonzero(hist.counts >= min_count)[0]
    if qualifying.size == 0:
        raise EstimationError(
            f"no histogram bin reaches min_count={min_count}; "
            "acquire more data or lower the threshold"
        )
    return float(qualifying[0] * hist.bin_width_s)


@dataclass(frozen=True)
class SweepPoint:
    """One recovered point of the dead-time curve."""

    lambda_obs_cps: float
    dead_time_est_s: float


class _KeptChain:
    """The events a non-paralyzable detector keeps of a Poisson stream at
    true rate beta over [0, duration], drawn from their renewal law (Müller,
    NIM 112 (1973) 47) instead of filtered out of a raw stream.

    On the tagger grid the raw stream holds each slot independently with
    probability q = 1 - exp(-beta * 8 ps).  A window of w ticks keeps the
    first held slot d = max(1, ceil(w / 8)) or more slots past a kept event,
    so kept gaps are iid d + G slots, G = floor(E / 8 ps) ~ Geom(q) for E
    exponential of mean 1 / beta.  The first event is the first arrival,
    rounded to the nearest slot (slot 0 is half as wide).  Event i lies at
    slot first + i * d + (the sum of the first i gaps G) at every window.
    The last slot is held with probability q, as if whole, though part of it
    may lie past the duration.  At a window of no length d = 1 keeps every
    held slot: the raw stream, generate_poisson_stream's ticks.

    The gaps are drawn from the seed in blocks of _BLOCK, from gap 0, only
    as they are needed: count() draws until the chain passes the last slot
    at its window (_drawn).  Of each block the chain keeps the generator's
    state before it (`_states`) and its total: `_before[b]` sums the gaps
    before block b, the last entry all of them.  `_counts` counts the gaps
    by slot, those of `_top` = ceil(max_gap_s / 8 ps) slots or more
    together, past max_gap_s at any window; with `_top` capped at _BLOCK the
    histogram bins longer gaps one by one.  The chain holds the gaps of its
    last _HELD blocks only, in a ring of buffers made at its first count; a
    block it no longer holds is drawn again from its state (_gaps).
    """

    def __init__(self, beta_cps: float, duration_s: float, seed: int,
                 max_gap_s: float = DEFAULT_MAX_GAP_S):
        expected_events(beta_cps, duration_s)  # the generator's checks of its arguments
        self._seed, self._beta_cps = seed, beta_cps
        # the mean of E / 8 ps: infinite at a rate too small to draw an arrival
        self._mean_slots = 1.0 / beta_cps / (RESOLUTION_TICKS * TICK_S)
        # the last slot, whose tick * TICK_S <= duration
        last = int(duration_s / (RESOLUTION_TICKS * TICK_S)) + 1
        while last * RESOLUTION_TICKS * TICK_S > duration_s:
            last -= 1
        self.last = last
        self._max_gap_s = max_gap_s
        self._block = _BLOCK
        # 0 at a max gap the histogram refuses (NaN, not positive)
        top = _ticks_of(max_gap_s) / RESOLUTION_TICKS
        self._top = math.ceil(min(top, _BLOCK)) if top > 0 else 0
        self._rng = np.random.default_rng(seed)
        arrival = self._rng.exponential(1.0 / beta_cps)
        self.first = (int(np.rint(arrival / (RESOLUTION_TICKS * TICK_S)))
                      if arrival <= duration_s else last + 1)
        self._states = []
        self._before = [0]
        # the gaps drawn, and whether their draw was cut (_take): no gap follows
        self._size = 0
        self._cut = False
        self._counts = np.zeros(self._top + 1, dtype=np.int64)
        # _HELD + 1 buffers that the blocks fill in turn, and a spare one
        self._ring = None
        # count()'s last block and its gaps' prefix sums
        self._sums = (None, None)

    @staticmethod
    def slots(window: int) -> int:
        """d: the least gap, in slots, that a window of `window` ticks keeps."""
        return max(1, -(-window // RESOLUTION_TICKS))

    def _least(self, window: int) -> int:
        """d, capped at last + 1 (past which every d keeps the first event
        alone) so that d times a count stays within int64."""
        return min(self.slots(window), self.last + 1)

    def _slots(self, gaps: np.ndarray) -> None:
        """Turn draws E / mean into gaps G = floor(E / 8 ps) in place."""
        np.multiply(gaps, self._mean_slots, out=gaps)
        np.floor(gaps, out=gaps)
        # a gap past the last slot ends the chain wherever it starts
        np.minimum(gaps, self.last + 1, out=gaps)

    @staticmethod
    def _cast(slots: np.ndarray) -> np.ndarray:
        """The float gaps `slots` as int64, cast in place."""
        gaps = slots.view(np.int64)
        np.copyto(gaps, slots, casting="unsafe")
        return gaps

    def _slot_counts(self, gaps: np.ndarray) -> np.ndarray:
        """The int64 gaps' counts by slot, those of _top or more together,
        capped in the ring's spare buffer (which may hold the gaps
        themselves), if the chain has a ring."""
        capped = None if self._ring is None else self._ring[-1].view(np.int64)[:gaps.size]
        return np.bincount(np.minimum(gaps, self._top, out=capped), minlength=self._top + 1)

    def _take(self, draws: np.ndarray) -> np.ndarray:
        """The next block's gaps, made of its draws in place; its total is
        kept and, unless _top is 0 (the generator's chain, which bins no
        gap), its slot counts are added into `_counts`."""
        self._slots(draws)
        total = self._before[-1]
        if (total + draws.size * (self.last + 1) >= 2**60
                and total + float(draws.sum()) >= 2**60):
            # only on streams longer than about 20 hours: the gaps up to the
            # first sum past 2**60, so the totals stay below 2**61.  That sum
            # is past the last slot, so no more gaps are drawn
            draws = draws[:np.searchsorted(total + np.cumsum(draws), 2.0**60) + 1]
            self._cut = True
        gaps = self._cast(draws)
        if self._top:
            self._counts += self._slot_counts(gaps)
        self._before.append(total + int(gaps.sum()))
        self._size += gaps.size
        return gaps

    def _drawn(self, d: int, room: int, parts):
        """Draw the chain's next blocks into the buffers `parts` until it
        passes `room` slots past its first event at a least gap of d slots,
        or its draw is cut, and yield each block's gaps as it is taken (_take).

        On two CPUs a worker fills the block after the next one while this
        thread takes the next (_filled), whenever the next one at its mean
        span would leave the chain short.  A block filled ahead that is not
        taken is given back: the generator returns to its state before it,
        so each block is drawn once, in order."""
        def short():
            return not self._cut and self._size * d + self._before[-1] <= room

        if not short():
            return
        rng, states = self._rng, self._states

        def fill(out):
            states.append(rng.bit_generator.state)
            rng.standard_exponential(out=out)

        span = self._block * (d + self._mean_slots)
        try:
            with contextlib.closing(_filled(
                    fill, parts, lambda: self._size * d + self._before[-1] + span <= room)) as filled:
                for draws in filled:
                    yield self._take(draws)
                    if not short():
                        return
        finally:
            taken = len(self._before) - 1
            if len(states) > taken:
                rng.bit_generator.state = states[taken]
                del states[taken:]

    def _gaps(self, block: int) -> np.ndarray:
        """The gaps of `block`: in the ring if it is one of the last _HELD
        taken, else drawn again from the generator's state before it, into
        the spare buffer."""
        size = min(self._block, self._size - block * self._block)
        if block >= len(self._before) - 1 - _HELD:
            return self._ring[block % (_HELD + 1)].view(np.int64)[:size]
        rng = np.random.default_rng()
        rng.bit_generator.state = self._states[block]
        draws = rng.standard_exponential(out=self._ring[-1])
        self._slots(draws)
        return self._cast(draws[:size])

    def count(self, window: int) -> int:
        """The kept events at a window of `window` ticks: those up to the last slot."""
        d, room = self._least(window), self.last - self.first
        if room < 0:
            return 0
        if self._ring is None:
            self._ring = np.empty((_HELD + 2, self._block))
        # the blocks fill the first _HELD + 1 buffers in turn: when the
        # draws end, a block filled ahead overwrote none of the last _HELD taken
        turn = _HELD + 1
        parts = (self._ring[block % turn] for block in itertools.count(len(self._states)))
        for _ in self._drawn(d, room, parts):
            pass
        # the last block whose first event lies at or before the last slot,
        # then the last event of that block that does
        block, before = self._block, self._before
        lo = bisect.bisect_right(range(len(before) - 1), room,
                                 key=lambda b: b * block * d + before[b]) - 1
        if self._sums[0] != lo:
            self._sums = (lo, np.cumsum(self._gaps(lo)))
        sums = self._sums[1]
        room -= lo * block * d + before[lo]
        j = bisect.bisect_right(range(1, sums.size), room, key=lambda m: m * d + int(sums[m - 1]))
        return lo * block + j + 1

    def ticks(self, window: int) -> np.ndarray:
        """The ticks of the events up to the last slot at a window of
        `window` ticks: event i at 8 * (first + i * d + the sum of the first
        i gaps).  The draws fill one buffer, sized for the expected count and
        _TICKS_SIGMAS sigma (past it, buffers of their own), in blocks of
        _BLOCK from gap 0, and each block is turned into its ticks in place
        as it is taken.  The chain's first and last call: it then holds no
        gaps."""
        d, room = self._least(window), self.last - self.first
        if room < 0:
            return np.empty(0, dtype=np.int64)
        # a kept gap of d + G slots has mean d + (1 - q) / q
        q = -math.expm1(-self._beta_cps * RESOLUTION_TICKS * TICK_S)
        expected = (room + 1) * q / (1.0 + (d - 1) * q)
        buffer = np.empty(max(int(expected + _TICKS_SIGMAS * math.sqrt(expected + 1.0)), 0) + 1)
        ticks = buffer.view(np.int64)
        ticks[0] = RESOLUTION_TICKS * self.first
        block = self._block
        inside = range(1, buffer.size, block)
        parts = itertools.chain((buffer[lo:lo + block] for lo in inside),
                                (np.empty(block) for _ in itertools.count()))
        size, beyond = 1, []
        for slots in self._drawn(d, room, parts):
            # the slot of the event before this block's first gap, at or
            # before the last slot, and this block's events after it: those
            # (last - base) // d + 1 or fewer that can lie at or before the
            # last slot, so their sums stay below 2**62
            base = self.first + (self._size - slots.size) * d + self._before[-2]
            slots = slots[:(self.last - base) // d + 1]
            slots += d
            np.cumsum(slots, out=slots)
            slots += base
            slots = slots[:np.searchsorted(slots, self.last, side="right")]
            slots *= RESOLUTION_TICKS
            if len(self._before) - 2 < len(inside):
                size += slots.size
            else:
                beyond.append(slots)
        return np.concatenate((ticks[:size], *beyond)) if beyond else ticks[:size]

    def histogram(self, window: int, bin_width_s: float) -> InterArrivalHistogram:
        """interarrival_histogram, up to max_gap_s, of the count() events at
        `window`: the slot counts less those of the gaps past the first
        count - 1, each slot G added into the bin of 8 * (d + G) ticks.  The
        gaps of _top slots or more are binned one by one if any can lie in
        range."""
        count = self.count(window)
        n_bins, bin_ticks, limit = _binning(bin_width_s, self._max_gap_s, count)
        d, top = self._least(window), self._top
        self._sums = (None, None)  # the fixed point is over
        counts = self._counts.copy()
        for block in range((count - 1) // self._block, len(self._before) - 1):
            counts -= self._slot_counts(self._gaps(block)[max(0, count - 1 - block * self._block):])
        # a gap of G slots lies in range iff G < fits
        fits = -(-limit // RESOLUTION_TICKS) - d
        hist = np.zeros(n_bins, dtype=np.int64)
        bins = np.arange(d, d + max(0, min(fits, top)), dtype=np.int64)
        bins *= RESOLUTION_TICKS
        np.add.at(hist, np.floor_divide(bins, bin_ticks, out=bins), counts[:bins.size])
        if fits > top:
            for block in range(-(-(count - 1) // self._block)):
                gaps = self._gaps(block)[:count - 1 - block * self._block]
                wide = gaps[(gaps >= top) & (gaps < fits)]
                np.add.at(hist, (wide + d) * RESOLUTION_TICKS // bin_ticks, 1)
        return InterArrivalHistogram(bin_width_s=bin_width_s, counts=hist)


def _fixed_point(kept_at, beta_cps: float, curve: DeadTimeCurve,
                 duration_s: float) -> tuple[int, int]:
    """The kept count and its window in ticks of the rate-dependent filter,
    whose window is t_d at its own output rate: iteration over whole counts
    n, each kept at t_d(n / duration) (kept_at(window)), from the count the
    steady-state law predicts, observed_rate(beta, curve) * duration (there
    is no raw stream to count, so the true rate beta is the input rate).
    That lies within about 1e-4 of the count it ends on, so one more
    iteration usually confirms it.  It ends on a count n that keeps n events
    or, when none does, at the window of one of the two adjacent counts
    between which the kept count minus n changes sign.  FixedPointError,
    with the (iteration, window, rate) trace, after _FIXED_POINT_ITERATIONS.
    """
    n_in = round(observed_rate(beta_cps, curve) * duration_s)
    # the latest whole counts n that keep more / fewer than n events at t_d(n / duration)
    more = fewer = None
    trace = []
    for iteration in range(_FIXED_POINT_ITERATIONS):
        rate = n_in / duration_s if duration_s > 0 else 0.0
        dead_s = curve.dead_time_at(rate)
        window = _window_ticks(dead_s)
        count = kept_at(window)
        trace.append((iteration, dead_s, count / duration_s if duration_s > 0 else 0.0))
        if count == n_in:
            return count, window
        if count > n_in:
            more = n_in
        else:
            fewer = n_in
        # the kept count is a step function of the window, so plain iteration
        # can step over the self-consistent count and cycle around it: once
        # counts on both sides are known, bisect unless it lies between them
        if more is None or fewer is None or min(more, fewer) < count < max(more, fewer):
            n_in = count
        elif abs(more - fewer) > 1:
            n_in = (more + fewer) // 2
        else:
            # more and fewer are adjacent counts, so no count between them
            # is self-consistent: end at this window, one of theirs
            return count, window
    rates_seen = " -> ".join(f"{entry[2]:.6g}" for entry in trace)
    raise FixedPointError(
        f"rate-dependent dead-time filter did not converge in {_FIXED_POINT_ITERATIONS} "
        f"iterations (observed rates {rates_seen} cps)",
        trace,
    )


def sweep_dead_time(
    rates_cps,
    truth_curve: DeadTimeCurve,
    duration_s: float,
    bin_width_s: float,
    seed: int,
    max_gap_s: float = DEFAULT_MAX_GAP_S,
    min_count: int = DEFAULT_MIN_COUNT,
) -> list[SweepPoint]:
    """Recover t_d(lambda) from synthetic streams at each true rate.

    For each rate: the kept stream of a Poisson stream behind the truth
    curve's rate-dependent window (_KeptChain, _fixed_point) -> histogram
    -> onset estimate.  Per-rate streams use derived seeds (seed + index)
    so points are independent and order-stable.
    """
    rates = list(rates_cps)
    if not rates:
        raise ValueError("rate list must not be empty")
    points = []
    for index, beta in enumerate(rates):
        chain = _KeptChain(beta, duration_s, seed + index, max_gap_s)
        count, window = _fixed_point(chain.count, beta, truth_curve, duration_s)
        estimate = estimate_dead_time(chain.histogram(window, bin_width_s), min_count)
        points.append(SweepPoint(count / duration_s if duration_s > 0 else 0.0, estimate))
    return points


def _width_runs(raw: bytes, buf: np.ndarray):
    """The runs of equal-width rows raw is made of, as (start, width, rows),
    an unterminated last row a run of its own; None at a row that is blank,
    wider than _BULK_DIGITS or narrower than the row before it.

    A run's width is that of its first row.  It holds the rows
    start + k * (width + 1) for as long as each ends in an LF, tested in one
    strided compare of the byte that ends each row; the bytes inside the
    rows are not tested here.  Widths that never narrow make at most
    _BULK_DIGITS + 1 runs.
    """
    runs = []
    start = 0
    least = 1
    while start < len(raw):
        end = raw.find(b"\n", start)
        width = (len(raw) if end < 0 else end) - start
        if not least <= width <= _BULK_DIGITS:
            return None
        least = width
        if end < 0:
            runs.append((start, width, 1))
            break
        stride = width + 1
        ends = buf[start + width::stride] == _LF
        rows = ends.size if ends.all() else int(ends.argmin())
        runs.append((start, width, rows))
        start += rows * stride
    return runs


def _digit_count(buf: np.ndarray, scratch: np.ndarray) -> int:
    """The number of ASCII digits in buf, counted len(scratch) bytes at a time."""
    count = 0
    for start in range(0, buf.size, scratch.size):
        part = buf[start:start + scratch.size]
        below = np.subtract(part, _ZERO, out=scratch[:part.size])
        count += np.count_nonzero(np.less(below, 10, out=below.view(bool)))
    return count


def _word_values(words: np.ndarray) -> None:
    """Each uint64 of 8 digit values, the first in its low byte, to the value
    the digits spell, in place: three steps each join neighbouring pairs of
    1, 2 and then 4 digits by one multiply, shift and mask."""
    words *= np.uint64(10 << 8 | 1)
    words >>= np.uint64(8)
    words &= np.uint64(0x00FF00FF00FF00FF)
    words *= np.uint64(100 << 16 | 1)
    words >>= np.uint64(16)
    words &= np.uint64(0x0000FFFF0000FFFF)
    words *= np.uint64(10000 << 32 | 1)
    words >>= np.uint64(32)


def _row_values(raw: bytes, out: np.ndarray, end: int, stride: int,
                part: np.ndarray) -> None:
    """out[i] = the value of the stride - 1 digits of raw that end before
    end + i * stride, read as up to three unaligned little-endian words, each
    ending 8 bytes before the next, masked to the digits and turned into its
    value in place (_word_values); part holds a word's values beside out."""
    digits = stride - 1
    for k in range(-(-digits // 8)):
        word = np.ndarray(out.shape, dtype="<u8", buffer=raw, offset=end - 8 * (k + 1),
                          strides=(stride,))
        value = out if k == 0 else part[:out.size]
        np.copyto(value, word)
        kept = min(8, digits - 8 * k)
        value &= np.uint64(int.from_bytes(bytes(8 - kept) + b"\x0f" * kept, "little"))
        _word_values(value)
        if k:
            value *= np.uint64(10 ** (8 * k))
            out += value


def _ticks_in_bulk(raw: bytes):
    """The ticks of bytes of rows of 1 to _BULK_DIGITS ASCII digits, each
    LF-terminated but perhaps the last, whose widths never narrow; else None.

    The bytes are split into runs of equal-width rows (_width_runs), each
    parsed in one pass.  A run's bytes must hold as many digits as its rows'
    widths add up to: with the LF found at each row's end, that proves every
    other byte a digit.  Each row's value is then read from its digits as
    words (_row_values), or by int() if the row ends too near the start of
    the bytes for its first word.
    """
    buf = np.frombuffer(raw, dtype=np.uint8)
    runs = _width_runs(raw, buf)
    if runs is None:
        return None
    ticks = np.empty(sum(rows for _, _, rows in runs), dtype=np.int64)
    words = ticks.view(np.uint64)
    # as long as the longest run, so never longer than the ticks
    part = np.empty(max((rows for _, _, rows in runs), default=0), dtype=np.uint64)
    # the digit count's scratch: free until the run's digits are counted
    scratch = part.view(np.uint8)
    first = 0
    for start, width, rows in runs:
        stride = width + 1
        if _digit_count(buf[start:start + rows * stride], scratch) != rows * width:
            return None
        out = words[first:first + rows]
        first += rows
        # the rows that end within three words of the start of the bytes
        head = 0
        while head < rows and start + head * stride + width < 3 * 8:
            out[head] = int(raw[start + head * stride:start + head * stride + width])
            head += 1
        if head < rows:
            _row_values(raw, out[head:], start + head * stride + width, stride, part)
    return ticks


def _quoted(text: str) -> str:
    """A bad line as an error quotes it: whole up to _QUOTED characters, else
    its first _QUOTED and its length."""
    if len(text) <= _QUOTED:
        return repr(text)
    return f"{text[:_QUOTED]!r}... ({len(text)} characters)"


def _ticks_by_line(raw: bytes, path: Path, lines: int) -> tuple[np.ndarray, int]:
    """Every non-blank line of the bytes raw as int() reads it once stripped,
    and the line count after raw; errors name the line of path, raw's first
    line being line lines + 1.

    The bytes are decoded as text mode would read the file, so a lone CR ends
    a line too.  A byte the locale encoding cannot decode reads as a lone
    surrogate, which int() rejects, so it fails as a malformed line in line
    order.  The ticks are held as int64 while they are read, 8 bytes a line.
    """
    ticks = array("q")
    lineno = lines
    with io.TextIOWrapper(io.BytesIO(raw), errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=lines + 1):
            text = line.strip()
            if not text:
                continue
            try:
                tick = int(text)
            except ValueError:
                raise ValueError(f"{path}: malformed timestamp at line {lineno}: "
                                 f"{_quoted(text)}") from None
            if tick < 0:
                raise ValueError(f"{path}: negative timestamp at line {lineno}: {_quoted(text)}")
            if tick > 2**63 - 1:
                raise ValueError(f"{path}: timestamp at line {lineno} is above 2**63 - 1 "
                                 f"({len(text)} characters)")
            ticks.append(tick)
    return np.frombuffer(ticks, dtype=np.int64), lineno


def _pieces(fh):
    """The bytes of the binary file fh in pieces of whole lines, read
    _PIECE bytes at a time: each piece ends after its last LF.  The part of
    a line that a read cuts is held, with every later read that holds no LF,
    and joined once with the next read's bytes up to its last LF; the last
    piece is the rest of the file."""
    held = []
    while chunk := fh.read(_PIECE):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            held.append(chunk)
            continue
        piece = b"".join([*held, memoryview(chunk)[:cut]])
        held = [chunk[cut:]]
        yield piece
    if rest := b"".join(held):
        yield rest


def _tick_blocks(path: Path):
    """The ticks of the timestamp file at path as int64 blocks in file order,
    one for each piece of it (_pieces): parsed in bulk (_ticks_in_bulk),
    else line by line (_ticks_by_line), with the lines of the pieces before
    counted as text mode counts them.  A parse fault is raised once the
    blocks before it are yielded."""
    lines = 0
    with path.open("rb", buffering=0) as fh:
        for piece in _pieces(fh):
            ticks = _ticks_in_bulk(piece)
            if ticks is None:
                ticks, lines = _ticks_by_line(piece, path, lines)
            else:
                lines += ticks.size
            yield ticks


def read_timestamps(path) -> TimestampStream:
    """Read a timestamp file: one integer per line, picoseconds, ascending.

    The file is read once, a piece at a time (_tick_blocks).  A piece of
    rows of 1 to 18 ASCII digits, each LF-terminated but perhaps the last,
    whose widths never narrow, as write_timestamps writes them, is parsed in
    bulk as runs of rows of equal width; any other piece is read line by
    line.  Both give the same result on every piece the bulk parse takes.

    No command calls it: it is the tests' oracle for read_interarrival_histogram,
    and perfbench/tracer.py wraps it by name.
    """
    path = Path(path)
    ticks = array("q")
    for block in _tick_blocks(path):
        ticks.frombytes(block.view(np.uint8))
    if not ticks:
        raise InsufficientDataError(f"{path}: insufficient data, no timestamps in file")
    ticks = np.frombuffer(ticks, dtype=np.int64)
    # every tick lies in [0, ticks[-1]], so the stream can only reject the order
    try:
        return TimestampStream(ticks, duration_s=float(ticks[-1]) * TICK_S)
    except ValueError:
        raise ValueError(f"{path}: timestamps must be strictly ascending") from None


def read_interarrival_histogram(
    path,
    bin_width_s: float = DEFAULT_BIN_WIDTH_S,
    max_gap_s: float = DEFAULT_MAX_GAP_S,
) -> tuple[int, float, InterArrivalHistogram]:
    """The length and duration_s of read_timestamps(path) and its
    interarrival_histogram, with the same errors in the same order, folded
    over the file's blocks (_tick_blocks, _fold) without holding its ticks.
    Bins that interarrival_histogram refuses raise its error the first time
    the fold bins, which may come before a fault later in the file.  An
    order fault is raised once the file has parsed: read_timestamps parses
    the whole file before it tests the order, so a parse fault in a later
    line wins."""
    path = Path(path)
    count, last, ordered, counts = _fold(_tick_blocks(path), bin_width_s, max_gap_s)
    if not count:
        raise InsufficientDataError(f"{path}: insufficient data, no timestamps in file")
    if not ordered:
        raise ValueError(f"{path}: timestamps must be strictly ascending")
    if count == 1:
        # raises the histogram's error
        _binning(bin_width_s, max_gap_s, count)
    return count, float(last) * TICK_S, InterArrivalHistogram(bin_width_s, counts[:-1])


def _digit_rows(ticks: np.ndarray, width: int) -> np.ndarray:
    """Ticks of `width` digits each as the rows of their lines: ASCII digits
    and an LF, written two digits per division by 100."""
    rows = np.empty((ticks.size, width + 1), dtype=np.uint8)
    rows[:, width] = _LF
    rest = ticks.copy()
    quotient = np.empty_like(rest)
    scaled = np.empty_like(rest)
    pairs = np.empty(ticks.size, dtype=np.uint16)
    for column in range(width - 2, -1, -2):
        np.floor_divide(rest, 100, out=quotient)
        np.subtract(rest, np.multiply(quotient, 100, out=scaled), out=rest)
        rows[:, column:column + 2].view(np.uint16)[:, 0] = np.take(_DIGIT_PAIRS, rest, out=pairs)
        rest, quotient = quotient, rest
    if width % 2:
        np.add(rest, _ZERO, out=rows[:, 0], casting="unsafe")
    return rows


def write_timestamps(stream: TimestampStream, path) -> None:
    """Write the ticks, integer picoseconds, one per line, _BLOCK lines at a
    time: the ticks ascend, so a block's ticks of each digit count are one
    run of rows (_digit_rows)."""
    ticks = stream.ticks
    with Path(path).open("wb") as fh:
        for start in range(0, ticks.size, _BLOCK):
            block = ticks[start:start + _BLOCK]
            edges = [0, *np.searchsorted(block, _POWERS_OF_TEN).tolist(), block.size]
            for width, (lo, hi) in enumerate(zip(edges, edges[1:]), start=1):
                if lo < hi:
                    fh.write(_digit_rows(block[lo:hi], width))


def write_sweep_csv(points, path) -> None:
    """Recovered-curve CSV with schema lambda_obs_cps,t_d_est_s."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_obs_cps", "t_d_est_s"])
        for pt in points:
            writer.writerow([repr(float(pt.lambda_obs_cps)), repr(float(pt.dead_time_est_s))])
