"""Synthetic timestamp streams and dead-time extraction from inter-arrival histograms.

This reproduces the bench methodology for measuring t_d(lambda) without
hardware: generate Poisson arrivals at a known true rate, suppress events
inside the recovery window of the previous registered event, histogram the
surviving inter-arrival gaps, and read the dead time off the onset of the
first populated bin.  Sweeping the true rate recovers the full rate-dependent
dead-time curve.

A stream holds int64 ticks of 1 ps, the unit of the on-disk format (one
integer per line), on the generator's 8 ps tagger grid.  Seconds appear only
at the edges (duration, rate, dead window, bins, CSVs), so the filter and the
histogram decide a gap equal to the window or on a bin edge exactly.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
# read_timestamps parses a file in bulk only if every value lies below this,
# and so below 2**63 - 1, the value numpy's parser clamps an overflow to
_BULK_LIMIT = 10**18
# apply_dead_time's fixed point: iteration cap
_FIXED_POINT_ITERATIONS = 20
# _chase probes this many events past each pointer before it searches; with
# fewer live pointers than _PROBE_MIN_LIVE a step's numpy calls cost more than
# its searches, so it searches at once
_PROBE_EVENTS = 4
_PROBE_MIN_LIVE = 64
# elements each blockwise pass takes per numpy call (grid steps compacted,
# events tested for a segment start, pointers chased, kept events tested for
# a changed step, lines written): its temporaries stay near 0.5 MB instead of
# the length of the stream, and its Python loops run n / _BLOCK times
_BLOCK = 1 << 16


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
    duration in seconds as given, and t * TICK_S <= duration_s."""

    ticks: np.ndarray
    duration_s: float

    def __post_init__(self):
        t = np.asarray(self.ticks)
        if t.ndim != 1 or (t.size and t.dtype.kind not in "iu"):
            raise ValueError("ticks must be a 1-d array of integers")
        t = t.astype(np.int64, copy=False)
        if t.size and (np.any(t[1:] <= t[:-1]) or t[0] < 0 or t[-1] * TICK_S > self.duration_s):
            raise ValueError("ticks must be strictly increasing within [0, duration]")
        object.__setattr__(self, "ticks", t)

    def __len__(self) -> int:
        return int(self.ticks.size)

    @property
    def observed_rate_cps(self) -> float:
        return len(self) / self.duration_s if self.duration_s > 0 else 0.0


@dataclass(frozen=True)
class InterArrivalHistogram:
    """Counts of consecutive-gap durations in uniform bins starting at zero."""

    bin_width_s: float
    counts: np.ndarray

    def __post_init__(self):
        if self.bin_width_s <= 0:
            raise ValueError("bin width must be positive")
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))

    def write_csv(self, path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_lower_edge_s", "count"])
            for i, count in enumerate(self.counts):
                writer.writerow([repr(i * self.bin_width_s), int(count)])


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


def _quantize(times_s: np.ndarray, duration_s: float) -> np.ndarray:
    """Snap to the tagger grid as ticks, merge duplicates, drop anything past
    duration.  Works in place on `times_s`, which must be ascending and which
    the grid steps overwrite as int64, and returns a view of it: rounding
    keeps the order, so one comparison with the previous step merges equal
    ones (as `np.unique` would, without its sort)."""
    steps = np.divide(times_s, RESOLUTION_TICKS * TICK_S, out=times_s)
    np.rint(steps, out=steps)
    grid = steps.view(np.int64)
    np.copyto(grid, steps, casting="unsafe")
    grid = grid[:_drop_repeats(grid)]
    ticks = np.multiply(grid, RESOLUTION_TICKS, out=grid)
    # rounding moves at most the last event (by up to 4 ps) past the duration
    return ticks[:-1] if ticks.size and ticks[-1] * TICK_S > duration_s else ticks


def _drop_repeats(grid: np.ndarray) -> int:
    """Move the first step of each run of equal ones in the ascending `grid`
    to the front, in order and in place, and return how many there are.

    The repeat mask is taken first; the compaction then copies _BLOCK steps
    at a time, each block's survivors landing at or before the block's
    start, so it never overwrites a step it has yet to read."""
    if grid.size < 2:
        return grid.size
    fresh = np.empty(grid.size, dtype=bool)
    fresh[0] = True
    np.not_equal(grid[1:], grid[:-1], out=fresh[1:])
    size = 0
    for start in range(0, grid.size, _BLOCK):
        block = grid[start:start + _BLOCK][fresh[start:start + _BLOCK]]
        grid[size:size + block.size] = block
        size += block.size
    return size


def _first_block_size(expected: float) -> int:
    """Gaps drawn in the first block: the expected count plus 10 sigma, so a
    second block is needed only on a >10 sigma shortfall."""
    return max(int(expected + 10.0 * np.sqrt(expected + 1.0)) + 16, 1024)


def expected_events(beta_cps: float, duration_s: float) -> float:
    """Expected event count beta * duration of a Poisson stream; ValueError
    above MAX_STREAM_EVENTS, or when the duration reaches MAX_STREAM_TICK."""
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
    """Homogeneous Poisson arrivals at true rate beta over [0, duration].

    Inter-arrival gaps are exponential with mean 1/beta; the stream is
    deterministic per seed and quantized to the tagger resolution.
    """
    if beta_cps <= 0:
        raise ValueError("true rate must be positive")
    if duration_s < 0:
        raise ValueError("duration must be >= 0")
    expected = expected_events(beta_cps, duration_s)
    rng = np.random.default_rng(seed)
    chunks = []
    t_last = 0.0
    block = _first_block_size(expected)
    while t_last <= duration_s:
        chunk = rng.exponential(1.0 / beta_cps, size=block)
        np.cumsum(chunk, out=chunk)
        chunk += t_last
        chunks.append(chunk)
        t_last = chunk[-1]
        block = max(block // 4, 1024)
    times = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    times = times[: np.searchsorted(times, duration_s, side="right")]
    return TimestampStream(_quantize(times, duration_s), duration_s)


def _chase(ticks: np.ndarray, dead: int, kept: np.ndarray, cur: np.ndarray,
           end: np.ndarray) -> None:
    """Walk the chains that start at the kept events `cur` up to their segment
    ends `end`, all in lockstep, and mark every event they land on in `kept`.

    Each step maps every live pointer i to the first j with
    t[j] >= t[i] + dead, the sequential rule's comparison (j > i, since the
    window is at least one tick), and drops the pointers that reached their
    segment's end.  The step first probes the next _PROBE_EVENTS events one
    at a time, since at the sweep's rates almost every next kept event lies
    within them; only the pointers still short of their window after the
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
        live = nxt < end
        cur = nxt[live]
        end = end[live]
        kept[cur] = True


def _chase_segments(ticks: np.ndarray, dead: int, kept: np.ndarray, cur: np.ndarray,
                    end: np.ndarray) -> None:
    """_chase over _BLOCK segments at a time: the segments are independent,
    so each block's walks give the same marks, and no step's temporaries
    grow with the number of segments."""
    for start in range(0, cur.size, _BLOCK):
        _chase(ticks, dead, kept, cur[start:start + _BLOCK], end[start:start + _BLOCK])


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
    # each segment runs from its start to the next one, the last to n
    bounds = np.flatnonzero(np.append(kept, True))
    _chase_segments(ticks, dead, kept, bounds[:-1], bounds[1:])
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
    (_chase_segments), so the number of numpy steps is the longest chain in
    any one segment of each block, not the stream length.  apply_dead_time's
    fixed point runs the same chase on the segments a change of window can
    alter (_refilter).
    """
    return ticks[_kept_mask(ticks, dead)]


def _refilter(ticks: np.ndarray, kept: np.ndarray, old: int, new: int) -> None:
    """Turn the kept mask at window old into the one at new >= 1 tick, in
    place, re-chasing only the segments the change of window can alter.

    Dirty events.  From a kept event i the chain at old steps to the next
    kept event j (j = n after the last one).  At new > old that step
    changes iff t[j] < t[i] + new.  At new < old it changes iff some
    event strictly between i and j lies at or past t[i] + new, that is iff
    t[j-1] >= t[i] + new; for the last kept event this checks the events
    after it.

    Segments.  An event s with t[s] >= t[s-1] + max(old, new) starts a
    segment at both windows, so both chains pass through it.  Between two
    such events the chain at new follows the chain at old up to the
    first dirty event; from there to the segment's end the mask is cleared
    and chased again at new.  Every other segment keeps its events.
    """
    n = ticks.size
    if n == 0 or new == old:
        return
    # the kept events' indices, then n: the next kept event after the last
    idx = np.flatnonzero(np.append(kept, True))
    dirty = _dirty_positions(ticks, idx, old, new)
    if not dirty.size:
        return
    end = _segment_ends(ticks, idx, dirty, max(old, new))
    # the first dirty event of each segment
    first = np.empty(dirty.size, dtype=bool)
    first[0] = True
    np.not_equal(end[1:], end[:-1], out=first[1:])
    cur = idx[dirty[first]]
    end = idx[end[first]]
    # clear the events strictly between each cur (kept at both windows) and its end
    lengths = end - cur - 1
    offsets = np.repeat(cur + 1 - (np.cumsum(lengths) - lengths), lengths)
    kept[offsets + np.arange(offsets.size)] = False
    _chase_segments(ticks, new, kept, cur, end)


def _dirty_positions(ticks: np.ndarray, idx: np.ndarray, old: int,
                     new: int) -> np.ndarray:
    """The positions p in idx (kept indices, then n) of the kept events whose
    next step changes when the window moves from old to new (see
    _refilter), taken _BLOCK positions at a time so that no temporary as
    long as idx is ever allocated."""
    stop = idx.size - 2 if new > old else idx.size - 1
    found = [np.empty(0, dtype=np.intp)]
    for a in range(0, stop, _BLOCK):
        b = min(a + _BLOCK, stop)
        reach = ticks[idx[a:b]] + new
        if new > old:
            hit = ticks[idx[a + 1:b + 1]] < reach
        else:
            hit = ticks[idx[a + 1:b + 1] - 1] >= reach
        found.append(np.flatnonzero(hit) + a)
    return np.concatenate(found)


def _segment_ends(ticks: np.ndarray, idx: np.ndarray, pos: np.ndarray,
                  width: int) -> np.ndarray:
    """For each position p in idx, the first later position whose event s
    starts a segment at window width (t[s] >= t[s-1] + width), or the
    position of n.  All walks advance in lockstep, one kept event a step,
    over the segments the chase then walks again at the new window."""
    n = ticks.size
    end = pos + 1
    walking = np.arange(end.size)
    while walking.size:
        s = idx[end[walking]]
        inner = np.minimum(s, n - 1)
        done = (s == n) | (ticks[inner] >= ticks[inner - 1] + width)
        walking = walking[~done]
        end[walking] += 1
    return end


def apply_dead_time(
    stream: TimestampStream,
    *,
    constant_dead_time_s: float | None = None,
    curve: DeadTimeCurve | None = None,
) -> TimestampStream:
    """Suppress events inside the detector recovery window.

    Exactly one of `constant_dead_time_s` or `curve` must be given.  With a
    curve the dead window is t_d evaluated at the *output* observed rate,
    which is found by fixed-point iteration over whole counts n, each
    filtered at t_d(n / duration) in whole ticks (_window_ticks).  The
    iteration starts at the count the steady-state non-paralyzable law
    predicts, observed_rate(input rate, curve) * duration, which lies within
    about 1e-4 of the count it ends on, so one more iteration usually
    confirms it.  A count n that keeps n events is self-consistent; when
    none is, the iteration ends at the window of one of the two adjacent
    counts between which the kept count minus n changes sign.  The first
    iteration filters the whole stream; each later one carries the kept mask
    over and re-chases only the segments the new window changes (_refilter),
    so every iteration keeps exactly the events of a full _filter_constant
    pass at its window.
    """
    if (constant_dead_time_s is None) == (curve is None):
        raise ValueError("give exactly one of constant_dead_time_s or curve")
    t = stream.ticks
    if t.size and t[-1] >= MAX_STREAM_TICK:
        raise ValueError(f"the dead-time filter takes ticks below 2**62, got {t[-1]}")
    if constant_dead_time_s is not None:
        if constant_dead_time_s < 0:
            raise ValueError("dead time must be >= 0")
        kept = _filter_constant(t, _window_ticks(constant_dead_time_s))
        return TimestampStream(kept, stream.duration_s)

    duration = stream.duration_s
    # every window is t_d at a whole count over the duration, starting from
    # the count the steady-state law predicts
    n_in = round(observed_rate(stream.observed_rate_cps, curve) * duration)
    # the latest whole counts n that keep more / fewer than n events at t_d(n / duration)
    more = fewer = None
    trace = []
    window = None
    for iteration in range(_FIXED_POINT_ITERATIONS):
        rate = n_in / duration if duration > 0 else 0.0
        dead_s = curve.dead_time_at(rate)
        previous, window = window, _window_ticks(dead_s)
        if previous is None:
            kept = _kept_mask(t, window)
        else:
            _refilter(t, kept, previous, window)
        count = int(np.count_nonzero(kept))
        new_rate = count / duration if duration > 0 else 0.0
        trace.append((iteration, dead_s, new_rate))
        if count == n_in:
            return TimestampStream(t[kept], duration)
        if count > n_in:
            more = n_in
        else:
            fewer = n_in
        # The kept count is a step function of the window, so plain
        # iteration can step over the self-consistent count and cycle
        # around it.  Once counts on both sides are known, iterate only
        # while the kept count lies strictly between them, and bisect
        # otherwise.
        if more is None or fewer is None or min(more, fewer) < count < max(more, fewer):
            n_in = count
        elif abs(more - fewer) > 1:
            n_in = (more + fewer) // 2
        else:
            # more and fewer are adjacent counts, so no count between them
            # is self-consistent: end at this window, one of theirs
            return TimestampStream(t[kept], duration)
    rates_seen = " -> ".join(f"{entry[2]:.6g}" for entry in trace)
    raise FixedPointError(
        f"rate-dependent dead-time filter did not converge in {_FIXED_POINT_ITERATIONS} "
        f"iterations (observed rates {rates_seen} cps)",
        trace,
    )


def histogram_bins(bin_width_s: float, max_gap_s: float) -> int:
    """Bins of width bin_width_s that cover [0, max_gap_s]; ValueError above
    MAX_HISTOGRAM_BINS, or if either is not a whole number of ticks."""
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
    return int(n_bins)


def interarrival_histogram(
    stream: TimestampStream,
    bin_width_s: float = DEFAULT_BIN_WIDTH_S,
    max_gap_s: float = DEFAULT_MAX_GAP_S,
) -> InterArrivalHistogram:
    """Histogram of adjacent gaps g <= max_gap in bins k * w <= g < (k + 1) * w
    of width w: a gap on a bin edge counts in the upper bin, so one equal to
    max_gap on the last bin's upper edge counts in none.  The gaps are binned
    in place: every gap out of range goes to one extra bin, which is dropped."""
    if bin_width_s <= 0:
        raise ValueError("bin width must be positive")
    n_bins = histogram_bins(bin_width_s, max_gap_s)
    if len(stream) < 2:
        raise InsufficientDataError(
            f"insufficient data: need at least 2 timestamps for an inter-arrival "
            f"histogram, got {len(stream)}"
        )
    bin_ticks = int(_ticks_of(bin_width_s))
    gaps = np.diff(stream.ticks)
    gaps[gaps >= min(int(_ticks_of(max_gap_s)) + 1, n_bins * bin_ticks)] = n_bins * bin_ticks
    counts = np.bincount(np.floor_divide(gaps, bin_ticks, out=gaps), minlength=n_bins + 1)
    return InterArrivalHistogram(bin_width_s=bin_width_s, counts=counts[:n_bins])


def estimate_dead_time(hist: InterArrivalHistogram, min_count: int = DEFAULT_MIN_COUNT) -> float:
    """Dead time from the onset of the first statistically populated bin.

    Returns the lower edge of the first bin holding at least `min_count`
    gaps, so the estimate sits within one bin width below the true dead
    time.  min_count > 1 guards against a stray outlier defining the onset.
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

    For each rate: generate -> rate-dependent filter against the truth curve
    -> histogram -> onset estimate.  Per-rate streams use derived seeds
    (seed + index) so points are independent and order-stable.
    """
    rates = list(rates_cps)
    if not rates:
        raise ValueError("rate list must not be empty")
    points = []
    for index, beta in enumerate(rates):
        stream = generate_poisson_stream(beta, duration_s, seed + index)
        filtered = apply_dead_time(stream, curve=truth_curve)
        # one stream at a time: the raw one goes before the histogram, the
        # filtered one before the next rate's raw stream
        del stream
        hist = interarrival_histogram(filtered, bin_width_s, max_gap_s)
        estimate = estimate_dead_time(hist, min_count)
        points.append(SweepPoint(filtered.observed_rate_cps, estimate))
        del filtered
    return points


def _ticks_in_bulk(raw: bytes):
    """The ticks of a file of LF-separated digit-only lines, each value below
    10**18 (zero-padded lines included); else None.

    numpy's text parser reads signs, spaces and other text differently from
    int(), so only digits and LF reach it.  The count of values it returns
    and their size catch the rest, by three reliances:
    - it skips a blank line as whitespace between values (documented for
      `sep`), so that file yields fewer values than lines;
    - it reads a file of one LF as a spurious 0, so a leading LF is refused;
    - C strtoll clamps a value past int64 to 2**63 - 1 (C99 7.20.1.4), so a
      value of 19 or more digits reads as at least _BULK_LIMIT.
    """
    if not raw or raw.startswith(b"\n") or raw.translate(None, b"0123456789\n"):
        return None
    ticks = np.fromstring(raw, dtype=np.int64, sep="\n")
    lines = raw.count(b"\n") + (not raw.endswith(b"\n"))
    return ticks if ticks.size == lines and ticks.max() < _BULK_LIMIT else None


def _ticks_by_line(raw: bytes, path: Path) -> np.ndarray:
    """Every non-blank line of the file's bytes as int() reads it once
    stripped; errors name the line of path.

    The bytes are decoded as text mode would read the file.  A byte the
    locale encoding cannot decode reads as a lone surrogate, which int()
    rejects, so it fails as a malformed line in line order.  The ticks are
    held as int64 while they are read, 8 bytes a line.
    """
    ticks = array("q")
    with io.TextIOWrapper(io.BytesIO(raw), errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                tick = int(text)
            except ValueError:
                raise ValueError(f"{path}: malformed timestamp at line {lineno}: {text!r}") from None
            if tick < 0:
                raise ValueError(f"{path}: negative timestamp at line {lineno}: {text!r}")
            if tick > 2**63 - 1:
                raise ValueError(f"{path}: timestamp at line {lineno} is above 2**63 - 1 "
                                 f"({len(text)} characters)")
            ticks.append(tick)
    return np.frombuffer(ticks, dtype=np.int64)


def read_timestamps(path) -> TimestampStream:
    """Read a timestamp file: one integer per line, picoseconds, ascending.

    The file is read once.  A file of LF-separated digit-only lines below
    10**18, as write_timestamps writes it, is parsed in one pass; any other
    file is read line by line.  Both give the same result on every file the
    one-pass parse takes.
    """
    path = Path(path)
    raw = path.read_bytes()
    ticks = _ticks_in_bulk(raw)
    if ticks is None:
        ticks = _ticks_by_line(raw, path)
    if not ticks.size:
        raise InsufficientDataError(f"{path}: insufficient data, no timestamps in file")
    # every tick lies in [0, ticks[-1]], so the stream can only reject the order
    try:
        return TimestampStream(ticks, duration_s=float(ticks[-1]) * TICK_S)
    except ValueError:
        raise ValueError(f"{path}: timestamps must be strictly ascending") from None


def write_timestamps(stream: TimestampStream, path) -> None:
    """Write the ticks, integer picoseconds, one per line, _BLOCK lines at a time."""
    ticks = stream.ticks
    with Path(path).open("w") as fh:
        for start in range(0, ticks.size, _BLOCK):
            fh.write("\n".join(map(str, ticks[start:start + _BLOCK].tolist())) + "\n")


def write_sweep_csv(points, path) -> None:
    """Recovered-curve CSV with schema lambda_obs_cps,t_d_est_s."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_obs_cps", "t_d_est_s"])
        for pt in points:
            writer.writerow([repr(float(pt.lambda_obs_cps)), repr(float(pt.dead_time_est_s))])
