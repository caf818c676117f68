"""Synthetic timestamp streams and dead-time extraction from inter-arrival histograms.

This reproduces the bench methodology for measuring t_d(lambda) without
hardware: generate Poisson arrivals at a known true rate, suppress events
inside the recovery window of the previous registered event, histogram the
surviving inter-arrival gaps, and read the dead time off the onset of the
first populated bin.  Sweeping the true rate recovers the full rate-dependent
dead-time curve.

Timestamps are quantized to the tagger resolution of 8 ps and the on-disk
format is one integer per line, picoseconds since stream start.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import DeadTimeCurve

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

RESOLUTION_S = 8e-12
DEFAULT_BIN_WIDTH_S = 0.5e-9
DEFAULT_MAX_GAP_S = 200e-9
DEFAULT_MIN_COUNT = 2
# the README and bench histograms have 400 bins; the cap keeps a mistyped
# max_gap / bin_width from asking numpy for terabytes
MAX_HISTOGRAM_BINS = 1 << 20
# the README and bench streams hold at most 2.0M events; the cap keeps a
# mistyped rate or duration from asking numpy for terabytes of gaps
MAX_STREAM_EVENTS = 1 << 27
_WRITE_CHUNK_LINES = 1 << 16
# longest line read_timestamps parses in bulk (10**18 - 1 < 2**63)
_MAX_BULK_DIGITS = 18
# apply_dead_time's fixed point: iteration cap and relative rate tolerance
_FIXED_POINT_ITERATIONS = 20
_FIXED_POINT_REL_TOL = 1e-6


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
    """Strictly increasing arrival times in seconds over [0, duration]."""

    timestamps_s: np.ndarray
    duration_s: float

    def __post_init__(self):
        t = np.asarray(self.timestamps_s, dtype=float)
        if t.ndim != 1:
            raise ValueError("timestamps must be a 1-d array")
        if t.size and (np.any(np.diff(t) <= 0) or t[0] < 0 or t[-1] > self.duration_s):
            raise ValueError("timestamps must be strictly increasing within [0, duration]")
        object.__setattr__(self, "timestamps_s", t)

    def __len__(self) -> int:
        return int(self.timestamps_s.size)

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


def _quantize(times_s: np.ndarray, duration_s: float) -> np.ndarray:
    """Snap to the tagger grid, merge duplicates, drop anything past duration.

    Works in place on `times_s`, which must be ascending.  Rounding keeps that
    order, so equal ticks are neighbours and one comparison with the previous
    tick merges them (the same values `np.unique` gives, without its sort).
    """
    ticks = np.divide(times_s, RESOLUTION_S, out=times_s)
    np.round(ticks, out=ticks)
    if ticks.size > 1:
        fresh = np.empty(ticks.size, dtype=bool)
        fresh[0] = True
        np.not_equal(ticks[1:], ticks[:-1], out=fresh[1:])
        ticks = ticks[fresh]
    out = np.multiply(ticks, RESOLUTION_S, out=ticks)
    return out[: np.searchsorted(out, duration_s, side="right")]


def _first_block_size(expected: float) -> int:
    """Gaps drawn in the first block: the expected count plus 10 sigma, so a
    second block is needed only on a >10 sigma shortfall."""
    return max(int(expected + 10.0 * np.sqrt(expected + 1.0)) + 16, 1024)


def expected_events(beta_cps: float, duration_s: float) -> float:
    """Expected event count beta * duration of a Poisson stream; ValueError
    above MAX_STREAM_EVENTS."""
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


def _filter_constant(times_s: np.ndarray, dead_s: float) -> np.ndarray:
    """Non-paralyzable thinning: keep an event iff it lies at least dead_s
    past the previously kept event.  Suppressed events never extend the window.

    The sequential rule walks one event at a time: from a kept event i the
    next kept one is the first j with t[j] >= t[i] + dead_s.  This kernel
    gets the same kept set without that walk.

    Segments.  If t[i] >= t[i-1] + dead_s, event i is kept whatever came
    before: every earlier kept event k has t[k] <= t[i-1], so its window
    t[k] + dead_s ends no later than t[i], and the walk cannot jump past i
    (it always lands on the first event at or past the window's end).  The
    first event is kept too.  These always-kept events cut the stream into
    independent segments; the walk enters each one at its first event and
    leaves it exactly at the next segment's first event.

    Chase.  The walks of all segments advance in lockstep: each step maps
    every live pointer i to searchsorted(t, t[i] + dead_s) — the comparison
    and the float sum the sequential rule makes — marks it kept, and drops
    the pointers that reached their segment's end.  The number of steps is
    the longest chain in any one segment, not the stream length.  A window
    too short to move t[i] + dead_s past t[i] in floating point keeps every
    event, where the sequential walk would stall on i.
    """
    n = times_s.size
    if n == 0 or dead_s <= 0:
        return times_s.copy()
    kept = np.empty(n, dtype=bool)
    kept[0] = True
    np.greater_equal(times_s[1:], times_s[:-1] + dead_s, out=kept[1:])
    cur = np.flatnonzero(kept)
    end = np.append(cur[1:], n)
    while cur.size:
        nxt = np.searchsorted(times_s, times_s[cur] + dead_s, side="left")
        # a window below the float spacing of the times ends at the event itself
        cur = np.maximum(nxt, cur + 1, out=nxt)
        live = cur < end
        cur = cur[live]
        end = end[live]
        kept[cur] = True
    return times_s[kept]


def apply_dead_time(
    stream: TimestampStream,
    *,
    constant_dead_time_s: float | None = None,
    curve: DeadTimeCurve | None = None,
) -> TimestampStream:
    """Suppress events inside the detector recovery window.

    Exactly one of `constant_dead_time_s` or `curve` must be given.  With a
    curve the dead window is t_d evaluated at the *output* observed rate,
    which is found by fixed-point iteration starting from the input rate.
    """
    if (constant_dead_time_s is None) == (curve is None):
        raise ValueError("give exactly one of constant_dead_time_s or curve")
    t = stream.timestamps_s
    if constant_dead_time_s is not None:
        if constant_dead_time_s < 0:
            raise ValueError("dead time must be >= 0")
        kept = _filter_constant(t, constant_dead_time_s)
        return TimestampStream(kept, stream.duration_s)

    rate = stream.observed_rate_cps
    trace = []
    prev_change = 0.0
    for iteration in range(_FIXED_POINT_ITERATIONS):
        dead_s = curve.dead_time_at(rate)
        kept = _filter_constant(t, dead_s)
        new_rate = kept.size / stream.duration_s if stream.duration_s > 0 else 0.0
        trace.append((iteration, dead_s, new_rate))
        if rate == new_rate or (rate > 0 and abs(new_rate - rate) / rate < _FIXED_POINT_REL_TOL):
            return TimestampStream(kept, stream.duration_s)
        change = new_rate - rate
        if prev_change * change < 0.0:
            # The kept count is a step function of the window, so the exact
            # fixed point can fall between two count plateaus and plain
            # iteration then cycles.  Once the two candidate windows agree
            # to better than the tagger resolution they are physically
            # indistinguishable: accept the current solution.
            if abs(curve.dead_time_at(new_rate) - dead_s) < RESOLUTION_S:
                return TimestampStream(kept, stream.duration_s)
            rate = 0.5 * (rate + new_rate)
        else:
            rate = new_rate
        prev_change = change
    rates_seen = " -> ".join(f"{entry[2]:.6g}" for entry in trace)
    raise FixedPointError(
        f"rate-dependent dead-time filter did not converge in {_FIXED_POINT_ITERATIONS} "
        f"iterations (observed rates {rates_seen} cps)",
        trace,
    )


def histogram_bins(bin_width_s: float, max_gap_s: float) -> int:
    """Bins of width bin_width_s that cover [0, max_gap_s]; ValueError above
    MAX_HISTOGRAM_BINS."""
    n_bins = np.ceil(max_gap_s / bin_width_s)
    if not n_bins <= MAX_HISTOGRAM_BINS:
        raise ValueError(
            f"the histogram would need {n_bins:.6g} bins, more than the limit of "
            f"{MAX_HISTOGRAM_BINS}"
        )
    return int(n_bins)


def interarrival_histogram(
    stream: TimestampStream,
    bin_width_s: float = DEFAULT_BIN_WIDTH_S,
    max_gap_s: float = DEFAULT_MAX_GAP_S,
) -> InterArrivalHistogram:
    """Histogram of adjacent arrival-time differences within [0, max_gap]."""
    if bin_width_s <= 0:
        raise ValueError("bin width must be positive")
    n_bins = histogram_bins(bin_width_s, max_gap_s)
    if len(stream) < 2:
        raise InsufficientDataError(
            f"insufficient data: need at least 2 timestamps for an inter-arrival "
            f"histogram, got {len(stream)}"
        )
    gaps = np.diff(stream.timestamps_s)
    gaps = gaps[gaps <= max_gap_s]
    counts, _ = np.histogram(gaps, bins=n_bins, range=(0.0, n_bins * bin_width_s))
    return InterArrivalHistogram(bin_width_s=bin_width_s, counts=counts)


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
        hist = interarrival_histogram(filtered, bin_width_s, max_gap_s)
        estimate = estimate_dead_time(hist, min_count)
        points.append(SweepPoint(filtered.observed_rate_cps, estimate))
    return points


def _ticks_in_bulk(raw: bytes):
    """The ticks of a file of LF-separated lines of 1-18 ASCII digits each; else None.

    numpy's text parser reads blank lines, signs, spaces and unparseable text
    differently from int(), or stops at them without an error, so it sees only
    files it reads exactly as _ticks_by_line does.  The digit cap keeps every
    value below 2**63, so how it treats int64 overflow never matters.
    """
    if not raw or raw.translate(None, b"0123456789\n"):
        return None
    ends = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n"))
    if not raw.endswith(b"\n"):
        ends = np.append(ends, len(raw))
    # each line's digits plus its newline
    widths = np.diff(ends, prepend=-1)
    if widths.min() < 2 or widths.max() > _MAX_BULK_DIGITS + 1:
        return None
    ticks = np.fromstring(raw, dtype=np.int64, sep="\n")
    return ticks if ticks.size == widths.size else None


def _ticks_by_line(path: Path) -> list:
    """Every non-blank line as int() reads it once stripped; errors name the line."""
    ticks = []
    with path.open() as fh:
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
            ticks.append(tick)
    return ticks


def read_timestamps(path) -> TimestampStream:
    """Read a timestamp file: one integer per line, picoseconds, ascending.

    A file of LF-separated digit-only lines, as write_timestamps writes it, is
    parsed in one pass; any other file is read line by line.  Both give the
    same result on every file the one-pass parse takes.
    """
    path = Path(path)
    ticks = _ticks_in_bulk(path.read_bytes())
    if ticks is None:
        ticks = _ticks_by_line(path)
    if not len(ticks):
        raise InsufficientDataError(f"{path}: insufficient data, no timestamps in file")
    times = np.asarray(ticks, dtype=float) * 1e-12
    if np.any(np.diff(times) <= 0):
        raise ValueError(f"{path}: timestamps must be strictly ascending")
    duration = float(times[-1])
    return TimestampStream(times, duration_s=duration)


def write_timestamps(stream: TimestampStream, path) -> None:
    """Write picosecond-integer timestamps, one per line."""
    ticks = np.round(stream.timestamps_s * 1e12).astype(np.int64)
    with Path(path).open("w") as fh:
        for start in range(0, ticks.size, _WRITE_CHUNK_LINES):
            lines = map(str, ticks[start:start + _WRITE_CHUNK_LINES].tolist())
            fh.write("\n".join(lines) + "\n")


def write_sweep_csv(points, path) -> None:
    """Recovered-curve CSV with schema lambda_obs_cps,t_d_est_s."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_obs_cps", "t_d_est_s"])
        for pt in points:
            writer.writerow([repr(float(pt.lambda_obs_cps)), repr(float(pt.dead_time_est_s))])
