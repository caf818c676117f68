"""Non-paralyzable single-photon detector model with rate-dependent dead time.

The central nonlinearity is the effective dead time t_d(lambda): a tabulated,
piecewise-linear function of the observed count rate.  A free-running SPAD
recovering from an avalanche is unavailable for t_d, and because quenching
recovery slows under heavy loading, t_d itself grows with the count rate
(23.3 ns at low rates rising to about 31.5 ns in the high-count regime for
the detector this model is anchored to).

Availability under steady Poisson loading at observed rate lambda:

    Pr(available) ~= exp(-lambda * t_d(lambda))        (exponential model)
    Pr(available) >= 1 - lambda * t_d(lambda)          (conservative linear bound)

A non-paralyzable detector under Poisson arrivals at true rate beta counts
at the observed rate lambda that solves

    lambda = beta / (1 + beta * t_d(lambda))

with the dead time read at the observed rate itself (observed_rate).
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from enum import Enum
from math import exp
from pathlib import Path

import numpy as np

__all__ = [
    "AvailabilityModel",
    "DeadTimeCurve",
    "SaturationError",
    "default_dead_time_curve",
    "availability",
    "busy_fraction",
    "observed_rate",
]


class SaturationError(ValueError):
    """Raised when lambda * t_d(lambda) >= 1 where the linear model needs it below 1."""


class AvailabilityModel(Enum):
    """How steady loading converts to availability: exact exponential form or
    the conservative linear lower bound (valid only below saturation)."""

    EXPONENTIAL = "exponential"
    LINEAR_BOUND = "linear_bound"


@dataclass(frozen=True)
class DeadTimeCurve:
    """Tabulated effective dead time versus observed count rate.

    Evaluation is piecewise-linear between table points and clamps to the
    first/last dead time outside the tabulated range.  Rates must be finite
    and strictly increasing, dead times finite and positive.  The curve
    holds read-only copies of its arrays, so one curve can be shared.
    """

    rates_cps: np.ndarray
    dead_times_s: np.ndarray

    def __post_init__(self):
        rates = np.array(self.rates_cps, dtype=float)
        times = np.array(self.dead_times_s, dtype=float)
        if rates.ndim != 1 or times.ndim != 1 or rates.size != times.size:
            raise ValueError("curve needs matching 1-d rate and dead-time arrays")
        if rates.size == 0:
            raise ValueError("dead-time curve has no points")
        if not (np.all(np.isfinite(rates)) and np.all(np.isfinite(times))):
            raise ValueError("curve rates and dead times must be finite")
        if np.any(np.diff(rates) <= 0):
            raise ValueError("curve rates must be strictly increasing")
        if np.any(times <= 0):
            raise ValueError("all dead times must be positive")
        for name, values in (("rates_cps", rates), ("dead_times_s", times)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def dead_time_at(self, rate_cps):
        """Interpolated dead time in seconds; accepts a scalar or an array
        of rates, none NaN."""
        out = np.interp(rate_cps, self.rates_cps, self.dead_times_s)
        # the curve is finite, so a NaN out is a NaN rate
        if np.isnan(out).any():
            raise ValueError("count rate must not be NaN")
        return float(out) if np.isscalar(rate_cps) else out

    @classmethod
    def from_points(cls, points) -> "DeadTimeCurve":
        """Build from an iterable of (rate_cps, dead_time_s) pairs."""
        pts = list(points)
        return cls(
            rates_cps=np.array([p[0] for p in pts], dtype=float),
            dead_times_s=np.array([p[1] for p in pts], dtype=float),
        )

    @classmethod
    def constant(cls, dead_time_s: float) -> "DeadTimeCurve":
        """Flat curve: the same dead time at every rate."""
        return cls.from_points([(0.0, dead_time_s)])

    @classmethod
    def from_csv(cls, path) -> "DeadTimeCurve":
        """Load a two-column CSV (lambda_cps, t_d_seconds) with a header row,
        rows sorted ascending by rate."""
        path = Path(path)
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty dead-time curve file") from None
            if len(header) < 2:
                raise ValueError(f"{path}: expected two columns, got header {header!r}")
            points = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    points.append((float(row[0]), float(row[1])))
                except (ValueError, IndexError):
                    raise ValueError(f"{path}: malformed row at line {lineno}: {row!r}") from None
        if not points:
            raise ValueError(f"{path}: dead-time curve has no data rows")
        return cls.from_points(points)


# Anchor table for the default curve: plateau at the nominal 23.3 ns below a
# few Mcps, rising once the rate passes ~4 Mcps, saturating near 31.5 ns in
# the high-count regime.  Endpoints are the measured values for a free-running
# SPCM-class SPAD; intermediate anchors are a digitization of that rise.
_DEFAULT_CURVE_POINTS = (
    (0.0, 23.3e-9),
    (2.0e6, 23.3e-9),
    (4.0e6, 24.0e-9),
    (8.0e6, 26.6e-9),
    (12.0e6, 28.8e-9),
    (16.0e6, 30.2e-9),
    (20.0e6, 31.0e-9),
    (25.0e6, 31.5e-9),
    (60.0e6, 31.5e-9),
)


@functools.cache
def default_dead_time_curve() -> DeadTimeCurve:
    """The default SPAD recovery curve (23.3 ns low-rate, ~31.5 ns high-rate),
    built on the first call and shared by every later one."""
    return DeadTimeCurve.from_points(_DEFAULT_CURVE_POINTS)


def busy_fraction(rate_cps, curve: DeadTimeCurve):
    """lambda * t_d(lambda): the fraction of time the detector is recovering;
    accepts a scalar or an array of rates, each >= 0 (not NaN)."""
    if not np.all(np.asarray(rate_cps) >= 0):
        raise ValueError("count rate must be >= 0")
    return rate_cps * curve.dead_time_at(rate_cps)


def availability(rate_cps: float, curve: DeadTimeCurve, model: AvailabilityModel) -> float:
    """Probability the detector is live at a random signal arrival time.

    The exponential form exp(-lambda*t_d) is the Poisson no-event probability
    over one dead-time window; the linear bound 1 - lambda*t_d is tighter
    (smaller) everywhere and only defined below saturation.
    """
    busy = busy_fraction(rate_cps, curve)
    if model is AvailabilityModel.EXPONENTIAL:
        return exp(-busy)
    if model is AvailabilityModel.LINEAR_BOUND:
        if busy >= 1.0:
            raise SaturationError(
                f"linear availability undefined at busy fraction {busy:.4f} >= 1 "
                f"(rate {rate_cps:.4g} cps)"
            )
        return 1.0 - busy
    raise ValueError(f"unknown availability model {model!r}")


def observed_rate(beta_cps: float, curve: DeadTimeCurve) -> float:
    """Observed rate of a non-paralyzable detector under Poisson arrivals at
    true rate beta: the root lambda of lambda * (1 + beta * t_d(lambda)) = beta.

    t_d is linear on each piece of the curve and flat beyond its ends, so on
    a piece that starts at rate r the condition is a quadratic in
    x = lambda - r, solved in closed form.  Left of its first root the
    condition's left side is below beta (it is 0 at lambda = 0), so the root
    is the first piece's smallest root x >= 0.  On a curve whose t_d never
    falls the root is unique; a falling curve can have several, and the
    smallest is returned.  beta = 0 gives 0.
    """
    beta = float(beta_cps)
    if not (np.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"true rate must be finite and >= 0, got {beta_cps!r}")
    if beta == 0.0:
        return 0.0
    rates, times = curve.rates_cps, curve.dead_times_s
    # the pieces start at 0 and at every positive table rate; the last one is
    # flat and unbounded
    starts = np.concatenate(([0.0], rates[rates > 0.0]))
    dead = np.interp(starts, rates, times)
    widths = np.append(np.diff(starts), np.inf)
    slopes = np.append(np.diff(dead) / widths[:-1], 0.0)
    # a x^2 + b x + c on each piece; c is the left side minus beta at its start
    a = beta * slopes
    b = 1.0 + beta * dead + a * starts
    c = starts * (1.0 + beta * dead) - beta
    with np.errstate(invalid="ignore", divide="ignore"):
        # the smaller root when c < 0, in the form that does not cancel
        x = -2.0 * c / (b + np.sqrt(b * b - 4.0 * a * c))
    # a piece holds a root when one lies in it, or when the left side reaches
    # beta at its end (a root lost to rounding lies within a few ulps of it)
    reaches = np.append(c[1:] >= 0.0, True)
    found = np.flatnonzero(((x >= 0.0) & (x <= widths)) | reaches)[0]
    return float(starts[found] + np.fmin(x[found], widths[found]))
