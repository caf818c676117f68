"""Dead-time curve, availability models, rate conversions, event-level detector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riesim.analysis import r_bound
from riesim.detector import (
    AvailabilityModel,
    DeadTimeCurve,
    SaturationError,
    availability,
    busy_fraction,
    default_dead_time_curve,
    observed_rate,
)

from reference import assert_kept_count_fits_law, thinned_clicks

EXP = AvailabilityModel.EXPONENTIAL
LIN = AvailabilityModel.LINEAR_BOUND


# ---------------------------------------------------------------- curve


def test_default_curve_low_rate_plateau():
    curve = default_dead_time_curve()
    assert curve.dead_time_at(1e6) == pytest.approx(23.3e-9, rel=1e-12)


def test_default_curve_high_rate_asymptote():
    curve = default_dead_time_curve()
    assert curve.dead_time_at(30e6) == pytest.approx(31.5e-9, rel=1e-12)
    assert curve.dead_time_at(100e6) == pytest.approx(31.5e-9, rel=1e-12)


def test_flat_curve_interpolates_flat():
    curve = DeadTimeCurve.from_points([(0.0, 20e-9), (100e6, 20e-9)])
    for rate in (0.0, 3e6, 50e6, 99e6, 500e6):
        assert curve.dead_time_at(rate) == 20e-9


def test_extrapolation_clamps_to_endpoints():
    curve = DeadTimeCurve.from_points([(5e6, 24e-9), (10e6, 30e-9)])
    assert curve.dead_time_at(0.0) == 24e-9
    assert curve.dead_time_at(50e6) == 30e-9


def test_curve_is_monotone_when_points_are():
    curve = default_dead_time_curve()
    grid = np.linspace(0, 80e6, 400)
    values = curve.dead_time_at(grid)
    assert np.all(np.diff(values) >= 0)


def test_curve_arrays_are_read_only_copies():
    rates = np.array([0.0, 1e6])
    curve = DeadTimeCurve(rates, np.array([2e-8, 3e-8]))
    rates[1] = 5e6
    assert curve.rates_cps[1] == 1e6
    with pytest.raises(ValueError, match="read-only"):
        curve.dead_times_s[0] = 1.0


def test_empty_curve_rejected():
    with pytest.raises(ValueError):
        DeadTimeCurve.from_points([])


def test_unsorted_curve_rejected():
    with pytest.raises(ValueError):
        DeadTimeCurve.from_points([(1e6, 24e-9), (1e6, 25e-9)])


def test_nonpositive_dead_time_rejected():
    with pytest.raises(ValueError):
        DeadTimeCurve.from_points([(0.0, 0.0)])


@pytest.mark.parametrize("points", [
    [(0.0, 1e-8), (1e6, float("nan"))],
    [(float("nan"), 1e-8)],
    [(0.0, 1e-8), (float("inf"), 2e-8)],
    [(0.0, float("inf"))],
], ids=["nan dead time", "nan rate", "infinite rate", "infinite dead time"])
def test_non_finite_curve_points_rejected(points):
    with pytest.raises(ValueError, match="finite"):
        DeadTimeCurve.from_points(points)


def test_curve_csv_round_trip(tmp_path):
    curve = default_dead_time_curve()
    path = tmp_path / "curve.csv"
    rows = [f"{rate!r},{t_d!r}" for rate, t_d in zip(curve.rates_cps.tolist(),
                                                     curve.dead_times_s.tolist())]
    path.write_text("\n".join(["lambda_cps,t_d_seconds", *rows]) + "\n")
    loaded = DeadTimeCurve.from_csv(path)
    np.testing.assert_array_equal(loaded.rates_cps, curve.rates_cps)
    np.testing.assert_array_equal(loaded.dead_times_s, curve.dead_times_s)


def test_curve_csv_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lambda_cps,t_d_seconds\n1e6,23e-9\nnot_a_number,5\n")
    with pytest.raises(ValueError, match="line 3"):
        DeadTimeCurve.from_csv(path)


# ---------------------------------------------------------------- availability


def test_idle_detector_always_available():
    curve = default_dead_time_curve()
    assert availability(0.0, curve, EXP) == 1.0
    assert availability(0.0, curve, LIN) == 1.0


def test_exponential_availability_at_unit_busy_fraction():
    # lambda * t_d = 1 exactly: availability is 1/e
    curve = DeadTimeCurve.constant(1e-6)
    assert availability(1e6, curve, EXP) == pytest.approx(0.36787944117144233, rel=1e-12)


def test_linear_bound_at_half_busy_fraction():
    curve = DeadTimeCurve.constant(1e-6)
    assert availability(0.5e6, curve, LIN) == pytest.approx(0.5, rel=1e-12)


def test_linear_bound_saturates_at_unit_busy_fraction():
    curve = DeadTimeCurve.constant(1e-6)
    with pytest.raises(SaturationError):
        availability(1e6, curve, LIN)
    with pytest.raises(SaturationError):
        availability(2e6, curve, LIN)


def test_linear_bound_below_exponential_everywhere():
    # 1 - x <= exp(-x) for x >= 0
    curve = default_dead_time_curve()
    for rate in np.linspace(0, 31e6, 100):
        lin = availability(rate, curve, LIN)
        expo = availability(rate, curve, EXP)
        assert lin <= expo


# ---------------------------------------------------------------- busy fraction


def test_busy_fraction_zero_at_zero_rate():
    assert busy_fraction(0.0, default_dead_time_curve()) == 0.0


def test_busy_fraction_is_rate_times_dead_time():
    curve = DeadTimeCurve.from_points([(0.0, 25e-9), (25e6, 31e-9), (50e6, 31e-9)])
    assert busy_fraction(25e6, curve) == pytest.approx(0.775, rel=1e-12)


def test_busy_fraction_flat_curve():
    curve = DeadTimeCurve.constant(23.3e-9)
    assert busy_fraction(10e6, curve) == pytest.approx(0.233, rel=1e-12)


def test_busy_fraction_monotone_on_monotone_curve():
    curve = default_dead_time_curve()
    grid = np.linspace(0, 60e6, 300)
    values = busy_fraction(grid, curve)
    assert np.array_equal(values, [busy_fraction(r, curve) for r in grid])
    assert np.all(np.diff(values) >= 0)


def test_busy_fraction_rejects_negative_rates():
    curve = default_dead_time_curve()
    for rate in (-1.0, np.array([1e6, -1.0])):
        with pytest.raises(ValueError, match="count rate must be >= 0"):
            busy_fraction(rate, curve)


def test_dead_time_at_rejects_nan_rates():
    curve = default_dead_time_curve()
    for rate in (float("nan"), np.array([1e6, np.nan]), [np.nan]):
        with pytest.raises(ValueError, match="^count rate must not be NaN$"):
            curve.dead_time_at(rate)
    # finite rates, negative ones too, read the curve as before
    assert curve.dead_time_at(-1.0) == curve.dead_time_at(0.0) == curve.dead_times_s[0]
    assert curve.dead_time_at(np.array([1e6, 100e6])).tolist() == [
        curve.dead_time_at(1e6), curve.dead_times_s[-1]]


def test_busy_fraction_rejects_nan_rates():
    curve = default_dead_time_curve()
    for rate in (float("nan"), np.array([1e6, np.nan])):
        with pytest.raises(ValueError, match="count rate must be >= 0"):
            busy_fraction(rate, curve)
    # r_bound reads both rates through busy_fraction
    with pytest.raises(ValueError, match="count rate must be >= 0"):
        r_bound(float("nan"), 1e6, curve)


# ---------------------------------------------------------------- rate conversion


def test_zero_rate_maps_to_zero():
    assert observed_rate(0.0, DeadTimeCurve.constant(25e-9)) == 0.0


def test_observed_rate_on_a_flat_curve_is_the_nonparalyzable_law():
    for beta in np.logspace(3, 9, 31):
        for t_d in (5e-9, 23.3e-9, 31.5e-9):
            expected = beta / (1.0 + beta * t_d)
            assert observed_rate(beta, DeadTimeCurve.constant(t_d)) == pytest.approx(
                expected, rel=1e-12)


@pytest.mark.parametrize("beta", [-1.0, -1e-300, float("nan"), float("inf"), -float("inf")])
def test_observed_rate_rejects_invalid_true_rates(beta):
    with pytest.raises(ValueError, match="true rate must be finite and >= 0"):
        observed_rate(beta, default_dead_time_curve())


@st.composite
def table_curves(draw):
    """Table curves of 1-12 points on a 1 Mcps grid (one may sit below 0)
    with dead times of 5-100 ns: non-decreasing, or in any order, so that
    t_d can fall steeply enough for the rate condition to have several
    roots."""
    rates = sorted(draw(st.lists(st.integers(-5, 100), min_size=1, max_size=12, unique=True)))
    times = draw(st.lists(st.floats(5e-9, 100e-9), min_size=len(rates), max_size=len(rates)))
    if draw(st.booleans()):
        times.sort()
    return DeadTimeCurve.from_points(zip(np.asarray(rates) * 1e6, times))


@settings(max_examples=400, deadline=None)
@given(table_curves(), st.floats(1e3, 1e9))
def test_observed_rate_is_the_smallest_root(curve, beta):
    def excess(rate):
        return rate * (1.0 + beta * curve.dead_time_at(rate)) - beta

    lam = observed_rate(beta, curve)
    assert 0.0 < lam < beta
    assert abs(excess(lam)) <= 1e-12 * beta
    # no smaller root: the left side stays below beta on a grid below lam
    # and at every table rate below it
    rates = curve.rates_cps
    below = np.concatenate((np.linspace(0.0, lam, 2001)[:-1], rates[(rates >= 0) & (rates < lam)]))
    assert np.all(excess(below) < 0.0)


def test_observed_rate_picks_the_smallest_of_three_roots():
    # t_d falls from 40 ns to 10 ns over 25-40 Mcps: at beta = 100 Mcps,
    # lambda * (1 + beta * t_d) reaches beta at 20 Mcps on the 40 ns plateau,
    # falls back below it inside the falling piece and reaches it again at
    # 50 Mcps on the 10 ns plateau
    curve = DeadTimeCurve.from_points([(25e6, 40e-9), (40e6, 10e-9)])
    beta = 100e6
    grid = np.linspace(0.0, beta, 400_001)
    side = grid * (1.0 + beta * curve.dead_time_at(grid)) >= beta
    assert np.flatnonzero(side[1:] != side[:-1]).size == 3
    assert observed_rate(beta, curve) == pytest.approx(20e6, rel=1e-12)


# ---------------------------------------------------------------- event level


@pytest.mark.parametrize("p0", [1.0, 0.5])
def test_thinned_stream_throughput_matches_nonparalyzable_formula(p0):
    # Poisson arrivals at 10 Mcps through a 23.3 ns dead time for 0.1 s; an
    # arrival that fails p0 neither clicks nor re-arms, so the clicks are
    # the renewal count of the p0-thinned stream, near p0*beta/(1+t_d*p0*beta)
    beta, t_d = 10e6, 23.3e-9
    assert_kept_count_fits_law(thinned_clicks(beta, p0, t_d, 0.1, seed=1234), beta, t_d, 0.1, p0)
