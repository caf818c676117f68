"""Dead-time curve, availability models, rate conversions, event-level detector."""

import numpy as np
import pytest

from riesim.detector import (
    ArrivalResult,
    AvailabilityModel,
    DeadTimeCurve,
    DetectorUnit,
    SaturationError,
    availability,
    busy_fraction,
    dead_time_at,
    default_dead_time_curve,
    observed_to_true_rate,
    true_to_observed_rate,
)
from riesim.timetag import generate_poisson_stream

EXP = AvailabilityModel.EXPONENTIAL
LIN = AvailabilityModel.LINEAR_BOUND


# ---------------------------------------------------------------- curve


def test_default_curve_low_rate_plateau():
    curve = default_dead_time_curve()
    assert dead_time_at(curve, 1e6) == pytest.approx(23.3e-9, rel=1e-12)


def test_default_curve_high_rate_asymptote():
    curve = default_dead_time_curve()
    assert dead_time_at(curve, 30e6) == pytest.approx(31.5e-9, rel=1e-12)
    assert dead_time_at(curve, 100e6) == pytest.approx(31.5e-9, rel=1e-12)


def test_flat_curve_interpolates_flat():
    curve = DeadTimeCurve.from_points([(0.0, 20e-9), (100e6, 20e-9)])
    for rate in (0.0, 3e6, 50e6, 99e6, 500e6):
        assert dead_time_at(curve, rate) == 20e-9


def test_extrapolation_clamps_to_endpoints():
    curve = DeadTimeCurve.from_points([(5e6, 24e-9), (10e6, 30e-9)])
    assert dead_time_at(curve, 0.0) == 24e-9
    assert dead_time_at(curve, 50e6) == 30e-9


def test_curve_is_monotone_when_points_are():
    curve = default_dead_time_curve()
    grid = np.linspace(0, 80e6, 400)
    values = curve.dead_time_at(grid)
    assert np.all(np.diff(values) >= 0)


def test_empty_curve_rejected():
    with pytest.raises(ValueError):
        DeadTimeCurve.from_points([])


def test_unsorted_curve_rejected():
    with pytest.raises(ValueError):
        DeadTimeCurve.from_points([(1e6, 24e-9), (1e6, 25e-9)])


def test_nonpositive_dead_time_rejected():
    with pytest.raises(ValueError):
        DeadTimeCurve.from_points([(0.0, 0.0)])


def test_curve_csv_round_trip(tmp_path):
    curve = default_dead_time_curve()
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
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
    values = np.array([busy_fraction(r, curve) for r in grid])
    assert np.all(np.diff(values) >= 0)


# ---------------------------------------------------------------- rate conversion


def test_zero_rate_maps_to_zero():
    assert observed_to_true_rate(0.0, 25e-9) == 0.0
    assert true_to_observed_rate(0.0, 25e-9) == 0.0


def test_half_busy_doubles_rate():
    # lambda * t_d = 0.5 means the true rate is twice the observed one
    assert observed_to_true_rate(1e7, 5e-8) == pytest.approx(2e7, rel=1e-12)


def test_rate_round_trip_identity():
    for beta in (1e5, 1e6, 4e7, 2e8):
        for t_d in (5e-9, 23.3e-9, 31.5e-9):
            lam = true_to_observed_rate(beta, t_d)
            assert observed_to_true_rate(lam, t_d) == pytest.approx(beta, rel=1e-12)


def test_observed_to_true_saturation_error():
    with pytest.raises(SaturationError):
        observed_to_true_rate(1e9, 23.3e-9)


# ---------------------------------------------------------------- event loop


def test_fresh_detector_clicks_and_arms_dead_window():
    curve = DeadTimeCurve.constant(23.3e-9)
    det = DetectorUnit(p0=1.0, curve=curve)
    rng = np.random.default_rng(0)
    assert det.process_arrival(1e-6, rng) is ArrivalResult.CLICK
    assert det.dead_until_s == pytest.approx(1e-6 + 23.3e-9, rel=1e-12)


def test_arrival_inside_dead_window_is_suppressed():
    curve = DeadTimeCurve.constant(23.3e-9)
    det = DetectorUnit(p0=1.0, curve=curve)
    rng = np.random.default_rng(0)
    det.process_arrival(1e-6, rng)
    dead_until = det.dead_until_s
    assert det.process_arrival(dead_until - 1e-12, rng) is ArrivalResult.SUPPRESSED
    # suppressed arrival does not extend the window (non-paralyzable)
    assert det.dead_until_s == dead_until


def test_non_monotone_arrivals_rejected():
    det = DetectorUnit(p0=1.0, curve=DeadTimeCurve.constant(1e-8))
    rng = np.random.default_rng(0)
    det.process_arrival(5e-6, rng)
    with pytest.raises(ValueError):
        det.process_arrival(4e-6, rng)


def test_quantum_inefficiency_does_not_arm_dead_window():
    det = DetectorUnit(p0=0.5, curve=DeadTimeCurve.constant(1e-8))
    rng = np.random.default_rng(1)
    t = 0.0
    saw_no_click_while_live = False
    for _ in range(200):
        t += 1e-6  # far apart: detector always live
        before = det.dead_until_s
        result = det.process_arrival(t, rng)
        if result is ArrivalResult.SUPPRESSED:
            saw_no_click_while_live = True
            assert det.dead_until_s == before
    assert saw_no_click_while_live


def test_event_loop_throughput_matches_nonparalyzable_formula():
    # Poisson arrivals at 10 Mcps through a 23.3 ns dead time for 1 s of
    # simulated time: the click rate must land within 2% of beta/(1+t_d*beta).
    beta = 10e6
    t_d = 23.3e-9
    stream = generate_poisson_stream(beta, 1.0, seed=1234)
    det = DetectorUnit(p0=1.0, curve=DeadTimeCurve.constant(t_d))
    rng = np.random.default_rng(0)
    process = det.process_arrival
    click = ArrivalResult.CLICK
    clicks = 0
    for t in stream.timestamps_s:
        if process(t, rng) is click:
            clicks += 1
    observed = clicks / stream.duration_s
    expected = beta / (1.0 + t_d * beta)
    assert abs(observed - expected) / expected < 0.02


def test_invalid_detector_parameters_rejected():
    curve = DeadTimeCurve.constant(1e-8)
    with pytest.raises(ValueError):
        DetectorUnit(p0=0.0, curve=curve)
    with pytest.raises(ValueError):
        DetectorUnit(p0=1.0, curve=curve, loading_rate_cps=-1.0)
