"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (run with -s to see them inline).
A criterion on simulate checks its closed form exactly against the tally of
the round law it samples, then its Monte Carlo run by one chi-square of the
run's counts against that law at reference.ALPHA
(reference.assert_report_fits_law).  Criterion 9's throughput checks are
z-tests of kept counts against their renewal law at the same ALPHA
(reference.assert_kept_count_fits_law).  Other analytic comparisons are
exact or at the listed absolute tolerance.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from riesim.adversary import AttackConfig, AttackMode, effective_r
from riesim.analysis import (
    e_obs,
    mutual_info_bob_sifted,
    mutual_info_eve_sifted,
    r_bound,
    r_threshold,
    sift_probability,
)
from riesim.detector import (
    AvailabilityModel,
    DeadTimeCurve,
    availability,
    default_dead_time_curve,
    observed_rate,
)
from riesim.protocol import ProtocolConfig, _round_law, _tally, run_simulation
from riesim.quantum import Basis, PolarizationState
from riesim.timetag import apply_dead_time, generate_poisson_stream, sweep_dead_time

from reference import (assert_kept_count_fits_law, assert_report_fits_law, law_totals,
                       rie_with_ratio, thinned_clicks)

FLAT_CURVE = DeadTimeCurve.constant(23.3e-9)

# orthogonal-loading rate at which the conservative bound crosses the 0.282
# threshold for a 1 Mcps aligned load on the default curve; recorded from the
# first verified bisection run
GOLDEN_CROSSING_CPS = 23137459.0274


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except AssertionError:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number} PASS: {title}")


def test_criterion_1_threshold_reproduction():
    with criterion(1, "stealth threshold r_th(0.11) = 0.282"):
        value = r_threshold(0.11)
        assert value == pytest.approx(0.282, abs=1e-3)
        for e_abort in (0.01, 0.05, 0.11, 0.2, 0.25, 0.4):
            assert e_obs(r_threshold(e_abort)) == pytest.approx(e_abort, rel=1e-12)


def test_criterion_2_qber_law():
    with criterion(2, "Monte Carlo QBER matches r/(2(1+r)) at r = 0.1..1.0"):
        for i, r in enumerate((0.1, 0.282, 0.5, 1.0)):
            config = ProtocolConfig(n_rounds=500_000, p0=1.0, seed=100 + i,
                                    dead_time_curve=FLAT_CURVE)
            attack = rie_with_ratio(r)
            _, _, sifted, errors, _ = law_totals(config, attack)
            assert errors / sifted == pytest.approx(e_obs(r), rel=1e-12), f"r={r}"
            report = run_simulation(config, attack)
            assert report.n_sifted >= 100_000
            assert_report_fits_law(report, config, attack)


def test_criterion_3_sift_probability():
    with criterion(3, "sift rate matches (p_par + p_perp)/4"):
        n = 500_000
        cases = [
            # (p_par, p_perp) = (1, 0): deterministic pre-pulse inside the window
            (1.0, 0.0, 1.0,
             AttackConfig(mode=AttackMode.RIE_DETERMINISTIC, delta_s=10e-9)),
            # (0.8, 0.2): p0 = 0.8 with availability 0.25 on the orthogonal path
            (0.8, 0.2, 0.8,
             AttackConfig(mode=AttackMode.RIE_NON_DETERMINISTIC,
                          lambda_parallel_cps=0.0,
                          lambda_perp_cps=-math.log(0.25) / 23.3e-9)),
            # (1, 1): plain intercept-resend
            (1.0, 1.0, 1.0, AttackConfig(mode=AttackMode.INTERCEPT_RESEND)),
        ]
        for i, (p_par, p_perp, p0, attack) in enumerate(cases):
            config = ProtocolConfig(n_rounds=n, p0=p0, seed=200 + i,
                                    dead_time_curve=FLAT_CURVE)
            _, _, sifted, _, _ = law_totals(config, attack)
            assert sifted == pytest.approx(sift_probability(p_par, p_perp), rel=1e-12), (
                f"(p_par={p_par}, p_perp={p_perp})")
            assert_report_fits_law(run_simulation(config, attack), config, attack)


def test_criterion_4_mutual_information_ordering():
    with criterion(4, "I(A;E) >= I(A;B) on the r grid; omega_M matches 1/(1+r)"):
        for r in np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 10):
            i_ae = mutual_info_eve_sifted(float(r))
            i_ab = mutual_info_bob_sifted(float(r))
            if r == 0.0:
                assert abs(i_ae - i_ab) <= 1e-12
            else:
                assert i_ae > i_ab
        for i, r in enumerate((0.282, 1.0)):
            config = ProtocolConfig(n_rounds=600_000, p0=1.0, seed=300 + i,
                                    dead_time_curve=FLAT_CURVE)
            attack = rie_with_ratio(r)
            _, _, sifted, _, eve_match = law_totals(config, attack)
            assert eve_match / sifted == pytest.approx(1.0 / (1.0 + r), rel=1e-12), f"r={r}"
            assert_report_fits_law(run_simulation(config, attack), config, attack)


def test_criterion_5_dead_time_extraction():
    with criterion(5, "synthetic sweep recovers the 23.3 -> 31.5 ns curve"):
        curve = default_dead_time_curve()
        bin_width = 0.5e-9
        rates = [1e6, 5e6, 20e6, 40e6]
        points = sweep_dead_time(rates, curve, duration_s=0.1,
                                 bin_width_s=bin_width, seed=400)
        for pt in points:
            truth = curve.dead_time_at(pt.lambda_obs_cps)
            tolerance = max(bin_width, 0.03 * truth)
            assert abs(pt.dead_time_est_s - truth) <= tolerance, (
                f"at {pt.lambda_obs_cps:.3g} cps: {pt.dead_time_est_s} vs {truth}")
        low = min(points, key=lambda p: p.lambda_obs_cps)
        high = max(points, key=lambda p: p.lambda_obs_cps)
        assert abs(low.dead_time_est_s - 23.3e-9) <= 0.05 * 23.3e-9
        assert abs(high.dead_time_est_s - 31.5e-9) <= 0.05 * 31.5e-9
        assert high.dead_time_est_s > low.dead_time_est_s


def test_criterion_6_stealth_regime():
    with criterion(6, "bound crosses 0.282 in the 15-35 Mcps band, monotone"):
        curve = default_dead_time_curve()
        threshold = r_threshold(0.11)

        lo, hi = 1e6, 31e6
        assert r_bound(1e6, lo, curve) > threshold
        assert r_bound(1e6, hi, curve) < threshold
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if r_bound(1e6, mid, curve) > threshold:
                lo = mid
            else:
                hi = mid
        crossing = 0.5 * (lo + hi)
        assert 15e6 <= crossing <= 35e6
        assert crossing == pytest.approx(GOLDEN_CROSSING_CPS, rel=1e-6)

        grid = np.linspace(0.0, 31e6, 311)
        for lam_par in (1e6, 2e6, 5e6, 10e6):
            values = [r_bound(lam_par, lam, curve) for lam in grid]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_criterion_7_deterministic_prepulse_limit():
    with criterion(7, "delta < t_d: r = 0, zero QBER, raised erasure rate"):
        curve = default_dead_time_curve()
        attack = AttackConfig(mode=AttackMode.RIE_DETERMINISTIC, delta_s=10e-9)
        config = ProtocolConfig(n_rounds=500_000, p0=1.0, seed=500,
                                dead_time_curve=curve)
        assert effective_r(config, attack) == 0.0

        report = run_simulation(config, attack)
        baseline = run_simulation(
            ProtocolConfig(n_rounds=500_000, p0=1.0, seed=501, dead_time_curve=curve),
            AttackConfig())
        assert report.qber_observed == 0.0
        assert report.abort is False
        assert report.erasure_probability > baseline.erasure_probability


def test_criterion_8_branch_reproduction():
    with criterion(8, "fixed-Z0 branch clicks, kept flags, 50% orthogonal error"):
        p0 = 0.9
        avail_perp = 0.4
        attack = AttackConfig(mode=AttackMode.RIE_NON_DETERMINISTIC,
                              lambda_parallel_cps=2e6,
                              lambda_perp_cps=-math.log(avail_perp) / 23.3e-9)
        alice = PolarizationState(Basis.Z, 0)
        config = ProtocolConfig(n_rounds=1_000_000, p0=p0, seed=600,
                                dead_time_curve=FLAT_CURVE, fixed_alice=alice)
        report = run_simulation(config, attack)
        assert_report_fits_law(report, config, attack)
        rows = report.per_branch_stats
        # [row, Eve's basis, Eve's bit, Bob's basis]
        law = _tally(_round_law(config, attack))
        index = {Basis.Z: 0, Basis.X: 1}

        p_par, p_perp = p0, p0 * avail_perp
        expectations = {
            (Basis.Z, 0, Basis.Z): (p_par, True, 0.0),
            (Basis.Z, 0, Basis.X): (p_perp, False, None),
            (Basis.X, 0, Basis.X): (p_par, False, None),
            (Basis.X, 0, Basis.Z): (p_perp, True, 0.5),
            (Basis.X, 1, Basis.X): (p_par, False, None),
            (Basis.X, 1, Basis.Z): (p_perp, True, 0.5),
        }
        for key, (click_p, kept, cond_error) in expectations.items():
            eve_basis, eve_bit, bob_basis = key
            rounds, clicks, sifted, errors, _ = law[:, index[eve_basis], eve_bit, index[bob_basis]]
            assert clicks / rounds == pytest.approx(click_p, rel=1e-12), f"branch {key}"
            # kept: Bob's basis matches Alice's, so the branch reaches the sifted key
            assert (sifted > 0) == kept
            if kept:
                assert errors / sifted == pytest.approx(cond_error, rel=1e-12), f"branch {key}"
            row = rows[key]
            assert row.n_rounds > 0
            assert (row.n_sifted > 0) is kept
            if cond_error == 0.0:
                assert row.conditional_error_rate == 0.0
        # Eve measuring Z on Z0 never yields bit 1
        assert rows[(Basis.Z, 1, Basis.Z)].n_rounds == 0
        assert rows[(Basis.Z, 1, Basis.X)].n_rounds == 0


def test_criterion_9_property_suites():
    with criterion(9, "availability bound, observed-rate law, throughput, determinism"):
        curve = default_dead_time_curve()
        # 1 - x <= exp(-x) across the operating range
        for rate in np.linspace(0.0, 31e6, 100):
            lin = availability(rate, curve, AvailabilityModel.LINEAR_BOUND)
            expo = availability(rate, curve, AvailabilityModel.EXPONENTIAL)
            assert lin <= expo

        # the observed rate at a constant dead time is beta / (1 + beta * t_d)
        # at 1e-12 relative
        for beta in np.logspace(4, 8.5, 25):
            for t_d in (5e-9, 23.3e-9, 31.5e-9):
                lam = observed_rate(beta, DeadTimeCurve.constant(t_d))
                assert lam == pytest.approx(beta / (1.0 + beta * t_d), rel=1e-12)

        # non-paralyzable throughput, near beta / (1 + t_d * beta): the
        # stream filter's kept count against its renewal law on the 8 ps
        # grid, and with p0 = 0.5 thinning against the thinned stream's
        beta, t_d = 50e6, 23.3e-9
        stream = generate_poisson_stream(beta, 0.02, seed=900)
        filtered = apply_dead_time(stream, constant_dead_time_s=t_d)
        assert_kept_count_fits_law(len(filtered), beta, t_d, 0.02)
        assert_kept_count_fits_law(thinned_clicks(10e6, 0.5, t_d, 0.1, seed=901),
                                   10e6, t_d, 0.1, p0=0.5)

        # determinism: byte-identical reports on a same-seed rerun
        attack = rie_with_ratio(0.3)
        config = ProtocolConfig(n_rounds=200_000, p0=0.9, seed=902,
                                dead_time_curve=curve)
        first = run_simulation(config, attack)
        second = run_simulation(config, attack)
        assert first == second
        assert first.to_text() == second.to_text()
