"""Protocol engine: the round law, sifting statistics, determinism.

The count-level kernel samples whole runs from the 128-cell round law.  The
per-round sampler in reference.py plays rounds event by event; it is the
reference the law is checked against.
"""

import math
from itertools import product

import numpy as np
import pytest
from scipy.stats import chisquare

from riesim.adversary import AttackConfig, AttackMode, branch_click_probabilities, effective_r
from riesim.analysis import e_obs, mutual_info_eve_sifted, sift_probability
from riesim.detector import AvailabilityModel, DeadTimeCurve, default_dead_time_curve
from riesim.protocol import (
    _ERROR,
    _SIFTED,
    ProtocolConfig,
    _round_law,
    _tally,
    run_simulation,
)
from riesim.quantum import Basis, PolarizationState

import reference
from reference import resolve_outcome, round_cell, run_round

FLAT = DeadTimeCurve.constant(23.3e-9)
NO_ATTACK = AttackConfig()
INTERCEPT = AttackConfig(mode=AttackMode.INTERCEPT_RESEND)


def rie_with_ratio(r: float) -> AttackConfig:
    """Loading that realizes p_perp/p_parallel = r on the flat curve under the
    exponential model with an unloaded aligned path: lambda = -ln(r)/t_d."""
    lam_perp = 0.0 if r >= 1.0 else -math.log(r) / 23.3e-9
    return AttackConfig(mode=AttackMode.RIE_NON_DETERMINISTIC,
                        lambda_parallel_cps=0.0, lambda_perp_cps=lam_perp)


def config(n_rounds, p0=1.0, seed=1, **kw) -> ProtocolConfig:
    return ProtocolConfig(n_rounds=n_rounds, p0=p0, seed=seed, dead_time_curve=FLAT, **kw)


def binom_sigma(p, n):
    return math.sqrt(p * (1 - p) / n)


# ---------------------------------------------------------------- reference sampler


def test_no_attack_sifted_rounds_are_error_free():
    cfg = config(1, p0=1.0)
    rng = np.random.default_rng(0)
    for _ in range(500):
        record = run_round(cfg, NO_ATTACK, rng)
        if record.sifted:
            assert record.error is False
            assert record.outcome == record.alice_bit


def test_round_record_invariants():
    cfg = config(1, p0=0.6)
    attack = rie_with_ratio(0.4)
    rng = np.random.default_rng(3)
    for _ in range(500):
        record = run_round(cfg, attack, rng)
        if record.sifted:
            assert record.outcome is not None
            assert record.alice_basis is record.bob_basis
            assert record.error == (record.outcome != record.alice_bit)
        else:
            assert record.error is None
        if record.outcome is None:
            assert not record.sifted


def test_fixed_alice_is_honored():
    cfg = config(1, fixed_alice=PolarizationState(Basis.Z, 0))
    rng = np.random.default_rng(4)
    for _ in range(100):
        record = run_round(cfg, INTERCEPT, rng)
        assert record.alice_basis is Basis.Z
        assert record.alice_bit == 0


REFERENCE_CASES = {
    "rie, background, transmission, priors": (
        ProtocolConfig(n_rounds=1, p0=0.9, seed=1, transmission=0.7, basis_prior=0.6,
                       background_rate_cps=2e6),
        AttackConfig(mode=AttackMode.RIE_NON_DETERMINISTIC, lambda_parallel_cps=1e6,
                     lambda_perp_cps=20e6, eve_basis_prior=0.3),
    ),
    "rie linear, fixed Z0": (
        config(1, p0=0.8, background_rate_cps=1e6, fixed_alice=PolarizationState(Basis.Z, 0),
               availability_model=AvailabilityModel.LINEAR_BOUND),
        AttackConfig(mode=AttackMode.RIE_NON_DETERMINISTIC, lambda_perp_cps=15e6),
    ),
    "deterministic, fixed X1": (
        ProtocolConfig(n_rounds=1, p0=0.8, seed=1, background_rate_cps=1e6,
                       fixed_alice=PolarizationState(Basis.X, 1)),
        AttackConfig(mode=AttackMode.RIE_DETERMINISTIC, delta_s=10e-9, eve_basis_prior=0.6),
    ),
    "none, p0 0.5": (
        config(1, p0=0.5, basis_prior=0.45, background_rate_cps=5e6),
        NO_ATTACK,
    ),
    "intercept-resend": (
        config(1, p0=0.9, transmission=0.5, basis_prior=0.4),
        AttackConfig(mode=AttackMode.INTERCEPT_RESEND, eve_basis_prior=0.7),
    ),
}


def test_round_law_matches_reference_sampler():
    # chi-square of 20000 event-level rounds over the law's non-zero cells,
    # those expected below 5 pooled into one; a round in a zero-probability
    # cell fails outright, and each round's cell must carry its sifted and
    # error flags
    n = 20_000
    for i, (name, (cfg, attack)) in enumerate(REFERENCE_CASES.items()):
        law = _round_law(cfg, attack).ravel()
        assert law.sum() == pytest.approx(1.0, abs=1e-12), name
        rng = np.random.default_rng([31, i])
        records = [run_round(cfg, attack, rng) for _ in range(n)]
        cells = np.array([round_cell(record) for record in records])
        assert np.array_equal(_SIFTED.ravel()[cells], [r.sifted for r in records]), name
        assert np.array_equal(_ERROR.ravel()[cells], [bool(r.error) for r in records]), name
        observed = np.bincount(cells, minlength=law.size)
        assert not observed[law == 0.0].any(), f"{name}: round in a zero-probability cell"
        f_obs, f_exp = observed[law > 0.0], n * law[law > 0.0]
        small = f_exp < 5.0
        if small.any():
            f_obs = np.append(f_obs[~small], f_obs[small].sum())
            f_exp = np.append(f_exp[~small], f_exp[small].sum())
        assert chisquare(f_obs, f_exp).pvalue > 1e-3, name


# the chi-square cases plus the plain attacks and strongly biased priors
EXACT_CASES = {
    **REFERENCE_CASES,
    "none": (config(1, p0=0.9), NO_ATTACK),
    "intercept-resend, uniform priors": (config(1, p0=0.9), INTERCEPT),
    "deterministic, fixed X1, uniform priors": (
        config(1, p0=0.9, fixed_alice=PolarizationState(Basis.X, 1)),
        AttackConfig(mode=AttackMode.RIE_DETERMINISTIC, delta_s=10e-9),
    ),
    "rie, priors 0.8": (
        config(1, p0=0.9, basis_prior=0.8),
        AttackConfig(mode=AttackMode.RIE_NON_DETERMINISTIC, lambda_perp_cps=20e6,
                     eve_basis_prior=0.8),
    ),
}


@pytest.mark.parametrize("name", list(EXACT_CASES))
def test_round_law_equals_per_cell_reference(name):
    # the array algebra keeps the per-cell loop's float order, so every cell
    # is bitwise equal, not merely close
    cfg, attack = EXACT_CASES[name]
    assert np.array_equal(_round_law(cfg, attack), reference.round_law(cfg, attack))


def test_round_law_reduces_to_branch_click_probabilities():
    p0, avail_perp = 0.9, 0.4
    attack = AttackConfig(mode=AttackMode.RIE_NON_DETERMINISTIC,
                          lambda_perp_cps=-math.log(avail_perp) / 23.3e-9)
    law = _round_law(config(1, p0=p0), attack)
    # axes: alice basis, alice bit, eve basis, eve bit, bob basis, detector, click
    by_alignment = law.sum(axis=(0, 1, 3, 5))  # (eve basis, bob basis, click)
    for eve_basis in (0, 1):
        for bob_basis in (0, 1):
            cell = by_alignment[eve_basis, bob_basis]
            click_rate = cell[1] / cell.sum()
            expected = p0 if eve_basis == bob_basis else p0 * avail_perp
            assert click_rate == pytest.approx(expected, rel=1e-12)
    # Eve never disagrees with Alice when she measures in Alice's basis
    assert law[0, 0, 0, 1].sum() == 0.0 and law[1, 1, 1, 0].sum() == 0.0


@pytest.mark.parametrize("model", list(AvailabilityModel), ids=lambda m: m.value)
@pytest.mark.parametrize("mode", [m for m in AttackMode if m is not AttackMode.NONE],
                         ids=lambda m: m.value)
def test_law_tally_matches_closed_forms_at_uniform_priors(mode, model):
    # the tally of the law is each report count's expectation per round; at
    # uniform priors and without fixed_alice it is what analysis.py states.
    # None of these cases saturates the linear law (busy stays below 0.9).
    for bg, lam_perp, curve in product((0.0, 1e5, 3e6), (1e6, 10e6, 25e6),
                                       (default_dead_time_curve(), FLAT)):
        cfg = ProtocolConfig(n_rounds=1, p0=0.9, seed=0, dead_time_curve=curve,
                             availability_model=model, background_rate_cps=bg)
        attack = AttackConfig(mode=mode, lambda_parallel_cps=2e6, lambda_perp_cps=lam_perp,
                              delta_s=10e-9 if mode is AttackMode.RIE_DETERMINISTIC else None)
        rounds, clicks, sifted, errors, eve_match = _tally(_round_law(cfg, attack)).sum(
            axis=(1, 2, 3))
        p_par, p_perp = branch_click_probabilities(cfg, attack)
        r = effective_r(cfg, attack)
        case = (bg, lam_perp, curve)
        assert rounds == pytest.approx(1.0, rel=1e-12), case
        assert sifted == pytest.approx(sift_probability(p_par, p_perp), rel=1e-12), case
        assert errors / sifted == pytest.approx(e_obs(r), rel=1e-12), case
        assert 1.0 - clicks == pytest.approx(1.0 - (p_par + p_perp) / 2.0, rel=1e-12), case
        assert eve_match / sifted == pytest.approx(mutual_info_eve_sifted(r), rel=1e-12), case


# ---------------------------------------------------------------- outcome squash


def test_resolve_outcome_no_click_is_erasure():
    assert resolve_outcome([], np.random.default_rng(0)) is None


def test_resolve_outcome_single_click_keeps_detector_bit():
    assert resolve_outcome([1], np.random.default_rng(0)) == 1
    assert resolve_outcome([0], np.random.default_rng(0)) == 0


def test_resolve_outcome_double_click_squashes_to_random_bit():
    rng = np.random.default_rng(8)
    bits = [resolve_outcome([0, 1], rng) for _ in range(2000)]
    assert set(bits) == {0, 1}
    assert abs(np.mean(bits) - 0.5) < 3 * binom_sigma(0.5, 2000)


# ---------------------------------------------------------------- aggregate statistics


def test_no_attack_ideal_detectors_qber_exactly_zero(tmp_path):
    report = run_simulation(config(200_000), NO_ATTACK)
    assert report.qber_observed == 0.0
    assert report.abort is False
    assert report.n_clicks == report.n_rounds  # p0 = 1, no loading
    assert report.per_branch_stats is None
    with pytest.raises(ValueError, match="no branch statistics"):
        report.write_branch_csv(tmp_path / "branches.csv")


def test_no_attack_sift_probability_is_half_p0():
    p0 = 0.62
    n = 1_000_000
    report = run_simulation(config(n, p0=p0, seed=5), NO_ATTACK)
    expected = 0.5 * p0
    assert abs(report.sift_probability - expected) < 3 * binom_sigma(expected, n)


def test_intercept_resend_qber_quarter():
    n = 1_000_000
    report = run_simulation(config(n, seed=6), INTERCEPT)
    sigma = binom_sigma(0.25, report.n_sifted)
    assert abs(report.qber_observed - 0.25) < 3 * sigma
    assert report.abort is True


def test_rie_qber_matches_closed_form():
    n = 1_200_000
    attack = rie_with_ratio(0.2)
    report = run_simulation(config(n, seed=7), attack)
    expected = e_obs(0.2)  # 0.2 / 2.4
    sigma = binom_sigma(expected, report.n_sifted)
    assert abs(report.qber_observed - expected) < 3 * sigma
    assert report.abort is False


def test_rie_sift_probability_matches_closed_form():
    n = 1_000_000
    attack = rie_with_ratio(0.2)
    report = run_simulation(config(n, seed=8), attack)
    expected = sift_probability(1.0, 0.2)
    assert abs(report.sift_probability - expected) < 3 * binom_sigma(expected, n)


def test_erasure_and_click_probabilities_sum_to_one():
    report = run_simulation(config(100_000, p0=0.5, seed=9), INTERCEPT)
    assert report.erasure_probability + report.n_clicks / report.n_rounds == pytest.approx(1.0)


def test_zero_loading_rie_indistinguishable_from_intercept_resend():
    n = 600_000
    p0 = 0.8
    rie = AttackConfig(mode=AttackMode.RIE_NON_DETERMINISTIC,
                       lambda_parallel_cps=0.0, lambda_perp_cps=0.0)
    report = run_simulation(config(n, p0=p0, seed=10), rie)
    sigma_q = binom_sigma(0.25, report.n_sifted)
    assert abs(report.qber_observed - 0.25) < 3 * sigma_q
    sigma_e = binom_sigma(1 - p0, n)
    assert abs(report.erasure_probability - (1 - p0)) < 3 * sigma_e


def test_deterministic_prepulse_gives_zero_qber_and_extra_erasure():
    n = 400_000
    attack = AttackConfig(mode=AttackMode.RIE_DETERMINISTIC, delta_s=10e-9)
    report = run_simulation(config(n, seed=11), attack)
    baseline = run_simulation(config(n, seed=12), NO_ATTACK)
    assert report.qber_observed == 0.0
    assert report.erasure_probability > baseline.erasure_probability


def test_trillion_rounds_match_closed_forms():
    # sigma is about 1e-6 here, so a table error above about 1e-5 fails
    n = 10**12
    report = run_simulation(config(n, seed=29), rie_with_ratio(0.3))
    qber = e_obs(0.3)
    assert abs(report.qber_observed - qber) < 5 * binom_sigma(qber, report.n_sifted)
    sift = sift_probability(1.0, 0.3)
    assert abs(report.sift_probability - sift) < 5 * binom_sigma(sift, n)


CROSS_CHECK_CASES = {
    "non-deterministic, background, lambda_par, transmission": (
        ProtocolConfig(n_rounds=10**9, p0=0.9, seed=41, transmission=0.7,
                       background_rate_cps=2e6),
        AttackConfig(mode=AttackMode.RIE_NON_DETERMINISTIC, lambda_parallel_cps=5e6,
                     lambda_perp_cps=25e6),
    ),
    "deterministic, background": (
        ProtocolConfig(n_rounds=10**9, p0=0.8, seed=42, background_rate_cps=3e6),
        AttackConfig(mode=AttackMode.RIE_DETERMINISTIC, delta_s=20e-9),
    ),
    "linear model": (
        ProtocolConfig(n_rounds=10**9, p0=0.85, seed=43, transmission=0.8,
                       background_rate_cps=1e6,
                       availability_model=AvailabilityModel.LINEAR_BOUND),
        AttackConfig(mode=AttackMode.RIE_NON_DETERMINISTIC, lambda_parallel_cps=2e6,
                     lambda_perp_cps=15e6),
    ),
}


@pytest.mark.parametrize("name", list(CROSS_CHECK_CASES))
def test_simulate_agrees_with_analytic(name):
    # what `analytic` prints for uniform priors, against a 1e9-round run;
    # sigma is 0 where r = 0, so the bound is inclusive
    cfg, attack = CROSS_CHECK_CASES[name]
    report = run_simulation(cfg, attack)
    qber = e_obs(effective_r(cfg, attack))
    assert abs(report.qber_observed - qber) <= 4 * binom_sigma(qber, report.n_sifted)
    sift = sift_probability(*branch_click_probabilities(cfg, attack))
    assert abs(report.sift_probability - sift) <= 4 * binom_sigma(sift, cfg.n_rounds)


def test_linear_bound_model_also_supported():
    attack = AttackConfig(mode=AttackMode.RIE_NON_DETERMINISTIC,
                          lambda_parallel_cps=0.0, lambda_perp_cps=20e6)
    cfg = config(300_000, seed=13, availability_model=AvailabilityModel.LINEAR_BOUND)
    report = run_simulation(cfg, attack)
    r = 1.0 - 20e6 * 23.3e-9  # linear availability on the flat curve
    expected = e_obs(r)
    assert abs(report.qber_observed - expected) < 3 * binom_sigma(expected, report.n_sifted)


# ---------------------------------------------------------------- determinism


def test_same_seed_gives_identical_reports():
    attack = rie_with_ratio(0.3)
    a = run_simulation(config(150_000, seed=21), attack)
    b = run_simulation(config(150_000, seed=21), attack)
    assert a == b
    assert a.to_text() == b.to_text()


def test_different_seed_gives_different_counts():
    a = run_simulation(config(150_000, seed=22), INTERCEPT)
    b = run_simulation(config(150_000, seed=23), INTERCEPT)
    assert a.n_sifted != b.n_sifted or a.n_errors != b.n_errors


# ---------------------------------------------------------------- branch table


def test_branch_table_against_known_branch_behavior():
    # fixed Alice Z0; aligned Eve branches click at p_par, orthogonal at
    # p_perp; only Bob-Z branches are kept and orthogonal kept branches show
    # 50% conditional error
    p0 = 0.9
    lam_perp = -math.log(0.4) / 23.3e-9  # availability 0.4 on the flat curve
    attack = AttackConfig(mode=AttackMode.RIE_NON_DETERMINISTIC,
                          lambda_parallel_cps=2e6, lambda_perp_cps=lam_perp)
    cfg = config(400_000, p0=p0, seed=25, fixed_alice=PolarizationState(Basis.Z, 0))
    report = run_simulation(cfg, attack)
    rows = report.per_branch_stats

    p_par = p0
    p_perp = p0 * 0.4
    # Eve measured Z on Z0: always bit 0, so Z1 branches are empty
    assert rows[(Basis.Z, 1, Basis.Z)].n_rounds == 0
    assert rows[(Basis.Z, 1, Basis.X)].n_rounds == 0

    aligned = rows[(Basis.Z, 0, Basis.Z)]
    assert aligned.n_sifted > 0
    assert abs(aligned.click_rate - p_par) < 3 * binom_sigma(p_par, aligned.n_rounds)
    assert aligned.conditional_error_rate == 0.0

    discarded = rows[(Basis.Z, 0, Basis.X)]
    assert discarded.n_rounds > 0 and discarded.n_sifted == 0
    assert abs(discarded.click_rate - p_perp) < 3 * binom_sigma(p_perp, discarded.n_rounds)

    for eve_bit in (0, 1):
        error_suppressed = rows[(Basis.X, eve_bit, Basis.Z)]
        assert error_suppressed.n_sifted > 0
        assert abs(error_suppressed.click_rate - p_perp) < 3 * binom_sigma(
            p_perp, error_suppressed.n_rounds)
        assert abs(error_suppressed.conditional_error_rate - 0.5) < 3 * binom_sigma(
            0.5, error_suppressed.n_sifted)

        irrelevant = rows[(Basis.X, eve_bit, Basis.X)]
        assert irrelevant.n_rounds > 0 and irrelevant.n_sifted == 0
        assert abs(irrelevant.click_rate - p_par) < 3 * binom_sigma(p_par, irrelevant.n_rounds)


def test_eve_match_fraction_tracks_sifted_composition():
    attack = rie_with_ratio(0.5)
    report = run_simulation(config(800_000, seed=28), attack)
    omega = report.n_sifted_eve_match / report.n_sifted
    expected = 1.0 / 1.5  # p_par/(p_par + p_perp)
    assert abs(omega - expected) < 3 * binom_sigma(expected, report.n_sifted)


# ---------------------------------------------------------------- config validation


@pytest.mark.parametrize("rate", [float("nan"), float("inf")], ids=["nan", "infinite"])
def test_protocol_config_rejects_non_finite_background(rate):
    # unchecked, an infinite background leaves the detector never live (a
    # run of no clicks), and NaN reaches numpy's multinomial draw
    with pytest.raises(ValueError, match=f"^background rate must be finite, got {rate!r}$"):
        config(10, background_rate_cps=rate)


@pytest.mark.parametrize("n_rounds", [float("nan"), float("inf"), float("-inf"), 10.5, True,
                                      np.True_],
                         ids=["nan", "infinite", "minus infinite", "fraction", "boolean",
                              "numpy boolean"])
def test_protocol_config_rejects_non_integer_rounds(n_rounds):
    # unchecked, NaN reaches numpy's multinomial draw and 10.5 is reported
    with pytest.raises(ValueError, match=f"^n_rounds must be an integer, got {n_rounds!r}$"):
        config(n_rounds)


@pytest.mark.parametrize("n_rounds", [10, 10.0, np.int64(10)], ids=["int", "whole float", "int64"])
def test_protocol_config_keeps_whole_rounds(n_rounds):
    assert config(n_rounds).n_rounds == 10


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        config(0)
    with pytest.raises(ValueError):
        config(10, p0=0.0)
    with pytest.raises(ValueError):
        config(10, abort_threshold=0.6)
    with pytest.raises(ValueError):
        config(10, basis_prior=1.0)
    with pytest.raises(ValueError):
        config(10, transmission=0.0)
    with pytest.raises(ValueError, match="^background rate must be >= 0$"):
        config(10, background_rate_cps=-5.0)
