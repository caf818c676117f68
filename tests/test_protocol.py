"""Protocol engine: the round law, sifting statistics, determinism.

The count-level kernel samples whole runs from the 128-cell round law.  The
per-round sampler in reference.py plays rounds event by event; it is the
reference the law is checked against, by one chi-square per case.  The law
itself is checked exactly, cell by cell and by its tally against the closed
forms, and each seeded run of simulate by one chi-square of its own counts
against the law (reference.assert_report_fits_law), all at reference.ALPHA.
"""

import math
import re
from itertools import product

import numpy as np
import pytest
from scipy.stats import binomtest

from riesim.adversary import AttackConfig, AttackMode, branch_click_probabilities, effective_r
from riesim.analysis import e_obs, mutual_info_eve_sifted, sift_probability
from riesim.detector import AvailabilityModel, DeadTimeCurve, default_dead_time_curve
from riesim.protocol import (
    _ERROR,
    _SIFTED,
    ProtocolConfig,
    _round_law,
    run_simulation,
)
from riesim.quantum import Basis, PolarizationState

import reference
from reference import resolve_outcome, rie_with_ratio, round_cell, run_round

FLAT = DeadTimeCurve.constant(23.3e-9)
NO_ATTACK = AttackConfig()
INTERCEPT = AttackConfig(mode=AttackMode.INTERCEPT_RESEND)


def config(n_rounds, p0=1.0, seed=1, **kw) -> ProtocolConfig:
    return ProtocolConfig(n_rounds=n_rounds, p0=p0, seed=seed, dead_time_curve=FLAT, **kw)


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
    # chi-square of 20000 event-level rounds over the law's cells; each
    # round's cell must carry its sifted and error flags
    n = 20_000
    for i, (name, (cfg, attack)) in enumerate(REFERENCE_CASES.items()):
        law = _round_law(cfg, attack).ravel()
        assert law.sum() == pytest.approx(1.0, abs=1e-12), name
        rng = np.random.default_rng([31, i])
        records = [run_round(cfg, attack, rng) for _ in range(n)]
        cells = np.array([round_cell(record) for record in records])
        assert np.array_equal(_SIFTED.ravel()[cells], [r.sifted for r in records]), name
        assert np.array_equal(_ERROR.ravel()[cells], [bool(r.error) for r in records]), name
        reference.assert_fits_law(np.bincount(cells, minlength=law.size), law, name)


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
        rounds, clicks, sifted, errors, eve_match = reference.law_totals(cfg, attack)
        p_par, p_perp = branch_click_probabilities(cfg, attack)
        r = effective_r(cfg, attack)
        case = (bg, lam_perp, curve)
        assert rounds == pytest.approx(1.0, rel=1e-12), case
        assert sifted == pytest.approx(sift_probability(p_par, p_perp), rel=1e-12), case
        assert errors / sifted == pytest.approx(e_obs(r), rel=1e-12), case
        assert 1.0 - clicks == pytest.approx(1.0 - (p_par + p_perp) / 2.0, rel=1e-12), case
        assert eve_match / sifted == pytest.approx(mutual_info_eve_sifted(r), rel=1e-12), case


def test_law_tally_without_attack_sifts_half_p0_without_errors():
    for p0 in (0.62, 1.0):
        _, _, sifted, errors, _ = reference.law_totals(config(1, p0=p0), NO_ATTACK)
        assert sifted == pytest.approx(p0 / 2.0, rel=1e-12), p0
        assert errors == 0.0, p0


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
    assert binomtest(sum(bits), len(bits)).pvalue > reference.ALPHA


# ---------------------------------------------------------------- aggregate statistics


def test_no_attack_ideal_detectors_qber_exactly_zero(tmp_path):
    report = run_simulation(config(200_000), NO_ATTACK)
    assert report.qber_observed == 0.0
    assert report.abort is False
    assert report.n_clicks == report.n_rounds  # p0 = 1, no loading
    assert report.per_branch_stats is None
    with pytest.raises(ValueError, match="no branch statistics"):
        report.write_branch_csv(tmp_path / "branches.csv")


def test_erasure_and_click_probabilities_sum_to_one():
    report = run_simulation(config(100_000, p0=0.5, seed=9), INTERCEPT)
    assert report.erasure_probability + report.n_clicks / report.n_rounds == pytest.approx(1.0)


def test_deterministic_prepulse_gives_zero_qber_and_extra_erasure():
    n = 400_000
    attack = AttackConfig(mode=AttackMode.RIE_DETERMINISTIC, delta_s=10e-9)
    report = run_simulation(config(n, seed=11), attack)
    baseline = run_simulation(config(n, seed=12), NO_ATTACK)
    assert report.qber_observed == 0.0
    assert report.erasure_probability > baseline.erasure_probability


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
    "none, p0 0.62": (config(10**6, p0=0.62, seed=5), NO_ATTACK),
    "intercept-resend": (config(10**6, seed=6), INTERCEPT),
    "r 0.2": (config(1_200_000, seed=7), rie_with_ratio(0.2)),
    "r 0.2, seed 8": (config(10**6, seed=8), rie_with_ratio(0.2)),
    "zero loading, p0 0.8": (config(600_000, p0=0.8, seed=10), rie_with_ratio(1.0)),
    "r 0.3, 1e12 rounds": (config(10**12, seed=29), rie_with_ratio(0.3)),
    "linear model, flat curve": (
        config(300_000, seed=13, availability_model=AvailabilityModel.LINEAR_BOUND),
        AttackConfig(mode=AttackMode.RIE_NON_DETERMINISTIC, lambda_perp_cps=20e6),
    ),
    "fixed Z0": (
        config(400_000, p0=0.9, seed=25, fixed_alice=PolarizationState(Basis.Z, 0)),
        AttackConfig(mode=AttackMode.RIE_NON_DETERMINISTIC, lambda_parallel_cps=2e6,
                     lambda_perp_cps=-math.log(0.4) / 23.3e-9),
    ),
    "r 0.5": (config(800_000, seed=28), rie_with_ratio(0.5)),
}


@pytest.mark.parametrize("name", list(CROSS_CHECK_CASES))
def test_simulate_agrees_with_analytic(name):
    # what `analytic` prints for uniform priors is the law's tally exactly,
    # and a seeded run fits the law; every case's law QBER lies far from
    # the abort threshold, so the run's abort flag is the law's
    cfg, attack = CROSS_CHECK_CASES[name]
    _, _, sifted, errors, _ = reference.law_totals(cfg, attack)
    if attack.mode is not AttackMode.NONE and cfg.fixed_alice is None:
        assert errors / sifted == pytest.approx(e_obs(effective_r(cfg, attack)), rel=1e-12)
        assert sifted == pytest.approx(
            sift_probability(*branch_click_probabilities(cfg, attack)), rel=1e-12)
    report = run_simulation(cfg, attack)
    reference.assert_report_fits_law(report, cfg, attack)
    assert report.abort == (errors / sifted >= cfg.abort_threshold)


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


@pytest.mark.parametrize("seed", [float("nan"), 1.5, 5.0, -1, np.int64(-1), True, np.True_],
                         ids=["nan", "fraction", "whole float", "negative", "negative int64",
                              "boolean", "numpy boolean"])
def test_protocol_config_rejects_seeds_numpy_does_not_take(seed):
    # unchecked, NaN and 5.0 fail inside numpy, and True runs as seed 1
    message = f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        config(10, seed=seed)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint64(2**64 - 1)],
                         ids=["zero", "int", "int64", "largest uint64"])
def test_protocol_config_keeps_integer_seeds(seed):
    assert run_simulation(config(10, seed=seed), NO_ATTACK).seed == seed


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
