"""Eve's intercept/pre-pulse construction and the suppression ratio.

Interception, the loading map and the p0 form of the deterministic step are
the reference sampler's rules (reference.py); the package's own click
probabilities are branch_click_probabilities.
"""

import numpy as np
import pytest

from riesim.adversary import AttackConfig, AttackMode, branch_click_probabilities, effective_r
from riesim.detector import AvailabilityModel, DeadTimeCurve, SaturationError, default_dead_time_curve
from riesim.protocol import ProtocolConfig
from riesim.quantum import Basis, PolarizationState

from reference import EveAction, deterministic_suppression, intercept, loading_for_branch

EXP = AvailabilityModel.EXPONENTIAL
LIN = AvailabilityModel.LINEAR_BOUND

ND = AttackMode.RIE_NON_DETERMINISTIC
DET = AttackMode.RIE_DETERMINISTIC
INTERCEPT = AttackConfig(mode=AttackMode.INTERCEPT_RESEND)


def _nd(lam_par=0.0, lam_perp=0.0, prior=0.5):
    return AttackConfig(mode=ND, lambda_parallel_cps=lam_par, lambda_perp_cps=lam_perp,
                        eve_basis_prior=prior)


# ---------------------------------------------------------------- intercept


def test_intercept_structure_over_many_rounds():
    config = _nd(lam_par=1e6, lam_perp=20e6)
    incoming = PolarizationState(Basis.Z, 0)
    aligned_bits = set()
    orthogonal_bits = set()
    for seed in range(300):
        action = intercept(incoming, config, np.random.default_rng(seed))
        # pre-pulse: Eve's basis, opposite bit; resend: her measured state
        assert action.prepulse_state.basis is action.eve_basis
        assert action.prepulse_state.bit == 1 - action.eve_bit
        assert action.resent_state == PolarizationState(action.eve_basis, action.eve_bit)
        if action.eve_basis is Basis.Z:
            aligned_bits.add(action.eve_bit)
        else:
            orthogonal_bits.add(action.eve_bit)
    # measuring Z0 in Z always yields 0 and a Z1 pre-pulse
    assert aligned_bits == {0}
    # measuring Z0 in X yields both outcomes
    assert orthogonal_bits == {0, 1}


def test_intercept_x_basis_state():
    config = _nd()
    incoming = PolarizationState(Basis.X, 1)
    for seed in range(100):
        action = intercept(incoming, config, np.random.default_rng(seed))
        if action.eve_basis is Basis.X:
            assert action.eve_bit == 1
            assert action.prepulse_state == PolarizationState(Basis.X, 0)


def test_intercept_rejects_mode_none():
    with pytest.raises(ValueError):
        intercept(PolarizationState(Basis.Z, 0), AttackConfig(), np.random.default_rng(0))


def test_intercept_consumes_two_draws():
    config = _nd()
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    intercept(PolarizationState(Basis.Z, 0), config, rng_a)
    rng_b.random()
    rng_b.random()
    assert rng_a.random() == rng_b.random()


def test_eve_action_invariants_enforced():
    z0 = PolarizationState(Basis.Z, 0)
    z1 = PolarizationState(Basis.Z, 1)
    x1 = PolarizationState(Basis.X, 1)
    with pytest.raises(ValueError):  # pre-pulse in the wrong basis
        EveAction(Basis.Z, 0, resent_state=z0, prepulse_state=x1)
    with pytest.raises(ValueError):  # pre-pulse carries the same bit
        EveAction(Basis.Z, 0, resent_state=z0, prepulse_state=z0)
    with pytest.raises(ValueError):  # resend differs from the measurement
        EveAction(Basis.Z, 0, resent_state=z1, prepulse_state=z1)


def test_deterministic_mode_carries_delay():
    config = AttackConfig(mode=DET, delta_s=12e-9)
    action = intercept(PolarizationState(Basis.Z, 0), config, np.random.default_rng(1))
    assert action.prepulse_delay_s == 12e-9


# ---------------------------------------------------------------- loading map


def test_aligned_branch_never_loads_signal_detector():
    config = _nd(lam_par=5e6, lam_perp=20e6)
    action = EveAction(Basis.Z, 0, resent_state=PolarizationState(Basis.Z, 0),
                       prepulse_state=PolarizationState(Basis.Z, 1))
    loading = loading_for_branch(action, Basis.Z, config)
    assert loading == {0: 0.0, 1: 5e6}


def test_orthogonal_branch_loads_both_detectors_equally():
    config = _nd(lam_par=5e6, lam_perp=20e6)
    action = EveAction(Basis.Z, 0, resent_state=PolarizationState(Basis.Z, 0),
                       prepulse_state=PolarizationState(Basis.Z, 1))
    loading = loading_for_branch(action, Basis.X, config)
    assert loading == {0: 20e6, 1: 20e6}


def test_loading_map_covers_all_eve_bits():
    config = _nd(lam_par=3e6, lam_perp=9e6)
    action = EveAction(Basis.X, 1, resent_state=PolarizationState(Basis.X, 1),
                       prepulse_state=PolarizationState(Basis.X, 0))
    assert loading_for_branch(action, Basis.X, config) == {1: 0.0, 0: 3e6}


def test_loading_map_requires_non_deterministic_mode():
    action = EveAction(Basis.Z, 0, resent_state=PolarizationState(Basis.Z, 0),
                       prepulse_state=PolarizationState(Basis.Z, 1))
    with pytest.raises(ValueError):
        loading_for_branch(action, Basis.Z, AttackConfig(mode=DET, delta_s=1e-8))


# ---------------------------------------------------------------- deterministic step


def test_suppression_inside_recovery_window():
    curve = default_dead_time_curve()
    assert deterministic_suppression(10e-9, curve, 0.0, 0.9) == 0.0


def test_suppression_past_recovery_window():
    curve = default_dead_time_curve()
    assert deterministic_suppression(50e-9, curve, 0.0, 0.9) == 0.9


def test_suppression_boundary_counts_as_live():
    # the dead interval [0, t_d) is half-open
    curve = DeadTimeCurve.constant(23.3e-9)
    below, above = np.nextafter(23.3e-9, 0.0), np.nextafter(23.3e-9, 1.0)
    assert [deterministic_suppression(delta, curve, 0.0, 1.0)
            for delta in (below, 23.3e-9, above)] == [0.0, 1.0, 1.0]


def test_suppression_uses_loading_context():
    # at 30 Mcps loading the window grows to 31.5 ns, swallowing a 25 ns delay
    curve = default_dead_time_curve()
    assert deterministic_suppression(25e-9, curve, 0.0, 1.0) == 1.0
    assert deterministic_suppression(25e-9, curve, 30e6, 1.0) == 0.0


def test_suppression_requires_positive_delay():
    with pytest.raises(ValueError):
        deterministic_suppression(0.0, default_dead_time_curve(), 0.0, 1.0)


# ---------------------------------------------------------------- effective ratio


def _proto(p0=1.0, model=EXP, curve=None, **kw):
    return ProtocolConfig(n_rounds=1, p0=p0, seed=1, availability_model=model,
                          dead_time_curve=default_dead_time_curve() if curve is None else curve,
                          **kw)


def test_deterministic_attack_reaches_zero_ratio():
    config = AttackConfig(mode=DET, delta_s=10e-9)
    assert effective_r(_proto(), config) == 0.0


def test_deterministic_attack_past_window_is_plain_intercept_resend():
    config = AttackConfig(mode=DET, delta_s=100e-9)
    assert effective_r(_proto(0.8), config) == 1.0


def test_no_loading_reduces_to_intercept_resend():
    config = _nd(lam_par=0.0, lam_perp=0.0)
    assert effective_r(_proto(0.7), config) == 1.0
    assert effective_r(_proto(0.7, LIN), config) == 1.0


def test_intercept_resend_mode_ratio_is_one():
    assert effective_r(_proto(0.5), INTERCEPT) == 1.0


def test_mode_none_has_no_ratio():
    with pytest.raises(ValueError):
        effective_r(_proto(), AttackConfig())


def test_ratio_on_default_curve_linear_bound():
    # 1 - 23e6*t_d(23e6) with t_d = 31.3 ns; the aligned path is unloaded
    config = _nd(lam_par=1e6, lam_perp=23e6)
    ratio = effective_r(_proto(model=LIN), config)
    assert ratio == pytest.approx(1.0 - 23e6 * 31.3e-9, rel=1e-12)
    assert ratio < 0.3


def test_ratio_monotone_non_increasing_in_orthogonal_loading():
    previous = None
    for lam_perp in np.linspace(0, 30e6, 100):
        ratio = effective_r(_proto(model=LIN), _nd(lam_par=1e6, lam_perp=lam_perp))
        if previous is not None:
            assert ratio <= previous + 1e-15
        previous = ratio


def test_ratio_saturation_propagates():
    config = _nd(lam_par=1e6, lam_perp=40e6)  # busy > 1 on the default curve
    with pytest.raises(SaturationError):
        effective_r(_proto(model=LIN), config)


def test_branch_click_probabilities_by_mode():
    curve = DeadTimeCurve.constant(20e-9)
    p_par, p_perp = branch_click_probabilities(
        _proto(0.8, curve=curve), INTERCEPT)
    assert (p_par, p_perp) == (0.8, 0.8)
    p_par, p_perp = branch_click_probabilities(
        _proto(0.8, curve=curve), AttackConfig(mode=DET, delta_s=1e-9))
    assert (p_par, p_perp) == (0.8, 0.0)
    p_par, p_perp = branch_click_probabilities(
        _proto(curve=curve, model=LIN), _nd(lam_par=0.0, lam_perp=25e6))
    assert p_par == 1.0
    assert p_perp == pytest.approx(0.5, rel=1e-12)


def test_deterministic_step_is_half_open_and_reads_the_background():
    # delta < t_d is suppressed and delta == t_d is not; 30 Mcps of
    # background stretches the window from 23.3 ns to 31.5 ns, past a 25 ns delay
    flat = _proto(curve=DeadTimeCurve.constant(23.3e-9))
    for delta, p_perp in ((np.nextafter(23.3e-9, 0.0), 0.0), (23.3e-9, 1.0),
                          (np.nextafter(23.3e-9, 1.0), 1.0)):
        assert branch_click_probabilities(flat, AttackConfig(mode=DET, delta_s=delta)) == (
            1.0, p_perp)
    attack = AttackConfig(mode=DET, delta_s=25e-9)
    assert branch_click_probabilities(_proto(), attack) == (1.0, 1.0)
    p_par, p_perp = branch_click_probabilities(_proto(background_rate_cps=30e6), attack)
    assert p_par > 0.0 and p_perp == 0.0


def test_branch_click_probabilities_unloaded_is_p0():
    p_par, p_perp = branch_click_probabilities(_proto(0.6), AttackConfig())
    assert (p_par, p_perp) == (0.6, 0.6)


@pytest.mark.parametrize("model, expected", [(EXP, 0.8187307530779818), (LIN, 0.8)],
                         ids=["exponential", "linear"])
def test_branch_click_probabilities_availability_forms(model, expected):
    # 10 Mcps of background on a flat 20 ns curve: busy fraction 0.2
    config = _proto(model=model, curve=DeadTimeCurve.constant(2e-8), background_rate_cps=1e7)
    p_par, p_perp = branch_click_probabilities(config, INTERCEPT)
    assert p_par == p_perp == pytest.approx(expected, rel=1e-12)


def test_branch_click_probabilities_scale_with_transmission_and_background():
    curve = DeadTimeCurve.constant(20e-9)
    config = _proto(0.9, model=LIN, curve=curve, transmission=0.5, background_rate_cps=5e6)
    p_par, p_perp = branch_click_probabilities(config, _nd(lam_par=5e6, lam_perp=20e6))
    assert p_par == pytest.approx(0.45 * (1.0 - 0.1), rel=1e-12)
    assert p_perp == pytest.approx(0.45 * (1.0 - 0.5), rel=1e-12)
    # deterministic: the background gates both branches, the step only the orthogonal one
    p_par, p_perp = branch_click_probabilities(config, AttackConfig(mode=DET, delta_s=30e-9))
    assert (p_par, p_perp) == (pytest.approx(0.45 * 0.9, rel=1e-12), p_par)


def test_parallel_loading_changes_no_click_probability():
    # the aligned pre-pulse loads only the detector the signal never reaches
    config = _proto(0.9, background_rate_cps=2e6, transmission=0.7)
    for lam_par in (0.0, 1e6, 5e6, 25e6):
        assert branch_click_probabilities(config, _nd(lam_par=lam_par, lam_perp=25e6)) == (
            branch_click_probabilities(config, _nd(lam_perp=25e6)))


def test_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(mode=ND, lambda_perp_cps=-1.0)
    with pytest.raises(ValueError):
        AttackConfig(mode=DET)  # missing delay
    with pytest.raises(ValueError):
        AttackConfig(mode=DET, delta_s=0.0)
    with pytest.raises(ValueError):
        AttackConfig(eve_basis_prior=1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "infinite", "negative infinite"])
@pytest.mark.parametrize("name", ["lambda_parallel_cps", "lambda_perp_cps", "delta_s"])
def test_config_rejects_non_finite_rates_and_delay(name, value):
    # NaN passes every `< 0` check; unchecked, its click probabilities reach
    # numpy's multinomial draw, which refuses them
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        AttackConfig(mode=DET, **{"delta_s": 1e-8, name: value})


def test_config_names_negative_rates_and_delay():
    with pytest.raises(ValueError, match="^loading rates must be >= 0$"):
        AttackConfig(mode=ND, lambda_parallel_cps=-1.0)
    with pytest.raises(ValueError, match="^deterministic mode requires delta_s > 0$"):
        AttackConfig(mode=DET, delta_s=-1e-9)
