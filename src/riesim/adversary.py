"""Eve's recovery-induced erasure strategy.

The attack is intercept-resend augmented with a polarization-structured
pre-pulse: Eve measures in a random basis, resends her result, and sends a
strong pre-pulse in the *same* basis carrying the *opposite* bit just before
the signal.  When Bob's basis matches Eve's, the pre-pulse loads only the
detector the signal will never reach, so the signal clicks at close to the
baseline probability (p_parallel).  When Bob's basis is orthogonal, both the
pre-pulse and the signal split across both detectors and the signal click
probability drops (p_perp).  Mismatch rounds are exactly the error-prone
ones, so suppressing them converts would-be errors into erasures.

Two pre-pulse realizations are modeled:

* non-deterministic: steady Poisson loading at configured rates (the
  thermal-light surrogate; conservative, no timing control), and
* deterministic: a timed strong pulse a fixed delay before the signal,
  giving step-like suppression (zero click inside the recovery window).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .detector import DeadTimeCurve, availability, dead_time_at
from .quantum import Basis, PolarizationState, projection_prob

if TYPE_CHECKING:
    from .protocol import ProtocolConfig

__all__ = [
    "AttackMode",
    "AttackConfig",
    "EveAction",
    "DegenerateAttackError",
    "intercept",
    "loading_for_branch",
    "deterministic_suppression",
    "branch_click_probabilities",
    "effective_r",
]


class DegenerateAttackError(ValueError):
    """The configured attack yields p_parallel = 0, so the ratio r is undefined."""


class AttackMode(Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept_resend"
    RIE_NON_DETERMINISTIC = "rie_non_deterministic"
    RIE_DETERMINISTIC = "rie_deterministic"


@dataclass(frozen=True)
class AttackConfig:
    """Eve's strategy selector and its parameters.

    lambda_parallel_cps: pre-pulse loading on the non-signal detector when
        Bob's basis matches Eve's.  The signal never reaches that detector,
        so this rate changes no click probability and no simulate or
        analytic output; only the conservative bound analysis.r_bound
        charges it to the signal detector.
    lambda_perp_cps: loading on both detectors when the bases are orthogonal.
    delta_s: pre-pulse-to-signal delay in the deterministic timing model.
    eve_basis_prior: probability Eve measures in Z.
    """

    mode: AttackMode = AttackMode.NONE
    lambda_parallel_cps: float = 0.0
    lambda_perp_cps: float = 0.0
    delta_s: float | None = None
    eve_basis_prior: float = 0.5

    def __post_init__(self):
        if self.lambda_parallel_cps < 0 or self.lambda_perp_cps < 0:
            raise ValueError("loading rates must be >= 0")
        if not 0.0 < self.eve_basis_prior < 1.0:
            raise ValueError("eve_basis_prior must be in (0, 1)")
        if self.mode is AttackMode.RIE_DETERMINISTIC:
            if self.delta_s is None or self.delta_s <= 0:
                raise ValueError("deterministic mode requires delta_s > 0")


@dataclass(frozen=True)
class EveAction:
    """Outcome of one interception: what Eve measured and what she sends.

    The resent signal is Eve's measured state; the pre-pulse shares her basis
    and carries the complementary bit, which is what steers the loading onto
    the non-signal detector in the aligned case.
    """

    eve_basis: Basis
    eve_bit: int
    resent_state: PolarizationState
    prepulse_state: PolarizationState
    prepulse_delay_s: float | None = None

    def __post_init__(self):
        if self.prepulse_state.basis is not self.eve_basis:
            raise ValueError("pre-pulse must be prepared in Eve's basis")
        if self.prepulse_state.bit != 1 - self.eve_bit:
            raise ValueError("pre-pulse must carry the opposite bit value")
        if self.resent_state != PolarizationState(self.eve_basis, self.eve_bit):
            raise ValueError("resent state must equal Eve's measured state")


def intercept(incoming: PolarizationState, config: AttackConfig, rng) -> EveAction:
    """Measure the incoming photon in a randomly chosen basis and build the
    resend/pre-pulse pair.

    Draws Eve's basis from her prior and her bit from the Born rule.
    """
    if config.mode is AttackMode.NONE:
        raise ValueError("intercept called with attack mode 'none'")
    eve_basis = Basis.Z if rng.random() < config.eve_basis_prior else Basis.X
    eve_bit = int(rng.random() < projection_prob(incoming, eve_basis, 1))
    resent = PolarizationState(eve_basis, eve_bit)
    return EveAction(
        eve_basis=eve_basis,
        eve_bit=eve_bit,
        resent_state=resent,
        prepulse_state=resent.complement(),
        prepulse_delay_s=config.delta_s if config.mode is AttackMode.RIE_DETERMINISTIC else None,
    )


def loading_for_branch(action: EveAction, bob_basis: Basis, config: AttackConfig) -> dict[int, float]:
    """Per-detector Poisson loading rates for one round of the
    non-deterministic pre-pulse model.

    Aligned: the pre-pulse routes entirely to the detector of the opposite
    bit, so the signal detector carries no attack loading.  Orthogonal: the
    pre-pulse splits, loading both detectors at the orthogonal-case rate.
    """
    if config.mode is not AttackMode.RIE_NON_DETERMINISTIC:
        raise ValueError(f"loading_for_branch requires non-deterministic mode, got {config.mode}")
    if bob_basis is action.eve_basis:
        return {action.eve_bit: 0.0, 1 - action.eve_bit: config.lambda_parallel_cps}
    return {0: config.lambda_perp_cps, 1: config.lambda_perp_cps}


def deterministic_suppression(
    delta_s: float, curve: DeadTimeCurve, loading_context_cps: float, p0: float
) -> float:
    """Click probability for a signal a fixed delay after a saturating pre-pulse.

    Step function against the recovery window: zero while the delay is inside
    the dead time, p0 once past it.  The boundary delta == t_d counts as
    suppressed (the dead interval is treated as closed).
    """
    if delta_s <= 0:
        raise ValueError("pre-pulse delay must be > 0")
    t_d = dead_time_at(curve, loading_context_cps)
    return 0.0 if delta_s <= t_d else p0


def branch_click_probabilities(config: ProtocolConfig, attack: AttackConfig) -> tuple[float, float]:
    """Signal click probabilities (p_parallel, p_perp) when Bob's basis is
    aligned with / orthogonal to Eve's: T * p0 * availability of the signal
    detector.

    The signal detector always carries the background; in the orthogonal
    non-deterministic branch the split pre-pulse adds lambda_perp, and in
    the deterministic branch the recovery step gates the click.  The aligned
    pre-pulse only loads the other detector, so lambda_parallel drops out.
    Intercept-resend and no attack give the aligned value on both branches.
    """
    bg = config.background_rate_cps
    curve = config.dead_time_curve
    model = config.availability_model
    p_signal = config.transmission * config.p0
    p_par = p_signal * availability(bg, curve, model)
    if attack.mode is AttackMode.RIE_NON_DETERMINISTIC:
        return p_par, p_signal * availability(bg + attack.lambda_perp_cps, curve, model)
    if attack.mode is AttackMode.RIE_DETERMINISTIC:
        return p_par, p_par * deterministic_suppression(attack.delta_s, curve, bg, 1.0)
    return p_par, p_par


def effective_r(config: ProtocolConfig, attack: AttackConfig) -> float:
    """The suppression ratio r = p_perp / p_parallel the attack achieves.

    Deterministic mode is a step: r = 0 when the delay sits inside the
    recovery window, r = 1 past it.
    """
    if attack.mode is AttackMode.NONE:
        raise ValueError("no attack configured: p_parallel/p_perp are undefined")
    p_par, p_perp = branch_click_probabilities(config, attack)
    if p_par == 0.0:
        raise DegenerateAttackError(
            "aligned-case click probability is zero; r = p_perp/p_parallel is undefined"
        )
    return p_perp / p_par
