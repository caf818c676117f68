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
from math import isfinite
from typing import TYPE_CHECKING

from .detector import availability

if TYPE_CHECKING:
    from .protocol import ProtocolConfig

__all__ = [
    "AttackMode",
    "AttackConfig",
    "DegenerateAttackError",
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
        for name in ("lambda_parallel_cps", "lambda_perp_cps", "delta_s"):
            value = getattr(self, name)
            if value is not None and not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.lambda_parallel_cps < 0 or self.lambda_perp_cps < 0:
            raise ValueError("loading rates must be >= 0")
        if not 0.0 < self.eve_basis_prior < 1.0:
            raise ValueError("eve_basis_prior must be in (0, 1)")
        if self.mode is AttackMode.RIE_DETERMINISTIC:
            if self.delta_s is None or self.delta_s <= 0:
                raise ValueError("deterministic mode requires delta_s > 0")


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
        # the dead interval [0, t_d) is half-open, as in timetag's filter: a
        # signal at delta == t_d clicks
        return p_par, 0.0 if attack.delta_s < curve.dead_time_at(bg) else p_par
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
