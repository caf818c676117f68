"""Event-level references: the per-round sampler and the thinned-stream detector.

The count-level kernel in riesim.protocol samples whole runs from the round
law.  This module plays single rounds through Eve's interception, the PBS
and the detector, with its own interception, routing, loading and
suppression rules, so it shares no click logic with the law and stays an
independent oracle for the chi-square test in test_protocol.py.  Every
round draws, in order: Alice's basis and bit, Eve's basis and bit (with an
attack), Bob's basis, the PBS port and the click.

thinned_click_rate is the event-level non-paralyzable detector with
quantum efficiency p0, built from the package's one dead-time filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from riesim.adversary import AttackConfig, AttackMode
from riesim.detector import DeadTimeCurve, availability
from riesim.protocol import ProtocolConfig
from riesim.quantum import Basis, PolarizationState, projection_prob
from riesim.timetag import TimestampStream, apply_dead_time, generate_poisson_stream


def complement(state: PolarizationState) -> PolarizationState:
    """Same basis, opposite bit (the pre-pulse partner state)."""
    return PolarizationState(state.basis, 1 - state.bit)


def route_through_pbs(state: PolarizationState, bob_basis: Basis, rng) -> int:
    """Sample the detector index the photon exits toward (Born rule)."""
    p_one = projection_prob(state, bob_basis, 1)
    return int(rng.random() < p_one)


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
        prepulse_state=complement(resent),
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
    t_d = curve.dead_time_at(loading_context_cps)
    return 0.0 if delta_s <= t_d else p0


@dataclass(frozen=True)
class RoundRecord:
    """Everything observable about one protocol round.

    outcome is Bob's bit, or None for an erasure (no click); error is defined
    only on sifted rounds.
    """

    alice_basis: Basis
    alice_bit: int
    eve_basis: Basis | None
    eve_bit: int | None
    bob_basis: Basis
    detector: int
    outcome: int | None
    sifted: bool
    error: bool | None


def resolve_outcome(fired_detectors, rng) -> int | None:
    """Squash a round's set of fired detectors to a bit or an erasure.

    A double click resolves to a uniformly random bit and still counts as a
    click.  At most one detector sees the signal, so the double branch is a
    convention, not a path the protocol takes.
    """
    fired = list(fired_detectors)
    if not fired:
        return None
    if len(fired) == 1:
        return fired[0]
    return int(rng.random() < 0.5)


def run_round(config: ProtocolConfig, attack: AttackConfig, rng) -> RoundRecord:
    """Play a single protocol round event by event."""
    bg = config.background_rate_cps
    curve = config.dead_time_curve
    alice_basis = Basis.Z if rng.random() < config.basis_prior else Basis.X
    alice_bit = int(rng.random() < 0.5)
    if config.fixed_alice is not None:
        alice_basis = config.fixed_alice.basis
        alice_bit = config.fixed_alice.bit
    alice_state = PolarizationState(alice_basis, alice_bit)

    action = None if attack.mode is AttackMode.NONE else intercept(alice_state, attack, rng)
    signal_state = alice_state if action is None else action.resent_state
    bob_basis = Basis.Z if rng.random() < config.basis_prior else Basis.X
    detector = route_through_pbs(signal_state, bob_basis, rng)

    loading = 0.0
    if attack.mode is AttackMode.RIE_NON_DETERMINISTIC:
        loading = loading_for_branch(action, bob_basis, attack)[detector]
    avail = availability(bg + loading, curve, config.availability_model)
    if attack.mode is AttackMode.RIE_DETERMINISTIC and bob_basis is not action.eve_basis:
        avail *= deterministic_suppression(attack.delta_s, curve, bg, 1.0)
    clicked = rng.random() < config.transmission * config.p0 * avail

    outcome = resolve_outcome([detector] if clicked else [], rng)
    sifted = clicked and alice_basis is bob_basis
    return RoundRecord(
        alice_basis=alice_basis,
        alice_bit=alice_bit,
        eve_basis=None if action is None else action.eve_basis,
        eve_bit=None if action is None else action.eve_bit,
        bob_basis=bob_basis,
        detector=detector,
        outcome=outcome,
        sifted=sifted,
        error=(outcome != alice_bit) if sifted else None,
    )


def round_cell(record: RoundRecord) -> int:
    """Flat index of a round in the (2,) * 7 law; no attack puts Alice's
    state on the Eve axes."""
    index = {Basis.Z: 0, Basis.X: 1}
    eve_basis = record.alice_basis if record.eve_basis is None else record.eve_basis
    eve_bit = record.alice_bit if record.eve_bit is None else record.eve_bit
    cell = (index[record.alice_basis], record.alice_bit, index[eve_basis], eve_bit,
            index[record.bob_basis], record.detector, int(record.outcome is not None))
    return int(np.ravel_multi_index(cell, (2,) * 7))


def thinned_click_rate(beta_cps: float, p0: float, dead_time_s: float, duration_s: float,
                       seed: int) -> float:
    """Click rate of a non-paralyzable detector with efficiency p0 under
    Poisson arrivals at beta_cps.

    An arrival that fails p0 neither clicks nor re-arms the dead window, so
    the clicks are the dead-time filter applied to the p0-thinned stream.
    """
    stream = generate_poisson_stream(beta_cps, duration_s, seed=seed)
    live = np.random.default_rng(seed).random(len(stream)) < p0
    thinned = TimestampStream(stream.timestamps_s[live], stream.duration_s)
    return apply_dead_time(thinned, constant_dead_time_s=dead_time_s).observed_rate_cps
