"""Event-level references: the per-round sampler, the per-cell round law and
the thinned-stream detector, and the suite's one significance level, ALPHA.

The count-level kernel in riesim.protocol samples whole runs from the round
law.  This module plays single rounds through Eve's interception, the PBS
and the detector, with its own interception, routing, loading and
suppression rules, so it shares no click logic with the law and stays an
independent oracle for the chi-square test in test_protocol.py.  Every
round draws, in order: Alice's basis and bit, Eve's basis and bit (with an
attack), Bob's basis, the PBS port and the click.

projection_prob is the sampler's Born rule on the four named states H, V, D
and A.  round_law builds riesim.protocol's round law one cell at a time from
PolarizationState objects and projection_prob, in the same float order as
the array algebra, so the two must agree bit for bit.

assert_fits_law is the chi-square of category counts against a law at
ALPHA.  assert_report_fits_law applies it to a SimulationReport: the law is
pinned exactly elsewhere, so a run of simulate is checked by its own counts
against n_rounds times the round law, per branch, and by the counts the law
makes impossible being exactly 0.  law_totals is the law's tally, each
report count's expectation per round.

thinned_clicks is the event-level non-paralyzable detector with quantum
efficiency p0, built from the package's one dead-time filter, and
assert_kept_count_fits_law checks the count of such a detector against its
renewal law on the 8 ps grid.

sequential_filter, the non-paralyzable rule as a loop over int64 ticks, is
the oracle of timetag's segment-parallel filter.  poisson_stream is the
textbook tagged Poisson stream: cumulative exponential arrivals, snapped to
the tagger grid with repeats merged by one masked copy (quantize).  It is
the raw stream of the law checks of timetag's renewal chain (_KeptChain),
which generate_poisson_stream reads too, so those checks never take their
raw stream from the chain they test.

exact_fixed_point finds the count the rate-dependent fixed point should end
on by bisection over counts, without iterating.  fixed_point_filter is
timetag's fixed point with a full _filter_constant pass at every iteration
on a raw stream: the oracle for the law of the sweep's renewal sampler
(timetag._KeptChain).  chain_gaps draws a chain's gaps in one sequential
call from its seed, chain_slots places its events from them in one array
operation, and chain_kept_count counts them: the oracle for the chain's own
draw, block by block, and count, a search over its block totals and then
one block's gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.stats import chisquare, norm

from riesim.adversary import AttackConfig, AttackMode, branch_click_probabilities
from riesim.detector import DeadTimeCurve, availability
from riesim.protocol import (
    _BASES,
    _CLICKED,
    _ERROR,
    _OFF_BRANCH_AXES,
    _SIFTED,
    Basis,
    PolarizationState,
    ProtocolConfig,
    SimulationReport,
    _round_law,
    _tally,
)
from riesim import timetag
from riesim.timetag import (
    TimestampStream,
    _fixed_point,
    _filter_constant,
    _window_ticks,
    apply_dead_time,
    generate_poisson_stream,
)

# The significance of every statistical assertion in the suite: each
# chisquare, chi2_contingency, ttest_ind and binomtest p-value, and each
# z-test of assert_kept_count_fits_law, must exceed it.  Seeds are fixed in
# advance and never picked because they pass, so a check fails on correct
# code only when a change moves its random stream, and such a change may
# re-draw every check at once.  One tier-1 run executes K = 55 of these
# assertions (32 chi-square, 8 contingency chi-square, 8 Welch, 5 z, 2
# binomial), so by Bonferroni a stream change fails correct code with
# probability at most K * ALPHA = 5.5 %.
ALPHA = 1e-3

H = PolarizationState(Basis.Z, 0)
V = PolarizationState(Basis.Z, 1)
D = PolarizationState(Basis.X, 0)
A = PolarizationState(Basis.X, 1)


def rie_with_ratio(r: float) -> AttackConfig:
    """Loading that realizes p_perp/p_parallel = r on a flat 23.3 ns curve
    under the exponential model with an unloaded aligned path:
    lambda_perp = -ln(r)/t_d."""
    lam_perp = 0.0 if r >= 1.0 else -math.log(r) / 23.3e-9
    return AttackConfig(mode=AttackMode.RIE_NON_DETERMINISTIC,
                        lambda_parallel_cps=0.0, lambda_perp_cps=lam_perp)


def projection_prob(state: PolarizationState, meas_basis: Basis, outcome: int) -> float:
    """Born-rule probability of measuring `outcome` on `state` in `meas_basis`.

    Aligned basis gives a deterministic outcome; the orthogonal basis splits
    the state equally between both ports (|H> = (|D>+|A>)/sqrt(2) and its
    three companions).
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    if state.basis is meas_basis:
        return 1.0 if outcome == state.bit else 0.0
    return 0.5


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
    the dead time, p0 from its end on.  The dead interval [0, t_d) is
    half-open, so the boundary delta == t_d clicks.
    """
    if delta_s <= 0:
        raise ValueError("pre-pulse delay must be > 0")
    t_d = curve.dead_time_at(loading_context_cps)
    return 0.0 if delta_s < t_d else p0


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


def _basis_weight(prior_z: float, basis: Basis) -> float:
    return prior_z if basis is Basis.Z else 1.0 - prior_z


def round_law(config: ProtocolConfig, attack: AttackConfig) -> np.ndarray:
    """Probability of each round cell, shape (2,) * 7, one cell at a time.

    Axes: Alice's basis, Alice's bit, Eve's basis, Eve's bit, Bob's basis,
    detector, click; basis index 0 is Z and 1 is X.  Without an attack the
    Eve axes carry Alice's state, so the signal is always read from them.
    """
    bases = (Basis.Z, Basis.X)
    p_par, p_perp = branch_click_probabilities(config, attack)
    attacking = attack.mode is not AttackMode.NONE
    law = np.zeros((2,) * 7)
    for ab, a, eb, e, bb, d in product((0, 1), repeat=6):
        alice = PolarizationState(bases[ab], a)
        signal = PolarizationState(bases[eb], e)
        bob_basis = bases[bb]
        if config.fixed_alice is None:
            p = _basis_weight(config.basis_prior, alice.basis) * 0.5
        else:
            p = float(alice == config.fixed_alice)
        if attacking:
            p *= _basis_weight(attack.eve_basis_prior, signal.basis)
            p *= projection_prob(alice, signal.basis, e)
        else:
            p *= float(signal == alice)
        p *= _basis_weight(config.basis_prior, bob_basis)
        p *= projection_prob(signal, bob_basis, d)
        p_click = p_par if bob_basis is signal.basis else p_perp
        law[ab, a, eb, e, bb, d] = (p * (1.0 - p_click), p * p_click)
    return law


def assert_fits_law(observed, probabilities, name: str = "") -> None:
    """Chi-square at ALPHA of integer counts against their total times the
    probability of each category.  A count in a category of probability 0
    fails outright, and the categories expected below 5 are pooled into
    one."""
    observed, probabilities = np.ravel(observed), np.ravel(probabilities)
    possible = probabilities > 0.0
    assert not observed[~possible].any(), f"{name}: count in a zero-probability category"
    f_obs, f_exp = observed[possible], observed.sum() * probabilities[possible]
    small = f_exp < 5.0
    if small.any():
        f_obs = np.append(f_obs[~small], f_obs[small].sum())
        f_exp = np.append(f_exp[~small], f_exp[small].sum())
    assert chisquare(f_obs, f_exp).pvalue > ALPHA, name


def law_totals(config: ProtocolConfig, attack: AttackConfig) -> np.ndarray:
    """Per round: the expected rounds, clicks, sifted rounds, errors and
    Eve-matched sifted rounds, from the tally of the round law."""
    return _tally(_round_law(config, attack)).sum(axis=(1, 2, 3))


# a round's category within its attack branch: no click, clicked but not
# sifted, sifted and correct, sifted with an error
_CATEGORY = _CLICKED.astype(int) + _SIFTED + _ERROR


def assert_report_fits_law(report: SimulationReport, config: ProtocolConfig,
                           attack: AttackConfig) -> None:
    """A simulate report's own counts against n_rounds times the round law's
    probability of each: with an attack, each branch's rounds split into the
    four categories above, checked together by one assert_fits_law; without
    one, the same four from the totals.  The totals must be the branch sums, and
    n_sifted_eve_match the sifted count of the branches where Eve's basis is
    Bob's (where it is Alice's, on a sifted round)."""
    law = _round_law(config, attack)
    # [Eve's basis, Eve's bit, Bob's basis, category]
    probabilities = np.stack([(law * (_CATEGORY == k)).sum(axis=_OFF_BRANCH_AXES)
                              for k in range(4)], axis=-1)
    totals = np.array([report.n_rounds, report.n_clicks, report.n_sifted, report.n_errors])
    if report.per_branch_stats is None:
        assert report.n_sifted_eve_match is None
        rows, probabilities = totals, probabilities.sum(axis=(0, 1, 2))
    else:
        branches = list(product((0, 1), repeat=3))
        stats = [report.per_branch_stats[_BASES[eb], e, _BASES[bb]] for eb, e, bb in branches]
        rows = np.array([(s.n_rounds, s.n_clicks, s.n_sifted, s.n_errors) for s in stats])
        assert np.array_equal(rows.sum(axis=0), totals)
        assert report.n_sifted_eve_match == sum(
            s.n_sifted for (eb, _, bb), s in zip(branches, stats) if eb == bb)
    # rounds, clicks, sifted, errors -> the four disjoint categories
    observed = -np.diff(rows, append=0, axis=-1)
    assert_fits_law(observed, probabilities, f"{report.attack_mode.value}, seed {report.seed}")


def thinned_clicks(beta_cps: float, p0: float, dead_time_s: float, duration_s: float,
                   seed: int) -> int:
    """Clicks of a non-paralyzable detector with efficiency p0 under
    Poisson arrivals at beta_cps over duration_s.

    An arrival that fails p0 neither clicks nor re-arms the dead window, so
    the clicks are the dead-time filter applied to the p0-thinned stream.
    """
    stream = generate_poisson_stream(beta_cps, duration_s, seed=seed)
    live = np.random.default_rng(seed).random(len(stream)) < p0
    thinned = TimestampStream(stream.ticks[live], stream.duration_s)
    return len(apply_dead_time(thinned, constant_dead_time_s=dead_time_s))


def assert_kept_count_fits_law(count: int, beta_cps: float, dead_time_s: float,
                               duration_s: float, p0: float = 1.0) -> None:
    """Two-sided z-test at ALPHA of the events a non-paralyzable detector
    keeps over [0, duration_s] against their renewal law on the tagger grid.

    The raw stream holds each 8 ps slot with probability 1 - exp(-beta * 8 ps)
    and thinning keeps an event with probability p0, so the thinned stream
    holds a slot with probability q = p0 (1 - exp(-beta * 8 ps)).  A kept gap
    is d + G slots, d = max(1, ceil(window / 8 ps)) and G ~ Geom(q), of mean
    m = d + (1 - q) / q and variance (1 - q) / q**2; over S slots the count
    is normal with mean S / m and variance S (1 - q) / (q**2 m**3) to within
    O(1) events.  The continuous beta / (1 + beta t_d) puts the mean gap
    up to 4 ps off (the window rounded up to whole slots, less half a slot
    of G), a relative bias of order beta * 4 ps that is not noise.
    """
    slot_s = timetag.RESOLUTION_TICKS * timetag.TICK_S
    q = p0 * -math.expm1(-beta_cps * slot_s)
    d = max(1, -(-_window_ticks(dead_time_s) // timetag.RESOLUTION_TICKS))
    mean_gap = d + (1.0 - q) / q
    slots = duration_s / slot_s
    sigma = math.sqrt(slots * (1.0 - q) / q**2 / mean_gap**3)
    z = (count - slots / mean_gap) / sigma
    assert 2.0 * norm.sf(abs(z)) > ALPHA, f"kept {count}, z = {z:.3g}"


def sequential_filter(ticks: np.ndarray, window: int) -> np.ndarray:
    """The non-paralyzable rule one event at a time: keep a tick iff it lies
    at least `window` ticks past the last kept one."""
    kept = []
    for tick in ticks.tolist():
        if not kept or tick - kept[-1] >= window:
            kept.append(tick)
    return np.array(kept, dtype=np.int64)


def quantize(times_s: np.ndarray, duration_s: float) -> np.ndarray:
    """Ascending times in seconds snapped to the tagger grid as ticks, each
    repeated grid step dropped by a masked copy of the whole grid, and a
    last tick past the duration dropped.  Overwrites `times_s`."""
    steps = np.divide(times_s, timetag.RESOLUTION_TICKS * timetag.TICK_S, out=times_s)
    np.rint(steps, out=steps)
    grid = steps.view(np.int64)
    np.copyto(grid, steps, casting="unsafe")
    if grid.size > 1:
        fresh = np.empty(grid.size, dtype=bool)
        fresh[0] = True
        np.not_equal(grid[1:], grid[:-1], out=fresh[1:])
        grid = grid[fresh]
    ticks = grid * timetag.RESOLUTION_TICKS
    # rounding moves at most the last arrival (by up to 4 ps) past the duration
    return ticks[:-1] if ticks.size and ticks[-1] * timetag.TICK_S > duration_s else ticks


def poisson_stream(beta_cps: float, duration_s: float, seed: int) -> TimestampStream:
    """Poisson arrivals at beta_cps over [0, duration] as cumulative
    exponential gaps, drawn until one passes the duration, then quantized.
    Unlike the renewal chain, it rounds each arrival and cuts the last slot
    at the duration."""
    rng = np.random.default_rng(seed)
    size = max(int(beta_cps * duration_s), 1024)
    times = np.cumsum(rng.exponential(1.0 / beta_cps, size=size))
    while times[-1] <= duration_s:
        more = times[-1] + np.cumsum(rng.exponential(1.0 / beta_cps, size=size))
        times = np.concatenate((times, more))
    times = times[:np.searchsorted(times, duration_s, side="right")]
    return TimestampStream(quantize(times, duration_s), duration_s)


def fixed_point_filter(stream: TimestampStream, curve: DeadTimeCurve):
    """The rate-dependent filter of a raw stream with a full filter pass at
    every iteration of timetag's fixed point, from the count the
    steady-state law predicts for the stream's own rate.  Returns the
    filtered stream and its window in ticks."""
    t = stream.ticks
    _, window = _fixed_point(lambda window: _filter_constant(t, window).size,
                             stream.observed_rate_cps, curve, stream.duration_s)
    return TimestampStream(_filter_constant(t, window), stream.duration_s), window


def chain_gaps(chain: timetag._KeptChain, size: int) -> np.ndarray:
    """The first `size` gaps G of the chain as one sequential draw from its
    seed makes them: the first arrival, then `size` standard exponentials in
    one call, each floor(E * mean slots), capped at last + 1."""
    rng = np.random.default_rng(chain._seed)
    rng.exponential(1.0 / chain._beta_cps)  # the first arrival
    draws = rng.standard_exponential(size)
    return np.minimum(np.floor(draws * chain._mean_slots), chain.last + 1).astype(np.int64)


def chain_slots(chain: timetag._KeptChain, window: int) -> np.ndarray:
    """The slots the chain's sequential draw (chain_gaps) places its events
    on at a window of `window` ticks, from the first slot on, each kept gap
    d + G after the one before, at least up to the first past the last
    slot.  A least
    gap d past the last slot keeps the first event alone, at last + 1 as at
    any longer one, so it is cut there to keep the slots within int64."""
    d = min(max(1, math.ceil(window / timetag.RESOLUTION_TICKS)), chain.last + 1)
    room = chain.last - chain.first
    # the expected count at d and a quarter more, drawn again twice as long
    # until the chain passes the last slot
    size = int(1.25 * (room + 1) / (d + chain._mean_slots)) + 1024
    while True:
        steps = chain_gaps(chain, size) + d
        # the steps up to the first whose float sum is well past the room,
        # so that their exact int64 sums cannot overflow
        far = np.flatnonzero(np.cumsum(steps, dtype=float) > 2.0 * room + 2**20)
        steps = steps[:far[0] + 1] if far.size else steps
        slots = chain.first + np.concatenate(([0], np.cumsum(steps)))
        if slots[-1] > chain.last:
            return slots
        size *= 2


def chain_kept_count(chain: timetag._KeptChain, window: int) -> int:
    """The chain's events at or before its last slot at `window`, counted
    over its sequential draw (chain_slots)."""
    if chain.first > chain.last:
        return 0
    return int(np.count_nonzero(chain_slots(chain, window) <= chain.last))


def exact_fixed_point(kept_at, n_max: int, duration: float,
                      curve: DeadTimeCurve) -> tuple[int, ...]:
    """The kept counts the rate-dependent filter may end on, by bisection
    over counts n in [0, n_max], with kept_at(window in ticks) the count
    kept at a window; no window may keep more than n_max.

    With N(w) = kept_at(w) and T the duration, a count n is self-consistent
    when N(t_d(n / T)) == n.  On a curve whose t_d never falls,
    N(t_d(n / T)) - n strictly decreases in n, from N(t_d(0)) >= 0 at n = 0
    to at most 0 at n = n_max, so at most one count is: then this returns
    (n,).  Otherwise N(t_d(n / T)) - n changes sign between two adjacent
    counts lo and lo + 1, and this returns the counts kept at their windows,
    (N(t_d(lo / T)), N(t_d((lo + 1) / T))): the first is above lo, the
    second below lo + 1.  They can lie several events apart, because a
    window that crosses a tie moves a chain onto another event and every
    kept event after it.
    """
    def kept_at_count(n: int) -> int:
        rate = n / duration if duration > 0 else 0.0
        return kept_at(_window_ticks(curve.dead_time_at(rate)))

    lo, hi = 0, n_max
    for n in (lo, hi):
        if kept_at_count(n) == n:
            return (n,)
    # kept_at_count(lo) > lo and kept_at_count(hi) < hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        kept = kept_at_count(mid)
        if kept == mid:
            return (mid,)
        if kept > mid:
            lo = mid
        else:
            hi = mid
    return (kept_at_count(lo), kept_at_count(hi))
