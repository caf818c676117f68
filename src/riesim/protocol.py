"""Count-level Monte Carlo of the BBM92/BB84 protocol with active basis choice.

Each round: Alice's state is drawn (or fixed for branch conditioning), the
adversary transform is applied, Bob picks a basis and the signal routes
through the polarizing beam splitter, and the signal detector clicks with
the probability adversary.branch_click_probabilities gives: p_parallel when
Bob's basis is Eve's, p_perp otherwise.  Rounds where Alice's and Bob's bases
match and a click occurred enter the sifted key; the run aborts when the
observed QBER reaches the configured threshold.

The entanglement-based protocol is simulated in its effective
prepare-and-measure reduction: Alice's measurement on her half defines the
state entering the channel, which is the picture all the closed-form
predictions are written in.

Rounds are iid, and each falls into one of 2^7 = 128 cells (Alice's basis
and bit, Eve's basis and bit, Bob's basis, the detector, click or not).  The
run builds the probability of every cell once and draws all rounds with one
multinomial over that table, so a run costs the same at 1e3 and 1e12
rounds.  Every report count is a row of one tally of the cell counts, per
attack branch; the same tally of the law gives each count's expectation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from .adversary import AttackConfig, AttackMode, branch_click_probabilities
from .detector import AvailabilityModel, DeadTimeCurve, default_dead_time_curve
from .quantum import Basis, PolarizationState

__all__ = [
    "ProtocolConfig",
    "BranchStats",
    "SimulationReport",
    "run_simulation",
]

_BASES = (Basis.Z, Basis.X)


@dataclass(frozen=True)
class ProtocolConfig:
    """Receiver and run parameters for one simulation."""

    n_rounds: int
    p0: float
    seed: int
    abort_threshold: float = 0.11
    basis_prior: float = 0.5
    dead_time_curve: DeadTimeCurve = field(default_factory=default_dead_time_curve)
    availability_model: AvailabilityModel = AvailabilityModel.EXPONENTIAL
    transmission: float = 1.0
    background_rate_cps: float = 0.0
    fixed_alice: PolarizationState | None = None

    def __post_init__(self):
        # NaN and the infinities leave a remainder of NaN
        if isinstance(self.n_rounds, (bool, np.bool_)) or self.n_rounds % 1 != 0:
            raise ValueError(f"n_rounds must be an integer, got {self.n_rounds!r}")
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        # the most rounds numpy's multinomial draw takes
        if self.n_rounds > 2**63 - 1:
            raise ValueError(f"n_rounds must be <= 2**63 - 1, got {self.n_rounds}")
        # numpy's SeedSequence takes no other seed; True would run as seed 1
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        if not 0.0 < self.p0 <= 1.0:
            raise ValueError(f"p0 must be in (0, 1], got {self.p0}")
        if not 0.0 < self.abort_threshold < 0.5:
            raise ValueError("abort threshold must be in (0, 0.5)")
        if not 0.0 < self.basis_prior < 1.0:
            raise ValueError("basis prior must be in (0, 1)")
        if not 0.0 < self.transmission <= 1.0:
            raise ValueError("transmission must be in (0, 1]")
        if not np.isfinite(self.background_rate_cps):
            raise ValueError(f"background rate must be finite, got {self.background_rate_cps!r}")
        if self.background_rate_cps < 0:
            raise ValueError("background rate must be >= 0")


@dataclass(frozen=True)
class BranchStats:
    """Raw counts for one (eve_basis, eve_bit, bob_basis) attack branch."""

    n_rounds: int
    n_clicks: int
    n_sifted: int
    n_errors: int

    @property
    def click_rate(self) -> float | None:
        return self.n_clicks / self.n_rounds if self.n_rounds else None

    @property
    def conditional_error_rate(self) -> float | None:
        return self.n_errors / self.n_sifted if self.n_sifted else None


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated outcome of a run; byte-identical per (config, seed).

    per_branch_stats (None without an attack) is keyed by (eve_basis,
    eve_bit, bob_basis) and ordered as the text report and the branch CSV
    print it, X before Z.
    """

    n_rounds: int
    n_clicks: int
    n_sifted: int
    n_errors: int
    n_sifted_eve_match: int | None
    qber_observed: float | None
    sift_probability: float
    erasure_probability: float
    abort: bool
    attack_mode: AttackMode
    seed: int
    fixed_alice: PolarizationState | None
    per_branch_stats: dict[tuple[Basis, int, Basis], BranchStats] | None

    def to_text(self) -> str:
        lines = [
            f"n_rounds: {self.n_rounds}",
            f"n_clicks: {self.n_clicks}",
            f"n_sifted: {self.n_sifted}",
            f"n_errors: {self.n_errors}",
            f"qber_observed: {'none' if self.qber_observed is None else repr(self.qber_observed)}",
            f"sift_probability: {self.sift_probability!r}",
            f"erasure_probability: {self.erasure_probability!r}",
            f"abort: {str(self.abort).lower()}",
            f"attack_mode: {self.attack_mode.value}",
            f"seed: {self.seed}",
            f"fixed_alice: {'none' if self.fixed_alice is None else str(self.fixed_alice)}",
        ]
        if self.n_sifted_eve_match is not None:
            lines.append(f"n_sifted_eve_match: {self.n_sifted_eve_match}")
        if self.per_branch_stats is not None:
            lines.append("branches:")
            for (eve_basis, eve_bit, bob_basis), stats in self.per_branch_stats.items():
                lines.append(
                    f"  {eve_basis.value}{eve_bit} bob={bob_basis.value}: "
                    f"rounds={stats.n_rounds} clicks={stats.n_clicks} "
                    f"sifted={stats.n_sifted} errors={stats.n_errors}"
                )
        return "\n".join(lines) + "\n"

    def write_text(self, path) -> None:
        Path(path).write_text(self.to_text())

    def write_branch_csv(self, path) -> None:
        """One row per attack branch (requires an active attack)."""
        if self.per_branch_stats is None:
            raise ValueError("no branch statistics: run used attack mode 'none'")
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["eve_basis", "eve_bit", "bob_basis", "n_rounds", "n_clicks",
                 "click_rate", "n_sifted", "n_errors", "conditional_error_rate"]
            )
            for (eve_basis, eve_bit, bob_basis), stats in self.per_branch_stats.items():
                writer.writerow([
                    eve_basis.value, eve_bit, bob_basis.value,
                    stats.n_rounds, stats.n_clicks,
                    "" if stats.click_rate is None else repr(stats.click_rate),
                    stats.n_sifted, stats.n_errors,
                    "" if stats.conditional_error_rate is None else repr(stats.conditional_error_rate),
                ])


# The round cells, one index array per axis of the (2,) * 7 law: Alice's
# basis, Alice's bit, Eve's basis, Eve's bit, Bob's basis, detector, click.
# Basis index 0 is Z and 1 is X.  Without an attack the Eve axes carry
# Alice's state, so the signal is always read from them.  An attack branch
# is one cell of the Eve and Bob axes; its counts sum out the other axes,
# Alice's basis and bit, the detector and the click.
_AB, _A, _EB, _E, _BB, _D, _CLICK = np.indices((2,) * 7)
_OFF_BRANCH_AXES = (0, 1, 5, 6)
_CLICKED = _CLICK == 1
_SIFTED = _CLICKED & (_AB == _BB)
_ERROR = _SIFTED & (_D != _A)
_EVE_MATCH = _SIFTED & (_EB == _AB)


def _tally(table: np.ndarray) -> np.ndarray:
    """Every count the report gives, per attack branch, from a (2,) * 7 cell
    table: the integer counts of a run, or the law, whose tally is then each
    count's expectation per round.

    Shape (5, 2, 2, 2), indexed [row, Eve's basis, Eve's bit, Bob's basis];
    the rows are every round (the mask True), clicked, sifted, error and
    Eve-matched.
    """
    rows = (True, _CLICKED, _SIFTED, _ERROR, _EVE_MATCH)
    return np.stack([(table * row).sum(axis=_OFF_BRANCH_AXES) for row in rows])


def _weight(prior_z: float, basis) -> np.ndarray:
    """Each cell's weight of its basis on one axis, Z having weight prior_z."""
    return np.where(basis == 0, prior_z, 1.0 - prior_z)


def _born(basis, bit, meas_basis, outcome) -> np.ndarray:
    """Born rule for the four eigenstates: in its own basis a state gives its
    bit, in the other basis either outcome with probability 1/2."""
    return np.where(basis == meas_basis, bit == outcome, 0.5)


def _round_law(config: ProtocolConfig, attack: AttackConfig) -> np.ndarray:
    """Probability of each round cell, shape (2,) * 7, in the axis order above."""
    p_par, p_perp = branch_click_probabilities(config, attack)
    fixed = config.fixed_alice
    if fixed is None:
        p = _weight(config.basis_prior, _AB) * 0.5
    else:
        p = ((_AB == _BASES.index(fixed.basis)) & (_A == fixed.bit)) * 1.0
    if attack.mode is not AttackMode.NONE:
        p = p * _weight(attack.eve_basis_prior, _EB) * _born(_AB, _A, _EB, _E)
    else:
        p = p * ((_EB == _AB) & (_E == _A))
    p = p * _weight(config.basis_prior, _BB) * _born(_EB, _E, _BB, _D)
    p_click = np.where(_BB == _EB, p_par, p_perp)
    return np.where(_CLICKED, p * p_click, p * (1.0 - p_click))


def run_simulation(config: ProtocolConfig, attack: AttackConfig) -> SimulationReport:
    """Run the full Monte Carlo and aggregate into a report.

    All rounds come from one multinomial draw over the 128-cell round law on
    the substream (seed, 0), so the report is a function of (config, seed).
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    law = _round_law(config, attack)
    counts = rng.multinomial(config.n_rounds, law.ravel()).reshape(law.shape)
    # int64 throughout: no count exceeds n_rounds <= 2**63 - 1
    tally = _tally(counts)
    _, n_clicks, n_sifted, n_errors, n_eve_match = tally.sum(axis=(1, 2, 3)).tolist()

    attacking = attack.mode is not AttackMode.NONE
    qber = n_errors / n_sifted if n_sifted else None
    per_branch = None
    if attacking:
        # keys in the order the report and the branch CSV print them: X before Z
        per_branch = {(_BASES[eb], e, _BASES[bb]): BranchStats(*tally[:4, eb, e, bb].tolist())
                      for eb, e, bb in product((1, 0), (0, 1), (1, 0))}
    return SimulationReport(
        n_rounds=config.n_rounds,
        n_clicks=n_clicks,
        n_sifted=n_sifted,
        n_errors=n_errors,
        n_sifted_eve_match=n_eve_match if attacking else None,
        qber_observed=qber,
        sift_probability=n_sifted / config.n_rounds,
        erasure_probability=1.0 - n_clicks / config.n_rounds,
        abort=qber is not None and qber >= config.abort_threshold,
        attack_mode=attack.mode,
        seed=config.seed,
        fixed_alice=config.fixed_alice,
        per_branch_stats=per_branch,
    )
