"""Polarization algebra: the state type, and the reference sampler's exact
projection probabilities, complement and PBS routing (reference.py)."""

import numpy as np
import pytest
from scipy.stats import chisquare

from riesim.quantum import Basis, PolarizationState

from reference import ALPHA, A, D, H, V, complement, projection_prob, route_through_pbs

ALL_STATES = [H, V, D, A]


def test_exactly_four_distinct_states():
    assert len({(s.basis, s.bit) for s in ALL_STATES}) == 4


def test_bit_must_be_binary():
    with pytest.raises(ValueError):
        PolarizationState(Basis.Z, 2)


def test_complement_flips_bit_preserves_basis():
    for state in ALL_STATES:
        comp = complement(state)
        assert comp.basis is state.basis
        assert comp.bit == 1 - state.bit
        assert complement(comp) == state


def test_aligned_basis_measurement_is_deterministic():
    assert projection_prob(H, Basis.Z, 0) == 1.0
    assert projection_prob(H, Basis.Z, 1) == 0.0
    for state in ALL_STATES:
        assert projection_prob(state, state.basis, state.bit) == 1.0
        assert projection_prob(state, state.basis, 1 - state.bit) == 0.0


def test_orthogonal_basis_measurement_splits_evenly():
    assert projection_prob(H, Basis.X, 0) == 0.5
    assert projection_prob(A, Basis.Z, 1) == 0.5
    for state in ALL_STATES:
        other = Basis.X if state.basis is Basis.Z else Basis.Z
        assert projection_prob(state, other, 0) == 0.5
        assert projection_prob(state, other, 1) == 0.5


def test_projection_probs_sum_to_one_exactly():
    for state in ALL_STATES:
        for basis in Basis:
            assert projection_prob(state, basis, 0) + projection_prob(state, basis, 1) == 1.0


def test_invalid_outcome_rejected():
    with pytest.raises(ValueError):
        projection_prob(H, Basis.Z, 2)


def test_eigenstates_route_deterministically():
    for seed in (0, 1, 99):
        rng = np.random.default_rng(seed)
        assert route_through_pbs(V, Basis.Z, rng) == 1
        assert route_through_pbs(D, Basis.X, rng) == 0
        assert route_through_pbs(H, Basis.Z, rng) == 0
        assert route_through_pbs(A, Basis.X, rng) == 1


def test_split_routing_matches_born_rule_at_one_million_samples():
    n = 1_000_000
    rng = np.random.default_rng(2024)
    hits = sum(route_through_pbs(H, Basis.X, rng) for _ in range(n))
    assert chisquare([hits, n - hits]).pvalue > ALPHA


def test_routing_consumes_one_draw_even_when_deterministic():
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    route_through_pbs(V, Basis.Z, rng_a)  # deterministic outcome
    rng_b.random()
    assert rng_a.random() == rng_b.random()
