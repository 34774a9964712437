"""Unit tests for the Frank–Wolfe / dual-eigenvalue SDP substitute."""

import numpy as np
import pytest

from repro.exceptions import PredicateError
from repro.linalg.constants import I2, P0, P1, PPLUS
from repro.linalg.operators import is_density_operator
from repro.linalg.random import random_predicate_matrix
from repro.predicates.sdp import (
    _dual_minimize,
    _frank_wolfe,
    lambda_max,
    max_min_expectation_gap,
    top_eigenvector_state,
)


class TestEigenHelpers:
    def test_lambda_max(self):
        assert lambda_max(P0) == pytest.approx(1.0)
        assert lambda_max(np.diag([-2.0, 3.0])) == pytest.approx(3.0)

    def test_top_eigenvector_state(self):
        state = top_eigenvector_state(np.diag([0.1, 0.9]))
        assert is_density_operator(state)
        assert state[1, 1].real == pytest.approx(1.0)


class TestSingleDifference:
    def test_exact_value_for_single_theta(self):
        """With |Θ| = 1 the optimum is exactly λ_max(M − N)."""
        gap = max_min_expectation_gap([P0.astype(complex)], (0.5 * I2))
        assert gap.lower == pytest.approx(0.5, abs=1e-6)
        assert gap.upper == pytest.approx(0.5, abs=1e-6)

    def test_negative_gap_when_dominated(self):
        gap = max_min_expectation_gap([0.2 * I2], 0.7 * I2)
        assert gap.upper == pytest.approx(-0.5, abs=1e-6)

    def test_witness_is_a_state_achieving_lower_bound(self):
        gap = max_min_expectation_gap([P1], P0)
        assert is_density_operator(gap.witness)
        achieved = np.trace((P1 - P0) @ gap.witness).real
        assert achieved == pytest.approx(gap.lower, abs=1e-6)

    @pytest.mark.parametrize("dimension", [2, 4, 8, 16])
    def test_exact_value_lies_in_the_primal_dual_bracket(self, dimension):
        """The one-``eigh`` value sits inside the Frank–Wolfe/dual bracket it replaces."""
        rng = np.random.default_rng(dimension)
        for _ in range(5):
            theta = random_predicate_matrix(dimension, seed=rng)
            psi = random_predicate_matrix(dimension, seed=rng)
            gap = max_min_expectation_gap([theta], psi)
            assert gap.lower == gap.upper
            assert list(gap.dual_weights) == [1.0]
            assert is_density_operator(gap.witness)
            achieved = np.trace((theta - psi) @ gap.witness).real
            assert achieved == pytest.approx(gap.upper, abs=1e-10)
            differences = [theta - psi]
            lower, _ = _frank_wolfe(differences, 200, dimension)
            upper, _ = _dual_minimize(differences, 6, np.random.default_rng(0))
            assert lower - 1e-9 <= gap.upper <= upper + 1e-9


class TestMinimaxPair:
    def test_bounds_bracket_each_other(self):
        thetas = [P0, P1]
        gap = max_min_expectation_gap(thetas, 0.5 * I2)
        assert gap.lower <= gap.upper + 1e-9

    def test_two_projector_game_value(self):
        """max_ρ min(tr(P0ρ), tr(P1ρ)) = 1/2, so against N = 0 the gap is 1/2."""
        gap = max_min_expectation_gap([P0, P1], np.zeros((2, 2)))
        assert gap.upper == pytest.approx(0.5, abs=1e-3)
        assert gap.lower == pytest.approx(0.5, abs=1e-3)

    def test_three_predicates(self):
        """With three predicates the dual uses the SLSQP path; value stays bracketed."""
        thetas = [P0, P1, PPLUS]
        gap = max_min_expectation_gap(thetas, np.zeros((2, 2)), restarts=8)
        # The optimal value of max_ρ min over the three projectors is ≤ 1/2
        # (P0/P1 alone already cap it) and ≥ 1/3 (maximally mixed state).
        assert gap.lower >= 1.0 / 3.0 - 1e-3
        assert gap.upper <= 0.5 + 1e-3
        assert gap.lower <= gap.upper + 1e-9

    def test_dual_weights_form_distribution(self):
        gap = max_min_expectation_gap([P0, P1], 0.25 * I2)
        assert gap.dual_weights.sum() == pytest.approx(1.0, abs=1e-6)
        assert (gap.dual_weights >= -1e-9).all()

    def test_midpoint_between_bounds(self):
        gap = max_min_expectation_gap([P0, P1], 0.25 * I2)
        assert gap.lower - 1e-12 <= gap.midpoint <= gap.upper + 1e-12


class TestValidation:
    def test_empty_theta_rejected(self):
        with pytest.raises(PredicateError):
            max_min_expectation_gap([], P0)

    def test_deterministic_given_seed(self):
        first = max_min_expectation_gap([P0, P1, PPLUS], 0.1 * I2, seed=5)
        second = max_min_expectation_gap([P0, P1, PPLUS], 0.1 * I2, seed=5)
        assert first.upper == pytest.approx(second.upper)
        assert first.lower == pytest.approx(second.lower)
