"""Unit tests for the certified ``⊑_inf`` gap: one ``eigh`` or the barrier method."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exceptions import PredicateError
from repro.linalg.constants import I2, P0, P1, PPLUS
from repro.linalg.operators import is_density_operator
from repro.linalg.random import random_predicate_matrix
from repro.predicates import sdp
from repro.predicates.sdp import GAP_WIDTH, _barrier, max_min_expectation_gap


def assert_certified(thetas, psi, gap):
    """Check both certificates of ``gap`` directly against ``A_i = M_i − N``."""
    differences = [np.asarray(theta, dtype=complex) - psi for theta in thetas]
    assert is_density_operator(gap.witness)
    achieved = min(np.trace(a @ gap.witness).real for a in differences)
    assert achieved == pytest.approx(gap.lower, abs=1e-12)
    weights = gap.dual_weights
    assert (weights >= 0).all() and weights.sum() == pytest.approx(1.0, abs=1e-12)
    combined = sum(weight * a for weight, a in zip(weights, differences))
    assert np.linalg.eigvalsh(combined)[-1] == pytest.approx(gap.upper, abs=1e-12)


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
    def test_exact_value_lies_in_the_barrier_bracket(self, dimension):
        """The one-``eigh`` value sits inside the barrier method's bracket on the same difference."""
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
            difference = theta - psi
            bracket = _barrier(np.stack([(difference + difference.conj().T) / 2]))
            assert bracket.upper - bracket.lower <= GAP_WIDTH
            assert bracket.lower - 1e-12 <= gap.upper <= bracket.upper + 1e-12


class TestMinimaxPair:
    def test_bounds_bracket_each_other(self):
        thetas = [P0, P1]
        gap = max_min_expectation_gap(thetas, 0.5 * I2)
        assert gap.lower <= gap.upper + 1e-9

    def test_two_projector_game_value(self):
        """max_ρ min(tr(P0ρ), tr(P1ρ)) = 1/2, so against N = 0 the gap is 1/2."""
        gap = max_min_expectation_gap([P0, P1], np.zeros((2, 2)))
        assert gap.upper == pytest.approx(0.5, abs=1e-9)
        assert gap.lower == pytest.approx(0.5, abs=1e-9)
        assert_certified([P0, P1], np.zeros((2, 2)), gap)

    def test_three_predicates(self):
        """Adding P+ to {P0, P1} keeps the value at 1/2: |+⟩ gives 1/2, 1/2 and 1."""
        thetas = [P0, P1, PPLUS]
        gap = max_min_expectation_gap(thetas, np.zeros((2, 2)))
        assert gap.upper == pytest.approx(0.5, abs=1e-9)
        assert gap.lower == pytest.approx(0.5, abs=1e-9)
        assert_certified(thetas, np.zeros((2, 2)), gap)

    def test_dual_weights_form_distribution(self):
        gap = max_min_expectation_gap([P0, P1], 0.25 * I2)
        assert gap.dual_weights.sum() == pytest.approx(1.0, abs=1e-6)
        assert (gap.dual_weights >= -1e-9).all()

    def test_dominated_predicate_closes_at_a_vertex(self):
        """When M_1 ⊑ M_2 the optimum is λ = e_1, and the seeds alone are exact."""
        theta = random_predicate_matrix(4, seed=3)
        thetas = [0.5 * theta, 0.5 * theta + 0.5 * np.eye(4)]
        psi = random_predicate_matrix(4, seed=4)
        gap = max_min_expectation_gap(thetas, psi)
        exact = np.linalg.eigvalsh(0.5 * theta - psi)[-1]
        assert gap.lower == pytest.approx(exact, abs=1e-12)
        assert gap.upper == pytest.approx(exact, abs=1e-12)
        assert list(gap.dual_weights) == [1.0, 0.0]


@st.composite
def gap_instances(draw):
    """``(Θ, N)`` with ``d = 2…8``, ``|Θ| = 2…4`` and a random predicate ``N``."""
    dimension = draw(st.integers(min_value=2, max_value=8))
    count = draw(st.integers(min_value=2, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    thetas = [random_predicate_matrix(dimension, seed=rng) for _ in range(count)]
    return thetas, random_predicate_matrix(dimension, seed=rng)


class TestBarrierCertificates:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=gap_instances())
    def test_both_ends_are_certified_and_the_interval_closes(self, instance):
        thetas, psi = instance
        gap = max_min_expectation_gap(thetas, psi)
        assert_certified(thetas, psi, gap)
        assert gap.upper - gap.lower <= GAP_WIDTH
        assert gap.lower <= gap.upper + 1e-12


class TestWorkingPrecision:
    @pytest.mark.parametrize("seed", range(6))
    def test_a_width_it_cannot_reach_still_returns_certificates(self, monkeypatch, seed):
        """With a target width of 0 the method runs until rounding stops it, without raising."""
        monkeypatch.setattr(sdp, "GAP_WIDTH", 0.0)
        rng = np.random.default_rng(seed)
        dimension, count = 2 + seed, 2 + seed % 3
        thetas = [random_predicate_matrix(dimension, seed=rng) for _ in range(count)]
        psi = random_predicate_matrix(dimension, seed=rng) if seed % 2 else sum(thetas) / count
        gap = max_min_expectation_gap(thetas, psi)
        assert_certified(thetas, psi, gap)
        assert -1e-12 <= gap.upper - gap.lower <= 1e-10


class TestValidation:
    def test_empty_theta_rejected(self):
        with pytest.raises(PredicateError):
            max_min_expectation_gap([], P0)

    def test_repeated_calls_agree_bit_for_bit(self):
        first = max_min_expectation_gap([P0, P1, PPLUS], 0.1 * I2)
        second = max_min_expectation_gap([P0, P1, PPLUS], 0.1 * I2)
        assert (first.lower, first.upper) == (second.lower, second.upper)
        assert np.array_equal(first.witness, second.witness)
        assert np.array_equal(first.dual_weights, second.dual_weights)
