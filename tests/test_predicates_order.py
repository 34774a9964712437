"""Unit tests for the ``⊑_inf`` decision procedure (Sec. 6.3, Lemma 6.1)."""

import numpy as np
import pytest

from repro.exceptions import OrderRelationError, VerificationError
from repro.linalg.constants import I2, P0, P1, PMINUS, PPLUS
from repro.linalg.random import random_predicate_matrix
from repro.predicates import sdp
from repro.predicates.assertion import QuantumAssertion
from repro.predicates.order import assert_leq_inf, expectation_gap, leq_inf
from repro.predicates.predicate import QuantumPredicate


class TestSingletonCase:
    def test_loewner_comparable_predicates(self):
        assert leq_inf(QuantumAssertion([P0]), QuantumAssertion([I2])).holds
        assert not leq_inf(QuantumAssertion([I2]), QuantumAssertion([P0])).holds

    def test_scaled_identity(self):
        assert leq_inf(QuantumAssertion([0.3 * I2]), QuantumAssertion([0.5 * I2])).holds
        assert not leq_inf(QuantumAssertion([0.5 * I2]), QuantumAssertion([0.3 * I2])).holds

    def test_reflexivity(self):
        assertion = QuantumAssertion([0.7 * P0 + 0.2 * P1])
        assert leq_inf(assertion, assertion).holds

    def test_singleton_violation_reports_witness(self):
        result = leq_inf(QuantumAssertion([P1]), QuantumAssertion([P0]))
        assert not result.holds
        assert result.witness is not None
        # The witness must actually separate the assertions.
        witness = result.witness
        lhs = QuantumAssertion([P1]).expectation(witness)
        rhs = QuantumAssertion([P0]).expectation(witness)
        assert lhs > rhs


class TestPaperCounterexample:
    """The example below Example 4.1: Θ = {P0, P1} ⊑_inf {I/2} but not predicate-wise."""

    def test_set_relation_holds(self):
        theta = QuantumAssertion([P0, P1])
        psi = QuantumAssertion([0.5 * I2])
        assert leq_inf(theta, psi).holds

    def test_individual_predicates_fail(self):
        psi = QuantumAssertion([0.5 * I2])
        assert not leq_inf(QuantumAssertion([P0]), psi).holds
        assert not leq_inf(QuantumAssertion([P1]), psi).holds

    def test_reverse_direction_fails(self):
        theta = QuantumAssertion([P0, P1])
        psi = QuantumAssertion([0.5 * I2])
        assert not leq_inf(psi, theta).holds


class TestGeneralCase:
    def test_union_weakens(self):
        """Adding predicates can only lower the guaranteed expectation."""
        theta = QuantumAssertion([P0, PPLUS])
        assert leq_inf(theta, QuantumAssertion([P0])).holds
        assert leq_inf(theta, QuantumAssertion([PPLUS])).holds

    def test_two_bases_against_half_identity(self):
        theta = QuantumAssertion([PPLUS, PMINUS])
        psi = QuantumAssertion([0.5 * I2])
        assert leq_inf(theta, psi).holds

    def test_multi_element_right_hand_side(self):
        theta = QuantumAssertion([P0, P1])
        psi = QuantumAssertion([0.5 * I2, I2])
        assert leq_inf(theta, psi).holds

    def test_violation_with_multiple_lhs_predicates(self):
        theta = QuantumAssertion([0.9 * I2, 0.8 * I2 + 0.1 * P0])
        psi = QuantumAssertion([0.5 * I2])
        result = leq_inf(theta, psi)
        assert not result.holds
        assert result.witness is not None

    @pytest.mark.parametrize("seed", range(4))
    def test_random_consistency_with_sampling(self, seed):
        """The decision must agree with brute-force sampling of expectations."""
        rng = np.random.default_rng(seed)
        theta = QuantumAssertion([random_predicate_matrix(2, seed=rng) for _ in range(2)])
        psi = QuantumAssertion([random_predicate_matrix(2, seed=rng)])
        verdict = leq_inf(theta, psi, epsilon=1e-7)
        # Sample many states; if we find a violation the verdict must be False.
        violated = False
        for _ in range(200):
            vector = rng.normal(size=2) + 1j * rng.normal(size=2)
            vector = vector / np.linalg.norm(vector)
            rho = np.outer(vector, vector.conj())
            if theta.expectation(rho) > psi.expectation(rho) + 1e-5:
                violated = True
                break
        if violated:
            assert not verdict.holds


class TestHelpers:
    def test_expectation_gap_bounds_bracket(self):
        theta = QuantumAssertion([P0, P1])
        gap = expectation_gap(theta, QuantumPredicate(0.5 * I2))
        assert gap.lower <= gap.upper + 1e-9
        assert gap.upper <= 1e-6  # the relation holds, so the gap is ≤ 0 (up to precision)

    def test_assert_leq_inf_raises_with_message(self):
        with pytest.raises(OrderRelationError) as excinfo:
            assert_leq_inf(
                QuantumAssertion([I2], name="I"),
                QuantumAssertion([P0], name="P0"),
                context="loop invariant",
            )
        assert "Order relation not satisfied" in str(excinfo.value)
        assert excinfo.value.witness is not None

    def test_assert_leq_inf_passes_silently(self):
        assert_leq_inf(QuantumAssertion([P0]), QuantumAssertion([I2]))


class TestCertifiedDecision:
    @pytest.mark.parametrize("count", [2, 3, 4])
    @pytest.mark.parametrize("dimension", [2, 4, 8, 16, 32])
    def test_mean_of_theta_is_a_certified_holds(self, dimension, count):
        """With N the mean of Θ, V(Θ, N) ≤ 0: the dual certificate decides at ε = 1e-6."""
        rng = np.random.default_rng(100 * dimension + count)
        thetas = [random_predicate_matrix(dimension, seed=rng) for _ in range(count)]
        theta = QuantumAssertion(thetas)
        mean = QuantumPredicate(sum(thetas) / count)
        result = leq_inf(theta, QuantumAssertion([mean]), epsilon=1e-6)
        assert result.holds
        assert len(result.details) == 1 and result.details[0].startswith("N_0: dual certificate")
        gap = expectation_gap(theta, mean)
        assert gap.upper <= 1e-6
        assert gap.upper - gap.lower <= sdp.GAP_WIDTH

    def test_interval_containing_epsilon_raises(self, monkeypatch):
        """With no Newton step the seeds leave [0, 1] for {P0, P1} against 0; ε = 1/4 lies inside."""
        monkeypatch.setattr(sdp, "NEWTON_STEPS", 0)
        theta = QuantumAssertion([P0, P1])
        psi = QuantumAssertion([np.zeros((2, 2))])
        with pytest.raises(VerificationError) as excinfo:
            leq_inf(theta, psi, epsilon=0.25)
        message = str(excinfo.value)
        assert "[0.000000000e+00, 1.000000000e+00]" in message
        assert "ε = 0.25" in message
        assert not isinstance(excinfo.value, OrderRelationError)
