"""Experiment E7 — the ``⊑_inf`` decision procedure (Sec. 6.3, Lemma 6.1).

The paper's prototype reduces the assertion order to Löwner checks (singleton
case) and SDP feasibility (general case).  This benchmark measures the cost of
the reproduction's substitute — Löwner eigenvalue checks plus the barrier
method that closes a certified interval around the worst-case gap — across
Hilbert-space dimensions and assertion sizes, and asserts its correctness on
the paper's worked cases.
"""

import numpy as np
import pytest

from repro.linalg.constants import I2, P0, P1
from repro.linalg.random import random_predicate_matrix
from repro.predicates.assertion import QuantumAssertion
from repro.predicates.order import leq_inf


@pytest.mark.parametrize("dimension", [2, 4, 8, 16, 32])
def test_singleton_loewner_check_scaling(benchmark, dimension):
    """Singleton Θ: the check is one eigenvalue computation per Ψ predicate."""
    rng = np.random.default_rng(dimension)
    small = random_predicate_matrix(dimension, seed=rng)
    theta = QuantumAssertion([0.5 * small])
    psi = QuantumAssertion([0.5 * small + 0.25 * np.eye(dimension)])

    result = benchmark(lambda: leq_inf(theta, psi))
    assert result.holds
    benchmark.extra_info["dimension"] = dimension


@pytest.mark.parametrize("theta_size", [2, 3, 4])
@pytest.mark.parametrize("dimension", [2, 4, 8])
def test_general_sdp_substitute_scaling(benchmark, dimension, theta_size):
    """General Θ: the certified interval around the worst-case expectation gap."""
    rng = np.random.default_rng(dimension * 10 + theta_size)
    predicates = [random_predicate_matrix(dimension, seed=rng) for _ in range(theta_size)]
    theta = QuantumAssertion(predicates)
    # Ψ dominates everything, so the relation certainly holds; the benchmark
    # measures the certified-decision cost rather than an accident of geometry.
    psi = QuantumAssertion([np.eye(dimension)])

    result = benchmark(lambda: leq_inf(theta, psi))
    assert result.holds
    benchmark.extra_info["dimension"] = dimension
    benchmark.extra_info["theta_size"] = theta_size


def test_paper_counterexample_decision(benchmark):
    """The Sec. 4.1 counterexample: {P0, P1} ⊑_inf {I/2} holds, neither singleton does."""

    def run():
        theta = QuantumAssertion([P0, P1])
        psi = QuantumAssertion([0.5 * I2])
        return (
            leq_inf(theta, psi).holds,
            leq_inf(QuantumAssertion([P0]), psi).holds,
            leq_inf(QuantumAssertion([P1]), psi).holds,
        )

    set_holds, first_alone, second_alone = benchmark(run)
    assert set_holds and not first_alone and not second_alone
    benchmark.extra_info["paper_claim"] = "counterexample below Example 4.1 reproduced"


def test_violation_detection_with_witness(benchmark):
    """A failing relation must come with a witness state that exhibits the gap."""
    theta = QuantumAssertion([0.9 * I2, 0.8 * I2 + 0.1 * P0])
    psi = QuantumAssertion([0.5 * I2])

    result = benchmark(lambda: leq_inf(theta, psi))
    assert not result.holds
    witness = result.witness
    assert witness is not None
    assert theta.expectation(witness) > psi.expectation(witness)
    benchmark.extra_info["witness_gap"] = float(
        theta.expectation(witness) - psi.expectation(witness)
    )
