"""Unit tests for set-level comparisons of super-operators (Lemma 3.1 machinery)."""

import numpy as np
import pytest

from repro.linalg.constants import H, I2, P0, P1, X
from repro.linalg.random import random_density_operator
from repro.linalg.operators import loewner_le
from repro.superop.compare import (
    convergence_gap,
    deduplicate,
    lub_of_chain,
    set_equal,
    set_subset,
    superoperator_equal,
    superoperator_precedes,
)
from repro.superop.kraus import SuperOperator


class TestElementComparisons:
    def test_equal_maps_different_decompositions(self):
        dephase_a = SuperOperator([P0, P1])
        dephase_b = SuperOperator([I2 / np.sqrt(2), np.diag([1.0, -1.0]) / np.sqrt(2)])
        assert superoperator_equal(dephase_a, dephase_b)

    def test_precedes_implies_loewner_on_outputs(self):
        """Lemma 3.1: E ⪯ F implies E(ρ) ⊑ F(ρ) for every state."""
        smaller = SuperOperator([P0])
        larger = SuperOperator([P0, P1])
        assert superoperator_precedes(smaller, larger)
        for seed in range(5):
            rho = random_density_operator(2, seed=seed)
            assert loewner_le(smaller.apply(rho), larger.apply(rho))

    def test_precedes_fails_for_incomparable_maps(self):
        a = SuperOperator([P0])
        b = SuperOperator([P1])
        assert not superoperator_precedes(a, b)
        assert not superoperator_precedes(b, a)


class TestSetComparisons:
    def test_deduplicate(self):
        maps = [SuperOperator([P0, P1]), SuperOperator([I2 / np.sqrt(2), np.diag([1.0, -1.0]) / np.sqrt(2)]), SuperOperator.from_unitary(X)]
        unique = deduplicate(maps)
        assert len(unique) == 2

    def test_subset_and_equality(self):
        identity = SuperOperator.identity(2)
        hadamard = SuperOperator.from_unitary(H)
        flip = SuperOperator.from_unitary(X)
        assert set_subset([identity], [identity, hadamard])
        assert not set_subset([flip], [identity, hadamard])
        assert set_equal([identity, hadamard], [hadamard, identity])
        assert not set_equal([identity], [identity, hadamard])

    def test_set_comparisons_tolerate_mixed_dimensions(self):
        small = SuperOperator.identity(2)
        large = SuperOperator.identity(4)
        assert set_subset([small], [small, large])
        assert set_subset([small, large], [large, small])
        assert not set_subset([small], [large])
        assert not set_equal([small], [large])
        assert len(deduplicate([small, large, small, large])) == 2


class TestChains:
    def test_lub_of_valid_chain(self):
        chain = [
            SuperOperator.scalar(0.25, 2),
            SuperOperator.scalar(0.5, 2),
            SuperOperator.scalar(0.75, 2),
        ]
        assert lub_of_chain(chain).equals(chain[-1])

    def test_lub_rejects_non_chain(self):
        with pytest.raises(ValueError):
            lub_of_chain([SuperOperator.scalar(0.5, 2), SuperOperator.scalar(0.25, 2)])
        with pytest.raises(ValueError):
            lub_of_chain([])

    def test_convergence_gap(self):
        chain = [SuperOperator.scalar(0.5, 2), SuperOperator.scalar(0.5, 2)]
        assert convergence_gap(chain) == pytest.approx(0.0, abs=1e-12)
        assert convergence_gap([SuperOperator.identity(2)]) == float("inf")
        widening = [SuperOperator.scalar(0.0, 2), SuperOperator.scalar(1.0, 2)]
        assert convergence_gap(widening) > 0.5
