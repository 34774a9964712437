"""Unit tests for :class:`repro.predicates.predicate.QuantumPredicate`."""

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, PredicateError
from repro.linalg.constants import H, I2, ORDER_ATOL, P0, P1, X
from repro.linalg.operators import is_predicate_matrix, operators_close
from repro.linalg.states import density, ket, maximally_mixed, plus_state
from repro.predicates.predicate import QuantumPredicate, clip_to_predicate
from repro.registers import QubitRegister
from repro.superop.kraus import SuperOperator


class TestConstruction:
    def test_valid_predicate(self):
        predicate = QuantumPredicate(0.5 * I2, name="half")
        assert predicate.dimension == 2
        assert predicate.num_qubits == 1
        assert predicate.name == "half"

    def test_rejects_non_hermitian(self):
        with pytest.raises(PredicateError):
            QuantumPredicate(np.array([[0, 1], [0, 0]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(PredicateError):
            QuantumPredicate(2.0 * I2)
        with pytest.raises(PredicateError):
            QuantumPredicate(-0.5 * I2)

    def test_rejects_non_square(self):
        with pytest.raises(PredicateError):
            QuantumPredicate(np.zeros((2, 3)))

    def test_identity_and_zero_factories(self):
        assert operators_close(QuantumPredicate.identity(2).matrix, np.eye(4))
        assert operators_close(QuantumPredicate.zero(1).matrix, np.zeros((2, 2)))

    def test_from_state_normalises(self):
        predicate = QuantumPredicate.from_state(np.array([2.0, 0.0]))
        assert operators_close(predicate.matrix, P0)
        with pytest.raises(PredicateError):
            QuantumPredicate.from_state(np.zeros(2))

    def test_uniform(self):
        predicate = QuantumPredicate.uniform(0.3, 2)
        assert operators_close(predicate.matrix, 0.3 * np.eye(4))
        with pytest.raises(PredicateError):
            QuantumPredicate.uniform(1.2, 1)


class TestExpectation:
    def test_identity_gives_trace(self):
        predicate = QuantumPredicate.identity(1)
        assert predicate.expectation(density(ket("0"))) == pytest.approx(1.0)
        assert predicate.expectation(0.4 * density(ket("1"))) == pytest.approx(0.4)

    def test_projector_expectation(self):
        predicate = QuantumPredicate(P0)
        assert predicate.expectation(density(plus_state())) == pytest.approx(0.5)
        assert predicate.expectation(maximally_mixed(1)) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            QuantumPredicate(P0).expectation(np.eye(4) / 4)


class TestAlgebra:
    def test_conjugate_by_unitary(self):
        predicate = QuantumPredicate(P0).conjugate_by(X)
        assert operators_close(predicate.matrix, P1)

    def test_apply_superoperator_adjoint(self):
        channel = SuperOperator.from_unitary(H)
        predicate = QuantumPredicate(P0).apply_superoperator_adjoint(channel)
        # H† P0 H is the projector onto |+⟩.
        assert predicate.expectation(density(plus_state())) == pytest.approx(1.0)

    def test_complement(self):
        assert operators_close(QuantumPredicate(P0).complement().matrix, P1)

    def test_sum_of_orthogonal_projectors(self):
        total = QuantumPredicate(P0) + QuantumPredicate(P1)
        assert operators_close(total.matrix, I2)

    def test_sum_exceeding_identity_rejected(self):
        with pytest.raises(PredicateError):
            QuantumPredicate(P0) + QuantumPredicate(P0 + 0.5 * P1)

    def test_scaled(self):
        assert operators_close(QuantumPredicate(P0).scaled(0.5).matrix, 0.5 * P0)
        with pytest.raises(PredicateError):
            QuantumPredicate(P0).scaled(1.5)

    def test_tensor(self):
        product = QuantumPredicate(P0).tensor(QuantumPredicate(P1))
        assert operators_close(product.matrix, np.kron(P0, P1))

    def test_embed(self):
        register = QubitRegister(["a", "b"])
        embedded = QuantumPredicate(P1, name="P1").embed(["b"], register)
        assert operators_close(embedded.matrix, np.kron(I2, P1))
        assert embedded.name == "P1"


class TestOrderingAndEquality:
    def test_loewner_le(self):
        assert QuantumPredicate(P0).loewner_le(QuantumPredicate.identity(1))
        assert not QuantumPredicate.identity(1).loewner_le(QuantumPredicate(P0))

    def test_loewner_le_honors_stricter_caller_atol(self):
        eps = QuantumPredicate.uniform(5e-8, 1)
        zero = QuantumPredicate.zero(1)
        assert eps.loewner_le(zero, atol=1e-7)  # loose request: holds
        assert not eps.loewner_le(zero, atol=1e-9)  # strict request honored, not clamped
        assert ORDER_ATOL == pytest.approx(1e-7)

    def test_equality_and_hash(self):
        assert QuantumPredicate(P0) == QuantumPredicate(P0.copy())
        assert QuantumPredicate(P0) != QuantumPredicate(P1)
        assert hash(QuantumPredicate(P0)) == hash(QuantumPredicate(P0.copy()))

    def test_is_projector(self):
        assert QuantumPredicate(P0).is_projector()
        assert not QuantumPredicate(0.5 * I2).is_projector()


class TestClipping:
    def test_clip_leaves_valid_matrices_untouched(self):
        clipped = clip_to_predicate(0.5 * I2)
        assert operators_close(clipped, 0.5 * I2)

    def test_clip_fixes_tiny_excursions(self):
        slightly_off = (1.0 + 1e-12) * P0 - 1e-13 * P1
        clipped = clip_to_predicate(slightly_off)
        assert is_predicate_matrix(clipped)
