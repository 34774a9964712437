"""Unit tests for :class:`repro.superop.kraus.SuperOperator`."""

import pickle

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, SuperOperatorError
from repro.linalg.constants import CX, H, I2, P0, P1, X
from repro.linalg.operators import operators_close
from repro.linalg.states import density, ket, maximally_mixed, plus_state
from repro.registers import QubitRegister
from repro.superop.kraus import SuperOperator


class TestConstruction:
    def test_from_unitary(self):
        channel = SuperOperator.from_unitary(X)
        assert channel.is_trace_preserving()
        assert operators_close(channel.apply(density(ket("0"))), density(ket("1")))

    def test_from_unitary_rejects_non_unitary(self):
        with pytest.raises(SuperOperatorError):
            SuperOperator.from_unitary(P0)

    def test_validation_rejects_trace_increasing(self):
        with pytest.raises(SuperOperatorError):
            SuperOperator([2.0 * I2])

    def test_empty_kraus_rejected(self):
        with pytest.raises(SuperOperatorError):
            SuperOperator([])

    def test_mismatched_kraus_shapes_rejected(self):
        with pytest.raises(DimensionMismatchError):
            SuperOperator([I2, CX])

    def test_scalar(self):
        half = SuperOperator.scalar(0.5, 2)
        assert operators_close(half.apply(density(ket("0"))), 0.5 * density(ket("0")))
        with pytest.raises(SuperOperatorError):
            SuperOperator.scalar(1.5, 2)

    def test_identity_and_zero(self):
        rho = density(plus_state())
        assert operators_close(SuperOperator.identity(2).apply(rho), rho)
        assert operators_close(SuperOperator.zero(2).apply(rho), np.zeros((2, 2)))

    def test_initializer_resets_to_zero(self):
        channel = SuperOperator.initializer(1)
        assert channel.is_trace_preserving()
        assert operators_close(channel.apply(density(ket("1"))), density(ket("0")))
        assert operators_close(channel.apply(maximally_mixed(1)), density(ket("0")))


class TestApplication:
    def test_measurement_channel(self):
        channel = SuperOperator.from_projectors([P0, P1])
        rho = density(plus_state())
        assert operators_close(channel.apply(rho), maximally_mixed(1))
        assert channel.is_trace_preserving()

    def test_apply_adjoint_duality(self):
        """tr(E(ρ)·M) = tr(ρ·E†(M)) for all ρ, M (Sec. 2)."""
        channel = SuperOperator([P0, X @ P1])
        rho = density(plus_state())
        observable = np.array([[0.2, 0.1], [0.1, 0.9]], dtype=complex)
        lhs = np.trace(channel.apply(rho) @ observable)
        rhs = np.trace(rho @ channel.apply_adjoint(observable))
        assert lhs == pytest.approx(rhs)

    def test_apply_checks_dimension(self):
        channel = SuperOperator.identity(2)
        with pytest.raises(DimensionMismatchError):
            channel.apply(np.eye(4))
        with pytest.raises(DimensionMismatchError):
            channel.apply_adjoint(np.eye(4))

    def test_trace_nonincreasing_projection(self):
        channel = SuperOperator([P0])
        assert channel.is_trace_nonincreasing()
        assert not channel.is_trace_preserving()
        output = channel.apply(density(plus_state()))
        assert np.trace(output).real == pytest.approx(0.5)


class TestAlgebra:
    def test_compose_order(self):
        x_then_measure = SuperOperator([P0]).compose(SuperOperator.from_unitary(X))
        # First X (|0⟩→|1⟩), then project onto |0⟩ → zero state.
        assert np.trace(x_then_measure.apply(density(ket("0")))).real == pytest.approx(0.0)
        assert np.trace(x_then_measure.apply(density(ket("1")))).real == pytest.approx(1.0)

    def test_then_is_reverse_of_compose(self):
        a = SuperOperator.from_unitary(H)
        b = SuperOperator([P0])
        assert a.then(b).equals(b.compose(a))

    def test_addition(self):
        total = SuperOperator([P0]) + SuperOperator([P1])
        assert total.is_trace_preserving()

    def test_scaling(self):
        scaled = 0.25 * SuperOperator.identity(2)
        assert np.trace(scaled.apply(density(ket("0")))).real == pytest.approx(0.25)
        with pytest.raises(SuperOperatorError):
            (-1.0) * SuperOperator.identity(2)

    def test_tensor(self):
        product = SuperOperator.from_unitary(X).tensor(SuperOperator.identity(2))
        rho = density(ket("00"))
        assert operators_close(product.apply(rho), density(ket("10")))

    def test_embed_into_register(self):
        register = QubitRegister(["a", "b"])
        embedded = SuperOperator.from_unitary(X).embed(["b"], register)
        assert operators_close(embedded.apply(density(ket("00"))), density(ket("01")))

    def test_dimension_mismatch_in_algebra(self):
        with pytest.raises(DimensionMismatchError):
            SuperOperator.identity(2).compose(SuperOperator.identity(4))
        with pytest.raises(DimensionMismatchError):
            SuperOperator.identity(2) + SuperOperator.identity(4)


class TestOrderingAndEquality:
    def test_equality_is_representation_independent(self):
        # The maximally dephasing channel has several Kraus decompositions.
        dephase_projectors = SuperOperator([P0, P1])
        dephase_pauli = SuperOperator([I2 / np.sqrt(2), np.array([[1, 0], [0, -1]]) / np.sqrt(2)])
        assert dephase_projectors.equals(dephase_pauli)
        assert dephase_projectors == dephase_pauli

    def test_precedes(self):
        partial = SuperOperator([P0])
        total = SuperOperator([P0, P1])
        assert partial.precedes(total)
        assert not total.precedes(partial)

    def test_precedes_is_reflexive(self):
        channel = SuperOperator.from_unitary(H)
        assert channel.precedes(channel)

    def test_simplified_preserves_action(self):
        channel = SuperOperator([P0 / np.sqrt(2), P0 / np.sqrt(2), P1])
        simplified = channel.simplified()
        assert simplified.equals(channel)
        assert len(simplified.kraus_operators) <= len(channel.kraus_operators)

    def test_probability_bound(self):
        assert SuperOperator([P0]).probability_bound() == pytest.approx(1.0)
        assert SuperOperator.scalar(0.3, 2).probability_bound() == pytest.approx(0.3)
        assert SuperOperator.zero(2).probability_bound() == pytest.approx(0.0)


def test_superoperator_pickle_roundtrip():
    kraus = SuperOperator([np.kron(H, np.eye(2))])
    assert pickle.loads(pickle.dumps(kraus)).equals(kraus)
