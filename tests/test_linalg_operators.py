"""Unit tests for the operator-level checks of :mod:`repro.linalg.operators`."""

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, LinalgError
from repro.linalg import constants
from repro.linalg.constants import ATOL
from repro.linalg.operators import (
    as_operator,
    commutator,
    dagger,
    eigenvalue_bounds,
    is_density_operator,
    is_hermitian,
    is_partial_density_operator,
    is_positive,
    is_predicate_matrix,
    is_projector,
    is_unitary,
    loewner_ge,
    loewner_le,
    num_qubits_of,
    operators_close,
    outer,
    spectral_decomposition,
    trace_inner,
)
from repro.linalg.random import random_unitary


class TestStructuralChecks:
    def test_pauli_matrices_are_hermitian_and_unitary(self):
        for gate in (constants.X, constants.Y, constants.Z, constants.H):
            assert is_hermitian(gate)
            assert is_unitary(gate)

    def test_phase_gates_are_unitary_but_not_hermitian(self):
        assert is_unitary(constants.S)
        assert not is_hermitian(constants.S)
        assert is_unitary(constants.T)
        assert not is_hermitian(constants.T)

    def test_projectors(self):
        assert is_projector(constants.P0)
        assert is_projector(constants.P1)
        assert is_projector(constants.PPLUS)
        assert not is_projector(constants.H)

    def test_positive_operators(self):
        assert is_positive(constants.P0)
        assert is_positive(constants.I2)
        assert not is_positive(constants.Z)

    def test_density_operator_checks(self):
        rho = np.array([[0.5, 0], [0, 0.5]])
        assert is_density_operator(rho)
        assert is_partial_density_operator(0.3 * rho)
        assert not is_density_operator(0.3 * rho)
        assert not is_partial_density_operator(2.0 * rho)

    def test_predicate_matrix_check(self):
        assert is_predicate_matrix(constants.P0)
        assert is_predicate_matrix(0.5 * constants.I2)
        assert not is_predicate_matrix(2.0 * constants.I2)
        assert not is_predicate_matrix(-0.1 * constants.I2)

    def test_non_square_inputs_are_rejected(self):
        rectangular = np.zeros((2, 3))
        assert not is_hermitian(rectangular)
        assert not is_unitary(rectangular)
        with pytest.raises(LinalgError):
            as_operator(rectangular)


class TestIsUnitaryMatchesAllclose:
    """``is_unitary`` gives ``np.allclose(U†U, I, atol=ATOL)``'s answer on every square input."""

    # ``allclose``'s bound on a diagonal entry of ``U†U − I`` (``rtol = 1e-5`` times ``|I|``).
    DIAGONAL_BOUND = ATOL + 1e-5

    @staticmethod
    def reference(matrix):
        matrix = np.asarray(matrix, dtype=complex)
        return bool(np.allclose(dagger(matrix) @ matrix, np.eye(len(matrix)), atol=ATOL))

    @pytest.mark.parametrize("dimension", [2, 4, 8])
    @pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_scaled_unitary_on_both_sides_of_the_diagonal_bound(self, dimension, factor, sign):
        # ``((1 ± δ)U)†((1 ± δ)U) = (1 ± δ)² I``: its diagonal is off by about ``2δ``.
        delta = factor * self.DIAGONAL_BOUND / 2
        matrix = (1 + sign * delta) * random_unitary(dimension, seed=dimension)
        expected = self.reference(matrix)
        assert expected == (factor < 1)
        assert is_unitary(matrix) == expected

    @pytest.mark.parametrize("dimension", [2, 4, 8])
    @pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
    def test_off_diagonal_perturbation_on_both_sides_of_atol(self, dimension, factor):
        # ``U(I + εN)`` with ``N = |0⟩⟨1|`` gives ``U†U = I + ε(N + N†) + ε²N†N``:
        # off-diagonal entries ``ε``, far below the diagonal bound.
        epsilon = factor * ATOL
        nudge = np.eye(dimension, dtype=complex)
        nudge[0, 1] = epsilon
        matrix = random_unitary(dimension, seed=dimension) @ nudge
        expected = self.reference(matrix)
        assert expected == (factor < 1)
        assert is_unitary(matrix) == expected

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 0)])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_nan_and_inf_entries(self, value, entry):
        matrix = np.array(constants.H, dtype=complex)
        matrix[entry] = value
        with np.errstate(invalid="ignore"):
            assert self.reference(matrix) is False
            assert is_unitary(matrix) is False

    def test_non_square_input_is_not_unitary(self):
        # An isometry passes ``allclose(V†V, I)``; it is still not a unitary.
        isometry = random_unitary(4, seed=1)[:, :2]
        assert np.allclose(dagger(isometry) @ isometry, np.eye(2), atol=ATOL)
        assert not is_unitary(isometry)
        assert not is_unitary(np.ones(2))
        assert not is_unitary(np.stack([constants.H, constants.H]))


class TestLoewnerOrder:
    def test_projector_below_identity(self):
        assert loewner_le(constants.P0, constants.I2)
        assert loewner_ge(constants.I2, constants.P0)

    def test_incomparable_projectors(self):
        assert not loewner_le(constants.P0, constants.P1)
        assert not loewner_le(constants.P1, constants.P0)

    def test_reflexive_and_shape_mismatch(self):
        assert loewner_le(constants.P0, constants.P0)
        with pytest.raises(DimensionMismatchError):
            loewner_le(constants.P0, constants.CX)


class TestSpectralDecomposition:
    def test_reconstruction(self):
        matrix = 0.3 * constants.P0 + 0.9 * constants.P1
        parts = spectral_decomposition(matrix)
        rebuilt = sum(value * projector for value, projector in parts)
        assert operators_close(matrix, rebuilt)

    def test_projectors_are_orthogonal_and_complete(self):
        parts = spectral_decomposition(constants.Z)
        total = sum(projector for _, projector in parts)
        assert operators_close(total, constants.I2)
        assert len(parts) == 2

    def test_degenerate_eigenvalues_are_merged(self):
        parts = spectral_decomposition(constants.I2)
        assert len(parts) == 1
        assert parts[0][0] == pytest.approx(1.0)

    def test_requires_hermitian(self):
        with pytest.raises(LinalgError):
            spectral_decomposition(constants.S)


class TestSmallHelpers:
    def test_dagger_involution(self):
        assert operators_close(dagger(dagger(constants.S)), constants.S)

    def test_outer_product(self):
        ket0 = np.array([1, 0])
        assert operators_close(outer(ket0), constants.P0)

    def test_commutator_of_commuting_operators_vanishes(self):
        assert operators_close(commutator(constants.Z, constants.P0), np.zeros((2, 2)))
        assert not operators_close(commutator(constants.X, constants.Z), np.zeros((2, 2)))

    def test_eigenvalue_bounds(self):
        low, high = eigenvalue_bounds(constants.Z)
        assert low == pytest.approx(-1.0)
        assert high == pytest.approx(1.0)

    def test_num_qubits_of(self):
        assert num_qubits_of(constants.I2) == 1
        assert num_qubits_of(constants.CX) == 2
        with pytest.raises(LinalgError):
            num_qubits_of(np.eye(3))

    def test_trace_inner_is_expectation(self):
        rho = np.array([[0.75, 0], [0, 0.25]])
        assert trace_inner(constants.P0, rho) == pytest.approx(0.75)
        assert trace_inner(constants.P1, rho) == pytest.approx(0.25)
