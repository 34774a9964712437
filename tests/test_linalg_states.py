"""Unit tests for state constructors in :mod:`repro.linalg.states`."""

import warnings

import numpy as np
import pytest

from repro.exceptions import LinalgError
from repro.linalg.constants import I2
from repro.linalg.operators import is_density_operator, operators_close
from repro.linalg.random import random_density_operator, random_state_vector
from repro.linalg.states import (
    basis_state,
    bell_state,
    computational_basis,
    density,
    fidelity,
    ghz_state,
    is_normalized,
    ket,
    maximally_mixed,
    minus_state,
    mixed_state,
    normalize_state,
    plus_state,
    purity,
    state_from_amplitudes,
    trace_norm,
    w_state,
)


class TestKets:
    def test_ket_from_bitstring(self):
        vector = ket("10")
        assert vector.shape == (4, 1)
        assert vector[2, 0] == 1.0

    def test_ket_from_index(self):
        assert np.allclose(ket(3, num_qubits=2), ket("11"))

    def test_invalid_labels(self):
        with pytest.raises(LinalgError):
            ket("012")
        with pytest.raises(LinalgError):
            ket(5, num_qubits=2)
        with pytest.raises(LinalgError):
            ket(1)

    def test_computational_basis_is_orthonormal(self):
        basis = computational_basis(2)
        gram = np.array([[float(np.vdot(a, b).real) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(4))

    def test_basis_state_bounds(self):
        with pytest.raises(LinalgError):
            basis_state(4, 4)


class TestNamedStates:
    def test_plus_minus_are_orthogonal(self):
        assert abs(np.vdot(plus_state(), minus_state())) < 1e-12

    def test_bell_states_are_normalised_and_orthogonal(self):
        states = [bell_state(k) for k in range(4)]
        for state in states:
            assert is_normalized(state)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.vdot(states[i], states[j])) < 1e-12

    def test_bell_state_invalid_kind(self):
        with pytest.raises(LinalgError):
            bell_state(7)

    def test_ghz_and_w_states(self):
        ghz = ghz_state(3)
        assert is_normalized(ghz)
        assert ghz[0, 0] == pytest.approx(1 / np.sqrt(2))
        w = w_state(3)
        assert is_normalized(w)
        # W state has support exactly on the three weight-1 strings.
        support = [index for index in range(8) if abs(w[index, 0]) > 1e-12]
        assert support == [1, 2, 4]


class TestDensityOperators:
    def test_density_of_pure_state(self):
        rho = density(plus_state())
        assert is_density_operator(rho)
        assert purity(rho) == pytest.approx(1.0)

    def test_density_passthrough_validates(self):
        rho = maximally_mixed(1)
        assert operators_close(density(rho), rho)
        with pytest.raises(LinalgError):
            density(2 * I2)

    def test_mixed_state_of_ensemble(self):
        rho = mixed_state([(0.5, ket("0")), (0.5, ket("1"))])
        assert operators_close(rho, maximally_mixed(1))

    def test_mixed_state_rejects_bad_probabilities(self):
        with pytest.raises(LinalgError):
            mixed_state([(0.8, ket("0")), (0.8, ket("1"))])
        with pytest.raises(LinalgError):
            mixed_state([(-0.1, ket("0"))])
        with pytest.raises(LinalgError):
            mixed_state([])

    def test_two_decompositions_of_maximally_mixed_state(self):
        """Eq. (5) of the paper: I/2 has two distinct pure-state decompositions."""
        computational = mixed_state([(0.5, ket("0")), (0.5, ket("1"))])
        hadamard = mixed_state([(0.5, plus_state()), (0.5, minus_state())])
        assert operators_close(computational, hadamard)

    def test_purity_of_mixed_state(self):
        assert purity(maximally_mixed(1)) == pytest.approx(0.5)

    def test_fidelity(self):
        assert fidelity(ket("0"), ket("0")) == pytest.approx(1.0)
        assert fidelity(ket("0"), ket("1")) == pytest.approx(0.0, abs=1e-9)
        assert fidelity(ket("0"), plus_state()) == pytest.approx(0.5, abs=1e-9)

    # A square root turns the ~1e-16 round-off eigenvalues of a rank-deficient
    # state into ~1e-8, so the Uhlmann formula is good to about 1e-8.
    FIDELITY_ATOL = 1e-7

    @pytest.mark.parametrize("seed", range(4))
    def test_fidelity_of_pure_states_is_their_overlap(self, seed):
        psi, phi = (random_state_vector(8, seed=2 * seed + offset) for offset in (0, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = fidelity(psi, phi)
        assert value == pytest.approx(abs(np.vdot(psi, phi)) ** 2, abs=self.FIDELITY_ATOL)

    @pytest.mark.parametrize("rank", [1, 2, 8])
    def test_fidelity_of_pure_and_mixed_state_is_an_expectation(self, rank):
        psi = random_state_vector(8, seed=rank)
        sigma = random_density_operator(8, rank=rank, seed=10 + rank)
        expected = float(np.real(np.vdot(psi, sigma @ psi)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fidelity(psi, sigma) == pytest.approx(expected, abs=self.FIDELITY_ATOL)
            assert fidelity(sigma, psi) == pytest.approx(expected, abs=self.FIDELITY_ATOL)

    def test_fidelity_of_orthogonal_states_is_zero(self):
        low = mixed_state([(0.5, ket("00")), (0.5, ket("01"))])
        high = mixed_state([(0.25, ket("10")), (0.75, ket("11"))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fidelity(low, high) == pytest.approx(0.0, abs=1e-12)
            assert fidelity(ket("01"), high) == pytest.approx(0.0, abs=1e-12)
            assert fidelity(low, low) == pytest.approx(1.0, abs=1e-12)

    def test_trace_norm(self):
        assert trace_norm(I2) == pytest.approx(2.0)
        assert trace_norm(density(ket("0"))) == pytest.approx(1.0)


class TestNormalisation:
    def test_normalize_state(self):
        vector = np.array([3.0, 4.0])
        assert is_normalized(normalize_state(vector))

    def test_normalize_zero_vector_fails(self):
        with pytest.raises(LinalgError):
            normalize_state(np.zeros(2))

    def test_state_from_amplitudes(self):
        state = state_from_amplitudes([1.0, 1.0])
        assert np.allclose(state, plus_state())
