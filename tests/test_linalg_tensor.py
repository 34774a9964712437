"""Unit tests for tensor utilities: embedding, permutation, partial trace."""

import itertools
import string

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, LinalgError
from repro.linalg.constants import CX, H, I2, P0, P1, X
from repro.linalg.operators import num_qubits_of, operators_close
from repro.linalg.random import (
    random_density_operator,
    random_kraus_operators,
    random_predicate_matrix,
)
from repro.linalg.states import bell_state, density, ket, maximally_mixed
from repro.linalg.tensor import (
    embed_operator,
    expand_to_register,
    kron_all,
    partial_trace,
    permute_qubits,
    reduced_state,
)
from repro.registers import QubitRegister
from repro.superop.kraus import SuperOperator


class TestKron:
    def test_kron_all_matches_numpy(self):
        assert operators_close(kron_all([X, I2]), np.kron(X, I2))
        assert operators_close(kron_all([X, I2, H]), np.kron(np.kron(X, I2), H))

    def test_kron_all_requires_input(self):
        with pytest.raises(LinalgError):
            kron_all([])


class TestPermutation:
    def test_identity_permutation(self):
        assert operators_close(permute_qubits(CX, [0, 1]), CX)

    def test_swapping_cx_control_and_target(self):
        swapped = permute_qubits(CX, [1, 0])
        # The swapped CNOT flips the first qubit conditioned on the second.
        assert operators_close(swapped @ np.kron(ket("0"), ket("1")).reshape(4, 1), ket("11"))
        assert operators_close(swapped @ ket("10"), ket("10"))

    def test_permutation_of_tensor_product(self):
        operator = np.kron(X, P0)
        permuted = permute_qubits(operator, [1, 0])
        assert operators_close(permuted, np.kron(P0, X))

    def test_invalid_permutation(self):
        with pytest.raises(LinalgError):
            permute_qubits(CX, [0, 0])


class TestEmbedding:
    def test_embed_single_qubit_operator(self):
        embedded = embed_operator(X, [1], 2)
        assert operators_close(embedded, np.kron(I2, X))
        embedded = embed_operator(X, [0], 2)
        assert operators_close(embedded, np.kron(X, I2))

    def test_embed_two_qubit_gate_in_three_qubits(self):
        # CX acting on (qubit0 control, qubit2 target) inside a 3-qubit register.
        embedded = embed_operator(CX, [0, 2], 3)
        assert operators_close(embedded @ ket("100"), ket("101"))
        assert operators_close(embedded @ ket("110"), ket("111"))
        assert operators_close(embedded @ ket("010"), ket("010"))

    def test_embed_reversed_control_target(self):
        embedded = embed_operator(CX, [2, 0], 3)
        # Now qubit 2 is the control and qubit 0 the target.
        assert operators_close(embedded @ ket("001"), ket("101"))
        assert operators_close(embedded @ ket("100"), ket("100"))

    def test_embed_dimension_checks(self):
        with pytest.raises(DimensionMismatchError):
            embed_operator(CX, [0], 2)
        with pytest.raises(LinalgError):
            embed_operator(X, [3], 2)
        with pytest.raises(LinalgError):
            embed_operator(CX, [0, 0], 2)

    def test_expand_to_register_by_name(self):
        expanded = expand_to_register(X, ["b"], ["a", "b"])
        assert operators_close(expanded, np.kron(I2, X))
        with pytest.raises(LinalgError):
            expand_to_register(X, ["c"], ["a", "b"])


class TestPartialTrace:
    def test_product_state(self):
        rho = np.kron(density(ket("0")), density(ket("1")))
        assert operators_close(partial_trace(rho, [0]), density(ket("0")))
        assert operators_close(partial_trace(rho, [1]), density(ket("1")))

    def test_bell_state_reduces_to_maximally_mixed(self):
        rho = density(bell_state(0))
        assert operators_close(partial_trace(rho, [0]), maximally_mixed(1))
        assert operators_close(partial_trace(rho, [1]), maximally_mixed(1))

    def test_keep_order_is_respected(self):
        rho = np.kron(density(ket("0")), density(ket("1")))
        swapped = partial_trace(np.kron(rho, density(ket("0"))), [1, 0])
        assert operators_close(swapped, np.kron(density(ket("1")), density(ket("0"))))

    def test_trace_preservation(self):
        rho = density(bell_state(2))
        reduced = partial_trace(rho, [0])
        assert np.trace(reduced) == pytest.approx(1.0)

    def test_invalid_positions(self):
        rho = maximally_mixed(2)
        with pytest.raises(LinalgError):
            partial_trace(rho, [5])
        with pytest.raises(LinalgError):
            partial_trace(rho, [0, 0])

    def test_reduced_state_by_name(self):
        rho = np.kron(density(ket("0")), density(plus := (ket("0") + ket("1")) / np.sqrt(2)))
        reduced = reduced_state(rho, ["b"], ["a", "b"])
        assert operators_close(reduced, density(plus))


# ---------------------------------------------------------------------------
# The cylinder extension against an independent factor-by-factor contraction
# ---------------------------------------------------------------------------

#: Every ordered support inside a 4-qubit register: each size and each order of
#: the targeted factors (the tensor-leg permutations most likely to go wrong).
SUPPORTS = [
    support for size in range(1, 5) for support in itertools.permutations(range(4), size)
]
SUPPORT_IDS = ["-".join(map(str, support)) for support in SUPPORTS]
REGISTER = QubitRegister(["a", "b", "c", "d"])


def _contract(small, target, positions):
    """Return ``embed(small, positions) @ target`` without embedding ``small``.

    The row index of ``target`` is read as binary tensor factors and ``small``
    is contracted against the factors in ``positions`` alone: a second
    implementation of the cylinder extension that builds no Kronecker product
    and permutes no qubits.
    """
    n, k = num_qubits_of(target), len(positions)
    rows, outs = string.ascii_lowercase[:n], string.ascii_lowercase[n : n + k]
    out_of = dict(zip(positions, outs))
    inputs = "".join(rows[p] for p in positions)
    result_rows = "".join(out_of.get(i, rows[i]) for i in range(n))
    subscripts = f"{outs}{inputs},{rows}z->{result_rows}z"
    result = np.einsum(subscripts, small.reshape((2,) * (2 * k)), target.reshape((2,) * n + (-1,)))
    return result.reshape(target.shape)


def _conjugate(small, hermitian, positions):
    """Return ``K M K†`` for ``K = embed(small, positions)`` and a hermitian ``M``."""
    return _contract(small, _contract(small, hermitian, positions).conj().T, positions)


class TestCylinderExtension:
    """Dense embedding agrees with the factor contraction on every support."""

    @pytest.mark.parametrize("positions", SUPPORTS, ids=SUPPORT_IDS)
    def test_embedding_matches_factor_contraction(self, positions):
        rng = np.random.default_rng(SUPPORTS.index(positions))
        side = 2 ** len(positions)
        small, other = rng.normal(size=(2, side, side)) + 1j * rng.normal(size=(2, side, side))
        target = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        embedded = embed_operator(small, positions, 4)
        assert np.allclose(embedded, _contract(small, np.eye(16, dtype=complex), positions))
        assert np.allclose(embedded @ target, _contract(small, target, positions))
        # The extension commutes with products and adjoints.
        product = embed_operator(small @ other, positions, 4)
        assert np.allclose(product, embedded @ embed_operator(other, positions, 4))
        assert np.allclose(embed_operator(small.conj().T, positions, 4), embedded.conj().T)

    @pytest.mark.parametrize("positions", SUPPORTS, ids=SUPPORT_IDS)
    def test_embedded_channel_leaves_the_other_qubits_alone(self, positions):
        seed = SUPPORTS.index(positions)
        qubits = [REGISTER.names[p] for p in positions]
        kraus = random_kraus_operators(2 ** len(positions), count=2, seed=seed)
        channel = SuperOperator(kraus).embed(qubits, REGISTER)
        rho = random_density_operator(16, seed=seed)
        observable = random_predicate_matrix(16, seed=seed)
        image = channel.apply(rho)
        assert np.allclose(image, sum(_conjugate(k, rho, positions) for k in kraus))
        assert np.allclose(
            channel.apply_adjoint(observable),
            sum(_conjugate(k.conj().T, observable, positions) for k in kraus),
        )
        assert channel.is_trace_preserving()
        rest = [name for name in REGISTER.names if name not in qubits]
        if rest:
            # No signalling: the qubits the statement does not name keep their state.
            assert np.allclose(REGISTER.reduce(image, rest), REGISTER.reduce(rho, rest))
