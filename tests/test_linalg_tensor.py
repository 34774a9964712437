"""Unit tests for tensor utilities: the gate kernel, embedding, permutation, partial trace."""

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
    apply_to_qubits,
    embed_operator,
    expand_to_register,
    kron_all,
    partial_trace,
    permute_qubits,
    reduced_state,
)
from repro.logic.prover import verify_formula
from repro.programs import errcorr_formula, grover_formula
from repro.registers import QubitRegister
from repro.semantics.denotational import denotation
from repro.semantics.wp import weakest_liberal_precondition
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


# ---------------------------------------------------------------------------
# The gate kernel against the Kronecker product and an axis permutation
# ---------------------------------------------------------------------------


def _kron_extension(operator, positions, total_qubits):
    """Return ``operator ⊗ I`` built with ``np.kron``, its factors moved to ``positions``."""
    extended = np.kron(operator, np.eye(2 ** (total_qubits - len(positions))))
    # Factor i of ``extended`` belongs to register position order[i].
    order = list(positions) + [q for q in range(total_qubits) if q not in positions]
    axes = [order.index(position) for position in range(total_qubits)]
    tensor = extended.reshape((2,) * (2 * total_qubits))
    tensor = tensor.transpose(axes + [total_qubits + axis for axis in axes])
    return tensor.reshape(2 ** total_qubits, 2 ** total_qubits)


def _kernel_cases():
    """``(total_qubits, positions)`` for registers of 1–7 qubits and gates of arity 1–3.

    Each arity gets adjacent ascending supports at the front, middle and end;
    from arity 2 on also an evenly spread (non-adjacent unless the gate
    covers the register) support, that support reversed, and the last
    qubits reversed.  Gates on 1–3 qubit registers cover the whole register.
    """
    cases = []
    for n in range(1, 8):
        for k in range(1, min(3, n) + 1):
            supports = {tuple(range(p, p + k)) for p in (0, (n - k) // 2, n - k)}
            if k > 1:
                spread = tuple(round(i * (n - 1) / (k - 1)) for i in range(k))
                supports.update({spread, spread[::-1], tuple(range(n - k, n))[::-1]})
            cases.extend((n, support) for support in sorted(supports))
    return cases


KERNEL_CASES = _kernel_cases()
KERNEL_IDS = [f"n{n}-" + "-".join(map(str, support)) for n, support in KERNEL_CASES]


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestGateKernel:
    """``apply_to_qubits`` equals the product with the ``np.kron`` extension."""

    @pytest.mark.parametrize("n, positions", KERNEL_CASES, ids=KERNEL_IDS)
    def test_matches_kron_extension_on_rectangular_inputs(self, n, positions):
        rng = np.random.default_rng(KERNEL_CASES.index((n, positions)))
        operator = _complex(rng, 2 ** len(positions), 2 ** len(positions))
        extension = _kron_extension(operator, positions, n)
        for columns in (1, 3, 2 ** n):
            matrix = _complex(rng, 2 ** n, columns)
            result = apply_to_qubits(operator, positions, matrix, n)
            assert result.shape == (2 ** n, columns)
            assert np.allclose(result, extension @ matrix, rtol=0, atol=1e-12)
        assert np.allclose(embed_operator(operator, positions, n), extension, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n, positions", KERNEL_CASES, ids=KERNEL_IDS)
    def test_register_conjugates_non_hermitian_matrices(self, n, positions):
        rng = np.random.default_rng(100 + KERNEL_CASES.index((n, positions)))
        register = QubitRegister([f"r{index}" for index in range(n)])
        qubits = [register.names[position] for position in positions]
        operator = _complex(rng, 2 ** len(positions), 2 ** len(positions))
        matrix = _complex(rng, 2 ** n, 2 ** n)
        assert not np.allclose(matrix, matrix.conj().T)
        extension = _kron_extension(operator, positions, n)
        expected = extension.conj().T @ matrix @ extension
        assert np.allclose(register.conjugate(matrix, operator, qubits), expected, rtol=0, atol=1e-11)
        assert np.allclose(register.apply(operator, qubits, matrix), extension @ matrix, rtol=0, atol=1e-12)

    def test_rejects_mismatched_inputs(self):
        with pytest.raises(DimensionMismatchError):
            apply_to_qubits(CX, [0], np.eye(4), 2)
        with pytest.raises(DimensionMismatchError):
            apply_to_qubits(X, [0], np.eye(8), 2)
        with pytest.raises(LinalgError):
            apply_to_qubits(CX, [1, 1], np.eye(4), 2)
        with pytest.raises(LinalgError):
            apply_to_qubits(X, [2], np.eye(4), 2)


class TestGatePathsUseTheKernel:
    """No gate reaches the register through ``np.kron``."""

    def test_verify_wlp_and_denotation_never_call_kron(self, monkeypatch):
        inputs = [grover_formula(4, layout="gates"), errcorr_formula(num_data_qubits=3)]

        def no_kron(*args, **kwargs):
            raise AssertionError("np.kron called on a gate path")

        monkeypatch.setattr(np, "kron", no_kron)
        for formula, register in inputs:
            assert verify_formula(formula, register).verified
            weakest_liberal_precondition(formula.program, formula.postcondition, register)
            assert denotation(formula.program, register)
