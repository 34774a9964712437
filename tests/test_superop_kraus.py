"""Unit tests for :class:`repro.superop.kraus.SuperOperator`."""

import pickle

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, SuperOperatorError
from repro.linalg.constants import CX, H, I2, P0, P1, X
from repro.linalg.operators import operators_close
from repro.linalg.random import random_kraus_operators
from repro.linalg.states import density, ket, maximally_mixed, plus_state
from repro.registers import QubitRegister
from repro.superop import choi as choi_module
from repro.superop import kraus as kraus_module
from repro.superop.kraus import SuperOperator
from repro.telemetry.tracing import configure_tracing, get_tracer


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

    def test_precedes_honors_stricter_caller_atol(self):
        eps = SuperOperator.scalar(5e-8, 2)
        zero = SuperOperator.zero(2)
        assert eps.precedes(zero, atol=5e-7)
        assert not eps.precedes(zero, atol=1e-9)

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


def redundant_kraus(dimension, rank, count, seed):
    """Return ``count`` Kraus operators of a random rank-``rank`` channel.

    The ``rank`` operators of a random channel are mixed by a ``count × rank``
    isometry ``Q``: ``F_j = Σ_i Q[j, i] E_i`` describes the same map
    (``Q†Q = I``) with ``count`` linearly dependent operators.
    """
    base = np.stack(random_kraus_operators(dimension, count=rank, seed=seed))
    rng = np.random.default_rng(seed)
    mixing, _ = np.linalg.qr(rng.normal(size=(count, rank)) + 1j * rng.normal(size=(count, rank)))
    return list(np.einsum("ji,iab->jab", mixing, base))


def choi_rank(channel, atol=1e-10):
    """Numerical rank of the Choi matrix, at the threshold ``simplified`` drops at."""
    return int(np.sum(np.linalg.eigvalsh(channel.choi()) > atol))


def traced_simplify(channel):
    """Run ``simplified`` under tracing; return the result and its span's tags."""
    configure_tracing(enabled=True)
    get_tracer().clear()
    try:
        result = channel.simplified()
    finally:
        configure_tracing(enabled=False)
    roots = get_tracer().finished_roots()
    get_tracer().clear()
    (simplify,) = [node for root in roots for node in root.walk() if node.name == "simplify"]
    return result, simplify.tags


class TestSimplifiedKernel:
    """Gram side for ``k < d²``, Choi side for ``k ≥ d²``; both minimal and exact."""

    # (dimension, rank, Kraus count, expected side)
    CASES = [
        (2, 2, 3, "gram"),
        (4, 6, 6, "gram"),
        (4, 5, 9, "gram"),
        (8, 3, 40, "gram"),
        (2, 2, 4, "choi"),
        (4, 5, 16, "choi"),
        (2, 3, 9, "choi"),
        (4, 7, 30, "choi"),
        (4, 16, 20, "choi"),
    ]

    @pytest.mark.parametrize("dimension, rank, count, side", CASES)
    def test_result_equals_input_with_choi_rank_operators(self, dimension, rank, count, side):
        channel = SuperOperator(redundant_kraus(dimension, rank, count, seed=count))
        result, tags = traced_simplify(channel)
        assert result.equals(channel)
        assert len(result.kraus_operators) == choi_rank(channel) == rank
        assert tags == {
            "region": "superop",
            "dimension": dimension,
            "rank_in": count,
            "rank_out": rank,
            "side": side,
        }

    @pytest.mark.parametrize("count", [1, 3, 4, 6])
    def test_zero_map_gives_zero(self, count):
        zero = SuperOperator([np.zeros((2, 2), dtype=complex)] * count, validate=False)
        result = zero.simplified()
        expected = SuperOperator.zero(2).kraus_operators
        assert len(result.kraus_operators) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(result.kraus_operators, expected))

    def test_initializer_7_simplifies_without_a_choi_matrix(self, monkeypatch):
        # Regression: Grover-7 asked for the 4 GiB Choi matrix of this channel
        # (128 Kraus operators, d² = 16384).  The Gram side never builds it.
        def refuse(*args, **kwargs):
            raise AssertionError("choi_matrix must not be called")

        monkeypatch.setattr(kraus_module, "choi_matrix", refuse)
        monkeypatch.setattr(choi_module, "choi_matrix", refuse)
        result = SuperOperator.initializer(7).simplified()
        assert len(result.kraus_operators) == 128
        assert np.allclose(result.kraus_gram(), np.eye(128), rtol=0, atol=1e-10)


def test_superoperator_pickle_roundtrip():
    kraus = SuperOperator([np.kron(H, np.eye(2))])
    assert pickle.loads(pickle.dumps(kraus)).equals(kraus)
