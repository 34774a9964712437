"""Unit tests for :class:`repro.superop.kraus.SuperOperator`."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exceptions import DimensionMismatchError, RegisterError, SuperOperatorError
from repro.linalg.constants import CX, H, I2, P0, P1, X
from repro.linalg.operators import operators_close
from repro.linalg.random import random_density_operator, random_kraus_operators
from repro.linalg.states import density, ket, maximally_mixed, plus_state
from repro.linalg.tensor import embed_operator, partial_trace
from repro.registers import QubitRegister
from repro.superop import choi as choi_module
from repro.superop import kraus as kraus_module
from repro.superop.compare import deduplicate, set_equal, set_subset
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
        with pytest.raises(SuperOperatorError):
            SuperOperator(np.zeros((0, 2, 2), dtype=complex))

    def test_mismatched_kraus_shapes_rejected(self):
        with pytest.raises(DimensionMismatchError):
            SuperOperator([I2, CX])
        with pytest.raises(DimensionMismatchError):
            SuperOperator([np.zeros((2, 3))])
        with pytest.raises(DimensionMismatchError):
            SuperOperator(np.zeros((2, 2, 3)))

    def test_list_and_array_give_the_same_stack(self):
        kraus = random_kraus_operators(4, count=3, seed=5)
        from_list = SuperOperator(kraus)
        from_array = SuperOperator(np.stack(kraus))
        from_iterator = SuperOperator(operator for operator in kraus)
        for channel in (from_list, from_array, from_iterator):
            assert channel.kraus_operators.shape == (3, 4, 4)
            assert channel.kraus_operators.dtype == complex
            assert np.array_equal(channel.kraus_operators, np.stack(kraus))

    def test_kraus_operators_are_read_only(self):
        channel = SuperOperator.initializer(2)
        with pytest.raises(ValueError):
            channel.kraus_operators[0, 0, 0] = 5.0
        with pytest.raises(ValueError):
            channel.kraus_operators[1][:] = 0.0
        restored = pickle.loads(pickle.dumps(channel))
        with pytest.raises(ValueError):
            restored.kraus_operators[0, 0, 0] = 5.0

    def test_constructor_copies_the_callers_array(self):
        kraus = np.stack([P0, P1]).astype(complex)
        channel = SuperOperator(kraus)
        kraus[0] = X
        assert kraus.flags.writeable
        assert np.array_equal(channel.kraus_operators, np.stack([P0, P1]))

    def test_kraus_operators_behave_as_a_sequence(self):
        channel = SuperOperator([P0, X @ P1])
        operators = channel.kraus_operators
        assert len(operators) == 2
        assert np.array_equal(operators[1], X @ P1)
        assert [np.array_equal(a, b) for a, b in zip(operators, [P0, X @ P1])] == [True, True]
        assert np.array_equal(np.stack(operators), np.stack([P0, X @ P1]))

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

    def test_trace_preserving_has_no_relative_slack(self):
        # The gram is (1 + 5e-6)·I: 5e-6 from I on the diagonal, above atol.
        channel = SuperOperator([np.sqrt(1 + 5e-6) * I2], validate=False)
        assert not channel.is_trace_preserving()
        assert channel.is_trace_preserving(atol=1e-5)


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

    def test_embed_onto_the_whole_register_in_order_returns_the_map(self):
        register = QubitRegister(["a", "b"])
        channel = SuperOperator(random_kraus_operators(4, count=3, seed=7))
        assert channel.embed(["a", "b"], register) is channel

    def test_embed_onto_the_whole_register_reversed_permutes_each_operator(self):
        register = QubitRegister(["a", "b"])
        channel = SuperOperator(random_kraus_operators(4, count=3, seed=7))
        embedded = channel.embed(["b", "a"], register)
        expected = np.stack([register.embed(operator, ["b", "a"]) for operator in channel.kraus_operators])
        assert embedded is not channel
        assert np.array_equal(embedded.kraus_operators, expected)
        assert not np.allclose(embedded.kraus_operators, channel.kraus_operators)

    @pytest.mark.parametrize("qubits", [["a", "c"], ["c"], ["a", "a"]])
    def test_embed_rejects_unknown_or_repeated_qubits(self, qubits):
        register = QubitRegister(["a", "b"])
        channel = SuperOperator.identity(2 ** len(qubits))
        with pytest.raises(RegisterError):
            channel.embed(qubits, register)

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


def random_map(dimension, count, seed):
    return SuperOperator(
        random_kraus_operators(dimension, count=count, trace_preserving=False, seed=seed),
        validate=False,
    )


class TestBatchedAlgebraAgainstPerOperatorReference:
    """Each batched kernel equals the loop over single operators it replaced."""

    TOLERANCE = 1e-13

    @pytest.fixture(params=[2, 4, 8])
    def pair(self, request):
        dimension = request.param
        first = random_map(dimension, 3, seed=dimension)
        return first, random_map(dimension, 2, seed=dimension + 1)

    def close(self, left, right):
        return np.allclose(left, right, rtol=0, atol=self.TOLERANCE)

    def test_compose(self, pair):
        a, b = pair
        reference = [x @ y for x in a.kraus_operators for y in b.kraus_operators]
        assert self.close(a.compose(b).kraus_operators, np.stack(reference))

    def test_add(self, pair):
        a, b = pair
        reference = list(a.kraus_operators) + list(b.kraus_operators)
        assert self.close((a + b).kraus_operators, np.stack(reference))

    def test_scaling(self, pair):
        a, _ = pair
        reference = [np.sqrt(0.3) * operator for operator in a.kraus_operators]
        assert self.close((0.3 * a).kraus_operators, np.stack(reference))

    def test_adjoint(self, pair):
        a, _ = pair
        reference = [operator.conj().T for operator in a.kraus_operators]
        assert self.close(a.adjoint().kraus_operators, np.stack(reference))

    def test_tensor(self, pair):
        a, b = pair
        reference = [np.kron(x, y) for x in a.kraus_operators for y in b.kraus_operators]
        assert self.close(a.tensor(b).kraus_operators, np.stack(reference))

    def test_apply_and_apply_adjoint(self, pair):
        a, _ = pair
        rng = np.random.default_rng(a.dimension)
        matrix = rng.normal(size=(a.dimension,) * 2) + 1j * rng.normal(size=(a.dimension,) * 2)
        forward = sum(operator @ matrix @ operator.conj().T for operator in a.kraus_operators)
        backward = sum(operator.conj().T @ matrix @ operator for operator in a.kraus_operators)
        assert self.close(a.apply(matrix), forward)
        assert self.close(a.apply_adjoint(matrix), backward)

    def test_kraus_gram_and_choi_trace(self, pair):
        a, _ = pair
        gram = sum(operator.conj().T @ operator for operator in a.kraus_operators)
        assert self.close(a.kraus_gram(), gram)
        assert a.choi_trace() == pytest.approx(np.trace(gram).real, rel=1e-14)

    def test_initializer(self):
        for num_qubits in (1, 2, 3):
            dimension = 2 ** num_qubits
            reference = []
            for index in range(dimension):
                operator = np.zeros((dimension, dimension), dtype=complex)
                operator[0, index] = 1.0
                reference.append(operator)
            channel = SuperOperator.initializer(num_qubits)
            assert np.array_equal(channel.kraus_operators, np.stack(reference))


@st.composite
def reset_cases(draw):
    """A register size, the ordered positions of a reset, an operator count and a seed."""
    num_qubits = draw(st.integers(min_value=1, max_value=5))
    order = draw(st.permutations(range(num_qubits)))
    size = draw(st.integers(min_value=1, max_value=num_qubits))
    count = draw(st.integers(min_value=1, max_value=3))
    return num_qubits, tuple(order[:size]), count, draw(st.integers(0, 2**32 - 1))


class TestComposeReset:
    """``Set0 ∘ E`` and ``E ∘ Set0`` are copies, equal to the materialised ``Set0``'s products bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(case=reset_cases())
    @example(case=(5, (0, 1, 2, 3, 4), 2, 0))  # the whole register, in order
    @example(case=(5, (4, 3, 2, 1, 0), 2, 1))  # the whole register, reversed
    @example(case=(4, (3, 1), 3, 2))  # non-adjacent, reversed
    @example(case=(3, (0, 2), 1, 3))  # non-adjacent, in order
    def test_equals_composing_with_the_embedded_initializer(self, case):
        num_qubits, positions, count, seed = case
        register = QubitRegister([f"q{index}" for index in range(num_qubits)])
        qubits = [register.names[position] for position in positions]
        dimension = register.dimension
        rng = np.random.default_rng(seed)
        shape = (count, dimension, dimension)
        channel = SuperOperator(rng.normal(size=shape) + 1j * rng.normal(size=shape), validate=False)
        set0 = SuperOperator.initializer(len(qubits)).embed(qubits, register)
        # E ∘ Set0 = (E ∘ J) ∘ Tr: restrict (a product with J's 0/1 columns), then spread.
        restricted = channel.compose(SuperOperator.prepare_zero(positions, num_qubits))
        for result, expected in (
            (channel.compose_reset(positions), set0.compose(channel)),
            (restricted.compose_trace(positions), channel.compose(set0)),
        ):
            assert result.kraus_operators.shape == expected.kraus_operators.shape
            assert np.array_equal(result.kraus_operators, expected.kraus_operators)

    def test_rejects_bad_positions(self):
        channel = SuperOperator.identity(4)
        restricted = channel.compose(SuperOperator.prepare_zero([0], 2))
        for positions in ([0, 0], [2], [-1]):
            with pytest.raises(SuperOperatorError):
                channel.compose_reset(positions)
            with pytest.raises(SuperOperatorError):
                SuperOperator.prepare_zero(positions, 2)
            with pytest.raises(SuperOperatorError):
                restricted.compose_trace(positions)  # positions on its 1 + |positions| qubits


class TestRestrictedMaps:
    """A restricted map ``R = E ∘ J`` against its spread ``S = R ∘ Tr = E ∘ Set0``.

    Three qubits, ``q̄`` at positions ``(2, 0)``: ``R`` is ``8 × 2`` and
    ``S`` is ``8 × 8``.  Every method either agrees with the spread or
    raises :class:`DimensionMismatchError`.
    """

    POSITIONS = (2, 0)
    REST = [1]  # the qubits R's two input columns are indexed by
    SIZE = 4  # 2^|q̄|

    @pytest.fixture
    def maps(self):
        prepare = SuperOperator.prepare_zero(self.POSITIONS, 3)
        channels = [SuperOperator(random_kraus_operators(8, count=3, seed=seed)) for seed in (11, 12)]
        restricted = [channel.compose(prepare) for channel in channels]
        return restricted, [channel.compose_trace(self.POSITIONS) for channel in restricted]

    def test_shape_and_dimension(self, maps):
        (restricted, _), (spread, _) = maps
        assert restricted.shape == (8, 2) and spread.shape == (8, 8)
        assert spread.dimension == 8 and spread.num_qubits == 3
        with pytest.raises(DimensionMismatchError):
            restricted.dimension
        with pytest.raises(DimensionMismatchError):
            restricted.num_qubits
        assert repr(restricted) == "SuperOperator(shape=(8, 2), kraus=3)"

    def test_prepare_zero_maps_the_rest_into_zero_on_the_reset_qubits(self):
        prepare = SuperOperator.prepare_zero(self.POSITIONS, 3)
        assert prepare.shape == (8, 2)
        # Column r is |0⟩ on qubits 2 and 0 and r on qubit 1: basis states 0 and 2.
        assert np.array_equal(prepare.kraus_operators[0], np.eye(8)[:, [0, 2]])
        set0 = SuperOperator.initializer(2).embed(["q2", "q0"], QubitRegister(["q0", "q1", "q2"]))
        assert np.array_equal(
            prepare.compose_trace(self.POSITIONS).kraus_operators, set0.kraus_operators
        )

    def test_application_and_gram(self, maps):
        (restricted, _), (spread, _) = maps
        rho = random_density_operator(8, seed=3)
        reduced = partial_trace(rho, self.REST, 3)
        assert np.allclose(spread.apply(rho), restricted.apply(reduced), atol=1e-12)
        observable = random_density_operator(8, seed=4)
        lifted = embed_operator(restricted.apply_adjoint(observable), self.REST, 3)
        assert np.allclose(spread.apply_adjoint(observable), lifted, atol=1e-12)
        assert np.allclose(restricted.adjoint().apply(observable), restricted.apply_adjoint(observable))
        assert np.allclose(spread.kraus_gram(), embed_operator(restricted.kraus_gram(), self.REST, 3))
        assert restricted.is_trace_preserving() and spread.is_trace_preserving()
        assert restricted.is_trace_nonincreasing() and spread.is_trace_nonincreasing()
        assert restricted.probability_bound() == pytest.approx(spread.probability_bound(), abs=1e-12)
        with pytest.raises(DimensionMismatchError):
            restricted.apply(rho)
        with pytest.raises(DimensionMismatchError):
            restricted.apply_adjoint(reduced)

    def test_choi_entries_are_the_restricted_ones_or_zero(self, maps):
        (restricted, _), (spread, _) = maps
        assert spread.choi_trace() == pytest.approx(self.SIZE * restricted.choi_trace(), rel=1e-14)
        lines = np.array([[0, 2], [4, 6], [1, 3], [5, 7]])  # lines[i]: index i on (q2, q0)
        expected = np.zeros((8, 8, 8, 8), dtype=complex)
        block = restricted.choi().reshape(8, 2, 8, 2)
        for line in lines:
            expected[np.ix_(range(8), line, range(8), line)] = block
        assert np.allclose(spread.choi(), expected.reshape(64, 64), rtol=0, atol=1e-14)

    def test_algebra_commutes_with_the_spread(self, maps):
        (restricted, other), (spread, other_spread) = maps
        later = SuperOperator(random_kraus_operators(8, count=2, seed=13))
        assert later.compose(restricted).compose_trace(self.POSITIONS).equals(later.compose(spread))
        reset = restricted.compose_reset([1]).compose_trace(self.POSITIONS)
        assert np.array_equal(reset.kraus_operators, spread.compose_reset([1]).kraus_operators)
        total = (restricted + other).compose_trace(self.POSITIONS)
        assert np.array_equal(total.kraus_operators, (spread + other_spread).kraus_operators)
        half = (0.5 * restricted).compose_trace(self.POSITIONS)
        assert np.array_equal(half.kraus_operators, (0.5 * spread).kraus_operators)
        flip = embed_operator(X, [1], 3)
        (multiplied,) = SuperOperator.left_multiply([restricted], lambda matrix: flip @ matrix)
        assert multiplied.compose_trace(self.POSITIONS).equals(SuperOperator([flip]).compose(spread))
        coin = SuperOperator([P0, P1])
        assert restricted.tensor(coin).compose_trace(self.POSITIONS).equals(spread.tensor(coin))
        inner = SuperOperator([H])
        assert restricted.compose(inner).compose_trace(self.POSITIONS).equals(
            spread.compose(inner.embed(["q1"], QubitRegister(["q0", "q1", "q2"])))
        )
        with pytest.raises(DimensionMismatchError):
            restricted.compose(SuperOperator.identity(8))
        with pytest.raises(DimensionMismatchError):
            restricted + spread
        with pytest.raises(DimensionMismatchError):
            restricted.embed(["q0", "q1", "q2"], QubitRegister(["q0", "q1", "q2"]))

    def test_order_simplification_and_dedup_match_the_spread(self, maps):
        (restricted, other), (spread, other_spread) = maps
        assert restricted.equals(restricted) and not restricted.equals(spread)
        assert restricted.equals(other) == spread.equals(other_spread) is False
        smaller = 0.25 * restricted
        assert smaller.precedes(restricted) and (0.25 * spread).precedes(spread)
        assert not restricted.precedes(smaller) and not spread.precedes(0.25 * spread)
        assert not restricted.precedes(spread)
        redundant = restricted + restricted
        simplified = redundant.simplified()
        assert len(simplified.kraus_operators) == 3 and simplified.shape == (8, 2)
        assert simplified.compose_trace(self.POSITIONS).equals(redundant.compose_trace(self.POSITIONS))
        zero = (0.0 * restricted).simplified()
        assert zero.shape == (8, 2) and not zero.kraus_operators.any()
        assert len(deduplicate([restricted, other, 1.0 * restricted])) == 2
        assert set_equal([restricted, other], [other, restricted])
        assert not set_subset([restricted], [other, spread])

    def test_constructor_and_unpickling_take_square_operators_only(self, maps):
        (restricted, _), _ = maps
        with pytest.raises(DimensionMismatchError):
            SuperOperator(restricted.kraus_operators)
        with pytest.raises(DimensionMismatchError):
            pickle.loads(pickle.dumps(restricted))


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
    """Numerical rank of the Choi matrix: its eigenvalues above ``atol``."""
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
    """Gram side for ``k < d²``, Choi side for ``k ≥ d²``; both minimal, neither eigensolves."""

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
        dropped = tags.pop("dropped")
        assert tags == {
            "region": "superop",
            "dimension": dimension,
            "rank_in": count,
            "rank_out": rank,
            "side": side,
        }
        assert dropped == channel.choi_trace() - result.choi_trace()
        # The bound of the factorisation, with 1e-12 of rounding slack either way.
        assert -1e-12 <= dropped <= (min(count, dimension ** 2) - rank) * 1e-10 + 1e-12

    # (dimension, Kraus count, Choi eigenvalues): some above atol = 1e-10, some below.
    STRADDLING = [
        (4, 6, [0.4, 0.2, 1e-9, 2e-10, 5e-11, 2e-11]),
        (2, 5, [0.5, 3e-10, 8e-11, 1e-11]),
        (4, 20, [0.3, 0.1, 0.05, 4e-10, 1.5e-10, 9e-11, 6e-11, 1e-11, 1e-12]),
    ]

    @pytest.mark.parametrize("dimension, count, eigenvalues", STRADDLING)
    def test_dropped_trace_is_bounded_when_eigenvalues_straddle_atol(
        self, dimension, count, eigenvalues
    ):
        # Orthogonal vectors with norms √λ give a Choi spectrum of exactly ``eigenvalues``.
        rng = np.random.default_rng(count)
        side = dimension * dimension
        basis, _ = np.linalg.qr(rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
        support = len(eigenvalues)
        vectors = basis[:, :support].T * np.sqrt(eigenvalues)[:, np.newaxis]
        mixing, _ = np.linalg.qr(
            rng.normal(size=(count, support)) + 1j * rng.normal(size=(count, support))
        )
        kraus = (mixing @ vectors).reshape(count, dimension, dimension)
        channel = SuperOperator(kraus, validate=False)
        result, tags = traced_simplify(channel)
        rank = tags["rank_out"]
        bound = (min(count, side) - rank) * 1e-10
        assert tags["dropped"] == channel.choi_trace() - result.choi_trace()
        assert -1e-12 <= tags["dropped"] <= bound + 1e-12
        assert np.abs(result.choi() - channel.choi()).max() <= bound + 1e-12
        assert sum(value > bound for value in eigenvalues) <= rank <= support

    @pytest.mark.parametrize("dimension, rank, count, side", CASES)
    def test_simplified_never_eigensolves(self, monkeypatch, dimension, rank, count, side):
        channel = SuperOperator(redundant_kraus(dimension, rank, count, seed=count))

        def refuse(*args, **kwargs):
            raise AssertionError("simplified must not eigensolve")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert len(channel.simplified().kraus_operators) == rank

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
