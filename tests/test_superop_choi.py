"""Unit tests for the Choi-representation helpers and the Kraus-space Choi spectrum."""

import numpy as np
import pytest

from repro.exceptions import LinalgError
from repro.linalg.constants import H, I2, P0, P1, X
from repro.linalg.operators import operators_close
from repro.linalg.random import random_kraus_operators
from repro.superop.choi import (
    choi_difference_spectrum,
    choi_from_apply,
    choi_matrix,
    kraus_from_choi,
)
from repro.superop.kraus import SuperOperator
from repro.telemetry.tracing import configure_tracing, get_tracer


def outer_product_choi(kraus):
    """The reference: one rank-one update ``vec(E) vec(E)†`` per Kraus operator."""
    side = kraus[0].size
    choi = np.zeros((side, side), dtype=complex)
    for operator in kraus:
        vectorised = np.asarray(operator, dtype=complex).reshape(-1, 1)
        choi = choi + vectorised @ vectorised.conj().T
    return choi


def assert_cp_and_tp(choi, dimension, atol=1e-10):
    """A Choi matrix of a channel is positive and traces out to ``I`` on the output."""
    assert np.linalg.eigvalsh(choi).min() >= -atol
    # Axes (row-out, row-in, col-out, col-in): tracing the output leaves (Σ E_i†E_i)ᵀ.
    reduced = np.trace(choi.reshape((dimension,) * 4), axis1=0, axis2=2)
    assert np.allclose(reduced, np.eye(dimension), rtol=0, atol=atol)


class TestChoiMatrix:
    def test_identity_channel_choi_is_maximally_entangled(self):
        choi = choi_matrix([I2])
        assert np.trace(choi).real == pytest.approx(2.0)
        assert_cp_and_tp(choi, 2)

    def test_choi_agrees_with_extensional_construction(self):
        kraus = [P0, X @ P1]
        channel = SuperOperator(kraus)
        by_kraus = choi_matrix(kraus)
        by_apply = choi_from_apply(channel.apply, 2)
        assert operators_close(by_kraus, by_apply)

    def test_choi_of_random_channel(self):
        kraus = random_kraus_operators(4, count=3, seed=0)
        choi = choi_matrix(kraus)
        assert_cp_and_tp(choi, 4)

    def test_choi_requires_kraus(self):
        with pytest.raises(LinalgError):
            choi_matrix([])


class TestChoiKernel:
    """The one-product ``Vᵀ V̄`` against the sum of outer products it replaced."""

    # (dimension, Kraus count): k = 1, k < d², k = d² and k > d².
    CASES = [(2, 1), (8, 1), (2, 3), (4, 5), (8, 7), (2, 4), (4, 16), (2, 9), (4, 23)]

    @pytest.mark.parametrize("dimension, count", CASES)
    def test_matches_sum_of_outer_products(self, dimension, count):
        kraus = random_kraus_operators(dimension, count=count, seed=dimension * 100 + count)
        assert np.allclose(choi_matrix(kraus), outer_product_choi(kraus), rtol=0, atol=1e-12)

    def test_non_trace_preserving_and_generator_input(self):
        kraus = random_kraus_operators(4, count=6, trace_preserving=False, seed=11)
        by_generator = choi_matrix(operator for operator in kraus)
        assert np.allclose(by_generator, outer_product_choi(kraus), rtol=0, atol=1e-12)

    def test_result_is_hermitian(self):
        choi = choi_matrix(random_kraus_operators(4, count=30, seed=3))
        assert np.allclose(choi, choi.conj().T, rtol=0, atol=1e-13)

    def test_span_tags_rank_dimension_and_bytes(self):
        kraus = random_kraus_operators(4, count=5, seed=2)
        configure_tracing(enabled=True)
        get_tracer().clear()
        try:
            choi_matrix(kraus)
        finally:
            configure_tracing(enabled=False)
        (root,) = get_tracer().finished_roots()
        get_tracer().clear()
        assert root.name == "choi"
        assert root.tags == {
            "region": "superop",
            "dimension": 4,
            "kraus_rank": 5,
            "bytes": 16 ** 2 * 16,
        }

    @pytest.mark.parametrize("rows, columns, count", [(8, 2, 3), (4, 1, 2), (16, 4, 40)])
    def test_rectangular_operators(self, rows, columns, count):
        rng = np.random.default_rng(rows * columns + count)
        kraus = rng.normal(size=(count, rows, columns)) + 1j * rng.normal(size=(count, rows, columns))
        choi = choi_matrix(kraus)
        assert choi.shape == (rows * columns, rows * columns)
        assert np.allclose(choi, outer_product_choi(kraus), rtol=0, atol=1e-12)
        recovered = kraus_from_choi(choi, shape=(rows, columns))
        assert recovered.shape == (min(count, rows * columns), rows, columns)
        assert np.allclose(choi_matrix(recovered), choi, rtol=0, atol=1e-10)
        with pytest.raises(LinalgError):
            kraus_from_choi(choi, shape=(rows, columns + 1))


class TestKrausRecovery:
    def test_roundtrip_through_choi(self):
        original = SuperOperator([P0, X @ P1])
        recovered = SuperOperator(kraus_from_choi(original.choi()), validate=False)
        assert original.equals(recovered)

    def test_zero_choi_gives_zero_channel(self):
        kraus = kraus_from_choi(np.zeros((4, 4)))
        assert len(kraus) == 1
        assert operators_close(kraus[0], np.zeros((2, 2)))

    def test_invalid_choi_side(self):
        with pytest.raises(LinalgError):
            kraus_from_choi(np.zeros((3, 3)))

    @pytest.mark.parametrize("dimension, count", [(2, 1), (2, 3), (4, 5), (4, 23)])
    def test_recovers_numerical_rank_many_operators(self, dimension, count):
        kraus = random_kraus_operators(dimension, count=count, seed=count)
        choi = choi_matrix(kraus)
        recovered = kraus_from_choi(choi)
        assert len(recovered) == min(count, dimension * dimension)
        assert np.allclose(choi_matrix(recovered), choi, rtol=0, atol=1e-10)
        # As many operators as the Choi rank: they are linearly independent.
        vectors = np.stack(recovered).reshape(len(recovered), -1)
        assert np.linalg.matrix_rank(vectors) == len(recovered)


def random_pair(rows, columns, first, second, seed):
    """Two random ``rows × columns`` maps with ``first`` and ``second`` operators.

    A restricted pair (``columns < rows``) is two square maps composed with
    ``J``, which prepares ``|0⟩`` on the leading qubits.
    """
    rng = np.random.default_rng(seed)
    num_qubits = rows.bit_length() - 1
    reset = list(range((rows // columns).bit_length() - 1))

    def random_map(count):
        square = rng.normal(size=(count, rows, rows)) + 1j * rng.normal(size=(count, rows, rows))
        channel = SuperOperator(square, validate=False)
        return channel.compose(SuperOperator.prepare_zero(reset, num_qubits)) if reset else channel

    return random_map(first), random_map(second)


def explicit_spectrum(first, second):
    """The full spectrum of ``C_second − C_first`` on explicit Choi matrices."""
    return np.linalg.eigvalsh(choi_matrix(second.kraus_operators) - choi_matrix(first.kraus_operators))


class TestChoiDifferenceSpectrum:
    """The Kraus-space spectrum of a Choi difference against explicit Choi matrices."""

    # (d_out, d_in, k_E, k_F): square and restricted, k ≥ d_out·d_in in some.
    CASES = [
        (2, 2, 1, 1), (2, 2, 5, 3), (4, 4, 3, 5), (8, 8, 2, 4), (8, 8, 5, 1),
        (2, 1, 4, 5), (4, 2, 2, 3), (4, 1, 5, 2), (8, 2, 1, 5), (8, 4, 3, 3),
    ]

    @pytest.mark.parametrize("rows, columns, first_count, second_count", CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_explicit_spectrum(self, rows, columns, first_count, second_count, seed):
        first, second = random_pair(rows, columns, first_count, second_count, seed)
        spectrum = choi_difference_spectrum(first.kraus_operators, second.kraus_operators)
        assert len(spectrum) == min(first_count + second_count, rows * columns)
        assert np.all(np.diff(spectrum) >= 0)
        explicit = explicit_spectrum(first, second)
        padded = np.sort(np.concatenate([spectrum, np.zeros(len(explicit) - len(spectrum))]))
        scale = first.choi_trace() + second.choi_trace()
        assert np.allclose(padded, explicit, rtol=0, atol=1e-10 * scale)

    @pytest.mark.parametrize("rows, columns, first_count, second_count", CASES)
    def test_equals_and_precedes_agree_with_the_explicit_rule(
        self, rows, columns, first_count, second_count
    ):
        first, second = random_pair(rows, columns, first_count, second_count, seed=7)
        explicit = explicit_spectrum(first, second)
        distance, lowest = np.abs(explicit).sum(), explicit.min()
        assert lowest < 0
        for factor in (0.99, 1.01):
            atol = factor * distance
            assert first.equals(second, atol=atol) == (distance <= atol) == (factor > 1)
            atol = -factor * lowest
            assert first.precedes(second, atol=atol) == (lowest >= -atol) == (factor > 1)

    @pytest.mark.parametrize("positions", [(0,), (2, 0), (1, 2, 0)])
    def test_a_spread_pair_is_as_far_apart_as_its_blocks(self, positions):
        # The spread's Choi matrix is 2^|q̄| copies of the restricted map's.
        prepare = SuperOperator.prepare_zero(positions, 3)
        first, second = (
            SuperOperator(random_kraus_operators(8, count=count, seed=seed)).compose(prepare)
            for count, seed in ((2, 21), (3, 22))
        )

        def distance(a, b):
            return np.abs(choi_difference_spectrum(a.kraus_operators, b.kraus_operators)).sum()

        restricted = distance(first, second)
        spread = distance(first.compose_trace(positions), second.compose_trace(positions))
        assert restricted > 0.1
        assert restricted == pytest.approx(spread / 2 ** len(positions), rel=1e-10)
