"""Unit tests for the Choi-representation helpers."""

import numpy as np
import pytest

from repro.exceptions import LinalgError
from repro.linalg.constants import H, I2, P0, P1, X
from repro.linalg.operators import operators_close
from repro.linalg.random import random_kraus_operators
from repro.superop.choi import (
    choi_from_apply,
    choi_matrix,
    choi_precedes,
    is_cp_choi,
    is_tni_choi,
    is_tp_choi,
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


class TestChoiMatrix:
    def test_identity_channel_choi_is_maximally_entangled(self):
        choi = choi_matrix([I2])
        assert np.trace(choi).real == pytest.approx(2.0)
        assert is_cp_choi(choi)
        assert is_tp_choi(choi)

    def test_choi_agrees_with_extensional_construction(self):
        kraus = [P0, X @ P1]
        channel = SuperOperator(kraus)
        by_kraus = choi_matrix(kraus)
        by_apply = choi_from_apply(channel.apply, 2)
        assert operators_close(by_kraus, by_apply)

    def test_choi_of_random_channel(self):
        kraus = random_kraus_operators(4, count=3, seed=0)
        choi = choi_matrix(kraus)
        assert is_cp_choi(choi)
        assert is_tp_choi(choi)

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


class TestTraceConditions:
    def test_trace_nonincreasing_but_not_preserving(self):
        choi = choi_matrix([P0])
        assert is_tni_choi(choi)
        assert not is_tp_choi(choi)

    def test_trace_increasing_detected(self):
        choi = choi_matrix([np.sqrt(2) * I2])
        assert not is_tni_choi(choi)

    def test_non_cp_map_detected(self):
        # The transpose map is positive but not completely positive.
        transpose_choi = choi_from_apply(lambda m: m.T, 2)
        assert not is_cp_choi(transpose_choi)


class TestChoiOrder:
    def test_precedes_matches_superoperator_order(self):
        smaller = SuperOperator([P0])
        larger = SuperOperator([P0, P1])
        assert choi_precedes(smaller.choi(), larger.choi())
        assert not choi_precedes(larger.choi(), smaller.choi())
