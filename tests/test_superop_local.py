"""Unit tests for the structure-aware lifting layer.

Covers the tensor-level contraction helpers of :mod:`repro.linalg.tensor`
(local products agree with materialised dense embeddings) and the
:class:`repro.superop.local.LocalSuperOperator` algebra, including its
interoperation with the Kraus representation.
"""

import pickle

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, LinalgError, SuperOperatorError
from repro.linalg.constants import CX, H, X
from repro.linalg.tensor import (
    apply_local_conjugation,
    apply_local_left,
    apply_local_right,
    embed_operator,
    operator_support,
    restrict_operator,
)
from repro.registers import QubitRegister
from repro.superop.kraus import SuperOperator
from repro.superop.local import LocalSuperOperator


def random_matrix(rng, side, batch=None):
    shape = (side, side) if batch is None else (batch, side, side)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# ---------------------------------------------------------------------------
# Tensor-level contraction helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("positions", [(2,), (0, 3), (3, 1), ()])
def test_local_products_match_dense_embeddings(positions):
    rng = np.random.default_rng(7)
    n, k = 4, len(positions)
    small = random_matrix(rng, 2 ** k)
    target = random_matrix(rng, 2 ** n, batch=3)
    if k:
        embedded = embed_operator(small, positions, n)
    else:
        embedded = small[0, 0] * np.eye(2 ** n)
    assert np.allclose(apply_local_left(small, target, positions), embedded @ target)
    assert np.allclose(apply_local_right(target, small, positions), target @ embedded)
    assert np.allclose(
        apply_local_conjugation(small, target[0], positions),
        embedded @ target[0] @ embedded.conj().T,
    )


def test_local_product_rejects_bad_operands():
    rng = np.random.default_rng(0)
    target = random_matrix(rng, 8)
    with pytest.raises(DimensionMismatchError):
        apply_local_left(np.eye(2), target, (0, 1))  # wrong position count
    with pytest.raises(LinalgError):
        apply_local_left(np.eye(2), target, (5,))  # out of range
    with pytest.raises(LinalgError):
        apply_local_left(np.eye(4), target, (1, 1))  # duplicate positions


def test_operator_support_detects_identity_factors():
    wide = embed_operator(CX, (3, 1), 5)
    assert operator_support(wide) == (1, 3)
    assert np.allclose(restrict_operator(wide, (3, 1)), CX)
    # Round trip in the other factor order.
    small = restrict_operator(wide, (1, 3))
    assert np.allclose(embed_operator(small, (1, 3), 5), wide)
    assert operator_support(np.eye(8)) == ()


# ---------------------------------------------------------------------------
# LocalSuperOperator
# ---------------------------------------------------------------------------


def test_local_superoperator_matches_dense_channel():
    n = 3
    local = LocalSuperOperator.from_unitary(CX, (0, 2), n)
    dense = local.to_superoperator()
    rho = np.zeros((8, 8), dtype=complex)
    rho[3, 3] = 1.0
    assert np.allclose(local.apply(rho), dense.apply(rho))
    observable = np.diag(np.linspace(0.0, 1.0, 8)).astype(complex)
    assert np.allclose(local.apply_adjoint(observable), dense.apply_adjoint(observable))
    assert local.equals(dense) and dense.equals(local)
    assert local == dense and hash(local) == hash(dense)


def test_local_compose_stays_local_on_union_support():
    n = 4
    h1 = LocalSuperOperator.from_unitary(H, (1,), n)
    cx = LocalSuperOperator.from_unitary(CX, (0, 2), n)
    composed = h1.compose(cx)
    assert isinstance(composed, LocalSuperOperator)
    assert composed.support == (0, 1, 2)
    assert composed.equals(h1.to_superoperator().compose(cx.to_superoperator()))


def test_local_compose_with_dense_kraus():
    n = 3
    local = LocalSuperOperator.from_unitary(H, (2,), n)
    dense = LocalSuperOperator.from_unitary(CX, (0, 1), n).to_superoperator()
    reference = local.to_superoperator().compose(dense)

    forward = local.compose(dense)
    assert isinstance(forward, SuperOperator) and forward.equals(reference)
    backward = dense.compose(local)
    assert isinstance(backward, SuperOperator)
    assert backward.equals(dense.compose(local.to_superoperator()))


def test_local_sum_and_scaling():
    n = 3
    a = LocalSuperOperator.from_unitary(H, (0,), n)
    b = LocalSuperOperator.from_unitary(X, (2,), n)
    mixed = 0.25 * a + 0.75 * b
    assert isinstance(mixed, LocalSuperOperator)
    dense = 0.25 * a.to_superoperator() + 0.75 * b.to_superoperator()
    assert mixed.equals(dense)
    assert (0.25 * a + 0.75 * b.to_superoperator()).equals(dense)
    assert mixed.is_trace_nonincreasing()
    assert mixed.probability_bound() == pytest.approx(1.0)


def test_local_initializer_and_scalars():
    n = 3
    register = QubitRegister(("a", "b", "c"))
    local = LocalSuperOperator.initializer((0, 2), n)
    dense = SuperOperator.initializer(2).embed(("a", "c"), register)
    assert local.equals(dense)
    assert LocalSuperOperator.identity(n).equals(SuperOperator.identity(8))
    assert LocalSuperOperator.zero(n).equals(SuperOperator.zero(8))
    assert LocalSuperOperator.scalar(0.5, n).equals(SuperOperator.scalar(0.5, 8))
    with pytest.raises(SuperOperatorError):
        LocalSuperOperator.scalar(1.5, n)


def test_from_full_shrinks_to_true_support():
    n = 4
    wide = np.kron(X, np.eye(2))  # acts only on its first factor
    local = LocalSuperOperator.from_full(wide, (1, 3), n)
    assert local.positions == (1,)
    assert local.equals(LocalSuperOperator.from_unitary(X, (1,), n))


def test_local_simplified_recanonicalises_small_kraus():
    n = 3
    init = LocalSuperOperator.initializer((0, 1), n)
    composed = init.compose(LocalSuperOperator.from_unitary(CX, (0, 1), n))
    simplified = composed.simplified()
    assert isinstance(simplified, LocalSuperOperator)
    assert simplified.equals(composed)
    assert len(simplified.small_kraus) <= len(composed.small_kraus)


def test_local_precedes_matches_dense_order():
    n = 2
    half = LocalSuperOperator.scalar(0.5, n)
    full = LocalSuperOperator.identity(n)
    assert half.precedes(full)
    assert not full.precedes(half)
    assert half.precedes(SuperOperator.identity(4))


def test_mixed_representation_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        SuperOperator.identity(16).compose(LocalSuperOperator.identity(3))
    with pytest.raises(DimensionMismatchError):
        LocalSuperOperator.identity(3).compose(SuperOperator.identity(16))
    with pytest.raises(DimensionMismatchError):
        SuperOperator.identity(16) + LocalSuperOperator.identity(3)


def test_local_validation_errors():
    with pytest.raises(SuperOperatorError):
        LocalSuperOperator([], (0,), 2)
    with pytest.raises(DimensionMismatchError):
        LocalSuperOperator([np.eye(4)], (0,), 2)  # 4x4 on one factor
    with pytest.raises(SuperOperatorError):
        LocalSuperOperator([np.eye(2)], (3,), 2)  # out of range
    with pytest.raises(SuperOperatorError):
        LocalSuperOperator([2.0 * np.eye(2)], (0,), 2)  # not trace non-increasing


def test_local_superoperator_pickle_roundtrip():
    local = LocalSuperOperator.from_unitary(H, (0,), 2)
    assert pickle.loads(pickle.dumps(local)).equals(local)


# ---------------------------------------------------------------------------
# Random local maps agree with their dense embeddings, support by support
# ---------------------------------------------------------------------------

#: Supports inside a 3-qubit register: single factors, non-contiguous pairs,
#: reversed and permuted orders (the tensor-leg permutations most likely to go wrong).
SUPPORTS = [(0,), (2,), (1, 0), (0, 2), (2, 0, 1)]
SUPPORT_IDS = ["-".join(map(str, support)) for support in SUPPORTS]


def _random_local_pair(positions, seed, num_qubits=3):
    """Return a random trace non-increasing local map and its dense embedding."""
    from repro.linalg.random import random_kraus_operators

    smalls = random_kraus_operators(2 ** len(positions), count=2, trace_preserving=False, seed=seed)
    local = LocalSuperOperator(smalls, positions, num_qubits)
    dense = SuperOperator([embed_operator(k, positions, num_qubits) for k in smalls])
    return local, dense


@pytest.mark.parametrize("positions", SUPPORTS, ids=SUPPORT_IDS)
def test_random_local_map_matches_dense_embedding(positions):
    from repro.linalg.random import random_density_operator, random_predicate_matrix

    local, dense = _random_local_pair(positions, seed=1)
    rho = random_density_operator(8, seed=2)
    observable = random_predicate_matrix(8, seed=3)
    assert np.allclose(local.apply(rho), dense.apply(rho), atol=1e-10)
    assert np.allclose(local.apply_adjoint(observable), dense.apply_adjoint(observable), atol=1e-10)
    assert np.allclose(local.choi(), dense.choi(), atol=1e-10)
    assert np.allclose(local.kraus_gram(), dense.kraus_gram(), atol=1e-10)
    assert local.probability_bound() == pytest.approx(dense.probability_bound(), abs=1e-10)
    assert local.is_trace_nonincreasing() and not local.is_trace_preserving()


@pytest.mark.parametrize("positions", SUPPORTS, ids=SUPPORT_IDS)
def test_local_adjoint_map_matches_dense_adjoint(positions):
    from repro.linalg.random import random_predicate_matrix

    local, dense = _random_local_pair(positions, seed=4)
    observable = random_predicate_matrix(8, seed=5)
    adjoint = local.adjoint()
    assert isinstance(adjoint, LocalSuperOperator)
    assert adjoint.positions == local.positions
    assert np.allclose(adjoint.apply(observable), dense.apply_adjoint(observable), atol=1e-10)
    assert adjoint.adjoint().equals(dense)


@pytest.mark.parametrize("positions", SUPPORTS, ids=SUPPORT_IDS)
def test_local_compose_matches_dense_compose(positions):
    local, dense = _random_local_pair(positions, seed=6)
    other_local, other_dense = _random_local_pair((1,), seed=7)
    composed = local.compose(other_local)
    assert isinstance(composed, LocalSuperOperator)
    assert composed.support == tuple(sorted(set(positions) | {1}))
    assert composed.equals(dense.compose(other_dense))
    assert (local @ other_local).equals(composed)
    assert local.then(other_local).equals(other_dense.compose(dense))


@pytest.mark.parametrize("positions", SUPPORTS, ids=SUPPORT_IDS)
def test_local_sum_and_scaling_match_dense(positions):
    local, dense = _random_local_pair(positions, seed=8)
    other_local, other_dense = _random_local_pair((2, 1), seed=9)
    mixed = 0.5 * local + 0.5 * other_local
    assert isinstance(mixed, LocalSuperOperator)
    assert mixed.equals(0.5 * dense + 0.5 * other_dense)
    assert (0.25 * local).equals(0.25 * dense)
    with pytest.raises(SuperOperatorError):
        local * -0.5


@pytest.mark.parametrize("positions", SUPPORTS, ids=SUPPORT_IDS)
def test_local_equality_and_order_are_representation_independent(positions):
    local, dense = _random_local_pair(positions, seed=10)
    assert local.equals(dense) and dense.equals(local)
    assert local == dense and hash(local) == hash(dense)
    other_local, other_dense = _random_local_pair(positions, seed=11)
    assert not local.equals(other_local)
    assert not local.equals(other_dense)
    half = 0.5 * local
    assert half.precedes(local) and half.precedes(dense)
    assert (0.5 * dense).precedes(local)
    assert not local.precedes(half)


@pytest.mark.parametrize("positions", SUPPORTS, ids=SUPPORT_IDS)
def test_local_simplified_preserves_a_random_map(positions):
    local, dense = _random_local_pair(positions, seed=12)
    redundant = 0.5 * local + 0.5 * local  # twice the Kraus operators, same map
    assert len(redundant.small_kraus) == 2 * len(local.small_kraus)
    simplified = redundant.simplified()
    assert isinstance(simplified, LocalSuperOperator)
    assert simplified.equals(dense)
    assert len(simplified.small_kraus) <= len(local.small_kraus)


def test_set_comparisons_accept_mixed_representations():
    from repro.superop.compare import deduplicate, set_equal, set_subset

    local_a, dense_a = _random_local_pair((0, 2), seed=13)
    local_b, dense_b = _random_local_pair((1,), seed=14)
    assert set_equal([dense_a, dense_b], [local_b, local_a])
    assert set_subset([local_a], [dense_a, dense_b])
    assert not set_subset([local_a], [dense_b])
    assert len(deduplicate([dense_a, local_a, local_b])) == 2
