"""Tests of hash/eq consistency for the tolerance-compared classes.

The regression these guard: ``allclose``-equal objects straddling the old
1e-6 rounding boundary used to land in different dict buckets because
``__hash__`` hashed rounded bytes.  ``QuantumPredicate`` and
``SuperOperator`` now hash through :func:`repro.hashing.tolerance_safe_hash`
(kind and dimension only); ``Measurement`` and ``Unitary`` hash only exact
invariants their name-insensitive ``__eq__`` preserves.  Random objects
perturbed far below the comparison tolerance must stay equal and hash
equal, so a dict or set holds them under one key.
"""

import numpy as np

from repro.hashing import tolerance_safe_hash
from repro.language.ast import Measurement, Unitary, seq
from repro.linalg.constants import H, P0, P1, X
from repro.linalg.random import (
    random_kraus_operators,
    random_predicate_matrix,
    random_unitary,
    rng_from,
)
from repro.predicates.assertion import QuantumAssertion
from repro.predicates.predicate import QuantumPredicate
from repro.superop.kraus import SuperOperator


#: Two values within 2e-8 of each other that straddle a 1e-6 rounding
#: boundary: np.round(…, 6) maps them to 0.499999 and 0.500000, so any hash
#: built from round-6 bytes separates them while __eq__ holds.
_BOUNDARY_LO = 0.49999949
_BOUNDARY_HI = 0.49999951

#: Perturbation scale far below the comparison tolerance of ``__eq__``.
_NOISE = 1e-12


def _perturb(matrix: np.ndarray, seed: int) -> np.ndarray:
    rng = rng_from(seed)
    noise = rng.standard_normal(matrix.shape) + 1j * rng.standard_normal(matrix.shape)
    hermitian_noise = (noise + noise.conj().T) / 2
    return matrix + _NOISE * hermitian_noise


def test_perturbed_random_predicates_are_equal_and_hash_equal():
    for seed in range(40):
        matrix = random_predicate_matrix(4, seed=seed)
        a = QuantumPredicate(matrix, validate=False)
        b = QuantumPredicate(_perturb(matrix, seed + 1000), validate=False)
        assert not np.array_equal(a.matrix, b.matrix)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_perturbed_random_channels_are_equal_and_hash_equal():
    for seed in range(25):
        kraus = random_kraus_operators(4, count=3, seed=seed)
        a = SuperOperator(kraus, validate=False)
        b = SuperOperator([k + _NOISE for k in kraus], validate=False)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_perturbed_random_programs_are_equal_and_hash_equal():
    for seed in range(25):
        unitary = random_unitary(2, seed=seed)
        perturbed = unitary + _NOISE  # stays unitary within ATOL
        a = seq(Unitary(("q0",), "U", unitary), Unitary(("q1",), "U", unitary))
        b = seq(Unitary(("q0",), "V", perturbed), Unitary(("q1",), "V", perturbed))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_assertion_hash_ignores_predicate_order_like_its_eq():
    forward = QuantumAssertion([P0, P1, np.eye(2) / 2])
    backward = QuantumAssertion([np.eye(2) / 2, P1, P0])
    assert forward == backward
    assert hash(forward) == hash(backward)


def test_boundary_straddling_predicates_share_a_dict_bucket():
    lo = QuantumPredicate(np.diag([_BOUNDARY_LO, 1.0 - _BOUNDARY_LO]).astype(complex))
    hi = QuantumPredicate(np.diag([_BOUNDARY_HI, 1.0 - _BOUNDARY_HI]).astype(complex))
    assert np.round(lo.matrix[0, 0].real, 6) != np.round(hi.matrix[0, 0].real, 6)
    assert lo == hi
    assert hash(lo) == hash(hi)
    bucket = {lo: "cached"}
    assert hi in bucket  # used to fail: equal objects in different buckets


def test_boundary_straddling_superoperators_share_a_dict_bucket():
    lo = SuperOperator([np.sqrt(_BOUNDARY_LO) * np.eye(2, dtype=complex)], validate=False)
    hi = SuperOperator([np.sqrt(_BOUNDARY_HI) * np.eye(2, dtype=complex)], validate=False)
    assert lo == hi
    assert hash(lo) == hash(hi)
    assert hi in {lo: "cached"}


def test_superoperator_hash_uses_only_exact_invariants():
    assert hash(SuperOperator([H])) == tolerance_safe_hash("superop", 2)


def test_measurement_hash_consistent_with_name_insensitive_eq():
    a = Measurement("first", P0, P1)
    b = Measurement("second", P0, P1)
    assert a == b
    assert hash(a) == hash(b)


def test_unitary_hash_consistent_with_name_insensitive_eq():
    a = Unitary(("q0",), "gateA", X)
    b = Unitary(("q0",), "gateB", X.copy())
    assert a == b
    assert hash(a) == hash(b)
