"""Tests of the canonical content-addressed identity layer (repro.hashing).

Covers the two directions of the contract:

* **digest soundness** — digest-equal implies ``__eq__``-equal, on random
  programs, predicates and channels (perturbed below the quantization grid so
  the property is exercised non-vacuously);
* **hash/eq consistency** — the regression the layer fixes: ``allclose``-equal
  objects straddling the old 1e-6 rounding boundary used to land in different
  dict buckets because ``__hash__`` hashed rounded bytes;
* **options signatures** — every option field that can change a result is part
  of the cache key, so no two differently-configured runs share an entry.
"""

import numpy as np
import pytest

from repro.hashing import (
    DIGEST_ATOL,
    assertion_digest,
    digest_array,
    measurement_digest,
    node_digest,
    options_signature,
    predicate_digest,
    superop_digest,
    tolerance_safe_hash,
)
from repro.language.ast import If, Measurement, Skip, Unitary, While, seq
from repro.linalg.constants import H, P0, P1, X
from repro.linalg.random import (
    random_kraus_operators,
    random_predicate_matrix,
    random_unitary,
    rng_from,
)
from repro.logic.prover import ProverOptions
from repro.predicates.assertion import QuantumAssertion
from repro.predicates.predicate import QuantumPredicate
from repro.semantics.denotational import DenotationOptions
from repro.semantics.schedulers import ConstantScheduler
from repro.semantics.wp import WpOptions
from repro.superop.kraus import SuperOperator

#: Perturbation scale well below the digest grid (1e-9): most perturbed pairs
#: stay digest-equal, making the soundness property non-vacuous.
_NOISE = 1e-12


def _perturb(matrix: np.ndarray, seed: int) -> np.ndarray:
    rng = rng_from(seed)
    noise = rng.standard_normal(matrix.shape) + 1j * rng.standard_normal(matrix.shape)
    hermitian_noise = (noise + noise.conj().T) / 2
    return matrix + _NOISE * hermitian_noise


# ---------------------------------------------------------------------------
# Digest soundness: digest-equal ⇒ __eq__-equal
# ---------------------------------------------------------------------------


def test_digest_equal_implies_eq_for_random_predicates():
    digest_equal_pairs = 0
    for seed in range(40):
        matrix = random_predicate_matrix(4, seed=seed)
        a = QuantumPredicate(matrix, validate=False)
        b = QuantumPredicate(_perturb(matrix, seed + 1000), validate=False)
        if predicate_digest(a) == predicate_digest(b):
            digest_equal_pairs += 1
            assert a == b
            assert hash(a) == hash(b)
    assert digest_equal_pairs > 0  # the property must not hold vacuously


def test_digest_equal_implies_eq_for_random_channels():
    digest_equal_pairs = 0
    for seed in range(25):
        kraus = random_kraus_operators(4, count=3, seed=seed)
        a = SuperOperator(kraus, validate=False)
        b = SuperOperator([k + _NOISE for k in kraus], validate=False)
        if superop_digest(a) == superop_digest(b):
            digest_equal_pairs += 1
            assert a == b
            assert hash(a) == hash(b)
    assert digest_equal_pairs > 0


def test_digest_equal_implies_eq_for_random_programs():
    digest_equal_pairs = 0
    for seed in range(25):
        unitary = random_unitary(2, seed=seed)
        perturbed = unitary * np.exp(0j) + _NOISE  # stays unitary within ATOL
        a = seq(Unitary(("q0",), "U", unitary), Unitary(("q1",), "U", unitary))
        b = seq(Unitary(("q0",), "V", perturbed), Unitary(("q1",), "V", perturbed))
        if node_digest(a) == node_digest(b):
            digest_equal_pairs += 1
            assert a == b
            assert hash(a) == hash(b)
    assert digest_equal_pairs > 0


def test_digest_is_stable_across_object_identity():
    matrix = random_predicate_matrix(4, seed=7)
    assert predicate_digest(QuantumPredicate(matrix)) == predicate_digest(
        QuantumPredicate(matrix.copy())
    )
    unitary = random_unitary(4, seed=7)
    p = seq(Unitary(("a", "b"), "U", unitary), Skip())
    q = seq(Unitary(("a", "b"), "renamed", unitary.copy()), Skip())
    assert node_digest(p) == node_digest(q)  # display names are excluded


def test_digest_distinguishes_structure():
    u = Unitary(("q0",), "H", H)
    v = Unitary(("q1",), "H", H)
    assert node_digest(u) != node_digest(v)
    assert node_digest(seq(u, v)) != node_digest(seq(v, u))
    meas = Measurement("M", P0, P1)
    conditional = If(meas, ("q0",), u, Skip())
    loop = While(meas, ("q0",), u)
    assert node_digest(conditional) != node_digest(loop)


def test_measurement_digest_ignores_name_only():
    assert measurement_digest(Measurement("A", P0, P1)) == measurement_digest(
        Measurement("B", P0, P1)
    )
    from repro.linalg.constants import PMINUS, PPLUS

    assert measurement_digest(Measurement("A", P0, P1)) != measurement_digest(
        Measurement("A", PPLUS, PMINUS)
    )


def test_assertion_digest_is_order_insensitive():
    a = QuantumPredicate(random_predicate_matrix(4, seed=1), validate=False)
    b = QuantumPredicate(random_predicate_matrix(4, seed=2), validate=False)
    assert assertion_digest(QuantumAssertion([a, b])) == assertion_digest(
        QuantumAssertion([b, a])
    )


def test_digest_array_normalises_negative_zero():
    assert digest_array(np.array([[0.0]])) == digest_array(np.array([[-0.0]]))
    assert digest_array(np.array([[0.0 + 0.0j]])) == digest_array(np.array([[-0.0 - 0.0j]]))


def test_digest_quantization_tolerance_is_documented_grid():
    assert DIGEST_ATOL == pytest.approx(1e-9)
    base = np.full((2, 2), 0.25)
    # A shift far below half the grid spacing cannot change any rounded entry.
    assert digest_array(base) == digest_array(base + 1e-13)
    # A shift of several grid steps must change the digest.
    assert digest_array(base) != digest_array(base + 5e-9)


# ---------------------------------------------------------------------------
# hash/eq consistency regressions
# ---------------------------------------------------------------------------

#: Two values within 2e-8 of each other that straddle a 1e-6 rounding
#: boundary: np.round(…, 6) maps them to 0.499999 and 0.500000, so any hash
#: built from round-6 bytes separates them while __eq__ holds.
_BOUNDARY_LO = 0.49999949
_BOUNDARY_HI = 0.49999951


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


def test_node_digest_survives_id_reuse():
    # Recycled ids from dead nodes must not alias: digest a throwaway node,
    # drop it, then digest fresh nodes that may reuse the same id.
    for index in range(50):
        gate = H if index % 2 == 0 else X
        node = Unitary(("q0",), "G", gate)
        digest = node_digest(node)
        assert digest == node_digest(Unitary(("q0",), "G2", gate))
        del node


# ---------------------------------------------------------------------------
# Options signatures (the option part of every result-cache key)
# ---------------------------------------------------------------------------

#: One non-default value for every field that can change a computed result.
RESULT_CHANGING_FIELDS = [
    (DenotationOptions, "max_iterations", 8),
    (DenotationOptions, "convergence_tolerance", 1e-6),
    (DenotationOptions, "sampled_schedulers", 3),
    (DenotationOptions, "simplify_threshold", 16),
    (DenotationOptions, "dedup", False),
    (WpOptions, "max_iterations", 8),
    (WpOptions, "sampled_schedulers", 3),
    (WpOptions, "convergence_tolerance", 1e-6),
    (ProverOptions, "epsilon", 1e-4),
]


@pytest.mark.parametrize(
    "options_type,field,value",
    RESULT_CHANGING_FIELDS,
    ids=[f"{t.__name__}.{f}" for t, f, _ in RESULT_CHANGING_FIELDS],
)
def test_options_signature_covers_every_result_changing_field(options_type, field, value):
    default = options_signature(options_type())
    changed = options_signature(options_type(**{field: value}))
    assert changed is not None and default is not None
    assert changed != default
    assert changed == options_signature(options_type(**{field: value}))  # stable
    hash(changed)


def test_options_signature_separates_option_types():
    # Equal field values on different option types must not share cache keys.
    assert options_signature(DenotationOptions()) != options_signature(WpOptions())
    assert options_signature(WpOptions()) != options_signature(ProverOptions())


def test_explicit_schedulers_make_options_uncacheable():
    assert options_signature(DenotationOptions(schedulers=[ConstantScheduler(0)])) is None
    assert options_signature(WpOptions(schedulers=[ConstantScheduler(1)])) is None
    assert options_signature(DenotationOptions(schedulers=None)) is not None
