"""Unit tests for set-level comparisons of super-operators (Lemma 3.1 machinery)."""

import numpy as np
import pytest

from repro.linalg.constants import ATOL, H, I2, P0, P1, X
from repro.linalg.random import random_density_operator, random_kraus_operators, random_unitary
from repro.linalg.operators import loewner_le
from repro.superop import choi as choi_module
from repro.superop import compare as compare_module
from repro.superop import kraus as kraus_module
from repro.superop.choi import choi_matrix
from repro.superop.compare import deduplicate, set_equal, set_subset
from repro.superop.kraus import SuperOperator


@pytest.fixture(autouse=True)
def choi_builds(monkeypatch):
    """Count the Choi matrices the library builds; no comparison may build one.

    The references below build theirs with the unpatched kernel imported
    above, which this spy does not see.
    """
    calls = []

    def counting(kraus):
        calls.append(1)
        return choi_matrix(kraus)

    for module in (choi_module, kraus_module):
        monkeypatch.setattr(module, "choi_matrix", counting)
    yield calls
    assert not calls


class TestElementComparisons:
    def test_equal_maps_different_decompositions(self):
        dephase_a = SuperOperator([P0, P1])
        dephase_b = SuperOperator([I2 / np.sqrt(2), np.diag([1.0, -1.0]) / np.sqrt(2)])
        assert dephase_a.equals(dephase_b)

    def test_precedes_implies_loewner_on_outputs(self):
        """Lemma 3.1: E ⪯ F implies E(ρ) ⊑ F(ρ) for every state."""
        smaller = SuperOperator([P0])
        larger = SuperOperator([P0, P1])
        assert smaller.precedes(larger)
        for seed in range(5):
            rho = random_density_operator(2, seed=seed)
            assert loewner_le(smaller.apply(rho), larger.apply(rho))

    def test_precedes_fails_for_incomparable_maps(self):
        a = SuperOperator([P0])
        b = SuperOperator([P1])
        assert not a.precedes(b)
        assert not b.precedes(a)


class TestSetComparisons:
    def test_deduplicate(self):
        maps = [SuperOperator([P0, P1]), SuperOperator([I2 / np.sqrt(2), np.diag([1.0, -1.0]) / np.sqrt(2)]), SuperOperator.from_unitary(X)]
        unique = deduplicate(maps)
        assert len(unique) == 2

    def test_subset_and_equality(self):
        identity = SuperOperator.identity(2)
        hadamard = SuperOperator.from_unitary(H)
        flip = SuperOperator.from_unitary(X)
        assert set_subset([identity], [identity, hadamard])
        assert not set_subset([flip], [identity, hadamard])
        assert set_equal([identity, hadamard], [hadamard, identity])
        assert not set_equal([identity], [identity, hadamard])

    def test_set_comparisons_tolerate_mixed_dimensions(self):
        small = SuperOperator.identity(2)
        large = SuperOperator.identity(4)
        assert set_subset([small], [small, large])
        assert set_subset([small, large], [large, small])
        assert not set_subset([small], [large])
        assert not set_equal([small], [large])
        assert len(deduplicate([small, large, small, large])) == 2


# ---------------------------------------------------------------------------
# Probe screen against the trace-norm rule on explicit Choi matrices
# ---------------------------------------------------------------------------


def _reference_equal(a, b, atol):
    """``‖C_a − C_b‖_1 ≤ atol``, on both Choi matrices built explicitly."""
    difference = choi_matrix(a.kraus_operators) - choi_matrix(b.kraus_operators)
    return np.abs(np.linalg.eigvalsh(difference)).sum() <= atol


def _reference_deduplicate(maps, atol=ATOL):
    """The rule without a screen: every candidate against every kept map."""
    keep = []
    for index, candidate in enumerate(maps):
        if not any(_reference_equal(maps[kept], candidate, atol) for kept in keep):
            keep.append(index)
    return keep


def _reference_subset(smaller, larger, atol=ATOL):
    return all(
        any(_reference_equal(existing, candidate, atol) for existing in larger)
        for candidate in smaller
    )


def _kept_indices(maps, atol=ATOL):
    kept = deduplicate(maps, atol=atol)
    return [next(index for index, channel in enumerate(maps) if channel is map_) for map_ in kept]


def _assert_same_as_reference(maps, atol=ATOL):
    assert _kept_indices(maps, atol) == _reference_deduplicate(maps, atol)
    for end in range(1, len(maps) + 1):
        smaller, larger = maps[:end], maps[end - 1 :]
        assert set_subset(smaller, larger, atol=atol) == _reference_subset(smaller, larger, atol)
        assert set_subset(larger, smaller, atol=atol) == _reference_subset(larger, smaller, atol)


def _redecomposed(channel, seed):
    """The same map with Kraus operators mixed by a random unitary."""
    kraus = np.stack(channel.kraus_operators)
    mixing = random_unitary(len(kraus), seed=seed)
    return SuperOperator(np.tensordot(mixing, kraus, axes=1), validate=False)


class TestScreenAgainstChoiRule:
    def test_equal_maps_with_different_decompositions_are_confirmed(self, choi_builds):
        first = SuperOperator(random_kraus_operators(4, count=3, seed=1))
        second = SuperOperator(random_kraus_operators(4, count=2, seed=2))
        maps = [first, second, _redecomposed(first, 3), _redecomposed(second, 4), first]
        assert _reference_deduplicate(maps) == [0, 1]
        assert _kept_indices(maps) == [0, 1]
        # Each duplicate pair is confirmed in Kraus space.
        assert len(choi_builds) == 0
        _assert_same_as_reference(maps)

    @pytest.mark.parametrize("inside", [True, False])
    def test_absolute_perturbation_at_the_threshold(self, inside):
        # An extra Kraus operator √ε·|0⟩⟨ψ| on the probe ψ adds the rank-one
        # ε·vec(|0⟩⟨ψ|)vec(|0⟩⟨ψ|)† to the Choi matrix, of trace norm ε, and
        # moves the image entry E(σ)_00 by ε too: the screen's worst case.
        # A small base map keeps the screen's rounding margin below the 1%
        # step, so the screen alone separates the pair outside the threshold.
        probe = compare_module._probe(8)
        epsilon = ATOL * (0.99 if inside else 1.01)
        extra = np.zeros((8, 8), dtype=complex)
        extra[0] = np.sqrt(epsilon) * probe.conj()
        base = 0.01 * random_unitary(8, seed=6)
        maps = [SuperOperator([base], validate=False), SuperOperator([base, extra], validate=False)]
        assert _reference_deduplicate(maps) == ([0] if inside else [0, 1])
        _assert_same_as_reference(maps)
        _assert_same_as_reference(maps[::-1])

    def test_zero_maps(self, choi_builds):
        tiny = np.zeros((4, 4), dtype=complex)
        tiny[1, 2] = np.sqrt(0.5 * ATOL)
        small = np.zeros((4, 4), dtype=complex)
        small[1, 2] = np.sqrt(2 * ATOL)
        zero_three = SuperOperator([np.zeros((4, 4), dtype=complex)] * 3, validate=False)
        maps = [
            SuperOperator.zero(4),
            zero_three,
            SuperOperator([tiny], validate=False),
            SuperOperator([small], validate=False),
            SuperOperator.zero(4),
        ]
        assert _reference_deduplicate(maps) == [0, 3]
        assert _kept_indices(maps) == [0, 3]
        assert len(choi_builds) == 0
        _assert_same_as_reference(maps)

    @pytest.mark.parametrize("dimension", [2, 4, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_sets(self, dimension, seed):
        rng = np.random.default_rng(seed)
        distinct = [
            SuperOperator(
                random_kraus_operators(dimension, count=int(rng.integers(1, 4)), seed=rng),
                validate=False,
            )
            for _ in range(4)
        ]
        maps = []
        for _ in range(8):
            channel = distinct[int(rng.integers(len(distinct)))]
            maps.append(_redecomposed(channel, rng) if rng.random() < 0.5 else channel)
        _assert_same_as_reference(maps)
