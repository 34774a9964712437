"""Comparison utilities on sets of super-operators.

The denotational semantics of a nondeterministic program is a *set* of
super-operators; these helpers implement the comparisons on finite sets
induced by equality of maps, which the denotation engine, program
equivalence and the tests of Lemma 3.2 use.

Two maps are the same set element when they have the same shape
``(d_out, d_in)`` and their Choi matrices are within ``atol`` in trace
norm, ``‖C_E − C_F‖_1 ≤ atol``
(:meth:`~repro.superop.kraus.SuperOperator.equals`, read off the two Kraus
stacks without a Choi matrix).  The trace norm bounds the diamond
distance (Watrous, *The Theory of Quantum Information*, Ch. 3), so no
expectation ``tr(M·E(ρ))`` with ``‖M‖_∞ ≤ 1`` moves by more than ``atol``,
with an ancilla too.

The set-level functions screen every pair before confirming one.  Each
map's image ``E(σ)`` of one fixed pure probe state ``σ = |ψ⟩⟨ψ|`` costs
``k`` matrix–vector products, and its Choi trace is
``t_E = Σ_i ‖K_i‖²_F``.  Since ``E(σ) − F(σ) = X (C_E − C_F) X†`` with
``X = I ⊗ ψᵀ`` and ``‖X‖_∞ = 1``, no entry of it exceeds
``‖C_E − C_F‖_1``: a pair with ``max|E(σ) − F(σ)| > atol``, plus a
rounding margin, is distinct.  A pair with ``t_E + t_F ≤ atol`` is equal,
since ``‖C_E − C_F‖_1 ≤ t_E + t_F``.  Only the pairs neither screen
decides are confirmed with ``equals``, so duplicate detection and subset
checks give exactly the verdicts of comparing every pair.

The restricted maps ``E ∘ J`` of the sequence fold (see
:mod:`~repro.superop.kraus`) are compared the same way, with a probe of
dimension ``d_in``.  The Choi matrix of the spread ``E ∘ J ∘ Tr`` is, up
to an ordering of its basis, the direct sum of ``2^|q̄|`` copies of the
restricted map's, so two spreads are ``2^|q̄|`` times as far apart in
trace norm as their restricted maps: the fold compares restricted maps at
``atol / 2^|q̄|``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Sequence

import numpy as np

from ..linalg.constants import ATOL
from ..telemetry.tracing import span

__all__ = ["set_equal", "set_subset", "deduplicate"]

#: Rounding margin of the screens, relative to the Choi traces ``t_E + t_F``.
#: The floating-point error of a probe image entry is about ``(k + d) · ε · t``;
#: this margin leaves orders of magnitude to spare.  A larger margin is always
#: sound, only slower.
_ROUNDING = 1e-9


@lru_cache(maxsize=16)
def _probe(dimension: int) -> np.ndarray:
    """Return the fixed probe ``ψ`` of a dimension.

    ``ψ`` is a normalised complex Gaussian vector drawn from a generator
    seeded with the dimension, so it is the same constant in every call.
    """
    generator = np.random.default_rng(dimension)
    vector = generator.standard_normal(dimension) + 1j * generator.standard_normal(dimension)
    vector /= np.linalg.norm(vector)
    vector.setflags(write=False)
    return vector


class _Screen:
    """The maps of one comparison with their probe images and Choi traces."""

    def __init__(self, maps: Sequence):
        self.maps = maps
        probe = _probe(maps[0].shape[1])
        images = []
        for channel in maps:
            columns = channel.kraus_operators @ probe  # row i is E_i ψ
            images.append((columns.T @ columns.conj()).reshape(-1))
        self.images = np.stack(images)
        self.traces = np.array([channel.choi_trace() for channel in maps])

    def matches_any(self, rows: np.ndarray, other: "_Screen", index: int, atol: float) -> bool:
        """Return whether map ``index`` of ``other`` equals any of this screen's ``rows``.

        Two maps whose Choi traces sum to at most ``atol`` are equal; two
        maps whose probe images differ by more than ``atol`` in some entry
        are not.  Only the remaining rows are confirmed with
        :meth:`~repro.superop.kraus.SuperOperator.equals`.
        """
        sums = self.traces[rows] + other.traces[index]
        if bool((sums * (1 + _ROUNDING) <= atol).any()):
            return True
        gaps = np.abs(self.images[rows] - other.images[index]).max(axis=1)
        candidate = other.maps[index]
        undecided = rows[gaps <= atol + _ROUNDING * sums]
        return any(self.maps[row].equals(candidate, atol=atol) for row in undecided)


def _mixed_shapes(maps: Sequence) -> bool:
    return len({channel.shape for channel in maps}) > 1


def deduplicate(maps: Iterable, atol: float = ATOL) -> list:
    """Return the input maps with (numerical) duplicates removed, preserving order.

    Every candidate is compared against all previously kept maps at once:
    the probe screen decides most pairs, and only a pair it cannot decide
    is confirmed with :meth:`~repro.superop.kraus.SuperOperator.equals`.
    """
    maps = list(maps)
    if len(maps) <= 1:
        return maps
    with span("deduplicate", region="compare", set_size=len(maps)):
        if _mixed_shapes(maps):
            # Mixed shapes cannot share a probe; fall back to pairwise.
            unique: List = []
            for candidate in maps:
                if not any(candidate.equals(existing, atol=atol) for existing in unique):
                    unique.append(candidate)
            return unique
        screen = _Screen(maps)
        keep: List[int] = []
        for index in range(len(maps)):
            if keep and screen.matches_any(np.array(keep), screen, index, atol):
                continue
            keep.append(index)
        return [maps[index] for index in keep]


def set_subset(smaller: Iterable, larger: Iterable, atol: float = ATOL) -> bool:
    """Return ``True`` when every map in ``smaller`` also occurs in ``larger``."""
    smaller = list(smaller)
    larger = list(larger)
    if not smaller:
        return True
    if not larger:
        return False
    with span("set-subset", region="compare", smaller=len(smaller), larger=len(larger)):
        return _set_subset_impl(smaller, larger, atol)


def _set_subset_impl(smaller: List, larger: List, atol: float) -> bool:
    """The unspanned body of :func:`set_subset`."""
    if _mixed_shapes(smaller) or _mixed_shapes(larger):
        # Mixed shapes cannot share a probe; fall back to pairwise
        # (equals already returns False across shapes).
        return all(
            any(candidate.equals(existing, atol=atol) for existing in larger)
            for candidate in smaller
        )
    if smaller[0].shape != larger[0].shape:
        return False
    larger_screen = _Screen(larger)
    smaller_screen = _Screen(smaller)
    rows = np.arange(len(larger))
    return all(
        larger_screen.matches_any(rows, smaller_screen, index, atol)
        for index in range(len(smaller))
    )


def set_equal(a: Iterable, b: Iterable, atol: float = ATOL) -> bool:
    """Return ``True`` when the two sets of maps are equal up to numerical tolerance."""
    a = list(a)
    b = list(b)
    return set_subset(a, b, atol=atol) and set_subset(b, a, atol=atol)
