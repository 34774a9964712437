"""Comparison utilities on super-operators and sets of super-operators.

The denotational semantics of a nondeterministic program is a *set* of
super-operators; these helpers implement equality and the CPO order on
individual maps (Lemma 3.1) and the induced comparisons on finite sets, which
are used by the semantic model checker and the tests of Lemma 3.2.

Two maps are the same set element when they have the same shape
``(d_out, d_in)`` and their flattened Choi matrices (the same
``(d_out·d_in)²`` complex numbers for equal maps, whatever their Kraus
decompositions) agree entrywise under ``np.isclose``:
``|C_E − C_F| ≤ atol + rtol · |C_F|``.  The set-level functions screen every
pair before building one.  Each map's image ``E(σ)`` of one fixed pure probe
state ``σ = |ψ⟩⟨ψ|`` costs ``k`` matrix–vector products, and its Choi trace
is ``t_E = Σ_i ‖K_i‖²_F``.  Since ``E(σ)_ab = Σ_ij σ_ij C_(a,i),(b,j)``, a
pair the entrywise rule merges has

    max|E(σ) − F(σ)| ≤ ‖σ‖_ℓ1 · atol + rtol · max(t_E, t_F).

The ``rtol`` term needs no ``‖σ‖_ℓ1`` factor: a Choi matrix is positive
semidefinite, so ``|C_(a,i),(b,j)| ≤ √(D_ai D_bj)`` with ``D_ai =
C_(a,i),(a,i)``, and Cauchy–Schwarz with ``‖ψ‖ = 1`` gives
``Σ_ij |ψ_i ψ_j| √(D_ai D_bj) ≤ √(Σ_i D_ai · Σ_j D_bj) ≤ t``.  A pair above
the bound, plus a rounding margin, is distinct.  A pair with
``t_E + t_F ≤ atol`` is equal, since no entry of a Choi matrix exceeds its
trace.  Only the pairs neither screen decides are confirmed on Choi
signatures, each built lazily and at most once per map, so duplicate
detection and subset checks give exactly the verdicts of comparing every
pair's Choi matrices.

The restricted maps ``E ∘ J`` of the sequence fold (see
:mod:`~repro.superop.kraus`) are compared the same way, with a probe of
dimension ``d_in``.  Every entry of the Choi matrix of the spread
``E ∘ J ∘ Tr`` is either 0 or an entry of the restricted map's, and each
of those entries occurs, so two restricted maps match exactly when their
spreads do.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..linalg.constants import ATOL, ORDER_ATOL
from ..telemetry.tracing import span

__all__ = [
    "superoperator_equal",
    "superoperator_precedes",
    "set_equal",
    "set_subset",
    "lub_of_chain",
    "deduplicate",
]

#: Relative tolerance matching ``np.allclose``, used by the signature comparisons.
_RTOL = 1e-5

#: Rounding margin of the screens, relative to the Choi traces ``t_E + t_F``
#: (times ``‖σ‖_ℓ1`` for probe images).  The floating-point error of a Choi
#: entry or a probe image is about ``(k + d) · ε · t``; this margin leaves
#: orders of magnitude to spare.  A larger margin is always sound, only slower.
_ROUNDING = 1e-9


@lru_cache(maxsize=16)
def _probe(dimension: int) -> Tuple[np.ndarray, float]:
    """Return the fixed probe ``ψ`` of a dimension and ``‖ψψ†‖_ℓ1 = (Σ_i |ψ_i|)²``.

    ``ψ`` is a normalised complex Gaussian vector drawn from a generator
    seeded with the dimension, so it is the same constant in every call.
    """
    generator = np.random.default_rng(dimension)
    vector = generator.standard_normal(dimension) + 1j * generator.standard_normal(dimension)
    vector /= np.linalg.norm(vector)
    vector.setflags(write=False)
    return vector, float(np.sum(np.abs(vector)) ** 2)


class _Screen:
    """The maps of one comparison: probe images and Choi traces, Choi signatures on demand."""

    def __init__(self, maps: Sequence):
        self.maps = maps
        probe, self.probe_l1 = _probe(maps[0].shape[1])
        images = []
        for channel in maps:
            columns = channel.kraus_operators @ probe  # row i is E_i ψ
            images.append((columns.T @ columns.conj()).reshape(-1))
        self.images = np.stack(images)
        self.traces = np.array([channel.choi_trace() for channel in maps])
        self._signatures: Dict[int, np.ndarray] = {}

    def signature(self, index: int) -> np.ndarray:
        """Return the flattened Choi matrix of map ``index``, built at most once."""
        signature = self._signatures.get(index)
        if signature is None:
            signature = np.asarray(self.maps[index].choi(), dtype=complex).reshape(-1)
            self._signatures[index] = signature
        return signature

    def matches_any(self, rows: np.ndarray, other: "_Screen", index: int, atol: float) -> bool:
        """Return whether map ``index`` of ``other`` equals any of this screen's ``rows``.

        Equality is ``np.isclose`` on the Choi signatures (the tolerance
        scaled by ``other``'s entries).  Two maps whose Choi traces sum to at
        most ``atol`` are equal, since ``|C_xy| ≤ t``; two maps the probe
        screen separates are not.  Only the remaining rows are compared on
        Choi signatures.
        """
        traces = self.traces[rows]
        candidate_trace = other.traces[index]
        if bool(((traces + candidate_trace) * (1 + _ROUNDING) <= atol).any()):
            return True
        gaps = np.abs(self.images[rows] - other.images[index]).max(axis=1)
        bounds = (
            self.probe_l1 * (atol + _ROUNDING * (traces + candidate_trace))
            + _RTOL * np.maximum(traces, candidate_trace)
        )
        undecided = rows[gaps <= bounds]
        if not undecided.size:
            return False
        stack = np.stack([self.signature(row) for row in undecided])
        candidate = other.signature(index)
        return bool(np.isclose(stack, candidate, rtol=_RTOL, atol=atol).all(axis=1).any())


def superoperator_equal(a, b, atol: float = ATOL) -> bool:
    """Return ``True`` when the two maps agree (Choi matrices coincide)."""
    return a.equals(b, atol=atol)


def superoperator_precedes(a, b, atol: float = ORDER_ATOL) -> bool:
    """Return ``True`` when ``a ⪯ b``, i.e. ``b − a`` is completely positive."""
    return a.precedes(b, atol=atol)


def _mixed_shapes(maps: Sequence) -> bool:
    return len({channel.shape for channel in maps}) > 1


def deduplicate(maps: Iterable, atol: float = ATOL) -> list:
    """Return the input maps with (numerical) duplicates removed, preserving order.

    Every candidate is compared against all previously kept maps at once:
    the probe screen separates most pairs, and a Choi signature is built
    (at most once per map) only for a map in a pair it cannot separate.
    """
    maps = list(maps)
    if len(maps) <= 1:
        return maps
    with span("deduplicate", region="compare", set_size=len(maps)):
        if _mixed_shapes(maps):
            # Mixed shapes cannot share a signature stack; fall back to pairwise.
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
        # Mixed shapes cannot share a signature stack; fall back to pairwise
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


def lub_of_chain(chain: Sequence, atol: float = 1e-6) -> object:
    """Return the last element of a ⪯-chain, checking that it is indeed non-decreasing.

    The least upper bound of a finite prefix of a non-decreasing chain is its
    last element; this helper is used when truncating the while-loop fixpoint
    (Eq. (1) of the paper) to finitely many iterations.
    """
    if not chain:
        raise ValueError("lub_of_chain requires a non-empty chain")
    for earlier, later in zip(chain, chain[1:]):
        if not earlier.precedes(later, atol=atol):
            raise ValueError("sequence is not a ⪯-chain")
    return chain[-1]
