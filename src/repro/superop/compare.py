"""Comparison utilities on super-operators and sets of super-operators.

The denotational semantics of a nondeterministic program is a *set* of
super-operators; these helpers implement equality and the CPO order on
individual maps (Lemma 3.1) and the induced comparisons on finite sets, which
are used by the semantic model checker and the tests of Lemma 3.2.

In the set-level functions each
:class:`~repro.superop.kraus.SuperOperator` is reduced once to a flattened
Choi-entry *signature* (the same ``d⁴`` complex numbers for equal maps,
whatever their Kraus decompositions), after which duplicate detection and
subset checks are vectorised row comparisons on the stacked signatures —
instead of rebuilding a pair of Choi matrices for every one of the ``O(n²)``
candidate pairs.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

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


def _signatures(maps: Sequence) -> np.ndarray:
    """Return the ``(n, d⁴)`` stack of flattened Choi matrices of ``maps``."""
    return np.stack([np.asarray(channel.choi(), dtype=complex).reshape(-1) for channel in maps])


def _row_matches(stack: np.ndarray, row: np.ndarray, atol: float) -> np.ndarray:
    """Return a boolean mask of which rows of ``stack`` equal ``row`` numerically."""
    return np.isclose(stack, row, rtol=_RTOL, atol=atol).all(axis=1)


def superoperator_equal(a, b, atol: float = ATOL) -> bool:
    """Return ``True`` when the two maps agree (Choi matrices coincide)."""
    return a.equals(b, atol=atol)


def superoperator_precedes(a, b, atol: float = ORDER_ATOL) -> bool:
    """Return ``True`` when ``a ⪯ b``, i.e. ``b − a`` is completely positive."""
    return a.precedes(b, atol=atol)


def _mixed_dimensions(maps: Sequence) -> bool:
    return len({channel.dimension for channel in maps}) > 1


def deduplicate(maps: Iterable, atol: float = ATOL) -> list:
    """Return the input maps with (numerical) duplicates removed, preserving order.

    Each map's Choi signature is computed exactly once; every candidate is
    then compared against all previously kept maps in a single vectorised
    operation.
    """
    maps = list(maps)
    if len(maps) <= 1:
        return maps
    with span("deduplicate", region="compare", set_size=len(maps)):
        if _mixed_dimensions(maps):
            # Mixed dimensions cannot share a signature stack; fall back to pairwise.
            unique: List = []
            for candidate in maps:
                if not any(candidate.equals(existing, atol=atol) for existing in unique):
                    unique.append(candidate)
            return unique
        signatures = _signatures(maps)
        keep: List[int] = []
        for index in range(len(maps)):
            if keep and bool(_row_matches(signatures[keep], signatures[index], atol).any()):
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
    if _mixed_dimensions(smaller) or _mixed_dimensions(larger):
        # Mixed dimensions cannot share a signature stack; fall back to pairwise
        # (equals already returns False across dimensions).
        return all(
            any(candidate.equals(existing, atol=atol) for existing in larger)
            for candidate in smaller
        )
    if smaller[0].dimension != larger[0].dimension:
        return False
    larger_signatures = _signatures(larger)
    for candidate in _signatures(smaller):
        if not bool(_row_matches(larger_signatures, candidate, atol).any()):
            return False
    return True


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


def convergence_gap(chain: Sequence) -> float:
    """Return the trace-norm gap between the last two elements of a chain.

    Used to decide when the truncated loop semantics has numerically converged.
    """
    if len(chain) < 2:
        return float("inf")
    difference = chain[-1].choi() - chain[-2].choi()
    singular_values = np.linalg.svd(difference, compute_uv=False)
    return float(np.sum(singular_values))
