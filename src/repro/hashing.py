"""A ``__hash__`` consistent with tolerance-based ``__eq__``.

``QuantumPredicate`` compares its matrix entry by entry within an absolute
``ORDER_ATOL``, and ``SuperOperator`` compares maps by the trace norm of
their Choi difference within ``atol``.  Neither equality is transitive, so a
hash built from the numeric payload, even after rounding, separates some
pair of equal objects that straddle a rounding boundary and puts them in
different dict buckets.  The only invariants a consistent ``__hash__`` may
inspect are exact, discrete ones: the kind tag and the dimension, which
:func:`tolerance_safe_hash` combines.  Collisions between unequal
same-dimension objects are resolved by ``__eq__`` during dict and set
probing: correctness over speed.  The AST's ``Measurement`` and ``Unitary``
follow the same rule with their own exact invariants.
"""

from __future__ import annotations

__all__ = ["tolerance_safe_hash"]


def tolerance_safe_hash(kind: str, dimension: int) -> int:
    """Return a ``__hash__`` value consistent with tolerance-based ``__eq__``.

    Equality within a tolerance is reflexive and symmetric but *not*
    transitive, so a hash that inspects the numeric payload — even quantized —
    necessarily splits some pair of equal objects across a rounding boundary.
    The only sound hash inputs are exact discrete invariants preserved by
    equality: the ``kind`` tag and the ``dimension``.  Every class whose
    instances can compare equal must pass the same ``kind`` (super-operators
    pass ``"superop"``).  Bucket collisions are resolved by ``__eq__``.
    """
    return hash(("repro-tolerance-safe", kind, dimension))
