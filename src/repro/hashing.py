"""Canonical content-addressed identity for programs, predicates and channels.

Every cacheable object in the library — AST nodes (:mod:`repro.language.ast`),
:class:`~repro.predicates.predicate.QuantumPredicate` /
:class:`~repro.predicates.assertion.QuantumAssertion`, and Kraus-form
super-operators — gets a stable SHA-256 *structural digest* computed from a
canonical serialization of its contents.  The digests form the shared
key-space of the process-wide :mod:`repro.cache` result cache (denotations,
wp/wlp transformers, prover annotations) and of the ROADMAP's service-level
deduplication.

Quantization and soundness
--------------------------

Numeric payloads are quantized once, at a single documented tolerance, before
hashing: every matrix entry is rounded to :data:`DIGEST_DECIMALS` decimals
(grid spacing :data:`DIGEST_ATOL`).  Two arrays with equal digests therefore
agree entrywise to within ``DIGEST_ATOL`` per real component, i.e. within
``√2 · DIGEST_ATOL < ATOL`` in modulus — strictly tighter than every
``__eq__`` in the library (``np.allclose`` at ``ATOL = 1e-8`` or looser).
Consequently **digest equality is a sound, conservative proxy for semantic
equality**: digest-equal implies ``__eq__``-equal.  The converse is *not*
guaranteed — two equal objects straddling a rounding boundary may digest
differently — which only costs a cache miss, never a wrong cache hit.

Tolerance-safe hashing
----------------------

The same soundness argument explains why ``__hash__`` cannot be built from
quantized bytes: tolerance-based ``__eq__`` is not transitive, so *any* hash
derived from the numeric payload can separate two equal objects near a
boundary (the historical bug this module fixes).  The only invariants a
consistent ``__hash__`` may inspect are exact, discrete ones — the kind tag
and the dimension — which :func:`tolerance_safe_hash` provides.  Hash
collisions between unequal same-dimension objects are resolved by ``__eq__``
during dict/set probing: correctness over speed.  Code that needs a
fine-grained key uses the digests above instead.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "DIGEST_DECIMALS",
    "DIGEST_ATOL",
    "digest_array",
    "digest_parts",
    "node_digest",
    "measurement_digest",
    "predicate_digest",
    "assertion_digest",
    "superop_digest",
    "register_signature",
    "options_signature",
    "tolerance_safe_hash",
]

#: Number of decimals every numeric payload is rounded to before hashing.
#: This is the single quantization tolerance of the canonical-identity layer.
DIGEST_DECIMALS = 9

#: Grid spacing of the quantization: ``10 ** -DIGEST_DECIMALS``.  Digest-equal
#: arrays agree entrywise to within this value per real component, which is
#: strictly below the library equality tolerance ``ATOL`` — see the module
#: docstring for the soundness argument.
DIGEST_ATOL = 10.0 ** (-DIGEST_DECIMALS)


def _quantized_bytes(array: np.ndarray) -> bytes:
    """Return the canonical byte serialization of a complex array.

    Rounds to the digest grid and adds ``0.0`` so that ``-0.0`` (whose IEEE-754
    byte pattern differs from ``+0.0``) normalises to ``+0.0`` in both the real
    and imaginary components before ``tobytes()``.
    """
    rounded = np.round(np.ascontiguousarray(array), DIGEST_DECIMALS) + 0.0
    return np.ascontiguousarray(rounded).tobytes()


def digest_array(array) -> str:
    """Return the SHA-256 hex digest of a numeric array's canonical form.

    The shape participates in the digest so that reshaped views of the same
    buffer do not collide.
    """
    array = np.asarray(array, dtype=complex)
    hasher = hashlib.sha256()
    hasher.update(repr(array.shape).encode())
    hasher.update(_quantized_bytes(array))
    return hasher.hexdigest()


def digest_parts(*parts) -> str:
    """Return the SHA-256 hex digest of a sequence of heterogeneous parts.

    Each part (``bytes`` passes through; anything else is ``repr``-encoded) is
    length-prefixed so that adjacent parts cannot be re-bracketed into a
    colliding serialization.
    """
    hasher = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else repr(part).encode()
        hasher.update(len(data).to_bytes(8, "big"))
        hasher.update(data)
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# AST node digests
# ---------------------------------------------------------------------------

#: id-keyed memo of node digests.  Entries hold a weakref so that a recycled
#: ``id()`` from a garbage-collected node can never alias a live one — the
#: exact bug class the content-digest layer replaces — and the finalizer
#: purges the slot when the node dies.
_NODE_DIGESTS: Dict[int, Tuple["weakref.ref", str]] = {}


def _evict_node_digest(key: int, ref: "weakref.ref") -> None:
    """Weakref finalizer: drop a memo slot only if it still holds this ref."""
    entry = _NODE_DIGESTS.get(key)
    if entry is not None and entry[0] is ref:
        del _NODE_DIGESTS[key]


def node_digest(program) -> str:
    """Return the canonical structural digest of an AST node.

    The digest covers exactly what the node's ``__eq__`` compares: construct
    kind, qubit tuples, quantized operator payloads and child digests.  Display
    names (``Unitary.name``, ``Measurement.name``) are excluded, matching the
    equality semantics.  Digests are memoized per live node object (programs
    are immutable), guarded by weak references against id reuse.
    """
    key = id(program)
    entry = _NODE_DIGESTS.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    digest = _compute_node_digest(program)
    try:
        ref = weakref.ref(program, lambda r, key=key: _evict_node_digest(key, r))
    except TypeError:
        return digest
    _NODE_DIGESTS[key] = (ref, digest)
    return digest


def _compute_node_digest(program) -> str:
    """Compute (without memoization) the structural digest of one node."""
    from .language import ast

    if isinstance(program, ast.Skip):
        return digest_parts("skip")
    if isinstance(program, ast.Abort):
        return digest_parts("abort")
    if isinstance(program, ast.Init):
        return digest_parts("init", program.qubits)
    if isinstance(program, ast.Unitary):
        return digest_parts("unitary", program.qubits, digest_array(program.matrix))
    if isinstance(program, ast.Seq):
        return digest_parts("seq", *[node_digest(s) for s in program.statements])
    if isinstance(program, ast.NDet):
        return digest_parts("ndet", *[node_digest(b) for b in program.branches])
    if isinstance(program, ast.If):
        return digest_parts(
            "if",
            measurement_digest(program.measurement),
            program.qubits,
            node_digest(program.then_branch),
            node_digest(program.else_branch),
        )
    if isinstance(program, ast.While):
        return digest_parts(
            "while",
            measurement_digest(program.measurement),
            program.qubits,
            node_digest(program.body),
        )
    raise TypeError(f"cannot digest program construct {type(program).__name__}")


def measurement_digest(measurement) -> str:
    """Return the digest of a two-outcome measurement (name excluded, as in ``__eq__``)."""
    return digest_parts(
        "measurement", digest_array(measurement.p0), digest_array(measurement.p1)
    )


# ---------------------------------------------------------------------------
# Predicate / assertion / super-operator digests
# ---------------------------------------------------------------------------


def predicate_digest(predicate) -> str:
    """Return the digest of a :class:`QuantumPredicate` (its quantized matrix)."""
    return digest_parts("predicate", digest_array(predicate.matrix))


def assertion_digest(assertion) -> str:
    """Return the digest of a :class:`QuantumAssertion`.

    Member digests are sorted so the result is order-insensitive, matching the
    set semantics of ``QuantumAssertion.set_equal``.
    """
    return digest_parts(
        "assertion",
        *sorted(predicate_digest(predicate) for predicate in assertion.predicates),
    )


def superop_digest(channel) -> str:
    """Return the digest of a super-operator: its dimension and quantized Choi matrix.

    Equal maps with different Kraus decompositions share the Choi matrix, so
    they digest alike (up to the rounding-boundary caveat above).
    """
    return digest_parts("superop", channel.dimension, digest_array(channel.choi()))


# ---------------------------------------------------------------------------
# Cache-key helper signatures
# ---------------------------------------------------------------------------


def register_signature(register) -> Tuple[str, ...]:
    """Return the exact (hashable) identity of a register: its ordered qubit names."""
    return tuple(register.names)


def options_signature(options) -> Optional[tuple]:
    """Return a hashable signature of a dataclass of options, or ``None``.

    The signature covers every field by ``repr``, except ``schedulers``:
    explicit scheduler objects carry arbitrary user state the cache cannot
    canonicalise, so any non-``None`` value makes the whole computation
    *uncacheable* (returns ``None``) while the default policy
    (``schedulers=None``, deterministic seeded sampling) stays cacheable.
    """
    parts: List[tuple] = [("type", type(options).__name__)]
    for field in dataclass_fields(options):
        value = getattr(options, field.name)
        if field.name == "schedulers":
            if value is not None:
                return None
            continue
        parts.append((field.name, repr(value)))
    return tuple(parts)


def tolerance_safe_hash(kind: str, dimension: int) -> int:
    """Return a ``__hash__`` value consistent with tolerance-based ``__eq__``.

    ``np.allclose``-style equality is reflexive and symmetric but *not*
    transitive, so a hash that inspects the numeric payload — even quantized —
    necessarily splits some pair of equal objects across a rounding boundary.
    The only sound hash inputs are exact discrete invariants preserved by
    equality: the ``kind`` tag and the ``dimension``.  Every class whose
    instances can compare equal must pass the same ``kind`` (super-operators
    pass ``"superop"``).  Bucket collisions are resolved by ``__eq__``.
    """
    return hash(("repro-tolerance-safe", kind, dimension))
