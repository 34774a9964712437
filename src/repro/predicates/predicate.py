"""Quantum predicates: hermitian operators ``M`` with ``0 ⊑ M ⊑ I`` (Sec. 4).

A predicate induces the expectation function ``ρ ↦ tr(Mρ)``, interpreted as the
degree to which the state ``ρ`` satisfies the property described by ``M``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..exceptions import DimensionMismatchError, PredicateError
from ..hashing import tolerance_safe_hash
from ..linalg.constants import ATOL, ORDER_ATOL
from ..linalg.operators import (
    dagger,
    is_hermitian,
    is_predicate_matrix,
    is_projector,
    loewner_le,
    num_qubits_of,
    operators_close,
)

__all__ = ["QuantumPredicate", "distinct_predicates"]


class QuantumPredicate:
    """A quantum predicate, i.e. an observable between ``0`` and ``I``.

    Parameters
    ----------
    matrix:
        Square hermitian matrix with eigenvalues in ``[0, 1]``.
    name:
        Optional human-readable name used when pretty-printing proof outlines.
    validate:
        When ``True`` (default), the structural requirements are checked.
    """

    __slots__ = ("_matrix", "name")

    def __init__(self, matrix: np.ndarray, name: str | None = None, validate: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if validate:
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise PredicateError(f"a predicate must be a square matrix, got {matrix.shape}")
            if not is_hermitian(matrix):
                raise PredicateError("a quantum predicate must be hermitian")
            if not is_predicate_matrix(matrix):
                raise PredicateError("a quantum predicate must satisfy 0 ⊑ M ⊑ I")
        self._matrix = matrix
        self.name = name

    # ---------------------------------------------------------------- factory
    @classmethod
    def identity(cls, num_qubits: int, name: str = "I") -> "QuantumPredicate":
        """Return the identity predicate (the quantum analogue of ``true``)."""
        return cls(np.eye(2 ** num_qubits, dtype=complex), name=name, validate=False)

    @classmethod
    def zero(cls, num_qubits: int, name: str = "Zero") -> "QuantumPredicate":
        """Return the zero predicate (the quantum analogue of ``false``)."""
        return cls(np.zeros((2 ** num_qubits, 2 ** num_qubits), dtype=complex), name=name, validate=False)

    @classmethod
    def from_state(cls, state: np.ndarray, name: str | None = None) -> "QuantumPredicate":
        """Return the rank-one projector ``[|ψ⟩]`` onto a pure state."""
        state = np.asarray(state, dtype=complex).reshape(-1, 1)
        norm = np.linalg.norm(state)
        if norm <= ATOL:
            raise PredicateError("cannot build a predicate from the zero vector")
        state = state / norm
        return cls(state @ dagger(state), name=name, validate=False)

    @classmethod
    def uniform(cls, value: float, num_qubits: int, name: str | None = None) -> "QuantumPredicate":
        """Return ``value · I`` for ``value ∈ [0, 1]``."""
        if not 0.0 <= value <= 1.0:
            raise PredicateError("a uniform predicate needs a value in [0, 1]")
        return cls(value * np.eye(2 ** num_qubits, dtype=complex), name=name, validate=False)

    # --------------------------------------------------------------- accessors
    @property
    def matrix(self) -> np.ndarray:
        """The underlying hermitian matrix."""
        return self._matrix

    @property
    def dimension(self) -> int:
        """Dimension of the Hilbert space the predicate acts on."""
        return self._matrix.shape[0]

    @property
    def num_qubits(self) -> int:
        """Number of qubits of the underlying Hilbert space."""
        return num_qubits_of(self._matrix)

    def is_projector(self) -> bool:
        """Return ``True`` when the predicate is a projector."""
        return is_projector(self._matrix)

    # ------------------------------------------------------------- evaluation
    def expectation(self, rho: np.ndarray) -> float:
        """Return ``tr(Mρ)`` — the expected satisfaction of the predicate by ``ρ``."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != self._matrix.shape:
            raise DimensionMismatchError(
                f"state of shape {rho.shape} incompatible with predicate of shape {self._matrix.shape}"
            )
        return float(np.real(np.trace(self._matrix @ rho)))

    # ----------------------------------------------------------------- algebra
    def conjugate_by(self, operator: np.ndarray) -> "QuantumPredicate":
        """Return ``A† M A`` — used by the (Unit) and (Init) rules."""
        operator = np.asarray(operator, dtype=complex)
        return QuantumPredicate(dagger(operator) @ self._matrix @ operator, validate=False)

    def apply_superoperator_adjoint(self, channel) -> "QuantumPredicate":
        """Return ``E†(M)`` for a super-operator ``E`` (clipped to stay a predicate)."""
        image = channel.apply_adjoint(self._matrix)
        return QuantumPredicate(clip_to_predicate(image), validate=False)

    def complement(self) -> "QuantumPredicate":
        """Return ``I − M``."""
        return QuantumPredicate(np.eye(self.dimension, dtype=complex) - self._matrix, validate=False)

    def scaled(self, factor: float) -> "QuantumPredicate":
        """Return ``factor · M`` for ``factor ∈ [0, 1]``."""
        if not 0.0 <= factor <= 1.0:
            raise PredicateError("predicates can only be scaled by factors in [0, 1]")
        return QuantumPredicate(factor * self._matrix, validate=False)

    def __add__(self, other: "QuantumPredicate") -> "QuantumPredicate":
        """Return the sum ``M + N`` (must still be a predicate, e.g. for orthogonal terms)."""
        self._check_dimension(other)
        return QuantumPredicate(self._matrix + other._matrix)

    def tensor(self, other: "QuantumPredicate") -> "QuantumPredicate":
        """Return ``M ⊗ N``."""
        return QuantumPredicate(np.kron(self._matrix, other._matrix), validate=False)

    def embed(self, qubits: Sequence[str], register) -> "QuantumPredicate":
        """Promote the predicate from the named ``qubits`` to a full register.

        The cylinder extension of a predicate is ``M ⊗ I`` on the remaining
        qubits, matching the paper's notational convention.
        """
        return QuantumPredicate(register.embed(self._matrix, qubits), name=self.name, validate=False)

    # ---------------------------------------------------------------- ordering
    def loewner_le(self, other: "QuantumPredicate", atol: float = ORDER_ATOL) -> bool:
        """Return ``True`` when ``self ⊑ other`` in the Löwner order."""
        self._check_dimension(other)
        return loewner_le(self._matrix, other._matrix, atol=atol)

    def close_to(self, other: "QuantumPredicate", atol: float = ORDER_ATOL) -> bool:
        """Return ``True`` when the two predicates are numerically equal."""
        return operators_close(self._matrix, other._matrix, atol=atol)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuantumPredicate) and self.close_to(other)

    def __hash__(self) -> int:
        # Tolerance-based equality admits no payload-derived hash (rounded
        # bytes split equal predicates near a rounding boundary); hash only
        # the exact invariants and let __eq__ resolve bucket collisions.
        return tolerance_safe_hash("predicate", self.dimension)

    def _check_dimension(self, other: "QuantumPredicate") -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"predicates act on different dimensions: {self.dimension} vs {other.dimension}"
            )

    def __repr__(self) -> str:
        label = self.name or "QuantumPredicate"
        return f"{label}(dim={self.dimension})"


def distinct_predicates(predicates: Sequence[QuantumPredicate]) -> List[QuantumPredicate]:
    """Return ``predicates`` without those close to an earlier kept one, in order.

    ``a`` is dropped when ``|a − b| ≤ ORDER_ATOL`` holds in every entry for
    some kept ``b``: the absolute test :meth:`QuantumPredicate.close_to`
    runs.  So the kept list is exactly the one of the pairwise ``close_to``
    loop, but each predicate is compared with the stack of kept matrices in
    one numpy expression.  The predicates must share one dimension.
    """
    if len(predicates) < 2:
        return list(predicates)
    kept: List[QuantumPredicate] = []
    stack = np.empty((1,) + predicates[0].matrix.shape, dtype=complex)
    for predicate in predicates:
        matrix = predicate.matrix
        count = len(kept)
        if count and (np.abs(matrix - stack[:count]) <= ORDER_ATOL).all(axis=(1, 2)).any():
            continue
        if count == len(stack):
            stack = np.concatenate([stack, np.empty_like(stack)])
        stack[count] = matrix
        kept.append(predicate)
    return kept


def clip_to_predicate(matrix: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    """Clip numerical excursions so ``matrix`` satisfies ``0 ⊑ M ⊑ I``.

    Adjoints of trace non-increasing maps keep predicates inside ``[0, I]``
    mathematically, but floating-point round-off can push eigenvalues slightly
    outside the interval; this helper projects them back.  The hermitian part
    is returned as it is when every eigenvalue lies in ``[−atol, 1 + atol]``
    (an absolute tolerance, with no relative term); otherwise its eigenvalues
    are clipped to ``[0, 1]``.  The eigenvalues decide, so the eigenvectors
    are computed only for a matrix that is actually clipped.
    """
    matrix = np.asarray(matrix, dtype=complex)
    hermitian = (matrix + dagger(matrix)) / 2
    eigenvalues = np.linalg.eigvalsh(hermitian)
    if eigenvalues[0] >= -atol and eigenvalues[-1] <= 1.0 + atol:
        return hermitian
    eigenvalues, eigenvectors = np.linalg.eigh(hermitian)
    return (eigenvectors * np.clip(eigenvalues, 0.0, 1.0)) @ dagger(eigenvectors)
