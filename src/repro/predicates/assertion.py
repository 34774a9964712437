"""Quantum assertions: finite sets of quantum predicates (Sec. 4 of the paper).

An assertion ``Θ = {M_1, …, M_k}`` describes a property of quantum states via
the *guaranteed* expectation ``Exp(ρ ⊨ Θ) = min_i tr(M_i ρ)``, reflecting the
pessimistic (demonic) reading of nondeterminism.  Assertions form a complete
lattice under subset union, and all the element-wise operations used by the
proof rules (adjoint super-operator application, conjugation, summation of
measurement branches) are provided here.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

import numpy as np

from ..exceptions import AssertionFormatError, DimensionMismatchError
from .predicate import QuantumPredicate, clip_to_predicate, distinct_predicates

__all__ = ["QuantumAssertion", "measured_sum"]


class QuantumAssertion:
    """A finite, non-empty set of :class:`QuantumPredicate` of equal dimension."""

    __slots__ = ("_predicates", "name")

    def __init__(
        self,
        predicates: Iterable[QuantumPredicate | np.ndarray],
        name: str | None = None,
        deduplicate: bool = True,
    ):
        items: List[QuantumPredicate] = []
        for predicate in predicates:
            if not isinstance(predicate, QuantumPredicate):
                predicate = QuantumPredicate(predicate)
            items.append(predicate)
        if not items:
            raise AssertionFormatError("a quantum assertion must contain at least one predicate")
        dimension = items[0].dimension
        for predicate in items:
            if predicate.dimension != dimension:
                raise DimensionMismatchError(
                    "all predicates of an assertion must act on the same Hilbert space"
                )
        if deduplicate:
            items = distinct_predicates(items)
        self._predicates = tuple(items)
        self.name = name

    # ---------------------------------------------------------------- factory
    @classmethod
    def singleton(cls, predicate: QuantumPredicate | np.ndarray, name: str | None = None) -> "QuantumAssertion":
        """Wrap a single predicate as an assertion."""
        return cls([predicate], name=name)

    @classmethod
    def identity(cls, num_qubits: int) -> "QuantumAssertion":
        """Return the assertion ``{I}`` (the weakest property, analogue of ``true``)."""
        return cls([QuantumPredicate.identity(num_qubits)], name="I")

    @classmethod
    def zero(cls, num_qubits: int) -> "QuantumAssertion":
        """Return the assertion ``{0}`` (the strongest property, analogue of ``false``)."""
        return cls([QuantumPredicate.zero(num_qubits)], name="Zero")

    # -------------------------------------------------------------- accessors
    @property
    def predicates(self) -> tuple:
        """The predicates of the assertion (deduplicated, order preserved)."""
        return self._predicates

    @property
    def matrices(self) -> List[np.ndarray]:
        """The underlying matrices of the predicates."""
        return [predicate.matrix for predicate in self._predicates]

    @property
    def dimension(self) -> int:
        """Dimension of the Hilbert space the assertion refers to."""
        return self._predicates[0].dimension

    @property
    def num_qubits(self) -> int:
        """Number of qubits of the underlying Hilbert space."""
        return self._predicates[0].num_qubits

    def is_singleton(self) -> bool:
        """Return ``True`` when the assertion contains exactly one predicate."""
        return len(self._predicates) == 1

    def __len__(self) -> int:
        return len(self._predicates)

    def __iter__(self) -> Iterator[QuantumPredicate]:
        return iter(self._predicates)

    def __getitem__(self, index: int) -> QuantumPredicate:
        return self._predicates[index]

    # ------------------------------------------------------------- evaluation
    def expectation(self, rho: np.ndarray) -> float:
        """Return ``Exp(ρ ⊨ Θ) = min_{M ∈ Θ} tr(Mρ)`` (Definition 4.1)."""
        return min(predicate.expectation(rho) for predicate in self._predicates)

    # ----------------------------------------------------------------- algebra
    def union(self, other: "QuantumAssertion") -> "QuantumAssertion":
        """Return the set union ``Θ ∪ Ψ`` (the lattice join used by rule (Union))."""
        self._check_dimension(other)
        return QuantumAssertion(list(self._predicates) + list(other._predicates))

    def __or__(self, other: "QuantumAssertion") -> "QuantumAssertion":
        return self.union(other)

    def map(self, function) -> "QuantumAssertion":
        """Apply ``function`` to every predicate and collect the results."""
        return QuantumAssertion([function(predicate) for predicate in self._predicates])

    def apply_superoperator_adjoint(self, channel) -> "QuantumAssertion":
        """Return ``E†(Θ)`` element-wise — the action used by wp/wlp computations."""
        return self.map(lambda predicate: predicate.apply_superoperator_adjoint(channel))

    def conjugate_by(self, operator: np.ndarray) -> "QuantumAssertion":
        """Return ``{A† M A : M ∈ Θ}``."""
        return self.map(lambda predicate: predicate.conjugate_by(operator))

    def elementwise_sum(self, other: "QuantumAssertion") -> "QuantumAssertion":
        """Return ``{M + N : M ∈ Θ, N ∈ Ψ}`` — used by the (Meas)/(While) rules.

        The element-wise sum follows the paper's convention of extending
        operations on individual predicates to assertions.
        """
        from ..exceptions import PredicateError
        from ..linalg.operators import is_predicate_matrix
        from .predicate import clip_to_predicate

        self._check_dimension(other)
        predicates = []
        for mine in self._predicates:
            for theirs in other._predicates:
                total = mine.matrix + theirs.matrix
                if not is_predicate_matrix(total, atol=1e-6):
                    raise PredicateError(
                        "element-wise sum of predicates exceeds the identity; "
                        "the two assertions are not supported on orthogonal branches"
                    )
                predicates.append(QuantumPredicate(clip_to_predicate(total), validate=False))
        return QuantumAssertion(predicates)

    def embed(self, qubits: Sequence[str], register) -> "QuantumAssertion":
        """Promote every predicate from the named ``qubits`` to a full register."""
        return self.map(lambda predicate: predicate.embed(qubits, register))

    def scaled(self, factor: float) -> "QuantumAssertion":
        """Return ``{factor · M : M ∈ Θ}``."""
        return self.map(lambda predicate: predicate.scaled(factor))

    # ---------------------------------------------------------------- equality
    def set_equal(self, other: "QuantumAssertion") -> bool:
        """Return ``True`` when both assertions contain the same predicates (as sets)."""
        if self.dimension != other.dimension:
            return False
        forward = all(any(p.close_to(q) for q in other._predicates) for p in self._predicates)
        backward = all(any(p.close_to(q) for q in self._predicates) for p in other._predicates)
        return forward and backward

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuantumAssertion) and self.set_equal(other)

    def __hash__(self) -> int:
        # Member predicates hash by exact invariants only (see
        # QuantumPredicate.__hash__); the frozenset keeps the result
        # order-insensitive, matching set_equal.
        return hash(frozenset(hash(predicate) for predicate in self._predicates))

    def _check_dimension(self, other: "QuantumAssertion") -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"assertions act on different dimensions: {self.dimension} vs {other.dimension}"
            )

    def __repr__(self) -> str:
        label = self.name or "QuantumAssertion"
        return f"{label}(dim={self.dimension}, predicates={len(self._predicates)})"


def measured_sum(p0, zero_branch: QuantumAssertion, p1, one_branch: QuantumAssertion) -> QuantumAssertion:
    """Return the assertion ``P⁰(Θ₀) + P¹(Θ₁)`` used by rules (Meas) and (While).

    ``p0``/``p1`` are the measurement's projection super-operators.  Every
    pair of predicates from the two operand assertions is combined, matching
    the paper's extension of the measured sum to assertion sets.
    """
    predicates = []
    for m0 in zero_branch.predicates:
        for m1 in one_branch.predicates:
            matrix = p0.apply(m0.matrix) + p1.apply(m1.matrix)
            predicates.append(QuantumPredicate(clip_to_predicate(matrix), validate=False))
    return QuantumAssertion(predicates)
