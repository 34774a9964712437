"""Structure-aware (local) super-operators: deferred cylinder extension.

The paper's semantics silently identifies every operation with its cylinder
extension on the full program register, and the Kraus representation
(:mod:`repro.superop.kraus`) follows that convention *eagerly*: a one-qubit
gate on an ``n``-qubit register is stored — and multiplied — as a dense
``2^n × 2^n`` matrix.  That eager lifting is what caps the case studies at a
handful of qubits.

:class:`LocalSuperOperator` keeps the structure instead: a completely positive
map is stored as ``(small Kraus operators, target factor positions)`` over a
register of ``num_qubits`` qubits, and *every* product with a state, a
predicate or another map is computed by contracting only the targeted tensor
factors (:func:`repro.linalg.tensor.apply_local_left` and friends).  The full
``2^n``-dimensional embedding is never materialised unless a caller explicitly
asks for it (:meth:`LocalSuperOperator.to_superoperator`), so

* applying a ``k``-local map to a state/predicate costs ``O(2^k · 4^n)``
  instead of ``O(8^n)``;
* composing a ``k``-local map with a dense Kraus-form map is a batched local
  contraction of the same cost;
* composing two local maps *stays local*: the result lives on the union of
  the two supports and lifting remains deferred until a genuinely global
  operation forces it.

Instances satisfy the shared channel protocol (``apply``, ``apply_adjoint``,
``compose``, ``choi``, ``equals``, ``precedes``) and interoperate with the
dense Kraus form, so the semantics engines can mix them freely (the
``lifting="local"`` mode of :class:`repro.semantics.denotational.DenotationOptions`
and :class:`repro.semantics.wp.WpOptions`).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..exceptions import DimensionMismatchError, SuperOperatorError
from ..hashing import tolerance_safe_hash
from ..linalg.constants import ATOL, ORDER_ATOL
from ..linalg.operators import dagger, is_positive, is_unitary, loewner_le
from ..linalg.operators import kraus_gram as kraus_gram_of
from ..linalg.tensor import (
    apply_local_conjugation,
    apply_local_left,
    apply_local_right,
    embed_operator,
    operator_support,
    restrict_operator,
)
from .choi import choi_matrix
from .kraus import SuperOperator

__all__ = ["LocalSuperOperator"]


class LocalSuperOperator:
    """A completely positive map given by Kraus operators on a few tensor factors.

    Parameters
    ----------
    small_kraus:
        Non-empty sequence of equally-shaped ``2^k × 2^k`` matrices acting on
        the ``k`` listed factors (in the given order).
    positions:
        Distinct tensor-factor positions inside the full register; may be
        empty, in which case the map is a scalar multiple of the identity.
    num_qubits:
        Size of the full register the map is interpreted over.
    validate:
        When ``True`` (default) check that the map is trace non-increasing
        (a property of the small map iff of its cylinder extension).
    """

    __slots__ = ("_smalls", "_positions", "_num_qubits")

    def __init__(
        self,
        small_kraus: Iterable[np.ndarray],
        positions: Sequence[int],
        num_qubits: int,
        validate: bool = True,
    ):
        smalls = tuple(np.asarray(operator, dtype=complex) for operator in small_kraus)
        if not smalls:
            raise SuperOperatorError("a local super-operator needs at least one Kraus operator")
        positions = tuple(int(p) for p in positions)
        side = 2 ** len(positions)
        for operator in smalls:
            if operator.ndim != 2 or operator.shape != (side, side):
                raise DimensionMismatchError(
                    f"local Kraus operators must be {side}x{side} for {len(positions)} factor(s)"
                )
        if len(set(positions)) != len(positions):
            raise SuperOperatorError(f"duplicate factor positions in {positions}")
        if any(not 0 <= p < num_qubits for p in positions):
            raise SuperOperatorError(
                f"positions {positions} out of range for {num_qubits} qubit(s)"
            )
        self._smalls = smalls
        self._positions = positions
        self._num_qubits = int(num_qubits)
        if validate and not self.is_trace_nonincreasing():
            raise SuperOperatorError("super-operator is not trace non-increasing")

    # ------------------------------------------------------------ constructors
    @classmethod
    def identity(cls, num_qubits: int) -> "LocalSuperOperator":
        """Return the identity map with empty support (nothing to contract)."""
        return cls([np.eye(1, dtype=complex)], (), num_qubits, validate=False)

    @classmethod
    def zero(cls, num_qubits: int) -> "LocalSuperOperator":
        """Return the zero map (the semantics of ``abort``) with empty support."""
        return cls([np.zeros((1, 1), dtype=complex)], (), num_qubits, validate=False)

    @classmethod
    def scalar(cls, value: float, num_qubits: int) -> "LocalSuperOperator":
        """Return ``value · I`` as a local map (``value`` must lie in ``[0, 1]``)."""
        if not -ATOL <= value <= 1.0 + ATOL:
            raise SuperOperatorError("a scalar super-operator must have a value in [0, 1]")
        factor = np.sqrt(max(value, 0.0))
        return cls([factor * np.eye(1, dtype=complex)], (), num_qubits, validate=False)

    @classmethod
    def from_unitary(
        cls, small: np.ndarray, positions: Sequence[int], num_qubits: int
    ) -> "LocalSuperOperator":
        """Return the unitary map ``ρ ↦ UρU†`` for a small unitary on ``positions``."""
        small = np.asarray(small, dtype=complex)
        if not is_unitary(small):
            raise SuperOperatorError("from_unitary requires a unitary matrix")
        return cls([small], positions, num_qubits, validate=False)

    @classmethod
    def from_kraus(
        cls, small_kraus: Iterable[np.ndarray], positions: Sequence[int], num_qubits: int
    ) -> "LocalSuperOperator":
        """Alias of the constructor, for readability at call sites."""
        return cls(small_kraus, positions, num_qubits)

    @classmethod
    def from_projector(
        cls, projector: np.ndarray, positions: Sequence[int], num_qubits: int
    ) -> "LocalSuperOperator":
        """Return the projection map ``ρ ↦ PρP`` for a small projector."""
        return cls([projector], positions, num_qubits, validate=False)

    @classmethod
    def initializer(cls, positions: Sequence[int], num_qubits: int) -> "LocalSuperOperator":
        """Return the ``Set0`` channel resetting the listed factors to ``|0…0⟩``."""
        dimension = 2 ** len(positions)
        smalls = []
        for index in range(dimension):
            operator = np.zeros((dimension, dimension), dtype=complex)
            operator[0, index] = 1.0
            smalls.append(operator)
        return cls(smalls, positions, num_qubits, validate=False)

    @classmethod
    def from_full(
        cls,
        matrix: np.ndarray,
        positions: Sequence[int],
        num_qubits: int,
        atol: float = 1e-10,
    ) -> "LocalSuperOperator":
        """Build a one-Kraus local map, shrinking ``matrix`` to its true support.

        ``matrix`` is given on the factors listed in ``positions`` but may act
        as the identity on some of them (e.g. an over-wide gate emitted by a
        structure-unaware frontend); :func:`~repro.linalg.tensor.operator_support`
        detects those factors and the stored small matrix drops them.
        """
        matrix = np.asarray(matrix, dtype=complex)
        positions = tuple(int(p) for p in positions)
        support = operator_support(matrix, atol=atol)
        if len(support) < len(positions):
            matrix = restrict_operator(matrix, support)
            positions = tuple(positions[i] for i in support)
        return cls([matrix], positions, num_qubits, validate=False)

    # ------------------------------------------------------------- properties
    @property
    def small_kraus(self) -> Tuple[np.ndarray, ...]:
        """The small (un-lifted) Kraus operators; treat as read-only."""
        return self._smalls

    @property
    def positions(self) -> Tuple[int, ...]:
        """Target tensor-factor positions, in the order of the small factors."""
        return self._positions

    @property
    def support(self) -> Tuple[int, ...]:
        """The sorted support of the map."""
        return tuple(sorted(self._positions))

    @property
    def num_qubits(self) -> int:
        """Number of qubits of the full register."""
        return self._num_qubits

    @property
    def dimension(self) -> int:
        """Dimension of the full register's Hilbert space (``2^n``)."""
        return 2 ** self._num_qubits

    # ----------------------------------------------------------- densification
    def embedded_kraus(self) -> List[np.ndarray]:
        """Materialise the dense cylinder extensions of the Kraus operators."""
        if not self._positions:
            return [operator[0, 0] * np.eye(self.dimension, dtype=complex) for operator in self._smalls]
        return [
            embed_operator(operator, self._positions, self._num_qubits)
            for operator in self._smalls
        ]

    def to_superoperator(self) -> SuperOperator:
        """Convert to a dense Kraus-form :class:`SuperOperator`."""
        return SuperOperator(self.embedded_kraus(), validate=False)

    # -------------------------------------------------------------- application
    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply the map to a (partial) density operator via local contractions."""
        rho = np.asarray(rho, dtype=complex)
        self._check_state(rho)
        result = np.zeros_like(rho)
        for operator in self._smalls:
            result = result + apply_local_conjugation(operator, rho, self._positions)
        return result

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return self.apply(rho)

    def apply_adjoint(self, observable: np.ndarray) -> np.ndarray:
        """Apply ``E†(M) = Σ_i E_i† M E_i`` to a predicate via local contractions."""
        observable = np.asarray(observable, dtype=complex)
        self._check_state(observable)
        result = np.zeros_like(observable)
        for operator in self._smalls:
            left = apply_local_left(dagger(operator), observable, self._positions)
            result = result + apply_local_right(left, operator, self._positions)
        return result

    def adjoint(self) -> "LocalSuperOperator":
        """Return ``E†`` (small Kraus operators daggered); not validated."""
        return LocalSuperOperator(
            [dagger(operator) for operator in self._smalls],
            self._positions,
            self._num_qubits,
            validate=False,
        )

    # ------------------------------------------------------------------ algebra
    def compose(self, other) -> object:
        """Return ``self ∘ other`` (first ``other``, then ``self``).

        Local ∘ local stays local on the union support (lifting remains
        deferred); composing with a dense Kraus-form map returns a Kraus-form
        map, computed by batched local contraction rather than dense matrix
        products.
        """
        if isinstance(other, LocalSuperOperator):
            self._check_register(other)
            union = sorted(set(self._positions) | set(other._positions))
            lifted_self = self._lift_to(union)
            lifted_other = other._lift_to(union)
            smalls = [a @ b for a in lifted_self for b in lifted_other]
            return LocalSuperOperator(smalls, union, self._num_qubits, validate=False)
        if isinstance(other, SuperOperator):
            self._check_dimension(other)
            stack = np.stack(other.kraus_operators)
            kraus: List[np.ndarray] = []
            for operator in self._smalls:
                kraus.extend(apply_local_left(operator, stack, self._positions))
            return SuperOperator(kraus, validate=False)
        raise SuperOperatorError(f"cannot compose with {type(other).__name__}")

    def then(self, other) -> object:
        """Return ``other ∘ self`` (first ``self``, then ``other``)."""
        if isinstance(other, (LocalSuperOperator, SuperOperator)):
            return other.compose(self)
        raise SuperOperatorError(f"cannot compose with {type(other).__name__}")

    def __matmul__(self, other) -> object:
        return self.compose(other)

    def __add__(self, other) -> object:
        """Return the pointwise sum; local + local stays local on the union support."""
        if isinstance(other, LocalSuperOperator):
            self._check_register(other)
            union = sorted(set(self._positions) | set(other._positions))
            smalls = self._lift_to(union) + other._lift_to(union)
            return LocalSuperOperator(smalls, union, self._num_qubits, validate=False)
        if isinstance(other, SuperOperator):
            self._check_dimension(other)
            return SuperOperator(
                self.embedded_kraus() + list(other.kraus_operators), validate=False
            )
        raise SuperOperatorError(f"cannot add {type(other).__name__}")

    def __mul__(self, scalar: float) -> "LocalSuperOperator":
        if scalar < -ATOL:
            raise SuperOperatorError("super-operators can only be scaled by non-negative factors")
        factor = np.sqrt(max(scalar, 0.0))
        return LocalSuperOperator(
            [factor * operator for operator in self._smalls],
            self._positions,
            self._num_qubits,
            validate=False,
        )

    __rmul__ = __mul__

    # ----------------------------------------------------- structural questions
    def small_gram(self) -> np.ndarray:
        """Return ``Σ_i E_i†E_i`` of the *small* map (``2^k × 2^k``)."""
        return kraus_gram_of(self._smalls)

    def kraus_gram(self) -> np.ndarray:
        """Return the full-register gram ``Σ_i E_i†E_i`` (materialised dense)."""
        if not self._positions:
            return self.small_gram()[0, 0] * np.eye(self.dimension, dtype=complex)
        return embed_operator(self.small_gram(), self._positions, self._num_qubits)

    def is_trace_nonincreasing(self, atol: float = ORDER_ATOL) -> bool:
        """Return ``True`` when the map is trace non-increasing up to ``atol``.

        The gram of the cylinder extension is the extension of the small gram,
        so the check runs entirely on the ``2^k``-dimensional small space.
        """
        side = self._smalls[0].shape[0]
        return loewner_le(self.small_gram(), np.eye(side), atol=atol)

    def is_trace_preserving(self, atol: float = ORDER_ATOL) -> bool:
        """Return ``True`` when the small gram equals the identity up to ``atol``."""
        side = self._smalls[0].shape[0]
        return bool(np.allclose(self.small_gram(), np.eye(side), atol=atol))

    def probability_bound(self) -> float:
        """Return ``λ_max(Σ E_i†E_i)``, computed on the small space."""
        eigenvalues = np.linalg.eigvalsh(self.small_gram())
        return float(max(eigenvalues.max(), 0.0))

    def choi(self) -> np.ndarray:
        """Return the (unnormalised) Choi matrix of the *embedded* map.

        This necessarily materialises a dense ``4^n × 4^n`` object — it is the
        comparison/densification escape hatch, not a hot-path operation.
        """
        return choi_matrix(self.embedded_kraus())

    def simplified(self, atol: float = 1e-10) -> "LocalSuperOperator":
        """Return an equivalent local map with a minimal small-Kraus decomposition.

        Support merges multiply Kraus counts exactly like dense composition
        does; re-canonicalising the *small* operators with
        :meth:`SuperOperator.simplified` (small Gram or small Choi matrix,
        whichever is smaller) keeps the count bounded by ``4^k`` without ever
        touching full-register objects.
        """
        side = self._smalls[0].shape[0]
        canonical = SuperOperator(self._smalls, validate=False).simplified(atol=atol)
        smalls = list(canonical.kraus_operators)
        if not smalls:
            smalls = [np.zeros((side, side), dtype=complex)]
        return LocalSuperOperator(smalls, self._positions, self._num_qubits, validate=False)

    # ----------------------------------------------------------------- ordering
    def equals(self, other, atol: float = ATOL) -> bool:
        """Return ``True`` when both maps are equal (same Choi matrix).

        Accepts any representation exposing ``choi()``/``dimension``.
        """
        if self.dimension != other.dimension:
            return False
        return bool(np.allclose(self.choi(), other.choi(), atol=atol))

    def precedes(self, other, atol: float = ORDER_ATOL) -> bool:
        """Return ``True`` when ``self ⪯ other`` in the CPO of super-operators."""
        if self.dimension != other.dimension:
            return False
        difference = other.choi() - self.choi()
        return is_positive(difference, atol=atol)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (LocalSuperOperator, SuperOperator)):
            return self.equals(other)
        return NotImplemented

    def __hash__(self) -> int:
        # Tolerance-based equality admits no payload-derived hash; hash only
        # the exact invariants, shared with the Kraus representation.
        return tolerance_safe_hash("superop", self.dimension)

    # -------------------------------------------------------------------- misc
    def _lift_to(self, support: Sequence[int]) -> List[np.ndarray]:
        """Return the small Kraus operators lifted onto a covering ``support``."""
        support = list(support)
        if support == list(self._positions):
            return list(self._smalls)
        if not self._positions:
            side = 2 ** len(support)
            return [operator[0, 0] * np.eye(side, dtype=complex) for operator in self._smalls]
        slots = [support.index(p) for p in self._positions]
        return [
            embed_operator(operator, slots, len(support)) for operator in self._smalls
        ]

    def _check_state(self, matrix: np.ndarray) -> None:
        if matrix.shape != (self.dimension, self.dimension):
            raise DimensionMismatchError(
                f"operand of shape {matrix.shape} incompatible with dimension {self.dimension}"
            )

    def _check_register(self, other: "LocalSuperOperator") -> None:
        if self._num_qubits != other._num_qubits:
            raise DimensionMismatchError(
                f"local super-operators live on different registers: "
                f"{self._num_qubits} vs {other._num_qubits} qubit(s)"
            )

    def _check_dimension(self, other) -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"super-operators act on different dimensions: {self.dimension} vs {other.dimension}"
            )

    def __repr__(self) -> str:
        return (
            f"LocalSuperOperator(qubits={self._num_qubits}, "
            f"support={list(self._positions)}, kraus={len(self._smalls)})"
        )
