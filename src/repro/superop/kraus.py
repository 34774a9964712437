"""Super-operators in Kraus form (Sec. 2 of the paper).

A :class:`SuperOperator` is a completely positive, trace non-increasing linear
map on the operators of a fixed-dimension Hilbert space, represented by a
finite list of Kraus operators ``{E_i}`` so that ``E(ρ) = Σ_i E_i ρ E_i†``.

The class supports exactly the algebra used by the denotational and weakest
precondition semantics: application to states, adjoint application to
predicates, composition, pointwise addition, scaling, tensor products and the
CPO order ``⪯`` of Sec. 3.2.

The Kraus form is the representation the semantic engines compute with; the
Choi matrix of :mod:`~repro.superop.choi` is derived from it for comparisons.
The ``k`` operators are stored as one read-only ``(k, d, d)`` complex array,
so every operation of the algebra is one batched numpy call on it:
composition is one broadcast ``matmul`` of ``k·l`` products, addition one
``concatenate``, and the gram ``Σ_i E_i†E_i`` one matrix product.  Applying
a map to a state costs ``k·d³``; the operator count multiplies under
composition.  :meth:`equals` and :meth:`precedes` build a ``d²×d²`` Choi
matrix per map, while the set comparisons of :mod:`~repro.superop.compare`
build one only to confirm a pair their probe screen cannot separate.
:meth:`SuperOperator.simplified` keeps the count in check with a pivoted
Cholesky factorisation of the ``k×k`` Gram matrix of the Kraus operators
when ``k < d²`` and of the Choi matrix otherwise, so compressing a map never
builds a ``d²×d²`` object that is larger than its Kraus list and never
eigensolves.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..exceptions import DimensionMismatchError, SuperOperatorError
from ..hashing import tolerance_safe_hash
from ..linalg.constants import ATOL, ORDER_ATOL
from ..linalg.operators import (
    is_positive,
    is_unitary,
    kraus_gram,
    loewner_le,
    num_qubits_of,
    operator_stack,
    psd_factor,
)
from ..telemetry.tracing import span
from .choi import choi_matrix, kraus_from_choi

__all__ = ["SuperOperator"]


class SuperOperator:
    """A completely positive map given by Kraus operators.

    Parameters
    ----------
    kraus_operators:
        Non-empty sequence of equally-shaped square matrices, or one
        ``(k, d, d)`` array.  The map keeps its own read-only copy.
    validate:
        When ``True`` (default) the constructor checks that the map is trace
        non-increasing (``Σ E_i†E_i ⊑ I``), as assumed throughout the paper.
    """

    __slots__ = ("_kraus", "_dimension")

    def __init__(self, kraus_operators: Iterable[np.ndarray], validate: bool = True):
        kraus = operator_stack(kraus_operators)
        if not len(kraus):
            raise SuperOperatorError("a super-operator needs at least one Kraus operator")
        if kraus is kraus_operators:
            kraus = kraus.copy()  # freeze a copy, never the caller's array
        self._set(kraus)
        if validate and not self.is_trace_nonincreasing():
            raise SuperOperatorError("super-operator is not trace non-increasing")

    def _set(self, kraus: np.ndarray) -> None:
        """Store ``kraus`` as the map's C-contiguous, read-only ``(k, d, d)`` array."""
        kraus = np.ascontiguousarray(kraus)
        kraus.setflags(write=False)
        self._kraus = kraus
        self._dimension = kraus.shape[1]

    @classmethod
    def _of(cls, kraus: np.ndarray) -> "SuperOperator":
        """Wrap a ``(k, d, d)`` complex array this module just computed, unchecked."""
        channel = cls.__new__(cls)
        channel._set(kraus)
        return channel

    def __reduce__(self):
        # Unpickling goes through the constructor, so the array stays read-only.
        return SuperOperator, (self._kraus, False)

    # ------------------------------------------------------------ constructors
    @classmethod
    def identity(cls, dimension: int) -> "SuperOperator":
        """Return the identity super-operator on a ``dimension``-dimensional space."""
        return cls._of(np.eye(dimension, dtype=complex)[np.newaxis])

    @classmethod
    def zero(cls, dimension: int) -> "SuperOperator":
        """Return the zero super-operator (the semantics of ``abort``)."""
        return cls._of(np.zeros((1, dimension, dimension), dtype=complex))

    @classmethod
    def from_unitary(cls, unitary: np.ndarray) -> "SuperOperator":
        """Return the unitary super-operator ``ρ ↦ UρU†``."""
        unitary = np.asarray(unitary, dtype=complex)
        if not is_unitary(unitary):
            raise SuperOperatorError("from_unitary requires a unitary matrix")
        return cls([unitary], validate=False)

    @classmethod
    def from_kraus(cls, kraus_operators: Iterable[np.ndarray]) -> "SuperOperator":
        """Alias of the constructor, for readability at call sites."""
        return cls(kraus_operators)

    @classmethod
    def scalar(cls, value: float, dimension: int) -> "SuperOperator":
        """Return ``value · I`` as a super-operator (``value`` must lie in ``[0, 1]``).

        This realises the paper's convention that a probability ``p ∈ [0, 1]``
        can be read as the super-operator ``p · I`` on any system; in particular
        ``1`` is the semantics of ``skip`` and ``0`` the semantics of ``abort``.
        """
        if not -ATOL <= value <= 1.0 + ATOL:
            raise SuperOperatorError("a scalar super-operator must have a value in [0, 1]")
        return cls._of(np.sqrt(max(value, 0.0)) * np.eye(dimension, dtype=complex)[np.newaxis])

    @classmethod
    def from_projectors(cls, projectors: Iterable[np.ndarray]) -> "SuperOperator":
        """Return the measurement channel ``ρ ↦ Σ_i P_i ρ P_i``."""
        return cls(projectors)

    @classmethod
    def initializer(cls, num_qubits: int) -> "SuperOperator":
        """Return the ``Set0`` channel that resets ``num_qubits`` qubits to ``|0…0⟩``.

        Kraus operators are ``|0⟩⟨i|`` for each basis vector ``|i⟩`` (Fig. 2).
        """
        dimension = 2 ** num_qubits
        kraus = np.zeros((dimension, dimension, dimension), dtype=complex)
        kraus[:, 0, :] = np.eye(dimension)
        return cls._of(kraus)

    # ------------------------------------------------------------- properties
    @property
    def kraus_operators(self) -> np.ndarray:
        """The Kraus operators as one read-only ``(k, d, d)`` array.

        It is the map's own storage, not a copy: writing into it raises.
        ``len``, indexing, iteration and ``np.stack`` treat it as the
        sequence of the ``k`` operators.
        """
        return self._kraus

    @property
    def dimension(self) -> int:
        """Dimension of the underlying Hilbert space."""
        return self._dimension

    @property
    def num_qubits(self) -> int:
        """Number of qubits of the underlying space."""
        return num_qubits_of(self._kraus[0])

    def kraus_gram(self) -> np.ndarray:
        """Return ``Σ_i E_i† E_i`` — equals ``I`` exactly for trace-preserving maps."""
        return kraus_gram(self._kraus)

    def is_trace_preserving(self, atol: float = ORDER_ATOL) -> bool:
        """Return ``True`` when ``Σ E_i†E_i = I`` up to ``atol``."""
        return bool(np.allclose(self.kraus_gram(), np.eye(self._dimension), atol=atol))

    def is_trace_nonincreasing(self, atol: float = ORDER_ATOL) -> bool:
        """Return ``True`` when ``Σ E_i†E_i ⊑ I`` up to ``atol``."""
        return loewner_le(self.kraus_gram(), np.eye(self._dimension), atol=atol)

    def choi(self) -> np.ndarray:
        """Return the (unnormalised) Choi matrix of the map."""
        return choi_matrix(self._kraus)

    def choi_trace(self) -> float:
        """Return ``tr Choi(E) = Σ_i ‖E_i‖²_F``, read off the Kraus operators.

        For a completely positive map this is its trace norm.
        """
        return float(np.vdot(self._kraus, self._kraus).real)

    # -------------------------------------------------------------- application
    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply the super-operator to a (partial) density operator."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self._dimension, self._dimension):
            raise DimensionMismatchError(
                f"state of shape {rho.shape} incompatible with dimension {self._dimension}"
            )
        # [E_1ρ … E_kρ] side by side times [E_1†; …; E_k†] stacked: one
        # product sums the k terms.
        dimension = self._dimension
        images = (self._kraus @ rho).transpose(1, 0, 2).reshape(dimension, -1)
        return images @ self._kraus.conj().transpose(0, 2, 1).reshape(-1, dimension)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return self.apply(rho)

    def apply_adjoint(self, observable: np.ndarray) -> np.ndarray:
        """Apply the adjoint map ``E†(M) = Σ_i E_i† M E_i`` to a predicate/observable."""
        observable = np.asarray(observable, dtype=complex)
        if observable.shape != (self._dimension, self._dimension):
            raise DimensionMismatchError(
                f"observable of shape {observable.shape} incompatible with dimension {self._dimension}"
            )
        # [E_1† … E_k†] side by side times [M E_1; …; M E_k] stacked: one
        # product sums the k terms.
        dimension = self._dimension
        adjoints = self._kraus.conj().transpose(2, 0, 1).reshape(dimension, -1)
        return adjoints @ (observable @ self._kraus).reshape(-1, dimension)

    def adjoint(self) -> "SuperOperator":
        """Return ``E†`` as a super-operator (Kraus operators ``E_i†``).

        Note the adjoint of a trace non-increasing map is generally *not* trace
        non-increasing, so no validation is performed.
        """
        return SuperOperator._of(self._kraus.conj().transpose(0, 2, 1))

    # ------------------------------------------------------------------ algebra
    def compose(self, other: "SuperOperator") -> "SuperOperator":
        """Return ``self ∘ other`` (first ``other``, then ``self``).

        The ``k·l`` products ``E_i F_j`` come out in the order ``i``-major.
        """
        self._check_dimension(other)
        products = self._kraus[:, np.newaxis] @ other._kraus[np.newaxis]
        return SuperOperator._of(products.reshape(-1, self._dimension, self._dimension))

    def then(self, other: "SuperOperator") -> "SuperOperator":
        """Return ``other ∘ self`` (first ``self``, then ``other``)."""
        return other.compose(self)

    def __matmul__(self, other: "SuperOperator") -> "SuperOperator":
        return self.compose(other)

    def __add__(self, other: "SuperOperator") -> "SuperOperator":
        """Return the pointwise sum (Kraus lists concatenated)."""
        self._check_dimension(other)
        return SuperOperator._of(np.concatenate([self._kraus, other._kraus]))

    def __mul__(self, scalar: float) -> "SuperOperator":
        if scalar < -ATOL:
            raise SuperOperatorError("super-operators can only be scaled by non-negative factors")
        return SuperOperator._of(np.sqrt(max(scalar, 0.0)) * self._kraus)

    __rmul__ = __mul__

    def tensor(self, other: "SuperOperator") -> "SuperOperator":
        """Return the tensor product ``self ⊗ other`` (operators ``E_i ⊗ F_j``, ``i``-major)."""
        dimension = self._dimension * other._dimension
        products = np.einsum("aij,bkl->abikjl", self._kraus, other._kraus)
        return SuperOperator._of(products.reshape(-1, dimension, dimension))

    def embed(self, qubits: Sequence[str], register) -> "SuperOperator":
        """Return the cylinder extension of the map onto a full :class:`QubitRegister`.

        The map itself is the extension when ``qubits`` is the whole register
        in order.
        """
        register.check_contains(qubits)
        if (
            self._dimension == register.dimension
            and register.positions(qubits) == tuple(range(register.num_qubits))
        ):
            return self
        embedded = [register.embed(operator, qubits) for operator in self._kraus]
        return SuperOperator._of(np.stack(embedded))

    # ----------------------------------------------------------------- ordering
    def equals(self, other: "SuperOperator", atol: float = ATOL) -> bool:
        """Return ``True`` when both maps are equal (same Choi matrix)."""
        if self._dimension != other.dimension:
            return False
        return bool(np.allclose(self.choi(), other.choi(), atol=atol))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SuperOperator):
            return self.equals(other)
        return NotImplemented

    def __hash__(self) -> int:
        # Tolerance-based equality admits no payload-derived hash (rounding a
        # boundary-straddling pair of equal maps can split buckets); hash only
        # the exact invariants.
        return tolerance_safe_hash("superop", self._dimension)

    def precedes(self, other: "SuperOperator", atol: float = ORDER_ATOL) -> bool:
        """Return ``True`` when ``self ⪯ other`` in the CPO of super-operators.

        By Lemma 3.1 this holds iff ``other − self`` is completely positive,
        i.e. iff the difference of Choi matrices is positive semidefinite.
        """
        if self._dimension != other.dimension:
            return False
        difference = other.choi() - self.choi()
        return is_positive(difference, atol=atol)

    # ------------------------------------------------------------------ misc
    def simplified(self, atol: float = 1e-10) -> "SuperOperator":
        """Return an equivalent map with a minimal Kraus decomposition.

        With row ``i`` of the ``k × d²`` matrix ``V`` equal to ``vec(E_i)``,
        the Choi matrix ``Vᵀ V̄`` (``d² × d²``) and the Gram matrix ``V̄ Vᵀ``
        (``k × k``) have the same non-zero spectrum, and the smaller one is
        factored by pivoted Cholesky (:func:`~repro.linalg.operators.psd_factor`)
        as ``W W†`` with ``r`` columns:

        * ``k < d²`` — the Gram side: ``W`` spans the range of ``V̄``, so for
          the thin QR ``W̄ = QR`` the ``r`` operators ``Q† V`` (un-vectorised)
          describe the same map, and no ``d² × d²`` object is built;
        * ``k ≥ d²`` — the Choi side: :func:`~repro.superop.choi.kraus_from_choi`
          on the Choi matrix, whose factor columns are the new ``vec(F_m)``.

        Either way pivoting stops once the largest remaining Schur diagonal
        of the ``m × m`` factored matrix is ``≤ atol``, so the result has as
        many operators as its numerical rank and the map left out has trace
        norm at most ``(m − r) · atol``; the zero map gives :meth:`zero`.
        The ``simplify`` span records that trace as ``dropped``.  This keeps
        the number of Kraus operators from exploding when composing many maps
        (loop fixpoints, the Grover performance experiment).
        """
        rank_in = len(self._kraus)
        dimension = self._dimension
        side = dimension * dimension
        gram_side = rank_in < side
        with span(
            "simplify",
            region="superop",
            dimension=dimension,
            rank_in=rank_in,
            side="gram" if gram_side else "choi",
        ) as simplify_span:
            if gram_side:
                vectors = self._kraus.reshape(rank_in, side)
                factor = psd_factor(vectors.conj() @ vectors.T, atol)
                if factor.shape[1]:
                    basis, _ = np.linalg.qr(factor.conj())
                    kraus = (basis.conj().T @ vectors).reshape(-1, dimension, dimension)
                    result = SuperOperator._of(kraus)
                else:
                    result = SuperOperator.zero(dimension)
            else:
                result = SuperOperator._of(kraus_from_choi(self.choi(), atol=atol))
            simplify_span.set_tag("rank_out", len(result._kraus))
            simplify_span.set_tag("dropped", self.choi_trace() - result.choi_trace())
        return result

    def probability_bound(self) -> float:
        """Return ``λ_max(Σ E_i†E_i)`` — the maximal success probability over inputs."""
        eigenvalues = np.linalg.eigvalsh(self.kraus_gram())
        return float(max(eigenvalues.max(), 0.0))

    def _check_dimension(self, other: "SuperOperator") -> None:
        if self._dimension != other.dimension:
            raise DimensionMismatchError(
                f"super-operators act on different dimensions: {self._dimension} vs {other.dimension}"
            )

    def __repr__(self) -> str:
        return f"SuperOperator(dim={self._dimension}, kraus={len(self._kraus)})"
