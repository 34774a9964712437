"""Super-operators in Kraus form (Sec. 2 of the paper).

A :class:`SuperOperator` is a completely positive, trace non-increasing linear
map represented by a finite list of Kraus operators ``{E_i}`` so that
``E(ρ) = Σ_i E_i ρ E_i†``.  Every map the library returns acts on the
operators of one ``d``-dimensional space.

The class supports exactly the algebra used by the denotational and weakest
precondition semantics: application to states, adjoint application to
predicates, composition, pointwise addition, scaling, tensor products and the
CPO order ``⪯`` of Sec. 3.2.

The Kraus form is the representation the semantic engines compute with, and
maps are compared in it too.
The ``k`` operators are stored as one read-only ``(k, d_out, d_in)`` complex
array, so every operation of the algebra is one batched numpy call on it:
composition is one broadcast ``matmul`` of ``k·l`` products, addition one
``concatenate``, and the gram ``Σ_i E_i†E_i`` one matrix product.
Applying a map to a state costs ``k·d³``; the operator count multiplies
under composition.

The reset ``Set0`` of ``q̄ := 0`` (Fig. 2), whose ``m = 2^|q̄|`` Kraus
operators ``|0⟩⟨i|_q̄ ⊗ I`` only move entries, is never multiplied.  It
factors as ``Set0 = J ∘ Tr``: ``Tr`` traces out ``q̄`` (operators
``⟨i|_q̄ ⊗ I``, ``c × d`` with ``c = d/m``) and ``J``
(:meth:`SuperOperator.prepare_zero`) prepares ``|0⟩_q̄`` with the one
``d × c`` operator made of the identity's columns whose index on ``q̄`` is
0.  :meth:`SuperOperator.compose_reset` forms ``Set0 ∘ E`` by copying rows
and :meth:`SuperOperator.compose_trace` forms ``E ∘ Tr`` by copying
columns, so ``E ∘ Set0`` is ``(E ∘ J) ∘ Tr``.  The *restricted* maps
``E ∘ J``, with ``d_in = c < d_out``, live only inside the sequence fold of
:mod:`~repro.semantics.denotational`; :meth:`~SuperOperator.compose`,
:meth:`~SuperOperator.compose_reset`, :meth:`~SuperOperator.left_multiply`,
:meth:`~SuperOperator.simplified` (on side ``d_out·d_in``),
:meth:`~SuperOperator.choi`, :meth:`~SuperOperator.choi_trace` and the set
comparisons of :mod:`~repro.superop.compare` accept them.  Every other
method either handles ``d_out ≠ d_in`` too or raises
:class:`~repro.exceptions.DimensionMismatchError`, and the constructor
takes square operators only.

:meth:`equals` and :meth:`precedes` read the spectrum of the Choi
difference ``C_F − C_E`` off the two Kraus stacks
(:func:`~repro.superop.choi.choi_difference_spectrum`, an ``m × m``
problem for ``m = k_E + k_F``), so no comparison builds a Choi matrix.
:meth:`SuperOperator.simplified` keeps the count in check with a pivoted
Cholesky factorisation of the ``k×k`` Gram matrix of the Kraus operators
when ``k < d_out·d_in`` and of the Choi matrix otherwise, so compressing a
map never builds an object that is larger than its Kraus list and never
eigensolves.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from ..exceptions import DimensionMismatchError, SuperOperatorError
from ..hashing import tolerance_safe_hash
from ..linalg.constants import ATOL, ORDER_ATOL
from ..linalg.operators import (
    is_unitary,
    kraus_gram,
    loewner_le,
    num_qubits_of,
    operator_stack,
    psd_factor,
)
from ..telemetry.tracing import span
from .choi import choi_difference_spectrum, choi_matrix, kraus_from_choi

__all__ = ["SuperOperator"]


def _reset_lines(positions: Sequence[int], num_qubits: int) -> np.ndarray:
    """Return ``lines[i, r]``: the basis index reading ``i`` on ``positions`` and ``r`` on the rest.

    ``positions`` are qubits of a ``num_qubits``-qubit space in their
    factor order, 0 the most significant; ``r`` counts the other qubits in
    register order.  Raises :class:`SuperOperatorError` for a repeated or
    out-of-range position.
    """
    positions = list(positions)
    if len(set(positions)) != len(positions) or any(
        not 0 <= position < num_qubits for position in positions
    ):
        raise SuperOperatorError(f"invalid reset positions {positions} for {num_qubits} qubit(s)")
    rest = [position for position in range(num_qubits) if position not in positions]
    lines = np.arange(2 ** num_qubits).reshape((2,) * num_qubits).transpose(positions + rest)
    return lines.reshape(2 ** len(positions), -1)


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

    __slots__ = ("_kraus",)

    def __init__(self, kraus_operators: Iterable[np.ndarray], validate: bool = True):
        kraus = operator_stack(kraus_operators)
        if kraus.shape[1] != kraus.shape[2]:
            raise DimensionMismatchError(
                f"expected square matrices, got a stack of shape {kraus.shape}"
            )
        if not len(kraus):
            raise SuperOperatorError("a super-operator needs at least one Kraus operator")
        if kraus is kraus_operators:
            kraus = kraus.copy()  # freeze a copy, never the caller's array
        self._set(kraus)
        if validate and not self.is_trace_nonincreasing():
            raise SuperOperatorError("super-operator is not trace non-increasing")

    def _set(self, kraus: np.ndarray) -> None:
        """Store ``kraus`` as the map's C-contiguous, read-only ``(k, d_out, d_in)`` array."""
        kraus = np.ascontiguousarray(kraus)
        kraus.setflags(write=False)
        self._kraus = kraus

    @classmethod
    def _of(cls, kraus: np.ndarray) -> "SuperOperator":
        """Wrap a ``(k, d_out, d_in)`` complex array this module just computed, unchecked."""
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

        Kraus operators are ``|0⟩⟨i|`` for each basis vector ``|i⟩`` (Fig. 2):
        :meth:`compose_reset` on the identity.
        """
        return cls.identity(2 ** num_qubits).compose_reset(range(num_qubits))

    @classmethod
    def prepare_zero(cls, positions: Sequence[int], num_qubits: int) -> "SuperOperator":
        """Return ``J``, which prepares ``|0⟩`` on the qubits at ``positions``.

        Its one Kraus operator is ``d × c`` (``d = 2^num_qubits``,
        ``c = d / 2^|positions|``): the identity's columns whose index on
        those qubits is 0, so it maps the other qubits' space into the
        register with the qubits at ``positions`` in ``|0⟩``.  The result is
        a restricted map (see the module docstring); ``Set0 = J ∘ Tr``
        (:meth:`compose_trace`).
        """
        lines = _reset_lines(positions, num_qubits)
        columns = lines.shape[1]
        prepare = np.zeros((1, 2 ** num_qubits, columns), dtype=complex)
        prepare[0, lines[0], np.arange(columns)] = 1.0
        return cls._of(prepare)

    # ------------------------------------------------------------- properties
    @property
    def kraus_operators(self) -> np.ndarray:
        """The Kraus operators as one read-only ``(k, d_out, d_in)`` array.

        It is the map's own storage, not a copy: writing into it raises.
        ``len``, indexing, iteration and ``np.stack`` treat it as the
        sequence of the ``k`` operators.
        """
        return self._kraus

    @property
    def shape(self) -> tuple:
        """``(d_out, d_in)``: the shape of each Kraus operator."""
        return self._kraus.shape[1:]

    @property
    def dimension(self) -> int:
        """Dimension of the underlying Hilbert space.

        Raises :class:`DimensionMismatchError` for a restricted map, whose
        input and output spaces differ.
        """
        rows, columns = self._kraus.shape[1:]
        if rows != columns:
            raise DimensionMismatchError(f"a {rows} × {columns} map has no single dimension")
        return rows

    @property
    def num_qubits(self) -> int:
        """Number of qubits of the underlying space (raises as :attr:`dimension` does)."""
        return num_qubits_of(np.empty((self.dimension, 0)))

    def kraus_gram(self) -> np.ndarray:
        """Return the ``d_in × d_in`` gram ``Σ_i E_i† E_i`` — ``I`` exactly for trace-preserving maps."""
        return kraus_gram(self._kraus)

    def is_trace_preserving(self, atol: float = ORDER_ATOL) -> bool:
        """Return ``True`` when ``Σ E_i†E_i = I`` up to ``atol``, entrywise."""
        identity = np.eye(self._kraus.shape[2])
        return bool(np.allclose(self.kraus_gram(), identity, rtol=0, atol=atol))

    def is_trace_nonincreasing(self, atol: float = ORDER_ATOL) -> bool:
        """Return ``True`` when ``Σ E_i†E_i ⊑ I`` up to ``atol``."""
        return loewner_le(self.kraus_gram(), np.eye(self._kraus.shape[2]), atol=atol)

    def choi(self) -> np.ndarray:
        """Return the (unnormalised) ``(d_out·d_in)²`` Choi matrix of the map."""
        return choi_matrix(self._kraus)

    def choi_trace(self) -> float:
        """Return ``tr Choi(E) = Σ_i ‖E_i‖²_F``, read off the Kraus operators.

        For a completely positive map this is its trace norm.
        """
        return float(np.vdot(self._kraus, self._kraus).real)

    # -------------------------------------------------------------- application
    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply the super-operator to a (partial) density operator on its input space."""
        rho = np.asarray(rho, dtype=complex)
        rows, columns = self._kraus.shape[1:]
        if rho.shape != (columns, columns):
            raise DimensionMismatchError(
                f"state of shape {rho.shape} incompatible with input dimension {columns}"
            )
        # [E_1ρ … E_kρ] side by side times [E_1†; …; E_k†] stacked: one
        # product sums the k terms.
        images = (self._kraus @ rho).transpose(1, 0, 2).reshape(rows, -1)
        return images @ self._kraus.conj().transpose(0, 2, 1).reshape(-1, rows)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return self.apply(rho)

    def apply_adjoint(self, observable: np.ndarray) -> np.ndarray:
        """Apply the adjoint map ``E†(M) = Σ_i E_i† M E_i`` to a predicate/observable."""
        observable = np.asarray(observable, dtype=complex)
        rows, columns = self._kraus.shape[1:]
        if observable.shape != (rows, rows):
            raise DimensionMismatchError(
                f"observable of shape {observable.shape} incompatible with output dimension {rows}"
            )
        # [E_1† … E_k†] side by side times [M E_1; …; M E_k] stacked: one
        # product sums the k terms.
        adjoints = self._kraus.conj().transpose(2, 0, 1).reshape(columns, -1)
        return adjoints @ (observable @ self._kraus).reshape(-1, columns)

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
        ``other``'s output dimension must be ``self``'s input dimension.
        """
        rows, columns = self._kraus.shape[1], other._kraus.shape[2]
        if self._kraus.shape[2] != other._kraus.shape[1]:
            raise DimensionMismatchError(
                f"cannot compose a map on {self._kraus.shape[2]} dimensions "
                f"after one into {other._kraus.shape[1]}"
            )
        products = self._kraus[:, np.newaxis] @ other._kraus[np.newaxis]
        return SuperOperator._of(products.reshape(-1, rows, columns))

    def compose_reset(self, positions: Sequence[int]) -> "SuperOperator":
        """Return ``Set0 ∘ self``, ``Set0`` resetting the output qubits at ``positions``.

        ``positions`` are in ``Set0``'s factor order, 0 the most significant
        qubit of the output space.  ``Set0``'s ``m = 2^|positions|`` Kraus
        operators ``|0⟩⟨i| ⊗ I`` only move entries, so the result is
        copied, not multiplied: operator ``(i, j)`` holds ``E_j``'s rows
        whose index on those qubits is ``i``, moved to index 0, and every
        other entry is zero.  The operators come out in the order
        :meth:`compose` gives with the materialised ``Set0`` and, for finite
        entries, equal its products bit for bit: a product with a 0/1
        matrix adds only exact zeros.
        """
        kraus = self._kraus
        count, rows, columns = kraus.shape
        lines = _reset_lines(positions, num_qubits_of(kraus[0]))
        result = np.zeros((len(lines), count, rows, columns), dtype=complex)
        result[:, :, lines[0], :] = kraus[:, lines, :].swapaxes(0, 1)
        return SuperOperator._of(result.reshape(-1, rows, columns))

    def compose_trace(self, positions: Sequence[int]) -> "SuperOperator":
        """Return ``self ∘ Tr``, ``Tr`` tracing out the qubits at ``positions`` (the spread).

        ``self`` is a restricted map with ``c``-dimensional input; the
        result's input space is the register of ``c · 2^|positions|``
        dimensions, ``positions`` its qubits that ``Tr`` traces out.
        ``Tr``'s Kraus operators ``⟨i| ⊗ I`` only move entries, so operator
        ``(j, i)`` of the result holds ``E_j``'s columns at the columns
        whose index on those qubits is ``i``, and zeros elsewhere.
        ``(E ∘ J) ∘ Tr = E ∘ Set0`` for ``J`` of :meth:`prepare_zero`, and
        the operators equal, bit for bit and in order, those of composing
        ``E`` with the materialised ``Set0``.
        """
        kraus = self._kraus
        count, rows, columns = kraus.shape
        size = 2 ** len(positions)
        lines = _reset_lines(positions, num_qubits_of(kraus[0].T) + len(positions))
        result = np.zeros((count, size, rows, size * columns), dtype=complex)
        resets = np.arange(size)[:, np.newaxis]
        result.swapaxes(2, 3)[:, resets, lines, :] = kraus.swapaxes(1, 2)[:, np.newaxis]
        return SuperOperator._of(result.reshape(-1, rows, size * columns))

    @staticmethod
    def left_multiply(maps: Sequence["SuperOperator"], multiply) -> List["SuperOperator"]:
        """Return the maps with operators ``U·E_i``, for ``multiply(M) = U·M``.

        The operators of all the maps, which share ``d_out``, are stacked
        side by side into one ``d_out × Σ k·d_in`` matrix, ``multiply`` is
        called once on it, and its result is split back into the products.
        Each result is ``U ∘ E`` for the one-operator map ``U``, without
        building ``U``.
        """
        rows = maps[0]._kraus.shape[1]
        stacked = np.concatenate(
            [channel._kraus.transpose(1, 0, 2).reshape(rows, -1) for channel in maps], axis=1
        )
        products = np.asarray(multiply(stacked))
        results: List[SuperOperator] = []
        start = 0
        for channel in maps:
            count, _, columns = channel._kraus.shape
            part = products[:, start : start + count * columns]
            results.append(SuperOperator._of(part.reshape(-1, count, columns).transpose(1, 0, 2)))
            start += count * columns
        return results

    def then(self, other: "SuperOperator") -> "SuperOperator":
        """Return ``other ∘ self`` (first ``self``, then ``other``)."""
        return other.compose(self)

    def __matmul__(self, other: "SuperOperator") -> "SuperOperator":
        return self.compose(other)

    def __add__(self, other: "SuperOperator") -> "SuperOperator":
        """Return the pointwise sum (Kraus lists concatenated)."""
        if self.shape != other.shape:
            raise DimensionMismatchError(
                f"super-operators of different shapes: {self.shape} vs {other.shape}"
            )
        return SuperOperator._of(np.concatenate([self._kraus, other._kraus]))

    def __mul__(self, scalar: float) -> "SuperOperator":
        if scalar < -ATOL:
            raise SuperOperatorError("super-operators can only be scaled by non-negative factors")
        return SuperOperator._of(np.sqrt(max(scalar, 0.0)) * self._kraus)

    __rmul__ = __mul__

    def tensor(self, other: "SuperOperator") -> "SuperOperator":
        """Return the tensor product ``self ⊗ other`` (operators ``E_i ⊗ F_j``, ``i``-major)."""
        rows = self._kraus.shape[1] * other._kraus.shape[1]
        columns = self._kraus.shape[2] * other._kraus.shape[2]
        products = np.einsum("aij,bkl->abikjl", self._kraus, other._kraus)
        return SuperOperator._of(products.reshape(-1, rows, columns))

    def embed(self, qubits: Sequence[str], register) -> "SuperOperator":
        """Return the cylinder extension of the map onto a full :class:`QubitRegister`.

        The map itself is the extension when ``qubits`` is the whole register
        in order.
        """
        dimension = self.dimension
        register.check_contains(qubits)
        if (
            dimension == register.dimension
            and register.positions(qubits) == tuple(range(register.num_qubits))
        ):
            return self
        embedded = [register.embed(operator, qubits) for operator in self._kraus]
        return SuperOperator._of(np.stack(embedded))

    # ----------------------------------------------------------------- ordering
    def equals(self, other: "SuperOperator", atol: float = ATOL) -> bool:
        """Return ``True`` when both maps have one shape and ``‖C_E − C_F‖_1 ≤ atol``.

        The trace norm of the Choi difference is the sum of the absolute
        values of :func:`~repro.superop.choi.choi_difference_spectrum`, read
        off the two Kraus stacks.  It bounds the diamond distance of the
        maps, so equal maps (whatever their Kraus decompositions) have
        distance 0 and no Choi matrix is built.
        """
        if self.shape != other.shape:
            return False
        spectrum = choi_difference_spectrum(self._kraus, other._kraus)
        return bool(np.abs(spectrum).sum() <= atol)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SuperOperator):
            return self.equals(other)
        return NotImplemented

    def __hash__(self) -> int:
        # Tolerance-based equality admits no payload-derived hash (rounding a
        # boundary-straddling pair of equal maps can split buckets); hash only
        # the exact invariants.
        return tolerance_safe_hash("superop", self._kraus.shape[1])

    def precedes(self, other: "SuperOperator", atol: float = ORDER_ATOL) -> bool:
        """Return ``True`` when ``self ⪯ other`` in the CPO of super-operators.

        By Lemma 3.1 this holds iff ``other − self`` is completely positive,
        i.e. iff the difference of Choi matrices is positive semidefinite.
        It is taken to hold when the smallest eigenvalue of that difference,
        read off the two Kraus stacks by
        :func:`~repro.superop.choi.choi_difference_spectrum`, is at least
        ``−atol``.
        """
        if self.shape != other.shape:
            return False
        return bool(choi_difference_spectrum(self._kraus, other._kraus)[0] >= -atol)

    # ------------------------------------------------------------------ misc
    def simplified(self, atol: float = 1e-10) -> "SuperOperator":
        """Return an equivalent map with a minimal Kraus decomposition.

        With row ``i`` of the ``k × s`` matrix ``V`` equal to ``vec(E_i)``
        (``s = d_out·d_in``), the Choi matrix ``Vᵀ V̄`` (``s × s``) and the
        Gram matrix ``V̄ Vᵀ`` (``k × k``) have the same non-zero spectrum,
        and the smaller one is factored by pivoted Cholesky
        (:func:`~repro.linalg.operators.psd_factor`) as ``W W†`` with ``r``
        columns:

        * ``k < s`` — the Gram side: ``W`` spans the range of ``V̄``, so for
          the thin QR ``W̄ = QR`` the ``r`` operators ``Q† V`` (un-vectorised)
          describe the same map, and no ``s × s`` object is built;
        * ``k ≥ s`` — the Choi side: :func:`~repro.superop.choi.kraus_from_choi`
          on the Choi matrix, whose factor columns are the new ``vec(F_m)``.

        Either way pivoting stops once the largest remaining Schur diagonal
        of the ``m × m`` factored matrix is ``≤ atol``, so the result has as
        many operators as its numerical rank and the map left out has trace
        norm at most ``(m − r) · atol``; the zero map gives the single zero
        operator.  The ``simplify`` span records that trace as ``dropped``.
        This keeps the number of Kraus operators from exploding when
        composing many maps (loop fixpoints, the Grover performance
        experiment).
        """
        count, rows, columns = self._kraus.shape
        side = rows * columns
        gram_side = count < side
        with span(
            "simplify",
            region="superop",
            dimension=rows if rows == columns else (rows, columns),
            rank_in=count,
            side="gram" if gram_side else "choi",
        ) as simplify_span:
            if gram_side:
                vectors = self._kraus.reshape(count, side)
                factor = psd_factor(vectors.conj() @ vectors.T, atol)
                if factor.shape[1]:
                    basis, _ = np.linalg.qr(factor.conj())
                    kraus = (basis.conj().T @ vectors).reshape(-1, rows, columns)
                else:
                    kraus = np.zeros((1, rows, columns), dtype=complex)
            else:
                kraus = kraus_from_choi(self.choi(), atol=atol, shape=(rows, columns))
            result = SuperOperator._of(kraus)
            simplify_span.set_tag("rank_out", len(result._kraus))
            simplify_span.set_tag("dropped", self.choi_trace() - result.choi_trace())
        return result

    def probability_bound(self) -> float:
        """Return ``λ_max(Σ E_i†E_i)`` — the maximal success probability over inputs."""
        eigenvalues = np.linalg.eigvalsh(self.kraus_gram())
        return float(max(eigenvalues.max(), 0.0))

    def __repr__(self) -> str:
        rows, columns = self._kraus.shape[1:]
        size = f"dim={rows}" if rows == columns else f"shape=({rows}, {columns})"
        return f"SuperOperator({size}, kraus={len(self._kraus)})"
