"""Structural checks and elementary constructions on linear operators.

This module implements the operator-level notions of Sec. 2 of the paper:
hermitian, unitary, positive operators, projectors, the Löwner partial order,
and spectral decompositions.  Everything is numerical with a configurable
absolute tolerance.  It also holds the two kernels of Kraus-form maps that
are not specific to super-operators: the gram ``Σ_i E_i†E_i`` of an operator
stack and the pivoted Cholesky factor of a positive semidefinite matrix.  The
factor is LAPACK's ``zpstrf``, which :func:`psd_factor` imports from
``scipy.linalg.lapack`` when it runs, so importing this module loads numpy
only and a process pays for ``scipy.linalg`` on its first Kraus compression.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from ..exceptions import DimensionMismatchError, LinalgError
from .constants import ATOL, ORDER_ATOL

__all__ = [
    "as_operator",
    "check_square",
    "dagger",
    "is_hermitian",
    "is_unitary",
    "is_positive",
    "is_projector",
    "is_density_operator",
    "is_partial_density_operator",
    "is_predicate_matrix",
    "loewner_le",
    "loewner_ge",
    "operators_close",
    "spectral_decomposition",
    "eigenvalue_bounds",
    "outer",
    "commutator",
    "operator_stack",
    "kraus_gram",
    "psd_factor",
    "num_qubits_of",
    "trace_inner",
]


def as_operator(matrix: np.ndarray | Iterable) -> np.ndarray:
    """Coerce ``matrix`` to a square complex ``numpy`` array.

    Raises
    ------
    LinalgError
        If the input is not a two-dimensional square matrix.
    """
    array = np.asarray(matrix, dtype=complex)
    check_square(array)
    return array


def check_square(matrix: np.ndarray) -> None:
    """Raise :class:`LinalgError` unless ``matrix`` is a square 2-D array."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {matrix.shape}")


def check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    """Raise :class:`DimensionMismatchError` unless ``a`` and ``b`` have equal shapes."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"incompatible operator shapes {a.shape} and {b.shape}")


def dagger(matrix: np.ndarray) -> np.ndarray:
    """Return the adjoint (conjugate transpose) of ``matrix``."""
    return np.conjugate(np.asarray(matrix)).T


def is_hermitian(matrix: np.ndarray, atol: float = ATOL) -> bool:
    """Return ``True`` when ``matrix`` equals its adjoint up to ``atol`` in every entry."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return bool(np.allclose(matrix, dagger(matrix), rtol=0, atol=atol))


def is_unitary(matrix: np.ndarray, atol: float = ATOL) -> bool:
    """Return ``True`` when ``matrix`` is unitary (``U†U = I``) up to ``atol``.

    The test is absolute: ``|U†U − I| ≤ atol`` in every entry, with no
    relative term.  NaN and infinite entries fail it.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return bool((np.abs(dagger(matrix) @ matrix - np.eye(matrix.shape[0])) <= atol).all())


def is_positive(matrix: np.ndarray, atol: float = ATOL) -> bool:
    """Return ``True`` when ``matrix`` is positive semidefinite up to ``atol``."""
    matrix = np.asarray(matrix, dtype=complex)
    if not is_hermitian(matrix, atol=atol):
        return False
    eigenvalues = np.linalg.eigvalsh((matrix + dagger(matrix)) / 2)
    return bool(eigenvalues.min(initial=0.0) >= -atol)


def is_projector(matrix: np.ndarray, atol: float = ORDER_ATOL) -> bool:
    """Return ``True`` when ``matrix`` is hermitian and idempotent up to ``atol`` in every entry."""
    matrix = np.asarray(matrix, dtype=complex)
    if not is_hermitian(matrix, atol=atol):
        return False
    return bool(np.allclose(matrix @ matrix, matrix, rtol=0, atol=atol))


def is_density_operator(matrix: np.ndarray, atol: float = ATOL) -> bool:
    """Return ``True`` for a positive operator of trace 1 (a normalised state)."""
    matrix = np.asarray(matrix, dtype=complex)
    return is_positive(matrix, atol=atol) and bool(abs(np.trace(matrix) - 1.0) <= 1e-6)


def is_partial_density_operator(matrix: np.ndarray, atol: float = ATOL) -> bool:
    """Return ``True`` for a positive operator with trace at most 1 (Selinger convention)."""
    matrix = np.asarray(matrix, dtype=complex)
    return is_positive(matrix, atol=atol) and bool(np.real(np.trace(matrix)) <= 1.0 + 1e-6)


def is_predicate_matrix(matrix: np.ndarray, atol: float = ATOL) -> bool:
    """Return ``True`` when ``0 ⊑ matrix ⊑ I``, i.e. a valid quantum predicate."""
    matrix = np.asarray(matrix, dtype=complex)
    if not is_hermitian(matrix, atol=atol):
        return False
    eigenvalues = np.linalg.eigvalsh((matrix + dagger(matrix)) / 2)
    return bool(eigenvalues.min(initial=0.0) >= -atol and eigenvalues.max(initial=0.0) <= 1 + atol)


def loewner_le(a: np.ndarray, b: np.ndarray, atol: float = ATOL) -> bool:
    """Return ``True`` when ``a ⊑ b`` in the Löwner order (``b − a`` positive)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    check_same_shape(a, b)
    return is_positive(b - a, atol=atol)


def loewner_ge(a: np.ndarray, b: np.ndarray, atol: float = ATOL) -> bool:
    """Return ``True`` when ``a ⊒ b`` in the Löwner order."""
    return loewner_le(b, a, atol=atol)


def operators_close(a: np.ndarray, b: np.ndarray, atol: float = ATOL) -> bool:
    """Return ``True`` when the two operators are entry-wise equal up to ``atol`` (no relative term)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    return bool(np.allclose(a, b, rtol=0, atol=atol))


def spectral_decomposition(
    matrix: np.ndarray, atol: float = ATOL
) -> List[Tuple[float, np.ndarray]]:
    """Return the spectral decomposition of a hermitian operator.

    The result is a list of ``(eigenvalue, projector)`` pairs where eigenvalues
    closer than ``atol`` are merged into a single eigenspace projector, so the
    projectors sum to the identity and are mutually orthogonal.
    """
    matrix = as_operator(matrix)
    if not is_hermitian(matrix, atol=atol):
        raise LinalgError("spectral decomposition requires a hermitian operator")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    groups: List[Tuple[float, np.ndarray]] = []
    index = 0
    dimension = matrix.shape[0]
    while index < dimension:
        value = eigenvalues[index]
        projector = np.zeros_like(matrix)
        while index < dimension and abs(eigenvalues[index] - value) <= max(atol, 1e-9):
            vector = eigenvectors[:, index].reshape(-1, 1)
            projector = projector + vector @ dagger(vector)
            index += 1
        groups.append((float(value), projector))
    return groups


def eigenvalue_bounds(matrix: np.ndarray) -> Tuple[float, float]:
    """Return ``(λ_min, λ_max)`` of the hermitian part of ``matrix``."""
    matrix = as_operator(matrix)
    hermitian_part = (matrix + dagger(matrix)) / 2
    eigenvalues = np.linalg.eigvalsh(hermitian_part)
    return float(eigenvalues[0]), float(eigenvalues[-1])


def outer(ket: np.ndarray, bra: np.ndarray | None = None) -> np.ndarray:
    """Return the outer product ``|ket⟩⟨bra|`` (``bra`` defaults to ``ket``)."""
    ket = np.asarray(ket, dtype=complex).reshape(-1, 1)
    if bra is None:
        bra = ket
    bra = np.asarray(bra, dtype=complex).reshape(-1, 1)
    return ket @ dagger(bra)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return the commutator ``[a, b] = ab − ba``."""
    a = as_operator(a)
    b = as_operator(b)
    check_same_shape(a, b)
    return a @ b - b @ a


def operator_stack(operators: Iterable[np.ndarray]) -> np.ndarray:
    """Return equally shaped operators as one ``(k, d_out, d_in)`` complex array.

    A complex three-axis array is returned as it is, without a copy; a
    sequence or iterator of matrices is stacked.  An empty input gives an
    empty array.

    Raises
    ------
    DimensionMismatchError
        If the operators differ in shape or are not matrices.
    """
    if not isinstance(operators, np.ndarray):
        operators = [np.asarray(operator, dtype=complex) for operator in operators]
        if not operators:
            return np.zeros((0, 0, 0), dtype=complex)
        if len({operator.shape for operator in operators}) > 1:
            raise DimensionMismatchError(
                f"operators of different shapes: {sorted({o.shape for o in operators})}"
            )
    stack = np.asarray(operators, dtype=complex)
    if stack.ndim != 3:
        raise DimensionMismatchError(f"expected matrices, got a stack of shape {stack.shape}")
    return stack


def kraus_gram(operators: Iterable[np.ndarray]) -> np.ndarray:
    """Return the gram ``Σ_i E_i†E_i`` of a non-empty Kraus operator stack.

    The gram decides trace preservation (``= I``), the trace non-increasing
    side condition (``⊑ I``) and the maximal success probability
    (``λ_max``) of a Kraus-form super-operator.  Stacking the rows of every
    ``E_i`` into one ``(k·d_out) × d_in`` matrix ``R`` gives
    ``Σ_i E_i†E_i = R†R``, one matrix product.
    """
    stack = operator_stack(operators)
    if not len(stack):
        raise LinalgError("kraus_gram requires at least one operator")
    rows = stack.reshape(-1, stack.shape[2])
    return rows.conj().T @ rows


def psd_factor(matrix: np.ndarray, atol: float) -> np.ndarray:
    """Return ``W`` (``m × r``) with ``matrix ≈ W W†``, for a positive semidefinite ``matrix``.

    LAPACK's pivoted Cholesky ``zpstrf`` reads the lower triangle of
    ``matrix`` and factors ``Pᵀ · matrix · P = L L†``.  At each step it
    pivots on the largest diagonal entry of the remaining Schur complement,
    and it stops once that entry is ``≤ atol``.  ``W = P L`` keeps the ``r``
    columns it computed, un-permuted.  In exact arithmetic the part left
    out, ``matrix − W W†``, is a positive semidefinite Schur complement
    whose diagonal entries are all ``≤ atol``, so its trace is at most
    ``(m − r) · atol``.  ``r`` is 0 when no diagonal entry exceeds ``atol``.
    """
    from scipy.linalg.lapack import zpstrf

    factor, pivots, rank, info = zpstrf(matrix, tol=atol, lower=1)
    if info < 0:
        raise LinalgError(f"zpstrf rejected argument {-info}")
    result = np.empty((matrix.shape[0], rank), dtype=complex)
    result[pivots - 1] = np.tril(factor[:, :rank])
    return result


def num_qubits_of(matrix: np.ndarray) -> int:
    """Return ``n`` such that the operator acts on ``n`` qubits.

    Raises
    ------
    LinalgError
        If the dimension is not a power of two.
    """
    matrix = np.asarray(matrix)
    dimension = matrix.shape[0]
    n = int(round(np.log2(dimension)))
    if 2 ** n != dimension:
        raise LinalgError(f"dimension {dimension} is not a power of two")
    return n


def trace_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Return ``Re tr(a·b)`` — the Hilbert–Schmidt pairing used for expectations."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    check_same_shape(a, b)
    return float(np.real(np.trace(a @ b)))
