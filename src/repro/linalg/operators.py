"""Structural checks and elementary constructions on linear operators.

This module implements the operator-level notions of Sec. 2 of the paper:
hermitian, unitary, positive operators, projectors, the Löwner partial order,
and spectral decompositions.  Everything is numerical with a configurable
absolute tolerance.
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
    "kraus_gram",
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
    """Return ``True`` when ``matrix`` equals its adjoint up to ``atol``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return bool(np.allclose(matrix, dagger(matrix), atol=atol))


def is_unitary(matrix: np.ndarray, atol: float = ATOL) -> bool:
    """Return ``True`` when ``matrix`` is unitary (``U†U = I``) up to ``atol``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(dagger(matrix) @ matrix, identity, atol=atol))


def is_positive(matrix: np.ndarray, atol: float = ATOL) -> bool:
    """Return ``True`` when ``matrix`` is positive semidefinite up to ``atol``."""
    matrix = np.asarray(matrix, dtype=complex)
    if not is_hermitian(matrix, atol=atol):
        return False
    eigenvalues = np.linalg.eigvalsh((matrix + dagger(matrix)) / 2)
    return bool(eigenvalues.min(initial=0.0) >= -atol)


def is_projector(matrix: np.ndarray, atol: float = ORDER_ATOL) -> bool:
    """Return ``True`` when ``matrix`` is hermitian and idempotent up to ``atol``."""
    matrix = np.asarray(matrix, dtype=complex)
    if not is_hermitian(matrix, atol=atol):
        return False
    return bool(np.allclose(matrix @ matrix, matrix, atol=atol))


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
    """Return ``True`` when the two operators are entry-wise equal up to ``atol``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    return bool(np.allclose(a, b, atol=atol))


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


def kraus_gram(operators: Iterable[np.ndarray]) -> np.ndarray:
    """Return the gram ``Σ_i E_i†E_i`` of a non-empty Kraus operator list.

    The gram decides trace preservation (``= I``), the trace non-increasing
    side condition (``⊑ I``) and the maximal success probability
    (``λ_max``) of a Kraus-form super-operator.
    """
    operators = [np.asarray(operator, dtype=complex) for operator in operators]
    if not operators:
        raise LinalgError("kraus_gram requires at least one operator")
    gram = np.zeros_like(operators[0])
    for operator in operators:
        gram = gram + dagger(operator) @ operator
    return gram


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
