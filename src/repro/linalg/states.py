"""Construction and manipulation of quantum states.

States are represented either as normalised column vectors (pure states) or as
partial density operators (positive operators of trace at most one, following
Selinger's convention adopted in Sec. 2 of the paper).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..exceptions import LinalgError
from .constants import ATOL, ORDER_ATOL
from .operators import dagger, is_partial_density_operator, outer

__all__ = [
    "ket",
    "basis_state",
    "computational_basis",
    "plus_state",
    "minus_state",
    "bell_state",
    "ghz_state",
    "w_state",
    "density",
    "mixed_state",
    "maximally_mixed",
    "normalize_state",
    "purity",
    "fidelity",
    "state_from_amplitudes",
    "is_normalized",
    "trace_norm",
]


def ket(label: str | int, num_qubits: int | None = None) -> np.ndarray:
    """Return the computational-basis column vector described by ``label``.

    ``label`` may be a bit string such as ``"010"`` or an integer index; in the
    latter case ``num_qubits`` must be supplied.
    """
    if isinstance(label, str):
        if not label or any(ch not in "01" for ch in label):
            raise LinalgError(f"invalid computational basis label {label!r}")
        num_qubits = len(label)
        index = int(label, 2)
    else:
        if num_qubits is None:
            raise LinalgError("num_qubits is required when the label is an integer")
        index = int(label)
    dimension = 2 ** num_qubits
    if not 0 <= index < dimension:
        raise LinalgError(f"basis index {index} out of range for {num_qubits} qubit(s)")
    vector = np.zeros((dimension, 1), dtype=complex)
    vector[index, 0] = 1.0
    return vector


def basis_state(index: int, dimension: int) -> np.ndarray:
    """Return the ``index``-th standard basis vector of a ``dimension``-dimensional space."""
    if not 0 <= index < dimension:
        raise LinalgError(f"basis index {index} out of range for dimension {dimension}")
    vector = np.zeros((dimension, 1), dtype=complex)
    vector[index, 0] = 1.0
    return vector


def computational_basis(num_qubits: int) -> list[np.ndarray]:
    """Return the list of all computational basis vectors on ``num_qubits`` qubits."""
    return [basis_state(i, 2 ** num_qubits) for i in range(2 ** num_qubits)]


def plus_state() -> np.ndarray:
    """Return ``|+⟩ = (|0⟩ + |1⟩)/√2``."""
    return np.array([[1], [1]], dtype=complex) / np.sqrt(2)


def minus_state() -> np.ndarray:
    """Return ``|−⟩ = (|0⟩ − |1⟩)/√2``."""
    return np.array([[1], [-1]], dtype=complex) / np.sqrt(2)


def bell_state(kind: int = 0) -> np.ndarray:
    """Return one of the four Bell states.

    ``kind`` selects ``Φ+``, ``Φ−``, ``Ψ+``, ``Ψ−`` for 0, 1, 2, 3 respectively.
    """
    if kind not in (0, 1, 2, 3):
        raise LinalgError("Bell state kind must be 0, 1, 2 or 3")
    phi = np.zeros((4, 1), dtype=complex)
    if kind in (0, 1):
        phi[0, 0] = 1.0
        phi[3, 0] = 1.0 if kind == 0 else -1.0
    else:
        phi[1, 0] = 1.0
        phi[2, 0] = 1.0 if kind == 2 else -1.0
    return phi / np.sqrt(2)


def ghz_state(num_qubits: int) -> np.ndarray:
    """Return the ``num_qubits``-qubit GHZ state ``(|0…0⟩ + |1…1⟩)/√2``."""
    if num_qubits < 1:
        raise LinalgError("a GHZ state needs at least one qubit")
    dimension = 2 ** num_qubits
    vector = np.zeros((dimension, 1), dtype=complex)
    vector[0, 0] = 1.0
    vector[-1, 0] = 1.0
    return vector / np.sqrt(2)


def w_state(num_qubits: int) -> np.ndarray:
    """Return the ``num_qubits``-qubit W state (uniform superposition of weight-1 strings)."""
    if num_qubits < 1:
        raise LinalgError("a W state needs at least one qubit")
    dimension = 2 ** num_qubits
    vector = np.zeros((dimension, 1), dtype=complex)
    for position in range(num_qubits):
        vector[1 << position, 0] = 1.0
    return vector / np.sqrt(num_qubits)


def state_from_amplitudes(amplitudes: Sequence[complex]) -> np.ndarray:
    """Return the normalised pure state with the given amplitudes."""
    vector = np.asarray(amplitudes, dtype=complex).reshape(-1, 1)
    return normalize_state(vector)


def normalize_state(vector: np.ndarray) -> np.ndarray:
    """Return ``vector`` rescaled to unit norm."""
    vector = np.asarray(vector, dtype=complex).reshape(-1, 1)
    norm = float(np.linalg.norm(vector))
    if norm <= ATOL:
        raise LinalgError("cannot normalise the zero vector")
    return vector / norm


def is_normalized(vector: np.ndarray, atol: float = ORDER_ATOL) -> bool:
    """Return ``True`` when the vector has unit norm up to ``atol``."""
    vector = np.asarray(vector, dtype=complex)
    return bool(abs(np.linalg.norm(vector) - 1.0) <= atol)


def density(state: np.ndarray) -> np.ndarray:
    """Return the density operator ``[|ψ⟩] = |ψ⟩⟨ψ|`` of a pure state.

    If ``state`` is already a square matrix it is validated as a partial density
    operator and returned unchanged.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim == 2 and state.shape[0] == state.shape[1] and state.shape[0] > 1:
        if not is_partial_density_operator(state):
            raise LinalgError("matrix is not a partial density operator")
        return state
    return outer(state.reshape(-1, 1))


def mixed_state(ensemble: Iterable[tuple[float, np.ndarray]]) -> np.ndarray:
    """Return the density operator of an ensemble ``{(p_i, |ψ_i⟩)}``.

    The probabilities must be non-negative and sum to at most one (a sub-unit
    sum yields a partial density operator).
    """
    total = None
    probability_sum = 0.0
    for probability, state in ensemble:
        if probability < -ATOL:
            raise LinalgError("ensemble probabilities must be non-negative")
        probability_sum += probability
        rho = density(state)
        total = probability * rho if total is None else total + probability * rho
    if total is None:
        raise LinalgError("ensemble must contain at least one state")
    if probability_sum > 1.0 + 1e-6:
        raise LinalgError("ensemble probabilities must sum to at most one")
    return total


def maximally_mixed(num_qubits: int) -> np.ndarray:
    """Return the maximally mixed state ``I/2^n`` on ``num_qubits`` qubits."""
    dimension = 2 ** num_qubits
    return np.eye(dimension, dtype=complex) / dimension


def purity(rho: np.ndarray) -> float:
    """Return ``tr(ρ²)`` — equal to 1 exactly for pure normalised states."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.real(np.trace(rho @ rho)))


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Return the Uhlmann fidelity ``F(ρ, σ) = (tr√(√ρ σ √ρ))²``.

    Both square roots are of positive semidefinite operators, taken on their
    eigendecomposition with round-off below zero clipped, so a rank-deficient
    state (every pure one) needs no special case; ``tr√A`` is ``Σ √λ_i``.
    """
    rho = density(np.asarray(rho, dtype=complex))
    sigma = density(np.asarray(sigma, dtype=complex))
    eigenvalues, eigenvectors = np.linalg.eigh(rho)
    sqrt_rho = (eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))) @ dagger(eigenvectors)
    inner = np.linalg.eigvalsh(sqrt_rho @ sigma @ sqrt_rho)
    value = float(np.sum(np.sqrt(np.clip(inner, 0.0, None)))) ** 2
    return max(0.0, min(1.0, value))


def trace_norm(matrix: np.ndarray) -> float:
    """Return the trace norm ``‖A‖₁ = tr√(A†A)``."""
    matrix = np.asarray(matrix, dtype=complex)
    singular_values = np.linalg.svd(matrix, compute_uv=False)
    return float(np.sum(singular_values))
