"""Tensor-product utilities: the gate kernel, embedding, qubit permutation and partial trace.

These functions are the workhorse of the register machinery: an operator given
on a few named qubits acts on the full program register as its cylinder
extension ``A ⊗ I`` (the paper's terminology).  :func:`apply_to_qubits` is
the one way an operator meets a register matrix: it multiplies a
``2^n × m`` matrix by the extension without building it, contracting only
the target qubits' axes (``2^k · 2^n · m`` products for a ``k``-qubit
operator, against ``4^n · m`` for the dense extension).
:func:`embed_operator` / :func:`expand_to_register` return the extension
itself as a ``2^n × 2^n`` matrix, which is the kernel applied to the
identity.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import DimensionMismatchError, LinalgError
from .operators import num_qubits_of

__all__ = [
    "kron_all",
    "apply_to_qubits",
    "embed_operator",
    "permute_qubits",
    "partial_trace",
    "reduced_state",
    "expand_to_register",
]


def kron_all(operators: Sequence[np.ndarray]) -> np.ndarray:
    """Return the Kronecker product of ``operators`` in the given order."""
    if not operators:
        raise LinalgError("kron_all requires at least one operator")
    result = np.asarray(operators[0], dtype=complex)
    for operator in operators[1:]:
        result = np.kron(result, np.asarray(operator, dtype=complex))
    return result


def permute_qubits(operator: np.ndarray, permutation: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of an ``n``-qubit operator.

    ``permutation[i]`` gives the position, in the *input* ordering, of the qubit
    that should appear at position ``i`` of the output ordering.  For example
    ``permute_qubits(CX, [1, 0])`` returns the CNOT with control and target
    exchanged.
    """
    operator = np.asarray(operator, dtype=complex)
    n = num_qubits_of(operator)
    if sorted(permutation) != list(range(n)):
        raise LinalgError(f"invalid qubit permutation {permutation} for {n} qubit(s)")
    if list(permutation) == list(range(n)):
        return operator
    tensor = operator.reshape([2] * (2 * n))
    row_axes = list(permutation)
    column_axes = [n + p for p in permutation]
    tensor = np.transpose(tensor, axes=row_axes + column_axes)
    return tensor.reshape(2 ** n, 2 ** n)


def apply_to_qubits(
    operator: np.ndarray, positions: Sequence[int], matrix: np.ndarray, total_qubits: int
) -> np.ndarray:
    """Return ``(operator ⊗ I)·matrix`` with ``operator`` on the qubits at ``positions``.

    ``operator`` acts on ``k = len(positions)`` qubits; ``positions`` lists,
    in its factor order, their indices inside the ``total_qubits``-qubit
    register (0 being the most significant factor), as for
    :func:`embed_operator`.  ``matrix`` is ``2^n × m``: its row index is read
    as ``n`` binary factors and only the ``k`` target factors are
    contracted, so the extension is never built.  Ascending adjacent
    positions ``p … p+k−1`` take the ``(2^p, 2^k, rest)`` view of ``matrix``
    and one batched ``matmul``, which copies nothing; any other order moves
    the target axes to the front (a copy), multiplies once and moves them
    back (a second copy).  Right products and conjugations go through
    transposes: ``matrix·(operator ⊗ I) = ((operatorᵀ ⊗ I)·matrixᵀ)ᵀ``.
    """
    operator = np.asarray(operator, dtype=complex)
    matrix = np.asarray(matrix, dtype=complex)
    k = num_qubits_of(operator)
    if len(positions) != k:
        raise DimensionMismatchError(
            f"operator acts on {k} qubit(s) but {len(positions)} position(s) were given"
        )
    if len(set(positions)) != len(positions):
        raise LinalgError(f"duplicate qubit positions in {positions}")
    if any(not 0 <= p < total_qubits for p in positions):
        raise LinalgError(f"positions {positions} out of range for {total_qubits} qubit(s)")
    if matrix.ndim != 2 or matrix.shape[0] != 2 ** total_qubits:
        raise DimensionMismatchError(
            f"a matrix of shape {matrix.shape} has no row per basis state of "
            f"{total_qubits} qubit(s)"
        )
    rows, columns = matrix.shape
    first = positions[0] if k else 0
    if all(position == first + offset for offset, position in enumerate(positions)):
        view = matrix.reshape(2 ** first, 2 ** k, 2 ** (total_qubits - first - k) * columns)
        return np.matmul(operator, view).reshape(rows, columns)
    targets = list(positions)
    front = np.moveaxis(matrix.reshape((2,) * total_qubits + (columns,)), targets, range(k))
    product = (operator @ front.reshape(2 ** k, -1)).reshape(front.shape)
    return np.moveaxis(product, range(k), targets).reshape(rows, columns)


def embed_operator(
    operator: np.ndarray, positions: Sequence[int], total_qubits: int
) -> np.ndarray:
    """Promote ``operator`` (acting on ``len(positions)`` qubits) to ``total_qubits`` qubits.

    ``positions`` lists, in order, the indices of the target qubits inside the
    full register (position 0 being the most significant factor).  The result is
    the cylinder extension ``operator ⊗ I`` with each factor in its requested
    slot: :func:`apply_to_qubits` applied to the identity.
    """
    operator = np.asarray(operator, dtype=complex)
    if operator.shape[0] == 2 ** total_qubits and list(positions) == list(range(total_qubits)):
        return operator
    identity = np.eye(2 ** total_qubits, dtype=complex)
    return apply_to_qubits(operator, positions, identity, total_qubits)


def expand_to_register(
    operator: np.ndarray, qubits: Sequence[str], register: Sequence[str]
) -> np.ndarray:
    """Embed an operator given on named ``qubits`` into the named ``register``."""
    positions = []
    register = list(register)
    for name in qubits:
        if name not in register:
            raise LinalgError(f"qubit {name!r} is not part of the register {register}")
        positions.append(register.index(name))
    return embed_operator(operator, positions, len(register))


def partial_trace(
    operator: np.ndarray, keep: Sequence[int], total_qubits: int | None = None
) -> np.ndarray:
    """Trace out every qubit not listed in ``keep``.

    ``keep`` lists the (0-based) positions of the qubits to retain; the result is
    ordered according to ``keep``.
    """
    operator = np.asarray(operator, dtype=complex)
    n = num_qubits_of(operator) if total_qubits is None else total_qubits
    if any(not 0 <= position < n for position in keep):
        raise LinalgError(f"positions {keep} out of range for {n} qubit(s)")
    if len(set(keep)) != len(keep):
        raise LinalgError(f"duplicate positions in {keep}")

    keep = list(keep)
    traced = [position for position in range(n) if position not in keep]
    tensor = operator.reshape([2] * (2 * n))
    # Contract each traced qubit's row index with its column index.
    for offset, position in enumerate(traced):
        axis_row = position - sum(1 for q in traced[:offset] if q < position)
        current_qubits = n - offset
        tensor = np.trace(tensor, axis1=axis_row, axis2=axis_row + current_qubits)
    remaining_order = [position for position in range(n) if position in keep]
    result_qubits = len(keep)
    matrix = tensor.reshape(2 ** result_qubits, 2 ** result_qubits)
    if remaining_order != keep:
        permutation = [remaining_order.index(position) for position in keep]
        matrix = permute_qubits(matrix, permutation)
    return matrix


def reduced_state(
    rho: np.ndarray, keep_qubits: Sequence[str], register: Sequence[str]
) -> np.ndarray:
    """Return the reduced state of ``rho`` on the named ``keep_qubits``."""
    register = list(register)
    positions = []
    for name in keep_qubits:
        if name not in register:
            raise LinalgError(f"qubit {name!r} is not part of the register {register}")
        positions.append(register.index(name))
    return partial_trace(rho, positions, len(register))

