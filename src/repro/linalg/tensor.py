"""Tensor-product utilities: embedding, qubit permutation and partial trace.

These functions are the workhorse of the register machinery: an operator given
on a few named qubits must be promoted ("cylinder extension" in the paper's
terminology) to the full program register before it can be composed with other
operators.  :func:`embed_operator` / :func:`expand_to_register` materialise the
cylinder extension ``A ⊗ I`` as a full ``2^n × 2^n`` matrix, which is the one
way statements reach the register in the semantics engines.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import DimensionMismatchError, LinalgError
from .operators import num_qubits_of

__all__ = [
    "kron_all",
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


def embed_operator(
    operator: np.ndarray, positions: Sequence[int], total_qubits: int
) -> np.ndarray:
    """Promote ``operator`` (acting on ``len(positions)`` qubits) to ``total_qubits`` qubits.

    ``positions`` lists, in order, the indices of the target qubits inside the
    full register (position 0 being the most significant factor).  The result is
    the cylinder extension ``operator ⊗ I`` followed by the permutation that puts
    each factor in its requested slot.
    """
    operator = np.asarray(operator, dtype=complex)
    k = num_qubits_of(operator)
    if len(positions) != k:
        raise DimensionMismatchError(
            f"operator acts on {k} qubit(s) but {len(positions)} position(s) were given"
        )
    if len(set(positions)) != len(positions):
        raise LinalgError(f"duplicate qubit positions in {positions}")
    if any(not 0 <= p < total_qubits for p in positions):
        raise LinalgError(f"positions {positions} out of range for {total_qubits} qubit(s)")
    if total_qubits == k and list(positions) == list(range(k)):
        return operator

    identity_count = total_qubits - k
    extended = np.kron(operator, np.eye(2 ** identity_count, dtype=complex))
    # The extended operator acts on qubits ordered as: positions[0..k-1] then the rest.
    remaining = [index for index in range(total_qubits) if index not in positions]
    current_order = list(positions) + remaining
    # permutation[i] = index inside current_order of the qubit that must sit at slot i.
    permutation = [current_order.index(i) for i in range(total_qubits)]
    return permute_qubits(extended, permutation)


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

