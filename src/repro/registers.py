"""Named qubit registers.

A :class:`QubitRegister` fixes an ordered list of qubit names and provides the
mapping between named sub-systems and tensor-factor positions.  Programs,
assertions and super-operators are always interpreted over a register, which
implements the paper's convention that operators are silently identified with
their cylinder extensions on larger Hilbert spaces.  A gate meets a register
matrix through :meth:`QubitRegister.apply` and :meth:`QubitRegister.conjugate`,
which contract only the gate's qubits (:func:`~repro.linalg.tensor.apply_to_qubits`);
:meth:`QubitRegister.embed` builds the extension itself with the same kernel.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from .exceptions import RegisterError
from .linalg.tensor import apply_to_qubits, embed_operator, partial_trace

__all__ = ["QubitRegister"]


class QubitRegister:
    """An ordered, duplicate-free collection of named qubits."""

    def __init__(self, qubits: Iterable[str]):
        names = list(qubits)
        if not names:
            raise RegisterError("a register must contain at least one qubit")
        if len(set(names)) != len(names):
            raise RegisterError(f"duplicate qubit names in register: {names}")
        for name in names:
            if not isinstance(name, str) or not name:
                raise RegisterError(f"invalid qubit name {name!r}")
        self._names: Tuple[str, ...] = tuple(names)
        self._positions = {name: index for index, name in enumerate(self._names)}

    # ------------------------------------------------------------------ basics
    @property
    def names(self) -> Tuple[str, ...]:
        """The qubit names in register order."""
        return self._names

    @property
    def num_qubits(self) -> int:
        """Number of qubits in the register."""
        return len(self._names)

    @property
    def dimension(self) -> int:
        """Dimension of the associated Hilbert space (``2^n``)."""
        return 2 ** self.num_qubits

    def __len__(self) -> int:
        return self.num_qubits

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._positions

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QubitRegister) and self._names == other._names

    def __hash__(self) -> int:
        return hash(self._names)

    def __repr__(self) -> str:
        return f"QubitRegister({list(self._names)!r})"

    # --------------------------------------------------------------- positions
    def position(self, name: str) -> int:
        """Return the tensor-factor position of qubit ``name``."""
        try:
            return self._positions[name]
        except KeyError:
            raise RegisterError(f"unknown qubit {name!r}; register contains {list(self._names)}") from None

    def positions(self, names: Sequence[str]) -> Tuple[int, ...]:
        """Return the positions of several qubits, preserving order."""
        return tuple(self.position(name) for name in names)

    def check_contains(self, names: Sequence[str]) -> None:
        """Raise :class:`RegisterError` unless every name belongs to the register."""
        for name in names:
            self.position(name)
        if len(set(names)) != len(names):
            raise RegisterError(f"duplicate qubits in {list(names)}")

    # --------------------------------------------------------------- operators
    def identity(self) -> np.ndarray:
        """Return the identity operator on the whole register."""
        return np.eye(self.dimension, dtype=complex)

    def zero(self) -> np.ndarray:
        """Return the zero operator on the whole register."""
        return np.zeros((self.dimension, self.dimension), dtype=complex)

    def embed(self, operator: np.ndarray, qubits: Sequence[str]) -> np.ndarray:
        """Promote ``operator`` (given on the named ``qubits``) to the full register."""
        self.check_contains(qubits)
        return embed_operator(operator, self.positions(qubits), self.num_qubits)

    def apply(self, operator: np.ndarray, qubits: Sequence[str], matrix: np.ndarray) -> np.ndarray:
        """Return ``(operator ⊗ I)·matrix`` for ``operator`` on the named ``qubits``.

        ``matrix`` has one row per basis state of the register and any number
        of columns; the extension is never built.
        """
        self.check_contains(qubits)
        return apply_to_qubits(operator, self.positions(qubits), matrix, self.num_qubits)

    def conjugate(self, matrix: np.ndarray, operator: np.ndarray, qubits: Sequence[str]) -> np.ndarray:
        """Return ``U†MU`` for ``U = operator ⊗ I`` on the named ``qubits``.

        Two kernel calls: ``MU = ((Uᵀ ⊗ I)·Mᵀ)ᵀ``, then ``U†·(MU)``.  ``M``
        need not be hermitian.
        """
        self.check_contains(qubits)
        positions = self.positions(qubits)
        operator = np.asarray(operator, dtype=complex)
        right = apply_to_qubits(operator.T, positions, np.asarray(matrix).T, self.num_qubits).T
        return apply_to_qubits(operator.conj().T, positions, right, self.num_qubits)

    def reduce(self, rho: np.ndarray, keep: Sequence[str]) -> np.ndarray:
        """Return the reduced state of ``rho`` on the named qubits ``keep``."""
        self.check_contains(keep)
        return partial_trace(rho, self.positions(keep), self.num_qubits)

    # ---------------------------------------------------------------- algebra
    def union(self, other: "QubitRegister | Iterable[str]") -> "QubitRegister":
        """Return a register containing this register's qubits followed by any new ones."""
        other_names = list(other.names) if isinstance(other, QubitRegister) else list(other)
        merged = list(self._names) + [name for name in other_names if name not in self._positions]
        return QubitRegister(merged)

    def restricted(self, names: Sequence[str]) -> "QubitRegister":
        """Return the sub-register containing exactly ``names`` (in the given order)."""
        self.check_contains(names)
        return QubitRegister(names)

    @staticmethod
    def for_program(program) -> "QubitRegister":
        """Return the canonical register of a program (its quantum variables, sorted)."""
        return QubitRegister(sorted(program.quantum_variables()))
