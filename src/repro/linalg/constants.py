"""Standard constants and elementary quantum gates.

All matrices are dense complex ``numpy`` arrays expressed in the computational
basis, following Sec. 2 of the paper.  Multi-qubit gates use the convention
that the *first* listed qubit corresponds to the most significant bit of the
basis index (so ``CX`` maps ``|10⟩ ↦ |11⟩``).
"""

from __future__ import annotations

import numpy as np

#: Default absolute tolerance used by every structural check in the library.
ATOL = 1e-8

#: Default absolute tolerance for *order* decisions: the Löwner comparison
#: ``A ⊑ B`` and the CPO order ``E ⪯ F`` on super-operators (Lemma 3.1), plus
#: the projector/normalisation checks that feed them.  Eigenvalue routines on
#: composed operators accumulate round-off beyond ``ATOL``, so order decisions
#: default to this slightly looser value.  This is the single place the
#: default is defined; callers passing an explicit ``atol`` are honored as
#: given — stricter requests are **not** silently clamped back to ``1e-7``.
ORDER_ATOL = 1e-7

#: Looser tolerance used by iterative numerical procedures (fixpoints, SDP substitute).
NUMERIC_TOL = 1e-6

# ---------------------------------------------------------------------------
# Single-qubit operators
# ---------------------------------------------------------------------------

#: 2x2 identity.
I2 = np.eye(2, dtype=complex)

#: Pauli-X (bit flip).
X = np.array([[0, 1], [1, 0]], dtype=complex)

#: Pauli-Y.
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

#: Pauli-Z (phase flip).
Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Hadamard gate.
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

#: Phase gate S = diag(1, i).
S = np.array([[1, 0], [0, 1j]], dtype=complex)

#: T gate = diag(1, e^{iπ/4}).
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)

#: Projector onto |0⟩.
P0 = np.array([[1, 0], [0, 0]], dtype=complex)

#: Projector onto |1⟩.
P1 = np.array([[0, 0], [0, 1]], dtype=complex)

#: Projector onto |+⟩.
PPLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

#: Projector onto |−⟩.
PMINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)

#: The zero predicate on one qubit (plays the role of ``false``).
ZERO2 = np.zeros((2, 2), dtype=complex)

# ---------------------------------------------------------------------------
# Two-qubit operators
# ---------------------------------------------------------------------------

#: Controlled-NOT with the first qubit as control.
CX = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)

#: CNOT conditioned on the control being |0⟩:  C0X = (X ⊗ I) · CX · (X ⊗ I).
C0X = np.array(
    [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

#: Controlled-Z.
CZ = np.diag([1, 1, 1, -1]).astype(complex)

#: SWAP gate.
SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

# ---------------------------------------------------------------------------
# Three-qubit operators
# ---------------------------------------------------------------------------

#: Toffoli (CCX) gate, controls on the first two qubits.
CCX = np.eye(8, dtype=complex)
CCX[[6, 7], :] = CCX[[7, 6], :]

# ---------------------------------------------------------------------------
# Nondeterministic quantum walk operators (Sec. 5.3 of the paper)
# ---------------------------------------------------------------------------

#: Walk operator W1 of the nondeterministic quantum walk.
W1 = np.array(
    [
        [1, 1, 0, -1],
        [1, -1, 1, 0],
        [0, 1, 1, 1],
        [1, 0, -1, 1],
    ],
    dtype=complex,
) / np.sqrt(3)

#: Walk operator W2 of the nondeterministic quantum walk.
W2 = np.array(
    [
        [1, 1, 0, 1],
        [-1, 1, -1, 0],
        [0, 1, 1, -1],
        [1, 0, -1, -1],
    ],
    dtype=complex,
) / np.sqrt(3)


def identity(num_qubits: int) -> np.ndarray:
    """Return the identity operator on ``num_qubits`` qubits."""
    return np.eye(2 ** num_qubits, dtype=complex)


def zero_operator(num_qubits: int) -> np.ndarray:
    """Return the zero operator on ``num_qubits`` qubits."""
    return np.zeros((2 ** num_qubits, 2 ** num_qubits), dtype=complex)


#: Names of the operators exported to the assistant's default environment.
NAMED_GATES = {
    "I": I2,
    "X": X,
    "Y": Y,
    "Z": Z,
    "H": H,
    "S": S,
    "T": T,
    "CX": CX,
    "CNOT": CX,
    "C0X": C0X,
    "CZ": CZ,
    "SWAP": SWAP,
    "CCX": CCX,
    "W1": W1,
    "W2": W2,
}

# The constants are shared by every caller (and every default environment),
# so they are read-only: writing into one raises instead of changing it for
# all of them.
for _constant in (
    I2, X, Y, Z, H, S, T, P0, P1, PPLUS, PMINUS, ZERO2, CX, C0X, CZ, SWAP, CCX, W1, W2
):
    _constant.setflags(write=False)
del _constant
