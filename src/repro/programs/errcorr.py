"""Bit-flip repetition-code error correction as a nondeterministic program.

The three-qubit instance is Example 3.1 of the paper: encode an arbitrary
single-qubit state ``α0|0⟩ + α1|1⟩`` into ``α0|000⟩ + α1|111⟩``, let at most
one (unknown) qubit suffer a bit-flip — the unknown noise is modelled as a
nondeterministic choice — and then decode, detecting and undoing the error.
The correctness statement (Eq. (13)) says the data qubit ``q`` is returned in
its original state under every resolution of the nondeterminism:

    ⊨_tot { [ψ]_q }  ErrCorr  { [ψ]_q }    for every pure state ψ.

This module generalises the example to the ``n``-qubit repetition code
(``num_data_qubits`` physical qubits: the data qubit plus ``n − 1`` syndrome
ancillas) with the same single-bit-flip noise model:

* encode with a fan-out of ``CX`` gates, decode with the reverse fan-out;
* after decoding, an error on the data qubit leaves *every* ancilla in
  ``|1⟩`` while an error on ancilla ``i`` flips only ancilla ``i``, so the
  correction flips ``q`` exactly when all ancillas measure ``1``.

Every statement of the family is a one- or two-qubit operation regardless of
``n``, so the family shows how the cost of the cylinder extensions grows with
the register width alone (see ``benchmarks/bench_scaling.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import SemanticsError
from ..language.ast import (
    If,
    Init,
    MEAS_COMPUTATIONAL,
    Program,
    Skip,
    Unitary,
    if_then,
    ndet,
    seq,
)
from ..linalg.constants import CX, X
from ..linalg.states import state_from_amplitudes
from ..logic.formula import CorrectnessFormula, CorrectnessMode
from ..predicates.assertion import QuantumAssertion
from ..predicates.predicate import QuantumPredicate
from ..registers import QubitRegister

__all__ = [
    "DATA_QUBIT",
    "ANCILLA_QUBITS",
    "ancilla_names",
    "errcorr_register",
    "errcorr_program",
    "noise_choice",
    "errcorr_formula",
    "encoded_state_predicate",
]

#: Name of the protected data qubit.
DATA_QUBIT = "q"

#: Names of the two syndrome/ancilla qubits of the default three-qubit code.
ANCILLA_QUBITS = ("q1", "q2")


def _check_code_size(num_data_qubits: int) -> None:
    """Reject code sizes the all-ancillas syndrome rule cannot correct."""
    if num_data_qubits < 3:
        raise SemanticsError(
            f"the repetition code needs at least 3 physical qubits, got {num_data_qubits}"
        )


def ancilla_names(num_data_qubits: int = 3) -> Tuple[str, ...]:
    """Return the ancilla names ``q1 … q{n-1}`` of the ``n``-qubit code."""
    _check_code_size(num_data_qubits)
    return tuple(f"q{index}" for index in range(1, num_data_qubits))


def errcorr_register(num_data_qubits: int = 3) -> QubitRegister:
    """Return the code register ``(q, q1, …, q{n-1})`` (default: the paper's ``(q, q1, q2)``)."""
    return QubitRegister((DATA_QUBIT,) + ancilla_names(num_data_qubits))


def noise_choice(num_data_qubits: int = 3) -> Program:
    """The nondeterministic noise statement: no error, or a bit flip on one qubit."""
    branches = [Skip(), Unitary((DATA_QUBIT,), "X", X)]
    branches.extend(
        Unitary((name,), "X", X) for name in ancilla_names(num_data_qubits)
    )
    return ndet(*branches)


def errcorr_program(num_data_qubits: int = 3) -> Program:
    """Return the ``ErrCorr`` program (encode → noise → decode → correct).

    The default reproduces Example 3.1 exactly; larger ``num_data_qubits``
    produce the ``n``-qubit repetition code with the same structure: each
    statement stays a one- or two-qubit operation.
    """
    q = DATA_QUBIT
    ancillas = ancilla_names(num_data_qubits)
    encode = [Unitary((q, ancilla), "CX", CX) for ancilla in ancillas]
    decode = list(reversed(encode))
    # Flip the data qubit exactly when every ancilla measures 1: nested
    # conditionals from the innermost (q1) outwards.
    correction: Program = Unitary((q,), "X", X)
    for ancilla in ancillas:
        correction = if_then(MEAS_COMPUTATIONAL, (ancilla,), correction)
    return seq(
        Init(ancillas),
        *encode,
        noise_choice(num_data_qubits),
        *decode,
        correction,
    )


def encoded_state_predicate(
    alpha0: complex, alpha1: complex, register: QubitRegister
) -> QuantumPredicate:
    """Return the rank-one predicate ``[ψ]_q ⊗ I`` for ``ψ = α0|0⟩ + α1|1⟩``."""
    psi = state_from_amplitudes([alpha0, alpha1])
    data_predicate = QuantumPredicate.from_state(psi, name="psi")
    return data_predicate.embed((DATA_QUBIT,), register)


def errcorr_formula(
    alpha0: complex = 0.6,
    alpha1: complex = 0.8,
    mode: CorrectnessMode = CorrectnessMode.TOTAL,
    num_data_qubits: int = 3,
) -> Tuple[CorrectnessFormula, QubitRegister]:
    """Return the correctness formula of Eq. (13) for the given amplitudes.

    Both pre- and postcondition are ``[ψ]_q`` (extended by the identity on the
    ancillas), asserting that the data qubit is perfectly preserved under
    every resolution of the single-bit-flip noise.  ``num_data_qubits`` scales
    the repetition code (default 3 = the paper's example).
    """
    register = errcorr_register(num_data_qubits)
    predicate = encoded_state_predicate(alpha0, alpha1, register)
    assertion = QuantumAssertion([predicate], name="psi_q")
    formula = CorrectnessFormula(assertion, errcorr_program(num_data_qubits), assertion, mode)
    return formula, register
