"""Tests for the scalable program families (repetition code, hypercube walk, Grover layouts)."""

import numpy as np
import pytest

from repro.exceptions import SemanticsError
from repro.language.ast import Unitary
from repro.logic.prover import ProverOptions, verify_formula
from repro.programs.errcorr import ancilla_names, errcorr_formula, errcorr_program, errcorr_register
from repro.programs.grover import grover_program
from repro.programs.qwalk import (
    qwalk_body,
    qwalk_formula,
    qwalk_invariant,
    qwalk_measurement,
    qwalk_register,
)
from repro.semantics.equivalence import programs_equivalent


# ---------------------------------------------------------------------------
# Repetition-code family
# ---------------------------------------------------------------------------


def test_errcorr_default_matches_paper_register():
    assert errcorr_register().names == ("q", "q1", "q2")
    assert ancilla_names() == ("q1", "q2")


@pytest.mark.parametrize("code_size", [3, 4, 5])
def test_errcorr_family_verifies(code_size):
    formula, register = errcorr_formula(num_data_qubits=code_size)
    assert register.num_qubits == code_size
    report = verify_formula(formula, register)
    assert report.verified


def test_errcorr_family_statements_stay_local():
    program = errcorr_program(5)
    for node in program.walk():
        if isinstance(node, Unitary):
            assert len(node.qubits) <= 2


def test_errcorr_rejects_uncorrectable_sizes():
    with pytest.raises(SemanticsError):
        errcorr_register(2)


# ---------------------------------------------------------------------------
# Quantum-walk family
# ---------------------------------------------------------------------------


def test_qwalk_default_is_the_paper_walk():
    formula, register = qwalk_formula()
    assert register.names == ("q1", "q2")
    body = qwalk_body()
    unitaries = [node for node in body.walk() if isinstance(node, Unitary)]
    assert {node.name for node in unitaries} == {"W1", "W2"}


@pytest.mark.parametrize("positions", [8, 16, 32])
def test_qwalk_family_never_terminates(positions):
    formula, register = qwalk_formula(positions)
    assert register.dimension == positions
    report = verify_formula(formula, register, [qwalk_invariant(positions)])
    assert report.verified


def test_qwalk_family_body_is_single_qubit_local():
    body = qwalk_body(16)
    for node in body.walk():
        if isinstance(node, Unitary):
            assert len(node.qubits) == 1


def test_qwalk_measurement_absorbs_at_one_zero_vector():
    measurement = qwalk_measurement(8)
    assert measurement.p0[4, 4] == pytest.approx(1.0)
    assert np.trace(measurement.p0).real == pytest.approx(1.0)


def test_qwalk_rejects_non_power_of_two():
    with pytest.raises(SemanticsError):
        qwalk_register(6)
    with pytest.raises(SemanticsError):
        qwalk_register(2)


# ---------------------------------------------------------------------------
# Grover layouts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("qubits", [2, 3, 4, 5, 6])
def test_grover_layouts_denote_the_same_program(qubits):
    fused = grover_program(qubits)
    gates = grover_program(qubits, layout="gates")
    assert programs_equivalent(fused, gates)


def test_grover_gates_layout_emits_single_qubit_hadamards():
    program = grover_program(3, layout="gates")
    hadamards = [
        node for node in program.walk() if isinstance(node, Unitary) and node.name == "H"
    ]
    assert hadamards and all(len(node.qubits) == 1 for node in hadamards)


def test_grover_rejects_unknown_layout():
    with pytest.raises(ValueError):
        grover_program(3, layout="banana")
