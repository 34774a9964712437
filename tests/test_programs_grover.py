"""Tests for the Grover performance workload (Sec. 6, experiment E4)."""

import numpy as np
import pytest

from repro.linalg.operators import is_unitary, operators_close
from repro.linalg.states import density, ket
from repro.logic.prover import verify_formula
from repro.programs.grover import (
    diffusion_matrix,
    grover_formula,
    grover_iterations,
    grover_program,
    grover_register,
    grover_success_probability,
    oracle_matrix,
)
from repro.semantics.denotational import denotation


class TestBuildingBlocks:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_oracle_and_diffusion_are_unitary(self, num_qubits):
        assert is_unitary(oracle_matrix(num_qubits, 0))
        assert is_unitary(diffusion_matrix(num_qubits))

    def test_oracle_marks_only_the_target(self):
        oracle = oracle_matrix(2, 3)
        assert oracle[3, 3] == -1.0
        assert np.trace(oracle).real == pytest.approx(2.0)  # 4 diag entries, one flipped

    def test_oracle_range_check(self):
        with pytest.raises(ValueError):
            oracle_matrix(2, 7)

    def test_iteration_count_grows_with_square_root(self):
        assert grover_iterations(2) >= 1
        assert grover_iterations(8) > grover_iterations(4) > grover_iterations(2)

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    def test_success_probability_is_high(self, num_qubits):
        assert grover_success_probability(num_qubits) > 0.8


class TestProgramAndFormula:
    def test_program_is_deterministic_and_loop_free(self):
        program = grover_program(3)
        assert program.is_deterministic()
        assert not program.contains_while()

    def test_denotation_matches_analytic_success_probability(self):
        num_qubits, marked = 3, 5
        program = grover_program(num_qubits, marked)
        register = grover_register(num_qubits)
        channel = denotation(program, register)[0]
        output = channel.apply(np.eye(register.dimension, dtype=complex) / register.dimension)
        probability = output[marked, marked].real
        assert probability == pytest.approx(grover_success_probability(num_qubits), abs=1e-9)

    def test_gate_layout_7_reaches_the_analytic_success_probability(self):
        # The 135 gates meet the one column that [q0 … q6] := 0 prepares, and
        # the column is spread to Set0's 128 Kraus operators once, at the end.
        (channel,) = denotation(grover_program(7, layout="gates"), grover_register(7))
        # [[Grover]](|0…0⟩⟨0…0|) at the marked basis state 0.
        kraus = np.stack(channel.kraus_operators)
        marked = float(np.sum(np.abs(kraus[:, 0, 0]) ** 2))
        assert marked == pytest.approx(grover_success_probability(7), abs=1e-8)

    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_formula_verifies(self, num_qubits):
        formula, register = grover_formula(num_qubits, marked=1)
        report = verify_formula(formula, register)
        assert report.verified

    def test_marked_element_is_respected(self):
        formula, register = grover_formula(3, marked=6)
        post = formula.postcondition.predicates[0].matrix
        assert post[6, 6] == 1.0
        assert np.trace(post).real == pytest.approx(1.0)

    def test_verification_cost_grows_with_dimension(self):
        """The VC generation manipulates 2^n-dimensional operators (the paper's point)."""
        small = grover_formula(2)[0]
        large = grover_formula(5)[0]
        assert large.dimension == 32 > small.dimension == 4
