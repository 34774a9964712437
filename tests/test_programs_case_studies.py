"""Integration tests for the paper's three case studies (Sec. 5) and extensions."""

import numpy as np
import pytest

from repro.exceptions import InvariantError
from repro.language.ast import NDet, While
from repro.linalg.operators import operators_close
from repro.linalg.states import density, ket, state_from_amplitudes
from repro.logic.formula import CorrectnessMode
from repro.logic.prover import verify_formula
from repro.logic.semantic_check import check_formula_semantically
from repro.programs.deutsch import deutsch_formula, deutsch_program, oracle_unitary
from repro.programs.errcorr import errcorr_formula, errcorr_program, errcorr_register
from repro.programs.grover import grover_formula
from repro.programs.phaseflip import phaseflip_formula
from repro.programs.qwalk import (
    invalid_invariant,
    qwalk_formula,
    qwalk_invariant,
    qwalk_program,
)
from repro.programs.rus import nondeterministic_rus_program, rus_formula, rus_invariant
from repro.programs.teleport import teleport_formula
from repro.semantics.denotational import apply_denotation, denotation


class TestErrorCorrection:
    """Experiment E1: the three-qubit bit-flip code (Sec. 5.1, Eq. (13))."""

    def test_program_shape(self):
        program = errcorr_program()
        choices = [node for node in program.walk() if isinstance(node, NDet)]
        assert len(choices) == 1
        assert len(choices[0].branches) == 4

    def test_denotation_has_four_branches_each_preserving_the_data_qubit(self):
        """Example 3.2: every branch restores the data qubit perfectly."""
        register = errcorr_register()
        psi = state_from_amplitudes([0.6, 0.8j])
        rho = np.kron(density(psi), density(ket("00")))
        outputs = apply_denotation(errcorr_program(), rho, register)
        assert len(outputs) == 4
        for output in outputs:
            assert np.trace(output).real == pytest.approx(1.0)
            reduced = register.reduce(output, ["q"])
            assert operators_close(reduced, density(psi))

    @pytest.mark.parametrize(
        "amplitudes",
        [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (1 / np.sqrt(2), 1j / np.sqrt(2))],
    )
    def test_total_correctness_for_several_input_states(self, amplitudes):
        formula, register = errcorr_formula(*amplitudes)
        report = verify_formula(formula, register)
        assert report.verified

    def test_partial_correctness_follows(self):
        formula, register = errcorr_formula(mode=CorrectnessMode.PARTIAL)
        assert verify_formula(formula, register).verified

    def test_semantic_cross_check(self):
        formula, register = errcorr_formula()
        assert check_formula_semantically(formula, register, samples=3).holds


class TestDeutsch:
    """Experiment E2: Deutsch's algorithm (Sec. 5.2, Eq. (14))."""

    def test_oracle_unitaries(self):
        assert operators_close(oracle_unitary(0, 0), np.eye(4))
        # f(0)=0, f(1)=1 is the CNOT oracle.
        assert operators_close(oracle_unitary(0, 1)[2:, 2:], np.array([[0, 1], [1, 0]]))

    def test_program_has_two_nondeterministic_choices(self):
        program = deutsch_program()
        choices = [node for node in program.walk() if isinstance(node, NDet)]
        assert len(choices) == 2

    def test_total_correctness(self):
        formula, register = deutsch_formula()
        report = verify_formula(formula, register)
        assert report.verified
        # The verification condition must itself be (entailed by) the identity.
        assert formula.precondition.expectation(np.eye(8) / 8) <= report.verification_condition.expectation(np.eye(8) / 8) + 1e-9

    def test_semantic_cross_check(self):
        formula, register = deutsch_formula()
        assert check_formula_semantically(formula, register, samples=3).holds

    def test_all_four_branches_decide_correctly(self):
        """Each resolved oracle branch ends with q1 agreeing with the class of f."""
        from repro.semantics.denotational import DenotationOptions

        formula, register = deutsch_formula()
        maps = denotation(formula.program, register, DenotationOptions(dedup=False))
        assert len(maps) == 4
        post = formula.postcondition.predicates[0].matrix
        rho = np.eye(8, dtype=complex) / 8
        for channel in maps:
            output = channel.apply(rho)
            assert np.trace(post @ output).real == pytest.approx(np.trace(output).real, abs=1e-9)


class TestQuantumWalk:
    """Experiment E3: the nondeterministic quantum walk (Sec. 5.3, Eq. (15))."""

    def test_partial_correctness_with_paper_invariant(self):
        formula, register = qwalk_formula()
        report = verify_formula(formula, register, invariants=[qwalk_invariant()])
        assert report.verified

    def test_invalid_invariant_is_rejected_like_in_sec_62(self):
        formula, register = qwalk_formula()
        with pytest.raises(InvariantError) as excinfo:
            verify_formula(formula, register, invariants=[invalid_invariant()])
        assert "not a valid loop invariant" in str(excinfo.value)

    def test_walk_never_terminates_under_explored_schedulers(self):
        formula, register = qwalk_formula()
        rho = density(ket("00"))
        for channel in denotation(formula.program, register):
            assert np.trace(channel.apply(rho)).real == pytest.approx(0.0, abs=1e-9)

    def test_invariant_is_preserved_by_both_walk_orders(self):
        invariant = qwalk_invariant().predicates[0].matrix
        program = qwalk_program()
        loop = next(node for node in program.walk() if isinstance(node, While))
        register = qwalk_formula()[1]
        for channel in denotation(loop.body, register):
            conjugated = channel.apply_adjoint(invariant)
            assert operators_close(conjugated, invariant, atol=1e-9)


class TestExtensions:
    def test_teleportation(self):
        formula, register = teleport_formula(0.6, 0.8j)
        assert verify_formula(formula, register).verified
        assert check_formula_semantically(formula, register, samples=3).holds

    def test_phase_flip_code(self):
        formula, register = phaseflip_formula()
        assert verify_formula(formula, register).verified

    def test_repeat_until_success_total_correctness(self):
        formula, register = rus_formula()
        report = verify_formula(formula, register, invariants=[rus_invariant()])
        assert report.verified

    def test_nondeterministic_rus_total_correctness(self):
        formula, register = rus_formula(nondeterministic=True)
        report = verify_formula(formula, register, invariants=[rus_invariant()])
        assert report.verified
        assert isinstance(
            next(node for node in formula.program.walk() if isinstance(node, While)).body, NDet
        )


def _small_case_study_formulas():
    """Yield ``(name, formula, register, invariants)`` for the case studies at 1–3 qubits."""
    yield "deutsch", *deutsch_formula(), []
    for qubits in (2, 3):
        yield f"grover{qubits}", *grover_formula(qubits), []
        yield f"grover{qubits}-gates", *grover_formula(qubits, layout="gates"), []
    for positions in (4, 8):
        formula, register = qwalk_formula(positions)
        yield f"qwalk{positions}", formula, register, [qwalk_invariant(positions)]
    yield "errcorr3", *errcorr_formula(num_data_qubits=3), []
    formula, register = rus_formula()
    yield "rus", formula, register, [rus_invariant()]


SMALL_CASES = list(_small_case_study_formulas())


@pytest.mark.parametrize(
    "name,formula,register,invariants", SMALL_CASES, ids=[case[0] for case in SMALL_CASES]
)
def test_case_study_formulas_verify_up_to_three_qubits(name, formula, register, invariants):
    # 4-qubit members are verified by the benchmarks; the prover sweep stays cheap.
    assert register.num_qubits <= 3
    assert verify_formula(formula, register, invariants or None).verified
