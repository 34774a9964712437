"""Tests for the termination and refinement analyses."""

import numpy as np
import pytest

from repro.analysis.refinement import check_refinement, transfer_formula
from repro.analysis.termination import (
    loop_termination_curve,
    termination_probability,
    termination_report,
)
from repro.language.ast import MEAS_COMPUTATIONAL, Skip, Unitary, While, ndet, seq
from repro.linalg.constants import H, P0, X
from repro.linalg.states import density, ket, plus_state
from repro.logic.formula import CorrectnessFormula, CorrectnessMode
from repro.predicates.assertion import QuantumAssertion
from repro.programs.qwalk import qwalk_formula, qwalk_program
from repro.programs.rus import rus_program
from repro.registers import QubitRegister


class TestTermination:
    def test_terminating_program(self):
        register = QubitRegister(["q"])
        report = termination_report(rus_program(), density(ket("1")), register)
        assert report.always_terminates()
        assert report.minimum == pytest.approx(1.0, abs=1e-6)

    def test_quantum_walk_never_terminates(self):
        formula, register = qwalk_formula()
        report = termination_report(qwalk_program(), density(ket("00")), register)
        assert report.never_terminates()
        assert report.maximum == pytest.approx(0.0, abs=1e-9)

    def test_partial_termination(self):
        register = QubitRegister(["q"])
        loop = While(MEAS_COMPUTATIONAL, ("q",), Skip())
        probabilities = termination_probability(loop, density(plus_state()), register)
        assert probabilities[0] == pytest.approx(0.5, abs=1e-9)

    def test_termination_curve_is_monotone(self):
        register = QubitRegister(["q"])
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        curve = loop_termination_curve(loop, density(ket("1")), register, max_iterations=20)
        assert len(curve) <= 20 + 1
        assert all(later >= earlier - 1e-12 for earlier, later in zip(curve, curve[1:]))
        assert curve[-1] == pytest.approx(1.0, abs=1e-4)
        assert curve[0] == pytest.approx(0.0, abs=1e-12)

    def test_report_analyses_each_loop_once(self, monkeypatch):
        """The wp and wlp calls share each loop's body maps and ``I``-seeded pass."""
        from repro.semantics import denotational, wp

        denoted, seeds = [], []
        denote, run = denotational.denotation, wp._antichain_pass

        def denoting(program, *args, **kwargs):
            denoted.append(program)
            return denote(program, *args, **kwargs)

        def running(seed, *args, **kwargs):
            seeds.append(seed)
            return run(seed, *args, **kwargs)

        monkeypatch.setattr(denotational, "denotation", denoting)
        monkeypatch.setattr(wp, "_antichain_pass", running)
        register = QubitRegister(["q"])
        first = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        both = ndet(Unitary(("q",), "H", H), seq(Unitary(("q",), "X", X), Unitary(("q",), "H", H)))
        second = While(MEAS_COMPUTATIONAL, ("q",), both)
        report = termination_report(seq(first, second), density(ket("1")), register)
        assert report.always_terminates()
        # The transformers run backwards: the last loop is reached first.
        assert [id(body) for body in denoted] == [id(second.body), id(first.body)]
        assert len(seeds) == 2

    def test_report_bounds(self):
        register = QubitRegister(["q"])
        program = ndet(Skip(), seq(Unitary(("q",), "X", X), While(MEAS_COMPUTATIONAL, ("q",), Skip())))
        report = termination_report(program, density(ket("0")), register)
        assert report.maximum == pytest.approx(1.0)
        assert report.minimum == pytest.approx(0.0, abs=1e-9)
        assert not report.always_terminates()
        assert not report.never_terminates()


class TestRefinement:
    def test_branch_refines_choice(self):
        specification = ndet(Skip(), Unitary(("q",), "X", X))
        implementation = Unitary(("q",), "X", X)
        report = check_refinement(implementation, specification)
        assert report.refines
        assert not check_refinement(Unitary(("q",), "H", H), specification).refines

    def test_formula_transfers_to_refinement(self):
        specification = ndet(Skip(), Unitary(("q",), "X", X))
        # X;X is channel-equal to skip, hence a refinement of the specification.
        implementation = seq(Unitary(("q",), "X", X), Unitary(("q",), "X", X))
        formula = CorrectnessFormula(
            QuantumAssertion([0.0 * P0]), specification, QuantumAssertion([P0]), CorrectnessMode.TOTAL
        )
        result = transfer_formula(formula, implementation)
        assert result.holds

    def test_transfer_detects_violation_for_non_refinement(self):
        specification = Skip()
        implementation = Unitary(("q",), "X", X)
        formula = CorrectnessFormula(
            QuantumAssertion([P0]), specification, QuantumAssertion([P0]), CorrectnessMode.TOTAL
        )
        result = transfer_formula(formula, implementation)
        assert not result.holds
