"""Unit tests for the automated prover (verification-condition generator)."""

import numpy as np
import pytest

from repro.exceptions import InvariantError, VerificationError
from repro.language.ast import (
    Abort,
    If,
    Init,
    MEAS_COMPUTATIONAL,
    Skip,
    Unitary,
    While,
    ndet,
    seq,
)
from repro.linalg.constants import H, I2, P0, P1, X, Z
from repro.linalg.operators import operators_close
from repro.linalg.random import random_predicate_matrix
from repro.logic import prover as prover_module
from repro.logic.formula import CorrectnessFormula, CorrectnessMode
from repro.logic.prover import Prover, ProverOptions, assign_invariants, verify_formula
from repro.logic.semantic_check import check_formula_semantically
from repro.predicates.assertion import QuantumAssertion
from repro.registers import QubitRegister


def A(*matrices, name=None):
    return QuantumAssertion(list(matrices), name=name)


@pytest.fixture
def q_register():
    return QubitRegister(["q"])


class TestLoopFreePrograms:
    def test_skip(self, q_register):
        report = verify_formula(CorrectnessFormula(A(P0), Skip(), A(P0)), q_register)
        assert report.verified
        assert report.verification_condition.set_equal(A(P0))

    def test_unitary_backward_step(self, q_register):
        formula = CorrectnessFormula(A(P1), Unitary(("q",), "X", X), A(P0))
        report = verify_formula(formula, q_register)
        assert report.verified
        assert report.outline.rules_used() == ["Unit"]

    def test_abort_partial_vs_total(self, q_register):
        partial = CorrectnessFormula(A(I2), Abort(), A(P0), CorrectnessMode.PARTIAL)
        assert verify_formula(partial, q_register).verified
        total = partial.with_mode(CorrectnessMode.TOTAL)
        report = verify_formula(total, q_register)
        assert not report.verified  # {I} abort {P0} is not totally correct
        zero_pre = CorrectnessFormula(A(np.zeros((2, 2))), Abort(), A(P0), CorrectnessMode.TOTAL)
        assert verify_formula(zero_pre, q_register).verified

    def test_sequence_and_conditional(self, q_register):
        program = seq(
            Init(("q",)),
            Unitary(("q",), "H", H),
            If(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "X", X), Skip()),
        )
        # The program always ends in |0⟩, so {I} S {P0} holds totally.
        formula = CorrectnessFormula(A(I2), program, A(P0), CorrectnessMode.TOTAL)
        report = verify_formula(formula, q_register)
        assert report.verified
        assert operators_close(report.verification_condition.predicates[0].matrix, I2)

    def test_nondeterministic_choice_requires_all_branches(self, q_register):
        program = ndet(Skip(), Unitary(("q",), "X", X))
        # {P0} S {P0} fails because the X branch maps |0⟩ to |1⟩.
        report = verify_formula(CorrectnessFormula(A(P0), program, A(P0)), q_register)
        assert not report.verified
        assert report.order_check is not None and report.order_check.witness is not None
        # The union precondition {P0, P1} is exactly the computed VC.
        assert report.verification_condition.set_equal(A(P0, P1))
        weak = CorrectnessFormula(A(np.zeros((2, 2))), program, A(P0))
        assert verify_formula(weak, q_register).verified

    def test_conditional_after_ndet_matches_wlp_exactly(self, q_register):
        """Regression: (Meas) is applied per postcondition predicate.

        With a multi-predicate assertion flowing backward into a conditional
        (here produced by the (skip # abort) choice), the old prover crossed
        the full branch precondition sets and produced a VC strictly below the
        weakest liberal precondition; the VC must equal the wlp set.
        """
        from repro.semantics.wp import weakest_liberal_precondition

        program = seq(
            If(MEAS_COMPUTATIONAL, ("q",), Skip(), Skip()),
            ndet(Skip(), Abort()),
        )
        post = A(np.array([[0.7, 0.1], [0.1, 0.5]], dtype=complex))
        formula = CorrectnessFormula(
            QuantumAssertion.zero(1), program, post, CorrectnessMode.PARTIAL
        )
        report = verify_formula(formula, q_register)
        assert report.verified
        expected = weakest_liberal_precondition(program, post, q_register)
        assert report.verification_condition.set_equal(expected)
        # The derived-rule label marks the per-predicate (Meas)+(Union) step.
        assert "Meas+Union" in report.outline.rules_used()

    def test_failed_verification_reports_message(self, q_register):
        report = verify_formula(CorrectnessFormula(A(I2), Unitary(("q",), "X", X), A(P0)), q_register)
        assert not report.verified
        assert any("Order relation" in message for message in report.messages)

    def test_soundness_cross_check(self, q_register):
        """Whatever the prover validates must also hold semantically."""
        program = seq(Init(("q",)), ndet(Unitary(("q",), "H", H), Skip()))
        formula = CorrectnessFormula(A(0.5 * I2), program, A(P0), CorrectnessMode.TOTAL)
        report = verify_formula(formula, q_register)
        assert report.verified
        assert check_formula_semantically(formula, q_register).holds


class TestLoops:
    def test_missing_invariant_raises(self, q_register):
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        with pytest.raises(InvariantError):
            verify_formula(CorrectnessFormula(A(I2), loop, A(P0)), q_register)

    def test_valid_invariant_partial(self, q_register):
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        formula = CorrectnessFormula(A(I2), loop, A(P0), CorrectnessMode.PARTIAL)
        report = verify_formula(formula, q_register, invariants=[A(I2, name="inv")])
        assert report.verified
        assert "While" in report.outline.rules_used()

    def test_valid_invariant_total_with_ranking(self, q_register):
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        formula = CorrectnessFormula(A(I2), loop, A(P0), CorrectnessMode.TOTAL)
        report = verify_formula(formula, q_register, invariants=[A(I2, name="inv")])
        assert report.verified
        assert "WhileT" in report.outline.rules_used()
        assert any("ranking" in message for message in report.messages)

    def test_invariant_of_wrong_dimension_rejected(self, q_register):
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        formula = CorrectnessFormula(A(I2), loop, A(P0), CorrectnessMode.PARTIAL)
        two_qubit_invariant = A(np.eye(4, dtype=complex), name="wide")
        with pytest.raises(
            InvariantError, match="loop invariant dimension does not match the register"
        ):
            verify_formula(formula, q_register, invariants=[two_qubit_invariant])

    def test_invalid_invariant_rejected(self, q_register):
        # Non-termination claim {I} while M[q] do skip end {0}: the invariant must be
        # supported inside the 1-outcome subspace.  P0 lives in the exit subspace and
        # is therefore rejected, mirroring the Sec. 6.2 error message.
        loop = While(MEAS_COMPUTATIONAL, ("q",), Skip())
        formula = CorrectnessFormula(A(I2), loop, A(np.zeros((2, 2))))
        with pytest.raises(InvariantError):
            verify_formula(formula, q_register, invariants=[A(P0, name="bad")])

    def test_invariant_assignment_helpers(self, q_register):
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        program = seq(Init(("q",)), loop)
        mapping = assign_invariants(program, [A(I2)])
        assert len(mapping) == 1
        with pytest.raises(VerificationError):
            assign_invariants(program, [])

    def test_nested_sequence_with_loop(self, q_register):
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        program = seq(Init(("q",)), Unitary(("q",), "H", H), loop)
        formula = CorrectnessFormula(A(I2), program, A(P0), CorrectnessMode.PARTIAL)
        report = verify_formula(formula, q_register, invariants=[A(I2)])
        assert report.verified


def _nested_conditional(depth, qubits):
    """Return a depth-``depth`` tree of ``if`` nodes with separately built subtrees."""
    if depth == 0:
        return seq(Unitary((qubits[0],), "H", H), Unitary((qubits[1],), "Z", Z))
    qubit = qubits[depth % len(qubits)]
    return If(
        MEAS_COMPUTATIONAL,
        (qubit,),
        _nested_conditional(depth - 1, qubits),
        _nested_conditional(depth - 1, qubits),
    )


class TestAnnotationMemo:
    """Within one ``generate`` call each node's annotation is reused per postcondition."""

    def _handler_runs(self, program, register, post):
        prover = Prover(register)
        outline = prover.generate(program, post)
        runs = sum(1 for event in prover.events if event.kind == "rule" and not event.replayed)
        return runs, outline

    def test_memo_halves_the_handler_runs_of_nested_conditionals(self, monkeypatch):
        register = QubitRegister(["q0", "q1", "q2"])
        post = QuantumAssertion(
            [random_predicate_matrix(register.dimension, seed=seed) for seed in (1, 2, 3)]
        )
        program = _nested_conditional(4, register.names)
        memo_runs, memo_outline = self._handler_runs(program, register, post)
        monkeypatch.setattr(prover_module, "_same_predicates", lambda first, second: False)
        miss_runs, miss_outline = self._handler_runs(program, register, post)
        assert memo_runs < miss_runs / 2, (memo_runs, miss_runs)
        memo_vc, miss_vc = memo_outline.precondition, miss_outline.precondition
        assert len(memo_vc.predicates) == len(miss_vc.predicates) == 3
        for mine, theirs in zip(memo_vc.predicates, miss_vc.predicates):
            assert np.array_equal(mine.matrix, theirs.matrix)

    def test_one_prover_annotates_each_program_with_its_own_nodes(self):
        register = QubitRegister(["q"])
        prover = Prover(register)
        post = A(P0)
        for index in range(20):
            # Each program dies before the next is built, so node ids recycle.
            gate = (X, H)[index % 2]
            program = If(
                MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "G", gate), seq(Skip(), Skip())
            )
            outline = prover.generate(program, post)
            nodes = {id(node) for node in program.walk()}
            assert outline.root.statement is program
            assert all(id(node.statement) in nodes for node in outline.statements())
            then_pre = outline.root.children[0].precondition.predicates[0].matrix
            assert operators_close(then_pre, gate.conj().T @ P0 @ gate)
            del program, outline

    def test_node_met_again_with_an_equal_post_is_replayed(self):
        idle = Skip()
        prover = Prover(QubitRegister(["q"]))
        prover.generate(seq(idle, idle), A(P0))
        reuses = [event for event in prover.events if event.kind == "cache"]
        assert len(reuses) == 1
        assert dict(reuses[0].data) == {"replayed_events": 1}
        assert [event.rule for event in prover.events if event.replayed] == ["Skip"]

    def test_node_met_again_with_another_post_is_annotated_again(self):
        gate = Unitary(("q",), "H", H)
        prover = Prover(QubitRegister(["q"]))
        outline = prover.generate(seq(gate, gate), A(P0))
        assert not any(event.replayed for event in prover.events)
        unit_runs = [event for event in prover.events if event.rule == "Unit"]
        assert len(unit_runs) == 2
        # H·H = I, so the precondition is the postcondition again.
        assert operators_close(outline.precondition.predicates[0].matrix, P0)

    def test_separately_built_equal_subtrees_are_annotated_separately(self):
        register = QubitRegister(["q0", "q1"])
        first = seq(Unitary(("q0",), "H", H), Unitary(("q1",), "X", X))
        second = seq(Unitary(("q0",), "H", H.copy()), Unitary(("q1",), "X", X.copy()))
        assert first == second
        prover = Prover(register)
        outline = prover.generate(
            ndet(first, second), A(random_predicate_matrix(register.dimension, seed=4))
        )
        assert not any(event.replayed for event in prover.events)
        left, right = outline.root.children
        assert left is not right
        assert np.array_equal(
            left.precondition.predicates[0].matrix, right.precondition.predicates[0].matrix
        )

    def test_memo_is_dropped_when_generate_returns_or_raises(self):
        prover = Prover(QubitRegister(["q"]))
        prover.generate(seq(Skip(), Unitary(("q",), "H", H)), A(P0))
        assert prover._memo == {}
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        with pytest.raises(InvariantError, match="a loop invariant is required"):
            prover.generate(seq(Skip(), loop), A(P0))
        assert prover._memo == {}

    def test_only_exactly_equal_postconditions_match(self):
        same = prover_module._same_predicates
        post = A(P0)
        assert same(post, post)
        assert same(post, A(P0.copy()))
        nudged = A(P0 * (1 - 1e-12))
        assert nudged.predicates[0].close_to(post.predicates[0])
        assert not same(post, nudged)
        assert not same(post, A(P0, P1))


class TestProofOutlines:
    def test_outline_structure_and_rendering(self, q_register):
        program = seq(Init(("q",)), If(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "X", X), Skip()))
        formula = CorrectnessFormula(A(I2), program, A(P0), CorrectnessMode.TOTAL)
        report = verify_formula(formula, q_register)
        text = report.outline.render()
        assert ":= 0" in text
        assert "if M01 [q] then" in text
        assert "VAR" in text
        # Every annotated statement exposes its pre/postconditions.
        for node in report.outline.statements():
            assert node.precondition.dimension == 2
            assert node.postcondition.dimension == 2

    def test_generated_predicates_can_be_shown(self, q_register):
        formula = CorrectnessFormula(A(P1), Unitary(("q",), "X", X), A(P0))
        report = verify_formula(formula, q_register)
        report.outline.render()
        names = list(report.outline.generated_predicates)
        assert names
        shown = report.outline.show(names[0])
        assert shown.dimension == 2

    def test_rules_used_matches_program_shape(self, q_register):
        program = ndet(Skip(), Abort())
        report = verify_formula(CorrectnessFormula(A(np.zeros((2, 2))), program, A(P0)), q_register)
        rules = report.outline.rules_used()
        assert rules[0] == "NDet"
        assert "Skip" in rules and "Abort" in rules


def test_meas_rule_over_a_multi_predicate_postcondition_matches_wlp():
    """(Meas) then (Union): one precondition per postcondition predicate, each the wlp."""
    from repro.linalg.random import random_predicate_matrix
    from repro.programs import errcorr_program, errcorr_register
    from repro.semantics.wp import weakest_liberal_precondition

    program, register = errcorr_program(3), errcorr_register(3)
    target = next(node for node in program.walk() if isinstance(node, If))
    post = QuantumAssertion(
        [random_predicate_matrix(register.dimension, seed=seed) for seed in (7, 8, 9)]
    )
    formula = CorrectnessFormula(
        QuantumAssertion.zero(register.num_qubits), target, post, CorrectnessMode.PARTIAL
    )
    report = verify_formula(formula, register)
    assert report.verified
    assert len(report.verification_condition.predicates) == 3
    assert report.verification_condition.set_equal(
        weakest_liberal_precondition(target, post, register)
    )
    assert report.outline.rules_used()[0] == "Meas+Union"
