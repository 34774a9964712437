"""Unit tests for termination certificates (Def. 4.3) and the semantic model checker."""

import numpy as np
import pytest

from repro.assistant.verify import build_task, verify_source
from repro.exceptions import RankingError
from repro.fuzz import generate_program
from repro.language.ast import MEAS_COMPUTATIONAL, Skip, Unitary, While, ndet, seq
from repro.language.names import default_environment
from repro.linalg.constants import ATOL, H, I2, P0, X
from repro.logic.formula import CorrectnessFormula, CorrectnessMode
from repro.logic.prover import verify_formula
from repro.logic.ranking import ANTICHAIN_BUDGET, HORIZON, check_ranking, synthesize_ranking
from repro.logic.semantic_check import check_formula_semantically
from repro.logic.semantic_check import test_states as sample_states
from repro.predicates.assertion import QuantumAssertion
from repro.programs.rus import rus_formula, rus_invariant
from repro.registers import QubitRegister
from repro.semantics.denotational import denotation, measurement_superoperators


def A(*matrices, name=None):
    return QuantumAssertion(list(matrices), name=name)


@pytest.fixture
def q_register():
    return QubitRegister(["q"])


class TestRankingSynthesis:
    def test_terminating_loop_has_vanishing_residual(self, q_register):
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        certificate = synthesize_ranking(loop, A(I2), q_register)
        # The weight inside halves every iteration after the first: r_n = 2^-(n-1) + n·ATOL.
        assert certificate.certified
        assert certificate.depth == 15
        assert certificate.residual == pytest.approx(2.0**-14 + 15 * ATOL, rel=1e-9)
        assert certificate.residual <= 1e-4

    def test_nonterminating_loop_ranking_reflects_termination_probability(self, q_register):
        loop = While(MEAS_COMPUTATIONAL, ("q",), Skip())
        # Seeded with I, the |1⟩ component never exits: the residual stays 1.
        refused = synthesize_ranking(loop, A(I2), q_register)
        assert refused.outcome == "horizon"
        assert refused.depth == HORIZON
        assert refused.residual == pytest.approx(1.0, abs=1e-6)
        # Seeded with the exit weight P0, nothing is left after one iteration.
        exits = synthesize_ranking(loop, A(P0), q_register)
        assert exits.certified and exits.depth == 1

    def test_nondeterministic_body_is_certified_for_every_scheduler(self, q_register):
        body = ndet(Unitary(("q",), "H", H), seq(Unitary(("q",), "X", X), Unitary(("q",), "H", H)))
        loop = While(MEAS_COMPUTATIONAL, ("q",), body)
        certificate = synthesize_ranking(loop, A(I2), q_register)
        assert certificate.certified
        # Both branches leave ½·P¹ inside, so the antichain never holds two elements.
        assert certificate.largest_antichain == 1
        assert certificate.residual <= 1e-4


class TestRankingChecks:
    def test_valid_ranking_passes(self, q_register):
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        certificate = check_ranking(loop, A(I2), q_register)
        assert certificate.certified

    def test_nonterminating_loop_fails_ranking_check(self, q_register):
        loop = While(MEAS_COMPUTATIONAL, ("q",), Skip())
        with pytest.raises(RankingError) as raised:
            check_ranking(loop, A(I2), q_register)
        assert raised.value.witness == (0,) * HORIZON


def _permutation(mapping):
    matrix = np.zeros((4, 4), dtype=complex)
    for source, target in mapping.items():
        matrix[target, source] = 1.0
    return matrix


#: Register ``q r`` (basis index 2q + r): UA permutes 2→3→1→2 and UB 3→2→0→3.
#: Each constant scheduler exits within two iterations, but alternating
#: UA, UB from |10⟩ never does.
ALTERNATION_SOURCE = (
    "{ I[q] }; { inv: I[q] }; while M [q] do ( [q r] *= UA # [q r] *= UB ) end; { I[q] }"
)


def _alternation_environment():
    environment = default_environment()
    environment.define("UA", _permutation({2: 3, 3: 1, 1: 2, 0: 0}))
    environment.define("UB", _permutation({3: 2, 2: 0, 0: 3, 1: 1}))
    return environment


class TestEveryScheduler:
    """The certificate covers schedulers that no sampled family contains."""

    def test_alternating_scheduler_is_a_counterexample(self):
        environment = _alternation_environment()
        with pytest.raises(RankingError) as raised:
            verify_source(ALTERNATION_SOURCE, environment, mode=CorrectnessMode.TOTAL)
        witness = raised.value.witness
        assert witness[:4] == (0, 1, 0, 1)
        assert len(witness) == HORIZON
        # Replay the witness on |10⟩⟨10| by folding the body maps directly.
        task = build_task(ALTERNATION_SOURCE, environment)
        loop = next(node for node in task.formula.program.walk() if isinstance(node, While))
        body_maps = denotation(loop.body, task.register)
        _, p1 = measurement_superoperators(loop, task.register)
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0
        for choice in witness:
            rho = body_maps[choice].apply(p1.apply(rho))
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("draw", [(7, 189), (11, 73), (11, 78)], ids=lambda d: f"{d[0]}:{d[1]}")
    def test_fuzz_loops_refused_by_truncated_sums_now_verify(self, draw):
        # A 64-term R_0 fell short of Θ̂ on these loops; they terminate slowly.
        task = build_task(generate_program(*draw).source(), mode=CorrectnessMode.TOTAL)
        report = verify_formula(task.formula, task.register, task.invariants)
        assert report.verified
        residuals = [dict(event.data)["residual"] for event in report.events if event.kind == "ranking"]
        assert residuals and max(residuals) <= 1e-4

    def test_partial_termination_is_enough_for_the_postcondition(self):
        # Θ̂ = |0⟩⟨0| leaves the loop at once although |1⟩ never does.
        exits = "{ P0[q] }; { inv: Zero[q] }; while M[q] do skip end; { P0[q] }"
        assert verify_source(exits, mode=CorrectnessMode.TOTAL).verified
        # With Θ̂ = I the |1⟩ weight must leave too, and it never does.
        stays = "{ I[q] }; { inv: I[q] }; while M[q] do skip end; { P0[q] }"
        with pytest.raises(RankingError):
            verify_source(stays, mode=CorrectnessMode.TOTAL)

    @pytest.mark.parametrize("nondeterministic", [False, True])
    def test_rus_loops_verify(self, nondeterministic):
        formula, register = rus_formula(nondeterministic)
        report = verify_formula(formula, register, invariants=[rus_invariant()])
        assert report.verified
        ranking = next(event for event in report.events if event.kind == "ranking")
        assert dict(ranking.data)["depth"] == 15

    def test_nested_loop_certificate_is_qualified(self, q_register):
        inner = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        outer = While(MEAS_COMPUTATIONAL, ("q",), inner)
        formula = CorrectnessFormula(A(I2), outer, A(P0), CorrectnessMode.TOTAL)
        report = verify_formula(formula, q_register, invariants=[A(I2), A(I2)])
        assert report.verified
        messages = [event.message for event in report.events if event.kind == "ranking"]
        assert ["inner loops" in message for message in messages] == [False, True]

    def test_antichain_over_budget_is_refused(self):
        task = build_task(generate_program(11, 141).source())
        loop = next(node for node in task.formula.program.walk() if isinstance(node, While))
        theta_hat = QuantumAssertion.identity(task.register.num_qubits)
        certificate = synthesize_ranking(loop, theta_hat, task.register)
        assert certificate.outcome == "budget"
        assert certificate.largest_antichain > ANTICHAIN_BUDGET
        with pytest.raises(RankingError, match="antichain"):
            check_ranking(loop, theta_hat, task.register)


class TestSemanticChecker:
    def test_state_family_is_reasonable(self, q_register):
        states = sample_states(q_register, samples=3)
        assert len(states) >= 2 + 6
        for rho in states:
            assert np.trace(rho).real <= 1.0 + 1e-9

    def test_valid_formula_passes(self, q_register):
        program = seq(Unitary(("q",), "X", X), Unitary(("q",), "X", X))
        formula = CorrectnessFormula(A(P0), program, A(P0), CorrectnessMode.TOTAL)
        result = check_formula_semantically(formula, q_register)
        assert result.holds
        assert result.margin >= -1e-9
        assert result.states_checked > 0

    def test_invalid_formula_is_caught(self, q_register):
        formula = CorrectnessFormula(A(I2), Unitary(("q",), "X", X), A(P0), CorrectnessMode.TOTAL)
        result = check_formula_semantically(formula, q_register)
        assert not result.holds
        assert result.violations

    def test_partial_correctness_forgives_nontermination(self, q_register):
        loop = While(MEAS_COMPUTATIONAL, ("q",), Skip())
        partial = CorrectnessFormula(A(I2), loop, A(P0), CorrectnessMode.PARTIAL)
        assert check_formula_semantically(partial, q_register).holds
        total = partial.with_mode(CorrectnessMode.TOTAL)
        assert not check_formula_semantically(total, q_register).holds

    def test_explicit_states_are_used(self, q_register):
        formula = CorrectnessFormula(A(P0), Skip(), A(P0), CorrectnessMode.TOTAL)
        result = check_formula_semantically(formula, q_register, states=[np.diag([1.0, 0.0])])
        assert result.states_checked == 1
        assert result.holds
