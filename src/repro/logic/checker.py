"""Proof-rule checker: validating individual rule applications (Fig. 3).

The prover of :mod:`repro.logic.prover` *generates* proofs; this module allows
proofs to be *checked* step by step, which is how the soundness theorem is
exercised in the test suite.  Each function receives the premises and the
proposed conclusion of one rule and raises
:class:`~repro.exceptions.InvalidProofError` when the side conditions fail.
"""

from __future__ import annotations

from typing import Sequence

from ..exceptions import InvalidProofError
from ..language.ast import Abort, If, Init, NDet, Seq, Skip, Unitary, While
from ..predicates.assertion import QuantumAssertion, measured_sum
from ..predicates.order import leq_inf
from ..registers import QubitRegister
from ..semantics.denotational import initializer_channel, measurement_superoperators
from ..telemetry.metrics import METRICS
from ..telemetry.tracing import span
from .formula import CorrectnessFormula, CorrectnessMode

__all__ = ["check_rule", "RULE_NAMES"]

RULE_NAMES = (
    "Skip",
    "Abort",
    "AbortT",
    "Init",
    "Unit",
    "Seq",
    "NDet",
    "Meas",
    "While",
    "Imp",
    "Union",
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidProofError(message)


def _assertions_equal(a: QuantumAssertion, b: QuantumAssertion) -> bool:
    return a.set_equal(b)


def check_rule(
    rule: str,
    conclusion: CorrectnessFormula,
    premises: Sequence[CorrectnessFormula] = (),
    register: QubitRegister | None = None,
    epsilon: float = 1e-6,
) -> None:
    """Check one application of a proof rule.

    Parameters
    ----------
    rule:
        One of :data:`RULE_NAMES`.
    conclusion:
        The formula the rule is supposed to derive.
    premises:
        The already-derived formulas used as premises (order follows Fig. 3).
    register:
        Register over which assertions are expressed (defaults to the program's).
    epsilon:
        Numerical precision of the ``⊑_inf`` checks.
    """
    with span("check-rule", region="prover", rule=rule):
        METRICS.counter("checker.rules", rule=rule).inc()
        _check_rule_impl(rule, conclusion, premises, register, epsilon)


def _check_rule_impl(
    rule: str,
    conclusion: CorrectnessFormula,
    premises: Sequence[CorrectnessFormula],
    register: QubitRegister | None,
    epsilon: float,
) -> None:
    """The unspanned body of :func:`check_rule`."""
    register = conclusion.register(register)
    program = conclusion.program
    pre, post = conclusion.precondition, conclusion.postcondition

    if rule == "Skip":
        _require(isinstance(program, Skip), "(Skip) applies to the skip statement")
        _require(_assertions_equal(pre, post), "(Skip) requires identical pre- and postconditions")
        return

    if rule == "Abort":
        _require(isinstance(program, Abort), "(Abort) applies to the abort statement")
        _require(conclusion.mode is CorrectnessMode.PARTIAL, "(Abort) is a partial-correctness rule")
        identity = QuantumAssertion.identity(register.num_qubits)
        _require(_assertions_equal(pre, identity), "(Abort) requires precondition {I}")
        return

    if rule == "AbortT":
        _require(isinstance(program, Abort), "(AbortT) applies to the abort statement")
        _require(conclusion.mode is CorrectnessMode.TOTAL, "(AbortT) is a total-correctness rule")
        zero = QuantumAssertion.zero(register.num_qubits)
        _require(_assertions_equal(pre, zero), "(AbortT) requires precondition {0}")
        return

    if rule == "Init":
        _require(isinstance(program, Init), "(Init) applies to initialisation statements")
        channel = initializer_channel(program.qubits, register)
        expected = post.apply_superoperator_adjoint(channel)
        _require(_assertions_equal(pre, expected), "(Init) precondition must be Σ|i⟩⟨0|Θ|0⟩⟨i|")
        return

    if rule == "Unit":
        _require(isinstance(program, Unitary), "(Unit) applies to unitary statements")
        embedded = register.embed(program.matrix, program.qubits)
        expected = post.conjugate_by(embedded)
        _require(_assertions_equal(pre, expected), "(Unit) precondition must be U†ΘU")
        return

    if rule == "Seq":
        _require(isinstance(program, Seq), "(Seq) applies to sequential compositions")
        _require(len(premises) == len(program.statements), "(Seq) needs one premise per statement")
        for premise, statement in zip(premises, program.statements):
            _require(premise.program == statement, "(Seq) premises must cover the statements in order")
        _require(_assertions_equal(premises[0].precondition, pre), "(Seq) first premise precondition mismatch")
        _require(
            _assertions_equal(premises[-1].postcondition, post), "(Seq) last premise postcondition mismatch"
        )
        for first, second in zip(premises, premises[1:]):
            _require(
                _assertions_equal(first.postcondition, second.precondition),
                "(Seq) intermediate assertions must agree",
            )
        return

    if rule == "NDet":
        _require(isinstance(program, NDet), "(NDet) applies to nondeterministic choices")
        _require(len(premises) == len(program.branches), "(NDet) needs one premise per branch")
        for premise, branch in zip(premises, program.branches):
            _require(premise.program == branch, "(NDet) premises must cover the branches")
            _require(_assertions_equal(premise.precondition, pre), "(NDet) premises share the precondition")
            _require(_assertions_equal(premise.postcondition, post), "(NDet) premises share the postcondition")
        return

    if rule == "Meas":
        _require(isinstance(program, If), "(Meas) applies to conditionals")
        _require(len(premises) == 2, "(Meas) needs premises for the then- and else-branch")
        then_premise, else_premise = premises
        _require(then_premise.program == program.then_branch, "(Meas) first premise is the then-branch")
        _require(else_premise.program == program.else_branch, "(Meas) second premise is the else-branch")
        _require(_assertions_equal(then_premise.postcondition, post), "(Meas) then-branch postcondition mismatch")
        _require(_assertions_equal(else_premise.postcondition, post), "(Meas) else-branch postcondition mismatch")
        p0, p1 = measurement_superoperators(program, register)
        expected = measured_sum(p0, else_premise.precondition, p1, then_premise.precondition)
        _require(_assertions_equal(pre, expected), "(Meas) conclusion precondition must be P⁰(Θ₀)+P¹(Θ₁)")
        return

    if rule == "While":
        _require(isinstance(program, While), "(While) applies to loops")
        _require(len(premises) == 1, "(While) needs the loop-body premise")
        body_premise = premises[0]
        _require(body_premise.program == program.body, "(While) premise must be about the loop body")
        p0, p1 = measurement_superoperators(program, register)
        invariant = body_premise.precondition
        expected_body_post = measured_sum(p0, post, p1, invariant)
        _require(
            _assertions_equal(body_premise.postcondition, expected_body_post),
            "(While) body postcondition must be P⁰(Ψ)+P¹(Θ)",
        )
        _require(
            _assertions_equal(pre, expected_body_post),
            "(While) conclusion precondition must be the loop invariant P⁰(Ψ)+P¹(Θ)",
        )
        return

    if rule == "Imp":
        _require(len(premises) == 1, "(Imp) needs exactly one premise")
        premise = premises[0]
        _require(premise.program == program, "(Imp) premise must concern the same program")
        _require(
            leq_inf(pre, premise.precondition, epsilon=epsilon).holds,
            "(Imp) requires Θ ⊑_inf Θ'",
        )
        _require(
            leq_inf(premise.postcondition, post, epsilon=epsilon).holds,
            "(Imp) requires Ψ' ⊑_inf Ψ",
        )
        return

    if rule == "Union":
        _require(len(premises) >= 1, "(Union) needs at least one premise")
        expected_pre: QuantumAssertion | None = None
        expected_post: QuantumAssertion | None = None
        for premise in premises:
            _require(premise.program == program, "(Union) premises must concern the same program")
            expected_pre = premise.precondition if expected_pre is None else expected_pre.union(premise.precondition)
            expected_post = (
                premise.postcondition if expected_post is None else expected_post.union(premise.postcondition)
            )
        assert expected_pre is not None and expected_post is not None
        _require(_assertions_equal(pre, expected_pre), "(Union) precondition must be the union of premises")
        _require(_assertions_equal(post, expected_post), "(Union) postcondition must be the union of premises")
        return

    raise InvalidProofError(f"unknown proof rule {rule!r}")
