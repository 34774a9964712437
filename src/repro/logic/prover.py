"""Automated generation of proof outlines (the verification engine of Sec. 6.2).

Given a program, a postcondition and a loop invariant for every while loop, the
prover performs a backward pass that mirrors the proof systems of Fig. 3
(partial correctness) and its total-correctness variant:

* for loop-free constructs it computes the exact weakest (liberal)
  precondition, which by relative completeness is the strongest derivable
  precondition;
* for ``while M[q̄] do S end`` with user invariant ``Θ`` and postcondition ``Ψ``
  it checks the premise ``Θ ⊑_inf wlp.S.(P⁰(Ψ) + P¹(Θ))`` and, if it holds,
  returns ``P⁰(Ψ) + P¹(Θ)`` as the loop's precondition (rule (While));
* in total-correctness mode the loop additionally requires a ranking assertion
  (Definition 4.3) for every scheduler, certified by :mod:`repro.logic.ranking`
  from the loop condition ``P⁰(Ψ) + P¹(Θ)``.

The final verification condition is compared against the user's declared
precondition with the ``⊑_inf`` decision procedure, reproducing the behaviour
(including the error messages) of the NQPV prototype.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..exceptions import InvariantError, VerificationError
from ..telemetry.metrics import METRICS
from ..telemetry.provenance import ProofEvent, proof_event, render_events
from ..telemetry.tracing import span
from ..language.ast import Abort, If, Init, NDet, Program, Seq, Skip, Unitary, While
from ..predicates.assertion import QuantumAssertion, measured_sum
from ..predicates.order import OrderCheckResult, leq_inf
from ..predicates.predicate import QuantumPredicate, clip_to_predicate
from ..registers import QubitRegister
from ..semantics.denotational import initializer_adjoint, measurement_superoperators
from .formula import CorrectnessFormula, CorrectnessMode
from .proof import AnnotatedStatement, ProofOutline
from .ranking import check_ranking

__all__ = ["ProverOptions", "VerificationReport", "Prover", "assign_invariants", "verify_formula"]


@dataclass
class ProverOptions:
    """Order-decision options of the prover.

    Attributes
    ----------
    epsilon:
        Precision of the ``⊑_inf`` order decision procedure; it also sets the
        residual a total-correctness termination certificate may leave.
    """

    epsilon: float = 1e-6


@dataclass
class VerificationReport:
    """The result of a prover run.

    Attributes
    ----------
    verified:
        ``True`` when the declared precondition is entailed by the computed
        verification condition (or when no precondition was declared).
    formula:
        The correctness formula that was checked (the precondition may be the
        computed one when the user omitted it).
    outline:
        The generated proof outline.
    verification_condition:
        The assertion computed backward from the postcondition.
    order_check:
        Details of the final ``⊑_inf`` comparison (``None`` when no declared
        precondition was given).
    messages:
        Human-readable log of the interesting steps (invariant checks, ...);
        the rendering of the ``info``-level entries of ``events``.
    events:
        The full structured provenance log: one timestamped
        :class:`~repro.telemetry.provenance.ProofEvent` per rule application,
        invariant validation, ranking synthesis and the final order decision.
    diagnostics:
        Static-analyzer findings attached by the source-level front end
        (:func:`repro.assistant.verify.verify_source` pre-flight): a tuple of
        :class:`~repro.diagnostics.Diagnostic` records, warnings only when
        verification proceeded (error diagnostics abort before the prover
        runs).  Empty for programmatic :func:`verify_formula` calls.
    """

    verified: bool
    formula: CorrectnessFormula
    outline: ProofOutline
    verification_condition: QuantumAssertion
    order_check: Optional[OrderCheckResult] = None
    messages: List[str] = field(default_factory=list)
    events: List[ProofEvent] = field(default_factory=list)
    diagnostics: tuple = ()


def assign_invariants(
    program: Program, invariants: Sequence[QuantumAssertion]
) -> Dict[int, QuantumAssertion]:
    """Map invariants to the while loops of ``program`` in textual (pre-order) order."""
    loops = [node for node in program.walk() if isinstance(node, While)]
    if len(invariants) != len(loops):
        raise VerificationError(
            f"program contains {len(loops)} while loop(s) but {len(invariants)} invariant(s) were given"
        )
    return {id(loop): invariant for loop, invariant in zip(loops, invariants)}


class Prover:
    """Backward verification-condition generator for one correctness mode."""

    def __init__(
        self,
        register: QubitRegister,
        mode: CorrectnessMode = CorrectnessMode.PARTIAL,
        invariants: Optional[Dict[int, QuantumAssertion]] = None,
        options: Optional[ProverOptions] = None,
    ):
        self.register = register
        self.mode = mode
        self.invariants = invariants or {}
        self.options = options or ProverOptions()
        self.events: List[ProofEvent] = []

    @property
    def messages(self) -> List[str]:
        """The ``info``-level provenance events rendered to the historical strings."""
        return render_events(self.events)

    # ------------------------------------------------------------------ public
    def generate(self, program: Program, postcondition: QuantumAssertion) -> ProofOutline:
        """Produce the proof outline for ``program`` against ``postcondition``.

        Every annotation request runs the rule handler of its node.  The
        call's events are counted into ``prover.events{kind=…}`` when it
        returns, once per kind.
        """
        if postcondition.dimension != self.register.dimension:
            raise VerificationError(
                "postcondition dimension does not match the register; embed the assertion first"
            )
        first_event = len(self.events)
        try:
            with span(
                "prover",
                region="prover",
                mode=self.mode.name,
                num_qubits=self.register.num_qubits,
            ):
                root = self._annotate(program, postcondition)
        finally:
            kinds = Counter(event.kind for event in self.events[first_event:])
            for kind, count in kinds.items():
                METRICS.counter("prover.events", kind=kind).inc(count)
        return ProofOutline(root=root)

    # ----------------------------------------------------------------- helpers
    def _annotate(self, program: Program, post: QuantumAssertion) -> AnnotatedStatement:
        handler = self._HANDLERS.get(type(program))
        if handler is None:
            raise VerificationError(f"unsupported construct {type(program).__name__}")
        with span("annotate", region="prover", node=type(program).__name__) as annotate_span:
            annotated = handler(self, program, post)
            annotate_span.set_tag("rule", annotated.rule)
        self.events.append(
            proof_event(
                "rule",
                f"rule ({annotated.rule}) applied to {type(program).__name__}",
                rule=annotated.rule,
                level="debug",
            )
        )
        return annotated

    def _annotate_skip(self, program: Skip, post: QuantumAssertion) -> AnnotatedStatement:
        return AnnotatedStatement(program, post, post, rule="Skip")

    def _annotate_abort(self, program: Abort, post: QuantumAssertion) -> AnnotatedStatement:
        if self.mode is CorrectnessMode.PARTIAL:
            pre = QuantumAssertion.identity(self.register.num_qubits)
            rule = "Abort"
        else:
            pre = QuantumAssertion.zero(self.register.num_qubits)
            rule = "AbortT"
        return AnnotatedStatement(program, pre, post, rule=rule)

    def _annotate_init(self, program: Init, post: QuantumAssertion) -> AnnotatedStatement:
        def set0_adjoint(predicate: QuantumPredicate) -> QuantumPredicate:
            image = initializer_adjoint(predicate.matrix, program.qubits, self.register)
            return QuantumPredicate(clip_to_predicate(image), validate=False)

        with span("vc-transform", region="prover", rule="Init", predicates=len(post)):
            pre = post.map(set0_adjoint)
        return AnnotatedStatement(program, pre, post, rule="Init")

    def _annotate_unitary(self, program: Unitary, post: QuantumAssertion) -> AnnotatedStatement:
        def conjugate(predicate: QuantumPredicate) -> QuantumPredicate:
            image = self.register.conjugate(predicate.matrix, program.matrix, program.qubits)
            return QuantumPredicate(image, validate=False)

        with span("vc-transform", region="prover", rule="Unit", predicates=len(post)):
            pre = post.map(conjugate)
        return AnnotatedStatement(program, pre, post, rule="Unit")

    def _annotate_seq(self, program: Seq, post: QuantumAssertion) -> AnnotatedStatement:
        children: List[AnnotatedStatement] = []
        current_post = post
        for statement in reversed(program.statements):
            annotated = self._annotate(statement, current_post)
            children.append(annotated)
            current_post = annotated.precondition
        children.reverse()
        return AnnotatedStatement(program, current_post, post, rule="Seq", children=children)

    def _annotate_ndet(self, program: NDet, post: QuantumAssertion) -> AnnotatedStatement:
        children = [self._annotate(branch, post) for branch in program.branches]
        pre: QuantumAssertion | None = None
        for child in children:
            pre = child.precondition if pre is None else pre.union(child.precondition)
        assert pre is not None
        return AnnotatedStatement(program, pre, post, rule="NDet", children=children)

    def _annotate_if(self, program: If, post: QuantumAssertion) -> AnnotatedStatement:
        p0, p1 = measurement_superoperators(program, self.register)
        then_child = self._annotate(program.then_branch, post)
        else_child = self._annotate(program.else_branch, post)
        if post.is_singleton():
            with span("vc-transform", region="prover", rule="Meas", predicates=len(post)):
                pre = measured_sum(p0, else_child.precondition, p1, then_child.precondition)
            rule = "Meas"
        else:
            # (Meas) must be applied once per postcondition predicate and the
            # resulting preconditions joined with (Union).  Crossing the *full*
            # branch precondition sets instead would pair preconditions that
            # stem from different postcondition predicates — combinations no
            # execution can realise — and yield a strictly stronger (hence
            # incomplete) verification condition on loop-free programs.  The
            # node is labelled with the derived rule "Meas+Union": its children
            # summarise the branches against the full postcondition (for
            # display), so the node is NOT a single (Meas) instance and is not
            # replayable through check_rule("Meas", ...).  Each branch is
            # annotated once against the full postcondition and once per
            # predicate, so nested conditionals compound these traversals.
            pre: QuantumAssertion | None = None
            for predicate in post.predicates:
                single = QuantumAssertion([predicate])
                then_pre = self._annotate(program.then_branch, single).precondition
                else_pre = self._annotate(program.else_branch, single).precondition
                with span("vc-transform", region="prover", rule="Meas+Union"):
                    part = measured_sum(p0, else_pre, p1, then_pre)
                    pre = part if pre is None else pre.union(part)
            rule = "Meas+Union"
        return AnnotatedStatement(
            program, pre, post, rule=rule, children=[then_child, else_child]
        )

    def _annotate_while(self, program: While, post: QuantumAssertion) -> AnnotatedStatement:
        invariant = self.invariants.get(id(program))
        if invariant is None:
            raise InvariantError(
                "a loop invariant is required for every while loop; none was supplied"
            )
        if invariant.dimension != self.register.dimension:
            raise InvariantError("loop invariant dimension does not match the register")
        p0, p1 = measurement_superoperators(program, self.register)
        with span("vc-transform", region="prover", rule="While", predicates=len(post)):
            loop_condition = measured_sum(p0, post, p1, invariant)
        body_child = self._annotate(program.body, loop_condition)
        premise_check = leq_inf(invariant, body_child.precondition, epsilon=self.options.epsilon)
        if not premise_check.holds:
            raise InvariantError(
                f"The predicate '{invariant.name or 'Θ'}' is not a valid loop invariant: "
                f"order relation not satisfied against the loop body's weakest precondition"
            )
        self.events.append(
            proof_event(
                "invariant",
                f"loop invariant {invariant.name or 'Θ'} validated against the loop body",
                rule="While",
                invariant=invariant.name or "Θ",
                holds=True,
            )
        )
        rule = "While"
        if self.mode is CorrectnessMode.TOTAL:
            rule = "WhileT"
            certificate = check_ranking(
                program, loop_condition, self.register, epsilon=self.options.epsilon
            )
            scope = "every scheduler"
            if program.body.contains_while():
                scope += " (inner loops: explored schedulers only)"
            self.events.append(
                proof_event(
                    "ranking",
                    f"ranking assertion certified for {scope} at depth {certificate.depth} "
                    f"(residual {certificate.residual:.2e})",
                    rule="WhileT",
                    residual=float(certificate.residual),
                    depth=certificate.depth,
                )
            )
        return AnnotatedStatement(
            program,
            loop_condition,
            post,
            rule=rule,
            children=[body_child],
            note=f"inv: {invariant.name or 'Θ'}",
        )

    #: The annotation handler of every construct, looked up by node type.
    _HANDLERS = {
        Skip: _annotate_skip,
        Abort: _annotate_abort,
        Init: _annotate_init,
        Unitary: _annotate_unitary,
        Seq: _annotate_seq,
        NDet: _annotate_ndet,
        If: _annotate_if,
        While: _annotate_while,
    }


def verify_formula(
    formula: CorrectnessFormula,
    register: Optional[QubitRegister] = None,
    invariants: Optional[Dict[int, QuantumAssertion] | Sequence[QuantumAssertion]] = None,
    options: Optional[ProverOptions] = None,
) -> VerificationReport:
    """Verify a correctness formula and return the full report.

    ``invariants`` may be a mapping from ``id(while_node)`` to assertions or a
    plain sequence assigned to the loops in textual order.
    """
    options = options or ProverOptions()
    register = formula.register(register)
    if invariants is None:
        invariant_map: Dict[int, QuantumAssertion] = {}
    elif isinstance(invariants, dict):
        invariant_map = invariants
    else:
        invariant_map = assign_invariants(formula.program, list(invariants))

    prover = Prover(register, formula.mode, invariant_map, options)
    outline = prover.generate(formula.program, formula.postcondition)
    verification_condition = outline.precondition

    order_check = leq_inf(formula.precondition, verification_condition, epsilon=options.epsilon)
    verified = order_check.holds
    events = list(prover.events)
    if verified:
        verdict = "declared precondition entailed by the verification condition"
    else:
        verdict = "Order relation not satisfied: declared precondition is too strong"
    events.append(proof_event("order", verdict, holds=bool(verified)))
    METRICS.counter("prover.verifications", verified=bool(verified)).inc()
    return VerificationReport(
        verified=verified,
        formula=formula,
        outline=outline,
        verification_condition=verification_condition,
        order_check=order_check,
        messages=render_events(events),
        events=events,
    )
