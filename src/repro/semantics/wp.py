"""Weakest (liberal) precondition semantics (Fig. 5 and Appendix A).

For every program ``S`` and quantum assertion ``Θ`` the transformers

* ``wp.S.Θ``  — weakest precondition (total-correctness reading), and
* ``wlp.S.Θ`` — weakest liberal precondition (partial-correctness reading)

are sets of predicates obtained structurally.  For loop-free programs the
computation below is exact and yields the genuinely weakest preconditions
(Lemma A.1), which is what makes the proof systems relatively complete.  For
while loops the transformer is parameterised by schedulers and an iteration
bound: the returned predicates are the ``n``-th elements ``M^η_n`` of the
monotone approximation sequences of Fig. 5, so they *over*-approximate the true
``wlp`` (an infimum) and *under*-approximate the true ``wp`` (a supremum).
The exact treatment of loops in verification goes through user-supplied
invariants (see :mod:`repro.logic.prover`) exactly as in the paper's tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import SemanticsError
from ..language.ast import Abort, If, Init, NDet, Program, Seq, Skip, Unitary, While
from ..predicates.assertion import QuantumAssertion
from ..predicates.predicate import QuantumPredicate, clip_to_predicate
from ..registers import QubitRegister
from ..telemetry.tracing import span
from .denotational import (
    _loop_schedulers,
    deterministic_loop_bypass,
    initializer_adjoint,
    measurement_superoperators,
)
from .schedulers import ConstantScheduler, Scheduler

__all__ = ["WpOptions", "weakest_precondition", "weakest_liberal_precondition"]


@dataclass
class WpOptions:
    """Options controlling the loop approximation of the wp/wlp transformers."""

    max_iterations: int = 64
    schedulers: Optional[Sequence[Scheduler]] = None
    sampled_schedulers: int = 2
    convergence_tolerance: float = 1e-9


def weakest_precondition(
    program: Program,
    postcondition: QuantumAssertion,
    register: QubitRegister | None = None,
    options: WpOptions | None = None,
) -> QuantumAssertion:
    """Return ``wp.S.Θ`` (total-correctness transformer)."""
    return _transform(program, postcondition, register, options or WpOptions(), liberal=False)


def weakest_liberal_precondition(
    program: Program,
    postcondition: QuantumAssertion,
    register: QubitRegister | None = None,
    options: WpOptions | None = None,
) -> QuantumAssertion:
    """Return ``wlp.S.Θ`` (partial-correctness transformer)."""
    return _transform(program, postcondition, register, options or WpOptions(), liberal=True)


def _transform(
    program: Program,
    postcondition: QuantumAssertion,
    register: QubitRegister | None,
    options: WpOptions,
    liberal: bool,
) -> QuantumAssertion:
    register = register or QubitRegister.for_program(program)
    if postcondition.dimension != register.dimension:
        raise SemanticsError(
            "postcondition dimension does not match the register; embed the assertion first"
        )
    with span(
        "wp" if not liberal else "wlp",
        region="wp",
        num_qubits=register.num_qubits,
        predicates=len(postcondition.predicates),
    ):
        # Each loop body is denoted once per call, however many predicates
        # reach its loop: keyed by the loop node, dropped when the call returns.
        bodies: Dict[int, List] = {}
        predicates: List[QuantumPredicate] = []
        for predicate in postcondition.predicates:
            predicates.extend(_xp_single(program, predicate, register, options, liberal, bodies))
        return QuantumAssertion(predicates)


def _xp_single(
    program: Program,
    post: QuantumPredicate,
    register: QubitRegister,
    options: WpOptions,
    liberal: bool,
    bodies: Dict[int, List],
) -> List[QuantumPredicate]:
    """Return the wp/wlp of ``program`` against one predicate, by structural recursion."""
    if isinstance(program, Skip):
        return [post]
    if isinstance(program, Abort):
        if liberal:
            return [QuantumPredicate.identity(register.num_qubits)]
        return [QuantumPredicate.zero(register.num_qubits)]
    if isinstance(program, Init):
        image = initializer_adjoint(post.matrix, program.qubits, register)
        return [QuantumPredicate(clip_to_predicate(image), validate=False)]
    if isinstance(program, Unitary):
        embedded = register.embed(program.matrix, program.qubits)
        return [post.conjugate_by(embedded)]
    if isinstance(program, Seq):
        current = [post]
        for statement in reversed(program.statements):
            updated: List[QuantumPredicate] = []
            for predicate in current:
                updated.extend(_xp_single(statement, predicate, register, options, liberal, bodies))
            current = _dedup(updated)
        return current
    if isinstance(program, NDet):
        result: List[QuantumPredicate] = []
        for branch in program.branches:
            result.extend(_xp_single(branch, post, register, options, liberal, bodies))
        return _dedup(result)
    if isinstance(program, If):
        p0, p1 = measurement_superoperators(program, register)
        else_parts = _xp_single(program.else_branch, post, register, options, liberal, bodies)
        then_parts = _xp_single(program.then_branch, post, register, options, liberal, bodies)
        combined: List[QuantumPredicate] = []
        for else_part in else_parts:
            for then_part in then_parts:
                matrix = p0.apply(else_part.matrix) + p1.apply(then_part.matrix)
                combined.append(QuantumPredicate(clip_to_predicate(matrix), validate=False))
        return _dedup(combined)
    if isinstance(program, While):
        return _xp_while(program, post, register, options, liberal, bodies)
    raise SemanticsError(f"unknown program construct {type(program).__name__}")


def _xp_while(
    program: While,
    post: QuantumPredicate,
    register: QubitRegister,
    options: WpOptions,
    liberal: bool,
    bodies: Dict[int, List],
) -> List[QuantumPredicate]:
    """Approximate the wp/wlp of a loop by the ``n``-th element of the Fig. 5 sequence.

    For a fixed scheduler ``η`` the sequence is evaluated backwards:
    ``M^η_n = f_{η_1}( f_{η_2}( … f_{η_n}(M^·_0) … ))`` with
    ``f_k(A) = P⁰(M) + P¹(η_k†(A))`` for wp and
    ``f_k(A) = P⁰(M) + P¹(η_k†(A) + I − η_k†(I))`` for wlp,
    starting from ``M^·_0 = 0`` (wp) or ``I`` (wlp).  The body's denotations
    come from ``bodies`` when an earlier predicate of the same call reached
    this loop.
    """
    p0, p1 = measurement_superoperators(program, register)
    body_choices = bodies.get(id(program))
    if body_choices is None:
        body_choices = bodies[id(program)] = _body_denotations(program, register, options)
    identity = np.eye(register.dimension, dtype=complex)

    if deterministic_loop_bypass(program, body_choices, options):
        # Statically deterministic loop: every scheduler resolves to the same
        # backward chain, so evaluate it once and skip sampling.
        with span("wp-loop", region="wp", schedulers=1, liberal=liberal) as wp_span:
            wp_span.set_tag("deterministic_bypass", True)
            return [
                _xp_while_scheduler(
                    program,
                    post,
                    register,
                    options,
                    liberal,
                    p0,
                    p1,
                    body_choices,
                    ConstantScheduler(0),
                    identity,
                )
            ]
    schedulers = _loop_schedulers(options, len(body_choices))
    with span("wp-loop", region="wp", schedulers=len(schedulers), liberal=liberal):
        results = [
            _xp_while_scheduler(
                program, post, register, options, liberal, p0, p1, body_choices, scheduler, identity
            )
            for scheduler in schedulers
        ]
    return _dedup(results)


def _xp_while_scheduler(
    program: While,
    post: QuantumPredicate,
    register: QubitRegister,
    options: WpOptions,
    liberal: bool,
    p0,
    p1,
    body_choices: List,
    scheduler: Scheduler,
    identity: np.ndarray,
) -> QuantumPredicate:
    """Evaluate the backward Fig. 5 sequence of one loop under one scheduler."""
    if liberal:
        current = identity.copy()
    else:
        current = np.zeros_like(identity)
    previous = None
    for backward_index in range(options.max_iterations, 0, -1):
        choice = scheduler.select(backward_index, len(body_choices))
        body_channel = body_choices[choice]
        inner = body_channel.apply_adjoint(current)
        if liberal:
            inner = inner + identity - body_channel.apply_adjoint(identity)
        current = p0.apply(post.matrix) + p1.apply(inner)
        if previous is not None and np.abs(current - previous).max() < options.convergence_tolerance:
            break
        previous = current.copy()
    return QuantumPredicate(clip_to_predicate(current), validate=False)


def _body_denotations(program: While, register: QubitRegister, options: WpOptions) -> List:
    from .denotational import DenotationOptions, denotation

    body_options = DenotationOptions(
        max_iterations=options.max_iterations,
        convergence_tolerance=options.convergence_tolerance,
        schedulers=options.schedulers,
        sampled_schedulers=options.sampled_schedulers,
    )
    return denotation(program.body, register, body_options)


def _dedup(predicates: List[QuantumPredicate]) -> List[QuantumPredicate]:
    unique: List[QuantumPredicate] = []
    for predicate in predicates:
        if not any(predicate.close_to(existing) for existing in unique):
            unique.append(predicate)
    return unique
