"""Weakest (liberal) precondition semantics (Fig. 5 and Appendix A).

For every program ``S`` and quantum assertion ``Θ`` the transformers

* ``wp.S.Θ``  — weakest precondition (total-correctness reading), and
* ``wlp.S.Θ`` — weakest liberal precondition (partial-correctness reading)

are sets of predicates obtained structurally.  For loop-free programs the
computation below is exact and yields the genuinely weakest preconditions
(Lemma A.1), which is what makes the proof systems relatively complete.

A loop's wp/wlp ranges over every scheduler; only its Löwner-minimal
elements matter for ``⊑_inf``.  With ``T_k = E_k ∘ P¹`` over the body's maps
``E_k``, level ``n`` of a backward *antichain pass* keeps the minimal values
``f_{w_1}(… f_{w_n}(0) …)`` over the words ``w`` of ``n`` branch indices, with
``f_k(A) = P⁰(N) + T_k†(A)`` for wp and ``f_k(B) = P⁰(N − I) + T_k†(B)`` for
wlp (predicates ``I + B``).  The same pass seeded with ``I`` bounds the mass
left in the loop under every scheduler and fixes the depth once per loop and
call: the first level whose largest eigenvalue is at most ``SETTLED``
(``settled``), else ``HORIZON`` (``horizon``); an antichain that would
outgrow ``ANTICHAIN_BUDGET`` stops at its last level within it (``budget``).
At depth ``n`` every word's value is within ``r = λ_max + n·ATOL`` of its
limit, so the result is within ``r`` (plus ``n·ATOL`` of pruning) of the set
over every scheduler.  The ``wp-loop`` span tags ``outcome``, ``depth``,
``residual`` (``r``) and ``antichain`` (its size).  Inner loops of a body are
explored by the denotation's schedulers.  Rule (WhileT)'s certificate
(:mod:`repro.logic.ranking`), ``termination_report`` and the fuzz oracle read
the loop's :class:`LoopAnalysis` too.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..exceptions import SemanticsError
from ..language.ast import Abort, If, Init, NDet, Program, Seq, Skip, Unitary, While
from ..linalg.constants import ATOL
from ..predicates.assertion import QuantumAssertion
from ..predicates.predicate import QuantumPredicate, clip_to_predicate, distinct_predicates
from ..registers import QubitRegister
from ..telemetry.tracing import span
from . import denotational
from .denotational import initializer_adjoint, measurement_superoperators

__all__ = [
    "HORIZON",
    "ANTICHAIN_BUDGET",
    "SETTLED",
    "LoopAnalysis",
    "weakest_precondition",
    "weakest_liberal_precondition",
]

#: Deepest level of the antichain pass.
HORIZON = 64

#: Largest antichain a level may keep.
ANTICHAIN_BUDGET = 32

#: A loop has settled once the mass inside it is at most this for every scheduler.
SETTLED = 1e-9


def weakest_precondition(
    program: Program,
    postcondition: QuantumAssertion,
    register: QubitRegister | None = None,
) -> QuantumAssertion:
    """Return ``wp.S.Θ`` (total-correctness transformer)."""
    return _transform(program, postcondition, register, liberal=False)


def weakest_liberal_precondition(
    program: Program,
    postcondition: QuantumAssertion,
    register: QubitRegister | None = None,
) -> QuantumAssertion:
    """Return ``wlp.S.Θ`` (partial-correctness transformer)."""
    return _transform(program, postcondition, register, liberal=True)


def _transform(
    program: Program,
    postcondition: QuantumAssertion,
    register: QubitRegister | None,
    liberal: bool,
    loops: Dict[int, LoopAnalysis] | None = None,
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
        # Each loop is analysed once per call, however many predicates reach
        # it: keyed by the loop node, in a memo a caller may share among calls.
        loops = {} if loops is None else loops
        predicates: List[QuantumPredicate] = []
        for predicate in postcondition.predicates:
            predicates.extend(_xp_single(program, predicate, register, liberal, loops))
        return QuantumAssertion(predicates)


def _xp_single(
    program: Program,
    post: QuantumPredicate,
    register: QubitRegister,
    liberal: bool,
    loops: Dict[int, LoopAnalysis],
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
        image = register.conjugate(post.matrix, program.matrix, program.qubits)
        return [QuantumPredicate(image, validate=False)]
    if isinstance(program, Seq):
        current = [post]
        for statement in reversed(program.statements):
            updated: List[QuantumPredicate] = []
            for predicate in current:
                updated.extend(_xp_single(statement, predicate, register, liberal, loops))
            current = distinct_predicates(updated)
        return current
    if isinstance(program, NDet):
        result: List[QuantumPredicate] = []
        for branch in program.branches:
            result.extend(_xp_single(branch, post, register, liberal, loops))
        return distinct_predicates(result)
    if isinstance(program, If):
        p0, p1 = measurement_superoperators(program, register)
        else_parts = _xp_single(program.else_branch, post, register, liberal, loops)
        then_parts = _xp_single(program.then_branch, post, register, liberal, loops)
        combined: List[QuantumPredicate] = []
        for else_part in else_parts:
            for then_part in then_parts:
                matrix = p0.apply(else_part.matrix) + p1.apply(then_part.matrix)
                combined.append(QuantumPredicate(clip_to_predicate(matrix), validate=False))
        return distinct_predicates(combined)
    if isinstance(program, While):
        return _xp_while(program, post, register, liberal, loops)
    raise SemanticsError(f"unknown program construct {type(program).__name__}")


def _xp_while(
    program: While,
    post: QuantumPredicate,
    register: QubitRegister,
    liberal: bool,
    loops: Dict[int, LoopAnalysis],
) -> List[QuantumPredicate]:
    """Return the Löwner-minimal wp/wlp values of a loop over every branch word.

    The pass keeps the maximal negated values, ``−A`` or ``−B``, under the
    offset ``−P⁰(N)`` (wp) or ``P⁰(I − N)`` (wlp).
    """
    with span("wp-loop", region="wp", liberal=liberal) as loop_span:
        if id(program) not in loops:
            loops[id(program)] = LoopAnalysis(program, register)
        analysis = loops[id(program)]
        outcome, residuals = analysis.settle
        identity = np.eye(register.dimension, dtype=complex)
        p0 = analysis.p0
        offset = p0.apply(identity - post.matrix) if liberal else -p0.apply(post.matrix)
        matrices, words, depth = np.zeros((1,) + identity.shape, dtype=complex), [()], 0
        while depth < len(residuals) - 1:
            images, labels = _antichain_level(analysis.stacks, matrices, words, offset)
            if len(labels) > ANTICHAIN_BUDGET:
                outcome = "budget"
                break
            matrices, words, depth = images, labels, depth + 1
        analysis.stop_residual = max(analysis.stop_residual, residuals[depth])
        loop_span.set_tag("outcome", outcome)
        loop_span.set_tag("depth", depth)
        loop_span.set_tag("residual", residuals[depth])
        loop_span.set_tag("antichain", len(words))
    base = identity if liberal else 0.0
    return [QuantumPredicate(clip_to_predicate(base - item), validate=False) for item in matrices]


class LoopAnalysis:
    """One loop node's maps and ``I``-seeded pass, shared by the engines within one call.

    ``p0``/``p1`` are the measurement maps and ``body`` the maps ``E_k`` of the
    body's denotation (default options).  ``stacks`` applies each
    ``T_k† = P¹† ∘ E_k†`` by GEMM: with ``A_j = K_j·P¹`` over the Kraus
    operators ``K_j`` of ``E_k``, ``T_k†(Y) = Σ_j A_j† Y A_j``, and branch
    ``k``'s ``(left, right)`` are ``[A_1† … A_r†]`` and ``[A_1 … A_r]`` side by
    side, so one batched product builds every ``Y·A_j`` and a second sums
    ``A_j†·(Y·A_j)``.  ``stop_residual`` is the largest residual at which a
    transformer's pass over the loop stopped.
    """

    def __init__(self, loop: While, register: QubitRegister):
        self.p0, self.p1 = measurement_superoperators(loop, register)
        self.body = denotational.denotation(loop.body, register)
        self.stacks = []
        for channel in self.body:
            operators = channel.kraus_operators @ self.p1.kraus_operators[0]
            count, dimension, _ = operators.shape
            right = operators.transpose(1, 0, 2).reshape(dimension, count * dimension)
            left = operators.conj().transpose(2, 0, 1).reshape(dimension, count * dimension)
            self.stacks.append((left, right))
        self.stop_residual = 0.0

    @cached_property
    def settle(self) -> Tuple[str, List[float]]:
        """``(outcome, residuals)`` of the ``I``-seeded pass, run when first read."""
        seed = np.eye(self.p1.dimension, dtype=complex)
        settled = _antichain_pass(seed, self.stacks, lambda top, _: top <= SETTLED, "settled")
        return settled[:2]


def _antichain_pass(seed: np.ndarray, stacks, stop: Callable[[float, float], bool], stopped: str):
    """Run the pass from ``X_0 = {seed}``: ``(outcome, residuals, witness, largest)``.

    ``residuals[n] = λ_max(X_n) + n·ATOL`` up to the depth, its last index.
    It stops as ``stopped`` once ``stop(λ_max, r_n)``, else as ``"horizon"``
    at ``HORIZON``, or as ``"budget"`` before a level outgrows
    ``ANTICHAIN_BUDGET``.  ``witness`` is the word of the last level's largest
    element; ``largest`` is the most elements a level held, over budget or not.
    """
    matrices, words, residuals, largest = seed[np.newaxis], [()], [], 1
    while True:
        tops = np.linalg.eigvalsh(matrices)[:, -1]
        worst = int(np.argmax(tops))
        residuals.append(float(tops[worst]) + len(residuals) * ATOL)
        if stop(float(tops[worst]), residuals[-1]):
            return stopped, residuals, words[worst], largest
        if len(residuals) > HORIZON:
            return "horizon", residuals, words[worst], largest
        images, labels = _antichain_level(stacks, matrices, words)
        largest = max(largest, len(labels))
        if len(labels) > ANTICHAIN_BUDGET:
            return "budget", residuals, words[worst], largest
        matrices, words = images, labels


def _maximal(matrices: np.ndarray, words: List[Tuple[int, ...]]):
    """Keep the Löwner-maximal elements of ``matrices``, pruning within ``ATOL``.

    Candidates are visited by decreasing trace, so an element can only be
    dominated by one kept before it (up to ties within ``ATOL``).  A
    diagonal screen rules out most comparisons before any eigensolve:
    ``C ⊑ A + ATOL·I`` needs every diagonal entry of ``C`` within ``ATOL``
    of ``A``'s.
    """
    diagonals = np.einsum("kii->ki", matrices).real
    order = np.argsort(-diagonals.sum(axis=1), kind="stable")
    kept: List[int] = []
    for index in order:
        if kept:
            screened = np.all(diagonals[index] <= diagonals[kept] + ATOL, axis=1)
            rivals = np.asarray(kept)[screened]
            if rivals.size:
                gaps = np.linalg.eigvalsh(matrices[index] - matrices[rivals])[:, -1]
                if gaps.min() <= ATOL:
                    continue
        kept.append(int(index))
    return matrices[kept], [words[index] for index in kept]


def _antichain_level(stacks, matrices: np.ndarray, words: List[Tuple[int, ...]], offset=None):
    """Return the next level ``(matrices, words)``: the maximal ``T_k†(Y) + offset``.

    Every branch ``k`` of ``stacks`` (:class:`LoopAnalysis`) maps every
    ``Y`` of the ``(m, d, d)`` level, and ``k`` is put in front of ``Y``'s
    word: the new choice is the first iteration's.  ``offset`` defaults to 0.
    """
    count, dimension, _ = matrices.shape
    images = []
    for left, right in stacks:
        products = matrices @ right  # (m, d, r·d): the blocks Y·A_j side by side.
        blocks = products.reshape(count, dimension, -1, dimension).transpose(0, 2, 1, 3)
        images.append(left @ blocks.reshape(count, -1, dimension))
    images = np.concatenate(images)
    if offset is not None:
        images += offset
    labels = [(branch,) + word for branch in range(len(stacks)) for word in words]
    return _maximal(images, labels)
