"""Ranking assertions for total correctness of while loops (Definition 4.3).

A ``Θ̂``-ranking assertion for ``while M[q̄] do S end`` is a family of predicates
``R^η_i`` (one sequence per scheduler ``η``) such that

1. ``Θ̂ ⊑_inf R^η_0``,
2. each sequence is ⊑-decreasing with infimum ``0``, and
3. ``P¹ ∘ η₁†(R^{η→}_i) ⊑ R^η_{i+1}``.

The completeness proof of Theorem 4.2 exhibits the canonical choice (Eq. (18))

    R^η_k = Σ_{i ≥ k} P¹∘η₁† ∘ … ∘ P¹∘η_i† ∘ P⁰(I),

the probability that the loop terminates after at least ``k`` further
iterations.  This module synthesises truncations of that canonical family for a
finite set of schedulers and checks the three conditions numerically.  The
check is therefore a *semi-decision* relative to the explored schedulers: a
success certifies termination against those schedulers (and, for loop bodies
whose denotation is finite and whose canonical sequences converge uniformly,
against all of them); a failure produces a concrete violating scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import RankingError
from ..language.ast import While
from ..linalg.operators import loewner_le
from ..predicates.assertion import QuantumAssertion
from ..predicates.predicate import QuantumPredicate, clip_to_predicate
from ..registers import QubitRegister
from ..semantics.denotational import DenotationOptions, denotation, measurement_superoperators
from ..semantics.schedulers import Scheduler, constant_schedulers, sample_schedulers
from ..predicates.order import leq_inf

__all__ = ["RankingAssertion", "synthesize_ranking", "check_ranking"]


@dataclass
class RankingAssertion:
    """A (truncated) ranking assertion: one predicate sequence per scheduler."""

    loop: While
    sequences: Dict[int, List[QuantumPredicate]] = field(default_factory=dict)
    schedulers: List[Scheduler] = field(default_factory=list)
    residual: float = float("inf")

    @property
    def truncation(self) -> int:
        """Length of the synthesised sequences."""
        if not self.sequences:
            return 0
        return max(len(sequence) for sequence in self.sequences.values())

    def sequence_for(self, scheduler_index: int) -> List[QuantumPredicate]:
        """Return the ranking sequence of the ``scheduler_index``-th scheduler."""
        return self.sequences[scheduler_index]


def synthesize_ranking(
    loop: While,
    register: QubitRegister | None = None,
    schedulers: Optional[Sequence[Scheduler]] = None,
    truncation: int = 64,
    options: DenotationOptions | None = None,
) -> RankingAssertion:
    """Synthesise the canonical (truncated) ranking sequences of Eq. (18).

    For every scheduler the sequence ``R^η_k``, ``0 ≤ k ≤ truncation`` is
    computed; the ``residual`` attribute records ``max_η λ_max(R^η_truncation)``,
    which must tend to ``0`` for an (almost-surely) terminating loop.
    """
    register = register or QubitRegister.for_program(loop)
    options = options or DenotationOptions()
    body_maps = denotation(loop.body, register, options)
    if schedulers is None:
        schedulers = list(constant_schedulers(len(body_maps)))
        if len(body_maps) > 1:
            schedulers = schedulers + sample_schedulers(2)
    schedulers = list(schedulers)

    p0, p1 = measurement_superoperators(loop, register)
    identity = np.eye(register.dimension, dtype=complex)
    termination_now = p0.apply_adjoint(identity)  # P⁰(I): probability of exiting immediately.

    ranking = RankingAssertion(loop=loop, schedulers=schedulers)
    worst_residual = 0.0
    for scheduler_index, scheduler in enumerate(schedulers):
        # terms[i] = P¹∘η₁† ∘ … ∘ P¹∘η_i† ∘ P⁰(I); term[0] = P⁰(I).
        terms: List[np.ndarray] = [termination_now]
        current = termination_now
        for iteration in range(1, truncation + 1):
            choice = scheduler.select(iteration, len(body_maps))
            current = p1.apply_adjoint(body_maps[choice].apply_adjoint(current))
            # NOTE: condition (3) uses the shifted scheduler, so the k-th term of
            # R^η is built with the choices η_1 … η_k in this order (innermost last).
            terms.append(current)
        # R^η_k = Σ_{i ≥ k} term[i]; truncated at the synthesis horizon.
        sequence: List[QuantumPredicate] = []
        for k in range(truncation + 1):
            tail = sum(terms[k:]) if k < len(terms) else np.zeros_like(identity)
            sequence.append(QuantumPredicate(clip_to_predicate(tail), validate=False))
        ranking.sequences[scheduler_index] = sequence
        residual = float(np.linalg.eigvalsh(sequence[-1].matrix)[-1].real)
        worst_residual = max(worst_residual, residual)
    ranking.residual = worst_residual
    return ranking


def check_ranking(
    loop: While,
    ranking: RankingAssertion,
    theta_hat: QuantumAssertion,
    register: QubitRegister | None = None,
    epsilon: float = 1e-6,
    options: DenotationOptions | None = None,
) -> None:
    """Check Definition 4.3 for a synthesised ranking assertion.

    Raises
    ------
    RankingError
        When one of the three conditions fails (with an explanatory message).
    """
    register = register or QubitRegister.for_program(loop)
    options = options or DenotationOptions()
    body_maps = denotation(loop.body, register, options)
    p0, p1 = measurement_superoperators(loop, register)

    for scheduler_index, scheduler in enumerate(ranking.schedulers):
        sequence = ranking.sequences[scheduler_index]
        # Condition (1): Θ̂ ⊑_inf R^η_0.
        first = QuantumAssertion([sequence[0]])
        if not leq_inf(theta_hat, first, epsilon=epsilon).holds:
            raise RankingError(
                f"condition (1) fails for scheduler {scheduler.describe()}: Θ̂ ⋢_inf R_0"
            )
        # Condition (2): decreasing sequence with infimum 0 (checked via the residual).
        for earlier, later in zip(sequence, sequence[1:]):
            if not loewner_le(later.matrix, earlier.matrix, atol=epsilon):
                raise RankingError(
                    f"condition (2) fails for scheduler {scheduler.describe()}: sequence not decreasing"
                )
        residual = float(np.linalg.eigvalsh(sequence[-1].matrix)[-1].real)
        if residual > max(10 * epsilon, 1e-4):
            raise RankingError(
                f"condition (2) fails for scheduler {scheduler.describe()}: "
                f"residual {residual:.3e} does not vanish (loop may not terminate)"
            )
        # Condition (3): P¹ ∘ η₁†(R^{η→}_i) ⊑ R^η_{i+1}; for the canonical truncated
        # sequences the shifted-scheduler sequence is approximated by the same one.
        for index in range(len(sequence) - 1):
            choice = scheduler.select(1, len(body_maps))
            shifted = sequence[index]
            image = p1.apply_adjoint(body_maps[choice].apply_adjoint(shifted.matrix))
            if not loewner_le(image, sequence[index + 1].matrix + max(epsilon, 1e-6) * np.eye(register.dimension), atol=1e-6):
                raise RankingError(
                    f"condition (3) fails for scheduler {scheduler.describe()} at index {index}"
                )
