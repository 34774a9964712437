"""Termination certificates for total correctness of while loops (Definition 4.3).

Rule (WhileT) needs, besides the invariant premise, a ``Θ̂``-ranking
assertion (Def. 4.3) for *every* scheduler of ``while M[q̄] do S end``, where
``Θ̂ = P⁰(Ψ) + P¹(Θ)`` is the loop condition the prover builds from the
postcondition ``Ψ`` and the invariant ``Θ``.  This module decides that
obligation for all schedulers at once with one backward antichain pass.

Let ``E_k`` be the maps of the body denotation ``[[S]]`` and ``T_k = E_k ∘ P¹``
one guarded iteration that chooses branch ``k``.  For a word ``w`` of branch
indices in time order, ``tr(M · T_w(ρ)) = tr(T_w†(M) · ρ)`` is the
``M``-weight that is still inside the loop after ``|w|`` iterations.  Starting
from ``X_0 = {M}`` for one ``M ∈ Θ̂``, ``X_{n+1}`` keeps the Löwner-maximal
elements of ``{T_k†(Y) : Y ∈ X_n, k}``.  The pass accepts at the first
``n ≤ HORIZON`` where ``r_n = max λ_max(X_n) + n·ATOL`` is at most
``max(10ε, 1e-4)``.  Otherwise it refuses and reports the word of the
largest surviving element as a witness scheduler.  It also refuses, and
never accepts, when an antichain grows past ``ANTICHAIN_BUDGET`` elements.
The pass lives in :mod:`repro.semantics.wp` and runs on the stacks of the
loop's :class:`~repro.semantics.wp.LoopAnalysis`; the loop transformers run it
seeded with ``I``.  ``HORIZON`` and ``ANTICHAIN_BUDGET`` are defined there and
re-exported here.

Why the certificate is sound:

* **Pruning.** Each ``T_k†`` is monotone for ``⊑``, so an element dominated
  by a kept one stays dominated at every later level and cannot raise the
  maximum.  Elements are pruned when they are dominated within ``ATOL``, and
  ``T_k†(I) ⊑ I`` keeps that slack at ``ATOL`` per level; the ``n·ATOL`` term
  of ``r_n`` pays for it.
* **Monotone residual.** ``max λ_max(X_n)`` never increases: an element of
  ``X_{n+j}`` is ``T_u†(Y)`` for a word ``u`` of length ``j`` and some
  ``Y ⊑ λ_max(X_n)·I``, and ``T_u†(I) ⊑ I``.  So the weight left after any
  ``m ≥ n`` iterations is bounded by the same ``r_n``.
* **(WhileT).** The prover has already checked ``Θ ⊑_inf wp.S.(Θ̂)``.  With
  ``f(σ) = inf_{M ∈ Θ̂} tr(Mσ)``, that premise gives, for every branch ``k``,
  ``f(σ) ≤ inf_{N ∈ Ψ} tr(N·P⁰(σ)) + f(T_k(σ)) + ε·tr σ``.  Unrolling it
  ``n`` times along any scheduler ``η`` and bounding ``f(T_w(ρ))`` by the
  certified ``M`` gives ``inf_{Θ̂} tr(·ρ) ≤ tr(Ψ·[[while]]_η(ρ)) + (r_n +
  n·ε)·tr ρ``.  That is the conclusion conditions (1)–(3) of Def. 4.3 exist
  to reach, so they need no separate check.  When ``|Θ̂| > 1`` the infimum
  lets one certified ``M ∈ Θ̂`` stand for the whole set.
* **Seeding with Θ̂, not with I.** A pass seeded with ``I`` bounds the mass
  inside the loop, so it demands almost-sure termination from every state.
  It would refuse ``{P0} while M[q] do skip end {P0}`` with invariant
  ``{0}``, which is totally correct: ``Θ̂ = |0⟩⟨0|`` and its weight leaves
  the loop in one step.  Seeding with ``Θ̂`` asks only for the weight the
  postcondition needs.
* **Nested loops.** When the body contains a ``while``, ``[[S]]`` is itself
  truncated and explored for sampled schedulers only, so the certificate
  covers just the inner maps that were explored.  The prover says so in its
  ``ranking`` event.

When every level keeps ``r_n`` above the threshold, König's lemma turns the
surviving words into one scheduler that keeps that weight in the loop, so
the pass is also complete up to its horizon and budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..exceptions import RankingError
from ..language.ast import While
from ..predicates.assertion import QuantumAssertion
from ..registers import QubitRegister
from ..semantics.wp import ANTICHAIN_BUDGET, HORIZON, LoopAnalysis, _antichain_pass

__all__ = [
    "HORIZON",
    "ANTICHAIN_BUDGET",
    "RankingCertificate",
    "synthesize_ranking",
    "check_ranking",
]

@dataclass(frozen=True)
class RankingCertificate:
    """Outcome of one antichain pass over a loop.

    Attributes
    ----------
    outcome:
        ``"certified"``, ``"horizon"`` (the residual stayed above the
        threshold for ``HORIZON`` levels) or ``"budget"`` (the next level
        would outgrow ``ANTICHAIN_BUDGET``).
    depth:
        The level ``n`` the pass stopped at, the last within the budget.
    residual:
        ``r_n``: a bound on the ``Θ̂``-weight still inside the loop after
        ``n`` or more iterations, for every scheduler and unit-trace input.
    witness:
        Branch indices, in time order, of the largest element of the last
        level; for a refusal, a scheduler prefix that keeps the weight inside.
    largest_antichain:
        Most elements any level kept.
    """

    outcome: str
    depth: int
    residual: float
    witness: Tuple[int, ...]
    largest_antichain: int

    @property
    def certified(self) -> bool:
        """Whether the loop was certified for every scheduler."""
        return self.outcome == "certified"


def _threshold(epsilon: float = 1e-6) -> float:
    """Return the residual ``max(10ε, 1e-4)`` that certifies a loop at the precision ``ε``."""
    return max(10 * epsilon, 1e-4)


def synthesize_ranking(
    loop: While,
    theta_hat: QuantumAssertion,
    register: QubitRegister | None = None,
    epsilon: float = 1e-6,
) -> RankingCertificate:
    """Build the termination certificate of ``loop`` for the loop condition ``Θ̂``.

    Each predicate of ``Θ̂`` seeds one antichain pass; the first that
    certifies is returned, otherwise the refusal of the first predicate.
    ``epsilon`` is the prover's order precision, which sets the acceptance
    threshold ``max(10ε, 1e-4)``.
    """
    register = register or QubitRegister.for_program(loop)
    stacks = LoopAnalysis(loop, register).stacks
    threshold = _threshold(epsilon)
    refusals = []
    for matrix in theta_hat.matrices:
        outcome, r, witness, largest = _antichain_pass(
            np.asarray(matrix, dtype=complex), stacks, lambda _, r_n: r_n <= threshold, "certified"
        )
        certificate = RankingCertificate(outcome, len(r) - 1, r[-1], witness, largest)
        if certificate.certified:
            return certificate
        refusals.append(certificate)
    return refusals[0]


def check_ranking(
    loop: While,
    theta_hat: QuantumAssertion,
    register: QubitRegister | None = None,
    epsilon: float = 1e-6,
) -> RankingCertificate:
    """Return the certificate of ``loop`` for ``Θ̂``, raising unless it certifies.

    Raises
    ------
    RankingError
        When the pass is refused at the horizon or over budget; its
        ``witness`` is the surviving word of branch indices, in time order.
    """
    certificate = synthesize_ranking(loop, theta_hat, register, epsilon)
    if certificate.outcome == "horizon":
        raise RankingError(
            f"no ranking assertion: Θ̂-weight {certificate.residual:.3e} stays inside the loop "
            f"after {certificate.depth} iterations under the scheduler prefix "
            f"{_word(certificate.witness)} (the loop may not terminate)",
            witness=certificate.witness,
        )
    if certificate.outcome == "budget":
        raise RankingError(
            f"no ranking assertion: the antichain outgrew {ANTICHAIN_BUDGET} elements after "
            f"depth {certificate.depth} (residual {certificate.residual:.3e}, "
            f"prefix {_word(certificate.witness)})",
            witness=certificate.witness,
        )
    return certificate


def _word(witness: Tuple[int, ...], shown: int = 8) -> str:
    """Render the first ``shown`` branch indices of a witness word."""
    head = ", ".join(str(choice) for choice in witness[:shown])
    return f"[{head}{', …' if len(witness) > shown else ''}]"
