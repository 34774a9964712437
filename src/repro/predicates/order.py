"""Decision procedure for the ``⊑_inf`` pre-order on quantum assertions (Sec. 6.3).

``Θ ⊑_inf Ψ`` holds iff for every state ``ρ``, ``min_{M∈Θ} tr(Mρ) ≤
min_{N∈Ψ} tr(Nρ)``.  By Lemma 6.1 this is equivalent to checking, for each
``N ∈ Ψ`` separately, that no state can make every predicate of ``Θ`` exceed
``N`` by more than the precision ``ε``:

* when ``Θ`` is a singleton ``{M}``, this is exactly the Löwner comparison
  ``M ⊑ N``, decided by an eigenvalue computation;
* otherwise the barrier method of :mod:`repro.predicates.sdp` closes a
  certified interval around the optimal gap ``V(Θ, N)``: the relation holds
  for ``N`` when its upper end is at most ``ε`` and fails when its lower end
  exceeds ``ε``.  An interval that still contains ``ε`` decides nothing, and
  :class:`~repro.exceptions.VerificationError` reports it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..exceptions import VerificationError
from ..linalg.constants import NUMERIC_TOL
from ..linalg.operators import loewner_le
from ..telemetry.metrics import METRICS
from ..telemetry.tracing import span
from .assertion import QuantumAssertion
from .predicate import QuantumPredicate
from .sdp import GapResult, max_min_expectation_gap

__all__ = ["OrderCheckResult", "leq_inf", "assert_leq_inf", "expectation_gap"]


@dataclass
class OrderCheckResult:
    """Outcome of a ``Θ ⊑_inf Ψ`` check.

    Attributes
    ----------
    holds:
        Whether the relation was established (up to the requested precision).
    violating_index:
        Index inside ``Ψ`` of the first predicate for which the check failed.
    witness:
        A density operator witnessing the violation, when one was found.
    gap:
        The certified gap interval for the violating predicate (``None`` when
        the relation holds or the failure came from a plain Löwner check).
    details:
        Human-readable per-predicate summaries, useful in error messages.
    """

    holds: bool
    violating_index: Optional[int] = None
    witness: Optional[np.ndarray] = None
    gap: Optional[GapResult] = None
    details: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.holds


def expectation_gap(theta: QuantumAssertion, psi_predicate: QuantumPredicate) -> GapResult:
    """Return certified bounds on ``max_ρ (min_{M∈Θ} tr(Mρ) − tr(Nρ))``."""
    return max_min_expectation_gap(theta.matrices, psi_predicate.matrix)


def leq_inf(
    theta: QuantumAssertion,
    psi: QuantumAssertion,
    epsilon: float = NUMERIC_TOL,
) -> OrderCheckResult:
    """Decide whether ``Θ ⊑_inf Ψ`` up to the precision ``epsilon``.

    The check follows the algorithm of Sec. 6.3: each ``N ∈ Ψ`` is examined
    independently.  The singleton case is decided exactly by a Löwner
    comparison; the general case by the certified interval around the
    worst-case expectation gap.

    Raises
    ------
    VerificationError
        When that interval still contains ``epsilon`` after the solver's
        Newton steps, so that neither verdict is certified.

    Every decision is telemetered: a span tagged ``region="order-decision"``
    times the call, and the ``order.decisions{holds=...}`` counter plus the
    ``order.latency_seconds`` histogram record the outcome (the per-predicate
    diagnostics stay on :attr:`OrderCheckResult.details` — library code never
    writes to stdout; the CLI decides rendering).
    """
    start = time.perf_counter()
    with span(
        "leq-inf",
        region="order-decision",
        theta_predicates=len(theta.predicates),
        psi_predicates=len(psi.predicates),
        singleton=theta.is_singleton(),
    ) as decision_span:
        result = _leq_inf_impl(theta, psi, epsilon)
        decision_span.set_tag("holds", result.holds)
    METRICS.counter("order.decisions", holds=result.holds).inc()
    METRICS.histogram("order.latency_seconds").observe(time.perf_counter() - start)
    return result


def _timed_gap(theta: QuantumAssertion, psi_predicate: QuantumPredicate) -> GapResult:
    """Run one certified SDP gap computation under an ``order-decision`` span."""
    with span("sdp-gap", region="order-decision", predicates=len(theta.predicates)):
        return max_min_expectation_gap(theta.matrices, psi_predicate.matrix)


def _leq_inf_impl(
    theta: QuantumAssertion, psi: QuantumAssertion, epsilon: float
) -> OrderCheckResult:
    """The undecorated decision procedure behind :func:`leq_inf`."""
    details: List[str] = []
    for index, psi_predicate in enumerate(psi.predicates):
        if theta.is_singleton():
            theta_predicate = theta.predicates[0]
            if loewner_le(theta_predicate.matrix, psi_predicate.matrix, atol=epsilon):
                details.append(f"N_{index}: Löwner comparison holds")
                continue
            gap = _timed_gap(theta, psi_predicate)
            return OrderCheckResult(
                holds=False,
                violating_index=index,
                witness=gap.witness,
                gap=gap,
                details=details + [f"N_{index}: Löwner comparison fails (gap ≈ {gap.upper:.3e})"],
            )

        gap = _timed_gap(theta, psi_predicate)
        if gap.upper <= epsilon:
            details.append(f"N_{index}: dual certificate {gap.upper:.3e} ≤ ε")
            continue
        if gap.lower > epsilon:
            return OrderCheckResult(
                holds=False,
                violating_index=index,
                witness=gap.witness,
                gap=gap,
                details=details + [f"N_{index}: primal witness with gap {gap.lower:.3e} > ε"],
            )
        raise VerificationError(
            f"⊑_inf undecided for N_{index}: the certified gap interval "
            f"[{gap.lower:.9e}, {gap.upper:.9e}] contains ε = {epsilon:g}"
        )
    return OrderCheckResult(holds=True, details=details)


def assert_leq_inf(
    theta: QuantumAssertion,
    psi: QuantumAssertion,
    epsilon: float = NUMERIC_TOL,
    context: str = "",
) -> None:
    """Raise :class:`~repro.exceptions.OrderRelationError` unless ``Θ ⊑_inf Ψ``."""
    from ..exceptions import OrderRelationError

    result = leq_inf(theta, psi, epsilon=epsilon)
    if not result.holds:
        theta_name = theta.name or "Θ"
        psi_name = psi.name or "Ψ"
        prefix = f"{context}: " if context else ""
        raise OrderRelationError(
            f"{prefix}Order relation not satisfied: {{ {theta_name} }} <= {{ {psi_name} }}",
            witness=result.witness,
        )
