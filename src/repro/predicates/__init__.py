"""Quantum predicates, assertions and the ``⊑_inf`` decision procedure (S6 + S7)."""

from .assertion import QuantumAssertion, measured_sum
from .order import OrderCheckResult, assert_leq_inf, expectation_gap, leq_inf
from .predicate import QuantumPredicate, clip_to_predicate
from .sdp import GapResult, max_min_expectation_gap

__all__ = [
    "QuantumAssertion",
    "QuantumPredicate",
    "measured_sum",
    "clip_to_predicate",
    "OrderCheckResult",
    "assert_leq_inf",
    "expectation_gap",
    "leq_inf",
    "GapResult",
    "max_min_expectation_gap",
]
