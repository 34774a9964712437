"""Semantic comparison of programs.

Two programs are semantically equal when their denotations coincide as sets of
super-operators; a program refines another when its denotation is a subset
(every behaviour of the refined program is allowed by the specification).  The
refinement direction is the paper's stated motivation for nondeterminism
(Sec. 1 and Sec. 7), implemented here for loop-free programs and, with
schedulers, approximately for loops.
"""

from __future__ import annotations

from typing import Tuple

from ..language.ast import Program
from ..registers import QubitRegister
from ..superop.compare import set_equal, set_subset
from .denotational import DenotationOptions, denotation

__all__ = ["programs_equivalent", "program_refines", "common_register"]


def common_register(first: Program, second: Program) -> QubitRegister:
    """Return the canonical register spanning the variables of both programs."""
    names = sorted(set(first.quantum_variables()) | set(second.quantum_variables()))
    return QubitRegister(names)


def _denotations(
    first: Program, second: Program, options: DenotationOptions | None
) -> Tuple[list, list]:
    register = common_register(first, second)
    return denotation(first, register, options), denotation(second, register, options)


def programs_equivalent(
    first: Program,
    second: Program,
    options: DenotationOptions | None = None,
    atol: float = 1e-6,
) -> bool:
    """Return ``True`` when ``[[first]] = [[second]]`` over the common register.

    Exact for loop-free programs; for loops the comparison is relative to the
    explored schedulers.
    """
    first_maps, second_maps = _denotations(first, second, options)
    return set_equal(first_maps, second_maps, atol=atol)


def program_refines(
    implementation: Program,
    specification: Program,
    options: DenotationOptions | None = None,
    atol: float = 1e-6,
) -> bool:
    """Return ``True`` when every behaviour of ``implementation`` is allowed by ``specification``.

    In the lifted model this is denotation-set inclusion
    ``[[implementation]] ⊆ [[specification]]`` — the notion of refinement that
    stepwise program development relies on.
    """
    implementation_maps, specification_maps = _denotations(
        implementation, specification, options
    )
    return set_subset(implementation_maps, specification_maps, atol=atol)
