"""Termination analysis of nondeterministic quantum programs.

The paper positions itself as going beyond the termination analyses of
[Li, Yu & Ying 2014; Li & Ying 2017]; this module provides the quantitative
counterpart used to cross-check the case studies:

* the termination probability of a program on an input state, per explored
  branch of the denotation or along one scheduler's chain, and
* the demonic and angelic termination probabilities over every scheduler,
  ``Exp(ρ ⊨ wp.S.{I})`` and ``1 − Exp(ρ ⊨ wlp.S.{0})`` (Def. 4.1), exact up
  to the residual of the transformers' loop pass (:mod:`repro.semantics.wp`).
  They certify statements such as "the quantum walk never terminates under
  any scheduler" or "the repeat-until-success loop terminates almost surely".

An exact never-termination test is still open (ROADMAP.md, item 1): the
smallest subspace that contains ``supp ρ`` and is closed under every Kraus
operator of every ``E_k ∘ P¹`` meets ``P⁰`` only in 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..language.ast import Program, While
from ..predicates.assertion import QuantumAssertion
from ..registers import QubitRegister
from ..semantics.denotational import DenotationOptions, denotation, loop_iterates
from ..semantics.schedulers import Scheduler, constant_schedulers
from ..semantics.wp import _transform

__all__ = [
    "TerminationReport",
    "termination_probability",
    "termination_report",
    "loop_termination_curve",
]


@dataclass
class TerminationReport:
    """Demonic (``minimum``) and angelic (``maximum``) termination probabilities."""

    minimum: float
    maximum: float

    def always_terminates(self, tolerance: float = 1e-6) -> bool:
        """Return ``True`` when every scheduler terminates almost surely."""
        return self.minimum >= 1.0 - tolerance

    def never_terminates(self, tolerance: float = 1e-6) -> bool:
        """Return ``True`` when no scheduler produces any terminating mass."""
        return self.maximum <= tolerance


def termination_probability(
    program: Program,
    rho: np.ndarray,
    register: Optional[QubitRegister] = None,
    options: Optional[DenotationOptions] = None,
) -> List[float]:
    """Return ``tr([[S]](ρ))`` for every explored branch of the denotation."""
    register = register or QubitRegister.for_program(program)
    maps = denotation(program, register, options)
    return [float(np.real(np.trace(channel.apply(rho)))) for channel in maps]


def termination_report(
    program: Program,
    rho: np.ndarray,
    register: Optional[QubitRegister] = None,
) -> TerminationReport:
    """Return the demonic and angelic termination probabilities of ``program`` on ``rho``."""
    register = register or QubitRegister.for_program(program)
    identity = QuantumAssertion.identity(register.num_qubits)
    zero = QuantumAssertion.zero(register.num_qubits)
    loops: dict = {}  # both calls read one analysis per loop
    return TerminationReport(
        minimum=_transform(program, identity, register, False, loops).expectation(rho),
        maximum=1.0 - _transform(program, zero, register, True, loops).expectation(rho),
    )


def loop_termination_curve(
    loop: While,
    rho: np.ndarray,
    register: Optional[QubitRegister] = None,
    scheduler: Optional[Scheduler] = None,
    max_iterations: int = 64,
) -> List[float]:
    """Return the cumulative termination probability after ``n`` loop iterations.

    The ``n``-th entry is ``tr(F^η_n(ρ))`` (Eq. (1)); the curve is non-decreasing
    and its limit is the loop's termination probability under the scheduler.
    It has at most ``max_iterations + 1`` entries.
    """
    register = register or QubitRegister.for_program(loop)
    options = DenotationOptions(max_iterations=max_iterations)
    body_maps = denotation(loop.body, register, options)
    if scheduler is None:
        scheduler = constant_schedulers(len(body_maps))[0]
    iterates = loop_iterates(loop, register, body_maps, scheduler, options)
    return [float(np.real(np.trace(channel.apply(rho)))) for channel in iterates]
