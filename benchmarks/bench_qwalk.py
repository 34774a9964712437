"""Experiment E3 — nondeterministic quantum walk (Sec. 5.3, Eq. (15), Sec. 6.1–6.2).

Reproduces the loop case study: the walk never terminates under *any* scheduler,
expressed as ``⊨_par {I} QWalk {0}`` with the invariant ``N``; the invalid
invariant ``P0[q1]`` is rejected with an order-relation error, as shown in the
paper's Sec. 6.2 excerpt; and the termination probability stays zero along the
loop iterates.
"""

import numpy as np
import pytest

from repro.analysis.termination import loop_termination_curve, termination_report
from repro.exceptions import InvariantError
from repro.language.ast import While
from repro.linalg.states import density, ket
from repro.logic.prover import verify_formula
from repro.programs.qwalk import (
    invalid_invariant,
    qwalk_formula,
    qwalk_invariant,
    qwalk_program,
)
from repro.semantics.schedulers import CyclicScheduler, RandomScheduler


def test_qwalk_nontermination_verification(benchmark):
    """Time the proof-system verification of Eq. (15) with the paper's invariant."""
    formula, register = qwalk_formula()
    invariant = qwalk_invariant()
    report = benchmark(lambda: verify_formula(formula, register, invariants=[invariant]))
    assert report.verified
    benchmark.extra_info["paper_claim"] = "⊨_par {I} QWalk {0} under every scheduler (Eq. 15)"
    benchmark.extra_info["invariant"] = "N = [|00⟩] + [(|01⟩+|11⟩)/√2]"


def test_qwalk_invalid_invariant_rejection(benchmark):
    """Time the rejection path of Sec. 6.2 (invariant P0[q1])."""
    formula, register = qwalk_formula()
    bad = invalid_invariant()

    def run():
        try:
            verify_formula(formula, register, invariants=[bad])
        except InvariantError as error:
            return str(error)
        return None

    message = benchmark(run)
    assert message is not None and "not a valid loop invariant" in message
    benchmark.extra_info["error_message"] = message


@pytest.mark.parametrize(
    "scheduler",
    [CyclicScheduler([0]), CyclicScheduler([1]), CyclicScheduler([0, 1]), RandomScheduler(7)],
    ids=["always-W1W2", "always-W2W1", "alternating", "random"],
)
def test_qwalk_termination_probability_is_zero(benchmark, scheduler):
    """The cumulative termination probability stays 0 under representative schedulers."""
    program = qwalk_program()
    formula, register = qwalk_formula()
    loop = next(node for node in program.walk() if isinstance(node, While))
    rho = density(ket("00"))

    curve = benchmark(
        lambda: loop_termination_curve(loop, rho, register, scheduler=scheduler, max_iterations=32)
    )
    assert max(curve) == pytest.approx(0.0, abs=1e-9)
    benchmark.extra_info["max_termination_probability"] = float(max(curve))


def test_qwalk_demonic_termination_report(benchmark):
    formula, register = qwalk_formula()
    rho = density(ket("00"))
    report = benchmark(lambda: termination_report(qwalk_program(), rho, register))
    assert report.never_terminates()
    benchmark.extra_info["max_termination_probability"] = report.maximum
