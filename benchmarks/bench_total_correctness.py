"""Experiment E10 — total correctness with ranking assertions (rule (WhileT)).

The paper's prototype supports only partial correctness; total correctness is
implemented here as an extension following Definition 4.3 and Appendix B.2.
The benchmark verifies terminating repeat-until-success loops (deterministic
and nondeterministic body), times the termination certificate that stands in
for a ranking assertion under every scheduler, and confirms that the
non-terminating quantum walk *fails* the total-correctness check while still
passing the partial one.
"""

import pytest

from repro.exceptions import RankingError
from repro.language.ast import While
from repro.logic.formula import CorrectnessFormula, CorrectnessMode
from repro.logic.prover import verify_formula
from repro.logic.ranking import check_ranking, synthesize_ranking
from repro.predicates.assertion import QuantumAssertion
from repro.programs.qwalk import qwalk_formula, qwalk_invariant, qwalk_program, qwalk_register
from repro.programs.rus import (
    nondeterministic_rus_program,
    rus_formula,
    rus_invariant,
    rus_register,
)


@pytest.mark.parametrize("nondeterministic", [False, True], ids=["deterministic", "nondeterministic"])
def test_rus_total_correctness(benchmark, nondeterministic):
    formula, register = rus_formula(nondeterministic=nondeterministic)
    invariant = rus_invariant()
    report = benchmark(lambda: verify_formula(formula, register, invariants=[invariant]))
    assert report.verified
    assert "WhileT" in report.outline.rules_used()
    benchmark.extra_info["claim"] = "⊨_tot {I} RUS {[|0⟩]} via rule (WhileT)"


def test_ranking_synthesis_for_rus(benchmark):
    """Time the termination certificate for the terminating loop."""
    program = nondeterministic_rus_program()
    register = rus_register()
    loop = next(node for node in program.walk() if isinstance(node, While))

    certificate = benchmark(
        lambda: synthesize_ranking(loop, QuantumAssertion.identity(1), register)
    )
    assert certificate.certified
    assert certificate.residual <= 1e-4
    benchmark.extra_info["residual"] = certificate.residual
    benchmark.extra_info["depth"] = certificate.depth


def test_qwalk_fails_total_correctness(benchmark):
    """The quantum walk is partially but not totally correct w.r.t. {I} · {0}:
    the ranking check must reject it (the loop never terminates)."""
    register = qwalk_register()
    loop = next(node for node in qwalk_program().walk() if isinstance(node, While))
    invariant = qwalk_invariant()

    def run():
        try:
            check_ranking(loop, invariant, register)
        except RankingError as error:
            return str(error)
        return None

    message = benchmark(run)
    assert message is not None
    benchmark.extra_info["rejection"] = message[:100]


def test_qwalk_partial_vs_total_contrast(benchmark):
    """The same formula verifies partially and is refuted totally — Lemma 4.1(1) is
    a one-way implication."""
    formula, register = qwalk_formula()
    invariant = qwalk_invariant()

    def run():
        partial_report = verify_formula(formula, register, invariants=[invariant])
        total_ok = True
        try:
            verify_formula(
                formula.with_mode(CorrectnessMode.TOTAL), register, invariants=[invariant]
            )
        except RankingError:
            total_ok = False
        return partial_report.verified, total_ok

    partial_ok, total_ok = benchmark(run)
    assert partial_ok
    assert not total_ok
    benchmark.extra_info["partial"] = partial_ok
    benchmark.extra_info["total"] = total_ok
