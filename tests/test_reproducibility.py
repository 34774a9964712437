"""Reproducibility of the semantic engines and the prover.

Two runs of ``denotation``, wp/wlp and the prover on the same input return
identical results in identical order: the same number of maps or predicates,
each equal to its counterpart at ``ATOL``, and the same rendered messages.
The sweep covers the case-study families at 1–4 qubits, with loops.

The memos local to one call must not change a result either.  Against a
three-predicate postcondition, the prover's reuse of annotations gives the
verification condition and messages of a run that recomputes every node,
and one wp/wlp call over the whole assertion, which denotes each loop body
once, gives the per-predicate calls in order.
"""

import numpy as np
import pytest

from repro.linalg.constants import ATOL
from repro.logic import prover as prover_module
from repro.logic.formula import CorrectnessFormula
from repro.logic.prover import ProverOptions, verify_formula
from repro.predicates.assertion import QuantumAssertion
from repro.programs.deutsch import deutsch_formula
from repro.programs.errcorr import errcorr_formula
from repro.programs.grover import grover_formula
from repro.programs.qwalk import qwalk_formula, qwalk_invariant
from repro.programs.rus import rus_formula, rus_invariant
from repro.semantics.denotational import DenotationOptions, denotation
from repro.semantics.wp import weakest_liberal_precondition, weakest_precondition


def _reproducibility_cases():
    """Yield ``(name, formula, register, invariants)`` across sizes 2–4 qubits."""
    yield "deutsch", *deutsch_formula(), []
    for qubits in (2, 3, 4):
        yield f"grover{qubits}", *grover_formula(qubits, layout="gates"), []
    for positions in (4, 8, 16):
        formula, register = qwalk_formula(positions)
        yield f"qwalk{positions}", formula, register, [qwalk_invariant(positions)]
    for code_size in (3, 4):
        yield f"errcorr{code_size}", *errcorr_formula(num_data_qubits=code_size), []
    formula, register = rus_formula()
    yield "rus", formula, register, [rus_invariant()]


_REPRODUCIBILITY_CASES = list(_reproducibility_cases())
_SMALL_CASES = [case for case in _REPRODUCIBILITY_CASES if case[2].num_qubits <= 3]


def _assert_same_matrices_in_order(reference, other, label):
    assert len(other) == len(reference), label
    for position, (a, b) in enumerate(zip(reference, other)):
        assert np.allclose(a, b, atol=ATOL), (label, position)


@pytest.mark.parametrize(
    "name,formula,register,invariants",
    _REPRODUCIBILITY_CASES,
    ids=[case[0] for case in _REPRODUCIBILITY_CASES],
)
def test_denotation_runs_are_reproducible(name, formula, register, invariants):
    options = DenotationOptions()
    first = denotation(formula.program, register, options)
    second = denotation(formula.program, register, options)
    # Identical ordering AND identical elements to ATOL, not just set equality.
    assert len(second) == len(first), name
    for position, (a, b) in enumerate(zip(first, second)):
        assert a.equals(b, atol=ATOL), (name, position)


@pytest.mark.parametrize(
    "name,formula,register,invariants", _SMALL_CASES, ids=[case[0] for case in _SMALL_CASES]
)
def test_wp_and_wlp_runs_are_reproducible(name, formula, register, invariants):
    program, post = formula.program, formula.postcondition
    for label, transform in (("wp", weakest_precondition), ("wlp", weakest_liberal_precondition)):
        first, second = (
            [p.matrix for p in transform(program, post, register).predicates]
            for _ in range(2)
        )
        _assert_same_matrices_in_order(first, second, (name, label))


@pytest.mark.parametrize(
    "name,formula,register,invariants", _SMALL_CASES, ids=[case[0] for case in _SMALL_CASES]
)
def test_prover_runs_are_reproducible(name, formula, register, invariants):
    options = ProverOptions()
    first, second = (
        verify_formula(formula, register, invariants or None, options=options) for _ in range(2)
    )
    assert first.verified and second.verified, name
    assert second.messages == first.messages
    _assert_same_matrices_in_order(
        [p.matrix for p in first.verification_condition.predicates],
        [p.matrix for p in second.verification_condition.predicates],
        name,
    )


def _three_predicate_post(formula, register):
    """``{P, (P + I)/2, I}`` for the case's postcondition ``{P}``.

    Each case still verifies against it, and a loop invariant that holds for
    ``P`` holds for the larger predicates too.
    """
    (target,) = formula.postcondition.predicates
    identity = np.eye(register.dimension, dtype=complex)
    return QuantumAssertion([target.matrix, (target.matrix + identity) / 2, identity])


@pytest.mark.parametrize(
    "name,formula,register,invariants",
    _REPRODUCIBILITY_CASES,
    ids=[case[0] for case in _REPRODUCIBILITY_CASES],
)
def test_prover_memo_gives_the_recomputed_result(
    monkeypatch, name, formula, register, invariants
):
    widened = CorrectnessFormula(
        formula.precondition,
        formula.program,
        _three_predicate_post(formula, register),
        formula.mode,
    )
    reused = verify_formula(widened, register, invariants or None)
    monkeypatch.setattr(prover_module, "_same_predicates", lambda first, second: False)
    recomputed = verify_formula(widened, register, invariants or None)
    assert reused.verified and recomputed.verified, name
    assert not any(event.replayed for event in recomputed.events)
    assert reused.messages == recomputed.messages
    _assert_same_matrices_in_order(
        [p.matrix for p in recomputed.verification_condition.predicates],
        [p.matrix for p in reused.verification_condition.predicates],
        name,
    )


@pytest.mark.parametrize(
    "name,formula,register,invariants",
    _REPRODUCIBILITY_CASES,
    ids=[case[0] for case in _REPRODUCIBILITY_CASES],
)
def test_one_call_over_the_assertion_gives_the_per_predicate_calls(
    name, formula, register, invariants
):
    post = _three_predicate_post(formula, register)
    for label, transform in (("wp", weakest_precondition), ("wlp", weakest_liberal_precondition)):
        whole = transform(formula.program, post, register)
        per_predicate = QuantumAssertion(
            [
                part
                for predicate in post.predicates
                for part in transform(
                    formula.program, QuantumAssertion([predicate]), register
                ).predicates
            ]
        )
        _assert_same_matrices_in_order(
            [p.matrix for p in per_predicate.predicates],
            [p.matrix for p in whole.predicates],
            (name, label),
        )
