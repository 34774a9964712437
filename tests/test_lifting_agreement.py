"""Cross-lifting agreement sweep.

Every case-study formula at register sizes 2–4 qubits is pushed through both
``lifting ∈ {dense, local}``; the denotation sets, wp/wlp transformers and
the prover verdicts must agree with the reference (``dense``) to the library
tolerance ``ATOL``.
"""

import numpy as np
import pytest

from repro.linalg.constants import ATOL
from repro.logic.prover import ProverOptions, verify_formula
from repro.programs.deutsch import deutsch_formula
from repro.programs.errcorr import errcorr_formula
from repro.programs.grover import grover_formula
from repro.programs.qwalk import qwalk_formula, qwalk_invariant
from repro.programs.rus import rus_formula, rus_invariant
from repro.semantics.denotational import LIFTINGS, DenotationOptions, denotation
from repro.semantics.wp import WpOptions, weakest_liberal_precondition, weakest_precondition
from repro.superop.compare import set_equal


def sweep_cases():
    """Yield ``(name, formula, register, invariants)`` across sizes 2–4 qubits."""
    yield "deutsch", *deutsch_formula(), []
    for qubits in (2, 3, 4):
        yield f"grover{qubits}", *grover_formula(qubits), []
        yield f"grover{qubits}-gates", *grover_formula(qubits, layout="gates"), []
    for positions in (4, 8, 16):
        formula, register = qwalk_formula(positions)
        yield f"qwalk{positions}", formula, register, [qwalk_invariant(positions)]
    for code_size in (3, 4):
        yield f"errcorr{code_size}", *errcorr_formula(num_data_qubits=code_size), []
    formula, register = rus_formula()
    yield "rus", formula, register, [rus_invariant()]


CASES = list(sweep_cases())


@pytest.mark.parametrize("name,formula,register,invariants", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("lifting", LIFTINGS)
def test_denotations_agree_across_liftings(name, formula, register, invariants, lifting):
    reference = denotation(formula.program, register, DenotationOptions())
    maps = denotation(formula.program, register, DenotationOptions(lifting=lifting))
    assert set_equal(reference, maps, atol=ATOL)


@pytest.mark.parametrize(
    "name,formula,register,invariants",
    [case for case in CASES if case[2].num_qubits <= 3],
    ids=[c[0] for c in CASES if c[2].num_qubits <= 3],
)
@pytest.mark.parametrize("lifting", LIFTINGS)
def test_wp_and_wlp_agree_across_liftings(name, formula, register, invariants, lifting):
    post = formula.postcondition
    options = WpOptions(lifting=lifting)
    reference_wp = weakest_precondition(formula.program, post, register, WpOptions())
    assert reference_wp.set_equal(
        weakest_precondition(formula.program, post, register, options)
    )
    reference_wlp = weakest_liberal_precondition(formula.program, post, register, WpOptions())
    assert reference_wlp.set_equal(
        weakest_liberal_precondition(formula.program, post, register, options)
    )


@pytest.mark.parametrize("lifting", LIFTINGS)
def test_prover_verdicts_stable_across_liftings(lifting):
    options = ProverOptions(lifting=lifting)
    for name, formula, register, invariants in CASES:
        if register.num_qubits > 3:
            continue  # keep the prover sweep cheap; 4-qubit runs live in benchmarks
        report = verify_formula(formula, register, invariants or None, options=options)
        assert report.verified, (name, lifting)
