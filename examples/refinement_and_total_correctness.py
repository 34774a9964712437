"""Extension features: program refinement and total correctness of loops.

Two directions the paper leaves as future work (Sec. 7) are implemented in this
reproduction and demonstrated here:

* **Refinement** — nondeterministic specifications exist to be refined.  We
  check that each concrete noise resolution refines the error-correction
  scheme's nondeterministic noise model, and that correctness formulas proved
  for the specification transfer to the refinement.

* **Total correctness** — the (WhileT) rule with ranking assertions
  (Definition 4.3).  A repeat-until-success loop is proved totally correct
  (its termination certificate covers every scheduler at once), while the
  quantum walk — which never terminates — is rejected by the same machinery.

Run with:  python examples/refinement_and_total_correctness.py
"""

from repro import CorrectnessMode, verify_formula
from repro.analysis.refinement import check_refinement, transfer_formula
from repro.exceptions import RankingError
from repro.language.ast import Skip, Unitary, While, ndet, seq
from repro.linalg.constants import X, Z
from repro.logic.ranking import check_ranking
from repro.predicates.assertion import QuantumAssertion
from repro.programs.errcorr import errcorr_formula, noise_choice
from repro.programs.qwalk import qwalk_invariant, qwalk_program, qwalk_register
from repro.programs.rus import nondeterministic_rus_program, rus_formula, rus_invariant, rus_register


def refinement_demo() -> None:
    print("=== Refinement of the nondeterministic noise model ===")
    specification = noise_choice()  # skip □ X_q □ X_q1 □ X_q2
    implementations = {
        "no error": Skip(),
        "flip the data qubit": Unitary(("q",), "X", X),
        "flip then unflip (≡ skip)": seq(Unitary(("q1",), "X", X), Unitary(("q1",), "X", X)),
        "phase error (not allowed)": Unitary(("q",), "Z", Z),
    }
    for label, implementation in implementations.items():
        report = check_refinement(implementation, specification)
        print(f"  {label:28s} refines the noise specification: {report.refines}")
    print()

    print("Correctness formulas transfer from the specification to refinements:")
    formula, register = errcorr_formula()
    verified = verify_formula(formula, register).verified
    transferred = transfer_formula(formula, formula.program)
    print(f"  specification verified: {verified}; re-checked on itself: {transferred.holds}")
    print()


def total_correctness_demo() -> None:
    print("=== Total correctness with ranking assertions (rule WhileT) ===")
    for nondeterministic in (False, True):
        formula, register = rus_formula(nondeterministic=nondeterministic)
        report = verify_formula(formula, register, invariants=[rus_invariant()])
        kind = "nondeterministic" if nondeterministic else "deterministic"
        print(f"  repeat-until-success ({kind:16s}): ⊨_tot {{I}} RUS {{[|0⟩]}} = {report.verified}")

    loop = next(node for node in nondeterministic_rus_program().walk() if isinstance(node, While))
    certificate = check_ranking(loop, QuantumAssertion.identity(1), rus_register())
    print(
        f"  termination certified for every scheduler at depth {certificate.depth}, "
        f"residual = {certificate.residual:.2e}"
    )
    print()

    print("The quantum walk fails the same check (it never terminates):")
    walk_loop = next(node for node in qwalk_program().walk() if isinstance(node, While))
    try:
        check_ranking(walk_loop, qwalk_invariant(), qwalk_register())
        print("  unexpectedly accepted!")
    except RankingError as error:
        print(f"  rejected: {error}")


def main() -> None:
    refinement_demo()
    total_correctness_demo()


if __name__ == "__main__":
    main()
