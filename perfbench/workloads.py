"""The benchmark's workloads: their inputs, the op each input runs, and its known answer.

Every input is a :class:`Case`.  ``op`` makes one call into the program under
test, looking the entry point up on its module at call time so that the
traced run's wrappers see it.  ``check`` compares the op's result with an
answer known independently of the code under test: a verdict from the paper,
a property every channel of the result must have, or a closed-form number.
The numeric checks use numpy on the returned Kraus operators, never the
library's own predicates.

All ops use the default options (``kraus`` backend, ``dense`` lifting,
``parallelism=1``).
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

#: Absolute tolerance of the numeric answer checks.
CHECK_ATOL = 1e-8


@dataclass(frozen=True)
class Case:
    """One benchmark input: a named op and the check of its result."""

    name: str
    op: Callable[[], object]
    check: Callable[[object], bool]


class SetupError(RuntimeError):
    """An input could not be built or failed its set-up check."""


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------

# The paper's three case studies, as written for the artifact pipeline.
QWALK_SOURCE = """
{ I[q1] };
[q1 q2] := 0;
{ inv: invN[q1 q2] };
while MQWalk [q1 q2] do
    ( [q1 q2] *= W1 ; [q1 q2] *= W2
    # [q1 q2] *= W2 ; [q1 q2] *= W1 )
end;
{ Zero[q1] }
"""

ERRCORR_SOURCE = """
{ Psi[q] };
[q1 q2] := 0;
[q q1] *= CX;
[q q2] *= CX;
( skip # [q] *= X # [q1] *= X # [q2] *= X );
[q q2] *= CX;
[q q1] *= CX;
if M [q2] then
    if M [q1] then [q] *= X else skip end
else
    skip
end;
{ Psi[q] }
"""

DEUTSCH_SOURCE = """
[q1 q2] := 0;
[q1] *= H;
[q2] *= X;
[q2] *= H;
if M [q] then
    ( [q1 q2] *= CX # [q1 q2] *= C0X )
else
    ( skip # [q2] *= X )
end;
[q1] *= H;
if M [q1] then skip else skip end;
{ Agree[q q1] }
"""

# Fixed copies of the shipped examples, so edits to examples/ cannot change
# the benchmark's inputs.
BITFLIP_SOURCE = """
{ P1[q] };
[q1] := 0;
[q] *= X;
( skip # [q1] *= X );
{ P0[q] }
"""

RESETLOOP_SOURCE = """
{ P0[q] };
[q] := 0;
{ inv: I[q] };
while M [q] do [q] *= X end;
{ P0[q] }
"""


def _psi_matrix() -> np.ndarray:
    vector = np.array([[0.6], [0.8]], dtype=complex)
    return vector @ vector.conj().T


def _agree_matrix() -> np.ndarray:
    projector = np.zeros((4, 4), dtype=complex)
    projector[0, 0] = projector[3, 3] = 1.0
    return projector


def _environment(**operators: np.ndarray):
    from repro.language.names import default_environment

    environment = default_environment()
    for name, matrix in operators.items():
        environment.define(name, matrix)
    return environment


def _only_matrix(assertion) -> np.ndarray:
    if len(assertion.predicates) != 1:
        raise SetupError("rendered formulas must have single-predicate assertions")
    return assertion.predicates[0].matrix


def render_formula(name: str, formula, register, invariant=None):
    """Render a family formula as annotated source plus the environment it needs.

    The program is printed with ``format_program`` one top-level statement at
    a time, so an ``inv: Inv[…]`` line can precede each while loop.  The pre-
    and postcondition become the operators ``Pre``/``Post`` over the whole
    register, and every gate missing from the default environment is defined
    from the program.  Set-up fails unless the source re-parses to a program
    equal to the formula's.
    """
    from repro.language.ast import If, Seq, Unitary, While
    from repro.language.parser import parse_annotated_program
    from repro.language.printer import format_program, format_qubits

    environment = _environment(
        Pre=_only_matrix(formula.precondition), Post=_only_matrix(formula.postcondition)
    )
    if invariant is not None:
        environment.define("Inv", _only_matrix(invariant))
    program = formula.program
    for node in program.walk():
        if isinstance(node, (If, While)):
            environment.define_measurement(node.measurement.name, node.measurement)
        elif isinstance(node, Unitary) and node.name not in environment:
            environment.define(node.name, node.matrix)

    everything = format_qubits(register.names)
    lines = [f"{{ Pre{everything} }};"]
    statements = program.statements if isinstance(program, Seq) else (program,)
    for statement in statements:
        if isinstance(statement, While):
            lines.append(f"{{ inv: Inv{everything} }};")
        lines.append(format_program(statement) + ";")
    lines.append(f"{{ Post{everything} }}")
    source = "\n".join(lines) + "\n"

    if parse_annotated_program(source, environment).program != program:
        raise SetupError(f"{name}: rendered source does not re-parse to the formula's program")
    return source, environment


def _verified_is(expected: bool) -> Callable[[object], bool]:
    def check(result) -> bool:
        return getattr(result, "verified", None) is expected

    return check


def _raised(error_type) -> Callable[[object], bool]:
    def check(result) -> bool:
        return isinstance(result, error_type)

    return check


def _deutsch_check(result) -> bool:
    # No precondition is declared, so the verdict is trivially true; the
    # paper's proof outline gives {I} as the weakest precondition.
    if getattr(result, "verified", None) is not True:
        return False
    return all(
        np.allclose(predicate.matrix, np.eye(8), atol=1e-7)
        for predicate in result.verification_condition.predicates
    )


def verify_paper_cases() -> List[Case]:
    """The annotated sources of ``verify-paper`` with their known verdicts."""
    from repro.exceptions import InvariantError
    from repro.logic.formula import CorrectnessMode
    from repro.programs import (
        errcorr_formula,
        grover_formula,
        qwalk_formula,
        qwalk_invariant,
        rus_formula,
        rus_invariant,
    )

    verify_module = importlib.import_module("repro.assistant.verify")

    def case(name, source, environment, mode, check) -> Case:
        def op():
            return verify_module.verify_source(source, environment, mode=mode)

        return Case(name, op, check)

    partial = CorrectnessMode.PARTIAL
    inv_n = qwalk_invariant().predicates[0].matrix
    cases = [
        case("qwalk", QWALK_SOURCE, _environment(invN=inv_n), partial, _verified_is(True)),
        case("errcorr", ERRCORR_SOURCE, _environment(Psi=_psi_matrix()), partial, _verified_is(True)),
        case("deutsch", DEUTSCH_SOURCE, _environment(Agree=_agree_matrix()), partial, _deutsch_check),
        case("bitflip", BITFLIP_SOURCE, _environment(), partial, _verified_is(True)),
        case("resetloop", RESETLOOP_SOURCE, _environment(), partial, _verified_is(True)),
    ]

    rendered = [
        ("rus-ndet", rus_formula(nondeterministic=True), rus_invariant()),
        ("qwalk-64", qwalk_formula(64), qwalk_invariant(64)),
        ("errcorr-5", errcorr_formula(num_data_qubits=5), None),
        ("grover-6", grover_formula(6, layout="gates"), None),
    ]
    for name, (formula, register), invariant in rendered:
        source, environment = render_formula(name, formula, register, invariant)
        cases.append(case(name, source, environment, formula.mode, _verified_is(True)))

    # Negatives: an invalid loop invariant, and a precondition that is too strong.
    bad_invariant = QWALK_SOURCE.replace("invN[q1 q2]", "P0[q1]")
    cases.append(case("qwalk-badinv", bad_invariant, _environment(), partial, _raised(InvariantError)))
    too_strong = ERRCORR_SOURCE.replace("{ Psi[q] };", "{ I[q] };", 1)
    cases.append(
        case("errcorr-strongpre", too_strong, _environment(Psi=_psi_matrix()), partial, _verified_is(False))
    )
    return cases


# ---------------------------------------------------------------------------
# denote-noisy / denote-clean
# ---------------------------------------------------------------------------


def _grams(result) -> List[np.ndarray]:
    """Return ``Σ K†K`` of every channel in a denotation set (numpy only)."""
    grams = []
    for channel in result:
        kraus = np.stack(channel.kraus_operators)
        grams.append(np.einsum("rji,rjk->ik", kraus.conj(), kraus))
    return grams


def _trace_preserving(result) -> bool:
    grams = _grams(result)
    return bool(grams) and all(
        np.allclose(gram, np.eye(gram.shape[0]), atol=CHECK_ATOL) for gram in grams
    )


def _trace_nonincreasing(result) -> bool:
    grams = _grams(result)
    return bool(grams) and all(
        np.linalg.eigvalsh((gram + gram.conj().T) / 2)[-1] <= 1.0 + CHECK_ATOL for gram in grams
    )


def _never_terminates(result) -> bool:
    # Strong non-termination of the walk (Eq. (15)): no output under any scheduler.
    grams = _grams(result)
    return bool(grams) and all(np.abs(gram).max() <= CHECK_ATOL for gram in grams)


def grover_closed_form(num_qubits: int) -> float:
    """Success probability ``sin²((2k+1)θ)``, ``sin θ = 2^{-n/2}``, ``k = ⌊π/4·√2^n⌋``."""
    iterations = max(1, math.floor(math.pi / 4 * math.sqrt(2 ** num_qubits)))
    theta = math.asin(2 ** (-num_qubits / 2))
    return math.sin((2 * iterations + 1) * theta) ** 2


def _grover_check(probability: float) -> Callable[[object], bool]:
    def check(result) -> bool:
        if len(result) != 1 or not _trace_preserving(result):
            return False
        # [[Grover]](|0…0⟩⟨0…0|) at the marked basis state 0.
        kraus = np.stack(result[0].kraus_operators)
        marked = float(np.sum(np.abs(kraus[:, 0, 0]) ** 2))
        return abs(marked - probability) <= CHECK_ATOL

    return check


def _denote_case(name, program, register, check) -> Case:
    denotational = importlib.import_module("repro.semantics.denotational")

    def op():
        return denotational.denotation(program, register)

    return Case(name, op, check)


#: Amplitude-damping strength: the default of the ``noisy_*`` families.
DAMPING = 0.05


def denote_noisy_cases() -> List[Case]:
    """Amplitude-damped programs: non-unitary maps of high Kraus rank.

    One input has a loop, two are loop-free.  They are the small members of
    the noisy families (0.02–0.5 s per op), so a run holds dozens of passes.
    """
    from repro.programs import (
        apply_noise,
        noisy_grover_formula,
        nondeterministic_rus_program,
        rus_register,
        teleport_program,
        teleport_register,
    )

    def damped(program, register):
        noisy, ancillas = apply_noise(program, "amplitude_damping", DAMPING)
        return noisy, register.union(ancillas)

    grover, grover_register = noisy_grover_formula(2, strength=DAMPING, layout="gates")
    inputs = [
        ("noisy-rus-ndet", *damped(nondeterministic_rus_program(), rus_register()), _trace_nonincreasing),
        ("noisy-grover-2", grover.program, grover_register, _trace_preserving),
        ("noisy-teleport", *damped(teleport_program(), teleport_register()), _trace_preserving),
    ]
    return [_denote_case(name, program, register, check) for name, program, register, check in inputs]


def denote_clean_cases() -> List[Case]:
    """Noiseless maps of rank one or low rank."""
    from repro.programs import (
        errcorr_program,
        errcorr_register,
        grover_program,
        grover_register,
        grover_success_probability,
        qwalk_program,
        qwalk_register,
    )

    probability = grover_closed_form(6)
    if abs(probability - grover_success_probability(6)) > CHECK_ATOL:
        raise SetupError("grover_success_probability(6) disagrees with the closed form")
    return [
        _denote_case(
            "grover-6", grover_program(6, layout="gates"), grover_register(6),
            _grover_check(probability),
        ),
        _denote_case("errcorr-4", errcorr_program(4), errcorr_register(4), _trace_preserving),
        _denote_case("qwalk-16", qwalk_program(16), qwalk_register(16), _never_terminates),
    ]


#: Workload name → builder of its inputs.
WORKLOADS: Dict[str, Callable[[], List[Case]]] = {
    "verify-paper": verify_paper_cases,
    "denote-noisy": denote_noisy_cases,
    "denote-clean": denote_clean_cases,
}
