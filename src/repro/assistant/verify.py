"""High-level ``verify`` API: from annotated source text to a verification report.

This is the programmatic equivalent of running the NQPV prototype on a
``.nqpv`` file: the source contains a program, an optional precondition, a
postcondition and an ``inv:`` annotation for every while loop; operators are
resolved against an :class:`~repro.language.names.OperatorEnvironment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..analysis.static.analyzer import AnalysisResult, analyze_resolution
from ..exceptions import StaticAnalysisError
from ..language.lexer import Token
from ..language.names import OperatorEnvironment, default_environment
from ..language.parser import AnnotatedProgram, AssertionSpec, resolve_annotated
from ..logic.formula import CorrectnessFormula, CorrectnessMode
from ..logic.prover import ProverOptions, VerificationReport, verify_formula
from ..predicates.assertion import QuantumAssertion
from ..predicates.predicate import QuantumPredicate
from ..registers import QubitRegister
from ..telemetry.tracing import span

__all__ = ["VerificationTask", "resolve_assertion", "verify_source", "verify"]


@dataclass
class VerificationTask:
    """A fully-resolved verification task ready to be handed to the prover.

    ``analysis`` holds the mandatory pre-flight static-analyzer result; by
    construction it contains no error-severity diagnostics (those raise
    :class:`~repro.exceptions.StaticAnalysisError` before resolution), only
    warnings to surface alongside the verification report.
    """

    formula: CorrectnessFormula
    register: QubitRegister
    invariants: Dict[int, QuantumAssertion]
    annotated: AnnotatedProgram
    analysis: Optional[AnalysisResult] = None


def resolve_assertion(
    spec: AssertionSpec,
    register: QubitRegister,
    environment: OperatorEnvironment,
    name: Optional[str] = None,
) -> QuantumAssertion:
    """Turn a syntactic assertion (set of ``NAME[q …]`` terms) into a :class:`QuantumAssertion`.

    Every predicate is embedded from its declared qubits into the full
    ``register`` (the cylinder-extension convention of Sec. 2).  A term the
    parser checked carries its matrix; any other term is looked up, and
    checked, in ``environment``.
    """
    predicates = []
    for term in spec.terms:
        matrix = term.matrix
        if matrix is None:
            matrix = environment.predicate(term.name, num_qubits=len(term.qubits))
        predicate = QuantumPredicate(matrix, name=term.name, validate=False)
        predicates.append(predicate.embed(term.qubits, register))
    label = name or " ".join(str(term) for term in spec.terms)
    return QuantumAssertion(predicates, name=label)


def build_task(
    source: Union[str, Sequence[Token]],
    environment: Optional[OperatorEnvironment] = None,
    register: Optional[QubitRegister | Sequence[str]] = None,
    mode: CorrectnessMode = CorrectnessMode.PARTIAL,
) -> VerificationTask:
    """Parse and resolve an annotated source into a :class:`VerificationTask`.

    ``source`` is text, or its tokens ending with ``EOF``.  It is read once,
    by :func:`~repro.language.parser.resolve_annotated`: that one walk's
    :class:`~repro.language.parser.Resolution` gives the strict error, the
    analyzer's findings and the checked predicates of the annotations.
    """
    environment = environment or default_environment()
    source_bytes = len(source) if isinstance(source, str) else None
    with span("parse", region="parse", source_bytes=source_bytes):
        resolution = resolve_annotated(source, environment)
        annotated = resolution.strict()
    program = annotated.program

    # Mandatory pre-flight: reject ill-formed inputs before any assertion is
    # resolved or super-operator constructed.  The strict errors were raised
    # above, so the errors caught here are the specification's (missing
    # postcondition/invariant, bad predicates).
    analysis = analyze_resolution(resolution)
    if analysis.errors:
        first = analysis.errors[0]
        raise StaticAnalysisError(
            f"static analysis found {len(analysis.errors)} error(s); first: "
            f"[{first.code}] {first.message}"
            + (f" at {first.span}" if first.span is not None else ""),
            diagnostics=analysis.diagnostics,
        )

    if register is None:
        names = set(program.quantum_variables())
        for spec in annotated.annotations:
            for term in spec.terms:
                names.update(term.qubits)
        register = QubitRegister(sorted(names))
    elif not isinstance(register, QubitRegister):
        register = QubitRegister(register)

    with span("resolve", region="parse", num_qubits=register.num_qubits):
        postcondition = resolve_assertion(annotated.postcondition, register, environment)
        if annotated.precondition is not None:
            precondition = resolve_assertion(annotated.precondition, register, environment)
        else:
            # When no precondition is declared the tool reports the computed weakest
            # precondition; {0} is trivially entailed by anything, so verification
            # of the formula itself cannot fail spuriously.
            precondition = QuantumAssertion.zero(register.num_qubits)

        invariants: Dict[int, QuantumAssertion] = {}
        for loop_id, spec in annotated.loop_invariants.items():
            invariants[loop_id] = resolve_assertion(spec, register, environment, name="inv")

    formula = CorrectnessFormula(precondition, program, postcondition, mode)
    return VerificationTask(
        formula=formula,
        register=register,
        invariants=invariants,
        annotated=annotated,
        analysis=analysis,
    )


def verify_source(
    source: Union[str, Sequence[Token], VerificationTask],
    environment: Optional[OperatorEnvironment] = None,
    register: Optional[QubitRegister | Sequence[str]] = None,
    mode: CorrectnessMode = CorrectnessMode.PARTIAL,
    options: Optional[ProverOptions] = None,
) -> VerificationReport:
    """Verify an annotated source and return the report.

    ``source`` is text, tokens ending with ``EOF``, or the task
    :func:`build_task` already built from them; a task is proved as it is,
    so ``environment``, ``register`` and ``mode`` then play no part.  The
    whole run is traced under one root span (``region="verify"``) with
    ``parse``, ``prover`` and ``order-decision`` children when the
    process-wide tracer is enabled (see :mod:`repro.telemetry`).
    """
    with span("verify", region="verify", mode=mode.name) as verify_span:
        if isinstance(source, VerificationTask):
            task = source
        else:
            task = build_task(source, environment, register, mode)
        report = verify_formula(task.formula, task.register, task.invariants, options)
        if task.analysis is not None:
            report.diagnostics = task.analysis.diagnostics
        verify_span.set_tag("verified", report.verified)
    return report


def verify(
    source: str,
    operators: Optional[Dict[str, np.ndarray]] = None,
    mode: str = "partial",
    epsilon: float = 1e-6,
) -> VerificationReport:
    """Convenience wrapper mirroring ``nqpv.verify``: source text plus extra operators.

    Parameters
    ----------
    source:
        Annotated program text (precondition, program with ``inv:`` annotations,
        postcondition).
    operators:
        Additional named operators (numpy matrices) to add to the default
        environment — typically loop invariants and custom unitaries.
    mode:
        ``"partial"`` (the default, as in NQPV) or ``"total"``.
    epsilon:
        Precision of the ``⊑_inf`` decision procedure.
    """
    environment = default_environment()
    for name, matrix in (operators or {}).items():
        environment.define(name, matrix)
    correctness_mode = CorrectnessMode(mode)
    return verify_source(
        source,
        environment,
        mode=correctness_mode,
        options=ProverOptions(epsilon=epsilon),
    )
