"""repro — Verification of Nondeterministic Quantum Programs.

A from-scratch Python reproduction of the system described in

    Yuan Feng and Yingte Xu.
    "Verification of Nondeterministic Quantum Programs", ASPLOS 2023.

The package provides:

* a quantum linear-algebra and super-operator substrate (:mod:`repro.linalg`,
  :mod:`repro.superop`);
* the nondeterministic quantum while-language with parser, printer and builder
  (:mod:`repro.language`);
* the lifted denotational semantics and the weakest (liberal) precondition
  semantics (:mod:`repro.semantics`);
* quantum predicates/assertions with the ``⊑_inf`` decision procedure
  (:mod:`repro.predicates`);
* sound Hoare-style proof systems for partial and total correctness plus an
  automated prover and a semantic model checker (:mod:`repro.logic`);
* the NQPV-style proof assistant front end (:mod:`repro.assistant`);
* the paper's case-study programs and benchmark workloads (:mod:`repro.programs`);
* termination and refinement analyses plus the static semantic analyzer
  behind the ``--lint`` pipeline stage (:mod:`repro.analysis`).

Quickstart
----------

>>> from repro import verify_formula
>>> from repro.programs import errcorr_formula
>>> formula, register = errcorr_formula()
>>> report = verify_formula(formula, register)
>>> report.verified
True
"""

from .analysis import AnalysisResult, ProgramProfile, analyze_program, analyze_source, program_profile
from .diagnostics import Diagnostic, Severity, SourceSpan
from .exceptions import (
    AssistantError,
    InvalidProofError,
    InvariantError,
    LinalgError,
    NameResolutionError,
    OrderRelationError,
    ParseError,
    PredicateError,
    RankingError,
    RegisterError,
    ReproError,
    SemanticsError,
    StaticAnalysisError,
    SuperOperatorError,
    VerificationError,
)
from .language import (
    Abort,
    If,
    Init,
    MEAS_COMPUTATIONAL,
    MEAS_PLUS_MINUS,
    Measurement,
    NDet,
    OperatorEnvironment,
    Program,
    ProgramBuilder,
    Seq,
    Skip,
    Unitary,
    While,
    default_environment,
    format_program,
    parse_annotated_program,
    parse_program,
)
from .logic import (
    CorrectnessFormula,
    CorrectnessMode,
    ProofOutline,
    Prover,
    ProverOptions,
    VerificationReport,
    check_formula_semantically,
    check_rule,
    verify_formula,
)
from .predicates import QuantumAssertion, QuantumPredicate, leq_inf
from .registers import QubitRegister
from .semantics import (
    DenotationOptions,
    denotation,
    weakest_liberal_precondition,
    weakest_precondition,
)
from .superop import SuperOperator
from .assistant import Session, verify, verify_source
from . import telemetry
from .telemetry import (
    METRICS,
    ProofEvent,
    configure_tracing,
    get_tracer,
    metrics_snapshot,
    region_breakdown,
    span,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "LinalgError",
    "RegisterError",
    "SuperOperatorError",
    "PredicateError",
    "ParseError",
    "NameResolutionError",
    "SemanticsError",
    "VerificationError",
    "InvalidProofError",
    "InvariantError",
    "OrderRelationError",
    "RankingError",
    "AssistantError",
    "StaticAnalysisError",
    # language
    "Program",
    "Skip",
    "Abort",
    "Init",
    "Unitary",
    "Seq",
    "NDet",
    "If",
    "While",
    "Measurement",
    "MEAS_COMPUTATIONAL",
    "MEAS_PLUS_MINUS",
    "ProgramBuilder",
    "OperatorEnvironment",
    "default_environment",
    "parse_program",
    "parse_annotated_program",
    "format_program",
    # registers / linalg layers
    "QubitRegister",
    "SuperOperator",
    "QuantumPredicate",
    "QuantumAssertion",
    "leq_inf",
    # semantics
    "DenotationOptions",
    "denotation",
    "weakest_precondition",
    "weakest_liberal_precondition",
    # logic
    "CorrectnessFormula",
    "CorrectnessMode",
    "ProofOutline",
    "Prover",
    "ProverOptions",
    "VerificationReport",
    "verify_formula",
    "check_rule",
    "check_formula_semantically",
    # assistant
    "Session",
    "verify",
    "verify_source",
    # static analysis + diagnostics
    "AnalysisResult",
    "ProgramProfile",
    "analyze_program",
    "analyze_source",
    "program_profile",
    "Diagnostic",
    "Severity",
    "SourceSpan",
    # observability
    "telemetry",
    "span",
    "get_tracer",
    "configure_tracing",
    "region_breakdown",
    "METRICS",
    "metrics_snapshot",
    "ProofEvent",
]
