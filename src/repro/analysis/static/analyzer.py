"""Entry points of the static analyzer: ``analyze_source``, ``analyze_resolution``, ``analyze_program``.

The analyzer is the non-throwing front half of the verification pipeline
(ROADMAP service spine).  It returns an :class:`AnalysisResult` holding
every :class:`~repro.diagnostics.Diagnostic` plus the
:class:`~repro.analysis.static.profile.ProgramProfile`:

* the well-formedness findings (every ``QV1xx`` error and the ``QV204``
  warning) come from the parser's one walk over the tokens,
  :func:`~repro.language.parser.resolve_annotated`, which records each at
  its token as it builds the typed AST; the analyzer parses nothing of its
  own;
* qubit-usage dataflow and the structure profile run on the typed AST that
  walk builds.  They run exactly when the strict parser accepts the text;
  otherwise the result has no ``QV201``–``QV203`` warning and ``profile`` is
  ``None``.

:func:`analyze_source` parses the text itself; :func:`analyze_resolution`
takes a :class:`~repro.language.parser.Resolution`, so the verify front end
parses once and hands the result to it.
The analyzer never constructs a super-operator and never raises for
malformed input (a syntax error becomes the single ``QV001`` diagnostic).

Each run is traced under ``span("analyze")`` with one child span per pass,
and bumps only ``analysis.*`` metrics counters, so a clean verify sees no
metrics pollution from pre-flight linting.  It calls none of the semantic
engines: no denotation, no wp transformer, no prover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Any, Dict, List, Optional, Tuple

from ...diagnostics import Diagnostic, Severity, SourceSpan, make_diagnostic, source_order
from ...exceptions import ParseError
from ...language.ast import Program
from ...language.names import OperatorEnvironment, default_environment
from ...language.parser import Resolution, resolve_annotated
from ...telemetry.metrics import METRICS
from ...telemetry.tracing import span
from .profile import ProgramProfile, program_profile
from .usage import check_usage

__all__ = ["AnalysisResult", "analyze_source", "analyze_resolution", "analyze_program"]


@dataclass(frozen=True)
class AnalysisResult:
    """Everything one analyzer run produced: diagnostics plus the profile.

    ``profile`` is ``None`` when the source failed to parse: a syntax error
    (``QV001``), or any defect that makes the strict parser reject the text.
    There is no typed program to profile then.
    """

    diagnostics: Tuple[Diagnostic, ...]
    profile: Optional[ProgramProfile] = None
    filename: Optional[str] = field(default=None, compare=False)

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        """The error-severity diagnostics."""
        return tuple(d for d in self.diagnostics if d.severity == Severity.ERROR)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        """The warning-severity diagnostics."""
        return tuple(d for d in self.diagnostics if d.severity == Severity.WARNING)

    def ok(self, strict: bool = False) -> bool:
        """Return whether the program is clean (``strict`` also rejects warnings)."""
        if strict:
            return not self.diagnostics
        return not self.errors

    def render(self) -> str:
        """Render all diagnostics plus a one-line summary, for terminal output."""
        lines = [diagnostic.render(self.filename) for diagnostic in self.diagnostics]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serialisable form used by ``--diagnostics-json``."""
        return {
            "filename": self.filename,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "profile": self.profile.to_dict() if self.profile is not None else None,
        }


def _finish(diagnostics, profile, filename) -> AnalysisResult:
    """Sort, count and wrap the diagnostics of one run."""
    ordered = tuple(sorted(diagnostics, key=source_order))
    for diagnostic in ordered:
        METRICS.counter(
            "analysis.diagnostics", code=diagnostic.code, severity=diagnostic.severity.value
        ).inc()
    return AnalysisResult(diagnostics=ordered, profile=profile, filename=filename)


def _program_passes(
    program: Program, external_uses: AbstractSet[str]
) -> Tuple[List[Diagnostic], ProgramProfile]:
    """Run the usage and profile passes over a typed program, one span each."""
    with span("usage", region="analyze"):
        diagnostics = check_usage(program, external_uses)
        METRICS.counter("analysis.pass", stage="usage").inc()
    with span("profile", region="analyze"):
        profile = program_profile(program)
        METRICS.counter("analysis.pass", stage="profile").inc()
    return diagnostics, profile


def analyze_source(
    source: str,
    environment: Optional[OperatorEnvironment] = None,
    filename: Optional[str] = None,
) -> AnalysisResult:
    """Analyze annotated surface-language source without raising.

    Parses the text in one walk (:func:`~repro.language.parser.resolve_annotated`)
    and hands the :class:`~repro.language.parser.Resolution` to
    :func:`analyze_resolution`; a syntax error short-circuits into a single
    ``QV001`` diagnostic carrying the parser's position.  Operator names are
    resolved read-only against ``environment`` (the default NQPV environment
    when omitted).
    """
    environment = environment or default_environment()
    try:
        resolution = resolve_annotated(source, environment)
    except ParseError as error:
        position = SourceSpan(error.line, error.column or 1) if error.line is not None else None
        with span("analyze", region="analyze", syntax_error=True):
            METRICS.counter("analysis.runs").inc()
        return _finish([make_diagnostic("QV001", error.message, position)], None, filename)
    return analyze_resolution(resolution, filename)


def analyze_resolution(
    resolution: Resolution, filename: Optional[str] = None
) -> AnalysisResult:
    """Analyze what :func:`~repro.language.parser.resolve_annotated` found.

    The resolution's diagnostics are the well-formedness findings.  When it
    holds a typed program, the usage and profile passes run on it; qubits
    named in annotations count as external uses for ``QV202``.
    """
    with span("analyze", region="analyze") as analyze_span:
        METRICS.counter("analysis.runs").inc()
        diagnostics = list(resolution.diagnostics)
        profile = None
        annotated = resolution.annotated
        if annotated is not None:
            external_uses = {
                qubit
                for annotation in annotated.annotations
                for term in annotation.terms
                for qubit in term.qubits
            }
            warnings, profile = _program_passes(annotated.program, external_uses)
            diagnostics.extend(warnings)
            analyze_span.set_tag("deterministic", profile.is_deterministic)
        analyze_span.set_tag("diagnostics", len(diagnostics))
    return _finish(diagnostics, profile, filename)


def analyze_program(program: Program, external_uses=frozenset()) -> AnalysisResult:
    """Analyze a resolved :class:`~repro.language.ast.Program` (no environment needed).

    Only the usage and profile passes apply — a typed AST is well-formed by
    construction (its ``__post_init__`` checks carry the same diagnostic
    codes).  ``external_uses`` plays the same role as annotation mentions in
    :func:`analyze_source`: qubits known to be read elsewhere.
    """
    with span("analyze", region="analyze", programmatic=True):
        METRICS.counter("analysis.runs").inc()
        diagnostics, profile = _program_passes(program, frozenset(external_uses))
    return _finish(diagnostics, profile, None)
