"""Entry points of the static analyzer: ``analyze_source``, ``analyze_raw``, ``analyze_program``.

The analyzer is the non-throwing front half of the verification pipeline
(ROADMAP service spine).  It runs three passes and returns an
:class:`AnalysisResult` holding every :class:`~repro.diagnostics.Diagnostic`
plus the :class:`~repro.analysis.static.profile.ProgramProfile`:

* well-formedness runs on the tolerant raw tree of
  :mod:`repro.language.syntax`, the only tree that can hold a statement that
  does not resolve, so every ``QV1xx`` error of a source shows in one run;
* qubit-usage dataflow and the structure profile run on the typed AST that
  :func:`~repro.language.parser.resolve_annotated` builds from that raw
  tree.  They run exactly when the strict parser accepts the text; otherwise
  the result has no ``QV2xx`` warning and ``profile`` is ``None``.

:func:`analyze_source` parses the text itself; :func:`analyze_raw` takes a
raw tree and its resolved program, so the verify front end parses once and
hands both to it.  The analyzer never constructs a super-operator, never
touches numerics beyond read-only operator-property checks, and never raises
for malformed input (a syntax error becomes the single ``QV001``
diagnostic).

Each run is traced under ``span("analyze")`` with one child span per pass,
and bumps only ``analysis.*`` metrics counters, so a clean verify sees no
cache or metrics pollution from pre-flight linting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Any, Dict, List, Optional, Tuple

from ...diagnostics import Diagnostic, Severity, SourceSpan, make_diagnostic
from ...exceptions import ParseError, ReproError
from ...language.ast import Program
from ...language.names import OperatorEnvironment, default_environment
from ...language.parser import resolve_annotated
from ...language.syntax import RawAnnotatedProgram, parse_raw_annotated
from ...telemetry.metrics import METRICS
from ...telemetry.tracing import span
from .profile import ProgramProfile, program_profile
from .usage import check_usage
from .wellformed import check_wellformed

__all__ = ["AnalysisResult", "analyze_source", "analyze_raw", "analyze_program"]


def _sort_key(diagnostic: Diagnostic):
    """Order diagnostics by source position, then by code (spanless last)."""
    if diagnostic.span is None:
        return (1, 0, 0, diagnostic.code)
    return (0, diagnostic.span.line, diagnostic.span.column, diagnostic.code)


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
    ordered = tuple(sorted(diagnostics, key=_sort_key))
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

    Parses tolerantly, tries the strict resolver on the raw tree, and hands
    both to :func:`analyze_raw`; a syntax error short-circuits into a single
    ``QV001`` diagnostic carrying the parser's position.  Operator names are
    resolved read-only against ``environment`` (the default NQPV environment
    when omitted).
    """
    environment = environment or default_environment()
    try:
        raw = parse_raw_annotated(source)
    except ParseError as error:
        position = SourceSpan(error.line, error.column or 1) if error.line is not None else None
        with span("analyze", region="analyze", syntax_error=True):
            METRICS.counter("analysis.runs").inc()
        return _finish([make_diagnostic("QV001", error.message, position)], None, filename)
    try:
        program = resolve_annotated(raw, environment).program
    except ReproError:
        program = None
    return analyze_raw(raw, environment, program, filename)


def analyze_raw(
    raw: RawAnnotatedProgram,
    environment: OperatorEnvironment,
    program: Optional[Program],
    filename: Optional[str] = None,
) -> AnalysisResult:
    """Analyze a tolerant raw tree and, when it resolved, its typed program.

    ``program`` is what :func:`~repro.language.parser.resolve_annotated`
    returned for ``raw``, or ``None`` when it raised.  The well-formedness
    pass always runs on ``raw``; the usage and profile passes run on
    ``program`` and are skipped without it.  Qubits named in annotations
    count as external uses for ``QV202``.
    """
    with span("analyze", region="analyze") as analyze_span:
        METRICS.counter("analysis.runs").inc()
        with span("wellformed", region="analyze"):
            diagnostics = check_wellformed(raw, environment)
            METRICS.counter("analysis.pass", stage="wellformed").inc()

        profile = None
        if program is not None:
            external_uses = {
                name.value
                for annotation in raw.annotations
                for term in annotation.terms
                for name in term.qubits.names
            }
            warnings, profile = _program_passes(program, external_uses)
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
