"""Static semantic analysis of NQPV programs (non-throwing, multi-pass).

Public surface:

* :func:`~repro.analysis.static.analyzer.analyze_source` — lint annotated
  surface text: tolerant parse, then well-formedness on the raw tree, and
  usage dataflow plus profile on the typed AST when the text resolves;
* :func:`~repro.analysis.static.analyzer.analyze_raw` — the same passes on
  a raw tree the caller already parsed and resolved (the verify pre-flight);
* :func:`~repro.analysis.static.analyzer.analyze_program` — usage/profile
  analysis of an already-resolved AST;
* :class:`~repro.analysis.static.analyzer.AnalysisResult`,
  :class:`~repro.analysis.static.profile.ProgramProfile` and
  :func:`~repro.analysis.static.profile.program_profile` — the structured
  results, consumed by the verify pre-flight and the CLI ``--lint`` surface.

The passes walk the two trees the front end already builds — the raw tree
of :mod:`repro.language.syntax` and the typed AST of
:mod:`repro.language.ast` — and no tree of their own.  The diagnostic
primitives (:class:`~repro.diagnostics.Diagnostic`,
:class:`~repro.diagnostics.SourceSpan`, the code registry) live in the
dependency-free :mod:`repro.diagnostics` so the language layer can share
them without import cycles.
"""

from .analyzer import AnalysisResult, analyze_program, analyze_raw, analyze_source
from .profile import CLIFFORD_GATE_NAMES, ProgramProfile, program_profile
from .usage import check_usage
from .wellformed import check_wellformed

__all__ = [
    "AnalysisResult",
    "analyze_program",
    "analyze_raw",
    "analyze_source",
    "CLIFFORD_GATE_NAMES",
    "ProgramProfile",
    "program_profile",
    "check_usage",
    "check_wellformed",
]
