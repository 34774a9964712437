"""Static semantic analysis of NQPV programs (non-throwing, multi-pass).

Public surface:

* :func:`~repro.analysis.static.analyzer.analyze_source` — lint annotated
  surface text: the parser's one walk for the well-formedness findings,
  and usage dataflow plus profile on the typed AST when the text resolves;
* :func:`~repro.analysis.static.analyzer.analyze_resolution` — the same
  result from a :class:`~repro.language.parser.Resolution` the caller
  already holds (the verify pre-flight);
* :func:`~repro.analysis.static.analyzer.analyze_program` — usage/profile
  analysis of an already-resolved AST;
* :class:`~repro.analysis.static.analyzer.AnalysisResult`,
  :class:`~repro.analysis.static.profile.ProgramProfile` and
  :func:`~repro.analysis.static.profile.program_profile` — the structured
  results, consumed by the verify pre-flight and the CLI ``--lint`` surface.

The passes here walk only the typed AST of :mod:`repro.language.ast`, which
:mod:`repro.language.parser` builds as it reads the tokens.  The diagnostic
primitives (:class:`~repro.diagnostics.Diagnostic`,
:class:`~repro.diagnostics.SourceSpan`, the code registry) live in the
dependency-free :mod:`repro.diagnostics` so the language layer can share
them without import cycles.
"""

from .analyzer import AnalysisResult, analyze_program, analyze_resolution, analyze_source
from .profile import CLIFFORD_GATE_NAMES, ProgramProfile, program_profile
from .usage import check_usage

__all__ = [
    "AnalysisResult",
    "analyze_program",
    "analyze_resolution",
    "analyze_source",
    "CLIFFORD_GATE_NAMES",
    "ProgramProfile",
    "program_profile",
    "check_usage",
]
