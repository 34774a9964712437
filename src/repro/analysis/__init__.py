"""Program analyses: termination, refinement (S14) and static semantic analysis.

The :mod:`repro.analysis.static` subpackage is the non-throwing lint layer:
multi-pass diagnostics (well-formedness from the parser's one walk,
qubit-usage dataflow on the typed AST) plus the
:class:`~repro.analysis.static.profile.ProgramProfile` structure summary
reported by the verify pre-flight and ``--diagnostics-json``.
"""

from .refinement import RefinementReport, check_refinement, transfer_formula
from .static import (
    AnalysisResult,
    CLIFFORD_GATE_NAMES,
    ProgramProfile,
    analyze_program,
    analyze_source,
    program_profile,
)
from .termination import (
    TerminationReport,
    loop_termination_curve,
    termination_probability,
    termination_report,
)

__all__ = [
    "RefinementReport",
    "check_refinement",
    "transfer_formula",
    "AnalysisResult",
    "CLIFFORD_GATE_NAMES",
    "ProgramProfile",
    "analyze_program",
    "analyze_source",
    "program_profile",
    "TerminationReport",
    "loop_termination_curve",
    "termination_probability",
    "termination_report",
]
