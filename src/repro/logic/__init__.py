"""Hoare-style logic for nondeterministic quantum programs (S9, S10, S13)."""

from .checker import RULE_NAMES, check_rule
from .formula import CorrectnessFormula, CorrectnessMode
from .proof import AnnotatedStatement, ProofOutline
from .prover import (
    Prover,
    ProverOptions,
    VerificationReport,
    assign_invariants,
    verify_formula,
)
from .ranking import RankingCertificate, check_ranking, synthesize_ranking
from .semantic_check import SemanticCheckResult, check_formula_semantically, test_states

__all__ = [
    "RULE_NAMES",
    "check_rule",
    "CorrectnessFormula",
    "CorrectnessMode",
    "AnnotatedStatement",
    "ProofOutline",
    "Prover",
    "ProverOptions",
    "VerificationReport",
    "assign_invariants",
    "verify_formula",
    "RankingCertificate",
    "check_ranking",
    "synthesize_ranking",
    "SemanticCheckResult",
    "check_formula_semantically",
    "test_states",
]
