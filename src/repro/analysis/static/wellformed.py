"""Well-formedness pass: every front-end defect collected in one run.

Unlike the strict parser/resolver (first error raised), this pass walks the
tolerant raw tree of :mod:`repro.language.syntax` and classifies every
problem it can find into the stable-code registry of
:mod:`repro.diagnostics`:

====== ==========================================================
QV101  duplicate qubit in a qubit list
QV102  empty qubit list                  (recorded by the raw parser)
QV103  initialisation must assign 0      (recorded by the raw parser)
QV104  unknown operator name
QV105  operator is not unitary
QV106  operator dimension vs. qubit-list arity
QV107  name does not resolve to a measurement
QV108  measurement dimension vs. qubit-list arity
QV109  unknown predicate name in an assertion
QV110  operator is not a valid quantum predicate
QV111  predicate dimension vs. qubit-list arity
QV112  while loop without an ``inv:`` annotation
QV113  missing postcondition annotation
QV114  empty assertion annotation        (recorded by the raw parser)
QV115  no program statement
QV204  dangling ``inv:`` annotation (warning)
====== ==========================================================

Operator lookups go through the session's
:class:`~repro.language.names.OperatorEnvironment` read-only — nothing is
defined, promoted or mutated — so the pass is safe to run on shared
environments.
"""

from __future__ import annotations

from typing import List

from ...diagnostics import Diagnostic, make_diagnostic
from ...exceptions import NameResolutionError
from ...language.names import OperatorEnvironment
from ...language.syntax import (
    RawAnnotatedProgram,
    RawAssertion,
    RawChoice,
    RawIf,
    RawInit,
    RawQubitList,
    RawSequence,
    RawStatement,
    RawUnitary,
    RawWhile,
)
from ...linalg.operators import is_hermitian, is_predicate_matrix, is_unitary

__all__ = ["check_wellformed"]

#: Message of the missing-postcondition diagnostic.  The verify pre-flight
#: raises it as a StaticAnalysisError, which is an AssistantError, so callers
#: matching the front end's historical AssistantError text still match.
_MISSING_POSTCONDITION = "the source must end with a postcondition annotation '{ ... }'"


class _WellformedChecker:
    """Collects well-formedness diagnostics over one raw annotated program."""

    def __init__(self, environment: OperatorEnvironment):
        self._environment = environment
        self.diagnostics: List[Diagnostic] = []

    # -------------------------------------------------------------- helpers
    def _emit(self, code: str, message: str, span, hint=None) -> None:
        self.diagnostics.append(make_diagnostic(code, message, span, hint=hint))

    def _check_duplicates(self, qubits: RawQubitList, context: str) -> None:
        seen = set()
        for name in qubits.names:
            if name.value in seen:
                self._emit(
                    "QV101",
                    f"duplicate qubit '{name.value}' in {context}",
                    name.span,
                )
            seen.add(name.value)

    def _lookup_operator(self, name: str):
        """Return the operator matrix or ``None`` (read-only, never raises)."""
        try:
            return self._environment.operator(name)
        except NameResolutionError:
            return None

    # ------------------------------------------------------------ statements
    def check_statement(self, raw: RawStatement) -> None:
        """Classify the defects of one raw statement (recursing into children)."""
        if isinstance(raw, RawInit):
            self._check_duplicates(raw.qubits, "initialisation")
        elif isinstance(raw, RawUnitary):
            self._check_duplicates(raw.qubits, "unitary statement")
            self._check_unitary(raw)
        elif isinstance(raw, RawSequence):
            for item in raw.items:
                self.check_statement(item)
        elif isinstance(raw, RawChoice):
            for branch in raw.branches:
                self.check_statement(branch)
        elif isinstance(raw, RawIf):
            self._check_duplicates(raw.qubits, "measurement")
            self._check_measurement(raw.measurement, raw.qubits)
            self.check_statement(raw.then_branch)
            if raw.else_branch is not None:
                self.check_statement(raw.else_branch)
        elif isinstance(raw, RawWhile):
            self._check_duplicates(raw.qubits, "measurement")
            self._check_measurement(raw.measurement, raw.qubits)
            if raw.invariant is None:
                self._emit(
                    "QV112",
                    "while loop has no 'inv:' annotation",
                    raw.span,
                    hint="write '{ inv: NAME[q ...] }' immediately before the loop",
                )
            self.check_statement(raw.body)

    def _check_unitary(self, raw: RawUnitary) -> None:
        matrix = self._lookup_operator(raw.operator.value)
        if matrix is None:
            self._emit(
                "QV104", f"unknown operator '{raw.operator.value}'", raw.operator.span
            )
            return
        if not is_unitary(matrix):
            self._emit(
                "QV105", f"operator '{raw.operator.value}' is not unitary", raw.operator.span
            )
            return
        num_qubits = len(raw.qubits.names)
        if num_qubits and matrix.shape[0] != 2 ** num_qubits:
            self._emit(
                "QV106",
                f"operator '{raw.operator.value}' has dimension {matrix.shape[0]} "
                f"but is applied to {num_qubits} qubit(s)",
                raw.operator.span,
            )

    def _check_measurement(self, name, qubits: RawQubitList) -> None:
        try:
            measurement = self._environment.measurement(name.value)
        except NameResolutionError:
            self._emit(
                "QV107",
                f"'{name.value}' does not resolve to a two-outcome measurement",
                name.span,
            )
            return
        num_qubits = len(qubits.names)
        if num_qubits and measurement.dimension != 2 ** num_qubits:
            self._emit(
                "QV108",
                f"measurement '{name.value}' has dimension {measurement.dimension} "
                f"but is applied to {num_qubits} qubit(s)",
                name.span,
            )

    # ----------------------------------------------------------- annotations
    def check_annotation(self, assertion: RawAssertion) -> None:
        """Classify the defects of one assertion annotation."""
        for term in assertion.terms:
            self._check_duplicates(term.qubits, "assertion term")
            matrix = self._lookup_operator(term.name.value)
            if matrix is None:
                self._emit(
                    "QV109",
                    f"unknown predicate '{term.name.value}' in assertion",
                    term.name.span,
                )
                continue
            if not is_hermitian(matrix) or not is_predicate_matrix(matrix):
                self._emit(
                    "QV110",
                    f"operator '{term.name.value}' is not a valid quantum predicate "
                    "(must be hermitian with 0 ⊑ M ⊑ I)",
                    term.name.span,
                )
                continue
            num_qubits = len(term.qubits.names)
            if num_qubits and matrix.shape[0] != 2 ** num_qubits:
                self._emit(
                    "QV111",
                    f"predicate '{term.name.value}' has dimension {matrix.shape[0]} "
                    f"but is applied to {num_qubits} qubit(s)",
                    term.name.span,
                )


def check_wellformed(
    raw: RawAnnotatedProgram, environment: OperatorEnvironment
) -> List[Diagnostic]:
    """Run the well-formedness pass over a raw annotated program.

    Returns every diagnostic the pass finds, in source order within each
    category; the caller is responsible for any final sorting.
    """
    checker = _WellformedChecker(environment)

    # Problems the tolerant parser already recorded (QV102/QV103/QV114).
    for problem in raw.problems:
        checker._emit(problem.code, problem.message, problem.span)

    for statement in raw.statements:
        checker.check_statement(statement)
    for annotation in raw.annotations:
        checker.check_annotation(annotation)

    if raw.postcondition is None:
        checker._emit("QV113", _MISSING_POSTCONDITION, raw.end_span)
    if not raw.statements:
        checker._emit("QV115", "the source text contains no program statement", raw.end_span)
    for dangling in raw.dangling_invariants:
        checker._emit(
            "QV204",
            "'inv:' annotation is not attached to any while loop",
            dangling.span,
        )
    return checker.diagnostics
