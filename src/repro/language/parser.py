"""Recursive-descent parser for the NQPV-style surface language.

Three entry points are provided:

* :func:`parse_program` — parses a plain nondeterministic quantum program into
  the AST of :mod:`repro.language.ast`;
* :func:`parse_annotated_program` — parses a program interleaved with assertion
  annotations ``{ N[q1 q2] ... }`` and loop-invariant annotations
  ``{ inv: N[q1 q2] }``, returning the program together with the declared
  precondition, postcondition and per-loop invariants.  This is the input
  format consumed by the proof assistant (Sec. 6.1 of the paper);
* :func:`resolve_annotated` — the checked walk behind both, as a function of
  the tolerant raw tree of :mod:`repro.language.syntax`, so a caller that
  parses once (the verify front end) gets the typed program and every
  diagnostic from one walk.

The resolver is the front end's one well-formedness pass.  It visits each
raw node once, looks each name up once in the
:class:`~repro.language.names.OperatorEnvironment`, leaves the qubit-list,
unitarity and arity checks to the AST constructors and the predicate check
to :meth:`~repro.language.names.OperatorEnvironment.predicate`, and records
every failure as a :class:`~repro.diagnostics.Diagnostic` at its token's
span instead of stopping.  Each code has one producer:

====== ====================================================== =====================
QV101  duplicate qubit in a qubit list                        ``ast.check_qubits``
QV102  empty qubit list                                       ``ast.check_qubits``
QV103  initialisation must assign 0                           raw parser
QV104  unknown operator name                                  ``names.operator``
QV105  operator is not unitary                                ``ast.Unitary``
QV106  operator dimension vs. qubit-list arity                ``ast.Unitary``
QV107  name does not resolve to a two-outcome measurement     ``names.measurement``
QV108  measurement dimension vs. qubit-list arity             ``ast.If``/``ast.While``
QV109  unknown predicate name in an assertion                 ``names.predicate``
QV110  operator is not a valid quantum predicate              ``names.predicate``
QV111  predicate dimension vs. qubit-list arity               ``names.predicate``
QV112  while loop without an ``inv:`` annotation              resolver
QV113  missing postcondition annotation                       resolver
QV114  empty assertion annotation                             raw parser
QV115  no program statement                                   resolver
QV204  dangling ``inv:`` annotation (warning)                 resolver
====== ====================================================== =====================

A :class:`Resolution` holds these diagnostics in source order — exactly the
``QV1xx`` errors the static analyzer reports — and the typed program when
none of them is *strict*.  The strict API raises the first strict error in
source order: a :class:`~repro.exceptions.ParseError` for ``QV101``–``QV103``,
``QV114`` and ``QV115``, a :class:`~repro.exceptions.NameResolutionError`
for ``QV104``–``QV108``, each at the 1-based ``line:column`` of its token.
``QV109``–``QV113`` concern the specification and are left to the verify
pre-flight, so :func:`parse_annotated_program` still accepts a source whose
annotations do not check.  Resolved AST nodes carry their
:class:`~repro.diagnostics.SourceSpan`, and resolved annotation terms carry
their checked predicate matrix.

Grammar (EBNF) ::

    program      ::= item (';' item)*
    item         ::= annotation | statement
    statement    ::= 'skip' | 'abort'
                   | qlist ':=' '0'
                   | qlist '*=' ID
                   | '(' choice ')'
                   | 'if' ID qlist 'then' program ['else' program] 'end'
                   | 'while' ID qlist 'do' program 'end'
    choice       ::= program ('#' program)+
    qlist        ::= '[' ID+ ']'        (commas between names are optional)
    annotation   ::= '{' ['inv' ':'] predterm+ '}'
    predterm     ::= ID qlist
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..diagnostics import Diagnostic, SourceSpan, make_diagnostic, source_order
from ..exceptions import NameResolutionError, ParseError, ReproError
from .ast import If, Init, Program, Skip, Abort, Unitary, While, check_qubits, ndet, seq
from .names import OperatorEnvironment, default_environment
from .syntax import (
    RawAbort,
    RawAnnotatedProgram,
    RawAssertion,
    RawChoice,
    RawIf,
    RawInit,
    RawName,
    RawPredicateTerm,
    RawQubitList,
    RawSequence,
    RawSkip,
    RawStatement,
    RawUnitary,
    RawWhile,
    parse_raw_annotated,
    parse_raw_program,
)

__all__ = [
    "PredicateTerm",
    "AssertionSpec",
    "AnnotatedProgram",
    "Resolution",
    "parse_program",
    "parse_annotated_program",
    "resolve_annotated",
]

#: The codes the strict parser raises, with the exception class of each.  The
#: other findings leave the program usable and only the analyzer reports them.
_STRICT_ERRORS = {
    "QV101": ParseError,
    "QV102": ParseError,
    "QV103": ParseError,
    "QV104": NameResolutionError,
    "QV105": NameResolutionError,
    "QV106": NameResolutionError,
    "QV107": NameResolutionError,
    "QV108": NameResolutionError,
    "QV114": ParseError,
    "QV115": ParseError,
}

#: Message of the missing-postcondition diagnostic.  The verify pre-flight
#: raises it as a StaticAnalysisError, which is an AssistantError, so callers
#: matching the front end's historical AssistantError text still match.
_MISSING_POSTCONDITION = "the source must end with a postcondition annotation '{ ... }'"


@dataclass(frozen=True)
class PredicateTerm:
    """A named predicate applied to a list of qubits, e.g. ``P0[q1]``.

    ``matrix`` is the predicate the resolver checked for this term, so it is
    not looked up or checked again; it is ``None`` on a hand-built term and
    on one whose check failed.
    """

    name: str
    qubits: Tuple[str, ...]
    matrix: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return f"{self.name}[{' '.join(self.qubits)}]"


@dataclass(frozen=True)
class AssertionSpec:
    """A syntactic assertion: a set of predicate terms, possibly a loop invariant."""

    terms: Tuple[PredicateTerm, ...]
    is_invariant: bool = False

    def __str__(self) -> str:
        prefix = "inv: " if self.is_invariant else ""
        return "{ " + prefix + " ".join(str(term) for term in self.terms) + " }"


@dataclass
class AnnotatedProgram:
    """A parsed program together with its declared specification.

    Attributes
    ----------
    program:
        The parsed :class:`~repro.language.ast.Program`.
    precondition / postcondition:
        Leading and trailing assertion annotations (``None`` when omitted; the
        assistant then computes the weakest precondition instead).
    loop_invariants:
        Mapping from ``id(while_node)`` to the invariant annotation written
        immediately before that loop.
    annotations:
        Every intermediate annotation in source order (for display purposes).
    """

    program: Program
    precondition: Optional[AssertionSpec] = None
    postcondition: Optional[AssertionSpec] = None
    loop_invariants: Dict[int, AssertionSpec] = field(default_factory=dict)
    annotations: List[AssertionSpec] = field(default_factory=list)


@dataclass(frozen=True)
class Resolution:
    """What one checked walk of a raw annotated tree found.

    ``diagnostics`` holds every finding in source order.  ``annotated`` is
    the typed program with its specification, or ``None`` when a strict
    error is among the findings.
    """

    annotated: Optional[AnnotatedProgram]
    diagnostics: Tuple[Diagnostic, ...]

    def strict(self) -> AnnotatedProgram:
        """Return the annotated program, or raise the first strict error in source order."""
        _raise_first_strict(self.diagnostics)
        return self.annotated


def _raise_first_strict(diagnostics) -> None:
    """Raise the first diagnostic with a strict code as its exception class."""
    for diagnostic in diagnostics:
        error_type = _STRICT_ERRORS.get(diagnostic.code)
        if error_type is not None:
            raise error_type(
                diagnostic.message,
                diagnostic.span.line,
                diagnostic.span.column,
                code=diagnostic.code,
            )


def _anchor(code: str, qubits: RawQubitList, name: Optional[RawName]) -> SourceSpan:
    """The token a failed check points at: the bracket, the repeated qubit or the name."""
    if code == "QV102":
        return qubits.close_span
    if code == "QV101":
        values = qubits.values()
        return next(q.span for i, q in enumerate(qubits.names) if q.value in values[:i])
    return name.span


class _Resolver:
    """One checked walk from a raw tree to the typed AST.

    A failed lookup or constructor is recorded as a diagnostic at its
    token's span and the walk goes on into the children, so one run finds
    every defect.  A node that failed, or has a failed child, resolves to
    ``None``; each such failure carries a strict code.
    """

    def __init__(self, environment: OperatorEnvironment, problems):
        self._environment = environment
        self.diagnostics: List[Diagnostic] = list(problems)
        self.specs: Dict[int, AssertionSpec] = {}
        self.loop_invariants: Dict[int, AssertionSpec] = {}

    def report(self, code: str, message: str, span: SourceSpan, hint=None) -> None:
        """Record one finding."""
        self.diagnostics.append(make_diagnostic(code, message, span, hint=hint))

    def _lookup(self, find, name: RawName):
        try:
            return find(name.value)
        except NameResolutionError as error:
            self.report(error.code, error.args[0], name.span)
            return None

    def _build(self, node_type, qubits: RawQubitList, name: Optional[RawName], *args, **kwargs):
        try:
            return node_type(*args, **kwargs)
        except ReproError as error:
            self.report(error.code, error.args[0], _anchor(error.code, qubits, name))
            return None

    @staticmethod
    def _compose(combine, parts, span: SourceSpan) -> Optional[Program]:
        if any(part is None for part in parts):
            return None
        program = combine(*parts)
        if program.source_span is None:
            object.__setattr__(program, "source_span", span)
        return program

    # ----------------------------------------------------------- annotations
    def assertion(self, raw: RawAssertion) -> AssertionSpec:
        """Check every term of one annotation and keep its spec for the loop it precedes."""
        spec = AssertionSpec(
            tuple(self._term(term) for term in raw.terms), is_invariant=raw.is_invariant
        )
        self.specs[id(raw)] = spec
        return spec

    def _term(self, raw: RawPredicateTerm) -> PredicateTerm:
        # As for a measurement, the name precedes its qubit list and is
        # checked first; an empty list is QV102, not an arity error.
        name, qubits = raw.name.value, raw.qubits.values()
        matrix = None
        try:
            matrix = self._environment.predicate(name, num_qubits=len(qubits) or None)
            check_qubits(qubits, "assertion term")
        except ReproError as error:
            self.report(error.code, error.args[0], _anchor(error.code, raw.qubits, raw.name))
        return PredicateTerm(name, qubits, matrix)

    # ------------------------------------------------------------ statements
    def resolve(self, raw: RawStatement) -> Optional[Program]:
        """Resolve one raw statement into a typed, span-carrying AST node (or ``None``)."""
        if isinstance(raw, RawSkip):
            return Skip(source_span=raw.span)
        if isinstance(raw, RawAbort):
            return Abort(source_span=raw.span)
        if isinstance(raw, RawInit):
            return self._build(Init, raw.qubits, None, raw.qubits.values(), source_span=raw.span)
        if isinstance(raw, RawUnitary):
            matrix = self._lookup(self._environment.operator, raw.operator)
            if matrix is None:
                return None
            return self._build(
                Unitary,
                raw.qubits,
                raw.operator,
                raw.qubits.values(),
                raw.operator.value,
                matrix,
                source_span=raw.span,
            )
        if isinstance(raw, RawSequence):
            if not raw.items:
                return Skip(source_span=raw.span)
            return self._compose(seq, [self.resolve(item) for item in raw.items], raw.span)
        if isinstance(raw, RawChoice):
            return self._compose(ndet, [self.resolve(branch) for branch in raw.branches], raw.span)
        if isinstance(raw, RawIf):
            measurement = self._lookup(self._environment.measurement, raw.measurement)
            then_branch = self.resolve(raw.then_branch)
            else_branch = Skip() if raw.else_branch is None else self.resolve(raw.else_branch)
            if measurement is None or then_branch is None or else_branch is None:
                return None
            return self._build(
                If,
                raw.qubits,
                raw.measurement,
                measurement,
                raw.qubits.values(),
                then_branch,
                else_branch,
                source_span=raw.span,
            )
        if isinstance(raw, RawWhile):
            measurement = self._lookup(self._environment.measurement, raw.measurement)
            body = self.resolve(raw.body)
            if raw.invariant is None:
                self.report(
                    "QV112",
                    "while loop has no 'inv:' annotation",
                    raw.span,
                    hint="write '{ inv: NAME[q ...] }' immediately before the loop",
                )
            if measurement is None or body is None:
                return None
            loop = self._build(
                While,
                raw.qubits,
                raw.measurement,
                measurement,
                raw.qubits.values(),
                body,
                source_span=raw.span,
            )
            invariant = self.specs.get(id(raw.invariant))
            if loop is not None and invariant is not None:
                self.loop_invariants[id(loop)] = invariant
            return loop
        raise ParseError(f"unsupported raw node {type(raw).__name__}")


def parse_program(source: str, environment: OperatorEnvironment | None = None) -> Program:
    """Parse a plain program (annotations are allowed but ignored)."""
    raw = parse_raw_program(source)
    resolver = _Resolver(environment or default_environment(), raw.problems)
    program = resolver.resolve(raw.root)
    _raise_first_strict(sorted(resolver.diagnostics, key=source_order))
    return program


def parse_annotated_program(
    source: str, environment: OperatorEnvironment | None = None
) -> AnnotatedProgram:
    """Parse a program with assertion annotations (the proof-assistant input format).

    The first annotation (if any) before the first statement is taken as the
    precondition, the last annotation after the final statement as the
    postcondition, and every ``inv:`` annotation is attached to the while loop
    that follows it.
    """
    raw = parse_raw_annotated(source)
    return resolve_annotated(raw, environment or default_environment()).strict()


def resolve_annotated(
    raw: RawAnnotatedProgram, environment: OperatorEnvironment
) -> Resolution:
    """Walk a raw annotated tree once, building the typed program and every diagnostic.

    Never raises for a defect of the source: :meth:`Resolution.strict` raises
    what :func:`parse_annotated_program` raises for the same text.  A source
    without any program statement gets ``QV115`` at the end of the input.
    """
    resolver = _Resolver(environment, raw.problems)
    annotations = [resolver.assertion(annotation) for annotation in raw.annotations]
    statements = [resolver.resolve(statement) for statement in raw.statements]
    if raw.postcondition is None:
        resolver.report("QV113", _MISSING_POSTCONDITION, raw.end_span)
    if not raw.statements:
        resolver.report("QV115", "the source text contains no program statement", raw.end_span)
    for dangling in raw.dangling_invariants:
        resolver.report(
            "QV204", "'inv:' annotation is not attached to any while loop", dangling.span
        )

    diagnostics = tuple(sorted(resolver.diagnostics, key=source_order))
    if any(diagnostic.code in _STRICT_ERRORS for diagnostic in diagnostics):
        return Resolution(None, diagnostics)
    annotated = AnnotatedProgram(
        program=seq(*statements),
        precondition=None if raw.precondition is None else resolver.specs[id(raw.precondition)],
        postcondition=None if raw.postcondition is None else resolver.specs[id(raw.postcondition)],
        loop_invariants=resolver.loop_invariants,
        annotations=annotations,
    )
    return Resolution(annotated, diagnostics)
