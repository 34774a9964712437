"""Recursive-descent parser for the NQPV-style surface language.

Two entry points are provided:

* :func:`parse_program` — parses a plain nondeterministic quantum program into
  the AST of :mod:`repro.language.ast`;
* :func:`parse_annotated_program` — parses a program interleaved with assertion
  annotations ``{ N[q1 q2] ... }`` and loop-invariant annotations
  ``{ inv: N[q1 q2] }``, returning the program together with the declared
  precondition, postcondition and per-loop invariants.  This is the input
  format consumed by the proof assistant (Sec. 6.1 of the paper).

Both are thin strict wrappers over the tolerant raw parser of
:mod:`repro.language.syntax`: the raw parse collects semantic problems
(empty qubit lists, ``:= 1`` initialisations, empty annotations) instead of
raising, and the resolver below re-raises the first problem in source order.
:func:`resolve_annotated` is that resolver as a function of the raw tree, so
a caller that parses once (the verify front end) can hand the same raw tree
to the resolver and to the static analyzer.  Every
:class:`~repro.exceptions.ParseError` and
:class:`~repro.exceptions.NameResolutionError` raised here carries the
1-based ``line:column`` of the offending token and the stable ``code`` the
analyzer reports for the same defect (``QV001`` for syntax errors, ``QV102``,
``QV103``, ``QV114``, ``QV115`` for recorded problems, ``QV104``–``QV108``
for names that do not resolve), and the resolved AST nodes carry their
:class:`~repro.diagnostics.SourceSpan`.

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

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..diagnostics import SourceSpan
from ..exceptions import NameResolutionError, ParseError
from .ast import If, Init, Program, Skip, Abort, Unitary, While, ndet, seq
from .names import OperatorEnvironment, default_environment
from .syntax import (
    RawAbort,
    RawAnnotatedProgram,
    RawAssertion,
    RawChoice,
    RawIf,
    RawInit,
    RawName,
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
    "parse_program",
    "parse_annotated_program",
    "resolve_annotated",
]


@dataclass(frozen=True)
class PredicateTerm:
    """A named predicate applied to a list of qubits, e.g. ``P0[q1]``."""

    name: str
    qubits: Tuple[str, ...]

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


def _spec(assertion: Optional[RawAssertion]) -> Optional[AssertionSpec]:
    """Convert a raw annotation into the public :class:`AssertionSpec` form."""
    if assertion is None:
        return None
    terms = tuple(
        PredicateTerm(term.name.value, term.qubits.values()) for term in assertion.terms
    )
    return AssertionSpec(terms, is_invariant=assertion.is_invariant)


class _Resolver:
    """Builds the typed AST from a raw tree, re-raising problems in source order.

    The raw parser records tolerated semantic problems (empty qubit lists,
    bad initialisation values, empty annotations) in parse order; operator
    lookups happen here, also in parse order.  To reproduce the original
    single-pass parser's first-error behaviour exactly, a problem is raised
    as soon as resolution reaches a lookup positioned *after* it, and any
    remainder is raised once the walk completes.
    """

    def __init__(self, environment: OperatorEnvironment, problems):
        self._environment = environment
        self._problems = deque(problems)
        self.loop_invariants: Dict[int, AssertionSpec] = {}

    # ------------------------------------------------------------- problems
    def flush_problems(self, before: Optional[SourceSpan] = None) -> None:
        """Raise the first recorded problem positioned before ``before`` (or any)."""
        while self._problems:
            problem = self._problems[0]
            if before is not None and (problem.span.line, problem.span.column) > (
                before.line,
                before.column,
            ):
                return
            raise ParseError(
                problem.message, problem.span.line, problem.span.column, code=problem.code
            )

    # --------------------------------------------------------------- lookups
    def _unitary(self, operator: RawName, num_qubits: int):
        self.flush_problems(operator.span)
        try:
            return self._environment.unitary(operator.value, num_qubits=num_qubits)
        except NameResolutionError as exc:
            raise NameResolutionError(
                exc.args[0], operator.span.line, operator.span.column, code=exc.code
            ) from None

    def _measurement(self, name: RawName, num_qubits: int):
        self.flush_problems(name.span)
        try:
            return self._environment.measurement(name.value, num_qubits=num_qubits)
        except NameResolutionError as exc:
            raise NameResolutionError(
                exc.args[0], name.span.line, name.span.column, code=exc.code
            ) from None

    # ------------------------------------------------------------ statements
    def resolve(self, raw: RawStatement) -> Program:
        """Resolve one raw statement into a typed, span-carrying AST node."""
        if isinstance(raw, RawSkip):
            return Skip(source_span=raw.span)
        if isinstance(raw, RawAbort):
            return Abort(source_span=raw.span)
        if isinstance(raw, RawInit):
            self.flush_problems(raw.value_span)
            return Init(raw.qubits.values(), source_span=raw.span)
        if isinstance(raw, RawUnitary):
            matrix = self._unitary(raw.operator, len(raw.qubits.names))
            return Unitary(
                raw.qubits.values(), raw.operator.value, matrix, source_span=raw.span
            )
        if isinstance(raw, RawSequence):
            if not raw.items:
                return Skip(source_span=raw.span)
            program = seq(*(self.resolve(item) for item in raw.items))
            if program.source_span is None:
                object.__setattr__(program, "source_span", raw.span)
            return program
        if isinstance(raw, RawChoice):
            program = ndet(*(self.resolve(branch) for branch in raw.branches))
            if program.source_span is None:
                object.__setattr__(program, "source_span", raw.span)
            return program
        if isinstance(raw, RawIf):
            self.flush_problems(raw.qubits.close_span)
            measurement = self._measurement(raw.measurement, len(raw.qubits.names))
            then_branch = self.resolve(raw.then_branch)
            else_branch: Program = (
                self.resolve(raw.else_branch) if raw.else_branch is not None else Skip()
            )
            return If(
                measurement, raw.qubits.values(), then_branch, else_branch, source_span=raw.span
            )
        if isinstance(raw, RawWhile):
            self.flush_problems(raw.qubits.close_span)
            measurement = self._measurement(raw.measurement, len(raw.qubits.names))
            body = self.resolve(raw.body)
            loop = While(measurement, raw.qubits.values(), body, source_span=raw.span)
            if raw.invariant is not None:
                self.loop_invariants[id(loop)] = _spec(raw.invariant)
            return loop
        raise ParseError(f"unsupported raw node {type(raw).__name__}")


def parse_program(source: str, environment: OperatorEnvironment | None = None) -> Program:
    """Parse a plain program (annotations are allowed but ignored)."""
    environment = environment or default_environment()
    raw = parse_raw_program(source)
    resolver = _Resolver(environment, raw.problems)
    program = resolver.resolve(raw.root)
    resolver.flush_problems()
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
    return resolve_annotated(parse_raw_annotated(source), environment or default_environment())


def resolve_annotated(
    raw: RawAnnotatedProgram, environment: OperatorEnvironment
) -> AnnotatedProgram:
    """Resolve a raw annotated tree strictly, raising its first problem in source order.

    This is :func:`parse_annotated_program` after the tolerant parse: the
    same exception class at the same position for the same text.  A source
    without any program statement raises a ``QV115``
    :class:`~repro.exceptions.ParseError` at the end of the input.
    """
    resolver = _Resolver(environment, raw.problems)
    statements = [resolver.resolve(statement) for statement in raw.statements]
    resolver.flush_problems()

    if not statements:
        raise ParseError(
            "the source text contains no program statement",
            raw.end_span.line,
            raw.end_span.column,
            code="QV115",
        )
    return AnnotatedProgram(
        program=seq(*statements),
        precondition=_spec(raw.precondition),
        postcondition=_spec(raw.postcondition),
        loop_invariants=resolver.loop_invariants,
        annotations=[_spec(annotation) for annotation in raw.annotations],
    )
