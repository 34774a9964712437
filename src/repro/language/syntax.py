"""Span-carrying raw syntax trees and the tolerant parser behind the front end.

The raw tree (:class:`RawInit`, :class:`RawWhile`, …) records exactly what
was written, including constructs the language rejects (empty or repeated
qubit lists, ``:= 1`` initialisations, empty annotations), together with the
1-based :class:`~repro.diagnostics.SourceSpan` of every construct and name.
:func:`parse_raw_program` / :func:`parse_raw_annotated` raise
:class:`~repro.exceptions.ParseError` only for *syntax* errors (unexpected
tokens, code ``QV001``); the two defects only the text shows — an
initialisation to a value other than 0 (``QV103``) and an empty annotation
(``QV114``) — are recorded as :class:`~repro.diagnostics.Diagnostic`
records in parse order.

Everything else is checked by the resolver of :mod:`repro.language.parser`,
the front end's one well-formedness pass: it walks this tree once, builds
the typed AST and reports every defect it meets at its token's span, so the
strict parser and the static analyzer read their errors from the same walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..diagnostics import Diagnostic, SourceSpan, make_diagnostic
from .lexer import Token, tokenize

__all__ = [
    "RawName",
    "RawQubitList",
    "RawPredicateTerm",
    "RawAssertion",
    "RawSkip",
    "RawAbort",
    "RawInit",
    "RawUnitary",
    "RawSequence",
    "RawChoice",
    "RawIf",
    "RawWhile",
    "RawStatement",
    "RawProgram",
    "RawAnnotatedProgram",
    "parse_raw_program",
    "parse_raw_annotated",
]


# ---------------------------------------------------------------------------
# Raw tree nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawName:
    """An identifier occurrence together with its source span."""

    value: str
    span: SourceSpan

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RawQubitList:
    """A bracketed qubit list ``[q1 q2 …]`` (possibly empty — validated later).

    ``span`` covers the opening bracket; ``close_span`` the closing bracket
    (the anchor of the "empty qubit list" error).
    """

    names: Tuple[RawName, ...]
    span: SourceSpan
    close_span: SourceSpan

    def values(self) -> Tuple[str, ...]:
        """Return the bare qubit names in order."""
        return tuple(name.value for name in self.names)


@dataclass(frozen=True)
class RawPredicateTerm:
    """A named predicate applied to a qubit list inside an annotation."""

    name: RawName
    qubits: RawQubitList


@dataclass(frozen=True)
class RawAssertion:
    """An annotation ``{ [inv:] N[q…] … }`` (possibly empty — validated later)."""

    terms: Tuple[RawPredicateTerm, ...]
    is_invariant: bool
    span: SourceSpan
    close_span: SourceSpan


@dataclass(frozen=True)
class RawSkip:
    """Raw ``skip`` statement."""

    span: SourceSpan


@dataclass(frozen=True)
class RawAbort:
    """Raw ``abort`` statement."""

    span: SourceSpan


@dataclass(frozen=True)
class RawInit:
    """Raw initialisation ``[q̄] := value`` (any numeric value — validated later)."""

    qubits: RawQubitList
    value: str
    value_span: SourceSpan
    span: SourceSpan


@dataclass(frozen=True)
class RawUnitary:
    """Raw unitary application ``[q̄] *= U``."""

    qubits: RawQubitList
    operator: RawName
    span: SourceSpan


@dataclass(frozen=True)
class RawSequence:
    """Raw sequential composition; may have zero or one item (``skip`` cases)."""

    items: Tuple["RawStatement", ...]
    span: SourceSpan


@dataclass(frozen=True)
class RawChoice:
    """Raw nondeterministic choice ``S0 # S1 # …`` (two or more branches)."""

    branches: Tuple["RawStatement", ...]
    span: SourceSpan


@dataclass(frozen=True)
class RawIf:
    """Raw conditional; ``else_branch`` is ``None`` when the else arm is omitted."""

    measurement: RawName
    qubits: RawQubitList
    then_branch: "RawStatement"
    else_branch: Optional["RawStatement"]
    span: SourceSpan


@dataclass(frozen=True)
class RawWhile:
    """Raw loop; ``invariant`` is the ``inv:`` annotation attached to this loop."""

    measurement: RawName
    qubits: RawQubitList
    body: "RawStatement"
    invariant: Optional[RawAssertion]
    span: SourceSpan


#: Union of every raw statement node.
RawStatement = Union[
    RawSkip, RawAbort, RawInit, RawUnitary, RawSequence, RawChoice, RawIf, RawWhile
]


@dataclass(frozen=True)
class RawProgram:
    """Result of :func:`parse_raw_program`: the raw tree plus its recorded problems."""

    root: RawStatement
    problems: Tuple[Diagnostic, ...]


@dataclass(frozen=True)
class RawAnnotatedProgram:
    """Result of :func:`parse_raw_annotated`: top-level items plus the specification.

    ``statements`` are the top-level statements in order; ``precondition`` /
    ``postcondition`` follow the strict parser's convention (first leading
    annotation, last trailing annotation).  ``dangling_invariants`` are
    ``inv:`` annotations never attached to any while loop.
    """

    statements: Tuple[RawStatement, ...]
    precondition: Optional[RawAssertion]
    postcondition: Optional[RawAssertion]
    annotations: Tuple[RawAssertion, ...]
    dangling_invariants: Tuple[RawAssertion, ...]
    problems: Tuple[Diagnostic, ...]
    end_span: SourceSpan


# ---------------------------------------------------------------------------
# Tolerant recursive-descent parser
# ---------------------------------------------------------------------------


class _RawParser:
    """Token cursor building raw trees; strict on syntax, tolerant on semantics."""

    def __init__(self, tokens):
        self._tokens = list(tokens)
        self._position = 0
        self.annotations: List[RawAssertion] = []
        self.problems: List[Diagnostic] = []
        self.dangling_invariants: List[RawAssertion] = []
        self._pending_invariant: Optional[RawAssertion] = None

    # ----------------------------------------------------------- token access
    def peek(self, offset: int = 0) -> Token:
        index = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.peek()
        if token.kind != "EOF":
            self._position += 1
        return token

    def expect(self, kind: str) -> Token:
        from ..exceptions import ParseError

        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind} but found {token.kind} ({token.value!r})",
                token.line,
                token.column,
                code="QV001",
            )
        return self.advance()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def problem(self, code: str, message: str, span: SourceSpan) -> None:
        self.problems.append(make_diagnostic(code, message, span))

    # ------------------------------------------------------------- components
    def parse_qubit_list(self) -> RawQubitList:
        opening = self.expect("LBRACKET")
        names: List[RawName] = []
        while not self.at("RBRACKET"):
            token = self.expect("ID")
            names.append(RawName(token.value, SourceSpan.from_token(token)))
            if self.at("COMMA"):
                self.advance()
        closing = self.expect("RBRACKET")
        return RawQubitList(
            tuple(names), SourceSpan.from_token(opening), SourceSpan.from_token(closing)
        )

    def parse_annotation(self) -> RawAssertion:
        opening = self.expect("LBRACE")
        is_invariant = False
        if self.at("INV"):
            self.advance()
            self.expect("COLON")
            is_invariant = True
        terms: List[RawPredicateTerm] = []
        while not self.at("RBRACE"):
            name_token = self.expect("ID")
            name = RawName(name_token.value, SourceSpan.from_token(name_token))
            terms.append(RawPredicateTerm(name, self.parse_qubit_list()))
        closing = self.expect("RBRACE")
        close_span = SourceSpan.from_token(closing)
        if not terms:
            self.problem("QV114", "empty assertion annotation", close_span)
        assertion = RawAssertion(
            tuple(terms), is_invariant, SourceSpan.from_token(opening), close_span
        )
        self.annotations.append(assertion)
        if is_invariant:
            if self._pending_invariant is not None:
                self.dangling_invariants.append(self._pending_invariant)
            self._pending_invariant = assertion
        return assertion

    # -------------------------------------------------------------- statements
    def parse_statement(self) -> RawStatement:
        from ..exceptions import ParseError

        token = self.peek()
        span = SourceSpan.from_token(token)
        if token.kind == "SKIP":
            self.advance()
            return RawSkip(span)
        if token.kind == "ABORT":
            self.advance()
            return RawAbort(span)
        if token.kind == "LBRACKET":
            qubits = self.parse_qubit_list()
            operator_token = self.peek()
            if operator_token.kind == "ASSIGN":
                self.advance()
                number = self.expect("NUMBER")
                value_span = SourceSpan.from_token(number)
                if number.value != "0":
                    self.problem("QV103", "initialisation must assign 0", value_span)
                return RawInit(qubits, number.value, value_span, span)
            if operator_token.kind == "MUL_ASSIGN":
                self.advance()
                name_token = self.expect("ID")
                operator = RawName(name_token.value, SourceSpan.from_token(name_token))
                return RawUnitary(qubits, operator, span)
            raise ParseError(
                f"expected ':=' or '*=' after qubit list, found {operator_token.value!r}",
                operator_token.line,
                operator_token.column,
                code="QV001",
            )
        if token.kind == "LPAREN":
            self.advance()
            inner = self.parse_choice()
            self.expect("RPAREN")
            return inner
        if token.kind == "IF":
            return self.parse_if()
        if token.kind == "WHILE":
            return self.parse_while()
        raise ParseError(
            f"unexpected token {token.value!r}", token.line, token.column, code="QV001"
        )

    def parse_if(self) -> RawIf:
        opening = self.expect("IF")
        name_token = self.expect("ID")
        measurement = RawName(name_token.value, SourceSpan.from_token(name_token))
        qubits = self.parse_qubit_list()
        self.expect("THEN")
        then_branch = self.parse_sequence(stop={"ELSE", "END"})
        else_branch: Optional[RawStatement] = None
        if self.at("ELSE"):
            self.advance()
            else_branch = self.parse_sequence(stop={"END"})
        self.expect("END")
        return RawIf(
            measurement, qubits, then_branch, else_branch, SourceSpan.from_token(opening)
        )

    def parse_while(self) -> RawWhile:
        opening = self.expect("WHILE")
        name_token = self.expect("ID")
        measurement = RawName(name_token.value, SourceSpan.from_token(name_token))
        qubits = self.parse_qubit_list()
        self.expect("DO")
        body = self.parse_sequence(stop={"END"})
        self.expect("END")
        # The pending-invariant convention of the strict parser: the loop that
        # *finishes* parsing first (the innermost one) consumes the annotation.
        invariant = self._pending_invariant
        self._pending_invariant = None
        return RawWhile(measurement, qubits, body, invariant, SourceSpan.from_token(opening))

    # --------------------------------------------------------------- sequences
    def parse_sequence(self, stop: set) -> RawStatement:
        """Parse ``item (';' item)*`` until a stop keyword, EOF or closing token."""
        start = SourceSpan.from_token(self.peek())
        items: List[RawStatement] = []
        stop = set(stop) | {"EOF", "RPAREN"}
        while True:
            if self.peek().kind in stop:
                break
            if self.at("LBRACE"):
                self.parse_annotation()
            else:
                items.append(self.parse_statement())
            if self.at("SEMICOLON"):
                self.advance()
                continue
            break
        if len(items) == 1:
            return items[0]
        return RawSequence(tuple(items), items[0].span if items else start)

    def parse_choice(self) -> RawStatement:
        start = SourceSpan.from_token(self.peek())
        branches = [self.parse_sequence(stop={"HASH"})]
        while self.at("HASH"):
            self.advance()
            branches.append(self.parse_sequence(stop={"HASH"}))
        if len(branches) == 1:
            return branches[0]
        return RawChoice(tuple(branches), start)

    def finish(self) -> None:
        """Record a still-pending ``inv:`` annotation as dangling at end of input."""
        if self._pending_invariant is not None:
            self.dangling_invariants.append(self._pending_invariant)
            self._pending_invariant = None


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def parse_raw_program(source: str) -> RawProgram:
    """Parse a plain program into a raw tree, collecting semantic problems.

    Mirrors :func:`repro.language.parser.parse_program`: the whole input is a
    top-level choice (a bare ``#`` is allowed), annotations are parsed (an
    empty one is still recorded as a problem) but take no part in the program
    structure.  Raises :class:`~repro.exceptions.ParseError` only for genuine
    syntax errors.
    """
    parser = _RawParser(tokenize(source))
    root = parser.parse_choice()
    parser.expect("EOF")
    return RawProgram(root=root, problems=tuple(parser.problems))


def parse_raw_annotated(source: Union[str, Sequence[Token]]) -> RawAnnotatedProgram:
    """Parse an annotated program (the proof-assistant input format) into raw form.

    Mirrors :func:`repro.language.parser.parse_annotated_program`: the first
    leading annotation is the precondition, the last trailing annotation the
    postcondition, and every ``inv:`` annotation attaches to the innermost
    while loop that finishes parsing after it.  Only syntax errors raise; a
    missing program or empty annotations are recorded, not raised.
    ``source`` is text, or tokens that end with an ``EOF`` token (a proof
    body cut from a session script keeps the script's positions).
    """
    from ..exceptions import ParseError

    parser = _RawParser(tokenize(source) if isinstance(source, str) else source)
    precondition: Optional[RawAssertion] = None
    postcondition: Optional[RawAssertion] = None
    statements: List[RawStatement] = []

    while not parser.at("EOF"):
        if parser.at("LBRACE"):
            annotation = parser.parse_annotation()
            if annotation.is_invariant:
                pass  # recorded as pending by parse_annotation
            elif not statements and precondition is None:
                precondition = annotation
            else:
                postcondition = annotation
        else:
            statements.append(parser.parse_statement())
            postcondition = None
        if parser.at("SEMICOLON"):
            parser.advance()
        elif not parser.at("EOF"):
            token = parser.peek()
            raise ParseError(
                f"expected ';' or end of input, found {token.value!r}",
                token.line,
                token.column,
                code="QV001",
            )

    eof = parser.expect("EOF")
    parser.finish()
    return RawAnnotatedProgram(
        statements=tuple(statements),
        precondition=precondition,
        postcondition=postcondition,
        annotations=tuple(parser.annotations),
        dangling_invariants=tuple(parser.dangling_invariants),
        problems=tuple(parser.problems),
        end_span=SourceSpan.from_token(eof),
    )
