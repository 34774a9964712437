"""Recursive-descent parser for the NQPV-style surface language.

Three entry points are provided:

* :func:`parse_program` — parses a plain nondeterministic quantum program into
  the AST of :mod:`repro.language.ast`;
* :func:`parse_annotated_program` — parses a program interleaved with assertion
  annotations ``{ N[q1 q2] ... }`` and loop-invariant annotations
  ``{ inv: N[q1 q2] }``, returning the program together with the declared
  precondition, postcondition and per-loop invariants.  This is the input
  format consumed by the proof assistant (Sec. 6.1 of the paper);
* :func:`resolve_annotated` — the annotated walk, raising only for a syntax
  error, so a caller that parses once (the verify front end, the static
  analyzer) gets the typed program and every diagnostic from it.

All three read the tokens once, in one walk.  As it reads, the parser looks
each name up once in the :class:`~repro.language.names.OperatorEnvironment`,
builds each typed node with its :class:`~repro.diagnostics.SourceSpan`,
leaves the qubit-list, unitarity and arity checks to the AST constructors
and the predicate check to
:meth:`~repro.language.names.OperatorEnvironment.predicate`, and records
every failure as a :class:`~repro.diagnostics.Diagnostic` at its token
instead of stopping.  Only a syntax error (an unexpected token, ``QV001``)
raises at once, as a :class:`~repro.exceptions.ParseError`.  Each code has
one producer:

====== ====================================================== =====================
QV101  duplicate qubit in a qubit list                        ``ast.check_qubits``
QV102  empty qubit list                                       ``ast.check_qubits``
QV103  initialisation must assign 0                           parser
QV104  unknown operator name                                  ``names.operator``
QV105  operator is not unitary                                ``ast.Unitary``
QV106  operator dimension vs. qubit-list arity                ``ast.Unitary``
QV107  name does not resolve to a two-outcome measurement     ``names.measurement``
QV108  measurement dimension vs. qubit-list arity             ``ast.check_measurement``
QV109  unknown predicate name in an assertion                 ``names.predicate``
QV110  operator is not a valid quantum predicate              ``names.predicate``
QV111  predicate dimension vs. qubit-list arity               ``names.predicate``
QV112  while loop without an ``inv:`` annotation              parser
QV113  missing postcondition annotation                       parser
QV114  empty assertion annotation                             parser
QV115  no program statement                                   parser
QV204  dangling ``inv:`` annotation (warning)                 parser
====== ====================================================== =====================

A :class:`Resolution` holds these diagnostics in source order — exactly the
``QV1xx`` errors the static analyzer reports — and the typed program when
none of them is *strict*.  The strict API raises the first strict error in
source order: a :class:`~repro.exceptions.ParseError` for ``QV101``–``QV103``,
``QV114`` and ``QV115``, a :class:`~repro.exceptions.NameResolutionError`
for ``QV104``–``QV108``, each at the 1-based ``line:column`` of its token.
``QV109``–``QV113`` concern the specification and are left to the verify
pre-flight, so :func:`parse_annotated_program` still accepts a source whose
annotations do not check.  Typed statement nodes carry the span of their
first token, and annotation terms carry their checked predicate matrix.

Invariants.  A ``while`` loop takes the ``inv:`` annotation that is pending
when its ``while`` keyword is read, so in nested loops each loop takes the
annotation written immediately before it.  An ``inv:`` annotation that no
loop takes is dangling (``QV204``): one followed by another ``inv:`` before
any loop, one still pending when a loop body ends, and one still pending at
the end of the input.

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

A plain program is one ``choice`` (a bare top-level ``#`` is allowed) whose
annotations are checked but take no part in it.  An annotated program is a
``program`` whose first leading annotation is the precondition and whose
last trailing annotation is the postcondition.  The parser itself accepts an
empty ``qlist``, an empty annotation and ``:=`` of any number, and reports
them as ``QV102``, ``QV114`` and ``QV103``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..diagnostics import Diagnostic, SourceSpan, make_diagnostic, source_order
from ..exceptions import NameResolutionError, ParseError, ReproError
from .ast import (
    Abort,
    If,
    Init,
    NDet,
    Program,
    Seq,
    Skip,
    Unitary,
    While,
    check_measurement,
    check_qubits,
    seq,
)
from .lexer import Token, tokenize
from .names import OperatorEnvironment, default_environment

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

#: Token kinds that end a sequence: the keywords after a branch or loop body,
#: and the ``)`` or end of input that closes any sequence.
_THEN_STOP = frozenset({"ELSE", "END", "RPAREN", "EOF"})
_BODY_STOP = frozenset({"END", "RPAREN", "EOF"})
_BRANCH_STOP = frozenset({"HASH", "RPAREN", "EOF"})


@dataclass(frozen=True)
class PredicateTerm:
    """A named predicate applied to a list of qubits, e.g. ``P0[q1]``.

    ``matrix`` is the predicate the parser checked for this term, so it is
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
    """What one checked walk of an annotated source found.

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


class _Parser:
    """One recursive-descent walk from tokens to the typed AST.

    Strict on syntax: an unexpected token raises ``QV001``.  Any other
    failed lookup, check or constructor is recorded as a diagnostic at its
    token and the walk goes on.  A node that failed, or has a failed child,
    is ``None``; each such failure carries a strict code.  A node with a
    failed child still checks its own parts: an ``if`` or ``while`` whose
    branch or body failed still reports its measurement's arity and its
    qubit list.
    """

    def __init__(self, tokens: Sequence[Token], environment: OperatorEnvironment):
        self._tokens = tokens
        self._position = 0
        # The token under the cursor.  The tokens end with EOF, which
        # advance() never passes, so reading it needs no bounds clamp.
        self.token: Token = tokens[0]
        self._environment = environment
        self.diagnostics: List[Diagnostic] = []
        self.annotations: List[AssertionSpec] = []
        self.loop_invariants: Dict[int, AssertionSpec] = {}
        # The ``inv:`` annotation no loop has taken yet, with its ``{`` token.
        self._pending: Optional[Tuple[AssertionSpec, Token]] = None

    # ----------------------------------------------------------- token access
    def advance(self) -> Token:
        """Return the token under the cursor and move past it (never past EOF)."""
        token = self.token
        if token.kind != "EOF":
            self._position += 1
            self.token = self._tokens[self._position]
        return token

    def expect(self, kind: str) -> Token:
        """Consume a token of ``kind``, or raise ``QV001`` at the token found."""
        token = self.token
        if token.kind != kind:
            raise ParseError(
                f"expected {kind} but found {token.kind} ({token.value!r})",
                token.line,
                token.column,
                code="QV001",
            )
        return self.advance()

    def at(self, kind: str) -> bool:
        """Whether the token under the cursor is of ``kind``."""
        return self.token.kind == kind

    def parse_qubit_list(self) -> Tuple[Tuple[str, ...], List[Token]]:
        """Read ``[q1 q2 …]``: the names, and their tokens followed by the ``]``."""
        self.expect("LBRACKET")
        tokens: List[Token] = []
        while not self.at("RBRACKET"):
            tokens.append(self.expect("ID"))
            if self.at("COMMA"):
                self.advance()
        names = tuple(token.value for token in tokens)
        tokens.append(self.advance())
        return names, tokens

    # -------------------------------------------------------------- findings
    def report(self, code: str, message: str, span: SourceSpan, hint=None) -> None:
        """Record one finding."""
        self.diagnostics.append(make_diagnostic(code, message, span, hint=hint))

    def _lookup(self, find, name: Token):
        try:
            return find(name.value)
        except NameResolutionError as error:
            self.report(error.code, error.args[0], SourceSpan.from_token(name))
            return None

    def _check(self, qubits: List[Token], name: Optional[Token], build, *args):
        """Run a constructor or check; record its failure at the token it concerns.

        An empty list (``QV102``) points at its ``]``, a duplicate (``QV101``)
        at the first repeated qubit, and every other failure at ``name``.
        """
        try:
            return build(*args)
        except ReproError as error:
            anchor = name
            if error.code == "QV102":
                anchor = qubits[-1]
            elif error.code == "QV101":
                names = [token.value for token in qubits]
                anchor = next(t for i, t in enumerate(qubits) if t.value in names[:i])
            self.report(error.code, error.args[0], SourceSpan.from_token(anchor))
            return None

    def _dangle(self) -> None:
        """Report the pending ``inv:`` annotation as attached to no loop."""
        _, opening = self._pending
        self._pending = None
        self.report(
            "QV204",
            "'inv:' annotation is not attached to any while loop",
            SourceSpan.from_token(opening),
        )

    # ----------------------------------------------------------- annotations
    def parse_annotation(self) -> AssertionSpec:
        """Read one annotation and check each of its terms."""
        opening = self.expect("LBRACE")
        is_invariant = self.at("INV")
        if is_invariant:
            self.advance()
            self.expect("COLON")
        terms: List[PredicateTerm] = []
        while not self.at("RBRACE"):
            name = self.expect("ID")
            names, qubits = self.parse_qubit_list()
            # As for a measurement, the name precedes its qubit list and is
            # checked first; an empty list is QV102, not an arity error.
            matrix = self._check(qubits, name, self._predicate, name.value, names)
            terms.append(PredicateTerm(name.value, names, matrix))
        closing = self.advance()
        if not terms:
            self.report("QV114", "empty assertion annotation", SourceSpan.from_token(closing))
        spec = AssertionSpec(tuple(terms), is_invariant=is_invariant)
        self.annotations.append(spec)
        if is_invariant:
            if self._pending is not None:
                self._dangle()
            self._pending = (spec, opening)
        return spec

    def _predicate(self, name: str, qubits: Tuple[str, ...]) -> np.ndarray:
        matrix = self._environment.predicate(name, num_qubits=len(qubits) or None)
        check_qubits(qubits, "assertion term")
        return matrix

    # ------------------------------------------------------------ statements
    def parse_statement(self) -> Optional[Program]:
        """Read one statement into a typed, span-carrying node (or ``None``)."""
        token = self.token
        kind = token.kind
        if kind == "SKIP":
            self.advance()
            return Skip(source_span=SourceSpan.from_token(token))
        if kind == "ABORT":
            self.advance()
            return Abort(source_span=SourceSpan.from_token(token))
        if kind == "LBRACKET":
            names, qubits = self.parse_qubit_list()
            operator = self.token
            if operator.kind == "ASSIGN":
                self.advance()
                number = self.expect("NUMBER")
                if number.value != "0":
                    self.report(
                        "QV103", "initialisation must assign 0", SourceSpan.from_token(number)
                    )
                return self._check(qubits, None, Init, names, SourceSpan.from_token(token))
            if operator.kind == "MUL_ASSIGN":
                self.advance()
                name = self.expect("ID")
                matrix = self._lookup(self._environment.operator, name)
                if matrix is None:
                    return None
                span = SourceSpan.from_token(token)
                return self._check(qubits, name, Unitary, names, name.value, matrix, span)
            raise ParseError(
                f"expected ':=' or '*=' after qubit list, found {operator.value!r}",
                operator.line,
                operator.column,
                code="QV001",
            )
        if kind == "LPAREN":
            self.advance()
            inner = self.parse_choice()
            self.expect("RPAREN")
            return inner
        if kind == "IF":
            return self.parse_if()
        if kind == "WHILE":
            return self.parse_while()
        raise ParseError(
            f"unexpected token {token.value!r}", token.line, token.column, code="QV001"
        )

    def parse_if(self) -> Optional[Program]:
        """Read ``if M[q̄] then S1 [else S0] end``; no ``else`` is a span-less ``skip``."""
        opening = self.advance()
        name = self.expect("ID")
        measurement = self._lookup(self._environment.measurement, name)
        names, qubits = self.parse_qubit_list()
        self.expect("THEN")
        then_branch = self.parse_sequence(_THEN_STOP)
        if self.at("ELSE"):
            self.advance()
            else_branch = self.parse_sequence(_BODY_STOP)
        else:
            else_branch = Skip()
        self.expect("END")
        if measurement is not None and (then_branch is None or else_branch is None):
            self._check(qubits, name, check_measurement, measurement, names)
        if measurement is None or then_branch is None or else_branch is None:
            return None
        span = SourceSpan.from_token(opening)
        return self._check(qubits, name, If, measurement, names, then_branch, else_branch, span)

    def parse_while(self) -> Optional[Program]:
        """Read ``while M[q̄] do S end``, taking the ``inv:`` pending at ``while``."""
        opening = self.advance()
        invariant, self._pending = self._pending, None
        name = self.expect("ID")
        measurement = self._lookup(self._environment.measurement, name)
        names, qubits = self.parse_qubit_list()
        self.expect("DO")
        body = self.parse_sequence(_BODY_STOP)
        self.expect("END")
        if self._pending is not None:
            self._dangle()
        span = SourceSpan.from_token(opening)
        if invariant is None:
            self.report(
                "QV112",
                "while loop has no 'inv:' annotation",
                span,
                hint="write '{ inv: NAME[q ...] }' immediately before the loop",
            )
        if measurement is not None and body is None:
            self._check(qubits, name, check_measurement, measurement, names)
        if measurement is None or body is None:
            return None
        loop = self._check(qubits, name, While, measurement, names, body, span)
        if loop is not None and invariant is not None:
            self.loop_invariants[id(loop)] = invariant[0]
        return loop

    # ------------------------------------------------------------- sequences
    def parse_sequence(self, stop: frozenset) -> Optional[Program]:
        """Read ``item (';' item)*`` up to a token of ``stop``.

        Several statements take the span of the first; none is a ``skip``
        at the first token read.
        """
        first = self.token
        items: List[Optional[Program]] = []
        while self.token.kind not in stop:
            if self.at("LBRACE"):
                self.parse_annotation()
            else:
                items.append(self.parse_statement())
            if not self.at("SEMICOLON"):
                break
            self.advance()
        if not items:
            return Skip(source_span=SourceSpan.from_token(first))
        if len(items) == 1:
            return items[0]
        if any(item is None for item in items):
            return None
        return Seq(tuple(items), source_span=items[0].source_span)

    def parse_choice(self) -> Optional[Program]:
        """Read ``program ('#' program)*``; a choice takes the span of its first token."""
        first = self.token
        branches = [self.parse_sequence(_BRANCH_STOP)]
        while self.at("HASH"):
            self.advance()
            branches.append(self.parse_sequence(_BRANCH_STOP))
        if len(branches) == 1:
            return branches[0]
        if any(branch is None for branch in branches):
            return None
        return NDet(tuple(branches), source_span=SourceSpan.from_token(first))

    def parse_annotated(self) -> Resolution:
        """Read an annotated program to the end of input."""
        precondition: Optional[AssertionSpec] = None
        postcondition: Optional[AssertionSpec] = None
        statements: List[Optional[Program]] = []
        while not self.at("EOF"):
            if self.at("LBRACE"):
                annotation = self.parse_annotation()
                if not annotation.is_invariant:
                    if not statements and precondition is None:
                        precondition = annotation
                    else:
                        postcondition = annotation
            else:
                statements.append(self.parse_statement())
                postcondition = None
            if self.at("SEMICOLON"):
                self.advance()
            elif not self.at("EOF"):
                token = self.token
                raise ParseError(
                    f"expected ';' or end of input, found {token.value!r}",
                    token.line,
                    token.column,
                    code="QV001",
                )

        if self._pending is not None:
            self._dangle()
        if postcondition is None:
            self.report("QV113", _MISSING_POSTCONDITION, SourceSpan.from_token(self.token))
        if not statements:
            self.report(
                "QV115",
                "the source text contains no program statement",
                SourceSpan.from_token(self.token),
            )

        diagnostics = tuple(sorted(self.diagnostics, key=source_order))
        if any(diagnostic.code in _STRICT_ERRORS for diagnostic in diagnostics):
            return Resolution(None, diagnostics)
        annotated = AnnotatedProgram(
            program=seq(*statements),
            precondition=precondition,
            postcondition=postcondition,
            loop_invariants=self.loop_invariants,
            annotations=self.annotations,
        )
        return Resolution(annotated, diagnostics)


def parse_program(source: str, environment: OperatorEnvironment | None = None) -> Program:
    """Parse a plain program; annotations are checked but take no part in it.

    An annotation term's qubit list is checked as in
    :func:`parse_annotated_program`, so ``{ P0[] }; [q] := 0`` raises
    ``QV102``; the predicate itself (``QV109``–``QV111``) is left to the
    analyzer.
    """
    parser = _Parser(tokenize(source), environment or default_environment())
    program = parser.parse_choice()
    parser.expect("EOF")
    _raise_first_strict(sorted(parser.diagnostics, key=source_order))
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
    return resolve_annotated(source, environment or default_environment()).strict()


def resolve_annotated(
    source: Union[str, Sequence[Token]], environment: OperatorEnvironment
) -> Resolution:
    """Parse an annotated source once, building the typed program and every diagnostic.

    ``source`` is text, or tokens that end with an ``EOF`` token (a proof
    body cut from a session script keeps the script's positions).  Only a
    syntax error raises (``QV001``); :meth:`Resolution.strict` raises what
    :func:`parse_annotated_program` raises for the same text.  A source
    without any program statement gets ``QV115`` at the end of the input.
    """
    tokens = tokenize(source) if isinstance(source, str) else source
    return _Parser(tokens, environment).parse_annotated()
