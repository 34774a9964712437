"""Structured diagnostics of the static semantic analyzer.

This module is the dependency-free core shared by the front end
(:mod:`repro.language`) and the analyzer (:mod:`repro.analysis.static`): a
1-based :class:`SourceSpan`, a :class:`Severity` scale, the immutable
:class:`Diagnostic` record, and the registry :data:`DIAGNOSTIC_CODES` mapping
every stable code (``QV001``, ``QV101``, …) to its severity and a one-line
description.

Stable codes
------------

Codes never change meaning once shipped; tools (CI golden files, editors,
the ``--diagnostics-json`` output) key on them.  The ranges are:

* ``QV0xx`` — syntax errors, raised by the parser at their token;
* ``QV1xx`` — well-formedness errors, recorded by the parser's one walk;
* ``QV2xx`` — qubit-usage / structure warnings;
* ``QV3xx`` — informational notes (reserved).

The AST constructors of :mod:`repro.language.ast` raise exceptions carrying
the *same* codes (via the ``code`` attribute of
:class:`repro.exceptions.ReproError`), so programmatic builders and the
linter agree on the classification of every defect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "SourceSpan",
    "Severity",
    "Diagnostic",
    "DIAGNOSTIC_CODES",
    "code_severity",
    "code_description",
    "make_diagnostic",
    "source_order",
]


@dataclass(frozen=True)
class SourceSpan:
    """A 1-based source location: start ``line:column`` and an exclusive end column.

    Spans are derived from lexer tokens (:class:`repro.language.lexer.Token`),
    which carry the 1-based line and column of their first character; the end
    of a single-token span is ``column + len(value)``.
    """

    line: int
    column: int
    end_line: Optional[int] = None
    end_column: Optional[int] = None

    @classmethod
    def from_token(cls, token) -> "SourceSpan":
        """Build the span covering one lexer token."""
        width = max(len(str(token.value)), 1)
        return cls(token.line, token.column, token.line, token.column + width)

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serialisable form of the span."""
        return {
            "line": self.line,
            "column": self.column,
            "end_line": self.end_line,
            "end_column": self.end_column,
        }

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Severity(Enum):
    """Severity scale of a diagnostic, ordered from informational to fatal."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


#: Registry of every stable diagnostic code: ``code -> (severity, description)``.
DIAGNOSTIC_CODES: Dict[str, Tuple[Severity, str]] = {
    # --- syntax (QV0xx) ----------------------------------------------------
    "QV001": (Severity.ERROR, "the source text could not be parsed"),
    # --- well-formedness (QV1xx) -------------------------------------------
    "QV101": (Severity.ERROR, "duplicate qubit in a qubit list"),
    "QV102": (Severity.ERROR, "empty qubit list"),
    "QV103": (Severity.ERROR, "initialisation must assign 0"),
    "QV104": (Severity.ERROR, "unknown operator name"),
    "QV105": (Severity.ERROR, "operator is not unitary"),
    "QV106": (Severity.ERROR, "operator dimension does not match the qubit list"),
    "QV107": (Severity.ERROR, "name does not resolve to a two-outcome measurement"),
    "QV108": (Severity.ERROR, "measurement dimension does not match the qubit list"),
    "QV109": (Severity.ERROR, "unknown predicate name in an assertion"),
    "QV110": (Severity.ERROR, "operator is not a valid quantum predicate"),
    "QV111": (Severity.ERROR, "predicate dimension does not match the qubit list"),
    "QV112": (Severity.ERROR, "while loop has no 'inv:' annotation"),
    "QV113": (Severity.ERROR, "the program has no postcondition annotation"),
    "QV114": (Severity.ERROR, "empty assertion annotation"),
    "QV115": (Severity.ERROR, "the source text contains no program statement"),
    # --- qubit usage / structure (QV2xx) -------------------------------------
    "QV201": (Severity.WARNING, "qubit is used before its initialisation"),
    "QV202": (Severity.WARNING, "qubit is initialised but never used"),
    "QV203": (Severity.WARNING, "initialisation overwrites a still-unused initialisation"),
    "QV204": (Severity.WARNING, "'inv:' annotation is not attached to any while loop"),
}


def code_severity(code: str) -> Severity:
    """Return the registered severity of a diagnostic code."""
    return DIAGNOSTIC_CODES[code][0]


def code_description(code: str) -> str:
    """Return the registered one-line description of a diagnostic code."""
    return DIAGNOSTIC_CODES[code][1]


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding: a stable code, severity, message and source span.

    ``span`` is ``None`` only for whole-program diagnostics with no natural
    anchor (e.g. ``QV113`` on an empty source); every token-anchored finding
    carries the exact 1-based position of the offending token.
    """

    code: str
    severity: Severity
    message: str
    span: Optional[SourceSpan] = None
    hint: Optional[str] = field(default=None, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serialisable form used by ``--diagnostics-json``."""
        payload: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "span": self.span.to_dict() if self.span is not None else None,
        }
        if self.hint is not None:
            payload["hint"] = self.hint
        return payload

    def render(self, filename: Optional[str] = None) -> str:
        """Render the diagnostic as one ``file:line:col: CODE severity: message`` line."""
        location = str(self.span) if self.span is not None else "-"
        prefix = f"{filename}:{location}" if filename else location
        return f"{prefix}: {self.code} {self.severity.value}: {self.message}"

    def __str__(self) -> str:
        return self.render()


def make_diagnostic(
    code: str, message: str, span: Optional[SourceSpan] = None, hint: Optional[str] = None
) -> Diagnostic:
    """Build a :class:`Diagnostic`, deriving the severity from the code registry."""
    return Diagnostic(
        code=code, severity=code_severity(code), message=message, span=span, hint=hint
    )


def source_order(diagnostic: Diagnostic) -> Tuple[int, int, int, str]:
    """Sort key of diagnostics: by source position, then by code (spanless last)."""
    if diagnostic.span is None:
        return (1, 0, 0, diagnostic.code)
    return (0, diagnostic.span.line, diagnostic.span.column, diagnostic.code)
