"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so that callers can
catch any error raised by the package with a single ``except`` clause, while
still being able to distinguish between the major failure classes (malformed
linear-algebra objects, syntax errors in the surface language, failed proof
obligations, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package.

    Attributes
    ----------
    code:
        Optional stable diagnostic code (e.g. ``"QV101"``) shared with the
        static analyzer's registry :data:`repro.diagnostics.DIAGNOSTIC_CODES`,
        so programmatic builders and the linter classify a defect identically.
        ``None`` for errors with no analyzer counterpart.
    """

    def __init__(self, *args, code: str | None = None):
        super().__init__(*args)
        self.code = code


class LinalgError(ReproError):
    """A linear-algebra object does not satisfy a required structural property.

    Raised for instance when a matrix expected to be unitary, hermitian or a
    (partial) density operator fails the corresponding check, or when operator
    dimensions are incompatible.
    """


class DimensionMismatchError(LinalgError):
    """Two objects that must act on the same Hilbert space have different dimensions."""


class RegisterError(ReproError):
    """Invalid use of a qubit register (unknown qubit, duplicated qubit, ...)."""


class SuperOperatorError(ReproError):
    """A super-operator violates a required property (e.g. not trace non-increasing)."""


class PredicateError(ReproError):
    """A matrix used as a quantum predicate is not hermitian or not between 0 and I."""


class AssertionFormatError(ReproError):
    """A quantum assertion is malformed (empty set, mismatched dimensions, ...)."""


class ParseError(ReproError):
    """The surface-language source text could not be parsed.

    Attributes
    ----------
    line, column:
        1-based position of the offending token when available.
    """

    def __init__(
        self,
        message: str,
        line: int | None = None,
        column: int | None = None,
        code: str | None = None,
    ):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location, code=code)
        #: the bare message without the appended location suffix
        self.message = message
        self.line = line
        self.column = column


class NameResolutionError(ReproError):
    """An identifier used in a program or proof does not resolve to a known operator.

    Attributes
    ----------
    line, column:
        1-based position of the offending identifier when the name came from
        parsed surface-language source (``None`` for programmatic lookups).
    """

    def __init__(
        self,
        message: str,
        line: int | None = None,
        column: int | None = None,
        code: str | None = None,
    ):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location, code=code)
        #: the bare message without the appended location suffix
        self.message = message
        self.line = line
        self.column = column


class SemanticsError(ReproError):
    """The denotational or wp semantics cannot be computed for the given input."""


class SchedulerError(SemanticsError):
    """A scheduler does not produce elements of the loop body's denotation."""


class VerificationError(ReproError):
    """Base class for verification failures."""


class InvalidProofError(VerificationError):
    """A proof rule was applied with premises that do not justify its conclusion."""


class InvariantError(VerificationError):
    """A user-supplied loop invariant is not a valid invariant for its loop."""


class OrderRelationError(VerificationError):
    """A required ``⊑_inf`` relation between assertions does not hold.

    Mirrors the ``Order relation not satisfied`` error reported by the NQPV
    prototype (Sec. 6.2 of the paper).
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        #: optional density operator witnessing the violation
        self.witness = witness


class RankingError(VerificationError):
    """No ranking assertion (Definition 4.3) could be certified for a loop.

    Attributes
    ----------
    witness:
        Branch indices of the loop body, in time order, of a scheduler prefix
        that keeps weight inside the loop (empty when none was recorded).
    """

    def __init__(self, message: str, witness=()):
        super().__init__(message)
        self.witness = tuple(witness)


class AssistantError(ReproError):
    """Errors raised by the proof-assistant front end (bad term definitions, I/O, ...)."""


class StaticAnalysisError(AssistantError):
    """The static analyzer found error-severity diagnostics during pre-flight.

    Raised by :func:`repro.assistant.verify.build_task` before any
    super-operator is constructed, so malformed inputs are rejected cheaply.

    Attributes
    ----------
    diagnostics:
        The full tuple of :class:`repro.diagnostics.Diagnostic` records
        (errors and warnings) collected by the analyzer.
    """

    def __init__(self, message: str, diagnostics=()):
        first_code = None
        for diagnostic in diagnostics:
            if diagnostic.severity.value == "error":
                first_code = diagnostic.code
                break
        super().__init__(message, code=first_code)
        self.diagnostics = tuple(diagnostics)
