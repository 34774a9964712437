"""Nondeterministic quantum program language (S3): AST, parser, printer, builder."""

from .ast import (
    Abort,
    If,
    Init,
    MEAS_COMPUTATIONAL,
    MEAS_PLUS_MINUS,
    Measurement,
    NDet,
    Program,
    Seq,
    Skip,
    Unitary,
    While,
    if_then,
    measure,
    ndet,
    seq,
)
from .builder import ProgramBuilder
from .lexer import Token, tokenize
from .names import OperatorEnvironment, default_environment
from .parser import (
    AnnotatedProgram,
    AssertionSpec,
    PredicateTerm,
    parse_annotated_program,
    parse_program,
)
from .printer import format_program, format_qubits, program_to_source

__all__ = [name for name in dir() if not name.startswith("_")]
