"""Hand-written lexer for the NQPV-style surface language.

The paper's prototype uses ``ply`` for lexing/parsing; that dependency is not
available offline, so the tokenizer is implemented directly.  The token stream
covers programs, assertion annotations and the small command language of the
proof assistant (``def``, ``proof``, ``load``, ``show``).
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple

from ..exceptions import ParseError

__all__ = ["Token", "tokenize", "KEYWORDS"]

#: Reserved words of the surface language.
KEYWORDS = {
    "skip",
    "abort",
    "if",
    "then",
    "else",
    "end",
    "while",
    "do",
    "inv",
    "def",
    "proof",
    "load",
    "show",
}

#: Multi-character punctuation, longest first so the scanner is greedy.
_SYMBOLS = [
    (":=", "ASSIGN"),
    ("*=", "MUL_ASSIGN"),
    ("[", "LBRACKET"),
    ("]", "RBRACKET"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    (";", "SEMICOLON"),
    ("#", "HASH"),
    (":", "COLON"),
    (",", "COMMA"),
]


class Token(NamedTuple):
    """A single lexical token with its 1-based source position."""

    kind: str
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` into a list of :class:`Token`, ending with ``EOF``.

    Supported lexemes: identifiers, integer and floating-point numbers, string
    literals (double quotes), the punctuation of the language, ``//`` line
    comments and whitespace (skipped).
    """
    tokens: List[Token] = list(_scan(source))
    return tokens


def _scan(source: str) -> Iterator[Token]:
    line = 1
    column = 1
    index = 0
    length = len(source)

    while index < length:
        char = source[index]

        # Whitespace -------------------------------------------------------
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue

        # Comments ----------------------------------------------------------
        if source.startswith("//", index):
            while index < length and source[index] != "\n":
                index += 1
            continue

        # String literals ----------------------------------------------------
        if char == '"':
            end = source.find('"', index + 1)
            if end == -1:
                raise ParseError("unterminated string literal", line, column, code="QV001")
            value = source[index + 1 : end]
            yield Token("STRING", value, line, column)
            column += end - index + 1
            index = end + 1
            continue

        # Numbers -------------------------------------------------------------
        if char.isdigit():
            start = index
            while index < length and (source[index].isdigit() or source[index] == "."):
                index += 1
            value = source[start:index]
            yield Token("NUMBER", value, line, column)
            column += index - start
            continue

        # Identifiers and keywords ---------------------------------------------
        if char.isalpha() or char == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            value = source[start:index]
            kind = value.upper() if value in KEYWORDS else "ID"
            yield Token(kind, value, line, column)
            column += index - start
            continue

        # Punctuation -----------------------------------------------------------
        for symbol, kind in _SYMBOLS:
            if source.startswith(symbol, index):
                yield Token(kind, symbol, line, column)
                index += len(symbol)
                column += len(symbol)
                break
        else:
            raise ParseError(f"unexpected character {char!r}", line, column, code="QV001")

    yield Token("EOF", "", line, column)
