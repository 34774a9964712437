"""Interactive/scripted proof-assistant sessions (the NQPV front end, Sec. 6).

A :class:`Session` holds an operator environment and a set of named terms
(operators and proofs).  It accepts the small command language of the paper's
prototype::

    def invN := load "invN.npy" end
    def pf := proof [q1 q2] :
        { I[q1] };
        [q1 q2] := 0;
        { inv: invN[q1 q2] };
        while MQWalk [q1 q2] do
            ( [q1 q2] *= W1 ; [q1 q2] *= W2
            # [q1 q2] *= W2 ; [q1 q2] *= W1 )
        end;
        { Zero[q1] }
    end
    show pf end

``show`` returns the generated proof outline (or the matrix of an operator),
mirroring the behaviour described in Sec. 6.1–6.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..exceptions import AssistantError, ParseError
from ..language.lexer import Token, tokenize
from ..language.names import OperatorEnvironment, default_environment
from ..language.parser import _Parser
from ..logic.formula import CorrectnessMode
from ..logic.prover import ProverOptions, VerificationReport
from ..registers import QubitRegister
from .verify import verify_source

__all__ = ["ProofTerm", "Session"]


@dataclass
class ProofTerm:
    """A named proof: the declared register, the source body and the verification report."""

    name: str
    register: QubitRegister
    source: str
    report: VerificationReport

    @property
    def verified(self) -> bool:
        """Whether the declared precondition was established."""
        return self.report.verified

    def outline(self) -> str:
        """Render the generated proof outline."""
        return self.report.outline.render()


class Session:
    """A proof-assistant session: operator definitions plus verified proof terms."""

    def __init__(
        self,
        environment: Optional[OperatorEnvironment] = None,
        mode: CorrectnessMode = CorrectnessMode.PARTIAL,
        options: Optional[ProverOptions] = None,
        base_path: Union[str, Path, None] = None,
    ):
        self.environment = environment or default_environment()
        self.mode = mode
        self.options = options or ProverOptions()
        self.base_path = Path(base_path) if base_path is not None else Path.cwd()
        self.proofs: Dict[str, ProofTerm] = {}
        self.log: List[str] = []

    # ----------------------------------------------------------- direct API
    def define(self, name: str, matrix: np.ndarray) -> None:
        """Register a named operator (e.g. a loop invariant) in the session."""
        self.environment.define(name, matrix)
        self.log.append(f"defined operator {name}")

    def load(self, name: str, path: Union[str, Path]) -> None:
        """Load an operator from a ``.npy`` file relative to the session's base path."""
        full_path = Path(path)
        if not full_path.is_absolute():
            full_path = self.base_path / full_path
        self.environment.load(name, full_path)
        self.log.append(f"loaded operator {name} from {full_path}")

    def verify_proof(self, name: str, register_qubits, source: str) -> ProofTerm:
        """Verify a proof body over the declared register and store it under ``name``."""
        return self._prove(name, register_qubits, source, source)

    def _prove(
        self, name: str, register_qubits, body: Union[str, Sequence[Token]], source: str
    ) -> ProofTerm:
        """Verify ``body`` (text, or tokens ending with ``EOF``); ``source`` is its text."""
        register = QubitRegister(register_qubits)
        report = verify_source(
            body, self.environment, register=register, mode=self.mode, options=self.options
        )
        term = ProofTerm(name=name, register=register, source=source, report=report)
        self.proofs[name] = term
        self.log.append(
            f"proof {name}: " + ("verified" if report.verified else "NOT verified")
        )
        return term

    def show(self, name: str) -> str:
        """Return the printable form of a proof outline or an operator matrix."""
        if name in self.proofs:
            return self.proofs[name].outline()
        if name in self.environment:
            return np.array_str(np.asarray(self.environment.operator(name)), precision=4)
        raise AssistantError(f"unknown term {name!r}")

    # --------------------------------------------------------- command script
    def run_script(self, script: str) -> List[str]:
        """Execute a command script (``def``/``show`` commands) and return the outputs.

        The command layer is read with the token cursor of the program
        parser, so every syntax error in it is a ``ParseError`` with code
        ``QV001`` at the offending token, as in a proof body.
        """
        parser = _Parser(tokenize(script), self.environment)
        outputs: List[str] = []
        while not parser.at("EOF"):
            token = parser.advance()
            if token.kind == "DEF":
                name_token = parser.expect("ID")
                parser.expect("ASSIGN")
                if parser.at("LOAD"):
                    parser.advance()
                    path_token = parser.expect("STRING")
                    parser.expect("END")
                    self.load(name_token.value, path_token.value)
                    outputs.append(f"loaded {name_token.value}")
                elif parser.at("PROOF"):
                    parser.advance()
                    register_qubits, _ = parser.parse_qubit_list()
                    parser.expect("COLON")
                    body = self._collect_proof_body(parser)
                    term = self._prove(
                        name_token.value, register_qubits, body, _text(script, body)
                    )
                    outputs.append(
                        f"proof {name_token.value}: "
                        + ("verified" if term.verified else "not verified")
                    )
                else:
                    found = parser.token
                    raise ParseError(
                        f"expected LOAD or PROOF but found {found.kind} ({found.value!r})",
                        found.line,
                        found.column,
                        code="QV001",
                    )
            elif token.kind == "SHOW":
                name_token = parser.expect("ID")
                parser.expect("END")
                outputs.append(self.show(name_token.value))
            else:
                raise ParseError(
                    f"unexpected command token {token.value!r}",
                    token.line,
                    token.column,
                    code="QV001",
                )
        return outputs

    @staticmethod
    def _collect_proof_body(parser: _Parser) -> List[Token]:
        """Collect the proof-body tokens up to the matching top-level ``end``.

        Nested ``if``/``while`` blocks contribute their own ``end`` keywords, so a
        depth counter tracks block structure.  The body ends with an ``EOF``
        token at the position of its closing ``end``.
        """
        depth = 0
        collected: List[Token] = []
        while True:
            token = parser.advance()
            if token.kind in {"IF", "WHILE"}:
                depth += 1
            elif token.kind == "END":
                if depth == 0:
                    collected.append(Token("EOF", "", token.line, token.column))
                    return collected
                depth -= 1
            elif token.kind == "EOF":
                raise ParseError(
                    "unterminated proof definition", token.line, token.column, code="QV001"
                )
            collected.append(token)


def _text(script: str, body: List[Token]) -> str:
    """Return the script text a token slice covers, from its first token to its ``EOF``."""
    line_starts = [0]
    for line in script.split("\n"):
        line_starts.append(line_starts[-1] + len(line) + 1)

    def offset(token: Token) -> int:
        return line_starts[token.line - 1] + token.column - 1

    return script[offset(body[0]) : offset(body[-1])].strip()
