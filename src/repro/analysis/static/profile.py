"""Nondeterminism/structure profile: cost-model features of a program.

The :class:`ProgramProfile` summarises the structural facts of a typed
:class:`~repro.language.ast.Program`.  ``analyze_source`` reports it with
its diagnostics (``--diagnostics-json``), and a future auto-tuning planner
can read the counts (choice points, loop nesting depth, gate locality,
Clifford classification) as design-space features, in the spirit of the
Xel-FPGAs-style exploration discussed in PAPERS.md.

The profile describes the program the engines run: the AST flattens nested
sequences and nested choices, so ``( S0 # ( S1 # S2 ) )`` is one choice
point with three branches.  It is purely syntactic — it never touches
matrices — so building it costs a few tree walks.  Clifford classification
is name-based over the standard gate set and deliberately conservative: an
unknown or user-defined gate name counts as non-Clifford.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple

from ...language.ast import If, Init, NDet, Program, Seq, Unitary, While

__all__ = ["CLIFFORD_GATE_NAMES", "ProgramProfile", "program_profile"]

#: Gate names treated as Clifford (generators and common two-qubit members).
#: ``T``, ``CCX`` and the user/walk gates are non-Clifford or unknown.
CLIFFORD_GATE_NAMES = frozenset(
    {"I", "X", "Y", "Z", "H", "S", "CX", "CNOT", "C0X", "CZ", "SWAP"}
)


@dataclass(frozen=True)
class ProgramProfile:
    """Structural summary of one program (all fields are cheap syntactic counts).

    ``max_gate_arity`` is the per-statement gate locality: the largest number
    of qubits any single unitary statement touches (0 for gate-free
    programs).  ``clifford_segments`` counts the maximal straight-line runs
    of consecutive Clifford unitary statements — the segments a
    stabilizer-style fast path could batch.
    """

    statement_count: int
    qubits: Tuple[str, ...]
    choice_points: int
    loop_count: int
    max_loop_depth: int
    conditional_count: int
    init_count: int
    unitary_count: int
    measurement_count: int
    max_gate_arity: int
    clifford_gate_count: int
    non_clifford_gate_count: int
    clifford_segments: int
    is_deterministic: bool
    contains_loop: bool
    is_clifford: bool

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serialisable form (used by ``--diagnostics-json``)."""
        payload = asdict(self)
        payload["qubits"] = list(self.qubits)
        return payload


def _is_clifford(statement: Program) -> bool:
    """Return whether ``statement`` is a unitary statement with a Clifford gate name."""
    return isinstance(statement, Unitary) and statement.name in CLIFFORD_GATE_NAMES


def _loop_depth(program: Program) -> int:
    """Return the deepest nesting of while loops in ``program``."""
    inner = max((_loop_depth(child) for child in program.children()), default=0)
    return inner + isinstance(program, While)


def program_profile(program: Program) -> ProgramProfile:
    """Build the :class:`ProgramProfile` of a typed :class:`~repro.language.ast.Program`.

    Every node except a sequence counts as a statement.  A Clifford segment
    starts at each Clifford unitary that does not directly follow another one
    in the same sequence.
    """
    statements = [node for node in program.walk() if not isinstance(node, Seq)]
    unitaries = [node for node in statements if isinstance(node, Unitary)]
    clifford = sum(_is_clifford(node) for node in unitaries)
    continued = sum(
        _is_clifford(first) and _is_clifford(second)
        for node in program.walk()
        if isinstance(node, Seq)
        for first, second in zip(node.statements, node.statements[1:])
    )
    choice_points = sum(isinstance(node, NDet) for node in statements)
    loops = sum(isinstance(node, While) for node in statements)
    conditionals = sum(isinstance(node, If) for node in statements)
    return ProgramProfile(
        statement_count=len(statements),
        qubits=tuple(sorted(program.quantum_variables())),
        choice_points=choice_points,
        loop_count=loops,
        max_loop_depth=_loop_depth(program),
        conditional_count=conditionals,
        init_count=sum(isinstance(node, Init) for node in statements),
        unitary_count=len(unitaries),
        measurement_count=conditionals + loops,
        max_gate_arity=max((len(node.qubits) for node in unitaries), default=0),
        clifford_gate_count=clifford,
        non_clifford_gate_count=len(unitaries) - clifford,
        clifford_segments=clifford - continued,
        is_deterministic=choice_points == 0,
        contains_loop=loops > 0,
        is_clifford=bool(unitaries) and clifford == len(unitaries),
    )
