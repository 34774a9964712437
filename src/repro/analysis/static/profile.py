"""Nondeterminism/structure profile: cost-model features of a program.

The :class:`ProgramProfile` summarises the structural facts the rest of the
system consumes:

* the loop explorers (:mod:`repro.semantics.denotational` /
  :mod:`repro.semantics.wp`) check :attr:`ProgramProfile.is_deterministic`
  to skip per-scheduler fan-out on programs with no ``#`` choice;
* a future auto-tuning planner reads the counts (choice points, loop nesting
  depth, gate locality, Clifford classification) as design-space features,
  in the spirit of the Xel-FPGAs-style exploration discussed in PAPERS.md.

The profile is purely syntactic — it never touches matrices — so building it
costs a single tree walk.  Clifford classification is name-based over the
standard gate set and deliberately conservative: an unknown or user-defined
gate name counts as non-Clifford.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple

from .model import Node, node_from_ast

__all__ = ["CLIFFORD_GATE_NAMES", "ProgramProfile", "program_profile", "profile_node"]

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


class _ProfileWalker:
    """Accumulates the profile counts over one mini-IR walk."""

    def __init__(self):
        self.statement_count = 0
        self.qubits: set = set()
        self.choice_points = 0
        self.loop_count = 0
        self.max_loop_depth = 0
        self.conditional_count = 0
        self.init_count = 0
        self.unitary_count = 0
        self.measurement_count = 0
        self.max_gate_arity = 0
        self.clifford_gate_count = 0
        self.non_clifford_gate_count = 0
        self.clifford_segments = 0

    def visit(self, node: Node, loop_depth: int) -> None:
        self.qubits.update(node.qubits)
        if node.kind == "seq":
            self._scan_segments(node.children)
            for child in node.children:
                self.visit(child, loop_depth)
            return
        self.statement_count += 1
        if node.kind == "init":
            self.init_count += 1
        elif node.kind == "unitary":
            self.unitary_count += 1
            self.max_gate_arity = max(self.max_gate_arity, len(node.qubits))
            if node.name in CLIFFORD_GATE_NAMES:
                self.clifford_gate_count += 1
            else:
                self.non_clifford_gate_count += 1
        elif node.kind == "choice":
            self.choice_points += 1
            for child in node.children:
                self._segment_root(child)
                self.visit(child, loop_depth)
        elif node.kind == "if":
            self.conditional_count += 1
            self.measurement_count += 1
            for child in node.children:
                self._segment_root(child)
                self.visit(child, loop_depth)
        elif node.kind == "while":
            self.loop_count += 1
            self.measurement_count += 1
            self.max_loop_depth = max(self.max_loop_depth, loop_depth + 1)
            self._segment_root(node.children[0])
            self.visit(node.children[0], loop_depth + 1)

    # ------------------------------------------------------------- segments
    def _scan_segments(self, statements) -> None:
        """Count maximal runs of consecutive Clifford unitaries in a statement list."""
        in_segment = False
        for statement in statements:
            if statement.kind == "unitary" and statement.name in CLIFFORD_GATE_NAMES:
                if not in_segment:
                    self.clifford_segments += 1
                    in_segment = True
            else:
                in_segment = False

    def _segment_root(self, node: Node) -> None:
        """Count a lone Clifford unitary used directly as a branch/body."""
        if node.kind == "unitary" and node.name in CLIFFORD_GATE_NAMES:
            self.clifford_segments += 1


def profile_node(root: Node) -> ProgramProfile:
    """Build the :class:`ProgramProfile` of a mini-IR tree."""
    walker = _ProfileWalker()
    walker._segment_root(root)
    walker.visit(root, loop_depth=0)
    return ProgramProfile(
        statement_count=walker.statement_count,
        qubits=tuple(sorted(walker.qubits)),
        choice_points=walker.choice_points,
        loop_count=walker.loop_count,
        max_loop_depth=walker.max_loop_depth,
        conditional_count=walker.conditional_count,
        init_count=walker.init_count,
        unitary_count=walker.unitary_count,
        measurement_count=walker.measurement_count,
        max_gate_arity=walker.max_gate_arity,
        clifford_gate_count=walker.clifford_gate_count,
        non_clifford_gate_count=walker.non_clifford_gate_count,
        clifford_segments=walker.clifford_segments,
        is_deterministic=walker.choice_points == 0,
        contains_loop=walker.loop_count > 0,
        is_clifford=walker.non_clifford_gate_count == 0 and walker.unitary_count > 0,
    )


def program_profile(program) -> ProgramProfile:
    """Build the profile of a typed :class:`~repro.language.ast.Program`."""
    return profile_node(node_from_ast(program))
