"""Qubit-usage dataflow pass: use-before-init, unused and dead initialisations.

The pass interprets a typed :class:`~repro.language.ast.Program` over a
small per-qubit *must* lattice::

    UNSEEN ──┐            UNSEEN  never initialised on any path so far
    INIT   ──┼──▶ TOP     INIT    initialised, latest init not yet consumed
    USED   ──┘            USED    whatever the qubit held has been consumed
                          TOP     paths disagree (join of distinct states)

Joins happen at ``if`` / choice merge points; loops run to a fixpoint with
warnings suppressed until the entry state has stabilised, so nothing is
reported from the unstable intermediate passes.  All three diagnostics are
*warnings* and deliberately conservative (a ``TOP`` state never fires):

* ``QV201`` — a qubit is used while must-UNSEEN and an ``init`` of that qubit
  exists elsewhere in the program (true use-before-init; qubits that are pure
  inputs — used but never initialised anywhere — stay silent);
* ``QV202`` — a qubit is initialised somewhere but never used anywhere
  (guard measurements and assertion-annotation mentions count as uses);
* ``QV203`` — an ``init`` overwrites a previous ``init`` that no statement
  consumed in between (must-INIT state only).

Warnings point at the ``source_span`` of the statement involved; a program
built without spans gets no ``QV201``/``QV203`` and spanless ``QV202``
warnings.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional, Tuple

from ...diagnostics import Diagnostic, SourceSpan, make_diagnostic
from ...language.ast import If, Init, NDet, Program, Seq, Unitary, While

__all__ = ["check_usage"]

_UNSEEN = "unseen"
_INIT = "init"
_USED = "used"
_TOP = "top"

#: Upper bound on fixpoint iterations (the lattice has height 2 per qubit,
#: so stabilisation is guaranteed long before this; the cap is a backstop).
_MAX_FIXPOINT_ITERATIONS = 8

_State = Dict[str, str]


def _join(left: _State, right: _State) -> _State:
    """Pointwise join of two qubit-state maps (distinct states go to TOP)."""
    joined: _State = {}
    for qubit in set(left) | set(right):
        a = left.get(qubit, _UNSEEN)
        b = right.get(qubit, _UNSEEN)
        joined[qubit] = a if a == b else _TOP
    return joined


def _collect_syntactic(
    program: Program,
    ever_init: Dict[str, Optional[SourceSpan]],
    ever_used: set,
) -> None:
    """Flow-insensitive sweep: first-init spans and the set of used qubits."""
    for node in program.walk():
        if isinstance(node, Init):
            for qubit in node.qubits:
                ever_init.setdefault(qubit, node.source_span)
        elif isinstance(node, (Unitary, If, While)):
            ever_used.update(node.qubits)


class _UsageWalker:
    """One dataflow interpretation of a typed program."""

    def __init__(self):
        self.first_unseen_use: Dict[str, SourceSpan] = {}
        self.dead_inits: List[Tuple[str, SourceSpan]] = []

    # ------------------------------------------------------------ primitives
    def _use(self, qubits, span: Optional[SourceSpan], state: _State, emit: bool) -> None:
        for qubit in qubits:
            if emit and state.get(qubit, _UNSEEN) == _UNSEEN and span is not None:
                self.first_unseen_use.setdefault(qubit, span)
            state[qubit] = _USED

    def _init(self, qubits, span: Optional[SourceSpan], state: _State, emit: bool) -> None:
        for qubit in qubits:
            if emit and state.get(qubit, _UNSEEN) == _INIT and span is not None:
                self.dead_inits.append((qubit, span))
            state[qubit] = _INIT

    # ------------------------------------------------------------- traversal
    def visit(self, program: Program, state: _State, emit: bool) -> _State:
        """Interpret ``program`` starting from ``state``; return the exit state."""
        if isinstance(program, Init):
            self._init(program.qubits, program.source_span, state, emit)
        elif isinstance(program, Unitary):
            self._use(program.qubits, program.source_span, state, emit)
        elif isinstance(program, Seq):
            for statement in program.statements:
                state = self.visit(statement, state, emit)
        elif isinstance(program, NDet):
            exits = [self.visit(branch, dict(state), emit) for branch in program.branches]
            state = exits[0]
            for other in exits[1:]:
                state = _join(state, other)
        elif isinstance(program, If):
            self._use(program.qubits, program.source_span, state, emit)
            then_exit = self.visit(program.then_branch, dict(state), emit)
            else_exit = self.visit(program.else_branch, dict(state), emit)
            state = _join(then_exit, else_exit)
        elif isinstance(program, While):
            state = self._visit_while(program, state, emit)
        return state

    def _visit_while(self, loop: While, state: _State, emit: bool) -> _State:
        entry = dict(state)
        # Silent fixpoint: fold the body's effect into the entry state.
        for _ in range(_MAX_FIXPOINT_ITERATIONS):
            trial = dict(entry)
            self._use(loop.qubits, loop.source_span, trial, emit=False)
            body_exit = self.visit(loop.body, dict(trial), emit=False)
            joined = _join(entry, body_exit)
            if joined == entry:
                break
            entry = joined
        # Reporting pass on the stabilised entry state.
        final = dict(entry)
        self._use(loop.qubits, loop.source_span, final, emit)
        if emit:
            self.visit(loop.body, dict(final), emit=True)
        return final


def check_usage(
    program: Program, external_uses: AbstractSet[str] = frozenset()
) -> List[Diagnostic]:
    """Run the usage-dataflow pass over a typed program and return its warnings.

    ``external_uses`` are qubits mentioned outside the program proper (e.g. in
    assertion annotations); they suppress ``QV202`` but take no part in the
    flow analysis.
    """
    ever_init: Dict[str, Optional[SourceSpan]] = {}
    ever_used: set = set()
    _collect_syntactic(program, ever_init, ever_used)

    walker = _UsageWalker()
    walker.visit(program, {}, emit=True)

    diagnostics: List[Diagnostic] = []
    for qubit, span in sorted(walker.first_unseen_use.items()):
        if qubit in ever_init:
            diagnostics.append(
                make_diagnostic(
                    "QV201",
                    f"qubit '{qubit}' is used before its initialisation",
                    span,
                    hint=f"move '[{qubit}] := 0' before the first use",
                )
            )
    for qubit, span in sorted(ever_init.items()):
        if qubit not in ever_used and qubit not in external_uses:
            diagnostics.append(
                make_diagnostic(
                    "QV202",
                    f"qubit '{qubit}' is initialised but never used",
                    span,
                )
            )
    for qubit, span in walker.dead_inits:
        diagnostics.append(
            make_diagnostic(
                "QV203",
                f"initialisation of qubit '{qubit}' overwrites a still-unused initialisation",
                span,
            )
        )
    return diagnostics
