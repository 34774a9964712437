"""Seeded generator of well-typed nondeterministic quantum programs.

Programs are drawn as a small statement IR (:class:`FuzzStatement` trees)
that renders to the ``.nqpv`` surface syntax consumed by
:func:`repro.language.parser.parse_annotated_program`.  The IR — rather than
the typed AST of :mod:`repro.language.ast` — is what the shrinker of
:mod:`repro.fuzz.shrink` manipulates: it is trivially rewritable (blocks are
plain tuples) and re-renders to source after every transformation, so the
oracle always re-checks exactly what a regression file would contain.

Well-typedness is guaranteed by construction:

* every program starts by initialising all of its qubits (no ``QV201``
  use-before-init warnings, no unresolvable names);
* gates, measurements and predicates are drawn from the reserved names of the
  default operator environment at the matching arity;
* every ``while`` loop carries an ``inv:`` annotation and the program ends
  with a postcondition annotation, so the static analyzer's well-formedness
  pass accepts every draw (asserted by ``tests/test_fuzz_differential.py``).

The draw is a pure function of ``(seed, index)``: :func:`generate_program`
seeds a fresh ``numpy`` generator per program, so ``tools/fuzz.py --seed S
--index I`` reproduces any batch member in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "GeneratorConfig",
    "FuzzStatement",
    "FSkip",
    "FAbort",
    "FInit",
    "FGate",
    "FIf",
    "FWhile",
    "FChoice",
    "PredicateTerm",
    "FuzzProgram",
    "generate_program",
    "generate_batch",
    "program_rng",
]

_INDENT = "    "

#: Single-qubit gates in the Clifford group (reserved environment names).
CLIFFORD_1Q = ("X", "Y", "Z", "H", "S")

#: Single-qubit gates outside the Clifford group.
NON_CLIFFORD_1Q = ("T",)

#: Two-qubit Clifford gates.
CLIFFORD_2Q = ("CX", "CZ", "SWAP", "C0X")

#: Two-qubit non-Clifford gates (the quantum-walk unitaries).
NON_CLIFFORD_2Q = ("W1", "W2")

#: Three-qubit non-Clifford gates.
NON_CLIFFORD_3Q = ("CCX",)

#: Single-qubit measurements of the default environment.
MEASUREMENTS_1Q = ("M", "Mpm")

#: Two-qubit measurements of the default environment.
MEASUREMENTS_2Q = ("MQWalk",)

#: Single-qubit predicate names usable in postcondition annotations.
POST_PREDICATES = ("P0", "P1", "Pp", "Pm", "I")

#: Single-qubit predicate names usable in ``inv:`` annotations.  ``I`` is the
#: trivially-sound invariant; the projector predicates produce loops whose
#: invariant premise may fail, which the differential oracle never checks
#: (it compares semantics, not provability).
INV_PREDICATES = ("I", "P0", "P1", "Pp", "Pm")


@dataclass(frozen=True)
class GeneratorConfig:
    """Size and shape budgets of one generator run.

    Attributes
    ----------
    max_qubits:
        Upper bound (inclusive) on the number of program qubits; each draw
        picks a count in ``[min_qubits, max_qubits]``.
    max_depth:
        Maximum nesting depth of compound statements (``if`` / ``while`` /
        nondeterministic choice).
    max_block:
        Maximum number of statements per block (the top level and every
        branch or loop body).
    max_loops:
        Budget of ``while`` loops per program — loops dominate the oracle's
        cost, so the default keeps at most one per draw.
    clifford_bias:
        Probability in ``[0, 1]`` that a gate draw is restricted to the
        Clifford pool (``1.0`` generates Clifford-only circuits).
    loop_probability / choice_probability / if_probability:
        Relative weights of the compound statement kinds at draw time.
    abort_probability:
        Probability of the occasional ``abort`` / ``skip`` filler statements.
    """

    min_qubits: int = 1
    max_qubits: int = 3
    max_depth: int = 3
    max_block: int = 4
    max_loops: int = 1
    clifford_bias: float = 0.5
    loop_probability: float = 0.15
    choice_probability: float = 0.25
    if_probability: float = 0.3
    abort_probability: float = 0.05

    def __post_init__(self) -> None:
        if not 1 <= self.min_qubits <= self.max_qubits:
            raise ValueError("qubit bounds must satisfy 1 <= min_qubits <= max_qubits")
        if not 0.0 <= self.clifford_bias <= 1.0:
            raise ValueError("clifford_bias must be a probability")
        if self.max_depth < 1 or self.max_block < 1:
            raise ValueError("depth and block budgets must be at least 1")


# ---------------------------------------------------------------------------
# Statement IR
# ---------------------------------------------------------------------------


class FuzzStatement:
    """Base class of the lightweight statement IR the shrinker rewrites."""

    def qubits_used(self) -> frozenset:
        """Return every qubit name occurring in the statement (recursively)."""
        raise NotImplementedError

    def size(self) -> int:
        """Return the number of IR statements in the subtree (the shrink metric)."""
        return 1


Block = Tuple[FuzzStatement, ...]


@dataclass(frozen=True)
class FSkip(FuzzStatement):
    """The ``skip`` statement."""

    def qubits_used(self) -> frozenset:
        """Return the empty set."""
        return frozenset()


@dataclass(frozen=True)
class FAbort(FuzzStatement):
    """The ``abort`` statement."""

    def qubits_used(self) -> frozenset:
        """Return the empty set."""
        return frozenset()


@dataclass(frozen=True)
class FInit(FuzzStatement):
    """Initialisation ``[q ...] := 0``."""

    qubits: Tuple[str, ...]

    def qubits_used(self) -> frozenset:
        """Return the initialised qubits."""
        return frozenset(self.qubits)


@dataclass(frozen=True)
class FGate(FuzzStatement):
    """Unitary application ``[q ...] *= NAME``."""

    name: str
    qubits: Tuple[str, ...]

    def qubits_used(self) -> frozenset:
        """Return the gate's target qubits."""
        return frozenset(self.qubits)


@dataclass(frozen=True)
class FIf(FuzzStatement):
    """Conditional ``if MEAS [q ...] then ... else ... end``.

    ``else_block`` may be ``None``, rendering the implicit-``skip`` form.
    """

    measurement: str
    qubits: Tuple[str, ...]
    then_block: Block
    else_block: Optional[Block] = None

    def qubits_used(self) -> frozenset:
        """Return the measured qubits plus everything used in the branches."""
        used = frozenset(self.qubits) | _block_qubits(self.then_block)
        if self.else_block is not None:
            used = used | _block_qubits(self.else_block)
        return used

    def size(self) -> int:
        """Return 1 plus the sizes of both branches."""
        total = 1 + _block_size(self.then_block)
        if self.else_block is not None:
            total += _block_size(self.else_block)
        return total


@dataclass(frozen=True)
class FWhile(FuzzStatement):
    """Loop ``while MEAS [q ...] do ... end`` with its ``inv:`` annotation."""

    measurement: str
    qubits: Tuple[str, ...]
    invariant: Tuple["PredicateTerm", ...]
    body: Block

    def qubits_used(self) -> frozenset:
        """Return the measured qubits plus everything used in the body."""
        return frozenset(self.qubits) | _block_qubits(self.body)

    def size(self) -> int:
        """Return 1 plus the body size."""
        return 1 + _block_size(self.body)


@dataclass(frozen=True)
class FChoice(FuzzStatement):
    """Nondeterministic choice ``( ... # ... )`` over two or more branches."""

    branches: Tuple[Block, ...]

    def qubits_used(self) -> frozenset:
        """Return everything used in any branch."""
        used: frozenset = frozenset()
        for branch in self.branches:
            used = used | _block_qubits(branch)
        return used

    def size(self) -> int:
        """Return 1 plus the sizes of all branches."""
        return 1 + sum(_block_size(branch) for branch in self.branches)


def _block_qubits(block: Block) -> frozenset:
    used: frozenset = frozenset()
    for statement in block:
        used = used | statement.qubits_used()
    return used


def _block_size(block: Block) -> int:
    return sum(statement.size() for statement in block)


@dataclass(frozen=True)
class PredicateTerm:
    """A named predicate applied to qubits inside an annotation, e.g. ``P0[q0]``."""

    name: str
    qubits: Tuple[str, ...]

    def render(self) -> str:
        """Return the ``NAME[q ...]`` surface form."""
        return f"{self.name}[{' '.join(self.qubits)}]"


# ---------------------------------------------------------------------------
# Program container + rendering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzProgram:
    """One generated program: qubits, statement block and postcondition.

    ``seed`` / ``index`` identify the draw inside its batch, so failure
    reports can print the copy-pasteable repro line
    ``tools/fuzz.py --seed S --index I --shrink``.
    """

    qubits: Tuple[str, ...]
    statements: Block
    postcondition: Tuple[PredicateTerm, ...]
    seed: int = 0
    index: int = 0
    config: GeneratorConfig = field(default_factory=GeneratorConfig, compare=False)

    def source(self) -> str:
        """Render the program as parser-compatible annotated ``.nqpv`` text."""
        chunks: List[List[str]] = [_render_statement(s, 0) for s in self.statements]
        chunks.append(["{ " + " ".join(t.render() for t in self.postcondition) + " }"])
        lines: List[str] = []
        for position, chunk in enumerate(chunks):
            if position < len(chunks) - 1:
                chunk = chunk[:-1] + [chunk[-1] + ";"]
            lines.extend(chunk)
        return "\n".join(lines) + "\n"

    def size(self) -> int:
        """Return the number of IR statements (the shrinker's minimisation metric)."""
        return _block_size(self.statements)

    def contains_while(self) -> bool:
        """Return whether any statement (recursively) is a ``while`` loop."""
        return _contains_while(self.statements)

    def gate_names(self) -> frozenset:
        """Return the set of gate names applied anywhere in the program."""
        names: set = set()
        _collect_gates(self.statements, names)
        return frozenset(names)

    def replaced(self, **changes) -> "FuzzProgram":
        """Return a copy with the given fields replaced (shrinker helper)."""
        return replace(self, **changes)


def _contains_while(block: Block) -> bool:
    for statement in block:
        if isinstance(statement, FWhile):
            return True
        if isinstance(statement, FIf):
            if _contains_while(statement.then_block):
                return True
            if statement.else_block is not None and _contains_while(statement.else_block):
                return True
        if isinstance(statement, FChoice) and any(
            _contains_while(branch) for branch in statement.branches
        ):
            return True
    return False


def _collect_gates(block: Block, names: set) -> None:
    for statement in block:
        if isinstance(statement, FGate):
            names.add(statement.name)
        elif isinstance(statement, FIf):
            _collect_gates(statement.then_block, names)
            if statement.else_block is not None:
                _collect_gates(statement.else_block, names)
        elif isinstance(statement, FWhile):
            _collect_gates(statement.body, names)
        elif isinstance(statement, FChoice):
            for branch in statement.branches:
                _collect_gates(branch, names)


def _render_block(block: Block, indent: int) -> List[str]:
    """Render a block as indented lines with ``;`` separators between items."""
    if not block:
        return [_INDENT * indent + "skip"]
    lines: List[str] = []
    chunks = [_render_statement(statement, indent) for statement in block]
    for position, chunk in enumerate(chunks):
        if position < len(chunks) - 1:
            chunk = chunk[:-1] + [chunk[-1] + ";"]
        lines.extend(chunk)
    return lines


def _render_statement(statement: FuzzStatement, indent: int) -> List[str]:
    pad = _INDENT * indent
    if isinstance(statement, FSkip):
        return [pad + "skip"]
    if isinstance(statement, FAbort):
        return [pad + "abort"]
    if isinstance(statement, FInit):
        return [pad + f"[{' '.join(statement.qubits)}] := 0"]
    if isinstance(statement, FGate):
        return [pad + f"[{' '.join(statement.qubits)}] *= {statement.name}"]
    if isinstance(statement, FIf):
        lines = [pad + f"if {statement.measurement} [{' '.join(statement.qubits)}] then"]
        lines.extend(_render_block(statement.then_block, indent + 1))
        if statement.else_block is not None:
            lines.append(pad + "else")
            lines.extend(_render_block(statement.else_block, indent + 1))
        lines.append(pad + "end")
        return lines
    if isinstance(statement, FWhile):
        inv = " ".join(term.render() for term in statement.invariant)
        lines = [pad + "{ inv: " + inv + " };"]
        lines.append(pad + f"while {statement.measurement} [{' '.join(statement.qubits)}] do")
        lines.extend(_render_block(statement.body, indent + 1))
        lines.append(pad + "end")
        return lines
    if isinstance(statement, FChoice):
        lines = [pad + "("]
        for position, branch in enumerate(statement.branches):
            lines.extend(_render_block(branch, indent + 1))
            if position < len(statement.branches) - 1:
                lines.append(pad + _INDENT + "#")
        lines.append(pad + ")")
        return lines
    raise TypeError(f"unknown fuzz statement {type(statement).__name__}")


# ---------------------------------------------------------------------------
# Drawing
# ---------------------------------------------------------------------------


class _Draw:
    """One program draw: threads the RNG, the budgets and the qubit pool."""

    def __init__(self, rng: np.random.Generator, config: GeneratorConfig):
        self.rng = rng
        self.config = config
        num_qubits = int(rng.integers(config.min_qubits, config.max_qubits + 1))
        self.qubits = tuple(f"q{i}" for i in range(num_qubits))
        self.loops_left = config.max_loops

    # ------------------------------------------------------------------ picks
    def _pick(self, items) -> object:
        return items[int(self.rng.integers(0, len(items)))]

    def _pick_qubits(self, count: int) -> Tuple[str, ...]:
        chosen = self.rng.choice(len(self.qubits), size=count, replace=False)
        return tuple(self.qubits[int(i)] for i in sorted(chosen))

    def _gate_pool(self, arity: int) -> Tuple[str, ...]:
        clifford_only = bool(self.rng.random() < self.config.clifford_bias)
        if arity == 1:
            return CLIFFORD_1Q if clifford_only else CLIFFORD_1Q + NON_CLIFFORD_1Q
        if arity == 2:
            return CLIFFORD_2Q if clifford_only else CLIFFORD_2Q + NON_CLIFFORD_2Q
        return NON_CLIFFORD_3Q

    # -------------------------------------------------------------- statements
    def gate(self) -> FGate:
        """Draw one unitary statement at a feasible arity."""
        max_arity = min(len(self.qubits), 3)
        weights = [0.6, 0.3, 0.1][:max_arity]
        arity = 1 + int(self.rng.choice(max_arity, p=np.array(weights) / sum(weights)))
        if arity == 3 and self.rng.random() < self.config.clifford_bias:
            arity = 2 if len(self.qubits) >= 2 else 1  # no 3-qubit Clifford in the pool
        return FGate(str(self._pick(self._gate_pool(arity))), self._pick_qubits(arity))

    def measurement(self) -> Tuple[str, Tuple[str, ...]]:
        """Draw a measurement name and a matching qubit tuple."""
        if len(self.qubits) >= 2 and self.rng.random() < 0.2:
            return str(self._pick(MEASUREMENTS_2Q)), self._pick_qubits(2)
        return str(self._pick(MEASUREMENTS_1Q)), self._pick_qubits(1)

    def statement(self, depth: int) -> FuzzStatement:
        """Draw one statement at the given remaining nesting ``depth``."""
        roll = self.rng.random()
        if roll < self.config.abort_probability:
            return FAbort() if self.rng.random() < 0.5 else FSkip()
        if depth > 0:
            compound = self.rng.random()
            if compound < self.config.loop_probability and self.loops_left > 0:
                self.loops_left -= 1
                name, qubits = self.measurement()
                return FWhile(name, qubits, self.invariant(), self.block(depth - 1))
            if compound < self.config.loop_probability + self.config.choice_probability:
                count = 2 if self.rng.random() < 0.8 else 3
                return FChoice(tuple(self.block(depth - 1) for _ in range(count)))
            if compound < (
                self.config.loop_probability
                + self.config.choice_probability
                + self.config.if_probability
            ):
                name, qubits = self.measurement()
                else_block = self.block(depth - 1) if self.rng.random() < 0.6 else None
                return FIf(name, qubits, self.block(depth - 1), else_block)
        if self.rng.random() < 0.15:
            return FInit(self._pick_qubits(1 + int(self.rng.integers(0, len(self.qubits)))))
        return self.gate()

    def block(self, depth: int) -> Block:
        """Draw a non-empty block of at most ``max_block`` statements."""
        count = 1 + int(self.rng.integers(0, self.config.max_block))
        return tuple(self.statement(depth) for _ in range(count))

    # ------------------------------------------------------------- annotations
    def invariant(self) -> Tuple[PredicateTerm, ...]:
        """Draw a one-term ``inv:`` annotation over a single qubit."""
        return (PredicateTerm(str(self._pick(INV_PREDICATES)), self._pick_qubits(1)),)

    def postcondition(self) -> Tuple[PredicateTerm, ...]:
        """Draw a postcondition of one or two single-qubit predicate terms."""
        count = 1 if self.rng.random() < 0.7 else 2
        return tuple(
            PredicateTerm(str(self._pick(POST_PREDICATES)), self._pick_qubits(1))
            for _ in range(count)
        )

    def program(self, seed: int, index: int) -> FuzzProgram:
        """Draw the whole program: init-all prologue, body block, postcondition."""
        statements = (FInit(self.qubits),) + self.block(self.config.max_depth - 1)
        return FuzzProgram(
            qubits=self.qubits,
            statements=statements,
            postcondition=self.postcondition(),
            seed=seed,
            index=index,
            config=self.config,
        )


def program_rng(seed: int, index: int) -> np.random.Generator:
    """Return the per-program generator: a pure function of ``(seed, index)``."""
    return np.random.default_rng((int(seed), int(index)))


def generate_program(
    seed: int, index: int = 0, config: GeneratorConfig | None = None
) -> FuzzProgram:
    """Generate the ``index``-th program of the batch identified by ``seed``."""
    config = config or GeneratorConfig()
    return _Draw(program_rng(seed, index), config).program(seed, index)


def generate_batch(
    seed: int, count: int, config: GeneratorConfig | None = None
) -> List[FuzzProgram]:
    """Generate ``count`` independent programs for one seed."""
    config = config or GeneratorConfig()
    return [generate_program(seed, index, config) for index in range(count)]
