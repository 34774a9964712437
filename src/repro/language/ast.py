"""Abstract syntax of nondeterministic quantum programs (Sec. 3.1).

The language is the purely quantum while-language of [Ying 2012, Feng et al.
2007] extended with a binary demonic nondeterministic choice ``S0 □ S1``::

    S ::= skip | abort | q̄ := 0 | q̄ *= U | S0; S1 | S0 □ S1
        | if M[q̄] then S1 else S0 end | while M[q̄] do S end

Programs are immutable trees.  Unitary operators and measurements are carried
*by value* (as numpy matrices acting on the listed qubits) together with a
display name, so that a program is self-contained and can be interpreted over
any register that includes its quantum variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..diagnostics import SourceSpan
from ..exceptions import LinalgError, SemanticsError
from ..linalg.constants import P0 as P0_MATRIX
from ..linalg.constants import P1 as P1_MATRIX
from ..linalg.constants import PMINUS, PPLUS
from ..linalg.operators import is_projector, is_unitary, num_qubits_of, operators_close

__all__ = [
    "Measurement",
    "Program",
    "Skip",
    "Abort",
    "Init",
    "Unitary",
    "Seq",
    "NDet",
    "If",
    "While",
    "seq",
    "ndet",
    "measure",
    "if_then",
    "MEAS_COMPUTATIONAL",
    "MEAS_PLUS_MINUS",
]


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Measurement:
    """A two-outcome projective measurement ``M = {P0, P1}`` on a few qubits.

    The projectors act on ``2^k`` dimensions where ``k`` is the number of
    measured qubits; the completeness equation ``P0 + P1 = I`` is enforced.
    """

    name: str
    p0: np.ndarray
    p1: np.ndarray

    def __post_init__(self):
        p0 = np.asarray(self.p0, dtype=complex)
        p1 = np.asarray(self.p1, dtype=complex)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)
        if p0.shape != p1.shape:
            raise LinalgError("measurement projectors must have the same shape", code="QV107")
        if not (is_projector(p0) and is_projector(p1)):
            raise LinalgError(
                f"measurement {self.name!r}: outcomes must be projectors", code="QV107"
            )
        identity = np.eye(p0.shape[0])
        if not operators_close(p0 + p1, identity, atol=1e-7):
            raise LinalgError(
                f"measurement {self.name!r}: completeness P0 + P1 = I fails", code="QV107"
            )

    @property
    def dimension(self) -> int:
        """Dimension of the measured subsystem."""
        return self.p0.shape[0]

    @property
    def num_qubits(self) -> int:
        """Number of measured qubits."""
        return num_qubits_of(self.p0)

    def projector(self, outcome: int) -> np.ndarray:
        """Return the projector of outcome ``0`` or ``1``."""
        if outcome not in (0, 1):
            raise LinalgError("measurement outcomes are 0 and 1")
        return self.p0 if outcome == 0 else self.p1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Measurement)
            and self.p0.shape == other.p0.shape
            and operators_close(self.p0, other.p0)
            and operators_close(self.p1, other.p1)
        )

    def __hash__(self) -> int:
        # __eq__ ignores the display name and compares projectors numerically,
        # so the hash may only use exact invariants equality preserves.
        return hash(("Measurement", self.p0.shape[0]))

    def __repr__(self) -> str:
        return f"Measurement({self.name!r}, dim={self.dimension})"


#: Single-qubit measurement in the computational basis ``{|0⟩, |1⟩}``.
MEAS_COMPUTATIONAL = Measurement("M01", P0_MATRIX, P1_MATRIX)

#: Single-qubit measurement in the Hadamard basis ``{|+⟩, |−⟩}``.
MEAS_PLUS_MINUS = Measurement("Mpm", PPLUS, PMINUS)


# ---------------------------------------------------------------------------
# Program nodes
# ---------------------------------------------------------------------------


class Program:
    """Base class of all program constructs.

    Every node optionally carries a ``source_span`` — the 1-based
    :class:`~repro.diagnostics.SourceSpan` of the token that introduced it in
    ``.nqpv`` source.  The span is display-only metadata: it is excluded from
    equality and hashing, and is ``None`` on nodes built
    programmatically.
    """

    #: Source location metadata (overridden by the dataclass field on subclasses).
    source_span: Optional[SourceSpan] = None

    def quantum_variables(self) -> frozenset:
        """Return ``qv(S)``: the set of quantum variables occurring in the program."""
        raise NotImplementedError

    def children(self) -> Tuple["Program", ...]:
        """Return the immediate sub-programs."""
        return ()

    def is_deterministic(self) -> bool:
        """Return ``True`` when the program contains no nondeterministic choice."""
        return all(child.is_deterministic() for child in self.children())

    def contains_while(self) -> bool:
        """Return ``True`` when the program contains a while loop."""
        return any(child.contains_while() for child in self.children())

    def nondeterministic_choice_count(self) -> int:
        """Return the number of ``□`` nodes in the program."""
        return sum(child.nondeterministic_choice_count() for child in self.children())

    def size(self) -> int:
        """Return the number of AST nodes (a rough program-size metric)."""
        return 1 + sum(child.size() for child in self.children())

    def walk(self) -> Iterator["Program"]:
        """Yield every node of the program tree in pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    # Sub-classes are dataclasses and supply __eq__/__hash__/__repr__.


@dataclass(frozen=True)
class Skip(Program):
    """The no-op statement ``skip``."""

    source_span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def quantum_variables(self) -> frozenset:
        return frozenset()


@dataclass(frozen=True)
class Abort(Program):
    """The failing statement ``abort``: no proper output state is ever produced."""

    source_span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def quantum_variables(self) -> frozenset:
        return frozenset()


@dataclass(frozen=True)
class Init(Program):
    """Initialisation ``q̄ := 0`` resetting every listed qubit to ``|0⟩``."""

    qubits: Tuple[str, ...]
    source_span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        qubits = tuple(self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if not qubits:
            raise SemanticsError("initialisation needs at least one qubit", code="QV102")
        if len(set(qubits)) != len(qubits):
            raise SemanticsError(f"duplicate qubits in initialisation: {qubits}", code="QV101")

    def quantum_variables(self) -> frozenset:
        return frozenset(self.qubits)


@dataclass(frozen=True)
class Unitary(Program):
    """Unitary application ``q̄ *= U``.

    ``matrix`` acts on the listed qubits in the given order; ``name`` is only
    used for display.
    """

    qubits: Tuple[str, ...]
    name: str
    matrix: np.ndarray = field(compare=False)
    source_span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        qubits = tuple(self.qubits)
        matrix = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "matrix", matrix)
        if not qubits:
            raise SemanticsError("a unitary statement needs at least one qubit", code="QV102")
        if len(set(qubits)) != len(qubits):
            raise SemanticsError(
                f"duplicate qubits in unitary statement: {qubits}", code="QV101"
            )
        if not is_unitary(matrix):
            raise LinalgError(f"operator {self.name!r} is not unitary", code="QV105")
        if matrix.shape[0] != 2 ** len(qubits):
            raise LinalgError(
                f"operator {self.name!r} has dimension {matrix.shape[0]} but acts on {len(qubits)} qubit(s)",
                code="QV106",
            )

    def quantum_variables(self) -> frozenset:
        return frozenset(self.qubits)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Unitary)
            and self.qubits == other.qubits
            and self.matrix.shape == other.matrix.shape
            and operators_close(self.matrix, other.matrix)
        )

    def __hash__(self) -> int:
        # __eq__ ignores the display name and compares matrices numerically,
        # so the hash may only use exact invariants equality preserves.
        return hash(("Unitary", self.qubits))


@dataclass(frozen=True)
class Seq(Program):
    """Sequential composition ``S0; S1; …`` (associatively flattened)."""

    statements: Tuple[Program, ...]
    source_span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        flattened: list = []
        for statement in self.statements:
            if isinstance(statement, Seq):
                flattened.extend(statement.statements)
            else:
                flattened.append(statement)
        if len(flattened) < 2:
            raise SemanticsError("sequential composition needs at least two statements")
        object.__setattr__(self, "statements", tuple(flattened))

    def children(self) -> Tuple[Program, ...]:
        return self.statements

    def quantum_variables(self) -> frozenset:
        variables: frozenset = frozenset()
        for statement in self.statements:
            variables = variables | statement.quantum_variables()
        return variables


@dataclass(frozen=True)
class NDet(Program):
    """Demonic nondeterministic choice ``S0 □ S1 □ …`` (associatively flattened)."""

    branches: Tuple[Program, ...]
    source_span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        flattened: list = []
        for branch in self.branches:
            if isinstance(branch, NDet):
                flattened.extend(branch.branches)
            else:
                flattened.append(branch)
        if len(flattened) < 2:
            raise SemanticsError("nondeterministic choice needs at least two branches")
        object.__setattr__(self, "branches", tuple(flattened))

    def children(self) -> Tuple[Program, ...]:
        return self.branches

    def quantum_variables(self) -> frozenset:
        variables: frozenset = frozenset()
        for branch in self.branches:
            variables = variables | branch.quantum_variables()
        return variables

    def is_deterministic(self) -> bool:
        return False

    def nondeterministic_choice_count(self) -> int:
        return 1 + sum(branch.nondeterministic_choice_count() for branch in self.branches)


@dataclass(frozen=True)
class If(Program):
    """Conditional ``if M[q̄] then S1 else S0 end`` branching on a two-outcome measurement."""

    measurement: Measurement
    qubits: Tuple[str, ...]
    then_branch: Program
    else_branch: Program
    source_span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        qubits = tuple(self.qubits)
        object.__setattr__(self, "qubits", qubits)
        _check_measurement_arity(self.measurement, qubits)

    def children(self) -> Tuple[Program, ...]:
        return (self.then_branch, self.else_branch)

    def quantum_variables(self) -> frozenset:
        return (
            frozenset(self.qubits)
            | self.then_branch.quantum_variables()
            | self.else_branch.quantum_variables()
        )


@dataclass(frozen=True)
class While(Program):
    """Loop ``while M[q̄] do S end``: iterate ``S`` as long as the measurement returns 1."""

    measurement: Measurement
    qubits: Tuple[str, ...]
    body: Program
    source_span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        qubits = tuple(self.qubits)
        object.__setattr__(self, "qubits", qubits)
        _check_measurement_arity(self.measurement, qubits)

    def children(self) -> Tuple[Program, ...]:
        return (self.body,)

    def quantum_variables(self) -> frozenset:
        return frozenset(self.qubits) | self.body.quantum_variables()

    def contains_while(self) -> bool:
        return True


def _check_measurement_arity(measurement: Measurement, qubits: Sequence[str]) -> None:
    if not qubits:
        raise SemanticsError("a measurement needs at least one qubit", code="QV102")
    if len(set(qubits)) != len(qubits):
        raise SemanticsError(f"duplicate qubits in measurement: {qubits}", code="QV101")
    if measurement.dimension != 2 ** len(qubits):
        raise LinalgError(
            f"measurement {measurement.name!r} has dimension {measurement.dimension} "
            f"but is applied to {len(qubits)} qubit(s)",
            code="QV108",
        )


# ---------------------------------------------------------------------------
# Convenience constructors (syntactic sugar used in the paper's examples)
# ---------------------------------------------------------------------------


def seq(*statements: Program) -> Program:
    """Sequentially compose any number of statements (one statement passes through)."""
    statements = tuple(statements)
    if not statements:
        return Skip()
    if len(statements) == 1:
        return statements[0]
    return Seq(statements)


def ndet(*branches: Program) -> Program:
    """Nondeterministically compose any number of branches (one branch passes through)."""
    branches = tuple(branches)
    if not branches:
        raise SemanticsError("nondeterministic choice needs at least one branch")
    if len(branches) == 1:
        return branches[0]
    return NDet(branches)


def measure(qubits: Sequence[str], measurement: Measurement = MEAS_COMPUTATIONAL) -> Program:
    """The ``measure q̄`` sugar: ``if M[q̄] then skip else skip end`` (Example 3.4)."""
    return If(measurement, tuple(qubits), Skip(), Skip())


def if_then(measurement: Measurement, qubits: Sequence[str], body: Program) -> Program:
    """The ``if M[q̄] then S end`` sugar with an implicit ``skip`` else-branch."""
    return If(measurement, tuple(qubits), body, Skip())
