"""Lifted denotational semantics of nondeterministic quantum programs (Fig. 2).

The denotation ``[[S]]`` of a program is a *set* of trace non-increasing
super-operators over the Hilbert space of a register containing the program's
quantum variables:

* the four basic statements are deterministic and denote singletons;
* ``[[S0; S1]] = [[S1]] ∘ [[S0]]`` element-wise (the lifted model of Sec. 3.3.2);
  composition is associative, so each maximal run of consecutive unitary
  statements is one step of the fold;
* ``[[S0 □ S1]] = [[S0]] ∪ [[S1]]``;
* ``[[if]] = [[S0]] ∘ P⁰ + [[S1]] ∘ P¹`` element-wise;
* ``[[while]]`` is the set of least upper bounds of the chains ``F^η_n`` over
  all schedulers ``η`` (Eq. (1)); it is approximated here by truncating each
  chain once the trace norm of the completely positive increment
  ``F^η_n − F^η_{n−1}`` (``Σ_i ‖K_i‖²_F`` over its Kraus operators, no Choi
  matrix needed) drops below ``convergence_tolerance``, once the loop prefix
  can no longer contribute, or after ``max_iterations`` elements.

For loop-free programs the computed set is exact (up to floating point); for
programs with loops the caller controls which schedulers are explored.

Maps are :class:`~repro.superop.kraus.SuperOperator` in Kraus form, as in the
paper's presentation, on the full program register.  A gate meets the register
through :func:`~repro.linalg.tensor.apply_to_qubits`, which multiplies by its
cylinder extension (Sec. 2) contracting only the gate's qubits; measurement
projectors enter as their ``2^n × 2^n`` extensions, built by the same kernel
on the identity.  ``Set0``, whose Kraus operators ``|0⟩⟨i| ⊗ I`` only move
entries, is never multiplied: it factors as ``Set0 = J ∘ Tr``, where ``Tr``
traces out the reset qubits ``q̄`` and ``J`` prepares ``|0⟩`` on them (see
:mod:`~repro.superop.kraus`).  An ``Init`` inside a sequence copies the rows
of the maps composed so far
(:meth:`~repro.superop.kraus.SuperOperator.compose_reset`), and the bare
channel is that copy of the identity.

A sequence that opens with ``q̄ := 0`` is folded as
``([[S_k]] ∘ ⋯ ∘ [[S_2]] ∘ J) ∘ Tr``: from ``J`` on, every map of the fold
is *restricted*, a ``(k, d, c)`` Kraus array on the ``c = d / 2^|q̄|``
columns that ``Set0`` prepares, and ``Tr`` is composed once at the end by
copying those columns into the ``2^|q̄|`` blocks of the register
(:meth:`~repro.superop.kraus.SuperOperator.compose_trace`, the spread).
Restricted maps never leave :func:`_denote_seq`; every statement other
than a gate run (loops included) is still denoted on the full register and
composed onto them.  A run of gates meets the maps of every fold, square
or restricted, gate by gate on their operators stacked side by side; its
product is never built.

The fold compresses a map
(:meth:`~repro.superop.kraus.SuperOperator.simplified`) once it would
carry more than :data:`SIMPLIFY_THRESHOLD` Kraus operators on the
register: a restricted map counts ``2^|q̄|`` per operator, since the spread
of a rank-``r`` restricted map has rank ``2^|q̄|·r``.  So a restricted map
is compressed where its spread would be, on a ``d·c``-sided problem
instead of a ``d²``-sided one, and the fold returns no more operators than
composing ``Set0``'s operators on the register: as many for a nonzero map,
and one for the zero map.  A gate run is unitary and keeps every map's
count and rank, so no map is compressed after one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import SemanticsError
from ..language.ast import Abort, If, Init, NDet, Program, Seq, Skip, Unitary, While
from ..linalg.constants import ATOL
from ..linalg.tensor import embed_operator
from ..registers import QubitRegister
from ..superop.compare import deduplicate
from ..superop.kraus import SuperOperator
from ..telemetry.tracing import span
from .schedulers import Scheduler, constant_schedulers, sample_schedulers

__all__ = [
    "DenotationOptions",
    "denotation",
    "apply_denotation",
    "loop_iterates",
    "measurement_superoperators",
    "initializer_channel",
    "initializer_adjoint",
]

#: Maps with more Kraus operators than this are re-canonicalised
#: (:meth:`~repro.superop.kraus.SuperOperator.simplified`) to keep
#: compositions tractable; a restricted map of the sequence fold counts the
#: operators of its spread.
SIMPLIFY_THRESHOLD = 64

#: Number of pseudo-random schedulers explored per loop with more than one
#: body map, on top of the constant ones, when no schedulers are given.
SAMPLED_SCHEDULERS = 2


@dataclass
class DenotationOptions:
    """Options steering the (approximate) computation of loop denotations.

    Attributes
    ----------
    max_iterations:
        Truncation bound for the while-loop chains ``F^η_n``.
    convergence_tolerance:
        The chain is considered converged when the trace norm of the
        increment between consecutive iterates drops below this value.  The
        increment is completely positive, so its trace norm is the trace of
        its Choi matrix, ``Σ_i ‖K_i‖²_F`` over its Kraus operators ``K_i``;
        it bounds the probability mass the iteration adds for any input state.
    schedulers:
        Explicit schedulers to explore for every loop.  When ``None``, all
        constant schedulers are used plus :data:`SAMPLED_SCHEDULERS` random
        ones; a body with a single map gets ``ConstantScheduler(0)`` alone.
    dedup:
        Whether to remove duplicate super-operators from denotation sets.
    """

    max_iterations: int = 64
    convergence_tolerance: float = 1e-9
    schedulers: Optional[Sequence[Scheduler]] = None
    dedup: bool = True


def measurement_superoperators(
    statement, register: QubitRegister
) -> Tuple[SuperOperator, SuperOperator]:
    """Return the pair ``(P⁰, P¹)`` of projection super-operators of a measurement node.

    Both projectors are promoted to the full register as Kraus-form maps.
    """
    with span("measurement-pair", region="denotation"):
        p0 = register.embed(statement.measurement.p0, statement.qubits)
        p1 = register.embed(statement.measurement.p1, statement.qubits)
        return SuperOperator([p0], validate=False), SuperOperator([p1], validate=False)


def initializer_channel(qubits: Sequence[str], register: QubitRegister) -> SuperOperator:
    """Return the ``Set0`` channel on the named ``qubits``, extended to the register.

    It is :meth:`~repro.superop.kraus.SuperOperator.compose_reset` on the
    identity, the one construction of ``Set0`` on a register.  The rule
    checker replays the (Init) rule on its Kraus sum; the backward engines
    use :func:`initializer_adjoint` instead.
    """
    register.check_contains(qubits)
    with span("initializer", region="denotation"):
        identity = SuperOperator.identity(register.dimension)
        return identity.compose_reset(register.positions(qubits))


def initializer_adjoint(
    matrix: np.ndarray, qubits: Sequence[str], register: QubitRegister
) -> np.ndarray:
    """Return ``Set0†(M) = Σ_i |i⟩⟨0| M |0⟩⟨i|`` on the named ``qubits``, one slice of ``M``.

    The sum equals ``I_q̄ ⊗ ⟨0|M|0⟩_q̄``: ``M`` is read as a ``2n``-axis
    tensor, index 0 is taken on the row and column axes of ``q̄``, and the
    remaining block is extended to the register; when ``q̄`` is the whole
    register the result is ``⟨0|M|0⟩ · I``.  It equals
    ``initializer_channel(qubits, register).apply_adjoint(matrix)`` without
    building or applying its ``2^|q̄|`` Kraus operators.  Shared by the wp
    transformer and the prover.
    """
    num_qubits = register.num_qubits
    positions = register.positions(qubits)
    tensor = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * num_qubits))
    index: List[object] = [slice(None)] * (2 * num_qubits)
    for position in positions:
        index[position] = 0
        index[num_qubits + position] = 0
    block = tensor[tuple(index)]
    rest = [position for position in range(num_qubits) if position not in positions]
    if not rest:
        return block * np.eye(register.dimension, dtype=complex)
    side = 2 ** len(rest)
    return embed_operator(block.reshape(side, side), rest, num_qubits)


def denotation(
    program: Program,
    register: QubitRegister | None = None,
    options: DenotationOptions | None = None,
) -> List[SuperOperator]:
    """Compute (an approximation of) the denotation ``[[S]]`` over ``register``.

    The result is exact for loop-free programs.  For programs containing while
    loops, one super-operator per explored scheduler is produced, each obtained
    by truncating the non-decreasing chain of Eq. (1) at numerical convergence.

    Returns a list of :class:`SuperOperator` on the full register.
    """
    register = register or QubitRegister.for_program(program)
    options = options or DenotationOptions()
    missing = set(program.quantum_variables()) - set(register.names)
    if missing:
        raise SemanticsError(f"register does not contain program variables {sorted(missing)}")
    with span(
        "denotation",
        region="denotation",
        node=type(program).__name__,
        num_qubits=register.num_qubits,
    ) as denotation_span:
        result = _denote(program, register, options)
        if options.dedup:
            result = deduplicate(result)
        denotation_span.set_tag("set_size", len(result))
        return result


def apply_denotation(
    program: Program,
    rho: np.ndarray,
    register: QubitRegister | None = None,
    options: DenotationOptions | None = None,
) -> List[np.ndarray]:
    """Return ``[[S]](ρ)``: the set of output states under every explored branch."""
    register = register or QubitRegister.for_program(program)
    maps = denotation(program, register, options)
    return [channel.apply(rho) for channel in maps]


# ---------------------------------------------------------------------------
# Structural recursion
# ---------------------------------------------------------------------------


def _denote(program: Program, register: QubitRegister, options: DenotationOptions) -> List[SuperOperator]:
    dimension = register.dimension

    if isinstance(program, Skip):
        return [SuperOperator.identity(dimension)]
    if isinstance(program, Abort):
        return [SuperOperator.zero(dimension)]
    if isinstance(program, Init):
        return [initializer_channel(program.qubits, register)]
    if isinstance(program, Unitary):
        embedded = register.embed(program.matrix, program.qubits)
        return [SuperOperator([embedded], validate=False)]
    if isinstance(program, Seq):
        return _denote_seq(program.statements, register, options)
    if isinstance(program, NDet):
        maps: List[SuperOperator] = []
        for branch in program.branches:
            maps.extend(_denote(branch, register, options))
        return maps
    if isinstance(program, If):
        p0, p1 = measurement_superoperators(program, register)
        else_maps = _denote(program.else_branch, register, options)
        then_maps = _denote(program.then_branch, register, options)
        combined = []
        for else_map in else_maps:
            for then_map in then_maps:
                total = else_map.compose(p0) + then_map.compose(p1)
                combined.append(_compressed(total))
        return combined
    if isinstance(program, While):
        return _denote_while(program, register, options)
    raise SemanticsError(f"unknown program construct {type(program).__name__}")


def _denote_seq(
    statements: Sequence[Program], register: QubitRegister, options: DenotationOptions
) -> List[SuperOperator]:
    """Fold ``[[S_k]] ∘ ⋯ ∘ [[S_1]]`` over the steps of a sequential composition.

    An opening ``q̄ := 0`` is ``J ∘ Tr`` (see the module docstring): the
    fold starts from ``J``, carries restricted maps, and composes ``Tr``
    once at the end (:func:`_spread`).  Any other ``Init`` step copies the
    rows of the maps composed so far
    (:meth:`~repro.superop.kraus.SuperOperator.compose_reset`), a gate run
    meets the maps through :meth:`_GateRun.after`, and every other step is
    composed with :meth:`~repro.superop.kraus.SuperOperator.compose`.

    After an ``Init`` or a composed step, a map that would carry more than
    :data:`SIMPLIFY_THRESHOLD` operators on the register is compressed
    (:func:`_compressed`), so the fold compresses where composing
    ``Set0``'s operators on the register does.  A gate run is unitary: it
    keeps the count and the rank of every map, so a map is as compressed
    after it as before and is not compressed again.

    Restricted maps are deduplicated at ``ATOL / 2^|q̄|``: the Choi matrix
    of a spread is the direct sum of ``2^|q̄|`` copies of its restricted
    map's, so that is ``ATOL`` on the spreads.
    """
    steps = _seq_steps(statements, register, options)
    statement, step = next(steps)
    positions = None
    blocks = 1
    if step is None:
        positions = register.positions(statement.qubits)
        blocks = 2 ** len(positions)
        fold = [SuperOperator.prepare_zero(positions, register.num_qubits)]
    elif isinstance(step, _GateRun):
        fold = step.after([SuperOperator.identity(register.dimension)])
    else:
        fold = step
    if options.dedup and len(fold) > 1:
        fold = deduplicate(fold, atol=ATOL / blocks)
    for statement, step in steps:
        with span(
            "seq-compose",
            region="denotation",
            statement=type(statement).__name__,
            set_size=len(fold) * (len(step) if isinstance(step, list) else 1),
        ):
            if isinstance(step, _GateRun):
                fold = step.after(fold)
            else:
                if step is None:
                    reset = register.positions(statement.qubits)
                    fold = [channel.compose_reset(reset) for channel in fold]
                else:
                    fold = [later.compose(channel) for channel in fold for later in step]
                fold = [_compressed(channel, blocks) for channel in fold]
            if options.dedup and len(fold) > 1:
                fold = deduplicate(fold, atol=ATOL / blocks)
    if positions is None:
        return fold
    return [_spread(channel, positions) for channel in fold]


def _compressed(channel: SuperOperator, blocks: int = 1) -> SuperOperator:
    """Return ``channel``, compressed once it stands for more than :data:`SIMPLIFY_THRESHOLD`.

    ``blocks`` is the number of register operators one Kraus operator of
    the map stands for: ``2^|q̄|`` for a restricted map, since the spread
    of a rank-``r`` restricted map has rank ``2^|q̄|·r``, and 1 otherwise.
    A single operator is already minimal, so a one-operator map is not
    factored.
    """
    count = len(channel.kraus_operators)
    if count * blocks <= SIMPLIFY_THRESHOLD or count == 1:
        return channel
    return channel.simplified()


def _spread(channel: SuperOperator, positions: Sequence[int]) -> SuperOperator:
    """Return ``channel ∘ Tr`` for a restricted map of the fold.

    A zero map spreads to the zero map's one operator.
    """
    if not channel.kraus_operators.any():
        return SuperOperator.zero(channel.shape[0])
    return channel.compose_trace(positions)


class _GateRun:
    """A maximal run of consecutive :class:`Unitary` statements, one step of a fold.

    Each gate is applied by :meth:`~repro.registers.QubitRegister.apply`,
    which contracts only its own qubits.
    """

    def __init__(self, gates: Sequence[Unitary], register: QubitRegister):
        self._gates = gates
        self._register = register

    def _apply(self, matrix: np.ndarray) -> np.ndarray:
        """Return ``U_k ⋯ U_1 · matrix`` for the run's gates, one gate at a time."""
        for gate in self._gates:
            matrix = self._register.apply(gate.matrix, gate.qubits, matrix)
        return matrix

    def after(self, maps: Sequence[SuperOperator]) -> List[SuperOperator]:
        """Return the run composed after each of ``maps``.

        The gates meet the maps' operators, stacked side by side, one by one
        (:meth:`~repro.superop.kraus.SuperOperator.left_multiply`): the
        run's product is never built.  After the identity this is the
        product itself.
        """
        return SuperOperator.left_multiply(maps, self._apply)


def _seq_steps(
    statements: Sequence[Program], register: QubitRegister, options: DenotationOptions
) -> Iterator[Tuple[Program, Union[None, _GateRun, List[SuperOperator]]]]:
    """Yield ``(statement, step)`` for each step of a sequential composition.

    A maximal run of consecutive :class:`Unitary` statements is one step, a
    :class:`_GateRun` reported by its last statement, so the maps composed
    so far meet the run once instead of once per gate; composition is
    associative, so the denoted set is unchanged.  An :class:`Init` comes
    with no maps, since :func:`_denote_seq` applies it by copying.  Every
    other statement is a step of its own denotation.
    """
    for is_run, group in groupby(statements, key=lambda statement: isinstance(statement, Unitary)):
        if not is_run:
            for statement in group:
                maps = None if isinstance(statement, Init) else _denote(statement, register, options)
                yield statement, maps
            continue
        gates = list(group)
        yield gates[-1], _GateRun(gates, register)


# ---------------------------------------------------------------------------
# While loops
# ---------------------------------------------------------------------------


def _denote_while(
    program: While, register: QubitRegister, options: DenotationOptions
) -> List[SuperOperator]:
    """Run :func:`loop_iterates` for every scheduler of ``options`` and collect the chain limits."""
    body_maps = _denote(program.body, register, options)
    if options.schedulers is not None:
        schedulers = list(options.schedulers)
    else:
        schedulers = list(constant_schedulers(len(body_maps)))
        if len(body_maps) > 1:
            schedulers.extend(sample_schedulers(SAMPLED_SCHEDULERS))
    with span(
        "loop",
        region="loop",
        schedulers=len(schedulers),
        body_maps=len(body_maps),
        num_qubits=register.num_qubits,
    ):
        return [
            loop_iterates(program, register, body_maps, scheduler, options)[-1]
            for scheduler in schedulers
        ]


def loop_iterates(
    program: While,
    register: QubitRegister,
    body_maps: Sequence[SuperOperator],
    scheduler: Scheduler,
    options: DenotationOptions | None = None,
) -> List[SuperOperator]:
    """Return the chain ``F^η_0 ⪯ F^η_1 ⪯ …`` of Eq. (1) under one scheduler.

    The chain is truncated after ``max_iterations`` elements, or earlier at
    the first iteration whose increment ``F^η_n − F^η_{n−1} = P⁰ ∘ prefix_n``
    has trace norm ``Σ_i ‖K_i‖²_F < convergence_tolerance`` (that iterate is
    still included), or once the success probability bound of the loop
    prefix drops below it.  The norm is read off the increment's Kraus
    operators, so no Choi matrix is built; the prefix's bound is bracketed
    by its trace first, so most iterations need no eigensolve.  The final
    element approximates the least upper bound, i.e. the loop's semantics
    under the scheduler.

    ``body_maps`` are the loop body's denotations.  The chain keeps one
    rolling prefix ``η_n ∘ P¹ ∘ … ∘ η_1 ∘ P¹`` and no history of it.
    """
    options = options or DenotationOptions()
    p0, p1 = measurement_superoperators(program, register)

    iterates: List[SuperOperator] = []
    with span("loop-chain", region="loop") as chain_span:
        # step_k = η_k ∘ P¹ is iteration-independent; build each at most once.
        steps: Dict[int, SuperOperator] = {}
        # prefix_i = η_i ∘ P¹ ∘ … ∘ η_1 ∘ P¹ ; the i = 0 prefix is the identity map.
        prefix = SuperOperator.identity(register.dimension)
        total = p0.compose(prefix)
        iterates.append(total)
        for iteration in range(1, options.max_iterations + 1):
            choice = scheduler.select(iteration, len(body_maps))
            step = steps.get(choice)
            if step is None:
                step = steps[choice] = body_maps[choice].compose(p1)
            prefix = _compressed(step.compose(prefix))
            increment = p0.compose(prefix)
            total = _compressed(total + increment)
            iterates.append(total)
            if increment.choi_trace() < options.convergence_tolerance:
                break
            # Once the prefix itself is (numerically) zero the loop can never
            # produce further contributions, e.g. for almost-surely terminating loops.
            if _probability_bound_below(prefix, options.convergence_tolerance):
                break
        chain_span.set_tag("iterations", len(iterates))
    return iterates


def _probability_bound_below(prefix: SuperOperator, tolerance: float) -> bool:
    """Return ``prefix.probability_bound() < tolerance``, eigensolving only when needed.

    The gram ``G = Σ K_i†K_i`` is positive semidefinite with trace
    ``t = Σ_i ‖K_i‖²_F``, so ``t/d ≤ λ_max(G) ≤ t``: ``t < tolerance``
    decides yes and ``t ≥ d · tolerance`` decides no.  Only a trace in
    between needs ``λ_max`` itself.
    """
    trace = prefix.choi_trace()
    if trace < tolerance:
        return True
    if trace >= prefix.dimension * tolerance:
        return False
    return prefix.probability_bound() < tolerance
