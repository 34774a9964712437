"""Lifted denotational semantics of nondeterministic quantum programs (Fig. 2).

The denotation ``[[S]]`` of a program is a *set* of trace non-increasing
super-operators over the Hilbert space of a register containing the program's
quantum variables:

* the four basic statements are deterministic and denote singletons;
* ``[[S0; S1]] = [[S1]] ∘ [[S0]]`` element-wise (the lifted model of Sec. 3.3.2);
  composition is associative, so each maximal run of consecutive unitary
  statements is first multiplied into one matrix and composed once;
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
entries, is never multiplied:
:meth:`~repro.superop.kraus.SuperOperator.compose_reset` copies the rows or
columns of the maps it meets, and the bare channel is that copy of the
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SemanticsError
from ..language.ast import Abort, If, Init, NDet, Program, Seq, Skip, Unitary, While
from ..linalg.tensor import embed_operator
from ..registers import QubitRegister
from ..superop.compare import deduplicate
from ..superop.kraus import SuperOperator
from ..telemetry.tracing import span
from .schedulers import ConstantScheduler, Scheduler, constant_schedulers, sample_schedulers

__all__ = [
    "DenotationOptions",
    "denotation",
    "apply_denotation",
    "loop_iterates",
    "measurement_superoperators",
    "initializer_channel",
    "initializer_adjoint",
]


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
        constant schedulers are used plus ``sampled_schedulers`` random ones,
        and a deterministic loop runs the single ``ConstantScheduler(0)``
        chain (see :func:`deterministic_loop_bypass`).
    sampled_schedulers:
        Number of additional pseudo-random schedulers to sample per loop.
    simplify_threshold:
        Kraus decompositions larger than this are re-canonicalised
        (:meth:`~repro.superop.kraus.SuperOperator.simplified`) to keep
        compositions tractable.
    dedup:
        Whether to remove duplicate super-operators from denotation sets.
    """

    max_iterations: int = 64
    convergence_tolerance: float = 1e-9
    schedulers: Optional[Sequence[Scheduler]] = None
    sampled_schedulers: int = 2
    simplify_threshold: int = 64
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
        return identity.compose_reset(register.positions(qubits), "rows")


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

    Returns a list of :class:`SuperOperator` on the full register.  Nothing
    is memoized across calls: a loop's prefix chains are shared among its
    schedulers within the call (see :func:`loop_iterates`) and dropped with it.
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
                combined.append(_maybe_simplify(total, options))
        return combined
    if isinstance(program, While):
        return _denote_while(program, register, options)
    raise SemanticsError(f"unknown program construct {type(program).__name__}")


def _denote_seq(
    statements: Sequence[Program], register: QubitRegister, options: DenotationOptions
) -> List[SuperOperator]:
    """Fold ``[[S_k]] ∘ ⋯ ∘ [[S_1]]`` over the steps of a sequential composition.

    ``Set0`` is never multiplied:
    :meth:`~repro.superop.kraus.SuperOperator.compose_reset` copies the rows
    of the maps composed so far for every ``Init`` step, and for an opening
    ``Init`` it copies the columns of the next step's maps, so
    ``q̄ := 0; U…`` costs one copy of ``U``'s columns instead of ``2^|q̄|``
    matrix products.  Every other step is composed with
    :meth:`~repro.superop.kraus.SuperOperator.compose`; both give the same
    operators in the same order.
    """
    steps = _seq_steps(statements, register, options)
    statement, current = next(steps)
    if isinstance(statement, Init):
        positions = register.positions(statement.qubits)
        statement, step = next(steps)  # a sequence has a second step after an Init
        if step is None:
            step = [initializer_channel(statement.qubits, register)]
        with span(
            "seq-compose",
            region="denotation",
            statement=type(statement).__name__,
            set_size=len(step),
        ):
            current = [
                _maybe_simplify(later.compose_reset(positions, "columns"), options)
                for later in step
            ]
    if options.dedup and len(current) > 1:
        current = deduplicate(current)
    for statement, step in steps:
        with span(
            "seq-compose",
            region="denotation",
            statement=type(statement).__name__,
            set_size=len(current) * (len(step) if step is not None else 1),
        ):
            if step is None:
                positions = register.positions(statement.qubits)
                current = [
                    _maybe_simplify(earlier.compose_reset(positions, "rows"), options)
                    for earlier in current
                ]
            else:
                current = [
                    _maybe_simplify(later.compose(earlier), options)
                    for earlier in current
                    for later in step
                ]
            if options.dedup and len(current) > 1:
                current = deduplicate(current)
    return current


def _seq_steps(
    statements: Sequence[Program], register: QubitRegister, options: DenotationOptions
) -> Iterator[Tuple[Program, Optional[List[SuperOperator]]]]:
    """Yield ``(statement, maps)`` for each step of a sequential composition.

    A maximal run of consecutive :class:`Unitary` statements is one step: the
    product ``U_k ⋯ U_1`` of their extensions, as one rank-one map, so the
    maps composed so far meet the run once instead of once per gate.  Each
    gate is folded into the running product by
    :meth:`~repro.registers.QubitRegister.apply`, which contracts only its
    own qubits.  Composition is associative, so the denoted set is
    unchanged; the run is reported by its last statement.  An :class:`Init`
    comes with no maps, since :func:`_denote_seq` applies it by copying.
    Every other statement is a step of its own denotation.
    """
    for is_run, group in groupby(statements, key=lambda statement: isinstance(statement, Unitary)):
        if not is_run:
            for statement in group:
                maps = None if isinstance(statement, Init) else _denote(statement, register, options)
                yield statement, maps
            continue
        product = register.identity()
        for statement in group:
            product = register.apply(statement.matrix, statement.qubits, product)
        yield statement, [SuperOperator([product], validate=False)]


# ---------------------------------------------------------------------------
# While loops
# ---------------------------------------------------------------------------


def _loop_schedulers(options, num_choices: int) -> List[Scheduler]:
    """Build the scheduler list for a loop from ``DenotationOptions`` or ``WpOptions``.

    Both option types expose ``schedulers`` and ``sampled_schedulers``; this is
    the single place the default exploration policy (one constant scheduler
    per branch plus sampled random ones) is defined.
    """
    schedulers = list(options.schedulers) if options.schedulers is not None else None
    if schedulers is None:
        schedulers = list(constant_schedulers(num_choices))
        if num_choices > 1 and options.sampled_schedulers > 0:
            schedulers.extend(sample_schedulers(options.sampled_schedulers))
    return schedulers


def deterministic_loop_bypass(program, body_maps, options) -> bool:
    """Return whether loop exploration can skip scheduler enumeration entirely.

    The fast path applies when the caller left the scheduler policy at its
    default (``options.schedulers is None``) and the loop is deterministic
    (:meth:`~repro.language.ast.Program.is_deterministic`: no
    nondeterministic choice anywhere, which also manifests as a single body
    denotation).  Every scheduler then resolves to the same chain, so the
    single ``ConstantScheduler(0)`` run is the whole semantics and sampling
    and fan-out are pure overhead.
    """
    if options.schedulers is not None or len(body_maps) != 1:
        return False
    return program.is_deterministic()


def _explore_loop(program, register, body_maps, options: DenotationOptions) -> List[SuperOperator]:
    """Run :func:`loop_iterates` for every scheduler and collect the chain limits."""
    if deterministic_loop_bypass(program, body_maps, options):
        with span(
            "loop",
            region="loop",
            schedulers=1,
            body_maps=len(body_maps),
            num_qubits=register.num_qubits,
        ) as loop_span:
            loop_span.set_tag("deterministic_bypass", True)
            iterates = loop_iterates(program, register, body_maps, ConstantScheduler(0), options)
            return [iterates[-1]]
    schedulers = _loop_schedulers(options, len(body_maps))
    with span(
        "loop",
        region="loop",
        schedulers=len(schedulers),
        body_maps=len(body_maps),
        num_qubits=register.num_qubits,
    ):
        # One prefix memo per loop and call: the schedulers share the chains
        # of their common choice prefixes, and nothing outlives the call.
        prefix_cache = {} if len(schedulers) > 1 else None
        results = []
        for scheduler in schedulers:
            iterates = loop_iterates(
                program, register, body_maps, scheduler, options, prefix_cache=prefix_cache
            )
            results.append(iterates[-1])
    return results


def _denote_while(
    program: While, register: QubitRegister, options: DenotationOptions
) -> List[SuperOperator]:
    body_maps = _denote(program.body, register, options)
    return _explore_loop(program, register, body_maps, options)


def loop_iterates(
    program: While,
    register: QubitRegister,
    body_maps: Sequence[SuperOperator],
    scheduler: Scheduler,
    options: DenotationOptions | None = None,
    prefix_cache: Optional[Dict[Tuple[int, ...], SuperOperator]] = None,
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

    ``body_maps`` are the loop body's denotations.

    ``prefix_cache``, when supplied, memoises the loop prefixes
    ``η_n ∘ P¹ ∘ … ∘ η_1 ∘ P¹`` keyed by the scheduler's choice sequence, so
    the ``F^η_n`` chains of different schedulers share the work of any common
    prefix (all schedulers share at least the empty prefix, and sampled
    schedulers frequently agree on longer ones) instead of recomputing every
    composition per scheduler.  Pass ``None`` (the default) when exploring a
    single scheduler: the chain is then computed with a rolling prefix and no
    history is retained.
    """
    options = options or DenotationOptions()
    p0, p1 = measurement_superoperators(program, register)
    identity = SuperOperator.identity(register.dimension)

    iterates: List[SuperOperator] = []
    with span("loop-chain", region="loop") as chain_span:
        # step_k = η_k ∘ P¹ is iteration-independent; build each at most once.
        steps: Dict[int, SuperOperator] = {}
        # prefix_i = η_i ∘ P¹ ∘ … ∘ η_1 ∘ P¹ ; the i = 0 prefix is the identity map.
        choices: Tuple[int, ...] = ()
        if prefix_cache is not None:
            prefix = prefix_cache.setdefault(choices, identity)
        else:
            prefix = identity
        total = p0.compose(prefix)
        iterates.append(total)
        for iteration in range(1, options.max_iterations + 1):
            choice = scheduler.select(iteration, len(body_maps))
            choices = choices + (choice,)
            cached = prefix_cache.get(choices) if prefix_cache is not None else None
            if cached is None:
                step = steps.get(choice)
                if step is None:
                    step = steps.setdefault(choice, body_maps[choice].compose(p1))
                cached = _maybe_simplify(step.compose(prefix), options)
                if prefix_cache is not None:
                    prefix_cache[choices] = cached
            prefix = cached
            increment = p0.compose(prefix)
            total = _maybe_simplify(total + increment, options)
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


def _maybe_simplify(channel: SuperOperator, options: DenotationOptions) -> SuperOperator:
    """Re-canonicalise a map whose Kraus operator count exploded."""
    if len(channel.kraus_operators) > options.simplify_threshold:
        return channel.simplified()
    return channel
