"""Differential oracle for generated programs: denotation against wlp.

Each program drawn by :mod:`repro.fuzz.generator` is resolved through the
standard front end (:func:`repro.assistant.verify.build_task`) and then run
through two engines that share no code path above the super-operator layer:

* the denotation engine (:func:`repro.semantics.denotational.denotation`),
  which composes Kraus maps forward, and
* the wlp transformer
  (:func:`repro.semantics.wp.weakest_liberal_precondition`), which rewrites
  predicates backward by structural recursion.

On a loop-free draw the two are dual: for the postcondition ``Θ`` the
structural ``wlp.S.Θ`` must equal ``{E†(Q) + I − E†(I) : E ∈ [[S]], Q ∈ Θ}``
up to ``ATOL`` on the predicate matrices.  This is the partial-correctness
reading of Def. 4.2 and it is exact for loop-free programs (Lemma A.1).
Loop-free draws also check the prover's verification condition
(:meth:`repro.logic.prover.Prover.generate`) against the semantic wlp — the
relative-completeness equality of Sec. 5 — and decide ``VC ⊑_inf wlp`` and
``wlp ⊑_inf VC`` with :func:`repro.predicates.order.leq_inf` at its default
precision.  Both must hold; a false verdict, or an interval the order
decision cannot place on one side of ``ε``, is a divergence.

Every ``while`` of a loop draw gets a termination check.  The certificate
of :mod:`repro.logic.ranking` for ``Θ̂ = {I}`` is read off the loop's
``I``-seeded pass (:class:`~repro.semantics.wp.LoopAnalysis`, the wlp call's
for a top-level loop); when it certifies with residual ``r``, every cyclic
scheduler of period at most 3 over the body's choices must leave
``λ_max(T_w†(I)) ≤ r + ATOL`` after its first ``HORIZON`` choices ``w``, with
``T_k = E_k ∘ P¹`` folded directly from the body maps.
A loop the certificate refuses (at the horizon or over budget) is counted in
the report, not treated as a divergence.

Loop draws are compared too when every top-level loop (one not inside
another loop's body) is certified.  The wlp is the infimum over every
scheduler, so the check is one-sided: for each dual ``D = E†(Q) + I − E†(I)``
of the sampled denotation some wlp element ``M`` must have
``λ_max(M − D) ≤ slack``: ``atol`` plus, for each top-level loop, the largest
residual at which the wlp's pass over it stopped plus ``HORIZON·ATOL``, so a
pass that its antichain budget stops early is covered.  Truncating a chain
only raises its dual (``D_n = I − E_n†(I − Q)`` falls as ``E_n`` grows), so
the oracle's truncation needs no slack.

Any disagreement is reported as a :class:`Divergence` carrying the rendered
source and the copy-pasteable repro line
``python tools/fuzz.py --seed S --index I --shrink``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..assistant.verify import build_task
from ..language.ast import While
from ..language.names import OperatorEnvironment, default_environment
from ..linalg.constants import ATOL
from ..logic.formula import CorrectnessMode
from ..logic.prover import Prover
from ..logic.ranking import HORIZON, _threshold
from ..predicates.assertion import QuantumAssertion
from ..predicates.order import leq_inf
from ..semantics.denotational import DenotationOptions, denotation
from ..semantics.wp import LoopAnalysis, _transform
from .generator import FuzzProgram

__all__ = [
    "OracleConfig",
    "Divergence",
    "DifferentialReport",
    "ReplayProgram",
    "check_program",
    "run_differential",
    "repro_line",
]


@dataclass(frozen=True)
class ReplayProgram:
    """Adapter replaying promoted ``.nqpv`` regression text through the oracle.

    Promoted corpus entries under ``tests/regressions/`` store rendered
    source, not generator IR; this wraps the text in the minimal interface
    :func:`check_program` consumes (``source()``, ``contains_while()``,
    ``seed``, ``index``).
    """

    text: str
    seed: int
    index: int

    def source(self) -> str:
        """Return the stored program text verbatim."""
        return self.text

    def contains_while(self) -> bool:
        """Whether the stored program has a loop (loop draws skip the prover check)."""
        return "while " in self.text


@dataclass(frozen=True)
class OracleConfig:
    """Tolerances and scope of one differential run.

    Attributes
    ----------
    atol:
        Agreement tolerance of the duality and prover checks, entrywise on
        predicate matrices.  Both checks are exact on loop-free draws, so
        the library tolerance ``ATOL`` is all the slack they get; on loop
        draws the one-sided duality check adds the certified residuals.
    max_iterations:
        Forwarded to :class:`DenotationOptions` (the wlp covers every
        scheduler and takes none); it defaults below the engine's 64 to
        keep a 200-program sweep fast.
    check_prover:
        Whether to compare the prover's verification condition against the
        semantic wlp on loop-free draws.
    """

    atol: float = ATOL
    max_iterations: int = 24
    check_prover: bool = True


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement, self-contained enough to reproduce.

    ``kind`` is ``"duality"`` (the wlp differs from the one the denotation
    implies), ``"prover"`` (verification condition vs semantic wlp),
    ``"order"`` (``VC ⊑_inf wlp`` or ``wlp ⊑_inf VC`` is refused, or its
    decision raised), ``"termination"`` (a cyclic scheduler keeps more
    weight inside a loop than its termination certificate allows) or
    ``"error"`` (an engine raised).  ``combo_a`` / ``combo_b`` name the two
    results compared; an ``"error"`` names the failing run in ``combo_a``.
    """

    seed: int
    index: int
    kind: str
    combo_a: str
    combo_b: str
    detail: str
    source: str

    @property
    def repro(self) -> str:
        """Return the copy-pasteable driver invocation reproducing this finding."""
        return repro_line(self.seed, self.index)

    def to_dict(self) -> Dict:
        """Return the JSON-serialisable form used by the driver's report."""
        return {
            "seed": self.seed,
            "index": self.index,
            "kind": self.kind,
            "combo_a": self.combo_a,
            "combo_b": self.combo_b,
            "detail": self.detail,
            "repro": self.repro,
            "source": self.source,
        }


@dataclass
class DifferentialReport:
    """Aggregate outcome of a differential sweep over a batch of programs.

    ``loops`` counts the termination certificates of the loops in loop
    draws by outcome: ``"certified"``, ``"horizon"`` or ``"budget"``.
    ``loop_draws_compared`` counts the loop draws whose wlp was compared
    with the denotation: those whose top-level loops were all certified.
    ``order_decisions`` counts the ``⊑_inf`` decisions between verification
    conditions and wlps: two per loop-free draw when the prover is checked.
    ``denotation_maps`` and ``kraus_operators`` sum the maps of each draw's
    denotation and their Kraus operators, so a change to deduplication or
    compression shows in the report.
    """

    seed: int
    programs_checked: int = 0
    loop_free: int = 0
    with_loops: int = 0
    loop_draws_compared: int = 0
    prover_checked: int = 0
    order_decisions: int = 0
    denotation_maps: int = 0
    kraus_operators: int = 0
    loops: Counter = field(default_factory=Counter)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Return ``True`` when the sweep found no divergence."""
        return not self.divergences

    def to_dict(self) -> Dict:
        """Return the JSON-serialisable form used by the driver's report."""
        return {
            "seed": self.seed,
            "programs_checked": self.programs_checked,
            "loop_free": self.loop_free,
            "with_loops": self.with_loops,
            "loop_draws_compared": self.loop_draws_compared,
            "prover_checked": self.prover_checked,
            "order_decisions": self.order_decisions,
            "denotation_maps": self.denotation_maps,
            "kraus_operators": self.kraus_operators,
            "loops": dict(self.loops),
            "divergence_count": len(self.divergences),
            "divergences": [divergence.to_dict() for divergence in self.divergences],
        }


def repro_line(seed: int, index: int) -> str:
    """Return the single-line driver invocation reproducing one batch member."""
    return f"python tools/fuzz.py --seed {seed} --index {index} --shrink"


def _matrices(assertion: QuantumAssertion) -> List[np.ndarray]:
    """Return the predicate matrices of an assertion."""
    return [np.asarray(predicate.matrix) for predicate in assertion.predicates]


def _matrix_sets_close(a: List[np.ndarray], b: List[np.ndarray], atol: float) -> bool:
    """Set-compare two lists of predicate matrices by mutual inclusion at ``atol``.

    :meth:`QuantumAssertion.set_equal` compares at the fixed ``ORDER_ATOL``;
    the oracle needs the tolerance to follow :class:`OracleConfig`.
    """

    def included(xs, ys):
        return all(any(np.allclose(x, y, atol=atol, rtol=0.0) for y in ys) for x in xs)

    return included(a, b) and included(b, a)


def _dual_wlp(channels, postcondition: QuantumAssertion) -> List[np.ndarray]:
    """Return ``E†(Q) + I − E†(I)`` for every channel ``E`` and predicate ``Q`` of ``Θ``.

    For a loop-free program with ``channels = [[S]]`` this is ``wlp.S.Θ``
    (Def. 4.2, Lemma A.1), computed from the denotation instead of by
    structural recursion.
    """
    identity = np.eye(postcondition.dimension, dtype=complex)
    return [
        channel.apply_adjoint(predicate.matrix) + identity - channel.apply_adjoint(identity)
        for channel in channels
        for predicate in postcondition.predicates
    ]


def _engine_run(program, postcondition, register, config: OracleConfig):
    """Run denotation + wlp once: ``(channels, wlp, analyses)``, the wlp's by loop node id."""
    options = DenotationOptions(max_iterations=config.max_iterations)
    channels = denotation(program, register, options)
    analyses: Dict[int, LoopAnalysis] = {}
    wlp = _transform(program, postcondition, register, True, analyses)
    return channels, wlp, analyses


def _duality_excess(wlp: QuantumAssertion, duals: List[np.ndarray]) -> float:
    """Return ``max_D min_M λ_max(M − D)`` over the duals ``D`` and wlp elements ``M``."""
    elements = np.stack(_matrices(wlp))
    return max(float(np.linalg.eigvalsh(elements - dual)[:, -1].min()) for dual in duals)


def _cyclic_patterns(num_choices: int) -> List[Tuple[int, ...]]:
    """Return every scheduler pattern of period 1, 2 or 3 over ``num_choices`` branches.

    A constant pattern of length 2 or 3 repeats one of period 1, so it is skipped.
    """
    return [
        pattern
        for period in (1, 2, 3)
        for pattern in product(range(num_choices), repeat=period)
        if period == 1 or len(set(pattern)) > 1
    ]


def _certificate(analysis: LoopAnalysis) -> Tuple[str, float]:
    """Return ``(outcome, residual)`` of a loop's ``Θ̂ = {I}`` certificate at the default ``ε``.

    Its pass runs the levels of the ``I``-seeded pass: it stops at the first
    within its threshold, else where that pass stopped.
    """
    outcome, residuals = analysis.settle
    certified = [residual for residual in residuals if residual <= _threshold()]
    return ("certified", certified[0]) if certified else (outcome, residuals[-1])


def _termination_check(analysis: LoopAnalysis, register, outcomes: Counter):
    """Certify a loop with ``Θ̂ = {I}`` and replay the certificate on cyclic schedulers.

    Returns whether the loop is certified and ``None`` when it is refused or
    every cyclic scheduler stays within its residual, otherwise the detail
    of the first scheduler that keeps more weight inside.
    """
    outcome, residual = _certificate(analysis)
    outcomes[outcome] += 1
    if outcome != "certified":
        return False, None
    body_maps, p1 = analysis.body, analysis.p1
    for pattern in _cyclic_patterns(len(body_maps)):
        weight = np.eye(register.dimension, dtype=complex)
        for step in reversed(range(HORIZON)):
            weight = p1.apply_adjoint(body_maps[pattern[step % len(pattern)]].apply_adjoint(weight))
        top = float(np.linalg.eigvalsh(weight)[-1])
        if top > residual + ATOL:
            return True, (
                f"cyclic scheduler {list(pattern)} keeps weight {top:.3e} inside the loop after "
                f"{HORIZON} iterations; the certificate allows {residual:.3e}"
            )
    return True, None


def check_program(
    fuzz_program: FuzzProgram,
    config: Optional[OracleConfig] = None,
    environment: Optional[OperatorEnvironment] = None,
) -> List[Divergence]:
    """Run both engines on one generated program and cross-check the results.

    Returns the (possibly empty) list of divergences; this is the predicate
    the shrinker re-checks after every candidate reduction.
    """
    report = DifferentialReport(seed=fuzz_program.seed)
    return _check(fuzz_program, config or OracleConfig(), environment, report)


def _check(
    fuzz_program: FuzzProgram,
    config: OracleConfig,
    environment: Optional[OperatorEnvironment],
    report: DifferentialReport,
) -> List[Divergence]:
    """:func:`check_program`, counting certificates, order decisions and maps in ``report``."""
    environment = environment or default_environment()
    source = fuzz_program.source()

    task = build_task(source, environment)
    program = task.formula.program
    postcondition = task.formula.postcondition
    register = task.register

    divergences: List[Divergence] = []

    def diverge(kind: str, combo_a: str, combo_b: str, detail: str) -> None:
        divergences.append(
            Divergence(
                seed=fuzz_program.seed,
                index=fuzz_program.index,
                kind=kind,
                combo_a=combo_a,
                combo_b=combo_b,
                detail=detail,
                source=source,
            )
        )

    try:
        channels, wlp, analyses = _engine_run(program, postcondition, register, config)
    except Exception as error:  # pragma: no cover - only on real engine bugs
        diverge("error", "denotation+wlp", "", f"{type(error).__name__}: {error}")
        return divergences
    report.denotation_maps += len(channels)
    report.kraus_operators += sum(len(channel.kraus_operators) for channel in channels)
    if fuzz_program.contains_while():
        loops = [node for node in program.walk() if isinstance(node, While)]
        inner = {id(node) for loop in loops for node in loop.body.walk() if isinstance(node, While)}
        slack = config.atol
        for loop in loops:
            # The wlp analysed every top-level loop; only inner loops are analysed here.
            analysis = analyses.get(id(loop)) or LoopAnalysis(loop, register)
            certified, detail = _termination_check(analysis, register, report.loops)
            if detail is not None:
                diverge("termination", "certificate", "cyclic scheduler", detail)
            if id(loop) not in inner:
                # A refused top-level loop leaves the draw uncompared.
                slack += analysis.stop_residual + HORIZON * ATOL if certified else np.inf
        if slack < np.inf:
            report.loop_draws_compared += 1
            excess = _duality_excess(wlp, _dual_wlp(channels, postcondition))
            if excess > slack:
                diverge(
                    "duality",
                    "wlp",
                    "denotation",
                    f"a dual E†(Q) + I − E†(I) of [[S]] is below every wlp element M: "
                    f"min λ_max(M − D) = {excess:.3e} exceeds the certified slack {slack:.3e}",
                )
        return divergences

    if not _matrix_sets_close(_matrices(wlp), _dual_wlp(channels, postcondition), config.atol):
        diverge(
            "duality",
            "wlp",
            "denotation",
            f"wlp.S.Θ differs from {{E†(Q) + I − E†(I) : E ∈ [[S]]}} over "
            f"{len(channels)} channel(s) (atol={config.atol:g})",
        )
    if config.check_prover:
        prover = Prover(register, mode=CorrectnessMode.PARTIAL, invariants=task.invariants)
        outline = prover.generate(program, postcondition)
        if not _matrix_sets_close(_matrices(outline.precondition), _matrices(wlp), config.atol):
            diverge(
                "prover",
                "prover",
                "wlp",
                "prover verification condition differs from semantic wlp",
            )
        vc = outline.precondition
        for name_a, lower, name_b, upper in (
            ("prover", vc, "wlp", wlp),
            ("wlp", wlp, "prover", vc),
        ):
            report.order_decisions += 1
            try:
                holds = leq_inf(lower, upper).holds
            except Exception as error:  # an undecided interval or a solver bug
                diverge("order", name_a, name_b, f"{type(error).__name__}: {error}")
                continue
            if not holds:
                diverge("order", name_a, name_b, f"{name_a} ⊑_inf {name_b} does not hold")
    return divergences


def run_differential(
    programs: Sequence[FuzzProgram],
    config: Optional[OracleConfig] = None,
    environment: Optional[OperatorEnvironment] = None,
    on_program: Optional[Callable[[int, FuzzProgram, List[Divergence]], None]] = None,
) -> DifferentialReport:
    """Sweep the oracle over a batch of programs and aggregate a report.

    ``on_program`` is an optional progress callback invoked after each
    program with ``(position, program, divergences)`` — the driver uses it
    to stream repro lines as soon as a finding appears.
    """
    config = config or OracleConfig()
    environment = environment or default_environment()
    seed = programs[0].seed if programs else 0
    report = DifferentialReport(seed=seed)
    for position, fuzz_program in enumerate(programs):
        divergences = _check(fuzz_program, config, environment, report)
        report.programs_checked += 1
        if fuzz_program.contains_while():
            report.with_loops += 1
        else:
            report.loop_free += 1
            if config.check_prover:
                report.prover_checked += 1
        report.divergences.extend(divergences)
        if on_program is not None:
            on_program(position, fuzz_program, divergences)
    return report
