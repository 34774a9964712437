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
relative-completeness equality of Sec. 5.

Loop draws are not compared across engines: each engine truncates a loop on
its own stopping rule, so on loops the two agree only up to the mass the
truncation drops, and that residual has no certified bound yet.  Instead
every ``while`` of a loop draw gets a termination check.  The certificate of
:mod:`repro.logic.ranking` runs with ``Θ̂ = {I}``; when it certifies with
residual ``r``, every cyclic scheduler of period at most 3 over the body's
choices must leave ``λ_max(T_w†(I)) ≤ r + ATOL`` after its first ``HORIZON``
choices ``w``, with ``T_k = E_k ∘ P¹`` folded directly from the body maps.
A loop the certificate refuses (at the horizon or over budget) is counted in
the report, not treated as a divergence.

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
from ..logic.ranking import HORIZON, synthesize_ranking
from ..predicates.assertion import QuantumAssertion
from ..semantics.denotational import DenotationOptions, denotation, measurement_superoperators
from ..semantics.wp import WpOptions, weakest_liberal_precondition
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
        """Whether the stored program has a loop (loop draws skip the duality and prover checks)."""
        return "while " in self.text


@dataclass(frozen=True)
class OracleConfig:
    """Tolerances and scope of one differential run.

    Attributes
    ----------
    atol:
        Agreement tolerance of the duality and prover checks, entrywise on
        predicate matrices.  Both checks are exact on loop-free draws, so
        the library tolerance ``ATOL`` is all the slack they get.
    max_iterations / convergence_tolerance / sampled_schedulers:
        Forwarded to :class:`DenotationOptions` / :class:`WpOptions`;
        ``max_iterations`` defaults below the engine's 64 to keep a
        200-program sweep fast.
    check_prover:
        Whether to compare the prover's verification condition against the
        semantic wlp on loop-free draws.
    """

    atol: float = ATOL
    max_iterations: int = 24
    convergence_tolerance: float = 1e-9
    sampled_schedulers: int = 2
    check_prover: bool = True


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement, self-contained enough to reproduce.

    ``kind`` is ``"duality"`` (the wlp differs from the one the denotation
    implies), ``"prover"`` (verification condition vs semantic wlp),
    ``"termination"`` (a cyclic scheduler keeps more weight inside a loop
    than its termination certificate allows) or ``"error"`` (an engine
    raised).  ``combo_a`` / ``combo_b`` name the two
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
    """

    seed: int
    programs_checked: int = 0
    loop_free: int = 0
    with_loops: int = 0
    prover_checked: int = 0
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
            "prover_checked": self.prover_checked,
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


def _loop_options(config: OracleConfig) -> Dict:
    """Return the loop-truncation options both engines share."""
    return dict(
        max_iterations=config.max_iterations,
        convergence_tolerance=config.convergence_tolerance,
        sampled_schedulers=config.sampled_schedulers,
    )


def _engine_run(program, postcondition, register, config: OracleConfig):
    """Run denotation + wlp once, returning ``(channels, wlp)``."""
    loop_options = _loop_options(config)
    channels = denotation(program, register, DenotationOptions(**loop_options))
    wlp = weakest_liberal_precondition(program, postcondition, register, WpOptions(**loop_options))
    return channels, wlp


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


def _termination_check(loop: While, register, options: DenotationOptions, outcomes: Counter):
    """Certify ``loop`` with ``Θ̂ = {I}`` and replay the certificate on cyclic schedulers.

    Returns ``None`` when the certificate is refused or every cyclic
    scheduler stays within its residual, otherwise the detail of the first
    scheduler that keeps more weight inside.
    """
    identity = QuantumAssertion.identity(register.num_qubits)
    certificate = synthesize_ranking(loop, identity, register, options=options)
    outcomes[certificate.outcome] += 1
    if not certificate.certified:
        return None
    body_maps = denotation(loop.body, register, options)
    _, p1 = measurement_superoperators(loop, register)
    for pattern in _cyclic_patterns(len(body_maps)):
        weight = np.eye(register.dimension, dtype=complex)
        for step in reversed(range(HORIZON)):
            weight = p1.apply_adjoint(body_maps[pattern[step % len(pattern)]].apply_adjoint(weight))
        top = float(np.linalg.eigvalsh(weight)[-1])
        if top > certificate.residual + ATOL:
            return (
                f"cyclic scheduler {list(pattern)} keeps weight {top:.3e} inside the loop after "
                f"{HORIZON} iterations; the certificate allows {certificate.residual:.3e}"
            )
    return None


def check_program(
    fuzz_program: FuzzProgram,
    config: Optional[OracleConfig] = None,
    environment: Optional[OperatorEnvironment] = None,
) -> List[Divergence]:
    """Run both engines on one generated program and cross-check the results.

    Returns the (possibly empty) list of divergences; this is the predicate
    the shrinker re-checks after every candidate reduction.
    """
    return _check(fuzz_program, config or OracleConfig(), environment, Counter())


def _check(
    fuzz_program: FuzzProgram,
    config: OracleConfig,
    environment: Optional[OperatorEnvironment],
    outcomes: Counter,
) -> List[Divergence]:
    """:func:`check_program`, counting the termination certificates in ``outcomes``."""
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
        channels, wlp = _engine_run(program, postcondition, register, config)
    except Exception as error:  # pragma: no cover - only on real engine bugs
        diverge("error", "denotation+wlp", "", f"{type(error).__name__}: {error}")
        return divergences
    if fuzz_program.contains_while():
        options = DenotationOptions(**_loop_options(config))
        for loop in (node for node in program.walk() if isinstance(node, While)):
            detail = _termination_check(loop, register, options, outcomes)
            if detail is not None:
                diverge("termination", "certificate", "cyclic scheduler", detail)
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
        divergences = _check(fuzz_program, config, environment, report.loops)
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
