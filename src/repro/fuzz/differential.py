"""Cross-representation differential oracle for generated programs.

Each program drawn by :mod:`repro.fuzz.generator` is resolved through the
standard front end (:func:`repro.assistant.verify.build_task`) and then run
through

* the denotation engine (:func:`repro.semantics.denotational.denotation`) and
* the wlp transformer
  (:func:`repro.semantics.wp.weakest_liberal_precondition`)

under both liftings (``dense`` and ``local``, the two oracle cells).  The two
runs must agree: denotation sets up to ``ATOL`` on their Choi signatures
(:func:`repro.superop.compare.set_equal`), wlp assertions up to ``ATOL`` on
their predicate matrices, for loop-free and loop draws alike.  Loop-free draws
additionally check the prover's verification condition
(:meth:`repro.logic.prover.Prover.generate`) against the semantic wlp — the
relative-completeness equality of Sec. 5 that PR 4 repaired for (Meas).

The process-wide result cache is cleared before every cell run, so each cell
computes every subterm itself instead of replaying entries that an earlier
draw stored for a digest-equal subterm.

Any disagreement is reported as a :class:`Divergence` carrying the rendered
source and the copy-pasteable repro line
``python tools/fuzz.py --seed S --index I --shrink``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..assistant.verify import build_task
from ..cache import clear_result_cache
from ..language.names import OperatorEnvironment, default_environment
from ..linalg.constants import ATOL
from ..logic.formula import CorrectnessMode
from ..logic.prover import Prover, ProverOptions
from ..predicates.assertion import QuantumAssertion
from ..semantics.denotational import LIFTINGS, DenotationOptions, denotation
from ..semantics.wp import WpOptions, weakest_liberal_precondition
from ..superop.compare import set_equal
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
    liftings:
        The oracle cells to sweep, one per lifting name.
    atol:
        Agreement tolerance between cells.  Both cells measure loop
        convergence on the same Choi matrices, so loop draws are compared
        at the same tolerance as loop-free ones.
    max_iterations / convergence_tolerance / sampled_schedulers:
        Forwarded to :class:`DenotationOptions` / :class:`WpOptions`;
        ``max_iterations`` defaults below the engine's 64 to keep a
        200-program sweep fast.
    check_prover:
        Whether to compare the prover's verification condition against the
        semantic wlp on loop-free draws.
    clear_cache:
        Clear the process-wide result cache before each cell run, so every
        cell computes each subterm itself rather than replaying an entry an
        earlier draw stored for a digest-equal subterm.
    """

    liftings: Tuple[str, ...] = LIFTINGS
    atol: float = ATOL
    max_iterations: int = 24
    convergence_tolerance: float = 1e-9
    sampled_schedulers: int = 2
    check_prover: bool = True
    clear_cache: bool = True


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement, self-contained enough to reproduce.

    ``kind`` is ``"denotation"`` / ``"wlp"`` (the two cells disagree),
    ``"prover"`` (verification condition vs semantic wlp) or ``"error"``
    (a cell raised).  ``combo_a`` / ``combo_b`` name the cells compared.
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
    """Aggregate outcome of a differential sweep over a batch of programs."""

    seed: int
    programs_checked: int = 0
    loop_free: int = 0
    with_loops: int = 0
    prover_checked: int = 0
    liftings: Tuple[str, ...] = ()
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
            "liftings": list(self.liftings),
            "divergence_count": len(self.divergences),
            "divergences": [divergence.to_dict() for divergence in self.divergences],
        }


def repro_line(seed: int, index: int) -> str:
    """Return the single-line driver invocation reproducing one batch member."""
    return f"python tools/fuzz.py --seed {seed} --index {index} --shrink"


def _assertions_close(a: QuantumAssertion, b: QuantumAssertion, atol: float) -> bool:
    """Set-compare two assertions on their predicate matrices to ``atol``.

    :meth:`QuantumAssertion.set_equal` compares at the fixed ``ORDER_ATOL``;
    the oracle needs the tolerance to follow :class:`OracleConfig`, so the
    mutual-inclusion check is redone here on the raw matrices.
    """
    if a.dimension != b.dimension:
        return False
    mats_a = [np.asarray(p.matrix) for p in a.predicates]
    mats_b = [np.asarray(p.matrix) for p in b.predicates]
    forward = all(
        any(np.allclose(ma, mb, atol=atol, rtol=0.0) for mb in mats_b) for ma in mats_a
    )
    backward = all(
        any(np.allclose(ma, mb, atol=atol, rtol=0.0) for ma in mats_a) for mb in mats_b
    )
    return forward and backward


def _cell_run(program, postcondition, register, lifting: str, config: OracleConfig):
    """Run denotation + wlp for one cell, returning ``(channels, wlp)``."""
    if config.clear_cache:
        clear_result_cache()
    den_options = DenotationOptions(
        max_iterations=config.max_iterations,
        convergence_tolerance=config.convergence_tolerance,
        sampled_schedulers=config.sampled_schedulers,
        lifting=lifting,
    )
    wp_options = WpOptions(
        max_iterations=config.max_iterations,
        convergence_tolerance=config.convergence_tolerance,
        sampled_schedulers=config.sampled_schedulers,
        lifting=lifting,
    )
    channels = denotation(program, register, den_options)
    wlp = weakest_liberal_precondition(program, postcondition, register, wp_options)
    return channels, wlp


def check_program(
    fuzz_program: FuzzProgram,
    config: Optional[OracleConfig] = None,
    environment: Optional[OperatorEnvironment] = None,
) -> List[Divergence]:
    """Run every oracle cell on one generated program and compare the results.

    Returns the (possibly empty) list of divergences; this is the predicate
    the shrinker re-checks after every candidate reduction.
    """
    config = config or OracleConfig()
    environment = environment or default_environment()
    seed, index = fuzz_program.seed, fuzz_program.index
    source = fuzz_program.source()

    task = build_task(source, environment)
    program = task.formula.program
    postcondition = task.formula.postcondition
    register = task.register
    has_loop = fuzz_program.contains_while()

    divergences: List[Divergence] = []
    results: List[Tuple[str, List, QuantumAssertion]] = []
    for lifting in config.liftings:
        try:
            channels, wlp = _cell_run(program, postcondition, register, lifting, config)
        except Exception as error:  # pragma: no cover - only on real engine bugs
            divergences.append(
                Divergence(
                    seed=seed,
                    index=index,
                    kind="error",
                    combo_a=lifting,
                    combo_b="",
                    detail=f"{type(error).__name__}: {error}",
                    source=source,
                )
            )
            continue
        results.append((lifting, channels, wlp))

    for (cell_a, chan_a, wlp_a), (cell_b, chan_b, wlp_b) in combinations(results, 2):
        if not set_equal(chan_a, chan_b, atol=config.atol):
            divergences.append(
                Divergence(
                    seed=seed,
                    index=index,
                    kind="denotation",
                    combo_a=cell_a,
                    combo_b=cell_b,
                    detail=(
                        f"denotation sets differ (|a|={len(chan_a)}, |b|={len(chan_b)}, "
                        f"atol={config.atol:g})"
                    ),
                    source=source,
                )
            )
        if not _assertions_close(wlp_a, wlp_b, atol=config.atol):
            divergences.append(
                Divergence(
                    seed=seed,
                    index=index,
                    kind="wlp",
                    combo_a=cell_a,
                    combo_b=cell_b,
                    detail=f"wlp assertions differ (atol={config.atol:g})",
                    source=source,
                )
            )

    if config.check_prover and not has_loop and results:
        lifting, _, wlp = results[0]
        if config.clear_cache:
            clear_result_cache()
        prover = Prover(
            register,
            mode=CorrectnessMode.PARTIAL,
            invariants=task.invariants,
            options=ProverOptions(lifting=lifting),
        )
        outline = prover.generate(program, postcondition)
        if not _assertions_close(outline.precondition, wlp, atol=config.atol):
            divergences.append(
                Divergence(
                    seed=seed,
                    index=index,
                    kind="prover",
                    combo_a=f"prover:{lifting}",
                    combo_b=f"wlp:{lifting}",
                    detail="prover verification condition differs from semantic wlp",
                    source=source,
                )
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
    report = DifferentialReport(seed=seed, liftings=tuple(config.liftings))
    for position, fuzz_program in enumerate(programs):
        divergences = check_program(fuzz_program, config, environment)
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
