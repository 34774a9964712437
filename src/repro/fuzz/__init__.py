"""Program fuzzing and differential testing of the semantic engines.

The package is the test-infrastructure spine behind ``tools/fuzz.py`` and the
``tests/test_fuzz_differential.py`` sweep:

* :mod:`repro.fuzz.generator` — a seeded, size-bounded generator of
  well-typed nondeterministic quantum programs in ``.nqpv`` surface syntax,
  drawing over the full AST (init / unitary / conditional / nondeterministic
  choice / while-with-invariant) under qubit-count and depth budgets with a
  Clifford-only bias knob;
* :mod:`repro.fuzz.differential` — the oracle: every generated program is run
  through the denotation engine and the wlp transformer; on loop-free draws
  the wlp must be the dual ``{E†(Q) + I − E†(I) : E ∈ [[S]]}`` of the
  denotation to ``ATOL`` and the prover's verification condition must equal
  the semantic wlp, while every loop of a loop draw gets a termination
  check and a draw whose top-level loops are all certified a one-sided
  duality check;
* :mod:`repro.fuzz.shrink` — a delta-debugging shrinker (statement deletion,
  branch collapsing, qubit removal) that minimises a failing program while
  re-checking the oracle at every step.

Divergences found by the driver are promoted to ``tests/regressions/`` as a
``.nqpv`` + expected-result pair and replayed by the regression loader test
forever after.
"""

from .differential import (
    DifferentialReport,
    Divergence,
    OracleConfig,
    ReplayProgram,
    run_differential,
)
from .generator import (
    FuzzProgram,
    GeneratorConfig,
    generate_batch,
    generate_program,
)
from .shrink import shrink

__all__ = [
    "DifferentialReport",
    "Divergence",
    "FuzzProgram",
    "GeneratorConfig",
    "OracleConfig",
    "ReplayProgram",
    "generate_batch",
    "generate_program",
    "run_differential",
    "shrink",
]
