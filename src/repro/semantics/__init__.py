"""Semantics of nondeterministic quantum programs (S4, S5, S8).

* :mod:`repro.semantics.denotational` — the lifted denotational semantics of Fig. 2;
* :mod:`repro.semantics.wp` — the weakest (liberal) precondition transformers of Fig. 5;
* :mod:`repro.semantics.schedulers` — schedulers resolving loop-body nondeterminism;
* :mod:`repro.semantics.classical` — the classical probabilistic substrate used to
  reproduce the relational-vs-lifted model analysis of Sec. 3.3.2;
* :mod:`repro.semantics.equivalence` — semantic equality and refinement of programs.

The engines compute with Kraus-form super-operators on one serial path, and
every statement reaches the register as its dense cylinder extension.
"""

from .classical import (
    Distribution,
    LiftedProgram,
    RelationalProgram,
    distribution_sets_equal,
    distributions_equal,
    lifted_compose,
    relational_compose,
)
from .denotational import (
    DenotationOptions,
    apply_denotation,
    denotation,
    loop_iterates,
    measurement_superoperators,
)
from .equivalence import common_register, program_refines, programs_equivalent
from .schedulers import (
    ConstantScheduler,
    CyclicScheduler,
    FunctionScheduler,
    RandomScheduler,
    Scheduler,
    constant_schedulers,
    sample_schedulers,
)
from .wp import weakest_liberal_precondition, weakest_precondition

__all__ = [name for name in dir() if not name.startswith("_")]
