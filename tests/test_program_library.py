"""Semantic laws checked on every program of the case-study library.

For every program shipped in :mod:`repro.programs` the wp/wlp preconditions
must be the adjoints of the denotation (Lemma A.1), and the
program must obey the algebraic laws of the lifted semantics: demonic choice
is idempotent, ``skip`` is a unit of sequencing, and a program refines its
choice with ``abort``.  Termination is checked against what the paper states
for each case study: every program terminates almost surely except the
nondeterministic quantum walk, which never terminates (Sec. 5.3).
"""

import numpy as np
import pytest

from repro.language.ast import Abort, Skip, ndet, seq
from repro.linalg.constants import ATOL
from repro.linalg.random import random_predicate_matrix
from repro.predicates.assertion import QuantumAssertion
from repro.programs import (
    deutsch_program,
    errcorr_program,
    grover_program,
    nondeterministic_rus_program,
    phaseflip_program,
    qwalk_program,
    rus_program,
    teleport_program,
)
from repro.registers import QubitRegister
from repro.semantics.denotational import denotation
from repro.semantics.equivalence import program_refines, programs_equivalent
from repro.semantics.wp import weakest_liberal_precondition, weakest_precondition
from repro.superop.compare import set_equal

#: Every program of the library, keyed for readable parametrised test ids.
PROGRAMS = {
    "deutsch": deutsch_program,
    "errcorr": errcorr_program,
    "errcorr4": lambda: errcorr_program(4),
    "grover2": lambda: grover_program(2),
    "grover3": lambda: grover_program(3),
    "grover3-gates": lambda: grover_program(3, layout="gates"),
    "grover4": lambda: grover_program(4),
    "grover4-gates": lambda: grover_program(4, layout="gates"),
    "phaseflip": phaseflip_program,
    "qwalk": qwalk_program,
    "qwalk8": lambda: qwalk_program(8),
    "rus": rus_program,
    "rus_ndet": nondeterministic_rus_program,
    "teleport": teleport_program,
}

#: Programs whose every run diverges: the walk never reaches the absorbing vertex.
NEVER_TERMINATING = {"qwalk", "qwalk8"}

TRANSFORMERS = {"wp": weakest_precondition, "wlp": weakest_liberal_precondition}


def _program_and_register(name):
    program = PROGRAMS[name]()
    return program, QubitRegister.for_program(program)


def _postcondition(register):
    return QuantumAssertion([random_predicate_matrix(register.dimension, seed=5)])


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("transformer", sorted(TRANSFORMERS))
def test_preconditions_are_adjoints_of_the_denotation(name, transformer):
    """Lemma A.1: ``wp.S.M = {E†(M)}`` and ``wlp.S.M = {E†(M) + I − E†(I)}``."""
    program, register = _program_and_register(name)
    post = _postcondition(register)
    (observable,) = [predicate.matrix for predicate in post.predicates]
    identity = np.eye(register.dimension, dtype=complex)
    expected = []
    for channel in denotation(program, register):
        adjoint = channel.apply_adjoint(observable)
        if transformer == "wlp":
            adjoint = adjoint + identity - channel.apply_adjoint(identity)
        expected.append(adjoint)
    pre = TRANSFORMERS[transformer](program, post, register)
    assert pre.set_equal(QuantumAssertion(expected))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_denotation_is_trace_preserving_unless_the_program_diverges(name):
    program, register = _program_and_register(name)
    maps = denotation(program, register)
    assert maps
    for channel in maps:
        assert channel.is_trace_nonincreasing()
        if name in NEVER_TERMINATING:
            assert channel.probability_bound() == pytest.approx(0.0, abs=1e-9)
        else:
            assert channel.is_trace_preserving(atol=1e-6)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_wp_and_wlp_coincide_exactly_when_the_program_terminates(name):
    program, register = _program_and_register(name)
    post = _postcondition(register)
    wp = weakest_precondition(program, post, register)
    wlp = weakest_liberal_precondition(program, post, register)
    if name in NEVER_TERMINATING:
        # Divergent runs satisfy every partial-correctness postcondition and
        # no total-correctness one.
        identity = np.eye(register.dimension)
        assert all(np.allclose(p.matrix, 0.0, atol=1e-8) for p in wp.predicates)
        assert all(np.allclose(p.matrix, identity, atol=1e-8) for p in wlp.predicates)
    else:
        assert wp.set_equal(wlp)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_choice_is_idempotent(name):
    program, _ = _program_and_register(name)
    doubled = ndet(program, program)
    assert programs_equivalent(doubled, program, atol=ATOL)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_skip_is_a_unit_of_sequencing(name):
    program, _ = _program_and_register(name)
    assert programs_equivalent(seq(Skip(), program), program, atol=ATOL)
    assert programs_equivalent(seq(program, Skip()), program, atol=ATOL)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_program_refines_its_choice_with_abort(name):
    program, _ = _program_and_register(name)
    widened = ndet(program, Abort())
    assert program_refines(program, widened, atol=ATOL)
    # The converse holds only when the program itself can denote ``abort``.
    assert program_refines(widened, program, atol=ATOL) == (name in NEVER_TERMINATING)
