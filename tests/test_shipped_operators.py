"""Every gate and measurement the library ships passes the absolute operator checks.

``is_unitary``, ``is_projector`` and the completeness check of
:class:`~repro.language.ast.Measurement` compare entries with their ``atol``
alone, with no relative term.  These cases pin that no gate or measurement
of the default environment or of the program families is rejected by them:
each gate's ``|U†U − I|`` stays within ``ATOL`` in every entry.
"""

import numpy as np
import pytest

from repro.language.ast import If, Unitary, While
from repro.language.names import default_environment
from repro.linalg.constants import ATOL, NAMED_GATES, ORDER_ATOL
from repro.linalg.operators import dagger, is_projector, is_unitary, operators_close
from repro.programs import (
    apply_noise,
    deutsch_program,
    errcorr_program,
    grover_program,
    nondeterministic_rus_program,
    qwalk_program,
    teleport_program,
)

#: The unitary operators of ``default_environment()``: the named gates and the identities.
UNITARY_NAMES = sorted(NAMED_GATES) + ["I2", "I4", "I8"]

#: Its predicates, which are not unitary.
PREDICATE_NAMES = ["P0", "P1", "Pm", "Pp", "Zero", "Zero4", "Zero8"]

#: Its measurements.
MEASUREMENT_NAMES = ["M", "M01", "MQWalk", "Mpm"]

#: The programs whose every gate and measurement is checked.
PROGRAMS = {
    "grover-7-gates": lambda: grover_program(7, layout="gates"),
    "grover-7": lambda: grover_program(7),
    "qwalk-64": lambda: qwalk_program(64),
    "errcorr-5": lambda: errcorr_program(5),
    "deutsch": deutsch_program,
    "teleport": teleport_program,
    "rus-ndet": nondeterministic_rus_program,
    "damped-teleport": lambda: apply_noise(teleport_program(), "amplitude_damping", 0.05)[0],
    "damped-rus-ndet": lambda: apply_noise(
        nondeterministic_rus_program(), "amplitude_damping", 0.05
    )[0],
}


def _assert_unitary(matrix, label):
    matrix = np.asarray(matrix, dtype=complex)
    residual = np.abs(dagger(matrix) @ matrix - np.eye(len(matrix))).max()
    assert residual <= ATOL, (label, residual)
    assert is_unitary(matrix), label


def _assert_measurement(measurement, label):
    assert is_projector(measurement.p0) and is_projector(measurement.p1), label
    identity = np.eye(len(measurement.p0))
    assert operators_close(measurement.p0 + measurement.p1, identity, atol=ORDER_ATOL), label


def test_every_name_of_the_default_environment_is_classified():
    names = UNITARY_NAMES + PREDICATE_NAMES + MEASUREMENT_NAMES
    assert sorted(default_environment().names()) == sorted(names)


@pytest.mark.parametrize("name", UNITARY_NAMES)
def test_default_environment_gate_is_unitary(name):
    _assert_unitary(default_environment().operator(name), name)


@pytest.mark.parametrize("name", MEASUREMENT_NAMES)
def test_default_environment_measurement_passes(name):
    _assert_measurement(default_environment().measurement(name), name)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_gate_and_measurement_of_a_family_passes(name):
    nodes = list(PROGRAMS[name]().walk())
    gates = [node for node in nodes if isinstance(node, Unitary)]
    assert gates, name
    for gate in gates:
        _assert_unitary(gate.matrix, (name, gate.name))
    for node in nodes:
        if isinstance(node, (If, While)):
            _assert_measurement(node.measurement, (name, node.measurement.name))
