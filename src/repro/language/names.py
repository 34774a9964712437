"""Operator environments: mapping identifiers to matrices and measurements.

The surface language (and the proof assistant built on top of it) refers to
unitary operators, hermitian predicates and measurements by name.  An
:class:`OperatorEnvironment` resolves those names, pre-populated with the
reserved identifiers of the NQPV prototype (``I``, ``X``, ``H``, ``CX``,
``Zero``, ``P0``, ``M01``, ...) and extensible with user definitions, including
operators loaded from ``.npy`` files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable

import numpy as np

from ..exceptions import NameResolutionError
from ..linalg import constants
from ..linalg.operators import is_predicate_matrix, is_projector
from .ast import MEAS_COMPUTATIONAL, MEAS_PLUS_MINUS, Measurement

__all__ = ["OperatorEnvironment", "default_environment"]


def _qwalk_measurement() -> Measurement:
    """The absorbing-boundary measurement of the quantum walk (Sec. 5.3), with read-only projectors."""
    p0 = np.zeros((4, 4), dtype=complex)
    p0[2, 2] = 1.0  # |10⟩⟨10|
    p1 = np.eye(4, dtype=complex) - p0
    for projector in (p0, p1):
        projector.setflags(write=False)
    return Measurement("MQWalk", p0, p1)


class OperatorEnvironment:
    """A namespace of operators and measurements usable from program text."""

    def __init__(self, operators: Dict[str, np.ndarray] | None = None,
                 measurements: Dict[str, Measurement] | None = None):
        self._operators: Dict[str, np.ndarray] = {}
        self._measurements: Dict[str, Measurement] = {}
        for name, matrix in (operators or {}).items():
            self.define(name, matrix)
        for name, measurement in (measurements or {}).items():
            self.define_measurement(name, measurement)

    # --------------------------------------------------------------- mutation
    def define(self, name: str, matrix: np.ndarray) -> None:
        """Register a named operator (unitary, predicate, projector, ...).

        The environment keeps a read-only copy, so writing into ``matrix``
        afterwards changes neither the environment nor the programs parsed
        with it; a read-only complex array is kept as it is.
        """
        if not name or not name.isidentifier():
            raise NameResolutionError(f"invalid operator name {name!r}")
        if not (
            isinstance(matrix, np.ndarray) and matrix.dtype == complex and not matrix.flags.writeable
        ):
            matrix = np.array(matrix, dtype=complex)
            matrix.setflags(write=False)
        self._operators[name] = matrix

    def define_measurement(self, name: str, measurement: Measurement) -> None:
        """Register a named two-outcome measurement."""
        if not name or not name.isidentifier():
            raise NameResolutionError(f"invalid measurement name {name!r}")
        self._measurements[name] = measurement

    def define_measurement_from_projector(self, name: str, projector: np.ndarray) -> None:
        """Register the measurement ``{P, I − P}`` determined by a projector ``P``."""
        projector = np.asarray(projector, dtype=complex)
        if not is_projector(projector):
            raise NameResolutionError(f"{name!r}: a measurement projector is required")
        complement = np.eye(projector.shape[0], dtype=complex) - projector
        self.define_measurement(name, Measurement(name, projector, complement))

    def load(self, name: str, path: str | Path) -> None:
        """Load an operator from a ``.npy`` file, mirroring NQPV's ``load`` command."""
        matrix = np.load(Path(path))
        self.define(name, matrix)

    def update(self, operators: Dict[str, np.ndarray]) -> None:
        """Register several operators at once."""
        for name, matrix in operators.items():
            self.define(name, matrix)

    # ----------------------------------------------------------------- lookup
    def __contains__(self, name: str) -> bool:
        return name in self._operators or name in self._measurements

    def names(self) -> Iterable[str]:
        """Return all defined names (operators first, then measurements)."""
        return list(self._operators) + list(self._measurements)

    def operator(self, name: str) -> np.ndarray:
        """Return the matrix registered under ``name``."""
        return self._lookup(name, "operator", "QV104")

    def predicate(self, name: str, num_qubits: int | None = None) -> np.ndarray:
        """Return the predicate matrix registered under ``name`` (0 ⊑ M ⊑ I).

        Raises :class:`~repro.exceptions.NameResolutionError` with the
        analyzer's code: ``QV109`` (unknown), ``QV110`` (not a predicate) or
        ``QV111`` (dimension other than ``2 ** num_qubits``).  This is the one
        check of an annotation's predicate.
        """
        matrix = self._lookup(name, "predicate", "QV109")
        if not is_predicate_matrix(matrix):
            raise NameResolutionError(
                f"operator {name!r} is not a valid quantum predicate "
                "(must be hermitian with 0 ⊑ M ⊑ I)",
                code="QV110",
            )
        if num_qubits is not None and matrix.shape[0] != 2 ** num_qubits:
            raise NameResolutionError(
                f"predicate {name!r} has dimension {matrix.shape[0]} "
                f"but is applied to {num_qubits} qubit(s)",
                code="QV111",
            )
        return matrix

    def measurement(self, name: str) -> Measurement:
        """Return the measurement registered under ``name``.

        A plain computational-basis measurement named ``M`` or ``M01`` is always
        available for a single qubit; projector-valued operators can also be
        promoted on the fly via :meth:`define_measurement_from_projector`.
        Raises :class:`~repro.exceptions.NameResolutionError` with the
        analyzer's code ``QV107`` when ``name`` is neither a measurement nor a
        projector; the arity check (``QV108``) is
        :func:`~repro.language.ast.check_measurement`.
        """
        if name in self._measurements:
            return self._measurements[name]
        if name in self._operators and is_projector(self._operators[name]):
            projector = self._operators[name]
            complement = np.eye(projector.shape[0], dtype=complex) - projector
            return Measurement(name, projector, complement)
        raise NameResolutionError(
            f"{name!r} does not resolve to a two-outcome measurement", code="QV107"
        )

    def _lookup(self, name: str, kind: str, code: str) -> np.ndarray:
        try:
            return self._operators[name]
        except KeyError:
            raise NameResolutionError(f"unknown {kind} {name!r}", code=code) from None

    def copy(self) -> "OperatorEnvironment":
        """Return an independent copy of the environment."""
        clone = OperatorEnvironment()
        clone._operators = dict(self._operators)
        clone._measurements = dict(self._measurements)
        return clone


def default_environment() -> OperatorEnvironment:
    """Return the environment with the reserved names of the NQPV prototype.

    It contains the standard gates (``I``, ``X``, ``Y``, ``Z``, ``H``, ``CX``,
    ...), the walk operators ``W1``/``W2``, the predicates ``Zero``, ``P0``,
    ``P1``, ``Pp``, ``Pm`` and the measurements ``M``/``M01``, ``Mpm`` and
    ``MQWalk``.
    """
    environment = OperatorEnvironment()
    environment.update(dict(constants.NAMED_GATES))
    environment.define("Zero", constants.ZERO2)
    environment.define("P0", constants.P0)
    environment.define("P1", constants.P1)
    environment.define("Pp", constants.PPLUS)
    environment.define("Pm", constants.PMINUS)
    environment.define("I2", constants.I2)
    environment.define("I4", constants.identity(2))
    environment.define("I8", constants.identity(3))
    environment.define("Zero4", constants.zero_operator(2))
    environment.define("Zero8", constants.zero_operator(3))
    environment.define_measurement("M", MEAS_COMPUTATIONAL)
    environment.define_measurement("M01", MEAS_COMPUTATIONAL)
    environment.define_measurement("Mpm", MEAS_PLUS_MINUS)
    environment.define_measurement("MQWalk", _qwalk_measurement())
    return environment
