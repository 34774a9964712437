"""Unit tests for the program AST (Sec. 3.1)."""

import pickle

import numpy as np
import pytest

from repro.exceptions import LinalgError, SemanticsError
from repro.language.ast import (
    Abort,
    If,
    Init,
    MEAS_COMPUTATIONAL,
    MEAS_PLUS_MINUS,
    Measurement,
    NDet,
    Seq,
    Skip,
    Unitary,
    While,
    if_then,
    measure,
    ndet,
    seq,
)
from repro.linalg.constants import CX, H, P0, P1, X


class TestMeasurement:
    def test_standard_measurements(self):
        assert MEAS_COMPUTATIONAL.num_qubits == 1
        assert MEAS_PLUS_MINUS.dimension == 2
        assert np.allclose(MEAS_COMPUTATIONAL.projector(0), P0)
        assert np.allclose(MEAS_COMPUTATIONAL.projector(1), P1)

    def test_completeness_enforced(self):
        with pytest.raises(LinalgError):
            Measurement("bad", P0, P0)

    def test_projector_requirement(self):
        with pytest.raises(LinalgError):
            Measurement("bad", H, np.eye(2) - H)

    def test_invalid_outcome(self):
        with pytest.raises(LinalgError):
            MEAS_COMPUTATIONAL.projector(2)

    def test_equality(self):
        other = Measurement("M", P0, P1)
        assert other == MEAS_COMPUTATIONAL
        assert other != MEAS_PLUS_MINUS


class TestBasicStatements:
    def test_skip_and_abort(self):
        assert Skip().quantum_variables() == frozenset()
        assert Abort().is_deterministic()
        assert Skip() == Skip()
        assert Skip() != Abort()

    def test_init(self):
        statement = Init(("a", "b"))
        assert statement.quantum_variables() == frozenset({"a", "b"})
        with pytest.raises(SemanticsError):
            Init(())
        with pytest.raises(SemanticsError):
            Init(("a", "a"))

    def test_unitary_validation(self):
        statement = Unitary(("a",), "X", X)
        assert statement.quantum_variables() == frozenset({"a"})
        with pytest.raises(LinalgError):
            Unitary(("a",), "P0", P0)  # not unitary
        with pytest.raises(LinalgError):
            Unitary(("a",), "CX", CX)  # wrong arity
        with pytest.raises(SemanticsError):
            Unitary(("a", "a"), "CX", CX)

    def test_unitary_equality_is_by_value(self):
        assert Unitary(("a",), "X", X) == Unitary(("a",), "flip", X.copy())
        assert Unitary(("a",), "X", X) != Unitary(("b",), "X", X)


class TestCompositeStatements:
    def test_seq_flattening(self):
        program = Seq((Seq((Skip(), Abort())), Skip()))
        assert len(program.statements) == 3
        with pytest.raises(SemanticsError):
            Seq((Skip(),))

    def test_ndet_flattening_matches_paper_associativity(self):
        """Example 3.1 relies on □ being associative; nested NDets flatten."""
        program = NDet((NDet((Skip(), Abort())), Unitary(("a",), "X", X)))
        assert len(program.branches) == 3
        assert not program.is_deterministic()
        assert program.nondeterministic_choice_count() == 1

    def test_if_and_while_arity_checks(self):
        body = Unitary(("a",), "X", X)
        loop = While(MEAS_COMPUTATIONAL, ("a",), body)
        assert loop.contains_while()
        assert loop.quantum_variables() == frozenset({"a"})
        with pytest.raises(LinalgError):
            While(MEAS_COMPUTATIONAL, ("a", "b"), body)
        with pytest.raises(SemanticsError):
            If(MEAS_COMPUTATIONAL, (), Skip(), Skip())

    def test_quantum_variables_union(self):
        program = seq(
            Init(("a",)),
            If(MEAS_COMPUTATIONAL, ("b",), Unitary(("c",), "X", X), Skip()),
        )
        assert program.quantum_variables() == frozenset({"a", "b", "c"})

    def test_walk_and_size(self):
        program = seq(Init(("a",)), ndet(Skip(), Unitary(("a",), "X", X)))
        nodes = list(program.walk())
        assert program.size() == len(nodes) == 5


class TestSugar:
    def test_seq_helper(self):
        assert seq() == Skip()
        assert seq(Skip()) == Skip()
        assert isinstance(seq(Skip(), Abort()), Seq)

    def test_ndet_helper(self):
        assert ndet(Skip()) == Skip()
        with pytest.raises(SemanticsError):
            ndet()

    def test_measure_sugar(self):
        statement = measure(("a",))
        assert isinstance(statement, If)
        assert statement.then_branch == Skip()
        assert statement.else_branch == Skip()

    def test_if_then_sugar(self):
        statement = if_then(MEAS_COMPUTATIONAL, ("a",), Unitary(("a",), "X", X))
        assert statement.else_branch == Skip()

    def test_determinism_flags(self):
        deterministic = seq(Init(("a",)), measure(("a",)))
        assert deterministic.is_deterministic()
        assert not deterministic.contains_while()
        nondeterministic = ndet(Skip(), Abort())
        assert not nondeterministic.is_deterministic()


def _measurement():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    return Measurement("m", p0, np.eye(2, dtype=complex) - p0)


def _ast_nodes():
    measurement = _measurement()
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    skip, abort = Skip(), Abort()
    init = Init(("q",))
    unitary = Unitary(("q",), "H", hadamard)
    sequence = Seq((init, unitary))
    choice = NDet((skip, unitary))
    conditional = If(measurement, ("q",), unitary, skip)
    loop = While(measurement, ("q",), sequence)
    return [skip, abort, init, unitary, sequence, choice, conditional, loop]


@pytest.mark.parametrize("node", _ast_nodes(), ids=lambda n: type(n).__name__)
def test_ast_nodes_pickle_roundtrip(node):
    assert pickle.loads(pickle.dumps(node)) == node


def test_measurement_pickle_roundtrip():
    assert pickle.loads(pickle.dumps(_measurement())) == _measurement()
