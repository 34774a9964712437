"""Unit tests for :class:`repro.registers.QubitRegister`."""

import pickle

import numpy as np
import pytest

from repro.exceptions import RegisterError
from repro.language.ast import Init, Unitary, seq
from repro.linalg.constants import CX, I2, X
from repro.linalg.operators import operators_close
from repro.linalg.states import density, ket
from repro.registers import QubitRegister


class TestConstruction:
    def test_basic_properties(self):
        register = QubitRegister(["a", "b", "c"])
        assert register.num_qubits == 3
        assert register.dimension == 8
        assert register.names == ("a", "b", "c")
        assert list(register) == ["a", "b", "c"]
        assert "b" in register and "z" not in register
        assert len(register) == 3

    def test_duplicate_names_rejected(self):
        with pytest.raises(RegisterError):
            QubitRegister(["a", "a"])

    def test_empty_register_rejected(self):
        with pytest.raises(RegisterError):
            QubitRegister([])

    def test_invalid_names_rejected(self):
        with pytest.raises(RegisterError):
            QubitRegister([""])
        with pytest.raises(RegisterError):
            QubitRegister([1])

    def test_equality_and_hash(self):
        assert QubitRegister(["a", "b"]) == QubitRegister(["a", "b"])
        assert QubitRegister(["a", "b"]) != QubitRegister(["b", "a"])
        assert hash(QubitRegister(["a"])) == hash(QubitRegister(["a"]))


class TestPositions:
    def test_position_lookup(self):
        register = QubitRegister(["q", "q1", "q2"])
        assert register.position("q") == 0
        assert register.positions(["q2", "q"]) == (2, 0)

    def test_unknown_qubit(self):
        register = QubitRegister(["q"])
        with pytest.raises(RegisterError):
            register.position("r")

    def test_check_contains_duplicates(self):
        register = QubitRegister(["a", "b"])
        with pytest.raises(RegisterError):
            register.check_contains(["a", "a"])


class TestOperators:
    def test_identity_and_zero(self):
        register = QubitRegister(["a", "b"])
        assert operators_close(register.identity(), np.eye(4))
        assert operators_close(register.zero(), np.zeros((4, 4)))

    def test_embed_respects_order(self):
        register = QubitRegister(["a", "b"])
        assert operators_close(register.embed(X, ["b"]), np.kron(I2, X))
        assert operators_close(register.embed(X, ["a"]), np.kron(X, I2))

    def test_embed_two_qubit_gate_reversed(self):
        register = QubitRegister(["a", "b"])
        reversed_cx = register.embed(CX, ["b", "a"])
        # Control is "b" (second factor), target is "a" (first factor).
        assert operators_close(reversed_cx @ ket("01"), ket("11"))

    def test_reduce(self):
        register = QubitRegister(["a", "b"])
        rho = np.kron(density(ket("1")), density(ket("0")))
        assert operators_close(register.reduce(rho, ["a"]), density(ket("1")))
        assert operators_close(register.reduce(rho, ["b"]), density(ket("0")))


class TestAlgebra:
    def test_union_preserves_order_and_skips_duplicates(self):
        first = QubitRegister(["a", "b"])
        second = QubitRegister(["b", "c"])
        assert first.union(second).names == ("a", "b", "c")
        assert first.union(["c", "a"]).names == ("a", "b", "c")

    def test_restricted(self):
        register = QubitRegister(["a", "b", "c"])
        assert register.restricted(["c", "a"]).names == ("c", "a")
        with pytest.raises(RegisterError):
            register.restricted(["z"])

    def test_for_program(self):
        program = seq(Init(("q2",)), Unitary(("q1",), "X", X))
        register = QubitRegister.for_program(program)
        assert register.names == ("q1", "q2")


def test_register_pickle_roundtrip():
    register = QubitRegister(("a", "b", "c"))
    clone = pickle.loads(pickle.dumps(register))
    assert clone.names == register.names
    assert clone.dimension == register.dimension
