"""Unit tests for the operator environment, the pretty printer and the builder."""

import numpy as np
import pytest

from repro.exceptions import NameResolutionError
from repro.language.ast import If, Init, NDet, Seq, Skip, Unitary, While
from repro.language.builder import ProgramBuilder
from repro.language.names import OperatorEnvironment, default_environment
from repro.language.parser import parse_program
from repro.language.printer import format_program, format_qubits
from repro.linalg.constants import CX, H, P0, W1, X


class TestOperatorEnvironment:
    def test_default_names(self, environment):
        assert "X" in environment
        assert "CX" in environment
        assert "MQWalk" in environment
        assert "Zero" in environment
        assert "nope" not in environment

    def test_unitary_lookup(self, environment):
        # Unitarity and arity belong to the Unitary node; the parser reports
        # them as name-resolution errors at the operator.
        assert np.allclose(parse_program("[q] *= H", environment).matrix, H)
        with pytest.raises(NameResolutionError) as excinfo:
            parse_program("[q] *= Zero", environment)
        assert excinfo.value.code == "QV105"
        with pytest.raises(NameResolutionError) as excinfo:
            parse_program("[q1 q2] *= H", environment)
        assert excinfo.value.code == "QV106"

    def test_predicate_lookup(self, environment):
        assert np.allclose(environment.predicate("P0"), P0)
        with pytest.raises(NameResolutionError):
            environment.predicate("W1")  # unitary but not a predicate

    def test_measurement_lookup(self, environment):
        measurement = environment.measurement("MQWalk")
        assert measurement.dimension == 4
        with pytest.raises(NameResolutionError) as excinfo:
            parse_program("while MQWalk [q] do skip end", environment)
        assert excinfo.value.code == "QV108"
        with pytest.raises(NameResolutionError):
            environment.measurement("H")

    def test_projector_promoted_to_measurement(self, environment):
        measurement = environment.measurement("P0")
        assert np.allclose(measurement.p0, P0)
        assert parse_program("if P0 [q] then skip end", environment).measurement == measurement

    def test_define_and_copy(self, environment):
        environment.define("MyOp", X)
        clone = environment.copy()
        clone.define("Another", H)
        assert "MyOp" in clone
        assert "Another" not in environment

    def test_define_invalid_name(self, environment):
        with pytest.raises(NameResolutionError):
            environment.define("2bad", X)

    def test_define_measurement_from_projector(self, environment):
        environment.define_measurement_from_projector("Mp", P0)
        assert environment.measurement("Mp").num_qubits == 1
        with pytest.raises(NameResolutionError):
            environment.define_measurement_from_projector("Mq", H)

    def test_load_from_npy(self, environment, tmp_path):
        path = tmp_path / "op.npy"
        np.save(path, W1)
        environment.load("LoadedW1", path)
        assert np.allclose(environment.operator("LoadedW1"), W1)

    def test_unknown_operator(self, environment):
        with pytest.raises(NameResolutionError):
            environment.operator("missing")

    def test_shared_constants_are_read_only(self):
        environment = default_environment()
        with pytest.raises(ValueError):
            environment.operator("H")[0, 0] = 7
        for name in ("H", "CX", "P0", "W1"):
            assert not default_environment().operator(name).flags.writeable
        assert np.array_equal(default_environment().operator("H"), np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        for name in ("M", "Mpm", "MQWalk"):
            measurement = environment.measurement(name)
            assert not measurement.p0.flags.writeable and not measurement.p1.flags.writeable

    def test_writing_into_a_defined_array_leaves_parsed_programs_alone(self):
        environment = OperatorEnvironment()
        gate = np.array(X, dtype=complex)
        environment.define("G", gate)
        program = parse_program("[q] *= G", environment)
        gate[0, 0] = 7
        assert np.array_equal(program.matrix, X)
        assert np.array_equal(environment.operator("G"), X)
        frozen = np.array(H, dtype=complex)
        frozen.setflags(write=False)
        environment.define("F", frozen)
        assert environment.operator("F") is frozen

    def test_names_listing(self):
        environment = OperatorEnvironment({"A": X}, {})
        assert "A" in list(environment.names())


class TestPrinter:
    def test_format_qubits(self):
        assert format_qubits(("q1", "q2")) == "[q1 q2]"

    def test_each_construct_renders(self):
        program = Seq(
            (
                Init(("q1", "q2")),
                Unitary(("q1",), "H", H),
                NDet((Skip(), Unitary(("q1",), "X", X))),
                If(
                    parse_program("if M [q1] then skip end").measurement,
                    ("q1",),
                    Unitary(("q1",), "X", X),
                    Skip(),
                ),
                While(
                    parse_program("while M [q2] do skip end").measurement,
                    ("q2",),
                    Skip(),
                ),
            )
        )
        text = format_program(program)
        assert "[q1 q2] := 0" in text
        assert "*= H" in text
        assert "#" in text
        assert "if M01 [q1] then" in text
        assert "while M01 [q2] do" in text

    def test_printer_output_reparses(self):
        source = "( [q] *= H ; [q] *= X # abort )"
        program = parse_program(source)
        assert parse_program(format_program(program)) == program


class TestBuilder:
    def test_empty_builder_is_skip(self):
        assert ProgramBuilder().build() == Skip()

    def test_linear_program(self):
        program = (
            ProgramBuilder()
            .init("q1", "q2")
            .unitary(H, "q1", name="H")
            .unitary(CX, "q1", "q2", name="CX")
            .build()
        )
        assert isinstance(program, Seq)
        assert len(program.statements) == 3

    def test_ndet_builder(self):
        program = (
            ProgramBuilder()
            .ndet(lambda b: b.skip(), lambda b: b.unitary(X, "q", name="X"))
            .build()
        )
        assert isinstance(program, NDet)

    def test_ndet_needs_two_branches(self):
        with pytest.raises(Exception):
            ProgramBuilder().ndet(lambda b: b.skip()).build()

    def test_if_and_while_builders(self):
        program = (
            ProgramBuilder()
            .init("q")
            .if_measure(("q",), then=lambda b: b.unitary(X, "q", name="X"))
            .while_measure(("q",), body=lambda b: b.unitary(H, "q", name="H"))
            .measure(("q",))
            .build()
        )
        kinds = [type(node).__name__ for node in program.children()]
        assert kinds == ["Init", "If", "While", "If"]

    def test_builder_matches_parser(self):
        built = ProgramBuilder().init("q").unitary(H, "q", name="H").build()
        parsed = parse_program("[q] := 0; [q] *= H")
        assert built == parsed
