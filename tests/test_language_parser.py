"""Unit tests for the recursive-descent parser."""

import numpy as np
import pytest

from repro.analysis.static import analyze_source
from repro.assistant.verify import verify_source
from repro.exceptions import NameResolutionError, ParseError
from repro.language.ast import If, Init, NDet, Seq, Skip, Unitary, While
from repro.language.names import default_environment
from repro.language.parser import parse_annotated_program, parse_program
from repro.language.printer import format_program
from repro.linalg.constants import CX, H, X
from repro.logic.formula import CorrectnessMode


class TestPlainPrograms:
    def test_skip_and_abort(self):
        assert isinstance(parse_program("skip"), Skip)
        program = parse_program("skip; abort")
        assert isinstance(program, Seq)
        assert len(program.statements) == 2

    def test_initialisation(self):
        program = parse_program("[q1 q2] := 0")
        assert program == Init(("q1", "q2"))

    def test_commas_in_qubit_lists(self):
        assert parse_program("[q1, q2] := 0") == Init(("q1", "q2"))

    def test_unitary_statement(self):
        program = parse_program("[q] *= H")
        assert isinstance(program, Unitary)
        assert np.allclose(program.matrix, H)

    def test_two_qubit_unitary(self):
        program = parse_program("[q1 q2] *= CX")
        assert np.allclose(program.matrix, CX)

    def test_unknown_operator(self):
        with pytest.raises(NameResolutionError):
            parse_program("[q] *= NotAGate")

    def test_arity_mismatch(self):
        with pytest.raises(NameResolutionError):
            parse_program("[q1 q2] *= H")

    def test_nondeterministic_choice(self):
        program = parse_program("( skip # [q] *= X )")
        assert isinstance(program, NDet)
        assert len(program.branches) == 2

    def test_multiway_choice(self):
        program = parse_program("( skip # [q] *= X # [q] *= Z )")
        assert len(program.branches) == 3

    def test_choice_of_sequences(self):
        program = parse_program("( [q] *= H ; [q] *= X # skip )")
        assert isinstance(program, NDet)
        assert isinstance(program.branches[0], Seq)

    def test_conditional(self):
        program = parse_program("if M [q] then [q] *= X else skip end")
        assert isinstance(program, If)
        assert program.then_branch == Unitary(("q",), "X", X)
        assert program.else_branch == Skip()

    def test_conditional_without_else(self):
        program = parse_program("if M [q] then [q] *= X end")
        assert program.else_branch == Skip()

    def test_while_loop(self):
        program = parse_program("while M [q] do [q] *= H end")
        assert isinstance(program, While)
        # "M" resolves to the shared computational-basis measurement (named M01).
        assert program.measurement.name in ("M", "M01")

    def test_two_qubit_measurement(self):
        program = parse_program("while MQWalk [q1 q2] do skip end")
        assert program.measurement.dimension == 4

    def test_roundtrip_through_printer(self):
        source = """
        [q1 q2] := 0;
        [q1] *= H;
        if M [q1] then
            ( [q2] *= X # skip )
        else
            skip
        end;
        while M [q2] do [q2] *= H end
        """
        program = parse_program(source)
        reparsed = parse_program(format_program(program))
        assert reparsed == program


class TestParseErrors:
    def test_missing_end(self):
        with pytest.raises(ParseError):
            parse_program("if M [q] then skip")

    def test_init_must_assign_zero(self):
        with pytest.raises(ParseError):
            parse_program("[q] := 1")

    def test_empty_qubit_list(self):
        with pytest.raises(ParseError):
            parse_program("[] := 0")

    def test_garbage_statement(self):
        with pytest.raises(ParseError):
            parse_program("then skip")

    def test_missing_operator_after_qubits(self):
        with pytest.raises(ParseError):
            parse_program("[q] skip")


class TestPlainProgramAnnotations:
    """A plain program's annotations take no part in it, but their qubit lists are checked."""

    @pytest.mark.parametrize(
        "source, code, column",
        [("{ P0[] }; [q] := 0", "QV102", 6), ("{ }; [q] := 0", "QV114", 3)],
    )
    def test_malformed_annotation_raises(self, source, code, column):
        with pytest.raises(ParseError) as excinfo:
            parse_program(source)
        error = excinfo.value
        assert (error.code, error.line, error.column) == (code, 1, column)

    def test_predicate_findings_are_left_to_the_analyzer(self):
        assert parse_program("{ X[q] }; [q] := 0") == Init(("q",))


class TestAnnotatedPrograms:
    def test_pre_and_postcondition(self):
        annotated = parse_annotated_program(
            "{ I[q] }; [q] *= H; { P0[q] }"
        )
        assert annotated.precondition is not None
        assert annotated.precondition.terms[0].name == "I"
        assert annotated.postcondition is not None
        assert annotated.postcondition.terms[0].name == "P0"
        assert isinstance(annotated.program, Unitary)

    def test_postcondition_only(self):
        annotated = parse_annotated_program("[q] *= H; { P0[q] }")
        assert annotated.precondition is None
        assert annotated.postcondition is not None

    def test_invariant_attaches_to_loop(self):
        source = """
        { I[q] };
        [q] := 0;
        { inv: P0[q] };
        while M [q] do [q] *= X end;
        { Zero[q] }
        """
        annotated = parse_annotated_program(source)
        loops = [node for node in annotated.program.walk() if isinstance(node, While)]
        assert len(loops) == 1
        assert id(loops[0]) in annotated.loop_invariants
        spec = annotated.loop_invariants[id(loops[0])]
        assert spec.is_invariant
        assert spec.terms[0].name == "P0"

    def test_multiple_predicates_in_annotation(self):
        annotated = parse_annotated_program("{ P0[q] P1[q] }; skip; { I[q] }")
        assert len(annotated.precondition.terms) == 2

    def test_no_statement_is_an_error(self):
        with pytest.raises(ParseError):
            parse_annotated_program("{ I[q] }")

    def test_empty_annotation_is_an_error(self):
        with pytest.raises(ParseError):
            parse_annotated_program("{ }; skip; { I[q] }")

    def test_qwalk_source_parses(self):
        source = """
        { I[q1] };
        [q1 q2] := 0;
        { inv: I4[q1 q2] };
        while MQWalk [q1 q2] do
            ( [q1 q2] *= W1 ; [q1 q2] *= W2
            # [q1 q2] *= W2 ; [q1 q2] *= W1 )
        end;
        { Zero[q1] }
        """
        annotated = parse_annotated_program(source)
        loops = [node for node in annotated.program.walk() if isinstance(node, While)]
        assert len(loops) == 1
        assert isinstance(loops[0].body, NDet)


class TestNestedLoopInvariants:
    """Each loop takes the ``inv:`` annotation pending when its ``while`` is read."""

    SOURCE = """
    { I[q] };
    [q q1] := 0;
    [q] *= H;
    { inv: I4[q q1] };
    while M [q] do
        [q1] *= H;
        { inv: I[q1] };
        while M [q1] do [q1] *= X end;
        [q] *= X
    end;
    { P0[q] }
    """

    def test_each_loop_takes_the_invariant_written_before_it(self):
        annotated = parse_annotated_program(self.SOURCE)
        outer, inner = [node for node in annotated.program.walk() if isinstance(node, While)]
        assert str(annotated.loop_invariants[id(outer)]) == "{ inv: I4[q q1] }"
        assert str(annotated.loop_invariants[id(inner)]) == "{ inv: I[q1] }"
        assert analyze_source(self.SOURCE).diagnostics == ()

    @pytest.mark.parametrize("mode", [CorrectnessMode.PARTIAL, CorrectnessMode.TOTAL])
    def test_nested_loops_verify_from_source(self, mode):
        assert verify_source(self.SOURCE, mode=mode).verified

    def test_invariant_left_at_the_end_of_a_body_dangles(self):
        source = (
            "{ P0[q] };\n[q] := 0;\nwhile M [q] do\n  [q] *= X;\n  { inv: I[q] }\nend;\n{ P0[q] }"
        )
        found = [(d.code, d.span.line, d.span.column) for d in analyze_source(source).diagnostics]
        assert found == [("QV112", 3, 1), ("QV204", 5, 3)]
        assert parse_annotated_program(source).loop_invariants == {}
