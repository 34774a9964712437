"""Tests for the NQPV-style proof-assistant front end (Sec. 6)."""

import sys

import numpy as np
import pytest

from repro.assistant.cli import main as cli_main
from repro.assistant.session import Session
from repro.assistant.verify import build_task, resolve_assertion, verify, verify_source
from repro.exceptions import (
    AssistantError,
    InvariantError,
    NameResolutionError,
    ParseError,
    StaticAnalysisError,
)
from repro.language.ast import Unitary
from repro.language.names import default_environment
from repro.language.parser import AssertionSpec, PredicateTerm, parse_annotated_program
from repro.language.printer import format_program, format_qubits
from repro.linalg import operators
from repro.linalg.constants import I2, P0
from repro.logic.formula import CorrectnessMode
from repro.programs.grover import grover_formula
from repro.programs.qwalk import qwalk_invariant
from repro.registers import QubitRegister

QWALK_SOURCE = """
{ I[q1] };
[q1 q2] := 0;
{ inv: invN[q1 q2] };
while MQWalk [q1 q2] do
    ( [q1 q2] *= W1 ; [q1 q2] *= W2
    # [q1 q2] *= W2 ; [q1 q2] *= W1 )
end;
{ Zero[q1] }
"""

ERRCORR_SOURCE = """
{ Psi[q] };
[q1 q2] := 0;
[q q1] *= CX;
[q q2] *= CX;
( skip # [q] *= X # [q1] *= X # [q2] *= X );
[q q2] *= CX;
[q q1] *= CX;
if M [q2] then
    if M [q1] then
        [q] *= X
    else
        skip
    end
else
    skip
end;
{ Psi[q] }
"""


def psi_predicate():
    psi = np.array([[0.6], [0.8]], dtype=complex)
    return psi @ psi.conj().T


class TestResolveAssertion:
    def test_embedding_into_register(self):
        register = QubitRegister(["q1", "q2"])
        spec = AssertionSpec((PredicateTerm("P0", ("q1",)),))
        assertion = resolve_assertion(spec, register, default_environment())
        assert assertion.dimension == 4
        assert np.allclose(assertion.predicates[0].matrix, np.kron(P0, I2))

    def test_multiple_terms(self):
        register = QubitRegister(["q"])
        spec = AssertionSpec((PredicateTerm("P0", ("q",)), PredicateTerm("P1", ("q",))))
        assertion = resolve_assertion(spec, register, default_environment())
        assert len(assertion) == 2


class TestVerifySource:
    def test_quantum_walk_partial_correctness(self):
        report = verify(QWALK_SOURCE, operators={"invN": qwalk_invariant().predicates[0].matrix})
        assert report.verified
        rendered = report.outline.render()
        assert "while MQWalk" in rendered
        assert "VAR" in rendered

    def test_error_correction_via_surface_syntax(self):
        report = verify(ERRCORR_SOURCE, operators={"Psi": psi_predicate()})
        assert report.verified

    def test_invalid_invariant_surface_error(self):
        bad_source = QWALK_SOURCE.replace("invN[q1 q2]", "P0[q1]")
        with pytest.raises(InvariantError):
            verify(bad_source)

    def test_missing_postcondition_is_an_error(self):
        with pytest.raises(AssistantError):
            verify_source("{ I[q] }; [q] *= H")

    def test_omitted_precondition_reports_weakest_precondition(self):
        report = verify_source("[q] *= X; { P0[q] }")
        assert report.verified  # {0} ⊑ anything
        assert np.allclose(report.verification_condition.predicates[0].matrix, np.array([[0, 0], [0, 1]]))

    def test_total_mode(self):
        report = verify_source("{ P1[q] }; [q] *= X; { P0[q] }", mode=CorrectnessMode.TOTAL)
        assert report.verified

    def test_build_task_register_inference(self):
        task = build_task("{ I[q3] }; [q1] *= H; { P0[q1] }")
        assert set(task.register.names) == {"q1", "q3"}


class TestSession:
    def test_define_show_and_verify(self):
        session = Session()
        session.define("invN", qwalk_invariant().predicates[0].matrix)
        term = session.verify_proof("pf", ["q1", "q2"], QWALK_SOURCE)
        assert term.verified
        assert "while MQWalk" in session.show("pf")
        assert "1." in session.show("I") or "[[" in session.show("I")

    def test_show_unknown_term(self):
        with pytest.raises(AssistantError):
            Session().show("nothing")

    def test_load_from_npy(self, tmp_path):
        path = tmp_path / "inv.npy"
        np.save(path, qwalk_invariant().predicates[0].matrix)
        session = Session(base_path=tmp_path)
        session.load("invN", "inv.npy")
        assert "invN" in session.environment

    def test_run_script_end_to_end(self, tmp_path):
        inv_path = tmp_path / "invN.npy"
        np.save(inv_path, qwalk_invariant().predicates[0].matrix)
        script = f'''
        def invN := load "{inv_path}" end
        def pf := proof [ q1 q2 ] :
            {{ I [ q1 ] }};
            [ q1 q2 ] := 0;
            {{ inv : invN [ q1 q2 ] }};
            while MQWalk [ q1 q2 ] do
                ( [ q1 q2 ] *= W1 ; [ q1 q2 ] *= W2
                # [ q1 q2 ] *= W2 ; [ q1 q2 ] *= W1 )
            end;
            {{ Zero [ q1 ] }}
        end
        show pf end
        '''
        session = Session()
        outputs = session.run_script(script)
        assert any("verified" in output for output in outputs)
        assert session.proofs["pf"].verified


class TestScriptPositions:
    """A proof body is parsed once, from the script's own tokens."""

    SCRIPT = (
        "def pf := proof [ q ] :\n"
        "    { P1[q] };\n"
        "    [q] := 0;\n"
        "    while M [q] do [q] *= X end;\n"
        "    [q] *= NoSuchGate;\n"
        "    { P0[q] }\n"
        "end\n"
    )

    def test_name_error_points_into_the_script(self):
        with pytest.raises(NameResolutionError) as excinfo:
            Session().run_script(self.SCRIPT)
        assert excinfo.value.code == "QV104"
        assert (excinfo.value.line, excinfo.value.column) == (5, 12)

    def test_missing_invariant_points_into_the_script(self):
        script = self.SCRIPT.replace("NoSuchGate", "H")
        with pytest.raises(StaticAnalysisError) as excinfo:
            Session().run_script(script)
        (missing,) = [d for d in excinfo.value.diagnostics if d.code == "QV112"]
        assert (missing.span.line, missing.span.column) == (4, 5)

    def test_body_is_not_tokenized_again(self, monkeypatch):
        from repro.language import parser

        calls = []
        tokenize = parser.tokenize

        def counting_tokenize(source):
            calls.append(source)
            return tokenize(source)

        monkeypatch.setattr(parser, "tokenize", counting_tokenize)
        session = Session()
        script = self.SCRIPT.replace("NoSuchGate", "H").replace(
            "    while M [q] do [q] *= X end;\n", ""
        )
        assert session.run_script(script) == ["proof pf: not verified"]
        assert calls == []
        assert session.proofs["pf"].source == (
            "{ P1[q] };\n    [q] := 0;\n    [q] *= H;\n    { P0[q] }"
        )


class TestCommandLayerSyntaxErrors:
    """A syntax error in the command layer is a ``QV001`` ParseError at its token."""

    # (script, message, line, column)
    CASES = [
        ('def := load "x" end', "expected ID but found ASSIGN (':=')", 1, 5),
        ("def x := foo end", "expected LOAD or PROOF but found ID ('foo')", 1, 10),
        ("frob", "unexpected command token 'frob'", 1, 1),
        ("show pf", "expected END but found EOF ('')", 1, 8),
        ("def pf := proof [q : skip end", "expected ID but found COLON (':')", 1, 20),
        ("def pf := proof [q] :\n  { I[q] }; skip; { I[q] }", "unterminated proof definition",
         2, 27),
    ]

    @pytest.mark.parametrize("script, message, line, column", CASES)
    def test_error_carries_qv001_and_position(self, script, message, line, column):
        with pytest.raises(ParseError) as excinfo:
            Session().run_script(script)
        error = excinfo.value
        assert (error.code, error.message, error.line, error.column) == (
            "QV001",
            message,
            line,
            column,
        )


def _count_checks(monkeypatch):
    """Count ``is_unitary``/``is_predicate_matrix`` calls at every import site."""
    counts = {"is_unitary": 0, "is_predicate_matrix": 0}
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for name in counts:
        original = getattr(operators, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return counts


def _grover_gates_source():
    formula, register = grover_formula(3, layout="gates")
    environment = default_environment()
    environment.define("Pre", formula.precondition.predicates[0].matrix)
    environment.define("Post", formula.postcondition.predicates[0].matrix)
    for node in formula.program.walk():
        if isinstance(node, Unitary) and node.name not in environment:
            environment.define(node.name, node.matrix)
    qubits = format_qubits(register.names)
    source = f"{{ Pre{qubits} }};\n{format_program(formula.program)};\n{{ Post{qubits} }}\n"
    return source, environment


def _qwalk_source():
    environment = default_environment()
    environment.define("invN", qwalk_invariant().predicates[0].matrix)
    return QWALK_SOURCE, environment


class TestChecksRunOnce:
    """One ``verify_source`` checks each gate and each annotation predicate once."""

    @pytest.mark.parametrize("make_source", [_grover_gates_source, _qwalk_source])
    def test_one_check_per_statement_and_term(self, make_source, monkeypatch):
        source, environment = make_source()
        annotated = parse_annotated_program(source, environment)
        gates = sum(isinstance(node, Unitary) for node in annotated.program.walk())
        terms = sum(len(spec.terms) for spec in annotated.annotations)
        counts = _count_checks(monkeypatch)
        assert verify_source(source, environment).verified
        assert counts == {"is_unitary": gates, "is_predicate_matrix": terms}


class TestCli:
    def test_cli_verifies_annotated_file(self, tmp_path, capsys):
        source_path = tmp_path / "program.nqpv"
        source_path.write_text("{ P1[q] }; [q] *= X; { P0[q] }")
        exit_code = cli_main([str(source_path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "verification: OK" in captured.out

    def test_cli_reports_failure(self, tmp_path, capsys):
        source_path = tmp_path / "program.nqpv"
        source_path.write_text("{ P0[q] }; [q] *= X; { P0[q] }")
        exit_code = cli_main([str(source_path)])
        assert exit_code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_cli_with_operator_file(self, tmp_path, capsys):
        inv_path = tmp_path / "invN.npy"
        np.save(inv_path, qwalk_invariant().predicates[0].matrix)
        source_path = tmp_path / "walk.nqpv"
        source_path.write_text(QWALK_SOURCE)
        exit_code = cli_main([str(source_path), "--operator", f"invN={inv_path}"])
        assert exit_code == 0
        assert "verification: OK" in capsys.readouterr().out

    def test_cli_missing_file(self, capsys):
        assert cli_main(["/does/not/exist.nqpv"]) == 2

    def test_cli_script_mode(self, tmp_path, capsys):
        script_path = tmp_path / "script.nqpv"
        script_path.write_text(
            'def pf := proof [ q ] : { P1 [ q ] }; [ q ] *= X; { P0 [ q ] } end\nshow pf end\n'
        )
        exit_code = cli_main([str(script_path), "--script"])
        assert exit_code == 0
        assert "OK" in capsys.readouterr().out
