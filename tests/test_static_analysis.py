"""Tests for the static semantic analyzer (ISSUE 9: lint pipeline stage).

Covers the three analyzer passes (well-formedness, qubit-usage dataflow,
structure profile), the stable diagnostic codes with source spans, the
parser/AST position threading, the verify pre-flight integration, the CLI
lint surface, the deterministic-loop fast path of the semantic engines and
the malformed-program corpus golden under ``examples/lint/``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.static import (
    CLIFFORD_GATE_NAMES,
    AnalysisResult,
    analyze_program,
    analyze_source,
    program_profile,
)
from repro.assistant.cli import main as cli_main
from repro.assistant.verify import verify_source
from repro.diagnostics import (
    DIAGNOSTIC_CODES,
    Diagnostic,
    Severity,
    SourceSpan,
    make_diagnostic,
)
from repro.exceptions import (
    AssistantError,
    LinalgError,
    NameResolutionError,
    ParseError,
    ReproError,
    SemanticsError,
    StaticAnalysisError,
)
from repro.language.ast import Init, Unitary, While, seq
from repro.language.names import default_environment
from repro.language.parser import parse_annotated_program, parse_program
from repro.linalg.constants import H, P0, X
from repro.predicates.assertion import QuantumAssertion
from repro.predicates.predicate import QuantumPredicate
from repro.registers import QubitRegister
from repro.semantics.denotational import DenotationOptions, denotation
from repro.semantics.schedulers import ConstantScheduler
from repro.semantics.wp import WpOptions, weakest_liberal_precondition, weakest_precondition
from repro.telemetry import configure_tracing, get_tracer

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
CORPUS_DIR = EXAMPLES_DIR / "lint"

sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_lint_corpus  # noqa: E402  (needs the tools/ path above)


def codes(analysis: AnalysisResult):
    return [diagnostic.code for diagnostic in analysis.diagnostics]


class TestDiagnosticPrimitives:
    def test_span_renders_line_and_column(self):
        assert str(SourceSpan(3, 7)) == "3:7"

    def test_registry_has_severity_and_description_per_code(self):
        assert len(DIAGNOSTIC_CODES) >= 20
        for code, (severity, description) in DIAGNOSTIC_CODES.items():
            assert code.startswith("QV") and len(code) == 5
            assert isinstance(severity, Severity)
            assert description

    def test_make_diagnostic_derives_severity_from_registry(self):
        diagnostic = make_diagnostic("QV201", "msg", SourceSpan(1, 1))
        assert diagnostic.severity == Severity.WARNING
        assert make_diagnostic("QV104", "msg", None).severity == Severity.ERROR

    def test_render_and_to_dict(self):
        diagnostic = make_diagnostic("QV103", "initialisation must assign 0", SourceSpan(2, 8))
        assert diagnostic.render("f.nqpv") == (
            "f.nqpv:2:8: QV103 error: initialisation must assign 0"
        )
        record = diagnostic.to_dict()
        assert record["code"] == "QV103"
        assert record["severity"] == "error"
        assert record["span"]["line"] == 2 and record["span"]["column"] == 8


#: Per-code (malformed source, clean counterpart) pairs.  Every malformed
#: source must produce its code; every clean counterpart must not.
_CODE_CASES = {
    "QV001": ("[q *= H;\n{ P0[q] }", "[q] *= H;\n{ P0[q] }"),
    "QV101": ("[q q] := 0;\n{ P0[q] }", "[q] := 0;\n{ P0[q] }"),
    "QV102": ("[] := 0;\n{ P0[q] }", "[q] := 0;\n{ P0[q] }"),
    "QV103": ("[q] := 1;\n{ P0[q] }", "[q] := 0;\n{ P0[q] }"),
    "QV104": ("[q] := 0;\n[q] *= FOO;\n{ P0[q] }", "[q] := 0;\n[q] *= X;\n{ P0[q] }"),
    "QV105": ("[q] := 0;\n[q] *= P0;\n{ P0[q] }", "[q] := 0;\n[q] *= H;\n{ P0[q] }"),
    "QV106": (
        "[q1 q2] := 0;\n[q1 q2] *= H;\n{ P0[q1] P0[q2] }",
        "[q1 q2] := 0;\n[q1 q2] *= CX;\n{ P0[q1] P0[q2] }",
    ),
    "QV107": (
        "[q] := 0;\nif FOO [q] then skip else skip end;\n{ P0[q] }",
        "[q] := 0;\nif M [q] then skip else skip end;\n{ P0[q] }",
    ),
    "QV108": (
        "[q1 q2] := 0;\n{ inv: I4[q1 q2] };\nwhile M [q1 q2] do skip end;\n{ P0[q1] P0[q2] }",
        "[q1 q2] := 0;\n{ inv: I4[q1 q2] };\nwhile MQWalk [q1 q2] do skip end;\n{ P0[q1] P0[q2] }",
    ),
    "QV109": ("[q] := 0;\n{ FOO[q] }", "[q] := 0;\n{ P0[q] }"),
    "QV110": ("[q] := 0;\n{ H[q] }", "[q] := 0;\n{ Pp[q] }"),
    "QV111": ("[q1 q2] := 0;\n{ P0[q1 q2] }", "[q1 q2] := 0;\n{ I4[q1 q2] }"),
    "QV112": (
        "[q] := 0;\nwhile M [q] do [q] *= X end;\n{ P0[q] }",
        "[q] := 0;\n{ inv: P0[q] };\nwhile M [q] do [q] *= X end;\n{ P0[q] }",
    ),
    "QV113": ("[q] := 0;\n[q] *= H", "[q] := 0;\n[q] *= H;\n{ P0[q] }"),
    "QV114": ("[q] := 0;\n[q] *= H;\n{ }", "[q] := 0;\n[q] *= H;\n{ P0[q] }"),
    "QV115": ("{ P0[q] }", "skip;\n{ P0[q] }"),
    "QV201": ("[q] *= H;\n[q] := 0;\n{ P0[q] }", "[q] := 0;\n[q] *= H;\n{ P0[q] }"),
    "QV202": (
        "[q1] := 0;\n[q2] := 0;\n[q2] *= H;\n{ P0[q2] }",
        "[q1] := 0;\n[q2] := 0;\n[q2] *= H;\n{ P0[q1] P0[q2] }",
    ),
    "QV203": (
        "[q] := 0;\n[q] := 0;\n[q] *= H;\n{ P0[q] }",
        "[q] := 0;\n[q] *= H;\n[q] := 0;\n{ P0[q] }",
    ),
    "QV204": (
        "[q] := 0;\n{ inv: P0[q] };\n[q] *= H;\n{ P0[q] }",
        "[q] := 0;\n{ inv: P0[q] };\nwhile M [q] do [q] *= H end;\n{ P0[q] }",
    ),
}


class TestDiagnosticsPerCode:
    @pytest.mark.parametrize("code", sorted(_CODE_CASES))
    def test_malformed_source_produces_code(self, code):
        malformed, _ = _CODE_CASES[code]
        analysis = analyze_source(malformed)
        assert code in codes(analysis), analysis.render()

    @pytest.mark.parametrize("code", sorted(_CODE_CASES))
    def test_clean_counterpart_does_not(self, code):
        _, clean = _CODE_CASES[code]
        analysis = analyze_source(clean)
        assert code not in codes(analysis), analysis.render()

    @pytest.mark.parametrize("code", sorted(_CODE_CASES))
    def test_every_diagnostic_carries_a_span(self, code):
        malformed, _ = _CODE_CASES[code]
        analysis = analyze_source(malformed)
        for diagnostic in analysis.diagnostics:
            assert diagnostic.span is not None
            assert diagnostic.span.line >= 1 and diagnostic.span.column >= 1

    def test_analyzer_never_raises_on_corpus(self):
        for malformed, _ in _CODE_CASES.values():
            analysis = analyze_source(malformed)
            assert analysis.diagnostics


class TestSpanAccuracy:
    def test_error_points_at_offending_token(self):
        analysis = analyze_source("[q] := 0;\n[q] *= FOO;\n{ P0[q] }")
        (diagnostic,) = analysis.errors
        assert (diagnostic.span.line, diagnostic.span.column) == (2, 8)

    def test_init_value_span(self):
        analysis = analyze_source("skip;\n  [q] := 1;\n{ P0[q] }")
        (diagnostic,) = analysis.errors
        assert diagnostic.code == "QV103"
        assert (diagnostic.span.line, diagnostic.span.column) == (2, 10)

    def test_usage_warning_points_at_first_use(self):
        analysis = analyze_source("skip;\n[q] *= H;\n[q] := 0;\n{ P0[q] }")
        (diagnostic,) = analysis.warnings
        assert diagnostic.code == "QV201"
        assert (diagnostic.span.line, diagnostic.span.column) == (2, 1)

    def test_diagnostics_sorted_by_position(self):
        analysis = analyze_source("[q] := 1;\n[q] *= FOO;\n{ BAR[q] }")
        positions = [(d.span.line, d.span.column) for d in analysis.diagnostics]
        assert positions == sorted(positions)

    def test_syntax_error_carries_parser_position(self):
        analysis = analyze_source("[q] *= H;\n{ P0[q]")
        (diagnostic,) = analysis.diagnostics
        assert diagnostic.code == "QV001"
        assert diagnostic.span is not None
        assert analysis.profile is None


class TestPositionThreading:
    def test_parse_error_reports_line_and_column(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("[q] :=\n       1")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 8
        assert "(line 2, column 8)" in str(excinfo.value)
        assert "(line" not in excinfo.value.message

    def test_name_error_reports_line_and_column(self):
        with pytest.raises(NameResolutionError) as excinfo:
            parse_program("[q] *= NoSuchGate")
        assert excinfo.value.line == 1
        assert excinfo.value.column == 8
        assert "(line 1, column 8)" in str(excinfo.value)

    def test_ast_nodes_carry_source_spans(self):
        program = parse_program("[q] := 0;\n[q] *= H")
        first, second = program.statements
        assert (first.source_span.line, first.source_span.column) == (1, 1)
        assert (second.source_span.line, second.source_span.column) == (2, 1)

    def test_spans_do_not_affect_equality(self):
        with_span = parse_program("[q] *= H")
        assert with_span == Unitary(("q",), "H", H)

    @pytest.mark.parametrize(
        "code, source",
        [
            ("QV102", "[] := 0;\n{ P0[q] }"),
            ("QV103", "[q] := 1;\n{ P0[q] }"),
            ("QV114", "[q] := 0;\n{ }"),
            ("QV115", "{ P0[q] }"),
        ],
    )
    def test_strict_parse_error_carries_the_analyzer_code(self, code, source):
        with pytest.raises(ParseError) as excinfo:
            parse_annotated_program(source)
        (diagnostic,) = [d for d in analyze_source(source).diagnostics if d.code == code]
        assert excinfo.value.code == code
        assert (excinfo.value.line, excinfo.value.column) == (
            diagnostic.span.line,
            diagnostic.span.column,
        )

    @pytest.mark.parametrize(
        "source",
        [
            "[q] *= FOO; { I[q] }",
            "[q] *= NU; { I[q] }",
            "if FOO [q] then skip else skip end; { I[q] }",
            "[q] *= H H; { I[q] }",
            "[q] *= ; { I[q] }",
        ],
    )
    def test_strict_resolution_error_carries_the_analyzer_code(self, source):
        environment = default_environment()
        environment.define("NU", P0)
        with pytest.raises(ReproError) as excinfo:
            parse_annotated_program(source, environment)
        first = analyze_source(source, environment).errors[0]
        assert excinfo.value.code == first.code
        assert (excinfo.value.line, excinfo.value.column) == (first.span.line, first.span.column)

    def test_plain_parse_error_carries_its_code(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("[q] := 1")
        assert excinfo.value.code == "QV103"

    def test_ast_errors_carry_stable_codes(self):
        with pytest.raises(SemanticsError) as excinfo:
            Init(())
        assert excinfo.value.code == "QV102"
        with pytest.raises(SemanticsError) as excinfo:
            Init(("q", "q"))
        assert excinfo.value.code == "QV101"
        with pytest.raises(LinalgError) as excinfo:
            Unitary(("q",), "P0", P0)
        assert excinfo.value.code == "QV105"
        with pytest.raises(LinalgError) as excinfo:
            Unitary(("q1", "q2"), "X", X)
        assert excinfo.value.code == "QV106"


class TestProgramProfile:
    def test_bitflip_profile(self):
        source = (EXAMPLES_DIR / "bitflip.nqpv").read_text()
        analysis = analyze_source(source)
        profile = analysis.profile
        assert profile.statement_count == 5
        assert profile.choice_points == 1
        assert not profile.is_deterministic
        assert not profile.contains_loop
        assert profile.is_clifford
        assert profile.qubits == ("q", "q1")

    def test_loop_profile(self):
        program = parse_program("[q] := 0; while M [q] do [q] *= X end")
        profile = program_profile(program)
        assert profile.loop_count == 1
        assert profile.max_loop_depth == 1
        assert profile.contains_loop
        assert profile.is_deterministic

    def test_nested_loop_depth(self):
        program = parse_program(
            "while M [q] do while M [q] do skip end end"
        )
        assert program_profile(program).max_loop_depth == 2

    def test_clifford_classification(self):
        assert "H" in CLIFFORD_GATE_NAMES and "CX" in CLIFFORD_GATE_NAMES
        clifford = parse_program("[q] *= H; [q] *= X")
        assert program_profile(clifford).is_clifford
        unknown = seq(Init(("q",)), Unitary(("q",), "MyGate", X))
        assert not program_profile(unknown).is_clifford

    def test_profile_serialises(self):
        profile = program_profile(parse_program("[q] := 0"))
        record = profile.to_dict()
        assert record["statement_count"] == 1
        assert record["qubits"] == ["q"]
        json.dumps(record)  # must be JSON-serialisable as-is


class TestProfileOfTheTypedProgram:
    """The profile describes the typed AST the engines run, not the source text."""

    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES_DIR.glob("*.nqpv")), ids=lambda path: path.name
    )
    def test_source_profile_is_the_program_profile(self, path, environment):
        source = path.read_text()
        program = parse_annotated_program(source, environment).program
        assert analyze_source(source, environment).profile == program_profile(program)

    def test_nested_choice_is_one_choice_point(self):
        # The AST flattens ( S0 # ( S1 # S2 ) ) into one three-way choice.
        source = "[q] := 0;\n( [q] *= X # ( skip # [q] *= H ) );\n{ P0[q] }"
        profile = analyze_source(source).profile
        assert (profile.choice_points, profile.statement_count) == (1, 5)
        assert profile == program_profile(parse_annotated_program(source).program)

    def test_nested_sequence_is_one_clifford_segment(self):
        # The AST flattens the parenthesised sequence into its neighbours.
        source = "[q] := 0;\n[q] *= H;\n( [q] *= X ; [q] *= Z );\n[q] *= H;\n{ P0[q] }"
        profile = analyze_source(source).profile
        assert profile.clifford_segments == 1
        assert profile == program_profile(parse_annotated_program(source).program)

    def test_unresolved_source_gets_errors_but_no_warnings_or_profile(self):
        # QV201 would fire on the first line, but a source the strict parser
        # rejects has no typed program for the usage and profile passes.
        analysis = analyze_source("[q] *= H;\n[q] := 0;\n[q] *= FOO;\n{ P0[q] }")
        assert codes(analysis) == ["QV104"]
        assert analysis.profile is None


class TestAnalyzerPurity:
    def test_analyze_runs_no_semantic_engine(self, monkeypatch):
        from repro.logic.prover import Prover
        from repro.semantics import denotational, wp

        def forbidden(*args, **kwargs):
            raise AssertionError("the analyzer ran a semantic engine")

        monkeypatch.setattr(denotational, "_denote", forbidden)
        monkeypatch.setattr(wp, "_transform", forbidden)
        monkeypatch.setattr(Prover, "generate", forbidden)
        analyze_source("[q] := 0;\n[q] *= FOO;\n{ P0[q] }")
        analysis = analyze_source((EXAMPLES_DIR / "resetloop.nqpv").read_text())
        assert analysis.profile is not None

    def test_analyze_is_reproducible(self):
        source = "[q] := 1;\n[q] *= FOO;\n{ BAR[q] }"
        first = analyze_source(source)
        second = analyze_source(source)
        assert first.diagnostics == second.diagnostics
        assert first.profile == second.profile

    def test_analyze_does_not_mutate_environment(self, environment):
        matrix_before = environment.operator("H").copy()
        analyze_source("[q] *= H;\n{ H[q] }", environment)
        assert np.array_equal(environment.operator("H"), matrix_before)


class TestZeroFalsePositives:
    def test_case_study_families_are_clean(self):
        from repro.programs.deutsch import deutsch_program
        from repro.programs.errcorr import errcorr_program
        from repro.programs.grover import grover_program
        from repro.programs.phaseflip import phaseflip_program
        from repro.programs.qwalk import qwalk_program
        from repro.programs.rus import nondeterministic_rus_program, rus_program
        from repro.programs.teleport import teleport_program

        factories = [
            deutsch_program,
            errcorr_program,
            lambda: grover_program(3),
            phaseflip_program,
            qwalk_program,
            rus_program,
            nondeterministic_rus_program,
            teleport_program,
        ]
        for factory in factories:
            analysis = analyze_program(factory())
            assert not analysis.diagnostics, analysis.render()

    def test_shipped_examples_are_strict_clean(self):
        sources = sorted(EXAMPLES_DIR.glob("*.nqpv"))
        assert sources, "no example programs found"
        for path in sources:
            analysis = analyze_source(path.read_text(), filename=path.name)
            assert analysis.ok(strict=True), analysis.render()


class TestDeterministicBypass:
    def _loop_program(self):
        return parse_program("[q] := 0; while M [q] do [q] *= X end")

    def test_denotation_matches_explicit_scheduler(self):
        program = self._loop_program()
        register = QubitRegister(["q"])
        fast = denotation(program, register, DenotationOptions())
        slow = denotation(
            program, register, DenotationOptions(schedulers=[ConstantScheduler(0)])
        )
        assert len(fast) == len(slow) == 1
        assert fast[0].equals(slow[0])

    def test_wp_matches_explicit_scheduler(self):
        program = self._loop_program()
        register = QubitRegister(["q"])
        post = QuantumAssertion(
            [QuantumPredicate(P0, name="P0").embed(["q"], register)]
        )
        explicit = WpOptions(schedulers=[ConstantScheduler(0)])
        for transformer in (weakest_precondition, weakest_liberal_precondition):
            fast = transformer(program, post, register, WpOptions())
            slow = transformer(program, post, register, explicit)
            assert len(fast.predicates) == len(slow.predicates) == 1
            assert np.allclose(fast.predicates[0].matrix, slow.predicates[0].matrix)

    def _bypass_tags(self, run):
        configure_tracing(enabled=True)
        tracer = get_tracer()
        tracer.clear()
        try:
            run()
            return [
                node.tags.get("deterministic_bypass")
                for root in tracer.finished_roots()
                for node in root.walk()
                if node.name in ("loop", "wp-loop")
            ]
        finally:
            configure_tracing(enabled=False)

    def test_bypass_fires_for_deterministic_loop(self):
        program = self._loop_program()
        register = QubitRegister(["q"])
        tags = self._bypass_tags(lambda: denotation(program, register, DenotationOptions()))
        assert tags and all(tags)

    def test_bypass_skipped_for_nondeterministic_body(self):
        program = parse_program(
            "[q] := 0; while M [q] do ( [q] *= X # skip ) end"
        )
        register = QubitRegister(["q"])
        tags = self._bypass_tags(lambda: denotation(program, register, DenotationOptions()))
        assert tags and not any(tags)


class TestVerifyIntegration:
    def test_report_carries_warning_diagnostics(self):
        report = verify_source("[q] *= H;\n[q] := 0;\n{ P0[q] }")
        assert report.verified
        assert [d.code for d in report.diagnostics] == ["QV201"]

    def test_clean_program_has_empty_diagnostics(self):
        report = verify_source("[q] := 0;\n{ P0[q] }")
        assert report.verified
        assert report.diagnostics == ()

    def test_missing_invariant_fails_preflight(self):
        source = "[q] := 0;\nwhile M [q] do [q] *= X end;\n{ P0[q] }"
        with pytest.raises(StaticAnalysisError) as excinfo:
            verify_source(source)
        assert excinfo.value.code == "QV112"
        assert any(d.code == "QV112" for d in excinfo.value.diagnostics)

    def test_missing_postcondition_is_still_an_assistant_error(self):
        with pytest.raises(AssistantError, match="must end with a postcondition"):
            verify_source("[q] := 0")

    def test_static_analysis_error_is_an_assistant_error(self):
        assert issubclass(StaticAnalysisError, AssistantError)

    def test_verify_tokenizes_the_source_once(self, monkeypatch):
        from repro.language import syntax

        calls = []
        tokenize = syntax.tokenize

        def counting_tokenize(source):
            calls.append(source)
            return tokenize(source)

        monkeypatch.setattr(syntax, "tokenize", counting_tokenize)
        assert verify_source((EXAMPLES_DIR / "bitflip.nqpv").read_text()).verified
        assert len(calls) == 1


#: What ``verify_source`` does with each malformed corpus program: either the
#: ``(exception class, line, column, code)`` it raises, or the diagnostic codes
#: of the report it returns.  The strict parser raises the analyzer's code for
#: the defects the raw parser records (QV102, QV103, QV114), for a source
#: without statements (QV115, at the end of the input), for name-resolution
#: errors (QV104–QV108) and for syntax errors (QV001).
_VERIFY_ON_CORPUS = {
    "dangling_invariant.nqpv": ["QV204"],
    "dead_init_overwrite.nqpv": ["QV203"],
    "duplicate_qubit.nqpv": ("SemanticsError", None, None, "QV101"),
    "empty_assertion.nqpv": ("ParseError", 3, 3, "QV114"),
    "empty_qubit_list.nqpv": ("ParseError", 1, 2, "QV102"),
    "init_never_used.nqpv": ["QV202"],
    "init_nonzero.nqpv": ("ParseError", 1, 8, "QV103"),
    "invalid_predicate.nqpv": ("StaticAnalysisError", None, None, "QV110"),
    "measurement_dim_mismatch.nqpv": ("NameResolutionError", 3, 7, "QV108"),
    "missing_invariant.nqpv": ("StaticAnalysisError", None, None, "QV112"),
    "missing_postcondition.nqpv": ("StaticAnalysisError", None, None, "QV113"),
    "no_statement.nqpv": ("ParseError", 2, 1, "QV115"),
    "not_unitary.nqpv": ("NameResolutionError", 2, 8, "QV105"),
    "operator_dim_mismatch.nqpv": ("NameResolutionError", 2, 12, "QV106"),
    "predicate_dim_mismatch.nqpv": ("StaticAnalysisError", None, None, "QV111"),
    "syntax_error.nqpv": ("ParseError", 3, 1, "QV001"),
    "unknown_measurement.nqpv": ("NameResolutionError", 2, 4, "QV107"),
    "unknown_operator.nqpv": ("NameResolutionError", 2, 8, "QV104"),
    "unknown_predicate.nqpv": ("StaticAnalysisError", None, None, "QV109"),
    "use_before_init.nqpv": ["QV201"],
}


class TestVerifyOnCorpus:
    def test_table_covers_the_corpus(self):
        assert sorted(path.name for path in CORPUS_DIR.glob("*.nqpv")) == sorted(
            _VERIFY_ON_CORPUS
        )

    @pytest.mark.parametrize("name", sorted(_VERIFY_ON_CORPUS))
    def test_verify_source_outcome(self, name):
        source = (CORPUS_DIR / name).read_text()
        expected = _VERIFY_ON_CORPUS[name]
        if isinstance(expected, list):
            assert [d.code for d in verify_source(source).diagnostics] == expected
            return
        with pytest.raises(ReproError) as excinfo:
            verify_source(source)
        error = excinfo.value
        outcome = (
            type(error).__name__,
            getattr(error, "line", None),
            getattr(error, "column", None),
            error.code,
        )
        assert outcome == expected


class TestCliLint:
    def test_lint_clean_example_exits_zero(self, capsys):
        assert cli_main([str(EXAMPLES_DIR / "bitflip.nqpv"), "--lint"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_lint_error_exits_nonzero(self, capsys):
        exit_code = cli_main([str(CORPUS_DIR / "unknown_operator.nqpv"), "--lint"])
        assert exit_code == 1
        assert "QV104 error" in capsys.readouterr().out

    def test_strict_promotes_warnings(self, capsys):
        target = str(CORPUS_DIR / "use_before_init.nqpv")
        assert cli_main([target, "--lint"]) == 0
        assert cli_main([target, "--lint", "--strict"]) == 1

    def test_diagnostics_json_artifact(self, tmp_path, capsys):
        output = tmp_path / "diag.json"
        cli_main(
            [
                str(CORPUS_DIR / "init_nonzero.nqpv"),
                "--lint",
                "--diagnostics-json",
                str(output),
            ]
        )
        record = json.loads(output.read_text())
        assert record["errors"] == 1
        assert record["diagnostics"][0]["code"] == "QV103"
        span = record["diagnostics"][0]["span"]
        assert (span["line"], span["column"]) == (1, 8)

    def test_strict_verify_aborts_on_warnings(self, capsys):
        target = str(CORPUS_DIR / "use_before_init.nqpv")
        assert cli_main([target]) == 0
        assert cli_main([target, "--strict"]) == 1
        assert "verification: FAILED" in capsys.readouterr().out


class TestCorpusGolden:
    def test_corpus_matches_golden(self):
        report = check_lint_corpus.run_corpus()
        assert report["passed"], "\n".join(report["failures"])

    def test_every_corpus_program_is_caught(self):
        golden = json.loads((CORPUS_DIR / "expected.json").read_text())
        for path in sorted(CORPUS_DIR.glob("*.nqpv")):
            analysis = analyze_source(path.read_text(), filename=path.name)
            assert analysis.diagnostics, f"{path.name} produced no diagnostic"
            assert path.name in golden

    def test_error_code_coverage(self):
        golden = json.loads((CORPUS_DIR / "expected.json").read_text())
        covered = {code for entry in golden.values() for code in entry}
        assert covered == set(DIAGNOSTIC_CODES), (
            "corpus must exercise every registered diagnostic code"
        )


class TestPreflightOverhead:
    @pytest.mark.timing
    def test_analyzer_cost_is_negligible(self):
        """The pre-flight adds one ``analyze_source`` call per verification.

        A wall-clock A/B of full verify runs is too noisy for CI, so bound the
        overhead analytically (the idiom of the telemetry overhead guard):
        measure the one extra call directly — best of five runs on the largest
        shipped example — and require it to stay under 25 ms, two orders of
        magnitude below a typical loop verification.
        """
        source = (EXAMPLES_DIR / "resetloop.nqpv").read_text()
        analyze_source(source)  # warm import/caches
        best = min(
            (lambda start=time.perf_counter(): (analyze_source(source), time.perf_counter() - start)[1])()
            for _ in range(5)
        )
        slack = max(1.0, float(os.environ.get("REPRO_RELAXED_TIMING", "1") or 1.0))
        assert best < 0.025 * slack, f"analyzer pre-flight took {best * 1e3:.1f} ms"
