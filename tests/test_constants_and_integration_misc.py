"""Miscellaneous coverage: gate constants, exception hierarchy, public API surface,
printer round-trips of the library programs and proof-outline rendering."""

import importlib
import tomllib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.exceptions import (
    AssistantError,
    InvariantError,
    LinalgError,
    OrderRelationError,
    ParseError,
    PredicateError,
    RankingError,
    RegisterError,
    ReproError,
    SemanticsError,
    SuperOperatorError,
    VerificationError,
)
from repro.language.names import default_environment
from repro.language.parser import parse_program
from repro.language.printer import format_program
from repro.linalg import constants
from repro.linalg.operators import is_predicate_matrix, is_projector, is_unitary, operators_close
from repro.linalg.states import ket
from repro.logic.prover import verify_formula
from repro.programs.deutsch import deutsch_formula, deutsch_program
from repro.programs.errcorr import errcorr_formula, errcorr_program
from repro.programs.qwalk import qwalk_program
from repro.programs.teleport import teleport_program


class TestGateConstants:
    def test_all_named_gates_are_unitary(self):
        for name, gate in constants.NAMED_GATES.items():
            assert is_unitary(gate), f"{name} is not unitary"

    def test_walk_operators_match_the_paper(self):
        """W2·W1 |00⟩ = |00⟩ — the fact behind the non-termination argument in [12]."""
        assert is_unitary(constants.W1)
        assert is_unitary(constants.W2)
        fixed = constants.W2 @ constants.W1 @ ket("00", 2)
        assert operators_close(fixed, ket("00", 2))

    def test_cnot_conventions(self):
        assert operators_close(constants.CX @ ket("10"), ket("11"))
        assert operators_close(constants.CX @ ket("01"), ket("01"))
        assert operators_close(constants.C0X @ ket("00"), ket("01"))
        assert operators_close(constants.C0X @ ket("10"), ket("10"))

    def test_toffoli(self):
        assert is_unitary(constants.CCX)
        assert operators_close(constants.CCX @ ket("110"), ket("111"))
        assert operators_close(constants.CCX @ ket("101"), ket("101"))

    def test_projector_constants(self):
        for projector in (constants.P0, constants.P1, constants.PPLUS, constants.PMINUS):
            assert is_projector(projector)
            assert is_predicate_matrix(projector)

    def test_identity_and_zero_helpers(self):
        assert constants.identity(3).shape == (8, 8)
        assert np.count_nonzero(constants.zero_operator(2)) == 0

    def test_hadamard_diagonalises_x(self):
        assert operators_close(constants.H @ constants.X @ constants.H, constants.Z)


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [
            LinalgError,
            RegisterError,
            SuperOperatorError,
            PredicateError,
            ParseError,
            SemanticsError,
            VerificationError,
            InvariantError,
            OrderRelationError,
            RankingError,
            AssistantError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception_type):
        assert issubclass(exception_type, ReproError)

    def test_parse_error_location_formatting(self):
        error = ParseError("boom", line=3, column=7)
        assert "line 3" in str(error) and "column 7" in str(error)

    def test_order_relation_error_carries_witness(self):
        error = OrderRelationError("order", witness=np.eye(2))
        assert error.witness.shape == (2, 2)

    def test_invariant_error_is_verification_error(self):
        assert issubclass(InvariantError, VerificationError)


class TestPublicApi:
    def test_version_and_all(self):
        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing public name {name}"

    def test_project_metadata_matches_the_package(self):
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert project["version"] == repro.__version__
        module, _, function = project["scripts"]["nqpv-verify"].partition(":")
        assert callable(getattr(importlib.import_module(module), function))

    def test_environment_exposes_reserved_names(self):
        environment = default_environment()
        for name in ("I", "X", "H", "CX", "W1", "W2", "Zero", "P0", "M01", "MQWalk"):
            assert name in environment


class TestPrinterRoundTripsOnLibraryPrograms:
    @pytest.mark.parametrize(
        "program_factory",
        [errcorr_program, deutsch_program, qwalk_program, teleport_program],
        ids=["errcorr", "deutsch", "qwalk", "teleport"],
    )
    def test_format_then_parse_preserves_structure(self, program_factory):
        """The pretty-printed form re-parses to a structurally equal program,
        provided the operator names used by the library are in the environment."""
        program = program_factory()
        environment = default_environment()
        text = format_program(program)
        reparsed = parse_program(text, environment)
        assert reparsed.size() == program.size()
        assert reparsed.quantum_variables() == program.quantum_variables()
        assert reparsed.nondeterministic_choice_count() == program.nondeterministic_choice_count()


class TestOutlineRenderingForCaseStudies:
    def test_errcorr_outline_mentions_every_statement(self):
        formula, register = errcorr_formula()
        outline = verify_formula(formula, register).outline.render()
        assert outline.count("*= CX") == 4
        assert "if M01 [q2] then" in outline
        assert outline.count("#") == 3  # four nondeterministic branches

    def test_deutsch_outline_contains_both_choices(self):
        formula, register = deutsch_formula()
        outline = verify_formula(formula, register).outline.render()
        assert "*= C0X" in outline and "*= CX" in outline
        assert "else" in outline
