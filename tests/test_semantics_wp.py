"""Unit tests for the weakest (liberal) precondition transformers (Fig. 5)."""

import numpy as np
import pytest

from repro.language.ast import (
    Abort,
    If,
    Init,
    MEAS_COMPUTATIONAL,
    Skip,
    Unitary,
    While,
    ndet,
    seq,
)
from repro.linalg.constants import H, I2, P0, P1, X
from repro.linalg.operators import operators_close
from repro.linalg.random import random_density_operator, random_predicate_matrix
from repro.predicates.assertion import QuantumAssertion
from repro.registers import QubitRegister
from repro.semantics import denotational
from repro.semantics.denotational import denotation
from repro.semantics.wp import (
    WpOptions,
    weakest_liberal_precondition,
    weakest_precondition,
)


@pytest.fixture
def q_register():
    return QubitRegister(["q"])


def single(assertion):
    assert len(assertion) == 1
    return assertion.predicates[0].matrix


class TestBasicTransformers:
    def test_skip(self, q_register):
        post = QuantumAssertion([P0])
        assert weakest_precondition(Skip(), post, q_register).set_equal(post)
        assert weakest_liberal_precondition(Skip(), post, q_register).set_equal(post)

    def test_abort_distinguishes_wp_and_wlp(self, q_register):
        post = QuantumAssertion([P0])
        assert operators_close(single(weakest_precondition(Abort(), post, q_register)), np.zeros((2, 2)))
        assert operators_close(single(weakest_liberal_precondition(Abort(), post, q_register)), I2)

    def test_unitary_is_conjugation(self, q_register):
        post = QuantumAssertion([P0])
        pre = weakest_precondition(Unitary(("q",), "X", X), post, q_register)
        assert operators_close(single(pre), P1)

    def test_init(self, q_register):
        post = QuantumAssertion([P1])
        pre = weakest_precondition(Init(("q",)), post, q_register)
        # ⟨0|P1|0⟩ = 0, so the precondition is the zero predicate.
        assert operators_close(single(pre), np.zeros((2, 2)))
        post_zero = QuantumAssertion([P0])
        pre_zero = weakest_precondition(Init(("q",)), post_zero, q_register)
        assert operators_close(single(pre_zero), I2)

    def test_sequence(self, q_register):
        program = seq(Unitary(("q",), "H", H), Unitary(("q",), "X", X))
        post = QuantumAssertion([P0])
        pre = weakest_precondition(program, post, q_register)
        expected = H.conj().T @ X.conj().T @ P0 @ X @ H
        assert operators_close(single(pre), expected)

    def test_ndet_is_union(self, q_register):
        program = ndet(Skip(), Unitary(("q",), "X", X))
        pre = weakest_precondition(program, QuantumAssertion([P0]), q_register)
        assert pre.set_equal(QuantumAssertion([P0, P1]))

    def test_if_combines_branches(self, q_register):
        program = If(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "X", X), Skip())
        pre = weakest_precondition(program, QuantumAssertion([P0]), q_register)
        # else (outcome 0): P0·P0·P0 = P0; then (outcome 1): P1·X P0 X·P1 = P1; sum = I.
        assert operators_close(single(pre), I2)

    def test_assertion_with_multiple_predicates(self, q_register):
        program = Unitary(("q",), "X", X)
        pre = weakest_precondition(program, QuantumAssertion([P0, P1]), q_register)
        assert pre.set_equal(QuantumAssertion([P1, P0]))


class TestDualityWithDenotation:
    """Lemma A.1(1)/(2): wp/wlp agree with adjoints of the denotation."""

    @pytest.mark.parametrize(
        "program",
        [
            seq(Init(("q",)), Unitary(("q",), "H", H)),
            ndet(Skip(), Unitary(("q",), "X", X)),
            If(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H), Abort()),
            seq(ndet(Unitary(("q",), "H", H), Skip()), If(MEAS_COMPUTATIONAL, ("q",), Skip(), Unitary(("q",), "X", X))),
        ],
    )
    def test_wp_matches_adjoint_of_denotation(self, program, q_register):
        post = QuantumAssertion([P0])
        pre = weakest_precondition(program, post, q_register)
        expected = QuantumAssertion(
            [channel.apply_adjoint(P0) for channel in denotation(program, q_register)]
        )
        assert pre.set_equal(expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_wp_expectation_duality_on_states(self, seed, q_register):
        """tr(wp.S.M · ρ) = tr(M · [[S]](ρ)) branch-wise for deterministic programs."""
        program = seq(Init(("q",)), Unitary(("q",), "H", H))
        rho = random_density_operator(2, seed=seed)
        pre = weakest_precondition(program, QuantumAssertion([P0]), q_register)
        channel = denotation(program, q_register)[0]
        lhs = pre.expectation(rho)
        rhs = float(np.real(np.trace(P0 @ channel.apply(rho))))
        assert lhs == pytest.approx(rhs)


class TestLoops:
    def test_terminating_loop_wp_is_identity(self, q_register):
        """For the repeat-until-success loop, wp.while.[|0⟩] = I (see Sec. programs.rus)."""
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        pre = weakest_precondition(loop, QuantumAssertion([P0]), q_register, WpOptions(max_iterations=80))
        assert operators_close(single(pre), I2, atol=1e-5)

    def test_nonterminating_loop_wlp_is_identity_wp_is_partial(self, q_register):
        loop = While(MEAS_COMPUTATIONAL, ("q",), Skip())
        wlp = weakest_liberal_precondition(loop, QuantumAssertion([P0]), q_register)
        # wlp = P0 + P1 (loop either exits in |0⟩ satisfying P0, or diverges) = I.
        assert operators_close(single(wlp), I2, atol=1e-6)
        wp = weakest_precondition(loop, QuantumAssertion([P0]), q_register)
        # wp only credits terminating runs: the |1⟩ component diverges.
        assert operators_close(single(wp), P0, atol=1e-6)

    def test_loop_body_is_denoted_once_per_call(self, monkeypatch):
        calls = []
        original = denotational.denotation

        def counting_denotation(program, *args, **kwargs):
            calls.append(program)
            return original(program, *args, **kwargs)

        monkeypatch.setattr(denotational, "denotation", counting_denotation)
        register = QubitRegister(["q0", "q1"])
        body = ndet(Unitary(("q0",), "H", H), Unitary(("q1",), "X", X))
        loop = While(MEAS_COMPUTATIONAL, ("q0",), body)
        program = seq(Unitary(("q1",), "H", H), loop)
        post = QuantumAssertion(
            [random_predicate_matrix(register.dimension, seed=seed) for seed in (1, 2, 3)]
        )
        assert len(post) == 3
        weakest_liberal_precondition(program, post, register)
        assert calls == [body]

    @pytest.mark.parametrize(
        "transformer",
        [weakest_precondition, weakest_liberal_precondition],
        ids=["wp", "wlp"],
    )
    @pytest.mark.parametrize("shape", ["consecutive", "nested"])
    def test_each_call_denotes_each_reached_loop_body_once(self, monkeypatch, transformer, shape):
        calls = []
        original = denotational.denotation

        def counting_denotation(program, *args, **kwargs):
            calls.append(id(program))
            return original(program, *args, **kwargs)

        monkeypatch.setattr(denotational, "denotation", counting_denotation)
        register = QubitRegister(["q0", "q1"])
        inner = While(
            MEAS_COMPUTATIONAL, ("q1",), ndet(Unitary(("q1",), "H", H), Unitary(("q0",), "X", X))
        )
        if shape == "consecutive":
            first = While(MEAS_COMPUTATIONAL, ("q0",), Unitary(("q0",), "H", H))
            program = seq(first, Unitary(("q1",), "H", H), inner)
            # The transformer runs backwards: the last loop is reached first.
            expected = [id(inner.body), id(first.body)]
        else:
            outer = While(MEAS_COMPUTATIONAL, ("q0",), seq(Unitary(("q0",), "H", H), inner))
            program = outer
            # The outer body's denotation already covers the inner loop, and
            # the backward chain applies it without revisiting the syntax.
            expected = [id(outer.body)]
        post = QuantumAssertion(
            [random_predicate_matrix(register.dimension, seed=seed) for seed in (1, 2, 3)]
        )
        transformer(program, post, register)
        assert calls == expected
        # The memo belongs to one call: the next call denotes the bodies again.
        transformer(program, post, register)
        assert calls == expected + expected

    def test_loop_with_nondeterministic_body_yields_multiple_predicates(self, q_register):
        body = ndet(Unitary(("q",), "H", H), seq(Unitary(("q",), "X", X), Unitary(("q",), "H", H)))
        loop = While(MEAS_COMPUTATIONAL, ("q",), body)
        wlp = weakest_liberal_precondition(loop, QuantumAssertion([P0]), q_register)
        assert len(wlp) >= 1
        for predicate in wlp:
            assert predicate.dimension == 2
