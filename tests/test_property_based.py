"""Property-based tests (hypothesis) for the core data structures and invariants.

The properties exercised here are the load-bearing facts the paper's theory
rests on: structural closure of super-operators, the duality between channels
and their adjoints, monotonicity of the ``⊑_inf`` order, soundness of the
prover against the denotational semantics, well-definedness of the
mixed-state semantics (Example 3.3 generalised to random decompositions), and
the algebraic laws of demonic choice, sequencing and conditionals.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.language.ast import (
    Abort,
    If,
    Init,
    MEAS_COMPUTATIONAL,
    Program,
    Skip,
    Unitary,
    ndet,
    seq,
)
from repro.linalg.constants import H, I2, S as S_GATE, X, Y, Z
from repro.linalg.operators import (
    is_partial_density_operator,
    is_predicate_matrix,
    loewner_le,
    operators_close,
)
from repro.linalg.random import (
    random_density_operator,
    random_kraus_operators,
    random_partial_density_operator,
    random_predicate_matrix,
    random_state_vector,
    random_unitary,
)
from repro.logic.formula import CorrectnessFormula, CorrectnessMode
from repro.logic.prover import verify_formula
from repro.logic.semantic_check import check_formula_semantically
from repro.predicates.assertion import QuantumAssertion
from repro.predicates.order import leq_inf
from repro.predicates.predicate import QuantumPredicate
from repro.registers import QubitRegister
from repro.semantics.denotational import denotation
from repro.semantics.wp import weakest_liberal_precondition, weakest_precondition
from repro.superop.choi import choi_matrix, kraus_from_choi
from repro.superop.compare import set_equal, set_subset
from repro.superop.kraus import SuperOperator

# A small pool of named single-qubit unitaries for program generation.
_GATES = [("H", H), ("X", X), ("Y", Y), ("Z", Z), ("S", S_GATE)]

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=10_000)


@st.composite
def loop_free_programs(draw, depth: int = 2) -> Program:
    """Random loop-free programs over the single qubit ``q``."""
    if depth == 0:
        kind = draw(st.sampled_from(["skip", "abort", "init", "unitary", "unitary"]))
        if kind == "skip":
            return Skip()
        if kind == "abort":
            return Abort()
        if kind == "init":
            return Init(("q",))
        name, matrix = draw(st.sampled_from(_GATES))
        return Unitary(("q",), name, matrix)
    kind = draw(st.sampled_from(["seq", "ndet", "if", "leaf"]))
    if kind == "leaf":
        return draw(loop_free_programs(depth=0))
    if kind == "seq":
        return seq(draw(loop_free_programs(depth=depth - 1)), draw(loop_free_programs(depth=depth - 1)))
    if kind == "ndet":
        return ndet(draw(loop_free_programs(depth=depth - 1)), draw(loop_free_programs(depth=depth - 1)))
    return If(
        MEAS_COMPUTATIONAL,
        ("q",),
        draw(loop_free_programs(depth=depth - 1)),
        draw(loop_free_programs(depth=depth - 1)),
    )


# ---------------------------------------------------------------------------
# Super-operator properties
# ---------------------------------------------------------------------------


class TestSuperOperatorProperties:
    @given(seed=seeds, count=st.integers(min_value=1, max_value=4))
    @_SETTINGS
    def test_channels_preserve_partial_density_operators(self, seed, count):
        kraus = random_kraus_operators(4, count=count, trace_preserving=False, seed=seed)
        channel = SuperOperator(kraus)
        rho = random_partial_density_operator(4, seed=seed + 1)
        output = channel.apply(rho)
        assert is_partial_density_operator(output, atol=1e-7)

    @given(seed=seeds)
    @_SETTINGS
    def test_adjoint_duality(self, seed):
        channel = SuperOperator(random_kraus_operators(2, count=3, seed=seed))
        rho = random_density_operator(2, seed=seed + 1)
        observable = random_predicate_matrix(2, seed=seed + 2)
        lhs = np.trace(channel.apply(rho) @ observable)
        rhs = np.trace(rho @ channel.apply_adjoint(observable))
        assert lhs.real == pytest.approx(rhs.real, abs=1e-8)

    @given(seed=seeds)
    @_SETTINGS
    def test_adjoints_of_tni_channels_preserve_predicates(self, seed):
        channel = SuperOperator(random_kraus_operators(2, count=2, trace_preserving=False, seed=seed))
        predicate = random_predicate_matrix(2, seed=seed + 5)
        image = channel.apply_adjoint(predicate)
        assert is_predicate_matrix(image, atol=1e-7)

    @given(seed=seeds)
    @_SETTINGS
    def test_composition_is_associative(self, seed):
        a = SuperOperator(random_kraus_operators(2, count=2, seed=seed))
        b = SuperOperator(random_kraus_operators(2, count=2, seed=seed + 1))
        c = SuperOperator(random_kraus_operators(2, count=2, seed=seed + 2))
        assert a.compose(b).compose(c).equals(a.compose(b.compose(c)))

    @given(seed=seeds)
    @_SETTINGS
    def test_precedes_iff_pointwise_loewner(self, seed):
        """Lemma 3.1 on random pairs built so that comparability is possible."""
        base = SuperOperator(random_kraus_operators(2, count=2, trace_preserving=False, seed=seed))
        extra = SuperOperator(random_kraus_operators(2, count=1, trace_preserving=False, seed=seed + 1))
        scaled_extra = 0.0 if seed % 2 else 1.0
        larger = base + (extra * 0.2) if scaled_extra else base
        assert base.precedes(larger, atol=1e-7) == True  # noqa: E712 - explicit truth check
        for probe_seed in range(3):
            rho = random_density_operator(2, seed=probe_seed)
            assert loewner_le(base.apply(rho), larger.apply(rho), atol=1e-7)


# ---------------------------------------------------------------------------
# Representation round-trip properties (Kraus ↔ Choi)
# ---------------------------------------------------------------------------


class TestRepresentationRoundTrips:
    @given(seed=seeds, count=st.integers(min_value=1, max_value=4))
    @_SETTINGS
    def test_kraus_choi_kraus_round_trip_preserves_the_map(self, seed, count):
        kraus = random_kraus_operators(4, count=count, trace_preserving=False, seed=seed)
        recovered = kraus_from_choi(choi_matrix(kraus))
        assert np.allclose(choi_matrix(recovered), choi_matrix(kraus), atol=1e-8)
        assert SuperOperator(recovered, validate=False).equals(
            SuperOperator(kraus, validate=False)
        )


# ---------------------------------------------------------------------------
# Predicate / assertion order properties
# ---------------------------------------------------------------------------


class TestOrderProperties:
    @given(seed=seeds, size=st.integers(min_value=1, max_value=3))
    @_SETTINGS
    def test_leq_inf_reflexive(self, seed, size):
        assertion = QuantumAssertion(
            [random_predicate_matrix(2, seed=seed + index) for index in range(size)]
        )
        assert leq_inf(assertion, assertion).holds

    @given(seed=seeds)
    @_SETTINGS
    def test_union_lowers_the_left_side(self, seed):
        """Θ ∪ Θ' ⊑_inf Θ: adding predicates can only decrease the guaranteed expectation."""
        theta = QuantumAssertion([random_predicate_matrix(2, seed=seed)])
        extra = QuantumAssertion([random_predicate_matrix(2, seed=seed + 1)])
        union = theta.union(extra)
        assert leq_inf(union, theta).holds

    @given(seed=seeds)
    @_SETTINGS
    def test_leq_inf_agrees_with_expectations_on_samples(self, seed):
        theta = QuantumAssertion([random_predicate_matrix(2, seed=seed + k) for k in range(2)])
        psi = QuantumAssertion([random_predicate_matrix(2, seed=seed + 10)])
        if leq_inf(theta, psi, epsilon=1e-7).holds:
            for probe in range(10):
                rho = np.outer(*(2 * [random_state_vector(2, seed=seed + 20 + probe).flatten()]))
                rho = np.outer(
                    random_state_vector(2, seed=seed + 20 + probe).flatten(),
                    random_state_vector(2, seed=seed + 20 + probe).flatten().conj(),
                )
                assert theta.expectation(rho) <= psi.expectation(rho) + 1e-4

    @given(seed=seeds)
    @_SETTINGS
    def test_adjoint_application_is_monotone(self, seed):
        """Lemma 4.2(1): Θ ⊑_inf Ψ implies E†(Θ) ⊑_inf E†(Ψ) for singletons."""
        small = random_predicate_matrix(2, seed=seed)
        large = QuantumPredicate(small).complement().matrix + small  # = I ⊒ small
        channel = SuperOperator(random_kraus_operators(2, count=2, trace_preserving=False, seed=seed))
        theta = QuantumAssertion([small]).apply_superoperator_adjoint(channel)
        psi = QuantumAssertion([large]).apply_superoperator_adjoint(channel)
        assert leq_inf(theta, psi).holds


# ---------------------------------------------------------------------------
# Semantics and logic properties on random programs
# ---------------------------------------------------------------------------


class TestSemanticsProperties:
    @given(program=loop_free_programs())
    @_SETTINGS
    def test_denotations_are_trace_nonincreasing(self, program):
        register = QubitRegister(["q"])
        for channel in denotation(program, register):
            assert channel.is_trace_nonincreasing(atol=1e-7)

    @given(program=loop_free_programs(), seed=seeds)
    @_SETTINGS
    def test_wp_duality_holds_for_random_programs(self, program, seed):
        """Lemma A.1(3) on random loop-free programs and random states."""
        register = QubitRegister(["q"])
        post = QuantumAssertion([random_predicate_matrix(2, seed=seed)])
        rho = random_density_operator(2, seed=seed + 1)
        wp = weakest_precondition(program, post, register)
        direct = min(post.expectation(channel.apply(rho)) for channel in denotation(program, register))
        assert wp.expectation(rho) == pytest.approx(direct, abs=1e-7)

    @given(program=loop_free_programs(), seed=seeds)
    @_SETTINGS
    def test_wlp_duality_holds_for_random_programs(self, program, seed):
        """Lemma A.1(4) on random loop-free programs and random states."""
        register = QubitRegister(["q"])
        post = QuantumAssertion([random_predicate_matrix(2, seed=seed)])
        rho = random_partial_density_operator(2, seed=seed + 1)
        wlp = weakest_liberal_precondition(program, post, register)
        trace_rho = float(np.real(np.trace(rho)))
        direct = min(
            post.expectation(channel.apply(rho)) + trace_rho - float(np.real(np.trace(channel.apply(rho))))
            for channel in denotation(program, register)
        )
        assert wlp.expectation(rho) == pytest.approx(direct, abs=1e-7)

    @given(
        program=loop_free_programs(),
        seed=seeds,
        scale=st.floats(min_value=0.05, max_value=1.0),
    )
    @_SETTINGS
    def test_wp_is_linear_and_wlp_of_zero_is_the_divergence_probability(
        self, program, seed, scale
    ):
        """``wp.S.(c·M)`` is ``c · wp.S.M``; ``wlp.S.0`` holds one ``I − E†(I)`` per branch.

        Checked on expectations at a random state: scaling the postcondition
        scales the guaranteed expectation, and every branch ``E`` of ``[[S]]``
        has a predicate in ``wlp.S.0`` whose expectation is the probability
        ``1 − tr E(ρ)`` that the branch diverges.
        """
        register = QubitRegister(["q"])
        matrix = random_predicate_matrix(2, seed=seed)
        post = QuantumAssertion([matrix])
        scaled = QuantumAssertion([scale * matrix])
        rho = random_density_operator(2, seed=seed + 1)
        channels = denotation(program, register)
        wp = weakest_precondition(program, post, register)
        assert weakest_precondition(program, scaled, register).expectation(rho) == pytest.approx(
            scale * wp.expectation(rho), abs=1e-7
        )
        zero = QuantumAssertion([np.zeros((2, 2), dtype=complex)])
        gaps = weakest_liberal_precondition(program, zero, register)
        for channel in channels:
            output = channel.apply(rho)
            gap = 1.0 - float(np.real(np.trace(output)))
            assert any(
                abs(predicate.expectation(rho) - gap) <= 1e-7 for predicate in gaps.predicates
            )

    @given(program=loop_free_programs(), seed=seeds)
    @_SETTINGS
    def test_prover_is_sound_on_random_programs(self, program, seed):
        """Theorem 4.1/4.2 (soundness), cross-checked against the semantics:
        whenever the prover validates {Θ} S {Ψ}, the semantic check agrees."""
        register = QubitRegister(["q"])
        post = QuantumAssertion([random_predicate_matrix(2, seed=seed)])
        pre = QuantumAssertion([random_predicate_matrix(2, seed=seed + 1)])
        for mode in (CorrectnessMode.PARTIAL, CorrectnessMode.TOTAL):
            formula = CorrectnessFormula(pre, program, post, mode)
            report = verify_formula(formula, register)
            if report.verified:
                result = check_formula_semantically(formula, register, samples=4, seed=seed)
                assert result.holds

    @given(program=loop_free_programs(), seed=seeds)
    @_SETTINGS
    def test_prover_is_complete_on_loop_free_programs(self, program, seed):
        """Relative completeness on loop-free programs: the VC is exactly the wlp/wp,
        so any semantically valid precondition is accepted by the prover."""
        register = QubitRegister(["q"])
        post = QuantumAssertion([random_predicate_matrix(2, seed=seed)])
        formula = CorrectnessFormula(QuantumAssertion.zero(1), program, post, CorrectnessMode.PARTIAL)
        report = verify_formula(formula, register)
        assert report.verified
        expected = weakest_liberal_precondition(program, post, register)
        assert report.verification_condition.set_equal(expected)


# ---------------------------------------------------------------------------
# Algebraic laws of the lifted semantics on random programs
# ---------------------------------------------------------------------------


def _equivalent(first, second):
    register = QubitRegister(["q"])
    return set_equal(denotation(first, register), denotation(second, register), atol=1e-8)


def _refines(implementation, specification):
    register = QubitRegister(["q"])
    return set_subset(
        denotation(implementation, register), denotation(specification, register), atol=1e-8
    )


class TestProgramAlgebraProperties:
    """Laws that follow from ``[[S]]`` being a set of super-operators (Sec. 3)."""

    @given(first=loop_free_programs(), second=loop_free_programs())
    @_SETTINGS
    def test_choice_is_commutative_and_idempotent(self, first, second):
        assert _equivalent(ndet(first, second), ndet(second, first))
        assert _equivalent(ndet(first, first), first)

    @given(first=loop_free_programs(), second=loop_free_programs(), third=loop_free_programs())
    @_SETTINGS
    def test_sequencing_is_associative(self, first, second, third):
        assert _equivalent(seq(seq(first, second), third), seq(first, seq(second, third)))

    @given(first=loop_free_programs(), second=loop_free_programs(), third=loop_free_programs())
    @_SETTINGS
    def test_sequencing_distributes_over_choice(self, first, second, third):
        assert _equivalent(
            seq(ndet(first, second), third), ndet(seq(first, third), seq(second, third))
        )
        assert _equivalent(
            seq(third, ndet(first, second)), ndet(seq(third, first), seq(third, second))
        )

    @given(first=loop_free_programs(), second=loop_free_programs(), third=loop_free_programs())
    @_SETTINGS
    def test_conditional_distributes_over_choice_in_a_branch(self, first, second, third):
        def branch(then_branch):
            return If(MEAS_COMPUTATIONAL, ("q",), then_branch, third)

        assert _equivalent(branch(ndet(first, second)), ndet(branch(first), branch(second)))

    @given(first=loop_free_programs(), second=loop_free_programs())
    @_SETTINGS
    def test_every_program_refines_its_choice_with_another(self, first, second):
        assert _refines(first, ndet(first, second))
        assert _refines(second, ndet(first, second))
