"""Tests of the process-wide result cache and its hot-path wiring.

Covers the :class:`~repro.cache.ResultCache` mechanics (LRU bound, counters,
``cache_stats()``, the atomic ``get_or_set``), the prover's content-digest memo (structurally identical
subprograms share one annotation; a single-branch edit reuses ≥ 50 % of the
per-subterm annotations), honoring of caller tolerances after the
de-clamping, a cached-vs-uncached correctness sweep over the case-study
formulas at 2–4 qubits, and a reproducibility sweep: cold, warm and
uncached runs of denotation, wp/wlp and the prover return identical results
in identical order.
"""

import threading

import numpy as np
import pytest

from repro.cache import RESULT_CACHE, ResultCache, cache_stats, clear_result_cache
from repro.language.ast import If, Measurement, Unitary, seq
from repro.linalg.constants import ATOL, H, ORDER_ATOL, P0, P1, X, Z
from repro.logic.formula import CorrectnessFormula, CorrectnessMode
from repro.logic.prover import ProverOptions, verify_formula
from repro.predicates.assertion import QuantumAssertion
from repro.predicates.predicate import QuantumPredicate
from repro.programs.deutsch import deutsch_formula
from repro.programs.errcorr import errcorr_formula
from repro.programs.grover import grover_formula
from repro.programs.qwalk import qwalk_formula, qwalk_invariant
from repro.programs.rus import rus_formula, rus_invariant
from repro.registers import QubitRegister
from repro.semantics.denotational import DenotationOptions, denotation
from repro.semantics.wp import WpOptions, weakest_liberal_precondition, weakest_precondition
from repro.superop.compare import set_equal
from repro.superop.kraus import SuperOperator


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Isolate every test: start empty, restore default configuration after."""
    clear_result_cache()
    yield
    RESULT_CACHE.configure(maxsize=4096, enabled=True)
    clear_result_cache()


def _region(stats, name):
    return stats["regions"].get(name, {"hits": 0, "misses": 0, "evictions": 0})


# ---------------------------------------------------------------------------
# ResultCache mechanics
# ---------------------------------------------------------------------------


def test_result_cache_counters_and_lru_eviction():
    cache = ResultCache(maxsize=2)
    from repro.cache import MISS

    assert cache.lookup("r", "a") is MISS
    cache.store("r", "a", 1)
    assert cache.lookup("r", "a") == 1
    cache.store("r", "b", 2)
    cache.store("r", "c", 3)  # evicts "a" (least recently used)
    assert cache.lookup("r", "a") is MISS
    stats = cache.stats()
    assert stats["size"] == 2
    assert _region(stats, "r")["hits"] == 1
    assert _region(stats, "r")["misses"] == 2
    assert _region(stats, "r")["evictions"] == 1


def test_result_cache_none_key_bypasses_and_disable_switch():
    cache = ResultCache()
    from repro.cache import MISS

    cache.store("r", None, "x")
    assert cache.lookup("r", None) is MISS
    assert cache.stats()["regions"] == {}
    cache.configure(enabled=False)
    cache.store("r", "k", "v")
    assert cache.lookup("r", "k") is MISS
    cache.configure(enabled=True)
    assert cache.stats()["enabled"] is True


class TestGetOrSet:
    """``ResultCache.get_or_set`` looks up and inserts under one lock hold."""

    def test_hit_and_miss_counters_bump_exactly_once(self):
        cache = ResultCache(maxsize=8)
        assert cache.get_or_set("r", "k", 1) == 1  # miss, inserts
        assert cache.get_or_set("r", "k", 2) == 1  # hit, keeps first value
        stats = cache.stats()["regions"]["r"]
        assert stats == {"hits": 1, "misses": 1, "evictions": 0}

    def test_uncacheable_key_returns_default_untouched(self):
        cache = ResultCache(maxsize=8)
        assert cache.get_or_set("r", None, "d") == "d"
        assert cache.stats()["regions"] == {}

    def test_concurrent_racers_agree_on_one_value(self):
        cache = ResultCache(maxsize=64)
        barrier = threading.Barrier(8)
        winners = []

        def race(token):
            barrier.wait()
            winners.append(cache.get_or_set("race", "key", token))

        threads = [threading.Thread(target=race, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Exactly one insert won; every thread observed the winner's value,
        # and hit + miss counts account for all eight calls with one miss.
        assert len(set(winners)) == 1
        stats = cache.stats()["regions"]["race"]
        assert stats["misses"] == 1
        assert stats["hits"] == 7

    def test_eviction_still_bounded(self):
        cache = ResultCache(maxsize=2)
        for index in range(5):
            cache.get_or_set("r", f"k{index}", index)
        assert cache.stats()["size"] == 2
        assert cache.stats()["regions"]["r"]["evictions"] == 3


def test_cache_stats_reports_process_wide_regions():
    formula, register = deutsch_formula()
    verify_formula(formula, register)
    stats = cache_stats()
    assert _region(stats, "prover")["misses"] > 0
    assert stats["size"] > 0


# ---------------------------------------------------------------------------
# Prover annotation sharing and incremental reuse
# ---------------------------------------------------------------------------

_MEAS = Measurement("M01", P0, P1)


def _gate(name, qubit, matrix):
    return Unitary((qubit,), name, matrix)


def _formula_for(program, register):
    identity = QuantumAssertion.identity(register.num_qubits)
    return CorrectnessFormula(identity, program, identity, CorrectnessMode.PARTIAL)


def test_identical_subprograms_share_one_annotation():
    # Two structurally identical (but separately constructed) branches of a
    # nondeterministic choice must resolve to ONE annotation object.
    from repro.language.ast import NDet

    sub_a = seq(_gate("H", "q0", H), _gate("X", "q1", X))
    sub_b = seq(_gate("H", "q0", H.copy()), _gate("X", "q1", X.copy()))
    program = NDet((sub_a, sub_b))
    register = QubitRegister(["q0", "q1"])
    report = verify_formula(_formula_for(program, register), register)
    assert report.verified
    root = report.outline.root
    assert root.children[0] is root.children[1]
    assert _region(cache_stats(), "prover")["hits"] > 0


def test_single_branch_edit_reuses_at_least_half_the_annotations():
    register = QubitRegister(["q0", "q1"])

    def program_with(then_gate):
        conditional = If(_MEAS, ("q0",), _gate("T", "q1", then_gate), _gate("E", "q1", Z))
        tail = [_gate(f"G{i}", "q0" if i % 2 else "q1", H if i % 2 else X) for i in range(8)]
        return seq(conditional, *tail)

    verify_formula(_formula_for(program_with(X), register), register)
    before = _region(cache_stats(), "prover")
    # Edit one branch of the conditional; everything else is unchanged.
    verify_formula(_formula_for(program_with(H), register), register)
    after = _region(cache_stats(), "prover")
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    assert hits + misses > 0
    reuse = hits / (hits + misses)
    assert reuse >= 0.5, f"only {reuse:.0%} of per-subterm annotations were reused"


def test_reverification_of_identical_program_is_a_full_cache_hit():
    formula, register = grover_formula(2)
    first = verify_formula(formula, register)
    before = _region(cache_stats(), "prover")
    second = verify_formula(formula, register)
    after = _region(cache_stats(), "prover")
    assert second.verified == first.verified
    assert after["misses"] == before["misses"]  # no annotation recomputed
    assert after["hits"] > before["hits"]
    assert second.messages == first.messages  # replayed, not dropped


# ---------------------------------------------------------------------------
# Tolerance honoring (de-clamped atol)
# ---------------------------------------------------------------------------


def test_loewner_le_honors_stricter_caller_atol():
    eps = QuantumPredicate.uniform(5e-8, 1)
    zero = QuantumPredicate.zero(1)
    assert eps.loewner_le(zero, atol=1e-7)  # loose request: holds
    assert not eps.loewner_le(zero, atol=1e-9)  # strict request now honored
    assert ORDER_ATOL == pytest.approx(1e-7)


def test_precedes_honors_stricter_caller_atol():
    eps = SuperOperator.scalar(5e-8, 2)
    zero = SuperOperator.zero(2)
    assert eps.precedes(zero, atol=5e-7)
    assert not eps.precedes(zero, atol=1e-9)


# ---------------------------------------------------------------------------
# Cached vs uncached agreement on the case studies
# ---------------------------------------------------------------------------


def _sweep_cases():
    yield "deutsch", *deutsch_formula()
    for qubits in (2, 3, 4):
        yield f"grover{qubits}", *grover_formula(qubits)
    yield "grover3-gates", *grover_formula(3, layout="gates")
    yield "errcorr3", *errcorr_formula(num_data_qubits=3)


_CASES = list(_sweep_cases())


def test_cached_and_uncached_runs_agree():
    for name, formula, register in _CASES:
        options = DenotationOptions()
        RESULT_CACHE.configure(enabled=False)
        uncached_maps = denotation(formula.program, register, options)
        RESULT_CACHE.configure(enabled=True)
        clear_result_cache()
        denotation(formula.program, register, options)  # populate
        cached_maps = denotation(formula.program, register, options)  # served from cache
        assert set_equal(uncached_maps, cached_maps, atol=ATOL), name

        if register.num_qubits > 3:
            continue  # prover sweep stays cheap, as in tier-1
        prover_options = ProverOptions()
        RESULT_CACHE.configure(enabled=False)
        uncached_report = verify_formula(formula, register, options=prover_options)
        RESULT_CACHE.configure(enabled=True)
        clear_result_cache()
        verify_formula(formula, register, options=prover_options)
        cached_report = verify_formula(formula, register, options=prover_options)
        assert cached_report.verified == uncached_report.verified, name
        uncached_vc = uncached_report.verification_condition
        cached_vc = cached_report.verification_condition
        assert len(uncached_vc.predicates) == len(cached_vc.predicates)
        for mine, theirs in zip(uncached_vc.predicates, cached_vc.predicates):
            assert np.allclose(mine.matrix, theirs.matrix, atol=ATOL), name


def test_explicit_schedulers_bypass_the_cache():
    from repro.semantics.schedulers import ConstantScheduler

    formula, register = errcorr_formula(num_data_qubits=3)
    options = DenotationOptions(schedulers=[ConstantScheduler(0)])
    denotation(formula.program, register, options)
    stats = cache_stats()
    assert _region(stats, "denotation")["misses"] == 0
    assert _region(stats, "denotation")["hits"] == 0


# ---------------------------------------------------------------------------
# Cold, warm and uncached runs are identical, in identical order
# ---------------------------------------------------------------------------


def _reproducibility_cases():
    """Yield ``(name, formula, register, invariants)`` across sizes 2–4 qubits."""
    yield "deutsch", *deutsch_formula(), []
    for qubits in (2, 3, 4):
        yield f"grover{qubits}", *grover_formula(qubits, layout="gates"), []
    for positions in (4, 8, 16):
        formula, register = qwalk_formula(positions)
        yield f"qwalk{positions}", formula, register, [qwalk_invariant(positions)]
    for code_size in (3, 4):
        yield f"errcorr{code_size}", *errcorr_formula(num_data_qubits=code_size), []
    formula, register = rus_formula()
    yield "rus", formula, register, [rus_invariant()]


_REPRODUCIBILITY_CASES = list(_reproducibility_cases())
_SMALL_CASES = [case for case in _REPRODUCIBILITY_CASES if case[2].num_qubits <= 3]


def _cold_warm_uncached(region, compute):
    """Run ``compute`` from an empty cache, again from the warm cache, then uncached."""
    clear_result_cache()
    cold = compute()
    before = _region(cache_stats(), region)
    warm = compute()
    after = _region(cache_stats(), region)
    assert after["hits"] > before["hits"], f"warm run was not served by the {region} cache"
    assert after["misses"] == before["misses"], f"warm run recomputed a {region} entry"
    RESULT_CACHE.configure(enabled=False)
    try:
        uncached = compute()
    finally:
        RESULT_CACHE.configure(enabled=True)
    return cold, warm, uncached


def _assert_same_matrices_in_order(reference, others, label):
    for other in others:
        assert len(other) == len(reference), label
        for position, (a, b) in enumerate(zip(reference, other)):
            assert np.allclose(a, b, atol=ATOL), (label, position)


@pytest.mark.parametrize(
    "name,formula,register,invariants",
    _REPRODUCIBILITY_CASES,
    ids=[case[0] for case in _REPRODUCIBILITY_CASES],
)
def test_denotation_runs_are_reproducible(name, formula, register, invariants):
    options = DenotationOptions()
    runs = _cold_warm_uncached(
        "denotation", lambda: denotation(formula.program, register, options)
    )
    cold = runs[0]
    # Identical ordering AND identical elements to ATOL, not just set equality.
    for other in runs[1:]:
        assert len(other) == len(cold), name
        for position, (a, b) in enumerate(zip(cold, other)):
            assert a.equals(b, atol=ATOL), (name, position)


@pytest.mark.parametrize(
    "name,formula,register,invariants", _SMALL_CASES, ids=[case[0] for case in _SMALL_CASES]
)
def test_wp_and_wlp_runs_are_reproducible(name, formula, register, invariants):
    program, post = formula.program, formula.postcondition
    options = WpOptions()
    for label, transform in (("wp", weakest_precondition), ("wlp", weakest_liberal_precondition)):
        cold, warm, uncached = _cold_warm_uncached(
            "wp",
            lambda: [p.matrix for p in transform(program, post, register, options).predicates],
        )
        _assert_same_matrices_in_order(cold, (warm, uncached), (name, label))


@pytest.mark.parametrize(
    "name,formula,register,invariants", _SMALL_CASES, ids=[case[0] for case in _SMALL_CASES]
)
def test_prover_runs_are_reproducible(name, formula, register, invariants):
    options = ProverOptions()
    reports = _cold_warm_uncached(
        "prover", lambda: verify_formula(formula, register, invariants or None, options=options)
    )
    assert all(report.verified for report in reports), name
    assert reports[1].messages == reports[0].messages  # replayed, not dropped
    conditions = [
        [p.matrix for p in report.verification_condition.predicates] for report in reports
    ]
    _assert_same_matrices_in_order(conditions[0], conditions[1:], name)
