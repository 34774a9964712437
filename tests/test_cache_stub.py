"""Tests of :mod:`repro.cache`, the two names the benchmark harness imports.

No result outlives the call that computed it, so ``clear_result_cache``
does nothing and ``cache_stats`` reports no region, before and after a
verification.  Neither name is part of the package's public surface.
"""

import repro
from repro import cache
from repro.logic.prover import verify_formula
from repro.programs import grover_formula


def test_module_exports_only_the_two_harness_names():
    assert sorted(cache.__all__) == ["cache_stats", "clear_result_cache"]


def test_no_region_is_reported_before_or_after_a_verification():
    assert cache.cache_stats() == {"regions": {}}
    formula, register = grover_formula(num_qubits=2)
    assert verify_formula(formula, register).verified
    assert cache.cache_stats() == {"regions": {}}


def test_clearing_leaves_the_next_verification_unchanged():
    formula, register = grover_formula(num_qubits=2)
    before = verify_formula(formula, register)
    assert cache.clear_result_cache() is None
    after = verify_formula(formula, register)
    assert after.verified and before.verified
    assert after.messages == before.messages
    assert not any(event.replayed for event in after.events)


def test_stub_is_not_reexported_from_the_package():
    for name in cache.__all__:
        assert not hasattr(repro, name), name
        assert name not in repro.__all__, name
