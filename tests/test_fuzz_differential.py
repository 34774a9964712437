"""Fuzzer sweep: generator validity, denotation-vs-wlp duality, shrinker laws.

The sweep seed and size are fixed so the batch is identical on every run and
on CI; any divergence this module ever finds should be promoted to
``tests/regressions/`` via ``python tools/fuzz.py --seed <S> --index <I>
--shrink`` (the repro line each failure message prints).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.static.analyzer import analyze_source
from repro.assistant.verify import build_task
from repro.fuzz import (
    GeneratorConfig,
    OracleConfig,
    generate_batch,
    generate_program,
    shrink,
)
from repro.fuzz.differential import ReplayProgram, check_program, repro_line, run_differential
from repro.fuzz.generator import FGate, FuzzProgram
from repro.language.ast import While
from repro.language.parser import parse_annotated_program
from repro.logic.prover import Prover
from repro.semantics.denotational import DenotationOptions, denotation

#: The fixed sweep identity: every run checks the same 200 programs.
SWEEP_SEED = 20260808
SWEEP_COUNT = 200
CHUNK = 25

#: Oracle setup of the in-suite sweep (the CI smoke gate runs the driver's
#: heavier default separately).
SWEEP_CONFIG = OracleConfig(max_iterations=16)


def _chunk(index: int):
    return generate_batch(SWEEP_SEED, SWEEP_COUNT)[index * CHUNK : (index + 1) * CHUNK]


def _first_loop_free():
    return next(p for p in generate_batch(SWEEP_SEED, SWEEP_COUNT) if not p.contains_while())


def _scale_denotation(monkeypatch, factor):
    """Make the oracle's denotation engine return every channel scaled by ``factor``."""
    import repro.fuzz.differential as differential

    real = differential.denotation
    monkeypatch.setattr(
        differential, "denotation", lambda *a, **k: [factor * e for e in real(*a, **k)]
    )


class TestGeneratorValidity:
    """Every draw is well-typed by construction — asserted, not assumed."""

    def test_batch_is_deterministic_and_index_reproducible(self):
        batch = generate_batch(SWEEP_SEED, 20)
        again = generate_batch(SWEEP_SEED, 20)
        assert [p.source() for p in batch] == [p.source() for p in again]
        # --index I regenerates batch member I bit-for-bit in isolation.
        assert generate_program(SWEEP_SEED, 13).source() == batch[13].source()

    def test_every_draw_parses_resolves_and_lints_clean(self):
        for program in generate_batch(SWEEP_SEED, SWEEP_COUNT):
            source = program.source()
            annotated = parse_annotated_program(source)
            assert annotated.postcondition is not None
            result = analyze_source(source)
            assert not result.errors, (
                f"{repro_line(program.seed, program.index)} produced analyzer errors: "
                f"{[d.code for d in result.errors]}"
            )
            task = build_task(source)
            assert task.formula.program.size() >= 1

    def test_draws_cover_the_full_grammar(self):
        batch = generate_batch(SWEEP_SEED, SWEEP_COUNT)
        sources = [p.source() for p in batch]
        assert any(p.contains_while() for p in batch)
        assert any("(" in s for s in sources), "no nondeterministic choice drawn"
        assert any("if " in s for s in sources)
        assert any("abort" in s for s in sources)
        assert any(":= 0" in s for s in sources)
        assert any("inv:" in s for s in sources)

    def test_clifford_bias_one_draws_clifford_gates_only(self):
        clifford = {"X", "Y", "Z", "H", "S", "CX", "CZ", "SWAP", "C0X"}
        config = GeneratorConfig(clifford_bias=1.0)
        for program in generate_batch(99, 50, config):
            assert program.gate_names() <= clifford, program.gate_names()

    def test_qubit_budget_is_respected(self):
        config = GeneratorConfig(min_qubits=2, max_qubits=2)
        for program in generate_batch(5, 20, config):
            assert program.qubits == ("q0", "q1")


class TestDifferentialSweep:
    """On every fixed-seed draw the engines run, and loop-free ones are dual."""

    @pytest.mark.parametrize("chunk", range(SWEEP_COUNT // CHUNK))
    def test_sweep_chunk_has_no_divergence(self, chunk):
        for program in _chunk(chunk):
            divergences = check_program(program, SWEEP_CONFIG)
            assert not divergences, "\n".join(
                f"{d.kind} {d.combo_a} vs {d.combo_b}: {d.detail}\n"
                f"repro: {d.repro}\n{d.source}"
                for d in divergences
            )

    def test_loop_free_draws_check_prover_against_wlp(self):
        batch = generate_batch(SWEEP_SEED, SWEEP_COUNT)
        loop_free = [p for p in batch if not p.contains_while()]
        # The duality and prover-vs-wlp comparisons (exact on loop-free
        # programs) run inside check_program; here we pin that the sweep
        # actually exercises them on a healthy fraction of the batch.
        assert len(loop_free) >= SWEEP_COUNT // 10

    def test_duality_holds_on_loop_free_draws_to_rounding(self):
        # The check is exact, not slack-absorbing: on loop-free draws the
        # structural wlp and the one implied by the denotation agree far
        # below ATOL.
        from repro.fuzz.differential import _dual_wlp, _engine_run, _matrices

        checked = 0
        for program in generate_batch(SWEEP_SEED, 60):
            if program.contains_while():
                continue
            task = build_task(program.source())
            post = task.formula.postcondition
            channels, wlp, _ = _engine_run(task.formula.program, post, task.register, SWEEP_CONFIG)
            dual = _dual_wlp(channels, post)
            for matrix in _matrices(wlp):
                assert min(np.abs(matrix - other).max() for other in dual) < 1e-12
            checked += 1
        assert checked >= 5

    def test_halved_denotation_breaks_duality(self, monkeypatch):
        # A denotation engine that loses half of every channel's mass must be
        # caught on a loop-free draw, even though every other check passes.
        _scale_denotation(monkeypatch, 0.5)
        program = _first_loop_free()
        divergences = check_program(program, SWEEP_CONFIG)
        assert [d.kind for d in divergences] == ["duality"]
        assert (divergences[0].combo_a, divergences[0].combo_b) == ("wlp", "denotation")

    def test_loop_draws_check_duality_and_catch_engine_errors(self, monkeypatch):
        import repro.fuzz.differential as differential

        # Draw 3 is a loop draw whose top-level loop is certified, so its wlp
        # is compared with the denotation; a doubled denotation lowers the
        # duals below every wlp element.
        program = _chunk(0)[3]
        assert program.contains_while()
        report = run_differential([program], SWEEP_CONFIG)
        assert report.ok and report.loop_draws_compared == 1
        assert report.to_dict()["loop_draws_compared"] == 1
        with monkeypatch.context() as patch:
            _scale_denotation(patch, 2.0)
            divergences = check_program(program, SWEEP_CONFIG)
        assert [d.kind for d in divergences] == ["duality"]
        assert (divergences[0].combo_a, divergences[0].combo_b) == ("wlp", "denotation")

        def broken(*args, **kwargs):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(differential, "denotation", broken)
        divergences = check_program(program, SWEEP_CONFIG)
        assert [d.kind for d in divergences] == ["error"]
        assert "RuntimeError: engine bug" in divergences[0].detail

    def test_sweep_counts_termination_certificates(self):
        programs = _chunk(0)
        report = run_differential(programs, SWEEP_CONFIG)
        assert report.ok
        loops = sum(
            1
            for program in programs
            if program.contains_while()
            for node in build_task(program.source()).formula.program.walk()
            if isinstance(node, While)
        )
        assert sum(report.loops.values()) == loops
        assert report.loops["certified"] > 0
        assert report.to_dict()["loops"] == dict(report.loops)

    def test_optimistic_certificate_is_a_termination_divergence(self, monkeypatch):
        # A certificate that accepts `while M[q0] do skip end` is unsound:
        # the constant scheduler keeps |1⟩ inside forever.
        import repro.fuzz.differential as differential

        source = "[q0] := 0; { inv: I[q0] }; while M[q0] do skip end; { P0[q0] }"
        program = ReplayProgram(source, seed=0, index=0)
        assert check_program(program, SWEEP_CONFIG) == []

        monkeypatch.setattr(differential, "_certificate", lambda analysis: ("certified", 0.0))
        divergences = check_program(program, SWEEP_CONFIG)
        assert [d.kind for d in divergences] == ["termination"]
        assert "cyclic scheduler [0]" in divergences[0].detail

    def test_loop_draw_denotes_its_loop_body_once_outside_the_engine(self, monkeypatch):
        # The termination check reads the loop analysis the wlp call built:
        # no certificate is synthesized and the body is not denoted again.
        import repro.fuzz.differential as differential
        import repro.logic.ranking as ranking
        from repro.semantics import denotational

        tasks, denoted = [], []
        build, denote = differential.build_task, denotational._denote

        def building(*args, **kwargs):
            tasks.append(build(*args, **kwargs))
            return tasks[-1]

        def denoting(program, *args, **kwargs):
            denoted.append(program)
            return denote(program, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle synthesized a ranking certificate")

        monkeypatch.setattr(differential, "build_task", building)
        monkeypatch.setattr(denotational, "_denote", denoting)
        monkeypatch.setattr(ranking, "synthesize_ranking", forbidden)
        assert check_program(_chunk(0)[3], SWEEP_CONFIG) == []
        (loop,) = [node for node in tasks[0].formula.program.walk() if isinstance(node, While)]
        # Once inside the engine's denotation of the draw, once for the analysis.
        assert sum(program is loop.body for program in denoted) == 2

    def test_slack_covers_a_wlp_pass_stopped_on_the_budget(self, monkeypatch):
        # Both branches keep ½·P¹ of I inside, so the I-seeded antichain holds
        # one element and certifies the loop at depth 31.  Against P1[q1] the
        # branches' values on q1 are incomparable, so with a budget of one
        # element the wlp pass stops at depth 1, where the residual is 1.
        import repro.fuzz.differential as differential
        from repro.semantics import wp

        source = (
            "[q0 q1] := 0; [q0] *= X; { inv: I[q0] }; "
            "while M[q0] do ( [q0] *= H # [q0] *= X; [q0] *= H; [q1] *= X ) end; { P1[q1] }"
        )
        monkeypatch.setattr(wp, "ANTICHAIN_BUDGET", 1)
        report = run_differential([ReplayProgram(source, seed=0, index=0)], SWEEP_CONFIG)
        assert report.ok and report.loop_draws_compared == 1
        assert report.loops == {"certified": 1}
        task = build_task(source)
        program, post = task.formula.program, task.formula.postcondition
        _, _, analyses = differential._engine_run(program, post, task.register, SWEEP_CONFIG)
        (analysis,) = analyses.values()
        assert analysis.settle[0] == "settled"
        assert analysis.stop_residual == pytest.approx(1.0, abs=1e-6)

    def test_sweep_counts_denotation_maps_and_kraus_operators(self):
        programs = _chunk(0)[:10]
        report = run_differential(programs, SWEEP_CONFIG)
        options = DenotationOptions(max_iterations=SWEEP_CONFIG.max_iterations)
        maps = []
        for program in programs:
            task = build_task(program.source())
            maps.extend(denotation(task.formula.program, task.register, options))
        kraus = sum(len(channel.kraus_operators) for channel in maps)
        assert report.ok and len(maps) > len(programs)
        assert (report.denotation_maps, report.kraus_operators) == (len(maps), kraus)
        payload = report.to_dict()
        assert (payload["denotation_maps"], payload["kraus_operators"]) == (len(maps), kraus)

    def test_sweep_counts_order_decisions(self):
        programs = [program for program in _chunk(0) if not program.contains_while()][:4]
        report = run_differential(programs, SWEEP_CONFIG)
        assert report.ok and report.loop_free == len(programs) == 4
        assert report.order_decisions == 2 * len(programs)
        assert report.to_dict()["order_decisions"] == report.order_decisions

    def test_sweep_counts_prover_rules(self):
        programs = [program for program in _chunk(0) if not program.contains_while()][:4]
        report = run_differential(programs, SWEEP_CONFIG)
        rules = 0
        for program in programs:
            task = build_task(program.source())
            prover = Prover(task.register, invariants=task.invariants)
            prover.generate(task.formula.program, task.formula.postcondition)
            rules += sum(1 for event in prover.events if event.kind == "rule")
        assert report.ok and report.prover_rules == rules > 0
        assert report.to_dict()["prover_rules"] == rules

    def test_refused_or_undecided_order_is_an_order_divergence(self, monkeypatch):
        import repro.fuzz.differential as differential
        from repro.exceptions import VerificationError
        from repro.predicates.order import OrderCheckResult

        program = _first_loop_free()
        monkeypatch.setattr(differential, "leq_inf", lambda *a, **k: OrderCheckResult(holds=False))
        divergences = check_program(program, SWEEP_CONFIG)
        assert [(d.kind, d.combo_a, d.combo_b) for d in divergences] == [
            ("order", "prover", "wlp"),
            ("order", "wlp", "prover"),
        ]
        assert divergences[0].detail == "prover ⊑_inf wlp does not hold"

        def undecided(*args, **kwargs):
            raise VerificationError("the certified gap interval contains ε")

        monkeypatch.setattr(differential, "leq_inf", undecided)
        divergences = check_program(program, SWEEP_CONFIG)
        assert [d.kind for d in divergences] == ["order", "order"]
        assert divergences[0].detail.startswith("VerificationError: the certified gap interval")


class TestShrinker:
    """The delta-debugging loop is deterministic, size-reducing and idempotent."""

    @staticmethod
    def _has_t_gate(program: FuzzProgram) -> bool:
        return "T" in program.gate_names()

    def _programs_with_t(self, count=5):
        found = []
        config = GeneratorConfig(clifford_bias=0.0)
        index = 0
        while len(found) < count and index < 500:
            program = generate_program(777, index, config)
            if self._has_t_gate(program):
                found.append(program)
            index += 1
        assert len(found) == count
        return found

    def test_shrink_reduces_size_and_preserves_the_property(self):
        for program in self._programs_with_t():
            small = shrink(program, self._has_t_gate)
            assert self._has_t_gate(small)
            assert small.size() <= program.size()

    def test_shrink_is_idempotent(self):
        for program in self._programs_with_t():
            once = shrink(program, self._has_t_gate)
            twice = shrink(once, self._has_t_gate)
            assert once.source() == twice.source()

    def test_shrink_to_single_statement(self):
        # A property depending on one gate only should shrink to (almost)
        # nothing: one init prologue is kept for well-formedness, plus the
        # witness statement itself.
        for program in self._programs_with_t():
            small = shrink(program, self._has_t_gate)
            gates = [s for s in small.statements if isinstance(s, FGate)]
            assert sum(1 for g in gates if g.name == "T") >= 1
            assert small.size() <= 3, small.source()

    def test_shrunk_programs_stay_well_formed(self):
        for program in self._programs_with_t():
            small = shrink(program, self._has_t_gate)
            result = analyze_source(small.source())
            assert not result.errors
            build_task(small.source())

    def test_candidates_never_raise_on_sweep_draws(self):
        from repro.fuzz.shrink import candidates

        for program in generate_batch(SWEEP_SEED, 30):
            for candidate in candidates(program):
                source = candidate.source()
                assert isinstance(source, str) and source.strip()


class TestDivergenceReporting:
    """Failures carry the single-line repro the issue demands."""

    def test_repro_line_shape(self):
        assert repro_line(11, 42) == "python tools/fuzz.py --seed 11 --index 42 --shrink"

    def test_forced_divergence_reports_repro_and_source(self, monkeypatch):
        # Force both comparisons to "diverge" by stubbing the comparator,
        # exercising the reporting path without a real bug.
        import repro.fuzz.differential as differential

        monkeypatch.setattr(differential, "_matrix_sets_close", lambda *a, **k: False)
        program = _first_loop_free()
        divergences = check_program(program, SWEEP_CONFIG)
        assert [d.kind for d in divergences] == ["duality", "prover"]
        first = divergences[0]
        assert first.repro == repro_line(program.seed, program.index)
        assert first.source == program.source()
        payload = first.to_dict()
        assert payload["repro"].startswith("python tools/fuzz.py --seed ")
