"""Unit tests for the lifted denotational semantics (Fig. 2, Lemmas 3.1–3.2)."""

import itertools
import pickle

import numpy as np
import pytest

from repro.assistant.verify import build_task
from repro.exceptions import SemanticsError
from repro.fuzz import OracleConfig, generate_batch
from repro.fuzz.generator import FInit
from repro.language.ast import (
    Abort,
    If,
    Init,
    MEAS_COMPUTATIONAL,
    Seq,
    Skip,
    Unitary,
    While,
    measure,
    ndet,
    seq,
)
from repro.linalg.constants import CX, H, P0, P1, X
from repro.linalg.operators import operators_close
from repro.linalg.random import random_density_operator
from repro.linalg.states import density, ket, maximally_mixed, minus_state, plus_state
from repro.language.names import default_environment
from repro.programs import (
    apply_noise,
    errcorr_program,
    errcorr_register,
    grover_program,
    grover_register,
    noisy_grover_formula,
    nondeterministic_rus_program,
    qwalk_program,
    qwalk_register,
    rus_program,
    rus_register,
    teleport_program,
    teleport_register,
)
from repro.registers import QubitRegister
from repro.semantics import denotational
from repro.semantics.denotational import (
    DenotationOptions,
    apply_denotation,
    denotation,
    initializer_adjoint,
    initializer_channel,
    loop_iterates,
    measurement_superoperators,
)
from repro.semantics.schedulers import (
    ConstantScheduler,
    FunctionScheduler,
    constant_schedulers,
    sample_schedulers,
)
from repro.superop import choi as choi_module
from repro.superop import kraus as kraus_module
from repro.superop.compare import deduplicate, set_equal
from repro.superop.kraus import SuperOperator


@pytest.fixture
def q_register():
    return QubitRegister(["q"])


class TestBasicStatements:
    def test_skip_is_identity(self, q_register):
        maps = denotation(Skip(), q_register)
        assert len(maps) == 1
        assert maps[0].equals(SuperOperator.identity(2))

    def test_abort_is_zero(self, q_register):
        maps = denotation(Abort(), q_register)
        assert maps[0].equals(SuperOperator.zero(2))

    def test_init_resets(self, q_register):
        maps = denotation(Init(("q",)), q_register)
        assert operators_close(maps[0].apply(density(ket("1"))), density(ket("0")))

    def test_unitary(self, q_register):
        maps = denotation(Unitary(("q",), "X", X), q_register)
        assert operators_close(maps[0].apply(density(ket("0"))), density(ket("1")))

    def test_register_must_cover_variables(self, q_register):
        with pytest.raises(SemanticsError):
            denotation(Init(("other",)), q_register)


class TestComposite:
    def test_sequence_composes_in_order(self, q_register):
        program = seq(Init(("q",)), Unitary(("q",), "X", X))
        maps = denotation(program, q_register)
        assert len(maps) == 1
        assert operators_close(maps[0].apply(maximally_mixed(1)), density(ket("1")))

    def test_ndet_is_union(self, q_register):
        program = ndet(Skip(), Unitary(("q",), "X", X))
        maps = denotation(program, q_register)
        assert len(maps) == 2

    def test_lifted_sequencing_multiplies_choices(self, q_register):
        program = seq(
            ndet(Skip(), Unitary(("q",), "X", X)),
            ndet(Skip(), Unitary(("q",), "H", H)),
        )
        maps = denotation(program, q_register)
        assert len(maps) == 4

    def test_if_sums_measurement_branches(self, q_register):
        program = If(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "X", X), Skip())
        maps = denotation(program, q_register)
        assert len(maps) == 1
        # |+⟩ collapses to an even mixture; the 1-branch is flipped to |0⟩.
        output = maps[0].apply(density(plus_state()))
        assert operators_close(output, density(ket("0")))

    def test_measure_sugar_is_trace_preserving(self, q_register):
        maps = denotation(measure(("q",)), q_register)
        assert maps[0].is_trace_preserving()

    def test_denotation_is_trace_nonincreasing(self, q_register):
        program = seq(measure(("q",)), ndet(Skip(), Abort()))
        for channel in denotation(program, q_register):
            assert channel.is_trace_nonincreasing()


def _statementwise(program, register):
    """``[[S0; …; Sn]]`` folded one statement at a time from ``{identity}``."""
    if not isinstance(program, Seq):
        return denotation(program, register)
    current = [SuperOperator.identity(register.dimension)]
    for statement in program.statements:
        step = _statementwise(statement, register)
        current = [later.compose(earlier) for earlier in current for later in step]
    return current


def _count_kraus_products(monkeypatch):
    """Record ``len(self) · len(other)`` for every :meth:`SuperOperator.compose` call."""
    products = []
    original = SuperOperator.compose

    def counting(self, other):
        products.append(len(self.kraus_operators) * len(other.kraus_operators))
        return original(self, other)

    monkeypatch.setattr(SuperOperator, "compose", counting)
    return products


class TestUnitaryRuns:
    """A run of consecutive unitaries in a ``Seq`` is one matrix, composed once."""

    def test_grover_6_multiplies_no_initializer_operator(self, monkeypatch):
        products = _count_kraus_products(monkeypatch)
        maps = denotation(grover_program(6, layout="gates"), grover_register(6))
        assert len(maps) == 1
        # The one run of 90 gates is U; U ∘ Set0 copies U's columns into
        # Set0's 64 operators, so no Kraus product is formed.
        assert products == []
        assert len(maps[0].kraus_operators) == 64

    @pytest.mark.parametrize(
        "build",
        [
            lambda: (grover_program(3, layout="gates"), grover_register(3)),
            lambda: (errcorr_program(3), errcorr_register(3)),
            lambda: (
                seq(
                    Unitary(("q",), "H", H),
                    Unitary(("q",), "X", X),
                    Unitary(("q", "r"), "CX", CX),
                    ndet(Skip(), Unitary(("q", "r"), "CX", CX)),
                    Unitary(("r",), "H", H),
                    Unitary(("r",), "X", X),
                    If(
                        MEAS_COMPUTATIONAL,
                        ("q",),
                        seq(Unitary(("r",), "X", X), Unitary(("r",), "H", H)),
                        Init(("r",)),
                    ),
                    Unitary(("q",), "H", H),
                ),
                QubitRegister(["q", "r"]),
            ),
        ],
        ids=["grover-3", "errcorr-3", "mixed"],
    )
    def test_same_set_as_composing_statement_by_statement(self, build):
        program, register = build()
        assert set_equal(denotation(program, register), _statementwise(program, register))

    @pytest.mark.parametrize("num_data_qubits, expected_maps", [(3, 4), (4, 5), (5, 6)])
    def test_errcorr_builds_no_choi_matrix(self, monkeypatch, num_data_qubits, expected_maps):
        # The probe screen separates every pair of distinct noise branches.
        def refuse(*args, **kwargs):
            raise AssertionError("denotation must not build a Choi matrix here")

        for module in (choi_module, kraus_module):
            monkeypatch.setattr(module, "choi_matrix", refuse)
        maps = denotation(errcorr_program(num_data_qubits), errcorr_register(num_data_qubits))
        assert len(maps) == expected_maps


def _materialised_set0(qubits, register):
    """Fig. 2's ``Set0`` on ``qubits``: the operators ``|0⟩⟨i| ⊗ I``, built one by one."""
    size = 2 ** len(qubits)
    operators = []
    for index in range(size):
        local = np.zeros((size, size), dtype=complex)
        local[0, index] = 1.0
        operators.append(register.embed(local, qubits))
    return SuperOperator(operators, validate=False)


def _materialised_fold(statements, register, options):
    """The sequence fold that composes every step, ``Set0`` included, as Kraus products.

    Every map is on the full register.  Each run of gates is multiplied into
    its product here, gate by gate, and composed once; a composed map is
    compressed once it carries more than ``SIMPLIFY_THRESHOLD`` operators.
    A sequence that opens with an ``Init`` returns a zero map as the zero
    map's one operator, as the restricted fold does.
    """
    current = None
    for is_run, group in itertools.groupby(statements, key=lambda s: isinstance(s, Unitary)):
        if is_run:
            product = register.identity()
            for gate in group:
                product = register.apply(gate.matrix, gate.qubits, product)
            steps = [[SuperOperator([product], validate=False)]]
        else:
            steps = [
                [_materialised_set0(statement.qubits, register)]
                if isinstance(statement, Init)
                else denotational._denote(statement, register, options)
                for statement in group
            ]
        for step in steps:
            if current is not None:
                step = [later.compose(earlier) for earlier in current for later in step]
                step = [
                    channel.simplified()
                    if len(channel.kraus_operators) > denotational.SIMPLIFY_THRESHOLD
                    else channel
                    for channel in step
                ]
            current = step
            if options.dedup and len(current) > 1:
                current = deduplicate(current)
    if isinstance(statements[0], Init):
        current = [
            channel if channel.kraus_operators.any() else SuperOperator.zero(register.dimension)
            for channel in current
        ]
    return current


def _choi_distance(a, b):
    """``‖Choi(a) − Choi(b)‖₁`` without either Choi matrix.

    With the vectorised operators of both maps as the rows of ``W`` and
    ``S = diag(1, …, −1, …)``, ``Choi(a) − Choi(b) = Wᵀ S W̄``; for
    ``Wᵀ = QR`` it is ``Q (R S R†) Q†``, whose eigenvalues are those of the
    small hermitian ``R S R†``.
    """
    rows = np.concatenate([a.kraus_operators.reshape(len(a.kraus_operators), -1),
                           b.kraus_operators.reshape(len(b.kraus_operators), -1)])
    signs = np.r_[np.ones(len(a.kraus_operators)), -np.ones(len(b.kraus_operators))]
    _, triangle = np.linalg.qr(rows.T)
    return float(np.abs(np.linalg.eigvalsh((triangle * signs) @ triangle.conj().T)).sum())


#: ``simplified``'s pivoting threshold (its default ``atol``).
SIMPLIFY_ATOL = 1e-10


def _fold_tolerance(dimension, compressions, traces):
    """The budget for ``_choi_distance`` of two folds of one map, fixed before any run.

    ``simplified`` documents that a compression leaves out a completely
    positive map of trace norm at most ``(min(k, s) − r) · atol ≤ s · atol``
    on side ``s = d_out·d_in ≤ d²``; the spread scales a restricted map's
    trace norm by ``d/c``, so its part left out is at most ``d² · atol`` on
    the register too.  Composing a trace non-increasing map ``L`` after it
    does not increase that trace norm, and composing one, ``R``, before it
    scales it by at most ``λ_max(R(I)) ≤ d``.  So each compression of
    either fold is charged ``d³ · atol``, which bounds the distance of
    loop-free programs; a loop reuses its body's maps in every iteration,
    which the charge does not multiply out.  Rounding gets ``d²`` units of
    ``ε`` (complex128) of the Choi traces ``traces``.
    """
    rounding = dimension ** 2 * np.finfo(np.complex128).eps * traces
    return compressions * dimension ** 3 * SIMPLIFY_ATOL + rounding


def _assert_equals_the_materialised_fold(monkeypatch, program, register, options=None):
    """Denote ``program`` both ways; the sets must pair up within :func:`_fold_tolerance`."""
    compressions = []
    simplified = SuperOperator.simplified

    def counting(channel, *args, **kwargs):
        compressions.append(len(channel.kraus_operators))
        return simplified(channel, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(SuperOperator, "simplified", counting)
        maps = denotation(program, register, options)
        patch.setattr(denotational, "_denote_seq", _materialised_fold)
        patch.setattr(denotational, "initializer_channel", _materialised_set0)
        reference = denotation(program, register, options)
    assert len(maps) == len(reference)
    for channel, expected in zip(maps, reference):
        assert channel.shape == expected.shape == (register.dimension, register.dimension)
        assert len(channel.kraus_operators) == len(expected.kraus_operators)
        traces = channel.choi_trace() + expected.choi_trace()
        tolerance = _fold_tolerance(register.dimension, len(compressions), traces)
        assert _choi_distance(channel, expected) <= tolerance


def _damped(program, register):
    noisy, ancillas = apply_noise(program, "amplitude_damping", 0.05)
    return noisy, register.union(ancillas)


def _noisy_grover():
    formula, register = noisy_grover_formula(2, strength=0.05, layout="gates")
    return formula.program, register


class TestResetByCopying:
    """``Set0 = J ∘ Tr``: the restricted fold's maps equal those of composing ``Set0``'s operators."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: (grover_program(6, layout="gates"), grover_register(6)),
            lambda: (errcorr_program(4), errcorr_register(4)),
            lambda: (qwalk_program(16), qwalk_register(16)),
            lambda: _damped(nondeterministic_rus_program(), rus_register()),
            _noisy_grover,
            lambda: _damped(teleport_program(), teleport_register()),
        ],
        ids=["grover-6", "errcorr-4", "qwalk-16", "noisy-rus-ndet", "noisy-grover-2", "noisy-teleport"],
    )
    def test_benchmark_programs_equal_the_materialised_fold(self, monkeypatch, build):
        program, register = build()
        _assert_equals_the_materialised_fold(monkeypatch, program, register)


#: Registers of the hand-written fold cases.
ABC = QubitRegister(["a", "b", "c"])


def _gate(qubits, name, matrix):
    return Unitary(tuple(qubits), name, matrix)


#: Hand-written sequences for the restricted fold, each with its register.
FOLD_CASES = {
    "two-opening-inits": (
        seq(Init(("a",)), Init(("c",)), _gate("a", "H", H), _gate("ac", "CX", CX),
            ndet(Skip(), _gate("b", "X", X))),
        ABC,
    ),
    "init-on-every-qubit": (
        seq(Init(("c", "a", "b")), _gate("a", "H", H), _gate("ab", "CX", CX),
            If(MEAS_COMPUTATIONAL, ("b",), _gate("c", "X", X), Skip())),
        ABC,
    ),
    "init-in-the-middle": (
        seq(_gate("a", "H", H), Init(("b",)), _gate("ab", "CX", CX), Init(("a",)), _gate("b", "H", H)),
        ABC,
    ),
    "init-in-the-middle-of-an-init-opened-sequence": (
        seq(Init(("a", "b")), _gate("a", "H", H), _gate("ab", "CX", CX), Init(("a",)),
            ndet(Skip(), _gate("ab", "CX", CX))),
        ABC,
    ),
    "loop-body-opening-with-init": (
        seq(Init(("a",)), _gate("a", "H", H),
            While(MEAS_COMPUTATIONAL, ("a",),
                  seq(Init(("b",)), _gate("b", "H", H), _gate("ba", "CX", CX)))),
        ABC,
    ),
    "branches-opening-with-init": (
        seq(_gate("a", "H", H),
            If(MEAS_COMPUTATIONAL, ("a",), seq(Init(("b",)), _gate("b", "X", X)),
               seq(Init(("b", "c")), _gate("c", "H", H))),
            ndet(seq(Init(("a",)), _gate("ab", "CX", CX)), _gate("c", "X", X))),
        ABC,
    ),
}


class TestRestrictedFold:
    """The fold of an ``Init``-opened sequence on the columns ``Set0`` prepares."""

    @pytest.mark.parametrize("name", sorted(FOLD_CASES))
    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "damped"])
    def test_hand_written_sequences_equal_the_materialised_fold(self, monkeypatch, name, noisy):
        program, register = FOLD_CASES[name]
        if noisy:
            program, register = _damped(program, register)
        _assert_equals_the_materialised_fold(monkeypatch, program, register)

    @pytest.mark.parametrize("chunk", range(4))
    def test_fuzz_draws_equal_the_materialised_fold(self, monkeypatch, chunk):
        # Every draw of the fuzz gate's seed opens with an Init.
        options = DenotationOptions(max_iterations=OracleConfig().max_iterations)
        for draw in generate_batch(2023, 200)[chunk * 50 : (chunk + 1) * 50]:
            assert isinstance(draw.statements[0], FInit)
            task = build_task(draw.source(), default_environment())
            _assert_equals_the_materialised_fold(
                monkeypatch, task.formula.program, task.register, options
            )

    def test_a_zero_map_spreads_to_one_operator(self):
        # Composing Set0's 4 operators on the register gives 4 zero operators.
        maps = denotation(seq(Init(("a", "b")), _gate("a", "H", H), Abort()), ABC)
        assert len(maps) == 1
        assert maps[0].kraus_operators.shape == (1, 8, 8)
        assert not maps[0].kraus_operators.any()

    def test_seven_qubit_reset_and_choice_builds_no_large_matrix(self, monkeypatch):
        # Each pair of equal maps is confirmed on the spectrum of their Choi
        # difference, read off the two Kraus stacks: no Choi matrix is built,
        # where the 128-dimensional identities' would take 4 GiB.
        def refuse(kraus, *args, **kwargs):
            rows, columns = np.shape(kraus)[1:]
            raise AssertionError(f"a {rows * columns}-sided Choi matrix was built")

        for module in (choi_module, kraus_module):
            monkeypatch.setattr(module, "choi_matrix", refuse)
        names = tuple(f"q{index}" for index in range(7))
        register = QubitRegister(names)
        maps = denotation(seq(Init(names), ndet(Skip(), Skip())), register)
        assert len(maps) == 1
        assert len(maps[0].kraus_operators) == 128
        assert np.allclose(maps[0].kraus_gram(), np.eye(128), rtol=0, atol=1e-12)
        output = maps[0].apply(random_density_operator(128, seed=7))
        assert output[0, 0] == pytest.approx(1.0) and np.count_nonzero(output) == 1
        (identity,) = denotation(ndet(Skip(), Skip()), register)
        assert np.array_equal(identity.kraus_operators, np.eye(128)[np.newaxis])
        other = SuperOperator.identity(128)
        assert identity.equals(other) and identity.precedes(other) and other.precedes(identity)


class TestInitializerAdjoint:
    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_slice_equals_the_kraus_sum_on_every_ordered_support(self, length):
        register = QubitRegister(["a", "b", "c", "d"])
        supports = list(itertools.permutations(register.names, length))
        for seed, qubits in enumerate(supports):
            matrix = random_density_operator(register.dimension, seed=100 * length + seed)
            expected = initializer_channel(qubits, register).apply_adjoint(matrix)
            actual = initializer_adjoint(matrix, qubits, register)
            assert np.allclose(actual, expected, rtol=0, atol=1e-12)
        assert len(supports) == {1: 4, 2: 12, 3: 24, 4: 24}[length]


class TestExample33:
    """Example 3.3: [[skip □ q *= X]] applied to the four relevant states."""

    @pytest.fixture
    def program(self):
        return ndet(Skip(), Unitary(("q",), "X", X))

    def test_computational_basis_states(self, program, q_register):
        outputs0 = apply_denotation(program, density(ket("0")), q_register)
        outputs1 = apply_denotation(program, density(ket("1")), q_register)
        expected = [density(ket("0")), density(ket("1"))]
        assert any(operators_close(out, expected[0]) for out in outputs0)
        assert any(operators_close(out, expected[1]) for out in outputs0)
        assert any(operators_close(out, expected[0]) for out in outputs1)
        assert any(operators_close(out, expected[1]) for out in outputs1)

    def test_plus_minus_states_are_fixed(self, program, q_register):
        for state in (plus_state(), minus_state()):
            outputs = apply_denotation(program, density(state), q_register)
            assert all(operators_close(out, density(state)) for out in outputs)

    def test_maximally_mixed_is_fixed_in_mixed_state_semantics(self, program, q_register):
        outputs = apply_denotation(program, maximally_mixed(1), q_register)
        assert all(operators_close(out, maximally_mixed(1)) for out in outputs)


class TestWhileLoops:
    def test_terminating_loop_converges(self, q_register):
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        maps = denotation(loop, q_register)
        assert len(maps) == 1
        # Starting from |+⟩ the loop terminates almost surely in |0⟩.
        output = maps[0].apply(density(plus_state()))
        assert np.trace(output).real == pytest.approx(1.0, abs=1e-6)
        assert operators_close(output, density(ket("0")), atol=1e-6)

    def test_nonterminating_loop_gives_zero(self, q_register):
        # while M[q] do q *= X: from |1⟩ the body flips to |0⟩... measurement of |0⟩
        # exits, so this one terminates; use X on outcome-1 state |1⟩ → stays in the
        # loop forever when the body is skip.
        loop = While(MEAS_COMPUTATIONAL, ("q",), Skip())
        maps = denotation(loop, q_register, DenotationOptions(max_iterations=30))
        output = maps[0].apply(density(ket("1")))
        assert np.trace(output).real == pytest.approx(0.0, abs=1e-9)
        # From |0⟩ it exits immediately.
        output0 = maps[0].apply(density(ket("0")))
        assert operators_close(output0, density(ket("0")))

    def test_loop_iterates_are_a_nondecreasing_chain(self, q_register):
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "H", H))
        body = denotation(loop.body, q_register)
        chain = loop_iterates(loop, q_register, body, ConstantScheduler(0))
        for earlier, later in zip(chain, chain[1:]):
            assert earlier.precedes(later, atol=1e-7)

    def test_nondeterministic_loop_explores_schedulers(self):
        register = QubitRegister(["q"])
        body = ndet(Unitary(("q",), "H", H), Unitary(("q",), "X", X))
        loop = While(MEAS_COMPUTATIONAL, ("q",), body)
        # Without deduplication one channel per explored scheduler is produced
        # (two constant schedulers plus SAMPLED_SCHEDULERS sampled ones).
        maps = denotation(loop, register, DenotationOptions(dedup=False))
        assert denotational.SAMPLED_SCHEDULERS == 2
        assert len(maps) == 4
        for channel in maps:
            assert channel.is_trace_nonincreasing()
        # Both constant schedulers drain all probability mass out of the loop.
        for channel in maps[:2]:
            output = channel.apply(density(ket("1")))
            assert np.trace(output).real == pytest.approx(1.0, abs=1e-6)


def _noisy_rus_ndet():
    noisy, ancillas = apply_noise(nondeterministic_rus_program(), "amplitude_damping", 0.05)
    return noisy, rus_register().union(ancillas)


#: The library's loop programs with their registers.
LOOP_PROGRAMS = {
    "rus": lambda: (rus_program(), rus_register()),
    "rus_ndet": lambda: (nondeterministic_rus_program(), rus_register()),
    "qwalk4": lambda: (qwalk_program(4), qwalk_register(4)),
    "qwalk8": lambda: (qwalk_program(8), qwalk_register(8)),
    "noisy_rus_ndet": _noisy_rus_ndet,
}


def _loop_runs(name):
    """Return ``{(loop, scheduler): loop_iterates arguments}`` for a library program."""
    program, register = LOOP_PROGRAMS[name]()
    options = DenotationOptions()
    runs = {}
    for loop_index, loop in enumerate(node for node in program.walk() if isinstance(node, While)):
        bodies = denotation(loop.body, register, options)
        schedulers = constant_schedulers(len(bodies)) + sample_schedulers(2)
        for index, scheduler in enumerate(schedulers):
            runs[loop_index, index] = (loop, register, bodies, scheduler, options)
    return runs


def _loop_chains(runs):
    """Run :func:`loop_iterates` on every entry of :func:`_loop_runs`."""
    return {key: loop_iterates(*arguments) for key, arguments in runs.items()}


def _choi_trace_gap(later, earlier):
    """``tr Choi(later − earlier)``, the reference trace norm of a CP increment."""
    return float(np.trace(later.choi() - earlier.choi()).real)


class TestLoopConvergence:
    """Convergence is decided on ``Σ‖K_i‖²_F`` of the increment, without Choi matrices."""

    @pytest.mark.parametrize("name", ["rus", "rus_ndet", "qwalk4", "qwalk8"])
    def test_loop_iterates_never_builds_a_choi_matrix(self, monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError("loop_iterates must not build a Choi matrix")

        runs = _loop_runs(name)
        for module in (choi_module, kraus_module):
            monkeypatch.setattr(module, "choi_matrix", refuse)
        chains = _loop_chains(runs)
        assert chains and all(len(chain) >= 2 for chain in chains.values())

    @pytest.mark.parametrize("name", sorted(LOOP_PROGRAMS))
    def test_trace_bracket_gives_the_chains_of_the_eigensolve_rule(self, monkeypatch, name):
        # The prefix stop rule decides λ_max(Σ K†K) < tol from tr/d ≤ λ_max ≤ tr
        # first; the reference rule eigensolves at every iteration.
        calls = {"eigensolves": 0}
        bound = kraus_module.SuperOperator.probability_bound

        def counting_bound(channel):
            calls["eigensolves"] += 1
            return bound(channel)

        monkeypatch.setattr(kraus_module.SuperOperator, "probability_bound", counting_bound)
        runs = _loop_runs(name)
        bracketed = _loop_chains(runs)
        bracketed_calls = calls["eigensolves"]
        monkeypatch.setattr(
            denotational,
            "_probability_bound_below",
            lambda prefix, tolerance: prefix.probability_bound() < tolerance,
        )
        calls["eigensolves"] = 0
        reference = _loop_chains(runs)
        assert bracketed.keys() == reference.keys()
        for key, chain in bracketed.items():
            assert len(chain) == len(reference[key]), key
            for mine, theirs in zip(chain, reference[key]):
                assert np.array_equal(mine.kraus_operators, theirs.kraus_operators)
        assert bracketed_calls <= calls["eigensolves"]

    #: cos²θ of the rotation ``Ry(θ)`` in the closed-form loop below.
    COS2 = 0.9

    @pytest.mark.parametrize("idle_qubits", [0, 1])
    @pytest.mark.parametrize("tolerance", [1e-2, 1e-5, 1e-9])
    def test_stops_at_first_increment_below_tolerance(self, idle_qubits, tolerance):
        # while M[q] do q *= Ry(θ): prefix n is c^(n−1) Ry|1⟩⟨1| and increment
        # n ≥ 1 is −s·c^(n−1) |0⟩⟨1| ⊗ I on the idle qubits, so
        # Σ‖K‖²_F = 2^idle · s² · c^(2(n−1)), always below the prefix bound
        # c^(2(n−1)).  The entrywise ℓ1 norm of the Choi increment is
        # 4^idle · s² · c^(2(n−1)), so an idle qubit separates the two norms.
        c, s = np.sqrt(self.COS2), np.sqrt(1 - self.COS2)
        rotation = np.array([[c, -s], [s, c]], dtype=complex)
        register = QubitRegister(["q"] + [f"r{i}" for i in range(idle_qubits)])
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "Ry", rotation))
        options = DenotationOptions(convergence_tolerance=tolerance, max_iterations=256)
        bodies = denotation(loop.body, register, options)
        chain = loop_iterates(loop, register, bodies, ConstantScheduler(0), options)

        def norm(n):
            return 2.0 ** idle_qubits * s**2 * self.COS2 ** (n - 1)

        first = next(n for n in range(1, 256) if norm(n) < tolerance)
        assert len(chain) == first + 1
        for n in range(1, len(chain)):
            assert _choi_trace_gap(chain[n], chain[n - 1]) == pytest.approx(norm(n), abs=1e-12)
        assert _choi_trace_gap(chain[-1], chain[-2]) < tolerance
        assert _choi_trace_gap(chain[-2], chain[-3]) >= tolerance

    def test_reset_loop_increments_vanish_after_two_iterations(self):
        # while M[q] do q *= X: increments P⁰, |0⟩⟨1|, 0 — norms 1, 1, 0.
        register = QubitRegister(["q"])
        loop = While(MEAS_COMPUTATIONAL, ("q",), Unitary(("q",), "X", X))
        options = DenotationOptions()
        bodies = denotation(loop.body, register, options)
        chain = loop_iterates(loop, register, bodies, ConstantScheduler(0), options)
        gaps = [_choi_trace_gap(b, a) for a, b in zip(chain, chain[1:])]
        assert len(chain) == 3
        assert gaps == pytest.approx([1.0, 0.0], abs=1e-12)


class TestMeasurementSuperoperators:
    def test_projection_pair(self, q_register):
        statement = measure(("q",))
        p0, p1 = measurement_superoperators(statement, q_register)
        assert operators_close(p0.apply(density(plus_state())), 0.5 * density(ket("0")))
        assert operators_close(p1.apply(density(plus_state())), 0.5 * density(ket("1")))


def test_denotation_options_pickle_roundtrip():
    options = DenotationOptions(max_iterations=16, dedup=False)
    assert pickle.loads(pickle.dumps(options)) == options


def test_explicit_function_scheduler_matches_constant_scheduler():
    # A scheduler given as a plain function (here an unpicklable lambda) is
    # used as is: it resolves every choice like the constant scheduler it mimics.
    from repro.programs import qwalk_program, qwalk_register

    program, register = qwalk_program(4), qwalk_register(4)
    by_function = denotation(
        program,
        register,
        DenotationOptions(schedulers=[FunctionScheduler(lambda iteration, choices: 0)]),
    )
    by_constant = denotation(program, register, DenotationOptions(schedulers=[ConstantScheduler(0)]))
    assert len(by_function) == len(by_constant) == 1
    assert by_function[0].equals(by_constant[0], atol=1e-10)
