"""n-qubit Grover search, the performance workload of Sec. 6 ("Performance").

The paper reports that verifying a 13-qubit Grover instance takes roughly 90
seconds and 32 GB of memory in the NQPV prototype — the cost is dominated by
manipulating ``2^n × 2^n`` operators.  This module builds the same workload:
the (deterministic) Grover program with the optimal number of iterations, its
correctness formula ``{p·I} Grover {[t]}`` where ``p`` is the success
probability, and helpers for the scaling benchmark (experiment E4).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..language.ast import Init, Program, Unitary, seq
from ..linalg.constants import H
from ..linalg.tensor import kron_all
from ..logic.formula import CorrectnessFormula, CorrectnessMode
from ..predicates.assertion import QuantumAssertion
from ..predicates.predicate import QuantumPredicate
from ..registers import QubitRegister

__all__ = [
    "grover_register",
    "grover_qubit_names",
    "oracle_matrix",
    "diffusion_matrix",
    "grover_iterations",
    "grover_success_probability",
    "grover_program",
    "grover_formula",
]


def grover_qubit_names(num_qubits: int) -> Tuple[str, ...]:
    """Return the canonical qubit names ``q0 … q{n-1}``."""
    return tuple(f"q{index}" for index in range(num_qubits))


def grover_register(num_qubits: int) -> QubitRegister:
    """Return the register for an ``num_qubits``-qubit search space."""
    return QubitRegister(grover_qubit_names(num_qubits))


def oracle_matrix(num_qubits: int, marked: int) -> np.ndarray:
    """Return the phase oracle ``I − 2|t⟩⟨t|`` marking basis state ``marked``."""
    dimension = 2 ** num_qubits
    if not 0 <= marked < dimension:
        raise ValueError(f"marked index {marked} out of range for {num_qubits} qubit(s)")
    matrix = np.eye(dimension, dtype=complex)
    matrix[marked, marked] = -1.0
    return matrix


def diffusion_matrix(num_qubits: int) -> np.ndarray:
    """Return the Grover diffusion operator ``2|s⟩⟨s| − I`` (``|s⟩`` uniform)."""
    dimension = 2 ** num_qubits
    uniform = np.full((dimension, 1), 1.0 / np.sqrt(dimension), dtype=complex)
    return 2.0 * (uniform @ uniform.conj().T) - np.eye(dimension, dtype=complex)


def grover_iterations(num_qubits: int) -> int:
    """Return the standard iteration count ``⌊π/4 · √(2^n)⌋`` (at least one)."""
    dimension = 2 ** num_qubits
    return max(1, int(np.floor(np.pi / 4 * np.sqrt(dimension))))


def grover_success_probability(num_qubits: int, iterations: int | None = None) -> float:
    """Return the exact success probability ``sin²((2k+1)θ)`` with ``sin θ = 2^{-n/2}``."""
    dimension = 2 ** num_qubits
    theta = np.arcsin(1.0 / np.sqrt(dimension))
    iterations = grover_iterations(num_qubits) if iterations is None else iterations
    return float(np.sin((2 * iterations + 1) * theta) ** 2)


def grover_program(
    num_qubits: int,
    marked: int = 0,
    iterations: int | None = None,
    layout: str = "fused",
) -> Program:
    """Return the Grover program: initialise, Hadamard, then ``iterations`` rounds.

    ``layout`` selects the circuit granularity (both layouts denote the same
    unitary, hence the same correctness formula):

    * ``"fused"`` (default) — the paper's presentation: ``H^{⊗n}``, the oracle
      and the diffusion operator are each one full-register unitary statement.
    * ``"gates"`` — the Hadamard layers are emitted as ``n`` single-qubit
      statements and the diffusion is decomposed as
      ``H-layer · (2|0…0⟩⟨0…0| − I) · H-layer``; only the oracle and the zero
      reflection stay global.  This is the realistic, gate-local circuit of
      the ``grover`` family in ``benchmarks/bench_scaling.py``.
    """
    if layout not in ("fused", "gates"):
        raise ValueError(f"unknown Grover layout {layout!r}; expected 'fused' or 'gates'")
    qubits = grover_qubit_names(num_qubits)
    iterations = grover_iterations(num_qubits) if iterations is None else iterations
    oracle = oracle_matrix(num_qubits, marked)

    if layout == "gates":
        hadamard_layer = [Unitary((name,), "H", H) for name in qubits]
        # 2|0⟩⟨0| − I = −(I − 2|0⟩⟨0|); keeping the sign makes the
        # decomposition equal to diffusion_matrix exactly (not just up to phase).
        reflect_zero = -oracle_matrix(num_qubits, 0)
        statements: List[Program] = [Init(qubits), *hadamard_layer]
        for _ in range(iterations):
            statements.append(Unitary(qubits, "Oracle", oracle))
            statements.extend(Unitary((name,), "H", H) for name in qubits)
            statements.append(Unitary(qubits, "Reflect0", reflect_zero))
            statements.extend(Unitary((name,), "H", H) for name in qubits)
        return seq(*statements)

    hadamard_all = kron_all([H] * num_qubits)
    diffusion = diffusion_matrix(num_qubits)
    statements = [Init(qubits), Unitary(qubits, "Hn", hadamard_all)]
    for _ in range(iterations):
        statements.append(Unitary(qubits, "Oracle", oracle))
        statements.append(Unitary(qubits, "Diffusion", diffusion))
    return seq(*statements)


def grover_formula(
    num_qubits: int,
    marked: int = 0,
    iterations: int | None = None,
    layout: str = "fused",
) -> Tuple[CorrectnessFormula, QubitRegister]:
    """Return ``{p·I} Grover {[t]}`` where ``p`` is the exact success probability.

    The formula is valid in the total-correctness sense: from any input of
    trace one the final state hits the marked element with probability exactly
    ``p``, so ``p·I`` is (numerically) the weakest precondition of ``[t]``.
    ``layout`` selects the circuit granularity of the program (see
    :func:`grover_program`); the formula is identical either way.
    """
    register = grover_register(num_qubits)
    iterations = grover_iterations(num_qubits) if iterations is None else iterations
    probability = grover_success_probability(num_qubits, iterations)
    # Guard against round-off pushing the scalar predicate above I.
    probability = min(probability, 1.0 - 1e-12)
    precondition = QuantumAssertion(
        [QuantumPredicate.uniform(probability, num_qubits, name="pI")], name="pI"
    )
    target = np.zeros((register.dimension, register.dimension), dtype=complex)
    target[marked, marked] = 1.0
    postcondition = QuantumAssertion([QuantumPredicate(target, name="target")], name="target")
    formula = CorrectnessFormula(
        precondition,
        grover_program(num_qubits, marked, iterations, layout=layout),
        postcondition,
        CorrectnessMode.TOTAL,
    )
    return formula, register
