"""Quantum linear-algebra substrate (Sec. 2 of the paper).

This subpackage provides the numerical foundation used by every other layer:
standard gates and constants, structural operator checks (hermitian, unitary,
positive, Löwner order), state constructors, tensor/embedding utilities and
seeded random generators.
"""

from .constants import (
    ATOL,
    NUMERIC_TOL,
    C0X,
    CCX,
    CX,
    CZ,
    H,
    I2,
    NAMED_GATES,
    P0,
    P1,
    PMINUS,
    PPLUS,
    S,
    SWAP,
    T,
    W1,
    W2,
    X,
    Y,
    Z,
    ZERO2,
    identity,
    zero_operator,
)
from .operators import (
    as_operator,
    commutator,
    dagger,
    eigenvalue_bounds,
    is_density_operator,
    is_hermitian,
    is_partial_density_operator,
    is_positive,
    is_predicate_matrix,
    is_projector,
    is_unitary,
    loewner_ge,
    loewner_le,
    num_qubits_of,
    operators_close,
    outer,
    spectral_decomposition,
    trace_inner,
)
from .random import (
    random_density_operator,
    random_hermitian,
    random_kraus_operators,
    random_partial_density_operator,
    random_predicate_matrix,
    random_projector,
    random_state_vector,
    random_unitary,
    rng_from,
)
from .states import (
    basis_state,
    bell_state,
    computational_basis,
    density,
    fidelity,
    ghz_state,
    is_normalized,
    ket,
    maximally_mixed,
    minus_state,
    mixed_state,
    normalize_state,
    plus_state,
    purity,
    state_from_amplitudes,
    trace_norm,
    w_state,
)
from .tensor import (
    apply_to_qubits,
    embed_operator,
    expand_to_register,
    kron_all,
    partial_trace,
    permute_qubits,
    reduced_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
