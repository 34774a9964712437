"""Super-operator substrate (S2): Kraus maps, Choi matrices, channels and orderings.

Two interoperable representations of a completely positive map are provided:

* **Kraus** (:mod:`.kraus`) — a finite operator list ``{E_i}`` on the full
  register, stored as one ``(k, d, d)`` array (``(k, d, c)`` for the
  restricted maps inside the sequence fold); the form the semantic
  engines compute with, as in the paper's presentation.  A channel on a
  few qubits (an initialisation or a noise channel) enters as its cylinder
  extension (:meth:`~repro.superop.kraus.SuperOperator.embed`); gates are
  applied by the register's gate kernel
  (:func:`~repro.linalg.tensor.apply_to_qubits`).
* **Choi** (:mod:`.choi`) — the ``d²×d²`` positive matrix ``Σ vec(E_i)vec(E_i)†``;
  best for order/positivity questions (Lemma 3.1) and for recovering minimal
  Kraus decompositions.

Conversions are lossless: Kraus→Choi is one matrix product and Choi→Kraus
is a pivoted Cholesky factorisation.
"""

from .channels import (
    amplitude_damping_channel,
    bit_flip_channel,
    bit_phase_flip_channel,
    depolarizing_channel,
    initialization_channel,
    measurement_channel,
    phase_damping_channel,
    phase_flip_channel,
    probabilistic_mixture,
    projection_channel,
    reset_channel,
    unitary_channel,
)
from .choi import (
    choi_from_apply,
    choi_matrix,
    choi_precedes,
    is_cp_choi,
    is_tni_choi,
    is_tp_choi,
    kraus_from_choi,
)
from .compare import (
    deduplicate,
    lub_of_chain,
    set_equal,
    set_subset,
    superoperator_equal,
    superoperator_precedes,
)
from .kraus import SuperOperator

__all__ = [name for name in dir() if not name.startswith("_")]
