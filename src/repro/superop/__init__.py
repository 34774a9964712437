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
  built only to recover a minimal Kraus decomposition from a Kraus list
  at least as large (:meth:`~repro.superop.kraus.SuperOperator.simplified`).

Conversions are lossless: Kraus→Choi is one matrix product and Choi→Kraus
is a pivoted Cholesky factorisation.  Equality and the CPO order ``⪯``
(Lemma 3.1) are decided in Kraus space, on the spectrum of the Choi
difference ``C_F − C_E`` computed from the two Kraus stacks
(:func:`~repro.superop.choi.choi_difference_spectrum`), and the set
comparisons of :mod:`.compare` build on them.
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
from .choi import choi_difference_spectrum, choi_from_apply, choi_matrix, kraus_from_choi
from .compare import deduplicate, set_equal, set_subset
from .kraus import SuperOperator

__all__ = [name for name in dir() if not name.startswith("_")]
