"""Choi–Jamiolkowski representation of super-operators.

The Choi matrix gives a faithful finite-dimensional representation of a
completely positive map: two Kraus decompositions describe the same map iff
their Choi matrices coincide, and ``E`` is completely positive iff its Choi
matrix is positive semidefinite.  The comparison of super-operators under the
CPO order ``⪯`` of Sec. 3.2 reduces (Lemma 3.1) to a Löwner comparison of Choi
matrices.

Within :mod:`repro.superop` the Choi matrix is the *order* representation:
positivity of a map and the ``⪯`` comparison are spectral properties of the
Choi matrix, and a minimal Kraus decomposition falls out of its pivoted
Cholesky factorisation (:func:`kraus_from_choi`), which needs no
eigensolve.

Stacking the row-vectorised Kraus operators as the rows of a ``k × s``
matrix ``V`` (``s = d_out·d_in``) gives ``Choi = Vᵀ V̄``: :func:`choi_matrix`
builds it with one matrix product on the ``(k, d_out, d_in)`` operator
array, and its ``s² · 16`` bytes (``d⁴ · 16`` for a map on one
``d``-dimensional space) are the largest object the library allocates.
A restricted map of the sequence fold (see :mod:`~repro.superop.kraus`)
has ``d_in = c < d_out`` and a Choi matrix ``(d/c)²`` times smaller than
its spread.  :meth:`~repro.superop.kraus.SuperOperator.simplified` avoids
the Choi matrix when ``k < s`` by factoring the ``k × k`` Gram matrix
``V̄ Vᵀ`` instead, which has the same non-zero spectrum.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..exceptions import LinalgError
from ..linalg.constants import ORDER_ATOL
from ..linalg.operators import is_positive, loewner_le, operator_stack, psd_factor
from ..telemetry.tracing import span

__all__ = [
    "choi_matrix",
    "choi_from_apply",
    "kraus_from_choi",
    "is_cp_choi",
    "is_tp_choi",
    "is_tni_choi",
    "choi_precedes",
]


def choi_matrix(kraus_operators: Iterable[np.ndarray]) -> np.ndarray:
    """Return the Choi matrix ``Σ_i vec(E_i) vec(E_i)†`` of a Kraus decomposition.

    ``vec`` stacks matrix rows, so the Choi matrix equals
    ``Σ_{jk} |j⟩⟨k| ⊗ E(|j⟩⟨k|)`` up to the chosen vectorisation convention.
    The sum is one matrix product ``Vᵀ V̄``, where row ``i`` of ``V`` is
    ``vec(E_i)``: a ``(k, d_out, d_in)`` array is reshaped in place, a
    sequence of matrices is stacked first.  The result is
    ``(d_out·d_in) × (d_out·d_in)``.
    """
    kraus = operator_stack(kraus_operators)
    if not len(kraus):
        raise LinalgError("a Choi matrix needs at least one Kraus operator")
    rows, columns = kraus.shape[1:]
    side = rows * columns
    with span(
        "choi",
        region="superop",
        dimension=rows if rows == columns else (rows, columns),
        kraus_rank=len(kraus),
        bytes=side * side * 16,
    ):
        vectors = kraus.reshape(len(kraus), side)
        return vectors.T @ vectors.conj()


def choi_from_apply(apply_map, dimension: int) -> np.ndarray:
    """Build the Choi matrix of an arbitrary linear map given as a callable.

    ``apply_map`` must accept and return ``dimension × dimension`` matrices.
    The result uses the same (output ⊗ input) vectorisation convention as
    :func:`choi_matrix`, so both constructions agree on any completely positive
    map.  Used to certify complete positivity of maps defined extensionally.
    """
    tensor = np.zeros((dimension, dimension, dimension, dimension), dtype=complex)
    for row in range(dimension):
        for column in range(dimension):
            unit = np.zeros((dimension, dimension), dtype=complex)
            unit[row, column] = 1.0
            image = np.asarray(apply_map(unit), dtype=complex)
            # choi[(a, row), (b, column)] = E(|row⟩⟨column|)[a, b]
            tensor[:, row, :, column] = image
    return tensor.reshape(dimension * dimension, dimension * dimension)


def kraus_from_choi(
    choi: np.ndarray, atol: float = 1e-10, shape: Optional[Tuple[int, int]] = None
) -> np.ndarray:
    """Recover a minimal Kraus decomposition from a Choi matrix, as a ``(r, d_out, d_in)`` array.

    ``shape`` is ``(d_out, d_in)``; by default the map is square and ``d``
    is the square root of the Choi matrix's side.  The pivoted Cholesky
    factor ``W`` of :func:`~repro.linalg.operators.psd_factor` has
    ``Choi ≈ W W†``, so its ``r`` columns, un-vectorised, are Kraus
    operators of the map.  Pivoting stops once the largest remaining Schur
    diagonal is ``≤ atol``, so ``r`` is the numerical rank of the Choi
    matrix and the part left out has trace at most ``(s − r) · atol`` for
    side ``s``.  A Choi matrix with no diagonal entry above ``atol`` gives
    the single zero operator.
    """
    choi = np.asarray(choi, dtype=complex)
    side = choi.shape[0]
    if shape is None:
        dimension = int(round(np.sqrt(side)))
        if dimension * dimension != side:
            raise LinalgError("Choi matrix side length must be a perfect square")
        shape = (dimension, dimension)
    elif shape[0] * shape[1] != side:
        raise LinalgError(f"a Choi matrix of side {side} has no {shape[0]} × {shape[1]} operators")
    factor = psd_factor(choi, atol)
    if not factor.shape[1]:
        return np.zeros((1, *shape), dtype=complex)
    return factor.T.reshape(-1, *shape)


def is_cp_choi(choi: np.ndarray, atol: float = ORDER_ATOL) -> bool:
    """Return ``True`` when the Choi matrix certifies a completely positive map."""
    return is_positive(choi, atol=atol)


def _partial_trace_output(choi: np.ndarray) -> np.ndarray:
    """Trace out the output system of a Choi matrix, yielding ``(Σ_i E_i†E_i)ᵀ``."""
    choi = np.asarray(choi, dtype=complex)
    side = choi.shape[0]
    dimension = int(round(np.sqrt(side)))
    reshaped = choi.reshape(dimension, dimension, dimension, dimension)
    # Axes for the (output ⊗ input) convention: (row-out, row-in, col-out, col-in).
    return np.trace(reshaped, axis1=0, axis2=2)


def is_tp_choi(choi: np.ndarray, atol: float = 1e-7) -> bool:
    """Return ``True`` when the Choi matrix corresponds to a trace-preserving map."""
    reduced = _partial_trace_output(choi)
    return bool(np.allclose(reduced, np.eye(reduced.shape[0]), atol=atol))


def is_tni_choi(choi: np.ndarray, atol: float = ORDER_ATOL) -> bool:
    """Return ``True`` when the Choi matrix corresponds to a trace non-increasing map."""
    reduced = _partial_trace_output(choi)
    return loewner_le(reduced, np.eye(reduced.shape[0]), atol=atol)


def choi_precedes(choi_a: np.ndarray, choi_b: np.ndarray, atol: float = ORDER_ATOL) -> bool:
    """Return ``True`` when the map of ``choi_a`` precedes that of ``choi_b`` (Lemma 3.1)."""
    return is_positive(np.asarray(choi_b) - np.asarray(choi_a), atol=atol)
