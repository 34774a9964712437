"""Choi–Jamiolkowski representation of super-operators.

The Choi matrix gives a faithful finite-dimensional representation of a
completely positive map: two Kraus decompositions describe the same map iff
their Choi matrices coincide, and ``E`` is completely positive iff its Choi
matrix is positive semidefinite.  The comparison of super-operators under the
CPO order ``⪯`` of Sec. 3.2 reduces (Lemma 3.1) to a Löwner comparison of Choi
matrices.

Stacking the row-vectorised Kraus operators as the rows of a ``k × s``
matrix ``V`` (``s = d_out·d_in``) gives ``Choi = Vᵀ V̄``: :func:`choi_matrix`
builds it with one matrix product on the ``(k, d_out, d_in)`` operator
array, and its ``s² · 16`` bytes (``d⁴ · 16`` for a map on one
``d``-dimensional space) are the largest object the library allocates.
Within :mod:`repro.superop` it is built only where the Kraus list is
already at least that large: by
:meth:`~repro.superop.kraus.SuperOperator.simplified` when ``k ≥ s``, which
recovers a minimal Kraus decomposition from its pivoted Cholesky
factorisation (:func:`kraus_from_choi`, no eigensolve).  For ``k < s``
``simplified`` factors the ``k × k`` Gram matrix ``V̄ Vᵀ`` instead, which
has the same non-zero spectrum.

Equality and the order ``⪯`` read the spectrum of a Choi *difference*
``C_F − C_E``, and :func:`choi_difference_spectrum` computes it from the
two Kraus stacks on an ``m × m`` matrix, ``m = k_E + k_F``, without either
Choi matrix.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..exceptions import LinalgError
from ..linalg.operators import operator_stack, psd_factor
from ..telemetry.tracing import span

__all__ = [
    "choi_matrix",
    "choi_from_apply",
    "choi_difference_spectrum",
    "kraus_from_choi",
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


def choi_difference_spectrum(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Return the spectrum of ``C_second − C_first`` from the two Kraus stacks, ascending.

    ``first`` and ``second`` are ``(k, d_out, d_in)`` arrays of one shape.
    Their row-vectorised operators, ``second``'s first, are the
    ``m = k_F + k_E`` rows of ``W``, so ``C_F − C_E = Wᵀ S W̄`` with
    ``S = diag(I_{k_F}, −I_{k_E})``.  The thin QR ``Wᵀ = QR`` gives
    ``Q (R S R†) Q†``, and ``Q`` has orthonormal columns, so the eigenvalues
    of the Hermitian ``R S R†`` (side ``min(m, d_out·d_in)``) are every
    non-zero eigenvalue of the difference, padded with zeros.  Only ``R``
    is formed; no Choi matrix is built.
    """
    count = len(second)
    vectors = np.concatenate([second, first]).reshape(count + len(first), -1)
    triangle = np.linalg.qr(vectors.T, mode="r")
    signs = np.where(np.arange(len(vectors)) < count, 1.0, -1.0)
    return np.linalg.eigvalsh((triangle * signs) @ triangle.conj().T)


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
