"""Certified bounds on the worst-case expectation gap behind ``⊑_inf`` (Sec. 6.3).

The paper's prototype delegates the check

    ∀ρ ∈ D(H). ∃M ∈ Θ. tr(Mρ) ≤ tr(Nρ)

to an external SDP solver (cvxpy/MOSEK).  That dependency is not available
offline, so this module solves the same problem from scratch, with numpy only.

The quantity that has to be computed for each ``N ∈ Ψ`` is the optimal value of

    V(Θ, N)  =  max_{ρ ⪰ 0, tr ρ = 1}  min_{M ∈ Θ}  tr((M − N) ρ)

and the relation fails exactly when ``V > ε`` for the user-chosen precision ε.
Because the objective is bilinear and both feasible sets are convex and compact,
von Neumann's minimax theorem gives the dual expression

    V(Θ, N)  =  min_{λ ∈ Δ_{|Θ|}}  λ_max( Σ_i λ_i A_i ),   A_i = M_i − N.

When ``Θ = {M}`` is a singleton the value is exact, ``V({M}, N) = λ_max(M − N)``,
attained by the top eigenvector, so one ``eigh`` decides it.  Otherwise a
barrier (interior-point) method on the dual SDP

    minimise s  subject to  Z = sI − Σ_i λ_i A_i ⪰ 0,  λ ∈ Δ_{|Θ|}

closes a *certified interval* ``[lower, upper]`` around ``V``; every bound it
reports is the value of an explicit certificate:

* **upper:** ``λ_max(Σ_i λ_i A_i)`` at simplex weights ``λ`` (``dual_weights``);
* **lower:** ``min_i tr(A_i ρ)`` at a density operator ``ρ`` (``witness``).

Both are seeded from the simplex vertices: ``λ = e_i`` gives ``λ_max(A_i)``,
and the top eigenvector of each ``A_i`` gives a pure state.  When one predicate
dominates, the optimum sits at a vertex and the seeds close the interval
without a Newton step.  Otherwise each Newton step of the barrier method is one
``d × d`` ``eigh`` of ``Σ_i λ_i A_i`` and one ``(|Θ| + 2)``-sized KKT solve.
For the current weights ``s`` is set to the centre of the barrier in ``s``
(``tr Z⁻¹ = t``, a scalar equation in the eigenvalues), so only the ``λ``
part of each Newton step is taken, at a length that a backtracking search on
the barrier function picks.  The primal witness is ``Z⁻¹ − Z⁻¹ dZ Z⁻¹`` (normalised), where ``dZ``
is the Newton step: it is positive whenever ``‖Z^{-1/2} dZ Z^{-1/2}‖_F < 1``.
Reading the witness off ``Z⁻¹`` alone stalls at widths of about 1e-8 once the
optimum has rank two or more, because the small eigenvalues of ``Z`` that set
its weights carry a relative rounding error of about ``eps · t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..exceptions import PredicateError
from ..linalg.operators import dagger

__all__ = ["GapResult", "max_min_expectation_gap"]

#: Width at which the interval ``[lower, upper]`` counts as closed.
GAP_WIDTH = 1e-9

#: Newton steps the barrier method may take before it returns the interval it has.
NEWTON_STEPS = 100

#: Factor by which the barrier parameter ``t`` grows once an iterate is centred.
_GROWTH = 10.0


@dataclass
class GapResult:
    """Result of a :func:`max_min_expectation_gap` computation.

    Attributes
    ----------
    lower:
        Certified lower bound on ``V(Θ, N)``: ``min_i tr(A_i · witness)``.
    upper:
        Certified upper bound on ``V(Θ, N)``: ``λ_max(Σ_i dual_weights_i A_i)``.
    witness:
        The density operator achieving ``lower``.
    dual_weights:
        The simplex weights achieving ``upper``.
    """

    lower: float
    upper: float
    witness: np.ndarray
    dual_weights: np.ndarray


def max_min_expectation_gap(thetas, psi) -> GapResult:
    """Compute certified bounds on ``V(Θ, N) = max_ρ min_{M∈Θ} tr((M − N)ρ)``.

    For a singleton ``Θ = {M}`` both bounds are ``λ_max(M − N)``, the witness
    is the top-eigenvector state and the dual weights are ``[1.0]``.  For two
    or more predicates the interval is at most :data:`GAP_WIDTH` wide unless
    the barrier method ran out of its :data:`NEWTON_STEPS` first; it is a
    valid interval either way.

    Parameters
    ----------
    thetas:
        The matrices of the predicates in the candidate lower set ``Θ``.
    psi:
        The matrix ``N`` of one predicate of the candidate upper set ``Ψ``.
    """
    if not thetas:
        raise PredicateError("Θ must contain at least one predicate")
    psi = np.asarray(psi, dtype=complex)
    differences = [np.asarray(theta, dtype=complex) - psi for theta in thetas]
    if len(differences) == 1:
        hermitian = (differences[0] + dagger(differences[0])) / 2
        eigenvalues, eigenvectors = np.linalg.eigh(hermitian)
        top = eigenvectors[:, -1:]
        value = float(eigenvalues[-1])
        return GapResult(value, value, top @ dagger(top), np.array([1.0]))
    stack = np.stack(differences)
    return _barrier((stack + stack.conj().transpose(0, 2, 1)) / 2)


def _barrier(differences: np.ndarray) -> GapResult:
    """Close the interval around ``V`` for the hermitian stack ``A_i`` (``|Θ| ≥ 2``)."""
    count, dimension = differences.shape[:2]
    eigenvalues, eigenvectors = np.linalg.eigh(differences)
    tops = eigenvectors[:, :, -1]
    # vertex_values[j, i] = tr(A_i ρ_j) for the top-eigenvector state ρ_j of A_j.
    vertex_values = np.einsum("jk,ikl,jl->ji", tops.conj(), differences, tops).real
    best = int(np.argmin(eigenvalues[:, -1]))
    upper, weights = float(eigenvalues[best, -1]), np.eye(count)[best]
    best = int(np.argmax(vertex_values.min(axis=1)))
    lower = float(vertex_values[best].min())
    witness = np.outer(tops[best], tops[best].conj())
    if upper - lower <= GAP_WIDTH:
        return GapResult(lower, upper, witness, weights)

    # The barrier's parameter is dimension + count, so the centre for this t
    # has a duality gap of about the seeds' width.
    t = (dimension + count) / (upper - lower)
    lam = np.full(count, 1.0 / count)
    spectrum, basis = np.linalg.eigh(np.tensordot(lam, differences, axes=1))
    z, barrier_value = _centre(spectrum, lam, t)
    for _ in range(NEWTON_STEPS):
        if spectrum[-1] < upper:
            upper, weights = float(spectrum[-1]), lam
        root = 1.0 / np.sqrt(z)
        # W^{1/2} A_i W^{1/2} in the eigenbasis of Z, with W = Z⁻¹.
        scaled = (dagger(basis) @ differences @ basis) * root[:, None] * root[None, :]
        try:
            step, decrement = _newton_step(scaled, z, lam, t)
        except np.linalg.LinAlgError:  # the KKT matrix is singular to working precision
            break
        value, primal = _primal_witness(scaled, z, step)
        if value > lower:
            lower, witness = value, basis @ primal @ dagger(basis)
        if upper - lower <= GAP_WIDTH:
            break
        if decrement < 1.0:
            t *= _GROWTH
            z, barrier_value = _centre(spectrum, lam, t)
        else:
            accepted = _line_search(differences, lam, step[1:], decrement, barrier_value, t)
            if accepted is None:  # no decrease left at working precision
                break
            lam, spectrum, basis, z, barrier_value = accepted
    return GapResult(lower, upper, (witness + dagger(witness)) / 2, weights)


def _centre(spectrum: np.ndarray, lam: np.ndarray, t: float) -> Tuple[np.ndarray, float]:
    """Return the eigenvalues ``z`` of ``Z`` at the centred ``s`` and the barrier value there.

    ``spectrum`` holds the ascending eigenvalues ``μ`` of ``Σ_i λ_i A_i``, so
    ``z = s − μ``; the centred ``s`` solves ``Σ_k 1/z_k = t``, and the barrier
    value is ``t·s − Σ log z − Σ log λ``.  With ``x = s − μ_max`` and
    ``g = μ_max − μ``, ``u(x) = 1/Σ 1/(x + g)`` is concave and increasing with
    ``u(1/t) ≤ 1/t``, so Newton's method on ``u(x) = 1/t`` from ``x = 1/t``
    climbs to the root without overshooting.
    """
    gaps = spectrum[-1] - spectrum
    x = 1.0 / t
    for _ in range(64):
        inverse = 1.0 / (x + gaps)
        harmonic = 1.0 / inverse.sum()
        increment = (1.0 / t - harmonic) / (harmonic * harmonic * (inverse @ inverse))
        x += increment
        if increment <= 1e-12 * x:
            break
    z = x + gaps
    return z, t * (spectrum[-1] + x) - np.log(z).sum() - np.log(lam).sum()


def _newton_step(scaled: np.ndarray, z: np.ndarray, lam: np.ndarray, t: float):
    """Return the Newton step in ``(s, λ)`` and its decrement.

    The barrier is ``t·s − log det Z − Σ log λ_i`` under ``Σ λ_i = 1``.  With
    ``W = Z⁻¹`` and ``S_i = W^{1/2} A_i W^{1/2}`` (``scaled``, in the
    eigenbasis of ``Z``) its gradient is ``(t − tr W, tr S_i − 1/λ_i)`` and
    its Hessian ``[[tr W², −tr(W S_i)], [−tr(W S_i), tr(S_i S_j) + δ_ij/λ_i²]]``.
    """
    count = len(lam)
    inverse = 1.0 / z
    diagonals = np.einsum("ikk->ik", scaled).real
    flat = scaled.reshape(count, -1)
    hessian = np.empty((count + 1, count + 1))
    hessian[0, 0] = inverse @ inverse
    hessian[0, 1:] = hessian[1:, 0] = -(diagonals @ inverse)
    hessian[1:, 1:] = (flat.conj() @ flat.T).real + np.diag(1.0 / lam**2)
    gradient = np.concatenate(([t - inverse.sum()], diagonals.sum(axis=1) - 1.0 / lam))
    kkt = np.zeros((count + 2, count + 2))
    kkt[:-1, :-1] = hessian
    kkt[1:-1, -1] = kkt[-1, 1:-1] = 1.0
    step = np.linalg.solve(kkt, np.concatenate((-gradient, [0.0])))[:-1]
    decrement = float(np.sqrt(max(step @ hessian @ step, 0.0)))
    return step, decrement


def _primal_witness(scaled: np.ndarray, z: np.ndarray, step: np.ndarray):
    """Return ``(min_i tr(A_i ρ), ρ)`` for ``ρ ∝ Z⁻¹ − Z⁻¹ dZ Z⁻¹`` in the eigenbasis.

    ``ρ = W^{1/2} (I − X) W^{1/2}`` with ``X = W^{1/2} dZ W^{1/2}`` and
    ``dZ = ds·I − Σ_i dλ_i A_i``, so ``tr(A_i ρ) = tr(S_i (I − X))`` up to
    the normalisation.  ``ρ`` is a density operator when ``‖X‖_F < 1``;
    otherwise the value is ``−∞`` and no witness is returned.
    """
    inverse = 1.0 / z
    scaled_step = step[0] * np.diag(inverse) - np.tensordot(step[1:], scaled, axes=1)
    if np.linalg.norm(scaled_step) >= 1.0:
        return -np.inf, None
    residual = np.eye(len(z)) - scaled_step
    root = np.sqrt(inverse)
    primal = residual * root[:, None] * root[None, :]
    norm = np.trace(primal).real
    values = np.einsum("ikl,lk->i", scaled, residual).real / norm
    return float(values.min()), primal / norm


def _line_search(differences, lam, direction, decrement, barrier_value, t):
    """Backtrack along the Newton ``direction`` in ``λ`` until the barrier value drops enough.

    The barrier value with ``s`` centred is self-concordant in ``λ``, so any
    step of length at most ``1/(1 + δ)`` (``δ`` the Newton decrement) keeps
    the weights positive and lowers it by at least ``length·δ²/4``.  The
    first trial is the full step, cut to 99% of the way to the boundary of
    the simplex; each rejection halves it.  Returns the accepted weights
    with the eigendecomposition, ``z`` and barrier value there, or ``None``
    when even a step below ``1/(1 + δ)`` was refused: then rounding
    outweighs the decrease, and no later step can help.
    """
    shrinking = direction < 0
    length = 1.0
    if shrinking.any():
        length = min(1.0, 0.99 * float(np.min(-lam[shrinking] / direction[shrinking])))
    while length >= 0.5 / (1.0 + decrement):
        trial = lam + length * direction
        trial /= trial.sum()
        spectrum, basis = np.linalg.eigh(np.tensordot(trial, differences, axes=1))
        z, value = _centre(spectrum, trial, t)
        if value <= barrier_value - 0.25 * length * decrement**2:
            return trial, spectrum, basis, z, value
        length /= 2
    return None
