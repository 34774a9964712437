"""SDP-style decision procedure used by the ``⊑_inf`` check (Sec. 6.3).

The paper's prototype delegates the check

    ∀ρ ∈ D(H). ∃M ∈ Θ. tr(Mρ) ≤ tr(Nρ)

to an external SDP solver (cvxpy/MOSEK).  That dependency is not available
offline, so this module implements the same decision problem from scratch.

The quantity that has to be computed for each ``N ∈ Ψ`` is the optimal value of

    V(Θ, N)  =  max_{ρ ⪰ 0, tr ρ = 1}  min_{M ∈ Θ}  tr((M − N) ρ)

and the relation fails exactly when ``V > ε`` for the user-chosen precision ε.
Because the objective is bilinear and both feasible sets are convex and compact,
von Neumann's minimax theorem gives the dual expression

    V(Θ, N)  =  min_{λ ∈ Δ_{|Θ|}}  λ_max( Σ_i λ_i (M_i − N) )

When ``Θ = {M}`` is a singleton the value is exact, ``V({M}, N) = λ_max(M − N)``,
attained by the top eigenvector, so one ``eigh`` decides it.  Otherwise this
module computes a *certified interval* ``[lower, upper]`` around ``V``:

* the **primal** side runs Frank–Wolfe over the spectraplex (each linear
  sub-problem is a top-eigenvector computation), which yields a feasible ``ρ``
  and therefore a lower bound together with a witness state;
* the **dual** side minimises ``λ_max`` over the probability simplex (exact
  enough for two predicates, multi-start SLSQP otherwise), each evaluation of
  which is an upper bound on ``V``.

The two bounds bracket the true optimum, so the decision ``V ≤ ε`` can be made
with an explicit certificate in either direction.

Only the dual side uses scipy: :func:`_dual_minimize` imports ``scipy.optimize``
inside the function, so importing this module, and every singleton gap, loads
numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import PredicateError
from ..linalg.operators import dagger

__all__ = ["GapResult", "max_min_expectation_gap", "lambda_max", "top_eigenvector_state"]


def lambda_max(matrix: np.ndarray) -> float:
    """Return the largest eigenvalue of (the hermitian part of) ``matrix``."""
    matrix = np.asarray(matrix, dtype=complex)
    hermitian = (matrix + dagger(matrix)) / 2
    return float(np.linalg.eigvalsh(hermitian)[-1])


def top_eigenvector_state(matrix: np.ndarray) -> np.ndarray:
    """Return the pure-state density operator of the top eigenvector of ``matrix``."""
    matrix = np.asarray(matrix, dtype=complex)
    hermitian = (matrix + dagger(matrix)) / 2
    _, eigenvectors = np.linalg.eigh(hermitian)
    vector = eigenvectors[:, -1].reshape(-1, 1)
    return vector @ dagger(vector)


@dataclass
class GapResult:
    """Result of a :func:`max_min_expectation_gap` computation.

    Attributes
    ----------
    lower:
        Certified lower bound on ``V(Θ, N)`` (value of the best primal iterate).
    upper:
        Certified upper bound on ``V(Θ, N)`` (value of the best dual iterate).
    witness:
        The primal density operator achieving ``lower``.
    dual_weights:
        The simplex weights achieving ``upper``.
    """

    lower: float
    upper: float
    witness: np.ndarray
    dual_weights: np.ndarray

    @property
    def midpoint(self) -> float:
        """Mid-point of the certified interval; used for reporting only."""
        return (self.lower + self.upper) / 2


def _primal_objective(differences: Sequence[np.ndarray], rho: np.ndarray) -> float:
    """Evaluate ``min_i tr(A_i ρ)`` for the difference operators ``A_i``."""
    return min(float(np.real(np.trace(a @ rho))) for a in differences)


def _frank_wolfe(
    differences: Sequence[np.ndarray], iterations: int, dimension: int
) -> Tuple[float, np.ndarray]:
    """Maximise ``min_i tr(A_i ρ)`` over density operators by Frank–Wolfe.

    Returns the best objective value found and the corresponding witness state.
    """
    # Start from the maximally mixed state.
    rho = np.eye(dimension, dtype=complex) / dimension
    best_value = _primal_objective(differences, rho)
    best_rho = rho
    for iteration in range(iterations):
        values = [float(np.real(np.trace(a @ rho))) for a in differences]
        active = int(np.argmin(values))
        # The supergradient of the piecewise-linear objective at ρ is A_active;
        # the linear maximisation over the spectraplex is solved by the top
        # eigenvector of that operator.
        direction = top_eigenvector_state(differences[active])
        step = 2.0 / (iteration + 2.0)
        rho = (1.0 - step) * rho + step * direction
        value = _primal_objective(differences, rho)
        if value > best_value:
            best_value = value
            best_rho = rho
        # Also try the vertex itself — for a single difference operator this is optimal.
        vertex_value = _primal_objective(differences, direction)
        if vertex_value > best_value:
            best_value = vertex_value
            best_rho = direction
    return best_value, best_rho


def _dual_value(differences: Sequence[np.ndarray], weights: np.ndarray) -> float:
    """Evaluate the dual objective ``λ_max(Σ_i w_i A_i)``."""
    combined = sum(w * a for w, a in zip(weights, differences))
    return lambda_max(combined)


def _dual_minimize(
    differences: Sequence[np.ndarray], restarts: int, rng: np.random.Generator
) -> Tuple[float, np.ndarray]:
    """Minimise the dual objective over the probability simplex."""
    from scipy import optimize

    count = len(differences)
    if count == 2:
        # One-dimensional convex problem: golden-section search is exact enough.
        def objective(t: float) -> float:
            return _dual_value(differences, np.array([t, 1.0 - t]))

        result = optimize.minimize_scalar(objective, bounds=(0.0, 1.0), method="bounded")
        t = float(result.x)
        weights = np.array([t, 1.0 - t])
        return float(result.fun), weights

    best_value = np.inf
    best_weights = np.full(count, 1.0 / count)
    constraints = [{"type": "eq", "fun": lambda w: np.sum(w) - 1.0}]
    bounds = [(0.0, 1.0)] * count
    starts = [np.full(count, 1.0 / count)]
    starts.extend(np.eye(count)[index] for index in range(count))
    for _ in range(max(0, restarts - len(starts))):
        sample = rng.dirichlet(np.ones(count))
        starts.append(sample)
    for start in starts:
        result = optimize.minimize(
            lambda w: _dual_value(differences, w),
            start,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": 200, "ftol": 1e-10},
        )
        candidate = np.clip(result.x, 0.0, None)
        total = candidate.sum()
        if total <= 0:
            continue
        candidate = candidate / total
        value = _dual_value(differences, candidate)
        if value < best_value:
            best_value = value
            best_weights = candidate
    return float(best_value), best_weights


def max_min_expectation_gap(
    thetas: Sequence[np.ndarray],
    psi: np.ndarray,
    iterations: int = 200,
    restarts: int = 6,
    seed: int | None = 0,
) -> GapResult:
    """Compute certified bounds on ``V(Θ, N) = max_ρ min_{M∈Θ} tr((M − N)ρ)``.

    For a singleton ``Θ = {M}`` both bounds are ``λ_max(M − N)``, the witness
    is the top-eigenvector state and the dual weights are ``[1.0]``.

    Parameters
    ----------
    thetas:
        The matrices of the predicates in the candidate lower set ``Θ``.
    psi:
        The matrix ``N`` of one predicate of the candidate upper set ``Ψ``.
    iterations:
        Number of Frank–Wolfe iterations on the primal side.
    restarts:
        Number of dual restarts when ``|Θ| ≥ 3``.
    seed:
        Seed for the dual restart sampler (results are deterministic by default).
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
    dimension = psi.shape[0]
    rng = np.random.default_rng(seed)

    lower, witness = _frank_wolfe(differences, iterations, dimension)
    upper, weights = _dual_minimize(differences, restarts, rng)
    # Numerical guard: the dual can only over-estimate, the primal only
    # under-estimate; if rounding makes them cross, widen symmetrically.
    if lower > upper:
        middle = (lower + upper) / 2
        lower = upper = middle
    return GapResult(lower=lower, upper=upper, witness=witness, dual_weights=weights)
