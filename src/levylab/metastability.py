"""Analytic predictions for small-noise metastability.

In the small-noise limit, a heavy-tail driven gradient flow on a multi-well
landscape reduces to a continuous-time Markov chain on the minima whose
rates depend only on the distances from each minimum to the valley
boundaries,

    q_ij = (1/alpha) * | 1/|s_{j-1} - m_i|^alpha - 1/|s_j - m_i|^alpha |,

with the outer boundaries at infinity contributing zero.  Transition times
accelerate like eps^alpha, and the first exit time tau from a radius-a
neighborhood makes eps^alpha * tau asymptotically exponential with rate
``exit_rate(a, alpha)`` = theta/alpha, theta = 2/a^alpha, whose mean is
``expected_exit_time``; in dim coordinates, each with its own driver, the
rate is dim times that.  All formulas here are normalized for a driving process
with unit jump intensity density |y|^(-1-alpha); see
``stable.unit_jump_scale`` for the matching noise amplitude.  Brownian noise
(alpha = 2) has no jumps, so the exit law and the chain's generator take
alpha in (0, 2) only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, ParameterError
from .objectives import valley_partition

STATIONARY_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class MarkovChainModel:
    """Limiting chain on the minima: generator Q and, once solved, pi."""

    minima: tuple[float, ...]
    saddles: tuple[float, ...]
    alpha: float
    Q: np.ndarray
    pi: np.ndarray | None = None


def _boundary_term(s: float, m: float, alpha: float) -> float:
    if math.isinf(s):
        return 0.0
    return 1.0 / abs(s - m) ** alpha


def generator_matrix(
    minima: tuple[float, ...] | list[float],
    saddles: tuple[float, ...] | list[float],
    alpha: float,
) -> MarkovChainModel:
    """Generator of the limiting valley-hopping chain.

    ``saddles`` holds the r-1 interior saddles between r minima; rows of Q
    sum to zero with nonpositive diagonal.
    """
    if not (0.0 < alpha < 2.0):
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    r = len(minima)
    if r < 2:
        raise ParameterError(f"need at least two minima, got {r}")
    mins, sads = valley_partition(minima, saddles)

    bounds = (-math.inf, *sads, math.inf)
    Q = np.zeros((r, r))
    for i in range(r):
        for j in range(r):
            if j == i:
                continue
            left = _boundary_term(bounds[j], mins[i], alpha)
            right = _boundary_term(bounds[j + 1], mins[i], alpha)
            Q[i, j] = abs(left - right) / alpha
        Q[i, i] = -Q[i].sum()
    return MarkovChainModel(minima=mins, saddles=sads, alpha=alpha, Q=Q)


def stationary_distribution(model: MarkovChainModel) -> np.ndarray:
    """Stationary law of the chain: the normalized null vector of Q^T.

    Solved by replacing one balance equation with the normalization
    sum(pi) = 1; a second numerical null direction (reducible chain) raises
    a degeneracy error.
    """
    Q = model.Q
    r = Q.shape[0]
    svals = np.linalg.svd(Q.T, compute_uv=False)
    tol = max(svals) * r * np.finfo(float).eps * 1e3
    if np.sum(svals < tol) > 1:
        raise DegenerateInputError(
            "generator has more than one null direction; the chain is reducible"
        )
    A = np.vstack([Q.T[:-1], np.ones(r)])
    b = np.zeros(r)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    residual = float(np.max(np.abs(Q.T @ pi)))
    if residual >= STATIONARY_RESIDUAL_TOL:
        raise DegenerateInputError(f"stationary residual {residual:.3e} too large")
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    if np.any(pi < 0):
        raise DegenerateInputError("stationary solution has negative mass")
    return pi


def solved_model(minima, saddles, alpha: float) -> MarkovChainModel:
    """Generator plus stationary law in one step."""
    model = generator_matrix(minima, saddles, alpha)
    return replace(model, pi=stationary_distribution(model))


def _check_dim(dim: int) -> None:
    if not (isinstance(dim, (int, np.integer)) and dim >= 1):
        raise ParameterError(f"dim must be an integer >= 1, got {dim!r}")


def expected_exit_time(a: float, epsilon: float, alpha: float, *, dim: int = 1) -> float:
    """Leading-order mean first-exit time (alpha/2) * a^alpha / eps^alpha / dim.

    The mean of the ``exit_rate`` law, in the same regime: the ball of radius
    a around the minimum, one independent driver per coordinate, leading
    order in eps.
    """
    if not (a > 0 and epsilon > 0):
        raise ParameterError(f"need a > 0 and epsilon > 0, got a={a}, epsilon={epsilon}")
    if not (0.0 < alpha < 2.0):
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    _check_dim(dim)
    return (alpha / 2.0) * a**alpha / epsilon**alpha / dim


def exit_rate(a: float, alpha: float, *, dim: int = 1) -> float:
    """Rate dim * theta/alpha, theta = 2/a^alpha, of the exponential law of eps^alpha * tau.

    Each of the dim coordinates draws its own stable increment, so the jumps
    lie on the axes, and to leading order in eps the chain leaves the ball of
    radius a around the minimum at the first jump longer than a along any axis.
    """
    if a <= 0:
        raise ParameterError(f"need a > 0, got a={a}")
    if not (0.0 < alpha < 2.0):
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    _check_dim(dim)
    return dim * ((2.0 / a**alpha) / alpha)
