"""Constant-stepsize SGD benchmark for heavy-tailed gradient noise.

Measures the decay of the best squared gradient norm over K iterations of

    w[k+1] = w[k] - eta (grad f(w[k]) + U[k]),

with U mean-zero per-coordinate noise whose (1+gamma)-th moment is finite,
against the guarantee

    min_k E |grad f(w[k])|^2  <=  gap/(K eta) + M/(1+gamma) eta^gamma sigma^(1+gamma),

optimized by eta = c_gamma / K^(1/(1+gamma)).  The expectation is proxied
by the replicate average; with stable noise that average is itself heavy
tailed, so replicate counts buy less than they would under a Gaussian.

A sweep draws its noise in blocks of ``stable.NOISE_BLOCK`` variates' worth
of steps.  Each K takes its uniforms (or Gaussian normals) from one substream
and its exponentials from another, so a block of any length equals that many
per-step draws bit for bit; the gradient loop stays per step.  The squared
gradient norms fill a buffer of about NOISE_BLOCK values that is reduced
each time it fills, so a sweep's memory does not grow with K.  The sigma_gamma
estimate draws its samples in blocks too and keeps only their norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stable
from .csvfmt import CsvRecord
from .errors import ParameterError
from .objectives import ObjectiveSpec
from .rng import RngStream
from .stable import draw_blocks, sample_standard_sas

DEFAULT_GAMMA_SAFETY = 0.8


def default_gamma(alpha: float) -> float:
    """Moment exponent safely inside [0, alpha - 1)."""
    if not (1.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must lie in (1, 2] for a usable gamma, got {alpha}")
    return DEFAULT_GAMMA_SAFETY * (alpha - 1.0)


def _check_constants(gamma: float, sigma_gamma: float, M: float) -> None:
    if not (0.0 < gamma <= 1.0):
        raise ParameterError(f"gamma must lie in (0, 1], got {gamma}")
    if not (0.0 < sigma_gamma < math.inf):
        raise ParameterError(f"sigma_gamma must be positive and finite, got {sigma_gamma}")
    if not (0.0 < M < math.inf):
        raise ParameterError(f"M must be positive and finite, got {M}")


def optimal_c_gamma(gamma: float, sigma_gamma: float, M: float, gap: float) -> float:
    """Stepsize constant minimizing the bound at eta = c / K^(1/(1+gamma))."""
    _check_constants(gamma, sigma_gamma, M)
    if gap <= 0.0:
        raise ParameterError(f"gap must be positive, got {gap}")
    return (1.0 / sigma_gamma) * ((1.0 + gamma) / (gamma * M) * gap) ** (1.0 / (1.0 + gamma))


def a_gamma_bound(gamma: float, sigma_gamma: float, M: float, gap: float) -> float:
    """Prefactor of the guaranteed min-gradient bound a / K^(gamma/(1+gamma))."""
    _check_constants(gamma, sigma_gamma, M)
    if gap < 0.0:
        raise ParameterError(f"gap must be nonnegative, got {gap}")
    return (
        sigma_gamma
        * ((1.0 + gamma) / gamma * M) ** (1.0 / (1.0 + gamma))
        * gap ** (gamma / (1.0 + gamma))
    )


def constant_step_bound(
    K: int, eta: float, gamma: float, sigma_gamma: float, M: float, gap: float
) -> float:
    """Guaranteed value of min_k E|grad f|^2 for a constant stepsize run."""
    _check_constants(gamma, sigma_gamma, M)
    if K < 1:
        raise ParameterError(f"K must be >= 1, got {K}")
    if eta <= 0.0:
        raise ParameterError(f"eta must be positive, got {eta}")
    if gap < 0.0:
        raise ParameterError(f"gap must be nonnegative, got {gap}")
    return gap / (K * eta) + M / (1.0 + gamma) * eta**gamma * sigma_gamma ** (1.0 + gamma)


@dataclass(frozen=True)
class GradientNoise:
    """Mean-zero per-coordinate noise added to the true gradient."""

    kind: str  # "sas" or "gaussian"
    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("sas", "gaussian"):
            raise ParameterError(f"kind must be 'sas' or 'gaussian', got {self.kind!r}")
        if self.kind == "gaussian" and self.alpha != 2.0:
            raise ParameterError("gaussian noise requires alpha = 2.0")
        if not (0.0 < self.alpha <= 2.0):
            raise ParameterError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not (0.0 < self.scale < math.inf):
            raise ParameterError(f"scale must be positive and finite, got {self.scale}")

    def sample(self, shape, gen: np.random.Generator,
               exp_gen: np.random.Generator) -> np.ndarray:
        """Noise of ``shape``: normals or SaS uniforms from ``gen``, SaS
        exponentials from ``exp_gen`` (see ``sample_standard_sas``)."""
        if self.kind == "gaussian":
            return self.scale * gen.normal(0.0, 1.0, shape)
        return self.scale * sample_standard_sas(self.alpha, shape, gen, exp_gen)


@dataclass(frozen=True)
class ConvergenceConfig:
    """Sweep definition: constants of the bound plus the K grid."""

    gamma: float
    sigma_gamma: float
    M: float
    gap: float
    ks: tuple[int, ...]
    replicates: int = 100
    stepsize_c: float | None = None  # None picks optimal_c_gamma
    eta: float | None = None  # set for a fixed stepsize across the sweep

    def __post_init__(self):
        _check_constants(self.gamma, self.sigma_gamma, self.M)
        if not (0.0 <= self.gap < math.inf):
            raise ParameterError(f"gap must be nonnegative and finite, got {self.gap}")
        if len(self.ks) < 1 or any(k < 1 for k in self.ks):
            raise ParameterError(f"ks must be positive iteration counts, got {self.ks}")
        if self.replicates < 1:
            raise ParameterError(f"replicates must be >= 1, got {self.replicates}")
        for name in ("stepsize_c", "eta"):
            value = getattr(self, name)
            if value is not None and not (0.0 < value < math.inf):
                raise ParameterError(f"{name} must be positive and finite, got {value}")

    def eta_for(self, K: int) -> float:
        if self.eta is not None:
            return self.eta
        c = self.stepsize_c
        if c is None:
            c = optimal_c_gamma(self.gamma, self.sigma_gamma, self.M, self.gap)
        return c / K ** (1.0 / (1.0 + self.gamma))


@dataclass(frozen=True)
class ConvergenceRow(CsvRecord):
    """Sweep result at one K."""

    CSV_HEADER = "K,eta,gamma,alpha,min_grad_sq_mean,min_grad_sq_stderr,bound,diverged_fraction"

    K: int
    eta: float
    gamma: float
    alpha: float
    min_grad_sq_mean: float
    min_grad_sq_stderr: float
    bound: float
    diverged_fraction: float


def estimate_sigma_gamma(
    spec: ObjectiveSpec,
    noise: GradientNoise,
    w0: np.ndarray,
    gamma: float,
    rng: RngStream,
    n_samples: int = 20_000,
) -> float:
    """Monte Carlo estimate of (E|grad f(w0) + U|^(1+gamma))^(1/(1+gamma)).

    The bound only needs an upper moment at the start point; for injected
    noise there is no closed form on a general objective.  The samples are
    those of one ``noise.sample((n_samples, d), gen, gen)`` call, drawn in
    blocks of rows (see ``stable.draw_blocks``); only their norms are kept.
    """
    if not (0.0 < gamma <= 1.0):
        raise ParameterError(f"gamma must lie in (0, 1], got {gamma}")
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    w0 = np.atleast_1d(np.asarray(w0, dtype=float))
    g0 = np.atleast_1d(np.asarray(spec.grad(w0), dtype=float))
    norms = np.empty(n_samples)
    for start, u in draw_blocks(noise.sample, n_samples, (w0.size,), rng.generator()):
        norms[start:start + len(u)] = np.sqrt(np.sum((g0 + u) ** 2, axis=1))
    norms **= 1.0 + gamma
    return float(np.mean(norms) ** (1.0 / (1.0 + gamma)))


def run_convergence(
    spec: ObjectiveSpec,
    noise: GradientNoise,
    config: ConvergenceConfig,
    w0: np.ndarray,
    rng: RngStream,
) -> list[ConvergenceRow]:
    """Constant-stepsize sweep over the K grid.

    For each K, runs ``replicates`` chains with eta = config.eta_for(K) and
    records the minimum over k of the replicate-averaged squared gradient
    norm (the first minimum on ties), its standard error at the argmin, the
    guaranteed bound, and the fraction of replicates that left float range
    (those are excluded from the statistics, never merged in).  A step at
    which every replicate has left float range raises when the buffer that
    holds it is reduced, at most NOISE_BLOCK // replicates steps later.
    """
    w0 = np.atleast_1d(np.asarray(w0, dtype=float))
    if w0.size != spec.dim:
        raise ParameterError(f"w0 dim {w0.size} != objective dim {spec.dim}")
    R = config.replicates
    steps = max(1, stable.NOISE_BLOCK // (R * w0.size))
    grad_sq = np.empty((max(1, stable.NOISE_BLOCK // R), R))  # reduced each time it fills
    rows = []
    for i, K in enumerate(config.ks):
        eta = config.eta_for(K)
        gen, exp_gen = rng.substream(i).generator(), rng.substream(i, 1).generator()
        W = np.tile(w0, (R, 1))
        best_mean, best_vals = None, None
        with np.errstate(all="ignore"):
            for k in range(K):
                if k % steps == 0:
                    U = noise.sample((min(steps, K - k), R, w0.size), gen, exp_gen)
                G = spec.grad(W)
                j = k % len(grad_sq)
                grad_sq[j] = np.sum(G * G, axis=1)
                W = W - eta * (G + U[k % steps])
                if j + 1 < len(grad_sq) and k + 1 < K:
                    continue
                # the buffer is full or K is done: a lane is excluded from
                # the step where it first went non-finite
                filled = grad_sq[:j + 1]
                finite = np.isfinite(filled)
                alive = finite.sum(axis=1)
                if not alive.all():
                    raise ParameterError(f"all replicates diverged at K={K}; shrink eta or scale")
                np.copyto(filled, 0.0, where=~finite)  # only finite entries are read below
                means = filled.sum(axis=1) / alive
                m = int(np.argmin(means))
                if best_mean is None or means[m] < best_mean:
                    best_mean, best_vals = means[m], filled[m][finite[m]]
        stderr = (float(best_vals.std(ddof=1) / np.sqrt(best_vals.size))
                  if best_vals.size > 1 else 0.0)
        diverged = float(1.0 - alive[-1] / R)
        rows.append(
            ConvergenceRow(
                K=K,
                eta=eta,
                gamma=config.gamma,
                alpha=noise.alpha,
                min_grad_sq_mean=float(best_mean),
                min_grad_sq_stderr=stderr,
                bound=constant_step_bound(
                    K, eta, config.gamma, config.sigma_gamma, config.M, config.gap
                ),
                diverged_fraction=diverged,
            )
        )
    return rows


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ParameterError("slope fit needs two same-length arrays with >= 2 points")
    if x.min() == x.max():
        raise ParameterError("slope fit needs two distinct x values")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ParameterError("slope fit needs strictly positive values")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def fitted_rate_slope(rows: list[ConvergenceRow]) -> float:
    """Log-log slope of the measured minima against K."""
    return fit_loglog_slope([r.K for r in rows], [r.min_grad_sq_mean for r in rows])
