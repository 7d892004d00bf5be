"""Monte Carlo studies comparing simulated paths to small-jump asymptotics.

The analytic exit-time and valley-occupancy formulas are stated for a
driving process whose jump intensity is exactly |y|^(-1-alpha).  A scale-1
symmetric alpha-stable driver in the characteristic-function convention has
that intensity only up to the constant sigma* = unit_jump_scale(alpha), so
each study accepts a ``noise_scaling`` switch:

  "jump"  multiply the nominal epsilon by sigma* before simulating, so the
          simulated process is the one the formulas describe (default);
  "cf"    drive with the literal scale-1 stable law and leave the nominal
          epsilon alone, in which case measured times sit a factor of about
          sigma*^alpha away from the predictions.

Predictions are always evaluated at the nominal epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .csvfmt import CsvRecord, format_row
from .errors import ParameterError
from .metastability import exit_rate, expected_exit_time, generator_matrix, solved_model
from .objectives import ObjectiveSpec
from .rng import RngStream
from .sde import (
    ExitTimeRecord,
    SdeConfig,
    TransitionRecord,
    first_exit_ensemble,
    first_transition_ensemble,
    occupancy_ensemble,
)
from .stable import unit_jump_scale


def ks_distance_exponential(values: np.ndarray, rate: float) -> float:
    """Kolmogorov distance between the sample and Exp(rate)."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    if n == 0:
        raise ParameterError("KS distance needs at least one value")
    if not (rate > 0.0):
        raise ParameterError(f"rate must be positive, got {rate}")
    cdf = 1.0 - np.exp(-rate * v)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    return float(max(d_plus, d_minus))


def start_minimum(spec: ObjectiveSpec, start_basin: int) -> float:
    """The minimum of valley ``start_basin``, which must index a declared minimum."""
    r = len(spec.minima)
    if not (0 <= start_basin < r):
        raise ParameterError(f"start_basin {start_basin} out of range for {r} minima")
    return float(spec.minima[start_basin])


def _study_config(
    alpha: float,
    epsilon: float,
    eta: float,
    noise_scaling: str,
    w0: tuple[float, ...],
    max_steps: int,
    sigma_brownian: float = 0.0,
) -> SdeConfig:
    """The simulated run for a nominal epsilon, rescaled as ``noise_scaling`` says."""
    if noise_scaling == "jump":
        epsilon = epsilon * unit_jump_scale(alpha)
    elif noise_scaling != "cf":
        raise ParameterError(f"noise_scaling must be 'jump' or 'cf', got {noise_scaling!r}")
    return SdeConfig(eta=eta, epsilon=epsilon, alpha=alpha, w0=w0,
                     sigma_brownian=sigma_brownian, max_steps=max_steps)


def _time_cap(
    epsilon: float, eta: float, time_cap_factor: float, predict: Callable[[], float]
) -> tuple[float, int]:
    """The predicted mean time ``predict()`` and a step cap of ``time_cap_factor``
    times it, once epsilon, eta and the factor are checked finite and in range."""
    if not (0.0 < epsilon < math.inf):
        raise ParameterError(f"epsilon must be positive and finite, got {epsilon}")
    if not (0.0 < eta < math.inf):
        raise ParameterError(f"eta must be positive and finite, got {eta}")
    if not (1.0 < time_cap_factor < math.inf):
        raise ParameterError(f"time_cap_factor must be finite and exceed 1, got {time_cap_factor}")
    predicted = predict()
    steps = time_cap_factor * predicted / eta
    if not math.isfinite(steps):
        raise ParameterError(f"step cap {steps} is not finite at predicted mean {predicted}")
    return predicted, int(np.ceil(steps))


@dataclass(frozen=True)
class ExitTimeStudy(CsvRecord):
    """Exit-time ensemble summary against the closed-form law."""

    CSV_HEADER = (
        "alpha,epsilon,radius_a,eta,n_replicates,noise_scaling,"
        "n_exited,n_diverged,n_censored,mean_exit_time,predicted_mean,ks_distance"
    )

    alpha: float
    epsilon: float
    radius_a: float
    eta: float
    n_replicates: int
    noise_scaling: str
    n_exited: int
    n_diverged: int
    n_censored: int
    mean_exit_time: float
    predicted_mean: float
    ks_distance: float
    records: tuple[ExitTimeRecord, ...]


def exit_time_study(
    spec: ObjectiveSpec,
    center: tuple[float, ...] | float,
    alpha: float,
    epsilon: float,
    a: float,
    eta: float,
    rng: RngStream,
    n_replicates: int = 500,
    sigma_brownian: float = 0.0,
    time_cap_factor: float = 8.0,
    noise_scaling: str = "jump",
) -> ExitTimeStudy:
    """Measure first-exit times from radius a around a minimum.

    Paths start at the center.  The prediction, the KS rate and the time cap
    are taken at radius a and at the objective's dimension.  The time cap is
    time_cap_factor times the predicted mean, so the censored fraction is
    about exp(-time_cap_factor) when the law holds.
    Divergent replicates are excluded from the mean and KS statistics and
    counted separately.
    """
    predicted, max_steps = _time_cap(
        epsilon, eta, time_cap_factor,
        lambda: expected_exit_time(a, epsilon, alpha, dim=spec.dim),
    )
    w0 = tuple(np.atleast_1d(np.asarray(center, dtype=float)))
    config = _study_config(alpha, epsilon, eta, noise_scaling, w0, max_steps, sigma_brownian)
    records = first_exit_ensemble(config, spec, center, a, rng, n_replicates)
    times = np.array([r.exit_time for r in records if r.exited])
    n_diverged = sum(r.diverged for r in records)
    n_censored = sum((not r.exited) and (not r.diverged) for r in records)
    if times.size == 0:
        raise ParameterError("no replicate exited; raise time_cap_factor or epsilon")
    ks = ks_distance_exponential(epsilon**alpha * times, exit_rate(a, alpha, dim=spec.dim))
    return ExitTimeStudy(
        alpha=alpha,
        epsilon=epsilon,
        radius_a=a,
        eta=eta,
        n_replicates=n_replicates,
        noise_scaling=noise_scaling,
        n_exited=int(times.size),
        n_diverged=int(n_diverged),
        n_censored=int(n_censored),
        mean_exit_time=float(times.mean()),
        predicted_mean=predicted,
        ks_distance=ks,
        records=tuple(records),
    )


@dataclass(frozen=True)
class TransitionStudy(CsvRecord):
    """First hops between valleys against the generator-matrix prediction."""

    CSV_HEADER = (
        "alpha,epsilon,delta,eta,n_replicates,noise_scaling,"
        "n_transitioned,n_diverged,mean_transition_time,predicted_mean"
    )

    alpha: float
    epsilon: float
    delta: float
    eta: float
    n_replicates: int
    noise_scaling: str
    start_basin: int
    n_transitioned: int
    n_diverged: int
    mean_transition_time: float
    predicted_mean: float
    destination_fractions: tuple[float, ...]
    predicted_destination_fractions: tuple[float, ...]
    records: tuple[TransitionRecord, ...]


def transition_study(
    spec: ObjectiveSpec,
    alpha: float,
    epsilon: float,
    delta: float,
    eta: float,
    rng: RngStream,
    n_replicates: int = 300,
    start_basin: int = 0,
    noise_scaling: str = "jump",
    time_cap_factor: float = 8.0,
) -> TransitionStudy:
    """First transition out of a starting valley on a multi-well objective.

    On the chain time scale the holding time in basin i is exponential with
    rate |q_ii|, so the mean first-transition time is eps^-alpha / |q_ii|
    and destinations split as q_ij / |q_ii|.  Paths start at the basin's
    minimum.
    """
    if spec.minima is None:
        raise ParameterError("transition study needs an objective with declared geometry")
    Q = generator_matrix(spec.minima, spec.saddles, alpha).Q
    w0 = start_minimum(spec, start_basin)
    rate_out = float(-Q[start_basin, start_basin])
    predicted, max_steps = _time_cap(
        epsilon, eta, time_cap_factor, lambda: epsilon**-alpha / rate_out
    )
    config = _study_config(alpha, epsilon, eta, noise_scaling, (w0,), max_steps)
    records, diverged = first_transition_ensemble(config, spec, delta, rng, n_replicates)
    if not records:
        raise ParameterError("no replicate transitioned; raise time_cap_factor or epsilon")
    times = np.array([rec.transition_time for rec in records])
    dest = np.array([rec.end_basin for rec in records])
    counts = np.bincount(dest, minlength=len(spec.minima)).astype(float)
    counts[start_basin] = 0.0
    fractions = counts / counts.sum()
    pred_fracs = Q[start_basin].copy()
    pred_fracs[start_basin] = 0.0
    pred_fracs = pred_fracs / rate_out
    return TransitionStudy(
        alpha=alpha,
        epsilon=epsilon,
        delta=delta,
        eta=eta,
        n_replicates=n_replicates,
        noise_scaling=noise_scaling,
        start_basin=start_basin,
        n_transitioned=len(records),
        n_diverged=int(diverged.sum()),
        mean_transition_time=float(times.mean()),
        predicted_mean=predicted,
        destination_fractions=tuple(float(f) for f in fractions),
        predicted_destination_fractions=tuple(float(f) for f in pred_fracs),
        records=tuple(records),
    )


@dataclass(frozen=True)
class OccupancyStudy:
    """Long-run valley occupancy against the stationary distribution."""

    alpha: float
    epsilon: float
    eta: float
    n_steps: int
    burn_in: int
    n_replicates: int
    noise_scaling: str
    n_diverged: int
    fractions: tuple[float, ...]
    pi: tuple[float, ...]
    max_abs_error: float

    def header(self) -> str:
        r = len(self.fractions)
        cols = ["alpha", "epsilon", "eta", "n_steps", "burn_in", "n_replicates",
                "noise_scaling", "n_diverged"]
        cols += [f"fraction_{i}" for i in range(r)]
        cols += [f"pi_{i}" for i in range(r)]
        cols.append("max_abs_error")
        return ",".join(cols)

    def csv_row(self) -> str:
        return format_row(self.alpha, self.epsilon, self.eta, self.n_steps, self.burn_in,
                          self.n_replicates, self.noise_scaling, self.n_diverged,
                          self.fractions, self.pi, self.max_abs_error)


def occupancy_study(
    spec: ObjectiveSpec,
    alpha: float,
    epsilon: float,
    eta: float,
    rng: RngStream,
    n_replicates: int = 8,
    n_steps: int = 1_000_000,
    noise_scaling: str = "jump",
) -> OccupancyStudy:
    """Compare pooled valley occupancy to the stationary chain distribution.

    Every lane starts at the deepest minimum and runs ``n_steps`` steps on its
    own substream of ``rng``; its first tenth (``n_steps // 10`` steps) is
    dropped as burn-in before its valley visits are counted.  The row reports
    the pooled fractions against the stationary law ``pi`` of the hopping
    chain, their largest absolute difference, and how many lanes diverged.
    """
    if spec.minima is None:
        raise ParameterError("occupancy study needs an objective with declared geometry")
    model = solved_model(spec.minima, spec.saddles, alpha)
    f_vals = [spec.f(np.asarray(m)) for m in spec.minima]
    w0 = (float(spec.minima[int(np.argmin(f_vals))]),)
    burn_in = n_steps // 10
    config = _study_config(alpha, epsilon, eta, noise_scaling, w0, n_steps)
    fractions, n_diverged = occupancy_ensemble(config, spec, rng, n_replicates, burn_in)
    pi = np.asarray(model.pi)
    err = float(np.max(np.abs(fractions - pi)))
    return OccupancyStudy(
        alpha=alpha,
        epsilon=epsilon,
        eta=eta,
        n_steps=n_steps,
        burn_in=burn_in,
        n_replicates=n_replicates,
        noise_scaling=noise_scaling,
        n_diverged=n_diverged,
        fractions=tuple(float(f) for f in fractions),
        pi=tuple(float(p) for p in pi),
        max_abs_error=err,
    )
