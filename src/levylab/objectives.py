"""Test objectives with declared landscape geometry.

An ``ObjectiveSpec`` bundles a loss, its gradient, and (in one dimension)
the interleaved minima/saddles that define valleys for exit-time and
occupancy measurements.  ``f`` and ``grad`` are numpy-vectorized: for
``dim == 1`` they map arrays elementwise, for ``dim > 1`` the last axis is
the coordinate axis and ``f`` reduces over it.  A declared linear drift is
checked against ``grad`` on probes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError

GRAD_TOL_AT_MINIMA = 1e-8
FLAT_CURVATURE_TOL = 1e-6
LINEAR_DRIFT_RTOL = 1e-9


def valley_partition(
    minima: Sequence[float], saddles: Sequence[float]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Minima and interior saddles as finite floats, checked to satisfy
    ``m_1 < s_1 < m_2 < ... < s_{r-1} < m_r``."""
    mins = tuple(float(m) for m in minima)
    sads = tuple(float(s) for s in saddles)
    r = len(mins)
    if len(sads) != r - 1:
        raise ParameterError(f"{r} minima require {r - 1} interior saddles, got {len(sads)}")
    if not np.isfinite([*mins, *sads]).all():
        raise ParameterError(f"minima and saddles must be finite, got {mins} and {sads}")
    interleaved = [mins[0]]
    for s, m in zip(sads, mins[1:]):
        interleaved.extend((s, m))
    if any(a >= b for a, b in zip(interleaved, interleaved[1:])):
        raise ParameterError(f"minima and saddles must strictly interleave, got {interleaved}")
    return mins, sads


@dataclass(frozen=True)
class ObjectiveSpec:
    """A differentiable objective plus optional one-dimensional geometry.

    ``minima`` and ``saddles`` (when present, ``dim == 1`` only) satisfy
    ``-inf < m_1 < s_1 < m_2 < ... < s_{r-1} < m_r < +inf``; the outer
    boundaries at infinity are implicit.  Valley ``i`` is the interval
    between neighboring saddles around ``m_i``.

    ``linear_drift = (rate, center)`` declares grad f(w) = rate * (w - center)
    (a scalar center is broadcast), which ensembles may scan exactly.
    """

    dim: int
    f: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    minima: tuple[float, ...] | None = None
    saddles: tuple[float, ...] | None = None
    linear_drift: tuple[float, tuple[float, ...]] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError(f"dim must be >= 1, got {self.dim}")
        if self.linear_drift is not None:
            self._check_linear_drift()
        if self.minima is None:
            return
        if self.dim != 1:
            raise ParameterError("declared geometry is only supported for dim == 1")
        minima, saddles = valley_partition(self.minima, self.saddles or ())
        for m in minima:
            g = float(np.asarray(self.grad(np.asarray(m))))
            if abs(g) >= GRAD_TOL_AT_MINIMA:
                raise ParameterError(f"gradient at declared minimum {m} is {g:.3e}")
        for point in (*minima, *saddles):
            h = 1e-4
            curv = (
                float(self.f(np.asarray(point + h)))
                - 2.0 * float(self.f(np.asarray(point)))
                + float(self.f(np.asarray(point - h)))
            ) / h**2
            if abs(curv) < FLAT_CURVATURE_TOL:
                warnings.warn(
                    f"near-degenerate curvature {curv:.3e} at declared critical "
                    f"point {point}; exit-time asymptotics may be unreliable",
                    stacklevel=2,
                )

    def _check_linear_drift(self):
        rate, center = float(self.linear_drift[0]), np.asarray(self.linear_drift[1], float)
        if center.size not in (1, self.dim) or not np.isfinite([rate, *center.flat]).all():
            raise ParameterError(
                f"linear drift needs a finite rate and a finite center of {self.dim} "
                f"components, got {self.linear_drift!r}"
            )
        center = np.broadcast_to(center.ravel(), (self.dim,))
        probes = center + 2.0 * np.sin(np.arange(1.0, 8 * self.dim + 1)).reshape(8, self.dim)
        g = np.asarray(self.grad(probes), dtype=float)
        # the absolute slack covers the rounding of w - center at a far-off center
        atol = LINEAR_DRIFT_RTOL * abs(rate) * (1.0 + np.abs(center).max())
        if g.shape != probes.shape or not np.allclose(
            g, rate * (probes - center), rtol=LINEAR_DRIFT_RTOL, atol=atol
        ):
            raise ParameterError(f"grad is not {rate} * (w - {tuple(center)}) as declared")
        object.__setattr__(self, "linear_drift", (rate, tuple(float(c) for c in center)))

    def valley_index(self, w: np.ndarray) -> np.ndarray:
        """Valley membership of points (0-based), by saddle partition."""
        if self.minima is None:
            raise ParameterError("objective declares no geometry")
        return np.searchsorted(np.asarray(self.saddles), np.asarray(w))


def quadratic(dim: int = 1) -> ObjectiveSpec:
    """f(w) = ||w||^2 / 2, the single-well baseline."""

    def f(w):
        w = np.asarray(w, dtype=float)
        if dim == 1:
            return 0.5 * w**2
        return 0.5 * np.sum(w**2, axis=-1)

    def grad(w):
        return np.asarray(w, dtype=float)

    geometry = {"minima": (0.0,), "saddles": ()} if dim == 1 else {}
    return ObjectiveSpec(dim=dim, f=f, grad=grad, linear_drift=(1.0, 0.0), **geometry)


def double_well(m1: float, m2: float, scale: float = 1.0) -> ObjectiveSpec:
    """One-dimensional double well with minima at m1 < 0 < m2, saddle at 0.

    Built from the cubic derivative f'(w) = scale * w (w - m1)(w - m2); the
    loss is its exact quartic antiderivative with f(0) = 0, so the declared
    geometry is consistent with the gradient by construction.
    """
    if not (m1 < 0.0 < m2):
        raise ParameterError(f"need m1 < 0 < m2, got m1={m1}, m2={m2}")
    if not (0.0 < scale < math.inf):
        raise ParameterError(f"scale must be positive and finite, got {scale}")

    def f(w):
        w = np.asarray(w, dtype=float)
        return scale * (w**4 / 4.0 - (m1 + m2) * w**3 / 3.0 + m1 * m2 * w**2 / 2.0)

    def grad(w):
        w = np.asarray(w, dtype=float)
        # 1.0 * x is x for every float, NaN and signed zeros included, so at
        # unit scale the multiply is skipped with the same bits
        sw = w if scale == 1.0 else scale * w
        return sw * (w - m1) * (w - m2)

    return ObjectiveSpec(dim=1, f=f, grad=grad, minima=(m1, m2), saddles=(0.0,))
