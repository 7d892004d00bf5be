"""Tail-index estimation from block sums.

The estimator exploits the exact summation stability of alpha-stable laws:
if X_1, ..., X_K are SaS(alpha) and Y_i sums K1 consecutive X's, then Y_i is
again SaS with scale K1**(1/alpha) times larger, so

    1/alpha_hat = (1/log K1) * ( mean(log|Y_i|) - mean(log|X_i|) ).

The estimate is scale invariant and needs no moment assumptions.  It is
reported unclamped: values above 2 signal lighter-than-stable tails.
Gradient-noise pools (minibatch minus full-data gradients, whole vector and
per layer) are estimated by ``training.layerwise_alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvfmt import CsvRecord
from .errors import DegenerateInputError, ParameterError


@dataclass(frozen=True)
class TailEstimate(CsvRecord):
    """Result of a block tail-index estimation.

    ``n_used == k1 * k2`` always holds; samples lost to zero removal,
    remainder truncation, or zero-sum block removal are counted in
    ``n_dropped``.  ``unreliable`` flags estimates from pools too small to
    trust (set by layer-wise consumers, never an error) and is not a CSV column.
    """

    CSV_HEADER = "alpha_hat,k1,k2,n_used,n_dropped"

    alpha_hat: float
    k1: int
    k2: int
    n_used: int
    n_dropped: int
    unreliable: bool = False


def estimate_alpha(samples: np.ndarray, k1: int) -> TailEstimate:
    """Estimate the tail index from a flat sample pool with block size k1.

    Exact zeros are dropped first (log would diverge), the remainder after
    the last full block is truncated, and any block whose sum is exactly
    zero is dropped together with its members.  ``samples`` is only read.
    """
    if k1 < 2:
        raise ParameterError(f"k1 must be >= 2, got {k1}")
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise DegenerateInputError("empty sample pool")
    keep = x != 0.0
    nonzero = x if keep.all() else x[keep]
    n_dropped = x.size - nonzero.size
    if nonzero.size == 0:
        raise DegenerateInputError("all samples are exactly zero")
    if nonzero.size < k1:
        raise ParameterError(
            f"need at least k1={k1} nonzero samples, have {nonzero.size}"
        )
    k2 = nonzero.size // k1
    used = nonzero[: k1 * k2]
    n_dropped += nonzero.size - used.size
    blocks = used.reshape(k2, k1)
    block_sums = blocks.sum(axis=1)
    keep = block_sums != 0.0
    if not np.all(keep):
        blocks = blocks[keep]
        block_sums = block_sums[keep]
        n_dropped += (k2 - blocks.shape[0]) * k1
        k2 = blocks.shape[0]
        if k2 == 0:
            raise DegenerateInputError("every block sum is exactly zero")
    mean_log_y = np.log(np.abs(block_sums)).mean()
    # abs makes a fresh buffer of the blocks' shape, so the log may overwrite it
    log_x = np.abs(blocks)
    mean_log_x = np.log(log_x, out=log_x).mean()
    alpha_hat = math.log(k1) / (mean_log_y - mean_log_x)
    return TailEstimate(
        alpha_hat=float(alpha_hat),
        k1=k1,
        k2=int(k2),
        n_used=int(k1 * k2),
        n_dropped=int(n_dropped),
    )


def choose_block_size(n_samples: int) -> int:
    """Block size closest to sqrt(K) among divisors, ties to the smaller.

    Only divisors within a factor 2 of sqrt(K) are admissible, so a prime or
    otherwise awkward pool size falls back to truncating K downward until an
    admissible divisor exists (the estimator truncates the remainder anyway).
    """
    if n_samples < 4:
        raise ParameterError(f"need at least 4 samples, got {n_samples}")
    for k in range(n_samples, 3, -1):
        root = math.sqrt(k)
        best = None
        d = 1
        while d * d <= k:
            if k % d == 0:
                for cand in (d, k // d):
                    if root / 2.0 <= cand <= 2.0 * root:
                        if best is None or (abs(cand - root), cand) < (abs(best - root), best):
                            best = cand
            d += 1
        if best is not None:
            return int(best)
    raise ParameterError(f"no admissible block size at or below {n_samples}")
