"""Summation-stability test for the alpha-stable hypothesis.

An alpha-stable law is closed under addition: term-wise sums of equal splits
of a pool must yield the same tail-index estimate as the pool itself.  The
test shuffles once and splits into three equal parts (sum two of them), then
shuffles afresh and splits into four (sum three), and reports

    c_st = max(|alpha_X - alpha_12|, |alpha_X' - alpha_123|),

which is small under stability and systematically inflated for
non-stable alternatives such as location mixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvfmt import format_row
from .errors import ParameterError
from .rng import RngStream
from .tail_index import choose_block_size, estimate_alpha

DEFAULT_THRESHOLD = 0.05

# Smallest admissible block size; the precondition on pool length guarantees
# every subset produced by the 3-way and 4-way splits supports estimation.
K1_MIN = 2


@dataclass(frozen=True)
class StabilityReport:
    """Estimates entering the stability statistic, plus the verdict inputs.

    Its last column, ``pass``, is the ``passed`` verdict, so it writes its
    own row.
    """

    CSV_HEADER = "alpha_x,alpha_12,alpha_xp,alpha_123,c_st,threshold,pass"

    alpha_x: float
    alpha_12: float
    alpha_xp: float
    alpha_123: float
    c_st: float
    threshold: float

    @property
    def passed(self) -> bool:
        """Verdict of the test; the threshold boundary counts as passing."""
        return self.c_st <= self.threshold

    def csv_row(self) -> str:
        return format_row(self.alpha_x, self.alpha_12, self.alpha_xp, self.alpha_123,
                          self.c_st, self.threshold, self.passed)


def _subset_alpha(values: np.ndarray) -> float:
    return estimate_alpha(values, choose_block_size(values.size)).alpha_hat


def stability_condition(
    samples: np.ndarray, rng: RngStream, threshold: float = DEFAULT_THRESHOLD
) -> StabilityReport:
    """Run the two-way summation check on a sample pool.

    The pair and triple checks use independent shuffles drawn sequentially
    from the same stream, so the report is a pure function of
    ``(samples, rng, threshold)``.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 12 * K1_MIN:
        raise ParameterError(
            f"need at least {12 * K1_MIN} samples for the split estimates, got {x.size}"
        )
    if not (threshold >= 0.0):
        raise ParameterError(f"threshold must be nonnegative, got {threshold}")
    gen = rng.generator()

    estimates = []
    shuffled = np.empty_like(x)  # one buffer for both shuffles
    for n_parts in (3, 4):  # part 1 against the sum of the others, left to right
        shuffled[...] = x
        gen.shuffle(shuffled)  # the draws and bytes of gen.permutation(x)
        m = x.size // n_parts
        parts = [shuffled[i * m : (i + 1) * m] for i in range(n_parts)]
        estimates += [_subset_alpha(parts[0]), _subset_alpha(sum(parts[2:], parts[1]))]
    alpha_x, alpha_12, alpha_xp, alpha_123 = estimates

    c_st = max(abs(alpha_x - alpha_12), abs(alpha_xp - alpha_123))
    return StabilityReport(
        alpha_x=alpha_x,
        alpha_12=alpha_12,
        alpha_xp=alpha_xp,
        alpha_123=alpha_123,
        c_st=float(c_st),
        threshold=float(threshold),
    )

