"""Symmetric alpha-stable variates and related quantities.

A symmetric alpha-stable variable with stability index ``alpha`` and scale
``sigma`` has characteristic function

    E[exp(i w X)] = exp(-|sigma * w|**alpha),

so ``alpha = 2`` is Gaussian with variance ``2 * sigma**2`` and ``alpha = 1``
is Cauchy with scale ``sigma``.  Sampling uses the exact Chambers-Mallows-Stuck
transform of a uniform angle and a unit exponential; no tail truncation or
clipping is applied anywhere.  Increments of the driving Levy motion over a
step eta are these scale-1 draws times eta**(1/alpha); ``sde.noise_increments``
is the one place that applies that scaling.

A large one-generator draw is made in blocks of NOISE_BLOCK variates
(``draw_blocks``), so the temporaries stay one block in size.  One rule,
``piece_generators``, gives the generators that draw such a draw in pieces
with the one-shot bytes: the exponentials come from ``advanced(gen, n)``, a
copy of the generator that starts where the n uniforms end.  The Euler
engine draws its per-step chunks in pieces by the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ParameterError
from .rng import RngStream

# Variates per block of a large draw: enough to spread the sampler's per-call
# cost, few enough that its temporaries stay in cache and below glibc's mmap
# threshold.
NOISE_BLOCK = 2**13


@dataclass(frozen=True)
class StableParams:
    """Stability index and scale of a symmetric alpha-stable law."""

    alpha: float
    sigma: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ParameterError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ParameterError(f"sigma must be positive and finite, got {self.sigma}")


def sample_standard_sas(alpha: float, size, gen: np.random.Generator,
                        exp_gen: np.random.Generator) -> np.ndarray:
    """Draw scale-1 symmetric alpha-stable variates from two raw generators.

    Chambers-Mallows-Stuck, symmetric case: with phi uniform on
    (-pi/2, pi/2) and w standard exponential,

        X = sin(alpha*phi) / cos(phi)**(1/alpha)
            * (cos((1-alpha)*phi) / w)**((1-alpha)/alpha).

    At alpha = 2 the transform reduces to 2*sqrt(w)*sin(phi), i.e. N(0, 2);
    the Gaussian branch samples that directly with ``gen.normal``.

    The uniforms (or the normals) come from ``gen`` and the exponentials
    from ``exp_gen``, each drawn as one block of ``size``.  A generator's
    draws of one kind concatenate across calls, so with two generators a
    draw whose leading axis counts steps equals that many per-step draws,
    bit for bit.  One generator passed as both draws all the uniforms, then
    all the exponentials; ``draw_blocks`` splits such a draw into blocks.
    """
    if not (0.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must lie in (0, 2], got {alpha}")
    if alpha == 2.0:
        return gen.normal(0.0, math.sqrt(2.0), size)
    u = gen.random(size)
    w = exp_gen.standard_exponential(size)
    phi = (u - 0.5) * np.pi
    if alpha == 1.0:
        return np.tan(phi)
    return (
        np.sin(alpha * phi)
        / np.cos(phi) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * phi) / w) ** ((1.0 - alpha) / alpha)
    )


def advanced(gen: np.random.Generator, n: int = 0) -> np.random.Generator:
    """A new PCG64 generator at the state of ``gen`` moved on by ``n`` uniform doubles.

    ``Generator.random`` takes one 64-bit output per double, so the copy
    starts where ``gen.random(n)`` would leave ``gen``: where the
    exponentials of a one-generator draw of n variates start.
    """
    out = np.random.Generator(np.random.PCG64(0))
    out.bit_generator.state = gen.bit_generator.state
    out.bit_generator.advance(n)
    return out


def piece_generators(gen: np.random.Generator, n: int, exps: bool = True,
                     normals: bool = False):
    """The (uniform, exponential, normal) generators that draw one ``gen`` draw in pieces.

    One generator draws n uniforms (or, without ``exps``, n normals), then
    n exponentials if ``exps``, then n normals if ``normals``.  Pieces of
    any sizes that take each kind from its generator here, in order, give
    that draw bit for bit.  The uniforms come from ``gen`` and the
    exponentials from ``advanced(gen, n)``.  Exponentials and normals take
    a variable number of outputs each, so the normals come from a copy of
    the generator before them that draws and drops its n variates in
    NOISE_BLOCK pieces.  The last generator ends where the one draw would
    leave ``gen``.
    """
    exp_gen = advanced(gen, n) if exps else gen
    if not normals:
        return gen, exp_gen, exp_gen
    normal_gen = advanced(exp_gen)
    skip = normal_gen.standard_exponential if exps else normal_gen.standard_normal
    for start in range(0, n, NOISE_BLOCK):
        skip(min(NOISE_BLOCK, n - start))
    return gen, exp_gen, normal_gen


def draw_blocks(sample, n: int, row_shape: tuple[int, ...], gen: np.random.Generator):
    """Yield ``(start, block)`` pairs that make ``sample((n, *row_shape), gen, gen)``.

    ``sample(shape, gen, exp_gen)`` draws as ``sample_standard_sas`` does.
    Each block holds NOISE_BLOCK variates' worth of rows (at least one) and
    starts at row ``start``.  Its generators come from ``piece_generators``,
    so the blocks are the one-call draw bit for bit, and the generator that
    drew last ends where that call would leave ``gen``.
    """
    row_size = math.prod(row_shape)
    gen, exp_gen, _ = piece_generators(gen, n * row_size)
    step = max(1, NOISE_BLOCK // row_size)
    for start in range(0, n, step):
        yield start, sample((min(step, n - start), *row_shape), gen, exp_gen)


def sample_sas(params: StableParams, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` independent SaS(alpha, sigma) variates.

    The bytes are those of one ``sample_standard_sas(alpha, n, gen, gen)``
    call times sigma, drawn in blocks into the output.
    """
    if n < 0:
        raise ParameterError(f"n must be nonnegative, got {n}")
    out = np.empty(n)
    draw = partial(sample_standard_sas, params.alpha)
    for start, block in draw_blocks(draw, n, (), rng.generator()):
        np.multiply(params.sigma, block, out=out[start:start + block.size])
    return out


def unit_jump_scale(alpha: float) -> float:
    """Scale sigma* aligning the cf convention with a unit jump density.

    The analytic exit-time and valley-hopping predictions are normalized for
    a driving process whose jump intensity density is |y|**(-1-alpha).  A
    SaS(sigma*) variable with

        sigma***alpha = 2 * Gamma(2-alpha) * cos(pi*alpha/2) / (alpha*(1-alpha))

    has exactly that jump measure (limit pi at alpha = 1).  Simulations that
    are compared against those predictions scale their noise amplitude by
    this factor; only defined for alpha in (0, 2), since the jump measure
    degenerates in the Gaussian case.
    """
    if not (0.0 < alpha < 2.0):
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    if abs(alpha - 1.0) < 1e-9:
        c = math.pi
    else:
        c = 2.0 * math.gamma(2.0 - alpha) * math.cos(math.pi * alpha / 2.0) / (alpha * (1.0 - alpha))
    return c ** (1.0 / alpha)
