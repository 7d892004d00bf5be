import copy
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from levylab.convergence import GradientNoise
from levylab import stable
from levylab.errors import ParameterError
from levylab.rng import RngStream
from levylab.stable import (
    NOISE_BLOCK,
    StableParams,
    advanced,
    draw_blocks,
    piece_generators,
    sample_sas,
    sample_standard_sas,
    unit_jump_scale,
)


def char_fn(params, omega):
    """Characteristic function exp(-|sigma*omega|**alpha) of SaS(alpha, sigma) at omega."""
    return math.exp(-abs(params.sigma * omega) ** params.alpha)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 2.1])
def test_alpha_out_of_range_rejected(alpha):
    with pytest.raises(ParameterError):
        StableParams(alpha=alpha, sigma=1.0)


@pytest.mark.parametrize("sigma", [0.0, -2.0])
def test_sigma_out_of_range_rejected(sigma):
    with pytest.raises(ParameterError):
        StableParams(alpha=1.5, sigma=sigma)


def test_gaussian_limit_variance():
    draws = sample_sas(StableParams(2.0, 1.0), 1_000_000, RngStream(11))
    # alpha=2 is N(0, 2 sigma^2) under the characteristic-function convention
    assert 1.99 * 0.99 < draws.var() < 2.01 * 1.01


def test_cauchy_median_centered():
    draws = sample_sas(StableParams(1.0, 1.0), 1_000_000, RngStream(12))
    assert abs(np.median(draws)) < 0.01


def test_ecf_matches_char_fn_at_unit_omega():
    draws = sample_sas(StableParams(1.5, 1.0), 1_000_000, RngStream(13))
    assert abs(np.mean(np.cos(draws)) - math.exp(-1.0)) < 0.01


@pytest.mark.parametrize("alpha", [0.8, 1.2, 1.5, 2.0])
def test_ecf_grid_consistency(alpha):
    params = StableParams(alpha, 1.0)
    draws = sample_sas(params, 1_000_000, RngStream(14))
    for omega in (0.1, 0.5, 1.0, 2.0):
        ecf = np.mean(np.cos(omega * draws))
        assert abs(ecf - char_fn(params, omega)) < 5e-3


def test_seed_determinism():
    a = sample_sas(StableParams(1.5, 1.0), 1000, RngStream(5, 2))
    b = sample_sas(StableParams(1.5, 1.0), 1000, RngStream(5, 2))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0])
def test_sigma_scales_linearly(alpha):
    unit = sample_sas(StableParams(alpha, 1.0), 2000, RngStream(6))
    scaled = sample_sas(StableParams(alpha, 3.5), 2000, RngStream(6))
    assert np.allclose(scaled, 3.5 * unit, rtol=1e-12)


def test_summation_stability():
    # (X1 + X2) / 2^(1/alpha) is again SaS(1); compare characteristic functions
    alpha = 1.5
    draws = sample_sas(StableParams(alpha, 1.0), 400_000, RngStream(21))
    half = draws.size // 2
    rescaled = (draws[:half] + draws[half:]) / 2 ** (1.0 / alpha)
    for omega in (0.5, 1.0, 2.0):
        ecf = np.mean(np.cos(omega * rescaled))
        assert abs(ecf - char_fn(StableParams(alpha, 1.0), omega)) < 0.01


def test_unit_jump_scale_positive_and_continuous_at_one():
    for alpha in (0.5, 0.99, 1.0, 1.01, 1.5, 1.9):
        assert unit_jump_scale(alpha) > 0.0
    # the alpha=1 closed form is the limit of the general formula
    assert unit_jump_scale(1.0) == pytest.approx(unit_jump_scale(1.0 + 1e-9), rel=1e-5)



@pytest.mark.parametrize("alpha", [0.5, 2 / 3, 0.8, 1.0, 1.5, 2.0])
def test_two_generator_block_equals_per_step_draws(alpha):
    # 2/3 and 0.5 give exponents 0.5 and 2, where ** takes scalar fast paths
    gens = (np.random.default_rng(31), np.random.default_rng(32))
    step_gens = copy.deepcopy(gens)
    block = sample_standard_sas(alpha, (9, 100, 10), *gens)
    steps = [sample_standard_sas(alpha, (100, 10), *step_gens) for _ in range(9)]
    assert np.array_equal(block, np.stack(steps))
    assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in step_gens]


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
def test_one_generator_draws_all_uniforms_then_all_exponentials(alpha):
    size = (50, 4)
    gen = np.random.default_rng(33)
    u_gen, w_gen = copy.deepcopy(gen), copy.deepcopy(gen)
    w_gen.random(size)  # the exponentials start where the uniforms end
    draws = sample_standard_sas(alpha, size, gen, gen)
    assert np.array_equal(draws, sample_standard_sas(alpha, size, u_gen, w_gen))
    assert gen.bit_generator.state == w_gen.bit_generator.state


_BLOCK_DRAWS = {
    **{f"sas-{a}": partial(sample_standard_sas, a) for a in (0.8, 1.0, 1.5, 2.0)},
    "gaussian": GradientNoise("gaussian", 2.0, 3.0).sample,
}


@pytest.mark.parametrize("name", list(_BLOCK_DRAWS))
@pytest.mark.parametrize("row_shape, totals", [
    ((), (0, 5000, NOISE_BLOCK, 2 * NOISE_BLOCK + 1617)),
    ((10,), (0, 500, NOISE_BLOCK // 10, 2000)),  # 819 rows a block; 2000 ends on 362
])
def test_blocked_draw_equals_one_shot_draw(name, row_shape, totals):
    draw, per_row = _BLOCK_DRAWS[name], math.prod(row_shape)
    rows = max(1, NOISE_BLOCK // per_row)
    for n in totals:
        one = np.random.default_rng(34)
        gen = copy.deepcopy(one)
        reference = draw((n, *row_shape), one, one)
        exp_gen = advanced(gen, n * per_row)
        blocks = [draw((min(rows, n - s), *row_shape), gen, exp_gen) for s in range(0, n, rows)]
        assert np.concatenate([reference[:0], *blocks]).tobytes() == reference.tobytes()
        # the SaS exponentials end the draw; normals come from gen alone
        end = gen if name in ("sas-2.0", "gaussian") else exp_gen
        assert end.bit_generator.state == one.bit_generator.state
        pairs = list(draw_blocks(draw, n, row_shape, np.random.default_rng(34)))
        assert [start for start, _ in pairs] == list(range(0, n, rows))
        blocks = [block for _, block in pairs]
        assert np.concatenate([reference[:0], *blocks]).tobytes() == reference.tobytes()


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("normals", [False, True])
@pytest.mark.parametrize("row_shape", [(), (3,)])
def test_pieces_draw_the_one_generator_draw(monkeypatch, alpha, normals, row_shape):
    # one generator draws the stable variates' uniforms (or, at alpha 2,
    # their normals), then their exponentials (drawn at alpha 1 too), then
    # the normals; ragged pieces give those bytes, and a NOISE_BLOCK of 16
    # makes the normals' replay take four pieces, the last ragged
    monkeypatch.setattr(stable, "NOISE_BLOCK", 16)
    sizes = (7, 1, 20, 13, 9)
    rows = sum(sizes)
    one = np.random.default_rng(36)
    reference = [sample_standard_sas(alpha, (rows, *row_shape), one, one)]
    if normals:
        reference.append(one.standard_normal((rows, *row_shape)))
    gen, exp_gen, normal_gen = piece_generators(np.random.default_rng(36),
                                                rows * math.prod(row_shape), alpha < 2.0, normals)
    pieces = [[], []]
    for size in sizes:
        pieces[0].append(sample_standard_sas(alpha, (size, *row_shape), gen, exp_gen))
        if normals:
            pieces[1].append(normal_gen.standard_normal((size, *row_shape)))
    for drawn, ref in zip(pieces, reference):
        assert np.concatenate(drawn).tobytes() == ref.tobytes()
    assert normal_gen.bit_generator.state == one.bit_generator.state


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0])
def test_sample_sas_equals_one_shot_draw(alpha):
    for n in (0, 3, NOISE_BLOCK, 2 * NOISE_BLOCK + 1617):
        gen = RngStream(35).generator()
        reference = 1.7 * sample_standard_sas(alpha, n, gen, gen)
        assert sample_sas(StableParams(alpha, 1.7), n, RngStream(35)).tobytes() == \
            reference.tobytes()


def test_sample_sas_peak_memory_is_the_output_plus_a_few_blocks():
    n = 1_000_000
    tracemalloc.start()
    try:
        sample_sas(StableParams(1.5), n, RngStream(36))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured: the output plus about 6 block-sized temporaries
    assert peak < 8 * n + 12 * 8 * NOISE_BLOCK
