import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levylab import stable
from levylab.convergence import (
    ConvergenceConfig,
    GradientNoise,
    a_gamma_bound,
    constant_step_bound,
    default_gamma,
    estimate_sigma_gamma,
    fitted_rate_slope,
    optimal_c_gamma,
    run_convergence,
)
from levylab.errors import ParameterError
from levylab.objectives import quadratic
from levylab.rng import RngStream


def test_optimal_c_gamma_plugins():
    assert optimal_c_gamma(1.0, 1.0, 1.0, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert optimal_c_gamma(1.0, 2.0, 1.0, 1.0) == pytest.approx(
        math.sqrt(2.0) / 2.0, abs=1e-12
    )
    assert optimal_c_gamma(0.5, 1.0, 2.0, 3.0) == pytest.approx(
        4.5 ** (2.0 / 3.0), abs=1e-12
    )


def test_a_gamma_plugins():
    assert a_gamma_bound(1.0, 1.0, 1.0, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert a_gamma_bound(1.0, 1.0, 1.0, 0.0) == 0.0
    assert a_gamma_bound(0.5, 1.0, 1.0, 1.0) == pytest.approx(3.0 ** (2.0 / 3.0), abs=1e-12)


def test_gamma_zero_rejected():
    with pytest.raises(ParameterError):
        optimal_c_gamma(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        a_gamma_bound(0.0, 1.0, 1.0, 1.0)


def test_constant_step_bound_plugins():
    assert constant_step_bound(1, 1.0, 1.0, 1.0, 2.0, 1.0) == pytest.approx(2.0)
    with pytest.raises(ParameterError):
        constant_step_bound(1, 1.0, 1.0, 0.0, 1.0, 0.0)
    tiny = constant_step_bound(1, 1.0, 1.0, 1e-6, 1.0, 0.0)
    assert tiny == pytest.approx(0.5e-12, rel=1e-9)


@given(
    gamma=st.floats(0.1, 1.0),
    sigma=st.floats(0.2, 5.0),
    M=st.floats(0.2, 5.0),
    gap=st.floats(0.1, 5.0),
    K=st.integers(10, 100_000),
)
def test_optimal_stepsize_minimizes_bound(gamma, sigma, M, gap, K):
    c = optimal_c_gamma(gamma, sigma, M, gap)
    eta_star = c / K ** (1.0 / (1.0 + gamma))
    best = constant_step_bound(K, eta_star, gamma, sigma, M, gap)
    for f in np.geomspace(0.2, 5.0, 21):
        if abs(f - 1.0) < 1e-9:
            continue
        assert constant_step_bound(K, f * eta_star, gamma, sigma, M, gap) >= best * 0.99


def test_optimal_stepsize_grid_search_within_one_percent():
    gamma, sigma, M, gap, K = 0.4, 2.0, 1.0, 3.0, 1000
    eta_star = optimal_c_gamma(gamma, sigma, M, gap) / K ** (1.0 / (1.0 + gamma))
    grid = np.geomspace(eta_star / 10.0, eta_star * 10.0, 4001)
    vals = [constant_step_bound(K, e, gamma, sigma, M, gap) for e in grid]
    eta_grid = grid[int(np.argmin(vals))]
    assert abs(eta_grid - eta_star) / eta_star < 0.01


def test_default_gamma_inside_interval():
    for alpha in (1.1, 1.5, 1.9, 2.0):
        g = default_gamma(alpha)
        assert 0.0 < g < alpha - 1.0 or (alpha == 2.0 and g <= 1.0)


def test_gradient_noise_validation():
    with pytest.raises(ParameterError):
        GradientNoise("gaussian", 1.5)
    with pytest.raises(ParameterError):
        GradientNoise("sas", 2.5)
    with pytest.raises(ParameterError):
        GradientNoise("uniform", 1.5)


def test_near_noiseless_run_beats_bound_easily():
    spec = quadratic(4)
    noise = GradientNoise("gaussian", 2.0, 1e-8)
    w0 = np.full(4, 1.0)
    cfg = ConvergenceConfig(
        gamma=1.0, sigma_gamma=1.0, M=1.0, gap=float(spec.f(w0)),
        ks=(200,), replicates=4,
    )
    rows = run_convergence(spec, noise, cfg, w0, RngStream(80))
    assert rows[0].min_grad_sq_mean < 1e-6
    assert rows[0].min_grad_sq_mean < rows[0].bound
    assert rows[0].diverged_fraction == 0.0


def test_bound_holds_within_monte_carlo_error():
    spec = quadratic(10)
    noise = GradientNoise("sas", 1.5, 1.0)
    w0 = np.full(10, 1.0)
    gamma = 0.4
    sigma = estimate_sigma_gamma(spec, noise, w0, gamma, RngStream(81), 5000)
    cfg = ConvergenceConfig(
        gamma=gamma, sigma_gamma=sigma, M=1.0, gap=float(spec.f(w0)),
        ks=(100, 1000), replicates=50,
    )
    rows = run_convergence(spec, noise, cfg, w0, RngStream(82))
    for row in rows:
        assert row.min_grad_sq_mean <= row.bound + 3.0 * row.min_grad_sq_stderr


def test_heavier_tails_converge_slower():
    spec = quadratic(6)
    w0 = np.full(6, 2.0)
    ks = (100, 2000)

    def slope(noise, gamma, seed):
        sigma = estimate_sigma_gamma(spec, noise, w0, gamma, RngStream(seed), 4000)
        cfg = ConvergenceConfig(
            gamma=gamma, sigma_gamma=sigma, M=1.0, gap=float(spec.f(w0)),
            ks=ks, replicates=60,
        )
        return fitted_rate_slope(run_convergence(spec, noise, cfg, w0, RngStream(seed + 1)))

    heavy = slope(GradientNoise("sas", 1.2, 1.0), default_gamma(1.2), 83)
    light = slope(GradientNoise("gaussian", 2.0, 1.0), 1.0, 85)
    assert heavy > light


def test_explicit_eta_overrides_schedule():
    cfg = ConvergenceConfig(
        gamma=0.5, sigma_gamma=1.0, M=1.0, gap=1.0, ks=(10, 100), eta=0.01
    )
    assert cfg.eta_for(10) == 0.01
    assert cfg.eta_for(100) == 0.01
    sched = ConvergenceConfig(
        gamma=0.5, sigma_gamma=1.0, M=1.0, gap=1.0, ks=(10, 100), stepsize_c=2.0
    )
    assert sched.eta_for(100) == pytest.approx(2.0 / 100 ** (1.0 / 1.5))


def test_rows_are_deterministic():
    spec = quadratic(3)
    noise = GradientNoise("sas", 1.5, 1.0)
    w0 = np.full(3, 1.0)
    cfg = ConvergenceConfig(
        gamma=0.4, sigma_gamma=2.0, M=1.0, gap=float(spec.f(w0)), ks=(50,), replicates=8
    )
    a = run_convergence(spec, noise, cfg, w0, RngStream(86))
    b = run_convergence(spec, noise, cfg, w0, RngStream(86))
    assert a == b


@pytest.mark.parametrize("kind, alpha", [("gaussian", 2.0), ("sas", 1.5)])
def test_noise_block_equals_per_step_draws(kind, alpha):
    noise = GradientNoise(kind, alpha, 3.0)
    gens = (np.random.default_rng(87), np.random.default_rng(187))
    step_gens = copy.deepcopy(gens)
    block = noise.sample((9, 4, 3), *gens)
    assert np.array_equal(block, np.stack([noise.sample((4, 3), *step_gens) for _ in range(9)]))
    assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in step_gens]


@pytest.mark.parametrize("block", [1, 3000])
def test_blocked_sweep_equals_per_step_draws(monkeypatch, block):
    # 100 replicates in d 10 draw 8-step blocks and reduce 81-step buffers;
    # K = 70 ends on a 6-step block inside the first buffer.  Against them,
    # a block of one step per draw is the per-step reference, and 3-step
    # blocks with 30-step buffers end K = 70 and K = 200 on ragged blocks
    # and buffers of their own.  The noise is mild enough that each minimum
    # comes after the start, where the noise has acted.
    spec, noise, w0 = quadratic(10), GradientNoise("sas", 1.5, 0.5), np.full(10, 4.0 / np.sqrt(10))
    cfg = ConvergenceConfig(gamma=0.4, sigma_gamma=5.0, M=1.0, gap=float(spec.f(w0)),
                            ks=(70, 200), replicates=100)
    blocked = run_convergence(spec, noise, cfg, w0, RngStream(88))
    assert all(r.min_grad_sq_mean < np.sum(spec.grad(w0) ** 2) for r in blocked)
    monkeypatch.setattr(stable, "NOISE_BLOCK", block)
    assert run_convergence(spec, noise, cfg, w0, RngStream(88)) == blocked


def _whole_run_statistics(spec, noise, w0, R, K, eta, rng):
    """The sweep's statistics for one K from the whole (K, R) array, one draw per step."""
    gen, exp_gen = rng.generator(), rng.substream(1).generator()
    W, grad_sq = np.tile(w0, (R, 1)), np.empty((K, R))
    with np.errstate(all="ignore"):
        for k in range(K):
            G = spec.grad(W)
            grad_sq[k] = np.sum(G * G, axis=1)
            W = W - eta * (G + noise.sample((R, w0.size), gen, exp_gen))
    finite = np.isfinite(grad_sq)
    means = np.where(finite, grad_sq, 0.0).sum(axis=1) / finite.sum(axis=1)
    k_star = int(np.argmin(means))
    vals = grad_sq[k_star][finite[k_star]]
    return means[k_star], vals.std(ddof=1) / np.sqrt(vals.size), 1.0 - finite[-1].sum() / R


def test_buffered_statistics_equal_the_whole_run_with_diverging_lanes():
    # a lane whose coordinate passes 2 gets an infinite gradient and stays
    # non-finite, so lanes drop out across the 81-step buffers
    spec = dataclasses.replace(quadratic(2), linear_drift=None,
                               grad=lambda W: np.where(np.abs(W) > 2.0, np.inf, W))
    noise, w0, R = GradientNoise("sas", 1.2, 0.3), np.full(2, 1.0), 100
    cfg = ConvergenceConfig(gamma=0.1, sigma_gamma=1.0, M=1.0, gap=1.0, ks=(250, 40),
                            replicates=R, eta=0.2)
    rows = run_convergence(spec, noise, cfg, w0, RngStream(89))
    for i, row in enumerate(rows):
        mean, stderr, diverged = _whole_run_statistics(spec, noise, w0, R, row.K, 0.2,
                                                       RngStream(89).substream(i))
        assert (row.min_grad_sq_mean, row.min_grad_sq_stderr, row.diverged_fraction) == \
            (mean, stderr, diverged)
    assert 0.0 < rows[0].diverged_fraction < 1.0


def test_sweep_refuses_a_run_whose_replicates_all_diverge():
    spec, noise, w0 = quadratic(2), GradientNoise("gaussian", 2.0, 1.0), np.full(2, 1.0)
    cfg = ConvergenceConfig(gamma=0.4, sigma_gamma=1.0, M=1.0, gap=1.0, ks=(2000,),
                            replicates=5, eta=3.0)  # |1 - eta| = 2 overflows in ~1030 steps
    with pytest.raises(ParameterError, match="all replicates diverged at K=2000"):
        run_convergence(spec, noise, cfg, w0, RngStream(90))


def _convergence_peak(K, R=50):
    spec, noise, w0 = quadratic(2), GradientNoise("sas", 1.5, 1.0), np.full(2, 1.0)
    cfg = ConvergenceConfig(gamma=0.4, sigma_gamma=2.0, M=1.0, gap=float(spec.f(w0)),
                            ks=(K,), replicates=R)
    tracemalloc.start()
    try:
        run_convergence(spec, noise, cfg, w0, RngStream(289))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_convergence_peak_memory_stays_near_one_block():
    # the squared norms fill one buffer of about NOISE_BLOCK values, reduced
    # each time it fills, so the peak does not grow with K
    K, R = 20_000, 50
    peak = _convergence_peak(K, R)
    assert peak < 1.6 * K * R * 8
    assert peak < 1.5 * _convergence_peak(K // 10, R)


def test_sigma_gamma_estimate_equals_one_shot_draw():
    spec = quadratic(10)
    w0 = np.full(10, 1.0)
    for noise in (GradientNoise("sas", 1.0, 2.0), GradientNoise("gaussian", 2.0, 2.0)):
        for n in (1, 819, 2000):  # 819 rows make one block; 2000 ends on 362
            gen = RngStream(91).generator()
            u = noise.sample((n, 10), gen, gen)
            norms = np.sqrt(np.sum((spec.grad(w0)[None, :] + u) ** 2, axis=1))
            reference = float(np.mean(norms**1.4) ** (1.0 / 1.4))
            assert estimate_sigma_gamma(spec, noise, w0, 0.4, RngStream(91), n) == reference


def test_sigma_gamma_estimate_peak_memory_is_its_norms():
    n = 100_000
    tracemalloc.start()
    try:
        estimate_sigma_gamma(quadratic(10), GradientNoise("sas", 1.5, 4.0), np.full(10, 1.0),
                             0.4, RngStream(92), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured: 8 B per sample plus about 7 block-sized temporaries
    assert peak < 8 * n + 12 * 8 * stable.NOISE_BLOCK


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_constants_refused(bad):
    with pytest.raises(ParameterError, match="scale"):
        GradientNoise("sas", 1.5, bad)
    base = dict(gamma=0.5, sigma_gamma=1.0, M=1.0, gap=1.0, ks=(10, 100))
    for key in ("sigma_gamma", "M", "gap", "eta", "stepsize_c"):
        with pytest.raises(ParameterError, match=key):
            ConvergenceConfig(**{**base, key: bad})
