import tracemalloc

import numpy as np
import pytest

from levylab.errors import ParameterError
from levylab.rng import RngStream
from levylab.stability import StabilityReport, stability_condition
from levylab.stable import StableParams, sample_sas
from levylab.tail_index import choose_block_size, estimate_alpha


def _report(c_st, threshold=0.05):
    return StabilityReport(
        alpha_x=1.5, alpha_12=1.5, alpha_xp=1.5, alpha_123=1.5,
        c_st=c_st, threshold=threshold,
    )


def test_verdict_boundary_inclusive():
    assert _report(0.03).passed
    assert _report(0.05).passed
    assert not _report(0.07).passed


def test_determinism():
    draws = sample_sas(StableParams(1.3, 1.0), 30_000, RngStream(50))
    a = stability_condition(draws, RngStream(51))
    b = stability_condition(draws, RngStream(51))
    assert a == b


def test_scale_invariance():
    draws = sample_sas(StableParams(1.3, 1.0), 30_000, RngStream(52))
    a = stability_condition(draws, RngStream(53))
    b = stability_condition(17.0 * draws, RngStream(53))
    assert a.c_st == pytest.approx(b.c_st, abs=1e-12)
    assert a.alpha_x == pytest.approx(b.alpha_x, abs=1e-12)


def test_negation_invariance():
    draws = sample_sas(StableParams(1.3, 1.0), 30_000, RngStream(54))
    a = stability_condition(draws, RngStream(55))
    b = stability_condition(-draws, RngStream(55))
    assert a.c_st == pytest.approx(b.c_st, abs=1e-12)


def test_statistic_definition():
    draws = sample_sas(StableParams(1.5, 1.0), 30_000, RngStream(56))
    rep = stability_condition(draws, RngStream(57))
    expected = max(abs(rep.alpha_x - rep.alpha_12), abs(rep.alpha_xp - rep.alpha_123))
    assert rep.c_st == pytest.approx(expected, abs=1e-15)
    assert rep.c_st >= 0.0


def _gather_shuffle_report(x, rng, shuffle=lambda gen, x: x[gen.permutation(x.size)]):
    """The report computed with a fresh shuffled array per split, by default
    an index gather, ``x[gen.permutation(n)]``."""

    def alpha(values):
        return estimate_alpha(values, choose_block_size(values.size)).alpha_hat

    gen = rng.generator()
    shuffled = shuffle(gen, x)
    m = x.size // 3
    alpha_x, alpha_12 = alpha(shuffled[:m]), alpha(shuffled[m : 2 * m] + shuffled[2 * m : 3 * m])
    shuffled = shuffle(gen, x)
    m = x.size // 4
    alpha_xp = alpha(shuffled[:m])
    alpha_123 = alpha(shuffled[m : 2 * m] + shuffled[2 * m : 3 * m] + shuffled[3 * m : 4 * m])
    return StabilityReport(
        alpha_x=alpha_x, alpha_12=alpha_12, alpha_xp=alpha_xp, alpha_123=alpha_123,
        c_st=max(abs(alpha_x - alpha_12), abs(alpha_xp - alpha_123)), threshold=0.05,
    )


@pytest.mark.parametrize("n", [24, 25, 1000, 12347])
def test_in_place_shuffle_matches_index_gather(n):
    draws = sample_sas(StableParams(1.4, 1.0), n, RngStream(60 + n))
    kept = draws.copy()
    assert stability_condition(draws, RngStream(61)) == _gather_shuffle_report(kept, RngStream(61))
    assert np.array_equal(draws, kept)


@pytest.mark.parametrize("n", [25, 12347])  # neither 3 nor 4 divides n
def test_shuffle_buffer_matches_permutation_copies(n):
    draws = sample_sas(StableParams(1.4, 1.0), n, RngStream(285))
    reference = _gather_shuffle_report(draws, RngStream(286), lambda gen, x: gen.permutation(x))
    assert stability_condition(draws, RngStream(286)) == reference


def test_stability_peak_memory_stays_below_two_pools():
    # both splits shuffle one buffer, so the 4-way copy is never alive beside
    # the 3-way one
    draws = sample_sas(StableParams(1.4, 1.0), 300_000, RngStream(287))
    tracemalloc.start()
    try:
        stability_condition(draws, RngStream(288))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.85 * draws.nbytes


def test_insufficient_samples_rejected():
    with pytest.raises(ParameterError):
        stability_condition(np.ones(20), RngStream(0))


@pytest.mark.parametrize("threshold", [-0.01, float("nan")])
def test_threshold_must_be_nonnegative(threshold):
    with pytest.raises(ParameterError, match="threshold must be nonnegative"):
        stability_condition(np.arange(1.0, 101.0), RngStream(0), threshold)


def test_mixture_separates_from_stable():
    # location mixtures are not alpha-stable; their condition number ends up
    # far above the stable pool's under the same protocol
    n, seeds = 120_000, 9
    gen = RngStream(58).generator()
    sas_cst, mix_cst = [], []
    for s in range(seeds):
        draws = sample_sas(StableParams(1.3, 1.0), n, RngStream(58).substream(s))
        sas_cst.append(stability_condition(draws, RngStream(59).substream(s)).c_st)
        base = gen.normal(0.0, 1.0, n)
        signs = gen.integers(0, 2, n) * 2 - 1
        mix = base + 5.0 * signs
        mix_cst.append(stability_condition(mix, RngStream(60).substream(s)).c_st)
    assert np.median(mix_cst) > np.median(sas_cst)


@pytest.mark.xfail(
    strict=True,
    reason="measured pass rate at this pool size is ~60% for alpha=1.3; the "
    "90% level needs a far larger pool (see notes on subset variance)",
)
def test_stable_pool_pass_rate_alpha_13():
    hits = 0
    for s in range(30):
        draws = sample_sas(StableParams(1.3, 1.0), 120_000, RngStream(61).substream(s))
        rep = stability_condition(draws, RngStream(62).substream(s))
        hits += rep.passed
    assert hits >= 27


@pytest.mark.xfail(
    strict=True,
    reason="measured pass rate at this pool size is ~20% for Gaussian pools; "
    "subset estimates vary more than the 0.05 budget allows",
)
def test_gaussian_pool_pass_rate():
    gen = RngStream(63).generator()
    hits = 0
    for _ in range(30):
        rep = stability_condition(gen.normal(0.0, 1.0, 120_000), RngStream(64))
        hits += rep.passed
    assert hits >= 27
