import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levylab.errors import DegenerateInputError, ParameterError
from levylab.rng import RngStream
from levylab.stable import StableParams, sample_sas
from levylab.tail_index import choose_block_size, estimate_alpha


@pytest.mark.parametrize("c", [1.0, -3.0, 0.25])
@pytest.mark.parametrize("k1", [2, 10, 50])
def test_constant_samples_give_alpha_one(c, k1):
    est = estimate_alpha(np.full(k1 * 20, c), k1)
    # Y_i = k1 c, so the log ratio collapses to log(k1)/log(k1)
    assert est.alpha_hat == pytest.approx(1.0, abs=1e-12)


def test_block_metadata_bookkeeping():
    x = np.arange(1.0, 108.0)  # 107 samples, k1=10 -> 7 truncated
    est = estimate_alpha(x, 10)
    assert est.k1 == 10
    assert est.k2 == 10
    assert est.n_used == est.k1 * est.k2
    assert est.n_dropped == 7


def test_zeros_dropped_and_counted():
    x = np.concatenate([np.zeros(13), np.ones(40)])
    est = estimate_alpha(x, 10)
    assert est.n_used == 40
    assert est.n_dropped == 13


def test_all_zero_pool_rejected():
    with pytest.raises(DegenerateInputError):
        estimate_alpha(np.zeros(100), 10)


def test_cancelled_block_dropped():
    # one block sums to exactly zero and must be excluded, not crash
    block = np.array([1.0, -1.0, 2.0, -2.0])
    good = np.full(8, 3.0)
    est = estimate_alpha(np.concatenate([block, good]), 4)
    assert est.k2 == 2
    assert est.n_dropped == 4


@pytest.mark.parametrize("zeros, cancel", [(0, False), (13, False), (0, True), (13, True)])
def test_input_pool_is_left_unchanged(zeros, cancel):
    gen = RngStream(30).generator()
    x = np.concatenate([np.zeros(zeros), gen.standard_cauchy(400)])
    if cancel:
        x[zeros : zeros + 20] = [1.0, -1.0] * 10  # the first block sums to zero
    before = x.copy()
    est = estimate_alpha(x, 20)
    assert np.array_equal(x, before)
    assert est.n_dropped == zeros + 20 * cancel
    assert est.alpha_hat == estimate_alpha(before[zeros:], 20).alpha_hat


def test_small_k1_rejected():
    with pytest.raises(ParameterError):
        estimate_alpha(np.ones(100), 1)


@given(c=st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6))
def test_scale_invariance(c):
    draws = sample_sas(StableParams(1.5, 1.0), 5000, RngStream(40))
    a = estimate_alpha(draws, 50).alpha_hat
    b = estimate_alpha(c * draws, 50).alpha_hat
    assert a == pytest.approx(b, abs=1e-12)


def test_negation_invariance():
    draws = sample_sas(StableParams(1.2, 1.0), 5000, RngStream(41))
    a = estimate_alpha(draws, 50)
    b = estimate_alpha(-draws, 50)
    assert a.alpha_hat == pytest.approx(b.alpha_hat, abs=1e-12)


@pytest.mark.parametrize(
    "alpha,window", [(1.5, (1.45, 1.55)), (2.0, (1.9, 2.1))]
)
def test_calibration_hit_rate(alpha, window):
    lo, hi = window
    hits = 0
    for seed in range(20):
        draws = sample_sas(StableParams(alpha, 1.0), 100_000, RngStream(42, seed))
        if lo <= estimate_alpha(draws, 100).alpha_hat <= hi:
            hits += 1
    assert hits >= 19


def test_rmse_shrinks_with_more_blocks():
    rmse = []
    for k2 in (100, 1000, 10_000):
        errs = []
        for seed in range(8):
            draws = sample_sas(
                StableParams(1.5, 1.0), 100 * k2, RngStream(43).substream(k2, seed)
            )
            errs.append(estimate_alpha(draws, 100).alpha_hat - 1.5)
        rmse.append(float(np.sqrt(np.mean(np.square(errs)))))
    assert rmse[0] > rmse[1] > rmse[2]


def test_choose_block_size_square():
    assert choose_block_size(100) == 10


def test_choose_block_size_large_pool():
    # divisors of 1e5 nearest sqrt = 316.2 are 250 and 400
    assert choose_block_size(100_000) == 250


def test_choose_block_size_prime_falls_back():
    k1 = choose_block_size(9973)
    assert k1 > 1
    # the truncated pool length implied by k1 keeps it within factor 2 of sqrt
    n = 9973
    while n % k1 != 0 or not (np.sqrt(n) / 2 <= k1 <= 2 * np.sqrt(n)):
        n -= 1
    assert n > 0


@given(n=st.integers(100, 5000), k1=st.integers(2, 60))
def test_used_count_identity(n, k1):
    draws = sample_sas(StableParams(1.5, 1.0), n, RngStream(44))
    if draws[draws != 0].size < k1:
        return
    est = estimate_alpha(draws, k1)
    assert est.n_used == est.k1 * est.k2
    assert est.n_used + est.n_dropped == n
    assert est.alpha_hat > 0

