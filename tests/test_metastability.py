import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levylab.errors import ParameterError
from levylab.metastability import (
    exit_rate,
    expected_exit_time,
    generator_matrix,
    stationary_distribution,
)


def _reference_q(minima, saddles, alpha):
    # independent re-implementation of the rate formula for cross-checking
    r = len(minima)
    bounds = [-math.inf, *saddles, math.inf]
    Q = np.zeros((r, r))
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            lo = bounds[j]
            hi = bounds[j + 1]
            term_lo = 0.0 if math.isinf(lo) else 1.0 / abs(lo - minima[i]) ** alpha
            term_hi = 0.0 if math.isinf(hi) else 1.0 / abs(hi - minima[i]) ** alpha
            Q[i, j] = abs(term_lo - term_hi) / alpha
        Q[i, i] = -Q[i].sum()
    return Q


def test_two_well_rates_alpha_one():
    model = generator_matrix((-1.0, 2.0), (0.0,), 1.0)
    assert model.Q[0, 1] == pytest.approx(1.0)
    assert model.Q[1, 0] == pytest.approx(0.5)


def test_symmetric_rates_equal():
    model = generator_matrix((-1.0, 1.0), (0.0,), 1.4)
    assert model.Q[0, 1] == pytest.approx(model.Q[1, 0])


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.6])
def test_three_well_matches_reference(alpha):
    minima = (-2.0, 0.5, 3.0)
    saddles = (-0.5, 1.5)
    model = generator_matrix(minima, saddles, alpha)
    assert np.allclose(model.Q, _reference_q(minima, saddles, alpha), atol=1e-12)


@given(
    gaps=st.lists(st.floats(0.2, 3.0), min_size=4, max_size=8),
    alpha=st.floats(0.3, 2.0, exclude_max=True),
)
def test_generator_structure(gaps, alpha):
    # build a valid interleaved geometry from positive gaps
    pts = np.cumsum(np.asarray(gaps)) - gaps[0] - 1.0
    minima = tuple(pts[::2])
    saddles = tuple(pts[1::2])
    if len(saddles) == len(minima):
        saddles = saddles[:-1]
    model = generator_matrix(minima, saddles, alpha)
    off = model.Q[~np.eye(len(minima), dtype=bool)]
    assert np.all(off >= 0.0)
    assert np.allclose(model.Q.sum(axis=1), 0.0, atol=1e-12)


def test_two_well_stationary_closed_form():
    for alpha in (0.8, 1.2, 1.8):
        pi = stationary_distribution(generator_matrix((-1.0, 2.0), (0.0,), alpha))
        p1 = 1.0 / (1.0 + 2.0**alpha)
        assert pi[0] == pytest.approx(p1, abs=1e-12)
        assert pi[1] / pi[0] == pytest.approx(2.0**alpha, rel=1e-10)


def test_symmetric_stationary_is_uniform():
    pi = stationary_distribution(generator_matrix((-1.0, 1.0), (0.0,), 1.3))
    assert np.allclose(pi, 0.5, atol=1e-12)


@given(
    gaps=st.lists(st.floats(0.2, 3.0), min_size=4, max_size=8),
    alpha=st.floats(0.3, 2.0, exclude_max=True),
)
def test_stationary_solves_adjoint_system(gaps, alpha):
    pts = np.cumsum(np.asarray(gaps)) - gaps[0] - 1.0
    minima = tuple(pts[::2])
    saddles = tuple(pts[1::2])
    if len(saddles) == len(minima):
        saddles = saddles[:-1]
    model = generator_matrix(minima, saddles, alpha)
    pi = stationary_distribution(model)
    assert np.all(pi >= 0.0)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(model.Q.T @ pi)) < 1e-10


def test_wider_valley_gains_mass():
    last = 0.0
    for m2 in (0.5, 1.0, 2.0, 4.0, 8.0):
        pi = stationary_distribution(generator_matrix((-1.0, m2), (0.0,), 1.2))
        assert pi[1] > last
        last = pi[1]


def test_ordering_violation_rejected():
    with pytest.raises(ParameterError):
        generator_matrix((2.0, -1.0), (0.0,), 1.0)
    with pytest.raises(ParameterError):
        generator_matrix((-1.0, 2.0), (3.0,), 1.0)


def test_expected_exit_time_plugins():
    assert expected_exit_time(1.0, 0.1, 1.0) == pytest.approx(5.0)
    with pytest.raises(ParameterError, match="alpha"):
        expected_exit_time(1.0, 1.0, 2.0)  # the Levy law does not hold for Brownian noise
    assert expected_exit_time(2.0, 0.1, 1.5) == pytest.approx(
        0.75 * 2.0**1.5 * 10.0**1.5
    )


@given(
    a=st.floats(0.1, 10.0),
    eps=st.floats(0.01, 1.0),
    alpha=st.floats(0.2, 2.0, exclude_max=True),
    c=st.floats(0.1, 10.0),
)
def test_expected_exit_time_homogeneous(a, eps, alpha, c):
    base = expected_exit_time(a, eps, alpha)
    scaled = expected_exit_time(c * a, c * eps, alpha)
    assert scaled == pytest.approx(base, rel=1e-9)


def test_exit_rate_values():
    assert exit_rate(1.0, 1.5) == pytest.approx(4.0 / 3.0)
    with pytest.raises(ParameterError):
        exit_rate(0.0, 1.5)
    with pytest.raises(ParameterError):
        exit_rate(1.0, 2.5)


@given(
    a=st.floats(0.1, 10.0),
    eps=st.floats(0.01, 1.0),
    alpha=st.floats(0.2, 2.0, exclude_max=True),
)
def test_exit_rate_is_inverse_mean(a, eps, alpha):
    assert exit_rate(a, alpha) * eps**alpha * expected_exit_time(a, eps, alpha) == (
        pytest.approx(1.0)
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exit_rate_scales_with_dimension(dim):
    assert exit_rate(1.0, 1.5, dim=dim) == dim * exit_rate(1.0, 1.5)
    assert expected_exit_time(1.0, 0.1, 1.5, dim=dim) == pytest.approx(
        expected_exit_time(1.0, 0.1, 1.5) / dim
    )


@pytest.mark.parametrize("dim", [0, -1, 1.5])
def test_exit_law_refuses_a_bad_dimension(dim):
    with pytest.raises(ParameterError, match="dim"):
        exit_rate(1.0, 1.5, dim=dim)
    with pytest.raises(ParameterError, match="dim"):
        expected_exit_time(1.0, 0.1, 1.5, dim=dim)
