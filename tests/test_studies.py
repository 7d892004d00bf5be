import numpy as np
import pytest

from levylab.convergence import fit_loglog_slope
from levylab.errors import ParameterError
from levylab.metastability import expected_exit_time
from levylab.objectives import double_well, quadratic
from levylab.rng import RngStream
from levylab.studies import (
    ExitTimeStudy,
    exit_time_study,
    ks_distance_exponential,
    occupancy_study,
    transition_study,
)


def test_ks_distance_on_exact_quantiles():
    # exponential quantiles at plotting positions give the minimal distance
    n = 1000
    q = -np.log(1.0 - (np.arange(1, n + 1) - 0.5) / n) / 2.0
    assert ks_distance_exponential(q, 2.0) < 1e-3 + 0.5 / n


def test_ks_distance_detects_wrong_rate():
    gen = RngStream(110).generator()
    v = gen.exponential(1.0, 2000)
    assert ks_distance_exponential(v, 1.0) < 0.05
    assert ks_distance_exponential(v, 3.0) > 0.3


def test_ks_distance_validation():
    with pytest.raises(ParameterError):
        ks_distance_exponential(np.array([]), 1.0)
    with pytest.raises(ParameterError):
        ks_distance_exponential(np.ones(5), 0.0)


def test_loglog_slope_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    assert fit_loglog_slope(x, 3.0 * x**1.7) == pytest.approx(1.7, abs=1e-12)
    with pytest.raises(ParameterError):
        fit_loglog_slope(x, -x)
    with pytest.raises(ParameterError, match="distinct"):
        fit_loglog_slope([20.0, 20.0], [0.5, 0.7])


def test_exit_time_study_accounting():
    study = exit_time_study(
        quadratic(1), 0.0, 1.5, 0.05, 1.0, 1e-2, RngStream(111),
        n_replicates=40,
    )
    assert study.n_exited + study.n_censored + study.n_diverged == 40
    assert study.predicted_mean == pytest.approx(expected_exit_time(1.0, 0.05, 1.5))
    assert study.mean_exit_time == pytest.approx(study.predicted_mean, rel=0.35)
    assert 0.0 <= study.ks_distance <= 1.0
    assert len(study.records) == 40
    assert len(study.csv_row().split(",")) == len(ExitTimeStudy.CSV_HEADER.split(","))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exit_time_law_counts_every_axis(dim):
    # each axis draws its own jumps, so the exit rate is dim times the 1-D one
    study = exit_time_study(
        quadratic(dim), (0.0,) * dim, 1.5, 0.02, 1.0, 1e-2, RngStream(290).substream(dim),
        n_replicates=400,
    )
    assert study.predicted_mean == expected_exit_time(1.0, 0.02, 1.5, dim=dim)
    assert abs(study.mean_exit_time / study.predicted_mean - 1.0) < 0.25
    assert study.ks_distance < 0.08


def test_exit_time_study_refuses_gaussian_noise():
    # at alpha 2 the cf scaling would simulate Brownian noise against a Levy law
    with pytest.raises(ParameterError, match="alpha"):
        exit_time_study(quadratic(1), 0.0, 2.0, 0.5, 1.0, 0.01, RngStream(3),
                        n_replicates=20, noise_scaling="cf")


def test_literal_noise_scale_runs_slower_than_jump():
    # the cf-normalized noise has a smaller effective jump intensity, so
    # measured exit times sit well above the nominal-epsilon prediction
    kw = dict(n_replicates=40)
    jump = exit_time_study(
        quadratic(1), 0.0, 1.5, 0.05, 1.0, 1e-2, RngStream(112), **kw
    )
    cf = exit_time_study(
        quadratic(1), 0.0, 1.5, 0.05, 1.0, 1e-2, RngStream(112),
        noise_scaling="cf", **kw,
    )
    assert cf.mean_exit_time > 1.5 * jump.mean_exit_time


def test_exit_scaling_slope_is_near_alpha():
    epsilons = (0.1, 0.05)
    means = [
        exit_time_study(quadratic(1), 0.0, 1.5, eps, 1.0, 1e-2, RngStream(113).substream(i),
                        n_replicates=60).mean_exit_time
        for i, eps in enumerate(epsilons)
    ]
    assert 1.0 < fit_loglog_slope(1.0 / np.asarray(epsilons), means) < 2.0


_NAN, _INF = float("nan"), float("inf")


def _capped_study(kind, **overrides):
    if kind == "exit":
        kw = dict(spec=quadratic(1), center=0.0, alpha=1.5, epsilon=0.5, a=1.0, eta=0.01)
        run = exit_time_study
    else:
        kw = dict(spec=double_well(-1.0, 2.0), alpha=1.2, epsilon=0.4, delta=0.2, eta=0.01)
        run = transition_study
    return run(**{**kw, **overrides}, rng=RngStream(0), n_replicates=2)


@pytest.mark.parametrize("kind", ["exit", "transition"])
@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(eta=_NAN), "eta must be positive and finite"),
        (dict(epsilon=_NAN), "epsilon must be positive and finite"),
        (dict(time_cap_factor=_NAN), "time_cap_factor must be finite and exceed 1"),
        (dict(time_cap_factor=_INF), "time_cap_factor must be finite and exceed 1"),
    ],
    ids=["eta-nan", "epsilon-nan", "time_cap_factor-nan", "time_cap_factor-inf"],
)
def test_capped_studies_refuse_non_finite_inputs(kind, overrides, fragment):
    with pytest.raises(ParameterError, match=fragment):
        _capped_study(kind, **overrides)


@pytest.mark.parametrize("a, fragment", [(_NAN, "need a > 0"),
                                         (_INF, "step cap inf is not finite")])
def test_exit_study_refuses_non_finite_radius(a, fragment):
    with pytest.raises(ParameterError, match=fragment):
        _capped_study("exit", a=a)


def test_transition_study_two_wells():
    spec = double_well(-1.0, 2.0)
    study = transition_study(
        spec, 1.2, 0.1, 0.2, 1e-3, RngStream(114), n_replicates=30
    )
    assert study.start_basin == 0
    assert study.destination_fractions == pytest.approx((0.0, 1.0))
    assert study.predicted_destination_fractions == pytest.approx((0.0, 1.0))
    rate_out = 1.0 / 1.2  # (1/alpha) / |s - m1|^alpha
    assert study.predicted_mean == pytest.approx(0.1**-1.2 / rate_out)
    assert study.mean_transition_time == pytest.approx(study.predicted_mean, rel=0.5)


def test_occupancy_study_tracks_stationary_law():
    spec = double_well(-1.0, 2.0)
    study = occupancy_study(
        spec, 1.2, 0.05, 5e-4, RngStream(115), n_replicates=6, n_steps=400_000
    )
    assert sum(study.fractions) == pytest.approx(1.0)
    assert study.pi[0] == pytest.approx(1.0 / (1.0 + 2.0**1.2), abs=1e-12)
    assert study.max_abs_error < 0.12
    assert len(study.csv_row().split(",")) == len(study.header().split(","))
