"""Release gate: every headline claim of the package, run end to end.

Each test prints one PASS/FAIL line with the measured numbers so a full
run reads as a checklist.  Tolerances are the quantitative targets the
package promises; seeds are fixed so the gate is reproducible.  The whole
module takes a few minutes, dominated by the exit-time and training runs.
"""

import numpy as np
import pytest

from levylab.convergence import (
    ConvergenceConfig,
    GradientNoise,
    a_gamma_bound,
    estimate_sigma_gamma,
    fit_loglog_slope,
    fitted_rate_slope,
    optimal_c_gamma,
    run_convergence,
)
from levylab.datasets import synthetic_blobs
from levylab.metastability import expected_exit_time, solved_model
from levylab.mlp import forward_backward, init_mlp
from levylab.objectives import double_well, quadratic
from levylab.rng import RngStream
from levylab.stability import stability_condition
from levylab.stable import sample_standard_sas
from levylab.studies import exit_time_study, occupancy_study
from levylab.tail_index import estimate_alpha
from levylab.training import noise_pool_grads, train_with_tail_logging


def _verdict(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_estimator_accuracy():
    worst_bias, worst_std, per_alpha = 0.0, 0.0, []
    for i, alpha in enumerate((0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)):
        gen = RngStream(200).substream(i).generator()
        draws = sample_standard_sas(alpha, (100, 100_000), gen, gen)
        hats = np.array([estimate_alpha(row, 100).alpha_hat for row in draws])
        bias, std = hats.mean() - alpha, hats.std(ddof=1)
        worst_bias = max(worst_bias, abs(bias))
        worst_std = max(worst_std, std)
        per_alpha.append(f"{alpha:.1f}: {bias:+.4f}/{std:.4f}")
    _verdict(
        "estimator accuracy",
        worst_bias <= 0.05 and worst_std < 0.1,
        f"max |mean bias| {worst_bias:.4f} <= 0.05, max std {worst_std:.4f} < 0.1; "
        f"bias/std by alpha {', '.join(per_alpha)}",
    )


def test_exit_time_law():
    rel_errs, ks_vals = [], []
    for i, alpha in enumerate((1.2, 1.5, 1.8)):
        study = exit_time_study(
            quadratic(1), 0.0, alpha, 0.01, 1.0, 1e-3, RngStream(210 + i),
            n_replicates=500,
        )
        rel_errs.append(study.mean_exit_time / study.predicted_mean - 1.0)
        ks_vals.append(study.ks_distance)
    ok = max(abs(e) for e in rel_errs) <= 0.15 and max(ks_vals) < 0.08
    _verdict(
        "exit-time law",
        ok,
        "mean err " + "/".join(f"{e:+.1%}" for e in rel_errs)
        + " within 15%, KS " + "/".join(f"{k:.3f}" for k in ks_vals) + " < 0.08",
    )


def test_exit_time_scaling():
    epsilons = np.geomspace(0.1, 0.01, 5)
    means = [
        exit_time_study(quadratic(1), 0.0, 1.5, eps, 1.0, 1e-3, RngStream(215).substream(i),
                        n_replicates=250).mean_exit_time
        for i, eps in enumerate(epsilons)
    ]
    slope = fit_loglog_slope(1.0 / epsilons, means)
    _verdict(
        "exit-time scaling",
        abs(slope - 1.5) <= 0.15,
        f"decade slope {slope:.3f} within 10% of alpha = 1.5",
    )


def test_metastable_occupancy():
    alpha = 1.2
    study = occupancy_study(
        double_well(-1.0, 2.0), alpha, 0.05, 5e-4, RngStream(220),
        n_replicates=24, n_steps=2_400_000,
    )
    closed = np.array([1.0, 2.0**alpha]) / (1.0 + 2.0**alpha)
    pi_err = float(np.max(np.abs(np.asarray(study.pi) - closed)))
    ok = study.max_abs_error <= 0.05 and pi_err < 1e-12
    _verdict(
        "metastable occupancy",
        ok,
        f"occupancy error {study.max_abs_error:.4f} <= 0.05, "
        f"closed-form pi error {pi_err:.1e} < 1e-12; fraction/pi by valley "
        + ", ".join(f"{f:.4f}/{p:.4f}" for f, p in zip(study.fractions, study.pi)),
    )


def _convergence_rows(noise, gamma, seed):
    spec = quadratic(10)
    w0 = np.full(10, 4.0 / np.sqrt(10.0))
    rng = RngStream(seed)
    sigma_gamma = estimate_sigma_gamma(spec, noise, w0, gamma, rng.substream(0))
    gap = float(spec.f(w0))
    cfg = ConvergenceConfig(
        gamma=gamma, sigma_gamma=sigma_gamma, M=1.0, gap=gap,
        ks=(100, 1000, 10_000), replicates=100,
    )
    rows = run_convergence(spec, noise, cfg, w0, rng.substream(1))
    return rows, sigma_gamma, gap


def test_convergence_rate():
    """Slope of min_k E|grad f(w_k)|^2 against K, on an objective outside the theorem.

    The rate is proved for an (M, gamma)-Hölder gradient.  The gradient of
    ``quadratic(10)`` is linear, so it is not gamma-Hölder for any gamma <
    1.  Under SaS(1.5) noise each iterate has tail index 1.5, so
    |grad f(w_k)|^2 = |w_k|^2 has tail index 0.75 and an infinite mean at
    every k >= 1: the replicate means estimate an infinite quantity, and
    their minimum over k turns on the largest jumps drawn.  The slope check
    failed at 13 of seeds 1-60 with the converge noise drawn from one
    stream per K, and fails at 18 of them with its exponentials drawn from
    a second one, so at seed 230 it measures that seed as much as the rate;
    the bound check held at every seed.
    """
    gamma = 0.4
    rows, sigma_gamma, gap = _convergence_rows(
        GradientNoise("sas", 1.5, 4.0), gamma, 230
    )
    slope = fitted_rate_slope(rows)
    target = -gamma / (1.0 + gamma)
    a_g = a_gamma_bound(gamma, sigma_gamma, 1.0, gap)
    under = all(
        r.min_grad_sq_mean
        <= a_g / r.K ** (gamma / (1.0 + gamma)) + 3.0 * r.min_grad_sq_stderr
        for r in rows
    )
    g_rows, _, _ = _convergence_rows(GradientNoise("gaussian", 2.0, 4.0), 1.0, 231)
    g_slope = fitted_rate_slope(g_rows)
    ok = abs(slope - target) <= 0.1 and under and abs(g_slope + 0.5) <= 0.1
    _verdict(
        "convergence rate",
        ok,
        f"slope {slope:.3f} vs {target:.3f} +-0.1, all points under bound: {under}, "
        f"gaussian control slope {g_slope:.3f} vs -0.5",
    )


def test_stability_calibration():
    # alpha well inside the heavy-tailed range; the statistic needs pools far
    # larger than this to settle near 2
    n, runs = 120_000, 100
    sas_c, mix_c = [], []
    for r in range(runs):
        gen = RngStream(240).substream(r).generator()
        pool = sample_standard_sas(0.8, n, gen, gen)
        sas_c.append(stability_condition(pool, RngStream(241).substream(r)).c_st)
        gen2 = RngStream(242).substream(r).generator()
        mix = gen2.normal(0.0, 1.0, n) + 5.0 * (gen2.integers(0, 2, n) * 2 - 1)
        mix_c.append(stability_condition(mix, RngStream(243).substream(r)).c_st)
    rate = np.mean(np.array(sas_c) <= 0.05)
    sep = float(np.median(mix_c)) > float(np.median(sas_c))
    _verdict(
        "stability calibration",
        rate >= 0.90 and sep,
        f"stable pools pass {rate:.0%} >= 90%, mixture median "
        f"{np.median(mix_c):.3f} > stable median {np.median(sas_c):.3f}",
    )


def test_backprop_and_noise_pool():
    worst = 0.0
    for seed in (250, 251):
        model = init_mlp((6, 10, 4), RngStream(seed))
        gen = RngStream(seed + 10).generator()
        x = gen.normal(0.0, 1.0, (8, 6))
        y = gen.integers(0, 4, 8)
        flat = model.params.copy()
        for loss_kind in ("nll", "linear_hinge"):
            _, g, _ = forward_backward(model, x, y, loss_kind)
            fd = np.empty_like(flat)
            for i in range(flat.size):
                for sign in (1.0, -1.0):
                    step = flat.copy()
                    step[i] += sign * 1e-5
                    model.params[...] = step
                    v = forward_backward(model, x, y, loss_kind)[0]
                    fd[i] = v if sign > 0 else (fd[i] - v) / 2e-5
            model.params[...] = flat
            worst = max(worst, np.linalg.norm(fd - g) / np.linalg.norm(g))
    data = synthetic_blobs(60, 4, 2, 1.0, RngStream(252))
    pool_model = init_mlp((4, 8, 2), RngStream(253))
    _, g_full, grads, _ = noise_pool_grads(pool_model, data, 10, "nll")
    pool_err = float(np.abs(grads.mean(axis=0) - g_full).max())
    _verdict(
        "backprop and noise pool",
        worst < 1e-4 and pool_err < 1e-12,
        f"max FD rel err {worst:.2e} < 1e-4, pool mean-zero err {pool_err:.1e}",
    )


def test_desk_scale_training_tails():
    data = synthetic_blobs(8000, 20, 10, 2.0, RngStream(260))
    finals = {}
    for j, b in enumerate((50, 100, 200)):
        model = init_mlp((20, 128, 128, 10), RngStream(261 + j))
        rows = train_with_tail_logging(
            model, data, b, 0.1, 1001, "nll", RngStream(270 + j), log_every=250
        )
        finals[b] = rows[-1].alpha_whole
    alphas = np.array(list(finals.values()))
    spread = float(alphas.max() - alphas.min())
    inj_model = init_mlp((20, 128, 128, 10), RngStream(264))
    inj_rows = train_with_tail_logging(
        inj_model, data, 100, 0.1, 1, "nll", RngStream(273),
        log_every=1, injection=GradientNoise("sas", 1.3),
    )
    inj_alpha = inj_rows[0].alpha_whole
    ok = alphas.max() < 1.8 and spread <= 0.3 and abs(inj_alpha - 1.3) <= 0.1
    _verdict(
        "training noise tails",
        ok,
        "alpha_hat " + "/".join(f"{finals[b]:.3f}" for b in (50, 100, 200))
        + f" all < 1.8, batch spread {spread:.3f} <= 0.3, "
        f"injected 1.3 recovered as {inj_alpha:.3f}",
    )


def test_closed_form_plugins():
    model = solved_model((-1.0, 2.0), (0.0,), 1.0)
    q12 = float(model.Q[0][1])
    q21 = float(model.Q[1][0])
    pi = np.asarray(model.pi)
    checks = {
        "q12": abs(q12 - 1.0),
        "q21": abs(q21 - 0.5),
        "pi": float(np.max(np.abs(pi - [1.0 / 3.0, 2.0 / 3.0]))),
        "exit": abs(expected_exit_time(1.0, 0.1, 1.0) - 5.0),
        "c_gamma": abs(optimal_c_gamma(1.0, 1.0, 1.0, 1.0) - np.sqrt(2.0)),
    }
    worst = max(checks.values())
    _verdict(
        "closed-form plug-ins",
        worst < 1e-12,
        f"max deviation {worst:.1e} < 1e-12 over {', '.join(checks)}",
    )
