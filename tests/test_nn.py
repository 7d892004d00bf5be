import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levylab import parallel, stable, training
from levylab.datasets import synthetic_blobs
from levylab.errors import ParameterError, ShapeError
from levylab.mlp import MlpModel, _loss_grad_logits, accuracy, forward_backward, init_mlp
from levylab.rng import RngStream
from levylab.stable import StableParams, sample_sas, sample_standard_sas
from levylab.training import (
    layerwise_alpha,
    noise_pool_grads,
    noise_scale_sweep,
    train_log_header,
    train_with_tail_logging,
)


def _identity_model(n: int) -> MlpModel:
    model = MlpModel(layer_sizes=(n, n))
    model.weights[0][...] = np.eye(n)
    return model


@given(st.lists(st.integers(1, 20), min_size=2, max_size=5))
def test_parameter_count_matches_shapes(sizes):
    model = init_mlp(tuple(sizes), RngStream(130))
    expected = sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
    assert model.parameter_count == expected
    assert model.params.shape == (expected,)


def test_layer_slices_partition_the_vector():
    model = init_mlp((4, 8, 6, 3), RngStream(131))
    slices = model.layer_slices()
    assert slices[0] == slice(0, model.parameter_count)
    stops = [(s.start, s.stop) for s in slices[1:]]
    assert stops[0][0] == 0 and stops[-1][1] == model.parameter_count
    for (_, a), (b, _) in zip(stops, stops[1:]):
        assert a == b


def test_single_layer_owns_whole_vector():
    model = init_mlp((5, 3), RngStream(132))
    slices = model.layer_slices()
    assert slices[1] == slices[0]


def test_layers_are_views_of_the_parameter_vector():
    model = init_mlp((3, 4, 2), RngStream(164))
    x = np.ones((1, 3))
    assert model.forward(x).any()
    model.params[:] = 0.0
    assert not any(w.any() for w in model.weights) and not any(b.any() for b in model.biases)
    assert not model.forward(x).any()
    model.params[model.layer_slices()[2]] = 1.0  # the last layer's weight, then its bias
    assert np.array_equal(model.weights[1], np.ones((2, 4)))
    assert np.array_equal(model.biases[1], np.ones(2))
    assert not model.weights[0].any() and not model.biases[0].any()
    assert np.array_equal(model.forward(x), np.ones((1, 2)))
    with pytest.raises(TypeError):  # a layer cannot be split off the vector
        model.weights[0] = np.zeros((4, 3))


def test_mean_field_forward_is_width_invariant():
    for width in (10, 1000):
        model = MlpModel(layer_sizes=(4, width, 2), mean_field=True)
        for w in model.weights:
            w[...] = 1.0
        logits = model.forward(np.ones((1, 4)))
        assert np.array_equal(logits, np.ones((1, 2)))


def test_nll_at_uniform_logits():
    model = MlpModel(layer_sizes=(6, 10))  # a new model is all zeros
    loss, _, _ = forward_backward(model, np.ones((7, 6)), np.zeros(7, dtype=int), "nll")
    assert loss == pytest.approx(np.log(10.0), abs=1e-12)


def test_hinge_hand_computed_case():
    model = _identity_model(3)
    x = np.array([[2.0, 0.5, 1.5]])
    loss, g, logits = forward_backward(model, x, np.array([0]), "linear_hinge")
    assert loss == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(logits, x)  # the identity model's logits are its inputs
    # bias gradient is the logit gradient: -1 for the label, 1 per active margin
    assert np.allclose(g[-3:], [-1.0, 0.0, 1.0], atol=1e-12)


def test_hinge_large_margin_has_zero_loss_and_gradient():
    model = _identity_model(2)
    x = np.array([[5.0, -5.0], [-5.0, 5.0]])
    loss, g, _ = forward_backward(model, x, np.array([0, 1]), "linear_hinge")
    assert loss == 0.0
    assert np.all(g == 0.0)


def test_bad_loss_kind_and_batch_shapes():
    model = init_mlp((3, 2), RngStream(134))
    x, y = np.ones((2, 3)), np.array([0, 1])
    with pytest.raises(ParameterError):
        forward_backward(model, x, y, "mse")
    with pytest.raises(ShapeError):
        forward_backward(model, np.ones((0, 3)), np.array([], dtype=int), "nll")
    with pytest.raises(ShapeError):
        forward_backward(model, x, np.array([0]), "nll")


@pytest.mark.parametrize("loss_kind", ["nll", "linear_hinge"])
def test_backprop_matches_finite_differences(loss_kind):
    model = init_mlp((4, 8, 3), RngStream(135))
    gen = RngStream(136).generator()
    x = gen.normal(0.0, 1.0, (5, 4))
    y = gen.integers(0, 3, 5)
    _, g, _ = forward_backward(model, x, y, loss_kind)
    flat = model.params.copy()
    h = 1e-5
    fd = np.empty_like(flat)
    for i in range(flat.size):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            step = flat.copy()
            step[i] += sign * h
            model.params[...] = step
            val = forward_backward(model, x, y, loss_kind)[0]
            fd[i] = val if slot == 0 else (fd[i] - val) / (2.0 * h)
    model.params[...] = flat
    assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-4


def _reference_forward_backward(model, x, y, loss_kind):
    """Backprop written with a fresh array per expression."""
    acts, h = [x], x
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w.T + b
        if model.mean_field:
            z = z / w.shape[1]
        h = np.maximum(z, 0.0) if l < model.depth - 1 else z
        acts.append(h)
    loss, delta = _loss_grad_logits(h, y, loss_kind)
    grads = []
    for l in range(model.depth - 1, -1, -1):
        w = model.weights[l]
        if model.mean_field:
            delta = delta / w.shape[1]
        grads[:0] = [(delta.T @ acts[l]).ravel(), delta.sum(axis=0)]
        if l > 0:
            delta = (delta @ w) * (acts[l] > 0.0)
    return loss, np.concatenate(grads), h


@pytest.mark.parametrize("loss_kind", ["nll", "linear_hinge"])
@pytest.mark.parametrize("scheme", ["fan_in", "mean_field"])
@pytest.mark.parametrize("sizes", [(6, 16, 4), (6, 16, 12, 4)])
def test_backprop_is_bit_identical_to_fresh_array_reference(loss_kind, scheme, sizes):
    model = init_mlp(sizes, RngStream(280), scheme=scheme)
    model.params[...] += RngStream(281).generator().normal(0.0, 0.1, model.parameter_count)
    gen = RngStream(282).generator()
    x = gen.normal(0.0, 1.0, (50, sizes[0]))
    y = gen.integers(0, sizes[-1], 50)
    loss, grad, logits = forward_backward(model, x, y, loss_kind)
    ref_loss, ref_grad, ref_logits = _reference_forward_backward(model, x, y, loss_kind)
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)
    assert np.array_equal(logits, ref_logits)


def test_backprop_peak_memory_stays_near_two_activations():
    # each pre-activation is built in place and each activation is freed as
    # backprop passes it, so about two (n, width) arrays are alive at once
    n, width = 4000, 128
    model = init_mlp((20, width, width, 10), RngStream(283))
    gen = RngStream(284).generator()
    x = gen.normal(0.0, 1.0, (n, 20))
    y = gen.integers(0, 10, n)
    tracemalloc.start()
    try:
        forward_backward(model, x, y, "nll")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * n * width * 8


def test_minibatch_gradients_average_to_full():
    data = synthetic_blobs(60, 4, 2, 1.0, RngStream(137))
    model = init_mlp((4, 8, 2), RngStream(138))
    _, g_full, grads, _ = noise_pool_grads(model, data, 10, "nll")
    assert grads.shape == (6, model.parameter_count)
    assert np.allclose(grads.mean(axis=0), g_full, atol=1e-12)


def test_full_batch_pool_is_degenerate():
    data = synthetic_blobs(60, 4, 2, 1.0, RngStream(137))
    model = init_mlp((4, 8, 2), RngStream(138))
    _, g_full, grads, _ = noise_pool_grads(model, data, 60, "nll")
    assert grads.shape[0] == 1
    assert np.allclose(grads[0], g_full, atol=1e-12)
    with pytest.raises(ParameterError):
        noise_pool_grads(model, data, 0, "nll")


def _record_minibatch_threads(monkeypatch, b):
    # the full-batch pass also goes through training.forward_backward, so only
    # calls on batches of b rows (minibatch rows and SGD steps) are recorded
    forward_backward_, threads = training.forward_backward, set()

    def recorded(*args):
        if len(args[1]) == b:
            threads.add(threading.current_thread())
        return forward_backward_(*args)

    monkeypatch.setattr(training, "forward_backward", recorded)
    return threads


@pytest.mark.parametrize("b", [10, 60])
def test_split_pool_build_equals_serial(monkeypatch, b):
    data = synthetic_blobs(200, 5, 2, 1.0, RngStream(162))
    model = init_mlp((5, 12, 2), RngStream(163))
    threads = _record_minibatch_threads(monkeypatch, b)
    builds = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda c=cpus: c)
        threads.clear()
        builds.append((noise_pool_grads(model, data, b, "nll"), set(threads)))
    ((loss1, g1, grads1, acc1), threads1), ((loss2, g2, grads2, acc2), threads2) = builds
    assert grads1.shape == (data.n_train // b, model.parameter_count)
    assert loss1 == loss2 and np.array_equal(g1, g2) and np.array_equal(grads1, grads2)
    assert acc1 == acc2 == accuracy(model, data.train_x, data.train_y)
    assert threads1 == {threading.main_thread()}
    assert threads2 and threading.main_thread() not in threads2


def test_split_pool_build_keeps_the_sweep_error_state(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    threads = _record_minibatch_threads(monkeypatch, 20)
    data = synthetic_blobs(40, 5, 2, 1.0, RngStream(152))
    # one huge step leaves finite parameters whose minibatch products overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cells, _ = noise_scale_sweep(
            data, (8,), (2,), (20,), (1e200,), "nll", 1, RngStream(153)
        )
    assert cells[0].diverged
    assert threads - {threading.main_thread()}  # the minibatch rows ran on the pool
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_layerwise_separates_planted_tails():
    model = init_mlp((20, 50, 10), RngStream(139))
    slices = model.layer_slices()
    gen = RngStream(140).generator()
    dev = np.empty((200, model.parameter_count))
    dev[:, slices[1]] = sample_standard_sas(1.8, (200, slices[1].stop), gen, gen)
    dev[:, slices[2]] = sample_standard_sas(
        1.2, (200, slices[2].stop - slices[2].start), gen, gen
    )
    estimates = layerwise_alpha(dev, model)
    assert estimates[1].alpha_hat == pytest.approx(1.8, abs=0.15)
    assert estimates[2].alpha_hat == pytest.approx(1.2, abs=0.15)
    assert estimates[2].alpha_hat < estimates[0].alpha_hat < estimates[1].alpha_hat


def test_layerwise_whole_vector_recovers_injected_alpha():
    # a 99-100 layer owns 10k parameters; entry 0 pools the ten noise
    # vectors in minibatch order
    model = init_mlp((99, 100), RngStream(0))
    noises = np.stack(
        [sample_sas(StableParams(1.3, 1.0), 10_000, RngStream(45, i)) for i in range(10)]
    )
    est = layerwise_alpha(noises, model)[0]
    assert 1.25 <= est.alpha_hat <= 1.35


def test_layerwise_whole_vector_gaussian_noise_is_two():
    model = init_mlp((99, 100), RngStream(0))
    gen = RngStream(46).generator()
    noises = np.stack([gen.normal(0.0, 1.0, 10_000) for _ in range(10)])
    est = layerwise_alpha(noises, model)[0]
    assert abs(est.alpha_hat - 2.0) < 0.1


def test_layerwise_flags_degenerate_pool():
    model = init_mlp((3, 4, 2), RngStream(141))
    dev = np.zeros((4, model.parameter_count))
    estimates = layerwise_alpha(dev, model)
    assert all(e.unreliable and np.isnan(e.alpha_hat) for e in estimates)


def test_injection_recovers_planted_alpha():
    data = synthetic_blobs(1000, 10, 2, 1.0, RngStream(142))
    model = init_mlp((10, 64, 64, 2), RngStream(143))
    rows = train_with_tail_logging(
        model, data, 10, 0.01, 1, "nll", RngStream(144),
        log_every=1, injection=StableParams(1.3, 1.0),
    )
    assert len(rows) == 1
    assert rows[0].alpha_whole == pytest.approx(1.3, abs=0.1)


def test_injected_pool_is_one_draw_made_in_blocks(monkeypatch):
    # the pool is one (n_train // b, P) = (10, 98) draw from one generator,
    # in blocks of any size; 100-variate blocks end on 80
    data = synthetic_blobs(120, 5, 2, 1.0, RngStream(162))
    injection = StableParams(1.3, 2.0)
    model = init_mlp((5, 12, 2), RngStream(163))
    _, g_full, _ = forward_backward(model, data.train_x, data.train_y, "nll")
    gen = RngStream(164).substream(1).substream(0, 0).generator()
    reference = injection.sigma * sample_standard_sas(injection.alpha, (10, g_full.size),
                                                      gen, gen) + g_full - g_full
    pools = []
    monkeypatch.setattr(training, "layerwise_alpha",
                        lambda dev, model: pools.append(dev.copy()) or layerwise_alpha(dev, model))
    for block in (stable.NOISE_BLOCK, 100, 7):
        monkeypatch.setattr(stable, "NOISE_BLOCK", block)
        train_with_tail_logging(init_mlp((5, 12, 2), RngStream(163)), data, 12, 0.05, 1, "nll",
                                RngStream(164), injection=injection)
    assert [pool.tobytes() for pool in pools] == [reference.tobytes()] * 3


def test_training_rows_are_deterministic():
    data = synthetic_blobs(120, 5, 2, 1.0, RngStream(145))

    def run():
        model = init_mlp((5, 12, 2), RngStream(146))
        return train_with_tail_logging(
            model, data, 12, 0.05, 30, "nll", RngStream(147),
            log_every=10, measure_c_st=True,
        )

    a, b = run(), run()
    assert a == b
    assert [r.iteration for r in a] == [0, 10, 20]
    assert all(0.0 <= r.train_acc <= 1.0 and 0.0 <= r.test_acc <= 1.0 for r in a)
    assert all(r.c_st is not None for r in a)
    n_cols = len(train_log_header(2).split(","))
    assert all(len(r.csv_row().split(",")) == n_cols for r in a)


@pytest.mark.parametrize(
    "iters, kwargs",
    [(30, {"measure_c_st": True}), (30, {"injection": StableParams(1.3, 2.0)}),
     (23, {"measure_c_st": True})],
    ids=["c_st", "injection", "ragged"],
)
def test_overlapped_training_equals_serial(monkeypatch, iters, kwargs):
    data = synthetic_blobs(120, 5, 2, 1.0, RngStream(156))
    sgd_step, step_threads = training._sgd_step, set()

    def recorded(*args):
        step_threads.add(threading.current_thread())
        sgd_step(*args)

    monkeypatch.setattr(training, "_sgd_step", recorded)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda c=cpus: c)
        step_threads.clear()
        model = init_mlp((5, 12, 2), RngStream(157))
        rows = train_with_tail_logging(
            model, data, 12, 0.05, iters, "nll", RngStream(158), log_every=10, **kwargs
        )
        runs.append(([r.csv_row() for r in rows], model.params.copy(), set(step_threads)))
    (rows1, params1, threads1), (rows2, params2, threads2) = runs
    assert len(rows1) == len(range(0, iters, 10)) and rows1 == rows2
    assert np.array_equal(params1, params2)
    assert threads1 == {threading.main_thread()}
    assert threads2 and threading.main_thread() not in threads2


@pytest.mark.parametrize("eta", [0.0, float("nan"), float("inf")])
def test_training_refuses_a_bad_stepsize(eta):
    data = synthetic_blobs(40, 2, 2, 1.0, RngStream(159))
    with pytest.raises(ParameterError, match="eta must"):
        train_with_tail_logging(init_mlp((2, 2), RngStream(160)), data, 4, eta, 5, "nll",
                                RngStream(161))


def test_perfect_accuracy_stops_training(monkeypatch):
    def no_step(*args):
        raise AssertionError("an SGD step ran after a perfect logging step")

    # two CPUs: the steps after a logging step would run beside its estimates
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(training, "_sgd_step", no_step)
    data = synthetic_blobs(40, 2, 2, 0.0, RngStream(148))
    model = _identity_model(2)
    # map each center onto its own logit so the start iterate is already perfect
    centers = np.stack([data.train_x[data.train_y == c][0] for c in range(2)])
    model.weights[0][...] = centers
    before = model.params.copy()
    rows = train_with_tail_logging(
        model, data, 4, 0.1, 50, "nll", RngStream(149), log_every=1
    )
    assert accuracy(model, data.train_x, data.train_y) == 1.0
    assert len(rows) == 1 and rows[0].train_acc == 1.0
    assert np.array_equal(model.params, before)


def test_sweep_groups_merge_equal_ratios():
    data = synthetic_blobs(100, 5, 2, 1.0, RngStream(150))
    cells, groups = noise_scale_sweep(
        data, (8,), (2,), (25, 50), (0.05, 0.1), "nll", 5, RngStream(151)
    )
    assert len(cells) == 4
    assert [g.ratio for g in groups] == [0.001, 0.002, 0.004]
    assert [g.n_cells for g in groups] == [1, 2, 1]
    assert all(not c.diverged for c in cells)
    assert all(c.test_error == 1.0 - c.final_test_acc for c in cells)


def test_sweep_flags_divergent_cells():
    data = synthetic_blobs(40, 5, 2, 1.0, RngStream(152))
    cells, groups = noise_scale_sweep(
        data, (8,), (2,), (20,), (1e60,), "nll", 5, RngStream(153)
    )
    assert cells[0].diverged and np.isnan(cells[0].alpha_hat)
    assert groups[0].n_diverged == 1 and np.isnan(groups[0].mean_test_error)
    with pytest.raises(ParameterError):
        noise_scale_sweep(data, (8,), (1,), (20,), (0.1,), "nll", 5, RngStream(0))


@pytest.mark.parametrize("depths, batch_sizes", [((2, 1), (20,)), ((2,), (20, 50))])
def test_sweep_checks_its_grid_before_the_first_cell(monkeypatch, depths, batch_sizes):
    data = synthetic_blobs(40, 5, 2, 1.0, RngStream(154))

    def no_training(*args, **kwargs):
        raise AssertionError("a cell trained before the grid was checked")

    monkeypatch.setattr(training, "init_mlp", no_training)
    with pytest.raises(ParameterError):
        noise_scale_sweep(data, (8,), depths, batch_sizes, (0.1,), "nll", 5, RngStream(155))


def test_sweep_checks_its_widths_before_the_first_cell(monkeypatch):
    data = synthetic_blobs(40, 5, 2, 1.0, RngStream(154))

    def no_training(*args, **kwargs):
        raise AssertionError("a cell trained before the grid was checked")

    monkeypatch.setattr(training, "init_mlp", no_training)
    with pytest.raises(ParameterError, match="width must be >= 1, got 0"):
        noise_scale_sweep(data, (8, 0), (2,), (20,), (0.1,), "nll", 5, RngStream(155))
