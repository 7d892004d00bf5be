"""SGD training loop with periodic gradient-noise tail measurement.

At each logging step the training set is partitioned into disjoint
minibatches in storage order; the deviations of those minibatch gradients
from the full gradient form the noise pool whose tail index is estimated
for the whole parameter vector and per layer.  The measurement happens at
the current iterate before that iteration's update.

The pool build splits in two: the minibatch gradients run as one task on a
``parallel`` pool thread while the calling thread runs the full-batch pass,
whose logits also give the train accuracy.  Both only read the model.  The
estimates of a logging step read only its pool, so they overlap the SGD
steps up to the next logging step: those steps run as one pool task while
the calling thread estimates.  Only that task touches the model and the
minibatch generator, so rows and parameters are the same at any thread
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convergence import GradientNoise
from .csvfmt import CsvRecord, format_row
from .datasets import DatasetSplit
from .errors import DegenerateInputError, ParameterError
from .mlp import MlpModel, accuracy, forward_backward, hit_rate, init_mlp
from .parallel import run_tasks, task_pool
from .rng import RngStream
from .stability import stability_condition
from .stable import draw_blocks
from .tail_index import TailEstimate, choose_block_size, estimate_alpha


def train_log_header(depth: int) -> str:
    layers = ",".join(f"alpha_layer_{l}" for l in range(1, depth + 1))
    return f"iteration,train_acc,test_acc,loss,alpha_whole,{layers},c_st"


@dataclass(frozen=True)
class TrainLogRow:
    """One logging-step snapshot of training and noise-tail metrics."""

    iteration: int
    train_acc: float
    test_acc: float
    loss: float
    alpha_whole: float
    alpha_layers: tuple[float, ...]
    c_st: float | None = None

    def csv_row(self) -> str:
        return format_row(self.iteration, self.train_acc, self.test_acc, self.loss,
                          self.alpha_whole, self.alpha_layers, self.c_st)


def noise_pool_grads(
    model: MlpModel, data: DatasetSplit, b: int, loss_kind: str
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Full-train loss and gradient, disjoint minibatch gradients, train accuracy.

    The partition walks the training set in storage order; when b does not
    divide n_train the remainder is left out of the pool.  Returns
    (loss, full_grad, minibatch_grads of shape (n_train//b, d), train_acc).
    The minibatch rows run as one pool task beside the full-batch pass.
    """
    n = data.n_train
    if not (1 <= b <= n):
        raise ParameterError(f"batch size {b} must lie in [1, {n}]")
    grads = np.empty((n // b, model.parameter_count))

    def minibatch_rows():
        for i in range(grads.shape[0]):
            sl = slice(i * b, (i + 1) * b)
            _, grads[i], _ = forward_backward(
                model, data.train_x[sl], data.train_y[sl], loss_kind
            )

    with task_pool(2) as pool:
        rows = run_tasks(pool, minibatch_rows, [()])
        loss, g_full, logits = forward_backward(model, data.train_x, data.train_y, loss_kind)
        train_acc = hit_rate(logits, data.train_y)
        list(rows)
    return loss, g_full, grads, train_acc


def _pool_estimate(pool: np.ndarray) -> TailEstimate:
    try:
        return estimate_alpha(pool, choose_block_size(pool.size))
    except (DegenerateInputError, ParameterError):
        return TailEstimate(
            alpha_hat=float("nan"), k1=0, k2=0, n_used=0, n_dropped=0, unreliable=True
        )


def layerwise_alpha(deviations: np.ndarray, model: MlpModel) -> list[TailEstimate]:
    """Tail estimates indexed 0..depth; 0 covers the whole parameter vector.

    ``deviations`` holds one minibatch-minus-full gradient per row.  A layer
    whose pool is too small or degenerate comes back flagged unreliable
    instead of raising.
    """
    return [_pool_estimate(deviations[:, sl].ravel()) for sl in model.layer_slices()]


def train_with_tail_logging(
    model: MlpModel,
    data: DatasetSplit,
    b: int,
    eta: float,
    iters: int,
    loss_kind: str,
    rng: RngStream,
    log_every: int = 100,
    measure_c_st: bool = False,
    injection: GradientNoise | None = None,
) -> list[TrainLogRow]:
    """Plain constant-stepsize SGD, logging tail metrics every log_every steps.

    No momentum or weight decay.  Logging happens before the update at that
    iteration; training stops early once a logging step sees 100% train
    accuracy.  Fixed streams make the row sequence deterministic.  With
    ``injection`` set, each logging step measures draws of that noise in place
    of the minibatch deviations, so the estimators see a pool of known alpha.
    """
    if not 0.0 < eta < math.inf:
        raise ParameterError(f"eta must be positive and finite, got {eta}")
    if iters < 1:
        raise ParameterError(f"iters must be >= 1, got {iters}")
    if log_every < 1:
        raise ParameterError(f"log_every must be >= 1, got {log_every}")
    if not (1 <= b <= data.n_train):
        raise ParameterError(f"batch size {b} must lie in [1, {data.n_train}]")
    batch_gen = rng.substream(0).generator()
    log_stream = rng.substream(1)

    def sgd_steps(n):
        for _ in range(n):
            _sgd_step(model, data, b, eta, loss_kind, batch_gen)

    rows: list[TrainLogRow] = []
    for k in range(0, iters, log_every):
        if injection is None:
            loss, g_full, deviations, train_acc = noise_pool_grads(model, data, b, loss_kind)
        else:
            loss, g_full, logits = forward_backward(
                model, data.train_x, data.train_y, loss_kind
            )
            train_acc = hit_rate(logits, data.train_y)
            deviations = np.empty((data.n_train // b, g_full.size))
            flat = deviations.reshape(-1)  # one draw of the whole pool, made in blocks
            gen = log_stream.substream(k, 0).generator()
            for start, block in draw_blocks(injection.sample, flat.size, (), gen):
                flat[start:start + block.size] = block
            deviations += g_full  # injected gradients, rounded like minibatch ones
        deviations -= g_full
        test_acc = accuracy(model, data.test_x, data.test_y)
        done = train_acc >= 1.0
        # two tasks at a time: the SGD steps on the pool, the estimates on this
        # thread.  Like the pool build's, this pool lives for its section only,
        # so one worker thread, with one allocator arena, lives at a time.
        with task_pool(2) as pool:
            steps = () if done else run_tasks(pool, sgd_steps, [(min(log_every, iters - k),)])
            estimates = layerwise_alpha(deviations, model)
            c_st = None
            if measure_c_st:
                c_st = stability_condition(deviations.ravel(), log_stream.substream(k, 1)).c_st
            list(steps)  # the next pool build reads the model these steps move
        del deviations  # free before the next pool build allocates its own
        rows.append(TrainLogRow(
            iteration=k, train_acc=train_acc, test_acc=test_acc, loss=loss,
            alpha_whole=estimates[0].alpha_hat,
            alpha_layers=tuple(e.alpha_hat for e in estimates[1:]), c_st=c_st,
        ))
        if done:
            break
    return rows


def _sgd_step(model, data, b, eta, loss_kind, batch_gen) -> None:
    idx = batch_gen.choice(data.n_train, size=b, replace=False)
    _, g, _ = forward_backward(model, data.train_x[idx], data.train_y[idx], loss_kind)
    model.params -= eta * g


@dataclass(frozen=True)
class SweepCell(CsvRecord):
    """One (architecture, batch size, stepsize) training outcome."""

    CSV_HEADER = (
        "width,depth,batch_size,eta,ratio,final_train_acc,final_test_acc,"
        "test_error,alpha_hat,diverged"
    )

    width: int
    depth: int
    batch_size: int
    eta: float
    ratio: float
    final_train_acc: float
    final_test_acc: float
    test_error: float
    alpha_hat: float
    diverged: bool


@dataclass(frozen=True)
class SweepGroup(CsvRecord):
    """Cells sharing one stepsize-to-batch ratio, averaged."""

    CSV_HEADER = "ratio,n_cells,n_diverged,mean_test_error,mean_alpha_hat"

    ratio: float
    n_cells: int
    n_diverged: int
    mean_test_error: float
    mean_alpha_hat: float


def noise_scale_sweep(
    data: DatasetSplit,
    widths: tuple[int, ...],
    depths: tuple[int, ...],
    batch_sizes: tuple[int, ...],
    etas: tuple[float, ...],
    loss_kind: str,
    iters: int,
    rng: RngStream,
) -> tuple[list[SweepCell], list[SweepGroup]]:
    """Stepsize-to-batch-ratio grid in the wide-layer scaling convention.

    Every cell trains a fresh mean-field-initialized network; cells whose
    loss or parameters leave float range are flagged divergent and excluded
    from group averages.  Groups collect cells with exactly equal eta/b
    (the usual dyadic grids make those ratios float-exact).  The whole grid
    is checked before the first cell trains.
    """
    if not (widths and depths and batch_sizes and etas):
        raise ParameterError("sweep grid must be nonempty in every dimension")
    for depth in depths:
        if depth < 2:
            raise ParameterError(f"depth must be >= 2 weight layers, got {depth}")
    for b in batch_sizes:
        if not (1 <= b <= data.n_train):
            raise ParameterError(f"batch size {b} must lie in [1, {data.n_train}]")
    for eta in etas:
        if not 0.0 < eta < math.inf:
            raise ParameterError(f"eta must be positive and finite, got {eta}")
    cells = []
    cell_id = 0
    for width in widths:
        for depth in depths:
            sizes = (data.input_dim, *([width] * (depth - 1)), data.n_classes)
            for b in batch_sizes:
                for eta in etas:
                    stream = rng.substream(cell_id)
                    cell_id += 1
                    model = init_mlp(sizes, stream.substream(0), scheme="mean_field")
                    batch_gen = stream.substream(1).generator()
                    with np.errstate(all="ignore"):
                        for _ in range(iters):
                            _sgd_step(model, data, b, eta, loss_kind, batch_gen)
                        params_ok = bool(np.isfinite(model.params).all())
                        loss, g_full, grads, tr_acc = noise_pool_grads(
                            model, data, b, loss_kind
                        )
                    diverged = not (params_ok and np.isfinite(loss) and
                                    np.isfinite(grads).all())
                    if diverged:
                        alpha_hat = float("nan")
                        tr_acc = te_acc = float("nan")
                    else:
                        grads -= g_full
                        est = _pool_estimate(grads.ravel())
                        alpha_hat = est.alpha_hat
                        te_acc = accuracy(model, data.test_x, data.test_y)
                    cells.append(
                        SweepCell(
                            width=width, depth=depth, batch_size=b, eta=eta,
                            ratio=eta / b, final_train_acc=tr_acc,
                            final_test_acc=te_acc, test_error=1.0 - te_acc,
                            alpha_hat=alpha_hat, diverged=diverged,
                        )
                    )
    groups = []
    for ratio in sorted({c.ratio for c in cells}):
        members = [c for c in cells if c.ratio == ratio]
        alive = [c for c in members if not c.diverged]
        groups.append(
            SweepGroup(
                ratio=ratio,
                n_cells=len(members),
                n_diverged=len(members) - len(alive),
                mean_test_error=(
                    float(np.mean([c.test_error for c in alive])) if alive else float("nan")
                ),
                mean_alpha_hat=(
                    float(np.mean([c.alpha_hat for c in alive])) if alive else float("nan")
                ),
            )
        )
    return cells, groups
