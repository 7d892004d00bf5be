"""Small fully-connected rectifier networks with exact backpropagation.

Everything is plain numpy on flat float64 parameter vectors so gradient
noise can be pooled and sliced per layer without framework plumbing.  Layer
indices run 1..depth in all public interfaces; index 0 is reserved for
whole-network aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError
from .rng import RngStream

LOSS_KINDS = ("nll", "linear_hinge")


@dataclass(eq=False)
class MlpModel:
    """Rectifier MLP; depth counts weight layers, hidden layers use ReLU.

    All parameters live in one float64 vector, ``params``: layer by layer,
    the (fan_out, fan_in) weight row-major, then the bias.  ``weights`` and
    ``biases`` are tuples of views into it, so writing ``params`` moves the
    layers and a layer cannot be swapped for another array.  A new model is
    all zeros.

    ``mean_field`` switches to unit-Gaussian weights with zero bias and a
    forward pass that divides each matrix product by its fan-in, so widths
    can grow without blowing up activations.
    """

    layer_sizes: tuple[int, ...]
    mean_field: bool = False
    params: np.ndarray = field(init=False, repr=False)
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ParameterError(f"need input and output sizes, got {self.layer_sizes}")
        if any(s < 1 for s in self.layer_sizes):
            raise ParameterError(f"layer sizes must be positive, got {self.layer_sizes}")
        self._layout = []  # per layer: weight slice, weight shape, bias slice
        stop = 0
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            start, bias = stop, stop + fan_out * fan_in
            stop = bias + fan_out
            self._layout.append((slice(start, bias), (fan_out, fan_in), slice(bias, stop)))
        self.params = np.zeros(stop)
        self.weights, self.biases = zip(*self.layers(self.params))

    def layers(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views of a vector in the ``params`` layout, per layer."""
        return [(flat[w].reshape(shape), flat[b]) for w, shape, b in self._layout]

    @property
    def depth(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def parameter_count(self) -> int:
        return self.params.size

    def layer_slices(self) -> list[slice]:
        """Flat-vector ownership per layer, indexed 1..depth (entry 0 is the
        whole vector)."""
        return [slice(0, self.parameter_count)] + [
            slice(w.start, b.stop) for w, _, b in self._layout
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Logits for a batch of inputs (B, input_dim)."""
        h, _ = self._forward_cached(np.asarray(x, dtype=float))
        return h

    def _forward_cached(self, x):
        """Logits and the input of every layer, ``[x, h_1, ..., h_{depth-1}]``.

        Each pre-activation is built in one buffer, which then becomes the
        layer's output.
        """
        acts = [x]
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w.T
            z += b
            if self.mean_field:
                z /= w.shape[1]
            if l == self.depth - 1:
                return z, acts
            np.maximum(z, 0.0, out=z)
            acts.append(z)


def init_mlp(
    layer_sizes: tuple[int, ...], rng: RngStream, scheme: str = "fan_in"
) -> MlpModel:
    """Fresh model; 'fan_in' draws N(0, 1/fan_in), 'mean_field' draws N(0, 1)
    with fan-in division in the forward pass.  Biases start at zero."""
    if scheme not in ("fan_in", "mean_field"):
        raise ParameterError(f"scheme must be 'fan_in' or 'mean_field', got {scheme!r}")
    gen = rng.generator()
    model = MlpModel(layer_sizes=tuple(int(s) for s in layer_sizes),
                     mean_field=(scheme == "mean_field"))
    for w in model.weights:
        scale = 1.0 if model.mean_field else 1.0 / np.sqrt(w.shape[1])
        w[...] = gen.normal(0.0, scale, w.shape)
    return model


def _loss_grad_logits(logits: np.ndarray, y: np.ndarray, loss_kind: str):
    """Batch-mean loss and its gradient in the logits."""
    B = logits.shape[0]
    rows = np.arange(B)
    if loss_kind == "nll":
        shifted = logits - logits.max(axis=1, keepdims=True)
        d = np.exp(shifted)
        total = d.sum(axis=1, keepdims=True)
        loss = float(np.mean(np.log(total[:, 0]) - shifted[rows, y]))
        d /= total
        d[rows, y] -= 1.0
        return loss, d / B
    if loss_kind == "linear_hinge":
        margins = 1.0 + logits - logits[rows, y][:, None]
        margins[rows, y] = 0.0
        active = margins > 0.0
        loss = float(np.sum(np.where(active, margins, 0.0)) / B)
        d = active.astype(float)
        d[rows, y] = -active.sum(axis=1)
        return loss, d / B
    raise ParameterError(f"loss_kind must be one of {LOSS_KINDS}, got {loss_kind!r}")


def forward_backward(
    model: MlpModel, x: np.ndarray, y: np.ndarray, loss_kind: str
) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch-mean loss, the exact flat gradient over all parameters, and the
    logits of the same forward pass.

    Backprop frees each layer's activation as it passes it: the ReLU mask
    is taken from the popped activation before the next delta is built, so
    about two activation-sized arrays are alive at a time.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ShapeError(f"batch must be nonempty (B, input_dim), got {x.shape}")
    if y.shape != (x.shape[0],):
        raise ShapeError(f"labels must be ({x.shape[0]},), got {y.shape}")
    grad = np.empty(model.parameter_count)  # allocated ahead of the activations it outlives
    logits, acts = model._forward_cached(x)
    loss, delta = _loss_grad_logits(logits, y, loss_kind)
    grad_layers = model.layers(grad)
    for l in range(model.depth - 1, -1, -1):
        w, (gw, gb) = model.weights[l], grad_layers[l]
        if model.mean_field:
            delta /= w.shape[1]
        np.matmul(delta.T, acts[l], out=gw)
        delta.sum(axis=0, out=gb)
        if l > 0:
            mask = acts.pop() > 0.0
            delta = delta @ w
            delta *= mask
    return loss, grad, logits


def hit_rate(logits: np.ndarray, y: np.ndarray) -> float:
    """Fraction of rows whose argmax logit is the label."""
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))


def accuracy(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax predictions matching the labels."""
    return hit_rate(model.forward(x), y)
