"""Minimal fully-connected network with explicit per-layer captures.

Layers compute ``s_i = W_i a_{i-1}`` with an elementwise activation on all
hidden layers; the last layer's pre-activation output feeds the loss
directly.  ``forward`` returns, next to the loss, every layer's input batch
and pre-activation; ``backward`` takes those captures back (it reuses the
pre-activations instead of recomputing them) and returns, next to the
gradients, every layer's per-sample pre-activation gradient batch.
Curvature factors are second moments of the layer inputs and of these
pre-activation gradients.  The network itself holds weights only, so any
number of callers can run passes over one weight set without overwriting
each other's captures.

Scaling convention: ``backward`` returns gradients of the MEAN batch loss,
while the pre-activation gradients are per-sample loss gradients (so that
``mean(g g^T)`` over the batch estimates the expectation without a
batch-size factor).

Shapes are columns-are-samples: a batch of B samples in d dimensions is a
``d x B`` matrix.  With ``bias_mode="homogeneous"``, a constant 1-row is
appended to every layer input and the weight gains one column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ArgumentError, ShapeError

ACTIVATIONS = ("relu", "tanh", "identity")
LOSSES = ("softmax_cross_entropy", "mean_squared_error")
BIAS_MODES = ("none", "homogeneous")


def _relu(s):
    return np.maximum(s, 0.0)


def _relu_deriv(s):
    return (s > 0.0).astype(np.float64)


def _tanh_deriv(s):
    t = np.tanh(s)
    return 1.0 - t * t


_ACT_FNS: dict[str, tuple[Callable, Callable]] = {
    "relu": (_relu, _relu_deriv),
    "tanh": (np.tanh, _tanh_deriv),
    "identity": (lambda s: s, lambda s: np.ones_like(s)),
}


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: dimensions, activation, loss, bias handling."""

    layer_dims: tuple[int, ...]
    activation: str = "tanh"
    loss_kind: str = "softmax_cross_entropy"
    bias_mode: str = "none"

    def __post_init__(self):
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))
        if len(self.layer_dims) < 2:
            raise ArgumentError("layer_dims needs at least [d_0, d_1]")
        if any(d < 1 for d in self.layer_dims):
            raise ArgumentError(f"layer dimensions must be >= 1, got {self.layer_dims}")
        if self.activation not in ACTIVATIONS:
            raise ArgumentError(f"unknown activation {self.activation!r}")
        if self.loss_kind not in LOSSES:
            raise ArgumentError(f"unknown loss {self.loss_kind!r}")
        if self.bias_mode not in BIAS_MODES:
            raise ArgumentError(f"unknown bias_mode {self.bias_mode!r}")

    @property
    def depth(self) -> int:
        return len(self.layer_dims) - 1

    def weight_shape(self, i: int) -> tuple[int, int]:
        """Shape of layer ``i``'s weight (0-based), bias column included."""
        extra = 1 if self.bias_mode == "homogeneous" else 0
        return (self.layer_dims[i + 1], self.layer_dims[i] + extra)


@dataclass
class Batch:
    """One mini-batch: ``inputs`` is ``d_0 x B``; ``targets`` is a class-index
    vector (cross-entropy) or a ``d_L x B`` matrix (MSE)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.inputs.shape[1] < 1:
            raise ArgumentError("batch inputs must be a d x B matrix with B >= 1")

    @property
    def size(self) -> int:
        return self.inputs.shape[1]


@dataclass
class LayerState:
    """One layer's weight."""

    weight: np.ndarray


@dataclass
class Network:
    spec: NetworkSpec
    layers: list[LayerState] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return self.spec.depth


class LayerCapture(NamedTuple):
    """What one forward pass records for one layer: the (bias-augmented)
    input batch ``a_{i-1}`` and the pre-activation batch ``s_i``."""

    input: np.ndarray
    preact: np.ndarray


def init_network(spec: NetworkSpec, seed: int) -> Network:
    """Seeded weight init: uniform on ±sqrt(6 / (fan_in + fan_out)).

    fan_in is the actual column count of the weight (so it includes the
    homogeneous bias column when present) and fan_out its row count.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(spec.depth):
        rows, cols = spec.weight_shape(i)
        bound = np.sqrt(6.0 / (rows + cols))
        layers.append(LayerState(rng.uniform(-bound, bound, size=(rows, cols))))
    return Network(spec, layers)


def _augment(a: np.ndarray, bias_mode: str) -> np.ndarray:
    if bias_mode == "homogeneous":
        return np.vstack([a, np.ones((1, a.shape[1]))])
    return a


def _per_sample_losses(outputs: np.ndarray, targets: np.ndarray, loss_kind: str) -> np.ndarray:
    if loss_kind == "softmax_cross_entropy":
        t = _check_class_targets(targets, outputs.shape)
        shifted = outputs - outputs.max(axis=0, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=0))
        return logz - shifted[t, np.arange(outputs.shape[1])]
    diff = outputs - _check_mse_targets(targets, outputs.shape)
    return 0.5 * (diff * diff).sum(axis=0)


def _per_sample_output_grads(outputs: np.ndarray, targets: np.ndarray, loss_kind: str) -> np.ndarray:
    """d(per-sample loss)/d(outputs): softmax probabilities minus one-hot, or
    the residual for the 0.5*||y - t||^2 loss."""
    if loss_kind == "softmax_cross_entropy":
        t = _check_class_targets(targets, outputs.shape)
        shifted = outputs - outputs.max(axis=0, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=0, keepdims=True)
        grad = probs
        grad[t, np.arange(outputs.shape[1])] -= 1.0
        return grad
    return outputs - _check_mse_targets(targets, outputs.shape)


def _check_class_targets(targets: np.ndarray, out_shape) -> np.ndarray:
    t = np.asarray(targets)
    if t.ndim != 1 or t.shape[0] != out_shape[1]:
        raise ShapeError(f"expected {out_shape[1]} class indices, got shape {t.shape}")
    t = t.astype(np.int64)
    if t.min() < 0 or t.max() >= out_shape[0]:
        raise ArgumentError(f"class indices must lie in [0, {out_shape[0]})")
    return t


def _check_mse_targets(targets: np.ndarray, out_shape) -> np.ndarray:
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != out_shape:
        raise ShapeError(f"expected target matrix of shape {out_shape}, got {t.shape}")
    return t


def predict(net: Network, inputs: np.ndarray) -> np.ndarray:
    """Pure forward pass: returns the final pre-activation outputs (d_L x B)."""
    if inputs.ndim != 2 or inputs.shape[0] != net.spec.layer_dims[0]:
        raise ShapeError(
            f"input rows {inputs.shape} do not match d_0={net.spec.layer_dims[0]}"
        )
    act, _ = _ACT_FNS[net.spec.activation]
    a = inputs
    for i, layer in enumerate(net.layers):
        s = layer.weight @ _augment(a, net.spec.bias_mode)
        a = act(s) if i < net.depth - 1 else s
    return a


def mean_loss(net: Network, batch: Batch) -> float:
    """Mean batch loss, without captures."""
    outputs = predict(net, batch.inputs)
    return float(np.mean(_per_sample_losses(outputs, batch.targets, net.spec.loss_kind)))


def forward(net: Network, batch: Batch) -> tuple[float, list[LayerCapture]]:
    """Forward pass: returns the mean batch loss and every layer's capture."""
    if batch.inputs.shape[0] != net.spec.layer_dims[0]:
        raise ShapeError(
            f"batch input rows {batch.inputs.shape[0]} do not match d_0={net.spec.layer_dims[0]}"
        )
    act, _ = _ACT_FNS[net.spec.activation]
    a = batch.inputs
    captures = []
    for i, layer in enumerate(net.layers):
        a_in = _augment(a, net.spec.bias_mode)
        s = layer.weight @ a_in
        captures.append(LayerCapture(a_in, s))
        a = act(s) if i < net.depth - 1 else s
    return float(np.mean(_per_sample_losses(a, batch.targets, net.spec.loss_kind))), captures


def backward(
    net: Network, batch: Batch, captures: list[LayerCapture]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Backward pass over the captures ``forward`` returned for this batch.

    Returns the per-layer gradients of the mean batch loss,
    ``(1/B) * g_i @ a_{i-1}^T``, and the per-layer per-sample pre-activation
    gradients ``g_i``.
    """
    B = batch.size
    if len(captures) != net.depth:
        raise ShapeError(f"got captures for {len(captures)} layers, network has {net.depth}")
    for i, (a_in, s) in enumerate(captures):
        rows, cols = net.spec.weight_shape(i)
        if a_in.shape != (cols, B) or s.shape != (rows, B):
            raise ShapeError(
                f"layer {i} captures have shapes {a_in.shape} and {s.shape}; "
                f"a batch of {B} needs {(cols, B)} and {(rows, B)}"
            )
    _, act_deriv = _ACT_FNS[net.spec.activation]
    g = _per_sample_output_grads(captures[-1].preact, batch.targets, net.spec.loss_kind)
    grads: list[Optional[np.ndarray]] = [None] * net.depth
    preact_grads: list[Optional[np.ndarray]] = [None] * net.depth
    for i in range(net.depth - 1, -1, -1):
        layer = net.layers[i]
        preact_grads[i] = g
        grads[i] = (g @ captures[i].input.T) / B
        if i > 0:
            core = layer.weight[:, :-1] if net.spec.bias_mode == "homogeneous" else layer.weight
            g = act_deriv(captures[i - 1].preact) * (core.T @ g)
    return grads, preact_grads  # type: ignore[return-value]


def finite_diff_grad(net: Network, batch: Batch, h: float = 1e-5) -> list[np.ndarray]:
    """Central finite-difference estimate of d(mean loss)/dW, elementwise.

    Verification oracle: O(#weights) loss evaluations, O(h^2) accurate.
    Leaves the weights untouched.
    """
    if h <= 0:
        raise ArgumentError("finite-difference step h must be positive")
    grads = []
    for layer in net.layers:
        w = layer.weight
        g = np.zeros_like(w)
        for r in range(w.shape[0]):
            for c in range(w.shape[1]):
                orig = w[r, c]
                w[r, c] = orig + h
                up = mean_loss(net, batch)
                w[r, c] = orig - h
                down = mean_loss(net, batch)
                w[r, c] = orig
                g[r, c] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def init_momentum(net: Network) -> list[np.ndarray]:
    return [np.zeros_like(layer.weight) for layer in net.layers]


def sgd_step(
    net: Network,
    grads: list[np.ndarray],
    lr: float,
    momentum_state: list[np.ndarray],
    mu: float,
) -> Network:
    """Heavy-ball update in place: ``m <- mu*m + g`` then ``W <- W - lr*m``."""
    if len(grads) != net.depth or len(momentum_state) != net.depth:
        raise ShapeError("gradient/momentum list length does not match network depth")
    for layer, g, m in zip(net.layers, grads, momentum_state):
        if g.shape != layer.weight.shape:
            raise ShapeError(f"gradient shape {g.shape} != weight shape {layer.weight.shape}")
        m *= mu
        m += g
        layer.weight -= lr * m
    return net
