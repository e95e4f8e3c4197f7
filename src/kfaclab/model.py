"""Minimal fully-connected network with explicit per-layer captures.

Layers compute ``s_i = W_i a_{i-1}`` with an elementwise activation on all
hidden layers; the last layer's pre-activation output feeds the loss
directly.  ``forward`` returns, next to the loss, L+1 captures: each layer's
input batch ``a_{i-1}`` (bias row included), then the network output
``s_L``; no hidden pre-activation outlives the pass.  ``backward`` takes the
captures back and returns, next to the gradients, every layer's per-sample
pre-activation gradient batch.  Curvature factors are second moments of the
layer inputs and of these pre-activation gradients.  The network itself
holds weights only, so any number of callers can run passes over one weight
set without overwriting each other's captures.

A pass may also report per column span (all P workers' local passes in
:mod:`kfaclab.distsim`, each worker's span its columns of the global batch):
each layer is still one matrix product over all B columns, and each span
gets the loss and the gradient of a pass over its columns alone, up to the
last bits where BLAS picks another kernel for the wider product.

``backward`` never evaluates an activation function.  It reads the network
output and, for each hidden layer, the activation's OUTPUT ``a = f(s)``,
which ``forward`` stored as the next layer's input capture (without its bias
row).  Each derivative is written in terms of that output:

    ==========  ============  ==================
    activation  f(s)          f'(s) as fn of a
    ==========  ============  ==================
    tanh        tanh(s)       1 - a*a
    relu        max(s, 0)     a > 0
    identity    s             1
    ==========  ============  ==================

These are the same bits as differentiating at ``s``: ``a`` is exactly
``tanh(s)``, and ``max(s, 0) > 0`` exactly when ``s > 0``.

Scaling convention: ``backward`` returns gradients of the MEAN batch loss,
while the pre-activation gradients are per-sample loss gradients (so that
``mean(g g^T)`` over the batch estimates the expectation without a
batch-size factor).

Shapes are columns-are-samples: a batch of B samples in d dimensions is a
``d x B`` matrix.  With ``bias_mode="homogeneous"``, a constant 1-row is
appended to every layer input and the weight gains one column.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ArgumentError, ShapeError, check_fields, one_of
from .numerics import divide_in_place

LOSSES = ("softmax_cross_entropy", "mean_squared_error")
BIAS_MODES = ("none", "homogeneous")


def _relu(s, out):
    return np.maximum(s, 0.0, out=out)


def _identity(s, out):
    np.copyto(out, s)
    return out


def _tanh_deriv(a):
    d = a * a
    return np.subtract(1.0, d, out=d)


# name -> (activation f(s, out), its derivative as a function of the
# activation's output a = f(s))
_ACT_FNS: dict[str, tuple[Callable, Callable]] = {
    "relu": (_relu, lambda a: a > 0.0),
    "tanh": (np.tanh, _tanh_deriv),
    "identity": (_identity, lambda a: 1.0),
}
ACTIVATIONS = tuple(_ACT_FNS)


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: dimensions, activation, loss, bias handling."""

    layer_dims: tuple[int, ...]
    activation: str = "tanh"
    loss_kind: str = "softmax_cross_entropy"
    bias_mode: str = "none"

    def __post_init__(self):
        # operator.index takes ints and numpy integers, not 8.7 or "9"; it
        # would take True as 1
        try:
            if any(isinstance(d, (bool, np.bool_)) for d in self.layer_dims):
                raise TypeError
            dims = tuple(operator.index(d) for d in self.layer_dims)
        except TypeError:
            raise ArgumentError(
                f"layer_dims must be a sequence of integers, got {self.layer_dims!r}") from None
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2:
            raise ArgumentError("layer_dims needs at least [d_0, d_1]")
        if any(d < 1 for d in dims):
            raise ArgumentError(f"layer_dims must all be >= 1, got {dims}")
        check_fields(vars(self), {"activation": one_of(ACTIVATIONS), "loss_kind": one_of(LOSSES),
                                  "bias_mode": one_of(BIAS_MODES)})

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
    return _layers(net, _first_input(net, inputs))


def _first_input(net: Network, inputs: np.ndarray) -> np.ndarray:
    """Layer 0's input buffer: the inputs themselves, or under a homogeneous
    bias a copy with a last row of ones in the layout of the inputs (F-order
    for IDX data), on which the bits of the layer's matrix products depend."""
    if inputs.ndim != 2 or inputs.shape[0] != net.spec.layer_dims[0]:
        raise ShapeError(f"input rows {inputs.shape} do not match d_0={net.spec.layer_dims[0]}")
    if net.spec.bias_mode == "none":
        return inputs
    a_in = np.empty((inputs.shape[0] + 1, inputs.shape[1]),
                    order="F" if np.isfortran(inputs) else "C")
    a_in[:-1] = inputs
    a_in[-1] = 1.0
    return a_in


def _layers(net: Network, a_in: np.ndarray,
            captures: Optional[list[np.ndarray]] = None) -> np.ndarray:
    """The layer loop from layer 0's input buffer; returns the network output.
    Every hidden activation is written straight into the next layer's input
    buffer and its pre-activation freed.  Each input buffer is appended to
    ``captures`` if given; otherwise at most two layer arrays are alive at once."""
    act, _ = _ACT_FNS[net.spec.activation]
    for i, layer in enumerate(net.layers):
        if i > 0:
            del a_in
            a_in = np.empty((net.spec.weight_shape(i)[1], s.shape[1]))
            a_in[s.shape[0]:] = 1.0
            act(s, out=a_in[:s.shape[0]])
            del s
        if captures is not None:
            captures.append(a_in)
        s = layer.weight @ a_in
    return s


def forward(net: Network, batch: Batch, spans: Optional[Sequence[slice]] = None
            ) -> tuple[float | list[float], list[np.ndarray]]:
    """Forward pass: returns the mean batch loss and the L+1 captures, every
    layer's input batch and then the network output.

    Given nonempty column ``spans`` of the batch, the first value is the list
    of the spans' mean losses; the captures are always the whole batch's.

    Each layer's input capture is one buffer, ``(d + 1) x B`` with a last
    row of ones under a homogeneous bias (see :func:`_first_input` for layer
    0's); every hidden activation is written straight into it.
    """
    captures: list[np.ndarray] = []
    s = _layers(net, _first_input(net, batch.inputs), captures)
    captures.append(s)
    losses = _per_sample_losses(s, batch.targets, net.spec.loss_kind)
    if spans is None:
        return float(np.mean(losses)), captures
    return [float(np.mean(losses[span])) for span in spans], captures


def backward(
    net: Network, batch: Batch, captures: list[np.ndarray],
    spans: Optional[Sequence[slice]] = None,
) -> tuple[list, list[np.ndarray]]:
    """Backward pass over the captures ``forward`` returned for this batch:
    the L layer inputs, then the network output.

    Returns the per-layer gradients of the mean batch loss,
    ``(1/B) * g_i @ a_{i-1}^T``, and the per-layer per-sample pre-activation
    gradients ``g_i``.  The hidden derivatives come from the activations in
    the input captures.

    Given column ``spans`` of the batch, the first value is one gradient
    list per span, ``(1/b) * g_i[:, span] @ a_{i-1}[:, span]^T``, never one
    of the whole batch.
    """
    B = batch.size
    wants = [(net.spec.weight_shape(i)[1], B) for i in range(net.depth)]
    wants.append((net.spec.layer_dims[-1], B))
    shapes = [capture.shape for capture in captures]
    if shapes != wants:
        raise ShapeError(f"captures of shapes {shapes} do not fit a batch of {B}: "
                         f"the network needs {wants}")
    _, act_deriv = _ACT_FNS[net.spec.activation]
    homogeneous = net.spec.bias_mode == "homogeneous"
    g = _per_sample_output_grads(captures[-1], batch.targets, net.spec.loss_kind)
    grads_over = [slice(0, B)] if spans is None else spans
    grads: list[list] = [[None] * net.depth for _ in grads_over]
    preact_grads: list[Optional[np.ndarray]] = [None] * net.depth
    for i in range(net.depth - 1, -1, -1):
        a_in = captures[i]
        preact_grads[i] = g
        for span_grads, span in zip(grads, grads_over):
            span_grads[i] = divide_in_place(g[:, span] @ a_in[:, span].T, span.stop - span.start)
        if i > 0:
            weight = net.layers[i].weight
            core, a = (weight[:, :-1], a_in[:-1]) if homogeneous else (weight, a_in)
            g = core.T @ g
            g *= act_deriv(a)
    return (grads[0] if spans is None else grads), preact_grads  # type: ignore[return-value]


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
                up = forward(net, batch)[0]
                w[r, c] = orig - h
                down = forward(net, batch)[0]
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
