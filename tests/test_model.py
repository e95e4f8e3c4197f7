import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfaclab import model
from kfaclab.errors import ArgumentError, ShapeError
from kfaclab.model import (
    ACTIVATIONS,
    BIAS_MODES,
    LOSSES,
    Batch,
    NetworkSpec,
    backward,
    finite_diff_grad,
    forward,
    init_momentum,
    init_network,
    predict,
    _per_sample_losses,
    _per_sample_output_grads,
    sgd_step,
)


def _random_batch(rng, spec, B):
    inputs = rng.standard_normal((spec.layer_dims[0], B))
    if spec.loss_kind == "softmax_cross_entropy":
        targets = rng.integers(0, spec.layer_dims[-1], size=B)
    else:
        targets = rng.standard_normal((spec.layer_dims[-1], B))
    return Batch(inputs, targets)


def test_init_is_deterministic():
    spec = NetworkSpec((4, 5, 3))
    a = init_network(spec, seed=42)
    b = init_network(spec, seed=42)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weight, lb.weight)


def test_init_shapes():
    net = init_network(NetworkSpec((2, 3, 2)), seed=0)
    assert net.layers[0].weight.shape == (3, 2)
    assert net.layers[1].weight.shape == (2, 3)
    homog = init_network(NetworkSpec((2, 3, 2), bias_mode="homogeneous"), seed=0)
    assert homog.layers[0].weight.shape == (3, 3)
    assert homog.layers[1].weight.shape == (2, 4)


def test_init_seeds_differ():
    spec = NetworkSpec((4, 4))
    a = init_network(spec, seed=0)
    b = init_network(spec, seed=1)
    assert not np.array_equal(a.layers[0].weight, b.layers[0].weight)


def test_spec_validation():
    with pytest.raises(ArgumentError):
        NetworkSpec((4,))
    with pytest.raises(ArgumentError):
        NetworkSpec((4, 0))
    with pytest.raises(ArgumentError):
        NetworkSpec((4, 2), activation="sigmoid")


@pytest.mark.parametrize("dims", [(8, 8.7, 3), (8, "9", 3), 8])
def test_spec_rejects_layer_dims_that_are_not_integers(dims):
    with pytest.raises(ArgumentError, match="^layer_dims must be a sequence of integers"):
        NetworkSpec(dims)


def test_spec_takes_numpy_integer_layer_dims_as_ints():
    spec = NetworkSpec((8, np.int64(9), np.int32(3)))
    assert spec.layer_dims == (8, 9, 3)
    assert all(type(d) is int for d in spec.layer_dims)


def test_forward_identity_net_zero_mse():
    spec = NetworkSpec((3, 3, 3), activation="identity", loss_kind="mean_squared_error")
    net = init_network(spec, seed=0)
    for layer in net.layers:
        layer.weight[...] = np.eye(3)
    inputs = np.random.default_rng(0).standard_normal((3, 5))
    assert forward(net, Batch(inputs, inputs))[0] == 0.0


def test_forward_uniform_logits_gives_log_classes():
    spec = NetworkSpec((4, 6), loss_kind="softmax_cross_entropy")
    net = init_network(spec, seed=0)
    net.layers[0].weight[...] = 0.0
    batch = Batch(np.random.default_rng(1).standard_normal((4, 7)),
                  np.arange(7) % 6)
    assert abs(forward(net, batch)[0] - np.log(6.0)) <= 1e-12


def test_forward_matches_straight_line_reimplementation():
    rng = np.random.default_rng(2)
    spec = NetworkSpec((5, 4, 3), activation="tanh", bias_mode="homogeneous")
    net = init_network(spec, seed=3)
    batch = _random_batch(rng, spec, 6)

    # independent straight-line evaluation
    a = batch.inputs
    a = np.vstack([a, np.ones((1, 6))])
    s1 = net.layers[0].weight @ a
    h = np.tanh(s1)
    h = np.vstack([h, np.ones((1, 6))])
    logits = net.layers[1].weight @ h
    shifted = logits - logits.max(axis=0)
    per_sample = np.log(np.exp(shifted).sum(axis=0)) - shifted[batch.targets, np.arange(6)]
    assert abs(forward(net, batch)[0] - per_sample.mean()) <= 1e-12


def test_forward_is_pure_wrt_weights():
    rng = np.random.default_rng(3)
    spec = NetworkSpec((4, 4, 2))
    net = init_network(spec, seed=0)
    batch = _random_batch(rng, spec, 5)
    assert forward(net, batch)[0] == forward(net, batch)[0]


def test_forward_captures_homogeneous_ones_row():
    rng = np.random.default_rng(4)
    spec = NetworkSpec((3, 4, 2), bias_mode="homogeneous")
    net = init_network(spec, seed=0)
    _, captures = forward(net, _random_batch(rng, spec, 5))
    assert [c.shape for c in captures] == [(4, 5), (5, 5), (2, 5)]
    for capture in captures[:-1]:
        assert np.all(capture[-1] == 1.0)


def test_backward_zero_gradient_at_optimum():
    spec = NetworkSpec((3, 3), activation="identity", loss_kind="mean_squared_error")
    net = init_network(spec, seed=0)
    net.layers[0].weight[...] = np.eye(3)
    inputs = np.random.default_rng(5).standard_normal((3, 4))
    batch = Batch(inputs, inputs)
    _, captures = forward(net, batch)
    grads, _ = backward(net, batch, captures)
    assert np.abs(grads[0]).max() == 0.0


def test_backward_softmax_grad_columns_sum_to_zero():
    rng = np.random.default_rng(6)
    spec = NetworkSpec((4, 5, 3))
    net = init_network(spec, seed=1)
    batch = _random_batch(rng, spec, 8)
    _, captures = forward(net, batch)
    _, preact_grads = backward(net, batch, captures)
    g_last = preact_grads[-1]
    assert np.abs(g_last.sum(axis=0)).max() <= 1e-12


def test_backward_rejects_mismatched_captures():
    rng = np.random.default_rng(11)
    spec = NetworkSpec((3, 4, 2))
    net = init_network(spec, seed=0)
    batch = _random_batch(rng, spec, 4)
    _, other_batch_captures = forward(net, _random_batch(rng, spec, 5))
    with pytest.raises(ShapeError):
        backward(net, batch, other_batch_captures)
    _, captures = forward(net, batch)
    for wrong in (captures[:-1], captures[:-1] + captures[-2:]):  # no output, one too many
        with pytest.raises(ShapeError):
            backward(net, batch, wrong)
    for other_dims in ((3, 4, 4, 2), (3, 5, 2)):  # deeper, then wider
        _, other_net_captures = forward(init_network(NetworkSpec(other_dims), seed=0), batch)
        with pytest.raises(ShapeError):
            backward(net, batch, other_net_captures)


def _max_rel_err(bp, fd):
    worst = 0.0
    for gb, gf in zip(bp, fd):
        denom = np.maximum(1.0, np.maximum(np.abs(gb), np.abs(gf)))
        worst = max(worst, float((np.abs(gb - gf) / denom).max()))
    return worst


@pytest.mark.parametrize("loss", ["softmax_cross_entropy", "mean_squared_error"])
@pytest.mark.parametrize("bias", ["none", "homogeneous"])
def test_backward_matches_finite_differences(loss, bias):
    rng = np.random.default_rng(7)
    spec = NetworkSpec((4, 6, 3), activation="tanh", loss_kind=loss, bias_mode=bias)
    net = init_network(spec, seed=2)
    batch = _random_batch(rng, spec, 5)
    _, captures = forward(net, batch)
    bp, _ = backward(net, batch, captures)
    fd = finite_diff_grad(net, batch, h=1e-5)
    assert _max_rel_err(bp, fd) <= 1e-5


def test_finite_diff_exact_on_quadratic():
    # single 1x1 identity-activation MSE net: loss is quadratic in the weight,
    # so the central difference has no truncation error
    spec = NetworkSpec((1, 1), activation="identity", loss_kind="mean_squared_error")
    net = init_network(spec, seed=0)
    net.layers[0].weight[...] = 0.7
    batch = Batch(np.array([[1.5]]), np.array([[2.0]]))
    fd = finite_diff_grad(net, batch, h=1e-4)[0][0, 0]
    exact = (0.7 * 1.5 - 2.0) * 1.5
    assert abs(fd - exact) <= 1e-8


def test_finite_diff_second_order_convergence():
    rng = np.random.default_rng(8)
    spec = NetworkSpec((3, 4, 2), activation="tanh", loss_kind="mean_squared_error")
    net = init_network(spec, seed=3)
    batch = _random_batch(rng, spec, 4)
    _, captures = forward(net, batch)
    bp, _ = backward(net, batch, captures)

    def err(h):
        fd = finite_diff_grad(net, batch, h=h)
        return max(float(np.abs(gb - gf).max()) for gb, gf in zip(bp, fd))

    # halving h shrinks the truncation error roughly 4x on a smooth net
    ratio = err(2e-3) / err(1e-3)
    assert 2.5 <= ratio <= 6.0


def test_finite_diff_rejects_nonpositive_h():
    net = init_network(NetworkSpec((2, 2)), seed=0)
    batch = Batch(np.zeros((2, 1)), np.array([0]))
    with pytest.raises(ArgumentError):
        finite_diff_grad(net, batch, h=0.0)


def test_loss_and_grads_invariant_under_sample_permutation():
    rng = np.random.default_rng(9)
    spec = NetworkSpec((4, 5, 3), activation="tanh")
    net = init_network(spec, seed=4)
    batch = _random_batch(rng, spec, 6)
    perm = rng.permutation(6)
    shuffled = Batch(batch.inputs[:, perm], batch.targets[perm])

    loss_a, caps_a = forward(net, batch)
    grads_a, _ = backward(net, batch, caps_a)
    loss_b, caps_b = forward(net, shuffled)
    grads_b, _ = backward(net, shuffled, caps_b)
    assert abs(loss_a - loss_b) <= 1e-12
    for ga, gb in zip(grads_a, grads_b):
        assert np.abs(ga - gb).max() <= 1e-12


def test_sgd_step_no_momentum():
    net = init_network(NetworkSpec((2, 2), activation="identity"), seed=0)
    net.layers[0].weight[...] = 0.0
    g = np.array([[1.0, 2.0], [3.0, 4.0]])
    sgd_step(net, [g], lr=1.0, momentum_state=init_momentum(net), mu=0.0)
    assert np.array_equal(net.layers[0].weight, -g)


def test_sgd_step_momentum_recurrence():
    net = init_network(NetworkSpec((2, 2), activation="identity"), seed=0)
    net.layers[0].weight[...] = 0.0
    g = np.array([[1.0, -2.0], [0.5, 3.0]])
    m = init_momentum(net)
    lr = 0.1
    sgd_step(net, [g.copy()], lr, m, mu=0.9)
    sgd_step(net, [g.copy()], lr, m, mu=0.9)
    expected = -lr * (g + 1.9 * g)
    assert np.abs(net.layers[0].weight - expected).max() <= 1e-15


def test_sgd_step_zero_lr_is_identity():
    net = init_network(NetworkSpec((3, 2)), seed=1)
    before = net.layers[0].weight.copy()
    sgd_step(net, [np.ones((2, 3))], lr=0.0, momentum_state=init_momentum(net), mu=0.9)
    assert np.array_equal(net.layers[0].weight, before)


def test_predict_matches_forward():
    rng = np.random.default_rng(10)
    spec = NetworkSpec((3, 3, 2))
    net = init_network(spec, seed=5)
    batch = _random_batch(rng, spec, 4)
    _, captures = forward(net, batch)
    assert np.array_equal(predict(net, batch.inputs), captures[-1])


@pytest.mark.parametrize("bias_mode", BIAS_MODES)
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("order", ["C", "F"])
def test_predict_matches_forward_bitwise(bias_mode, activation, order):
    rng = np.random.default_rng(11)
    spec = NetworkSpec((6, 7, 5, 3), activation=activation, bias_mode=bias_mode)
    net = init_network(spec, seed=2)
    batch = _random_batch(rng, spec, 9)
    batch.inputs = np.asarray(batch.inputs, order=order)
    _, captures = forward(net, batch)
    assert np.array_equal(predict(net, batch.inputs), captures[-1])


def test_predict_holds_at_most_two_layer_arrays_at_once():
    # the final evaluation of a 192-wide run: a layer's input buffer and its
    # pre-activation, or that pre-activation and the next layer's buffer;
    # never a copy of an input
    spec = NetworkSpec((192, 192, 192, 10), bias_mode="homogeneous")
    net = init_network(spec, seed=0)
    inputs = np.random.default_rng(0).standard_normal((192, 1460))
    tracemalloc.start()
    try:
        predict(net, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (193 + 193) * 1460 * 8 + 64 * 1024


def test_forward_shape_error():
    net = init_network(NetworkSpec((3, 2)), seed=0)
    with pytest.raises(ShapeError):
        forward(net, Batch(np.zeros((4, 2)), np.array([0, 1])))


@pytest.mark.parametrize("loss", LOSSES)
def test_targets_must_match_the_batch_columns(loss):
    rng = np.random.default_rng(13)
    spec = NetworkSpec((3, 4, 2), loss_kind=loss)
    net = init_network(spec, seed=0)
    batch = _random_batch(rng, spec, 6)
    short = Batch(batch.inputs, batch.targets[..., :-1])
    with pytest.raises(ShapeError):
        forward(net, short)
    _, captures = forward(net, batch)
    with pytest.raises(ShapeError):
        backward(net, short, captures)


def test_spans_report_the_passes_over_their_columns():
    # the whole batch's captures, one mean loss and one gradient list per
    # span, each a pass over the span's columns alone (to rounding)
    rng = np.random.default_rng(14)
    spec = NetworkSpec((5, 6, 3), bias_mode="homogeneous")
    net = init_network(spec, seed=1)
    batch = _random_batch(rng, spec, 12)
    spans = [slice(0, 4), slice(4, 12), slice(0, 12)]
    losses, captures = forward(net, batch, spans)
    grads, preact_grads = backward(net, batch, captures, spans)
    assert len(losses) == len(grads) == 3
    assert _bits(captures) == _bits(forward(net, batch)[1])
    assert losses[2] == forward(net, batch)[0]
    assert _bits(grads[2]) == _bits(backward(net, batch, captures)[0])
    for span, loss, span_grads in zip(spans, losses, grads):
        part = Batch(batch.inputs[:, span], batch.targets[span])
        want_loss, part_captures = forward(net, part)
        assert abs(loss - want_loss) <= 1e-14 * abs(want_loss)
        for got, want in zip(span_grads, backward(net, part, part_captures)[0]):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# ---------------------------------------------------------------------------
# bit-exact oracle: the local pass written the straightforward way, which
# stacks a ones row with vstack, differentiates the activation at its input
# (the pre-activation) and divides the gradient by B


_ORACLE_ACTS = {
    "relu": (lambda s: np.maximum(s, 0.0), lambda s: (s > 0.0).astype(np.float64)),
    "tanh": (np.tanh, lambda s: 1.0 - np.tanh(s) * np.tanh(s)),
    "identity": (lambda s: s, lambda s: np.ones_like(s)),
}


def _oracle_local_pass(net, batch):
    """(loss, input captures, pre-activations, gradients, pre-activation
    gradients) of one forward/backward pass."""
    act, deriv = _ORACLE_ACTS[net.spec.activation]
    homogeneous = net.spec.bias_mode == "homogeneous"
    B = batch.size
    a, inputs, preacts = batch.inputs, [], []
    for i, layer in enumerate(net.layers):
        a_in = np.vstack([a, np.ones((1, B))]) if homogeneous else a
        s = layer.weight @ a_in
        inputs.append(a_in)
        preacts.append(s)
        a = act(s) if i < net.depth - 1 else s
    loss = float(np.mean(_per_sample_losses(a, batch.targets, net.spec.loss_kind)))
    g = _per_sample_output_grads(preacts[-1], batch.targets, net.spec.loss_kind)
    grads, preact_grads = [None] * net.depth, [None] * net.depth
    for i in range(net.depth - 1, -1, -1):
        preact_grads[i] = g
        grads[i] = (g @ inputs[i].T) / B
        if i > 0:
            w = net.layers[i].weight
            core = w[:, :-1] if homogeneous else w
            g = deriv(preacts[i - 1]) * (core.T @ g)
    return loss, inputs, preacts, grads, preact_grads


def _layout_batch(rng, spec, B, layout):
    """A batch whose inputs are C-ordered, F-ordered or a column slice of a
    wider array (the layouts sharding and IDX data produce)."""
    batch = _random_batch(rng, spec, B)
    x = batch.inputs
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "slice":
        wide = rng.standard_normal((x.shape[0], 3 * B))
        wide[:, B:2 * B] = x
        x = wide[:, B:2 * B]
    return Batch(x, batch.targets)


def _bits(arrays):
    return [a.tobytes() for a in arrays]


@settings(max_examples=200, deadline=None)
@given(activation=st.sampled_from(ACTIVATIONS), bias=st.sampled_from(BIAS_MODES),
       loss=st.sampled_from(LOSSES), B=st.sampled_from([1, 3, 32, 100]),
       layout=st.sampled_from(["C", "F", "slice"]),
       dims=st.lists(st.integers(1, 12), min_size=2, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_local_pass_matches_oracle_bit_for_bit(activation, bias, loss, B, layout, dims, seed):
    spec = NetworkSpec(tuple(dims), activation=activation, loss_kind=loss, bias_mode=bias)
    net = init_network(spec, seed=seed)
    batch = _layout_batch(np.random.default_rng(seed), spec, B, layout)
    want_loss, inputs, preacts, want_grads, want_pgs = _oracle_local_pass(net, batch)
    loss_value, captures = forward(net, batch)
    grads, preact_grads = backward(net, batch, captures)
    assert loss_value == want_loss or (np.isnan(loss_value) and np.isnan(want_loss))
    assert _bits(captures[:-1]) == _bits(inputs)
    assert captures[-1].tobytes() == preacts[-1].tobytes()
    assert _bits(grads) == _bits(want_grads)
    assert _bits(preact_grads) == _bits(want_pgs)


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("bias", BIAS_MODES)
@pytest.mark.parametrize("loss", LOSSES)
def test_backward_never_reads_hidden_preactivations(activation, bias, loss, monkeypatch):
    # the captures hold no hidden pre-activation, and backward must not
    # rebuild one: every activation raises once forward is done
    spec = NetworkSpec((5, 7, 6, 3), activation=activation, loss_kind=loss, bias_mode=bias)
    net = init_network(spec, seed=8)
    batch = _random_batch(np.random.default_rng(12), spec, 9)
    _, captures = forward(net, batch)
    want = backward(net, batch, captures)

    def raises(*args, **kwargs):
        raise AssertionError("backward evaluated an activation")

    for name, (_, deriv) in model._ACT_FNS.items():
        monkeypatch.setitem(model._ACT_FNS, name, (raises, deriv))
    got = backward(net, batch, captures)
    for w, g in zip(want, got):
        assert _bits(g) == _bits(w)
