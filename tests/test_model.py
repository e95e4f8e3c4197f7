import numpy as np
import pytest

from kfaclab.errors import ArgumentError, ShapeError
from kfaclab.model import (
    Batch,
    NetworkSpec,
    backward,
    finite_diff_grad,
    forward,
    init_momentum,
    init_network,
    mean_loss,
    predict,
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
    for capture in captures:
        assert np.all(capture.input[-1] == 1.0)


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


def test_predict_and_mean_loss_match_forward():
    rng = np.random.default_rng(10)
    spec = NetworkSpec((3, 3, 2))
    net = init_network(spec, seed=5)
    batch = _random_batch(rng, spec, 4)
    loss, captures = forward(net, batch)
    assert np.array_equal(predict(net, batch.inputs), captures[-1].preact)
    assert mean_loss(net, batch) == loss


def test_forward_shape_error():
    net = init_network(NetworkSpec((3, 2)), seed=0)
    with pytest.raises(ShapeError):
        forward(net, Batch(np.zeros((4, 2)), np.array([0, 1])))
