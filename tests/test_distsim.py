import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfaclab import distsim, kfac
from kfaclab.config import HyperConfig
from kfaclab.costmodel import layer_counts, round_robin_owners
from kfaclab.distsim import (
    StepCounters,
    all_reduce_avg,
    broadcast,
    build_cluster,
    run_step,
    worker_spans,
)
from kfaclab.errors import ArgumentError, NumericError, OrderingError, ShapeError
from kfaclab.kfac import KfacHyper
from kfaclab.model import Batch, NetworkSpec, backward, forward, init_momentum, init_network, sgd_step


def _weights(cluster, rank=0):
    return np.concatenate([l.weight.ravel() for l in cluster.workers[rank].replica.layers])


def _batch(seed=0, d=6, B=32, classes=4):
    rng = np.random.default_rng(seed)
    return Batch(rng.standard_normal((d, B)), rng.integers(0, classes, size=B))


def _shards(batch, workers, policy="disjoint"):
    """Each worker's columns of ``batch`` as a batch of its own: the
    reference the local passes are checked against."""
    return [Batch(batch.inputs[:, span], batch.targets[..., span])
            for span in worker_spans(batch.size, workers, policy)]


def _poisoned(batch, workers, worker, value):
    """A copy of ``batch`` whose columns of ``worker`` hold ``value``."""
    inputs = batch.inputs.copy()
    inputs[:, worker_spans(batch.size, workers)[worker]] = value
    return Batch(inputs, batch.targets)


SPEC = NetworkSpec((6, 8, 4), activation="tanh", bias_mode="homogeneous")


# ---------------------------------------------------------------------------
# partition


def test_round_robin_one_layer_each():
    assert round_robin_owners(4, 4) == (0, 1, 2, 3)


def test_round_robin_five_layers_two_workers():
    # worker 0 owns layers 0, 2, 4 and worker 1 layers 1, 3
    assert round_robin_owners(5, 2) == (0, 1, 0, 1, 0)


def test_round_robin_single_worker_owns_all():
    assert round_robin_owners(7, 1) == (0,) * 7


def test_round_robin_more_workers_than_layers():
    owners = round_robin_owners(3, 8)
    assert owners == (0, 1, 2)
    sizes = [owners.count(p) for p in range(8)]
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("algorithm, workers, message", [
    ("adam", 2, r"^unknown algorithm 'adam'$"),
    ("dp_kfac", 0, r"^worker count must be >= 1$"),
])
def test_build_cluster_checks_its_arguments_first(monkeypatch, algorithm, workers, message):
    def forbidden(spec, seed):
        raise AssertionError("the network was allocated before the arguments were checked")

    monkeypatch.setattr(distsim, "init_network", forbidden)
    with pytest.raises(ArgumentError, match=message):
        build_cluster(SPEC, algorithm, workers, seed=0)


# ---------------------------------------------------------------------------
# collectives


def test_all_reduce_mean():
    out = all_reduce_avg([np.array([1.0, 3.0]), np.array([3.0, 5.0])], StepCounters(), "gradcomm")
    assert np.array_equal(out, np.array([2.0, 4.0]))


def test_all_reduce_identical_inputs_idempotent():
    x = np.random.default_rng(0).standard_normal((3, 5))
    for workers in (1, 2, 4, 8):
        assert np.array_equal(all_reduce_avg([x] * workers, StepCounters(), "gradcomm"), x)


def test_all_reduce_counter_volume():
    counters = StepCounters()
    all_reduce_avg([np.zeros(10)] * 4, counters, "gradcomm")
    assert counters.gradcomm == 60  # 2 * (P-1) * N


def test_all_reduce_shape_mismatch_names_worker():
    with pytest.raises(ShapeError, match="worker 1"):
        all_reduce_avg([np.zeros(3), np.zeros(4)], StepCounters(), "gradcomm")


def _allocating_tree_avg(tensors):
    """Reference all-reduce: the same pairwise tree, a fresh array at every
    level."""
    level = list(tensors)
    while len(level) > 1:
        merged = [level[i] + level[i + 1] for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return level[0] / len(tensors)


def test_all_reduce_leaves_inputs_and_matches_allocating_tree():
    rng = np.random.default_rng(3)
    for workers in range(1, 10):
        # mixed magnitudes, so a changed summation order changes the bits
        tensors = [rng.standard_normal((5, 7)) * np.exp(rng.uniform(-8, 8, (5, 7)))
                   for _ in range(workers)]
        for inputs in (tensors, [tensors[0]] * workers):
            kept = [x.copy() for x in inputs]
            out = all_reduce_avg(inputs, StepCounters(), "gradcomm")
            assert out.tobytes() == _allocating_tree_avg(kept).tobytes(), workers
            assert all(np.array_equal(x, k) for x, k in zip(inputs, kept)), workers
            assert not any(np.shares_memory(out, x) for x in inputs), workers


def test_broadcast_single_worker_logs_nothing():
    counters = StepCounters()
    out = broadcast(0, np.arange(5.0), 1, counters, "predcomm")
    assert counters.predcomm == 0
    assert np.array_equal(out, np.arange(5.0))


def test_broadcast_counter_volume_and_copies():
    counters = StepCounters()
    src = np.random.default_rng(1).standard_normal(10)
    out = broadcast(1, src, 4, counters, "predcomm")
    assert counters.predcomm == 30  # (P-1) * N
    assert np.array_equal(out, src)
    assert not out.flags.writeable


def test_broadcast_invalid_root():
    with pytest.raises(ArgumentError):
        broadcast(4, np.zeros(2), 4, StepCounters(), "predcomm")


def test_shard_disjoint_contiguous_slices():
    assert worker_spans(8, 2, "disjoint") == (slice(0, 4), slice(4, 8))
    assert worker_spans(8, 2) == worker_spans(8, 2, "disjoint")


def test_shard_replicate_identical():
    assert worker_spans(6, 3, "replicate") == (slice(0, 6),) * 3


def test_shard_indivisible_batch_rejected():
    with pytest.raises(ArgumentError,
                       match="^batch of 10 samples does not divide across 4 workers$"):
        worker_spans(10, 4, "disjoint")


@pytest.mark.parametrize("policy", ["disjoint", "replicate"])
@pytest.mark.parametrize("workers", [0, -1])
def test_worker_count_below_one_rejected(policy, workers):
    with pytest.raises(ArgumentError, match="^worker count must be >= 1$"):
        worker_spans(8, workers, policy)


def test_unknown_shard_policy_rejected(monkeypatch):
    with pytest.raises(ArgumentError, match="^unknown shard policy 'strided'$"):
        worker_spans(8, 2, "strided")
    # and by build_cluster before it allocates
    monkeypatch.setattr(distsim, "init_network", None)
    with pytest.raises(ArgumentError, match="^unknown shard policy 'strided'$"):
        build_cluster(SPEC, "ssgd", 2, seed=0, shard_policy="strided")


@settings(max_examples=200, deadline=None)
@given(workers=st.integers(1, 64), b=st.integers(1, 64))
def test_worker_spans_tile_the_batch(workers, b):
    # disjoint spans tile range(B) in worker order with equal widths; replicate
    # gives every worker the full batch
    B = workers * b
    spans = worker_spans(B, workers, "disjoint")
    assert len(spans) == workers
    assert [i for span in spans for i in range(B)[span]] == list(range(B))
    assert {span.stop - span.start for span in spans} == {b}
    assert worker_spans(B, workers, "replicate") == (slice(0, B),) * workers
    if workers > 1:
        with pytest.raises(ArgumentError):
            worker_spans(B + 1, workers, "disjoint")


def test_shard_mean_of_shard_gradients_equals_full_batch():
    batch = _batch(B=16)
    net = init_network(SPEC, seed=0)
    full, _ = backward(net, batch, forward(net, batch)[1])
    shards = _shards(batch, 4)
    partial = []
    for shard in shards:
        partial.append(backward(net, shard, forward(net, shard)[1])[0])
    for i in range(net.depth):
        mean = sum(p[i] for p in partial) / 4
        assert np.abs(mean - full[i]).max() <= 1e-13


# ---------------------------------------------------------------------------
# steps


def test_dp_replicate_matches_single_worker_bitwise():
    hyper = KfacHyper()
    batch = _batch()

    def run(workers):
        cluster = build_cluster(SPEC, "dp_kfac", workers, seed=7, shard_policy="replicate")
        for t in range(20):
            run_step(cluster, batch, hyper, 0.05, 0.9, t)
        return _weights(cluster)

    reference = run(1)
    for workers in (2, 4, 8):
        assert np.array_equal(run(workers), reference), f"P={workers} diverged"


def test_mpd_replicate_matches_single_worker():
    hyper = KfacHyper()
    batch = _batch()
    single = build_cluster(SPEC, "dp_kfac", 1, seed=7)
    multi = build_cluster(SPEC, "mpd_kfac_co", 2, seed=7, shard_policy="replicate")
    for t in range(10):
        run_step(single, batch, hyper, 0.05, 0.9, t)
        run_step(multi, batch, hyper, 0.05, 0.9, t)
    assert np.array_equal(_weights(single), _weights(multi))


def test_dp_equals_mpd_on_one_worker():
    hyper = KfacHyper()
    batch = _batch()
    dp = build_cluster(SPEC, "dp_kfac", 1, seed=3)
    mo = build_cluster(SPEC, "mpd_kfac_mo", 1, seed=3)
    for t in range(8):
        run_step(dp, batch, hyper, 0.1, 0.9, t)
        run_step(mo, batch, hyper, 0.1, 0.9, t)
    assert np.array_equal(_weights(dp), _weights(mo))


def test_mpd_co_and_mo_agree():
    hyper = KfacHyper()
    batch = _batch()

    def run(variant):
        cluster = build_cluster(SPEC, f"mpd_kfac_{variant}", 4, seed=5)
        for t in range(12):
            run_step(cluster, batch, hyper, 0.05, 0.9, t)
        return _weights(cluster)

    assert np.abs(run("co") - run("mo")).max() <= 1e-14


def test_mpd_co_and_mo_bit_identical():
    hyper = KfacHyper()
    batch = _batch()

    def run(variant):
        cluster = build_cluster(SPEC, f"mpd_kfac_{variant}", 4, seed=5)
        for t in range(12):
            run_step(cluster, batch, hyper, 0.05, 0.9, t)
        return _weights(cluster)

    assert np.array_equal(run("co"), run("mo"))


def test_workers_share_one_weight_and_momentum_set():
    for algorithm in distsim.ALGORITHMS:
        cluster = build_cluster(SPEC, algorithm, 3, seed=0)
        for worker in cluster.workers:
            assert worker.replica is cluster.net
            assert worker.momentum is cluster.momentum


def test_dp_factors_come_from_each_owners_own_shard():
    # one shared network must not let a later worker's pass overwrite the
    # captures an earlier owner builds its factors from
    spec = NetworkSpec((6, 8, 5, 7, 4), activation="tanh", bias_mode="homogeneous")
    workers = 3
    cluster = build_cluster(spec, "dp_kfac", workers, seed=1)
    reference = init_network(spec, seed=1)
    batch = _batch(B=30)
    shards = _shards(batch, workers)
    run_step(cluster, batch, KfacHyper(), 0.05, 0.9, 0)
    assert sorted(set(cluster.owners)) == list(range(workers))
    for i, owner in enumerate(cluster.owners):
        shard = shards[owner]
        _, captures = forward(reference, shard)
        _, preact_grads = backward(reference, shard, captures)
        a_cov, g_cov = kfac.compute_factors(captures[i], preact_grads[i])
        assert np.array_equal(cluster.factors[i].a_cov, a_cov), (owner, i)
        assert np.array_equal(cluster.factors[i].g_cov, g_cov), (owner, i)


def test_mpd_folds_each_layer_once_into_one_shared_average(monkeypatch):
    calls = []
    original = kfac.update_running_average

    def counting(state, a_new, g_new, xi, t):
        calls.append(t)
        return original(state, a_new, g_new, xi, t)

    monkeypatch.setattr(kfac, "update_running_average", counting)
    for algorithm in ("mpd_kfac_co", "mpd_kfac_mo"):
        cluster = build_cluster(SPEC, algorithm, 4, seed=0)
        for t in range(3):
            calls.clear()
            run_step(cluster, _batch(), KfacHyper(), 0.05, 0.9, t)
            assert calls == [t] * cluster.n_layers
            assert sorted(cluster.factors) == list(range(cluster.n_layers))
            for i, state in cluster.factors.items():
                for worker in cluster.workers:
                    assert worker.factors[i] is state
                assert state.initialized and state.last_factor_update == t


def _symmetrized_second_moment(x):
    m = x @ x.T / x.shape[1]
    return (m + m.T) / 2.0


def _worker_major_factor_stage(states, passes, hyper, t, owners, algorithm):
    """Reference worker-major factor stage with an explicit symmetrization.

    MPD-KFAC: every worker builds every layer's raw factors, each layer is
    averaged by the allocating tree and folded into every worker's own copy,
    then the owner (under COMM-OPT every worker, with the same bits)
    rebuilds the decomposition.  DP-KFAC: each owner builds its layers'
    factors from its own pass only, folds them without averaging and
    rebuilds the decomposition in its own copy."""
    n_layers = len(owners)
    if kfac.is_factor_update(t, hyper):
        raw = [[(_symmetrized_second_moment(inputs[i]), _symmetrized_second_moment(grads[i]))
                for i in range(n_layers)] for inputs, grads in passes]
        for i, owner in enumerate(owners):
            if algorithm == "dp_kfac":
                a_new, g_new = raw[owner][i]
                holders = [states[owner]]
            else:
                a_new = _allocating_tree_avg([r[i][0] for r in raw])
                g_new = _allocating_tree_avg([r[i][1] for r in raw])
                holders = states
            for worker_states in holders:
                kfac.update_running_average(worker_states[i], a_new, g_new, hyper.xi, t)
    if kfac.is_inverse_update(t, hyper):
        for p, worker_states in enumerate(states):
            for i in range(n_layers):
                if algorithm == "mpd_kfac_co" or owners[i] == p:
                    kfac.refresh_inverses(worker_states[i], hyper, t)


def _factor_bits(state):
    """The averaged factors and their stamps."""
    return (state.initialized, state.last_factor_update,
            [a.tobytes() if a is not None else None for a in (state.a_cov, state.g_cov)])


def _decomposition_bits(state):
    """The decompositions and their stamp."""
    eig = [(pair.q.tobytes(), pair.values.tobytes()) if pair is not None else None
           for pair in (state.a_eig, state.g_eig)]
    inv = [a.tobytes() if a is not None else None
           for a in (state.a_damped_inv, state.g_damped_inv)]
    return state.last_inverse_update, eig, inv


@pytest.mark.parametrize("freqs", [(1, 1), (2, 3)])
@pytest.mark.parametrize("inv_type", kfac.INV_TYPES)
@pytest.mark.parametrize("algorithm", ["mpd_kfac_co", "mpd_kfac_mo", "dp_kfac"])
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_mpd_factor_states_match_worker_major_oracle(workers, algorithm, inv_type, freqs):
    hyper = KfacHyper(inv_type=inv_type, f_freq=freqs[0], k_freq=freqs[1])
    cluster = build_cluster(SPEC, algorithm, workers, seed=4)
    owners = cluster.owners
    oracle = [{i: kfac.FactorState() for i in range(cluster.n_layers)}
              for _ in range(workers)]
    for t in range(7):
        batch = _batch(seed=t, B=48)
        passes = []
        for shard in _shards(batch, workers):
            _, captures = forward(cluster.net, shard)
            _, preact_grads = backward(cluster.net, shard, captures)
            passes.append((captures[:-1], preact_grads))
        _worker_major_factor_stage(oracle, passes, hyper, t, owners, algorithm)
        run_step(cluster, batch, hyper, 0.05, 0.9, t)
        # under MPD-KFAC every worker holds the factors, under DP-KFAC only
        # the owner; under COMM-OPT every worker also holds the
        # decomposition, otherwise only the owner
        for p, want in enumerate(oracle):
            for i, state in cluster.factors.items():
                if algorithm != "dp_kfac" or owners[i] == p:
                    assert _factor_bits(state) == _factor_bits(want[i]), (t, p, i)
                if algorithm == "mpd_kfac_co" or owners[i] == p:
                    assert (_decomposition_bits(state)
                            == _decomposition_bits(want[i])), (t, p, i)


@pytest.mark.parametrize("freqs", [(1, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("inv_type", kfac.INV_TYPES)
@pytest.mark.parametrize("algorithm", ["dp_kfac", "mpd_kfac_co", "mpd_kfac_mo"])
def test_every_step_leaves_states_the_rule_accepts(algorithm, inv_type, freqs):
    # the rule a resume checks holds for every state the step itself leaves
    hyper = KfacHyper(inv_type=inv_type, f_freq=freqs[0], k_freq=freqs[1])
    cluster = build_cluster(SPEC, algorithm, 3, seed=6)
    for t in range(7):
        run_step(cluster, _batch(seed=t, B=48), hyper, 0.05, 0.9, t)
        for i, state in cluster.factors.items():
            d_out, d_in = cluster.net.layers[i].weight.shape
            assert kfac.state_problems(state, inv_type, d_in, d_out) == [], (t, i)


def test_run_step_never_reads_the_worker_views(monkeypatch):
    def forbidden(self):
        raise AssertionError("the step read Cluster.workers")

    monkeypatch.setattr(distsim.Cluster, "workers", property(forbidden))
    for algorithm in distsim.ALGORITHMS:
        for inv_type in kfac.INV_TYPES:
            hyper = KfacHyper(inv_type=inv_type, f_freq=2, k_freq=3)
            cluster = build_cluster(SPEC, algorithm, 3, seed=0)
            for t in range(4):
                run_step(cluster, _batch(B=30), hyper, 0.05, 0.9, t)


def test_mpd_co_preconditions_each_layer_once_per_step(monkeypatch):
    # and so do the algorithms that broadcast the preconditioned gradient
    calls = []
    original = kfac.apply_preconditioner

    def counting(state, grad, hyper):
        calls.append(grad.shape)
        return original(state, grad, hyper)

    monkeypatch.setattr(kfac, "apply_preconditioner", counting)
    for algorithm in ("mpd_kfac_co", "mpd_kfac_mo", "dp_kfac"):
        cluster = build_cluster(SPEC, algorithm, 4, seed=0)
        for t in range(3):
            calls.clear()
            run_step(cluster, _batch(), KfacHyper(), 0.05, 0.9, t)
            assert sorted(calls) == sorted(l.weight.shape for l in cluster.net.layers), algorithm


def test_non_finite_loss_names_worker_and_iteration():
    cluster = build_cluster(SPEC, "ssgd", 2, seed=0)
    with pytest.raises(NumericError, match=r"worker 1, iteration 7"):
        run_step(cluster, _poisoned(_batch(), 2, 1, np.inf), KfacHyper(), 0.05, 0.9, 7)


def test_non_finite_aggregated_gradient_names_layer_and_iteration(monkeypatch):
    original = distsim.backward

    def poisoned(net, batch, captures, spans):
        # one gradient list per worker span; poison worker 0's layer 1
        grads, preact_grads = original(net, batch, captures, spans)
        grads[0][1][0, 0] = np.nan
        return grads, preact_grads

    monkeypatch.setattr(distsim, "backward", poisoned)
    cluster = build_cluster(SPEC, "ssgd", 2, seed=0)
    before = _weights(cluster)
    with pytest.raises(NumericError, match=r"^layer 1, iteration 5: aggregated gradient"):
        run_step(cluster, _batch(), KfacHyper(), 0.05, 0.9, 5)
    assert np.array_equal(_weights(cluster), before)


@pytest.mark.parametrize("algorithm", ["dp_kfac", "mpd_kfac_co", "mpd_kfac_mo"])
def test_non_finite_preconditioned_gradient_names_owner_layer_and_iteration(
        monkeypatch, algorithm):
    original = kfac.apply_preconditioner

    def poisoned(state, grad, hyper):
        out = original(state, grad, hyper)
        return out * np.inf if grad.shape == (4, 9) else out  # layer 1 only

    monkeypatch.setattr(kfac, "apply_preconditioner", poisoned)
    cluster = build_cluster(SPEC, algorithm, 2, seed=0)
    before = _weights(cluster)
    with pytest.raises(NumericError,
                       match=r"^worker 1, layer 1, iteration 3: preconditioned gradient"):
        run_step(cluster, _batch(), KfacHyper(), 0.05, 0.9, 3)
    assert np.array_equal(_weights(cluster), before)

    def double_fault(state, grad, hyper):  # layer 0 not finite, then layer 1 raises
        if grad.shape == (4, 9):
            raise NumericError("layer 1's preconditioning failed")
        return original(state, grad, hyper) * np.inf

    # the lower layer's failure wins, as for every other failure of the step
    monkeypatch.setattr(kfac, "apply_preconditioner", double_fault)
    with pytest.raises(NumericError, match=r"^worker 0, layer 0, iteration 4: "
                                           r"preconditioned gradient is not finite$"):
        run_step(cluster, _batch(), KfacHyper(), 0.05, 0.9, 4)
    assert np.array_equal(_weights(cluster), before)


def test_comm_opt_preconditioner_failure_names_the_owner():
    # the same owner the non-finite check above names, not the worker the
    # simulator happens to compute the shared result on
    cluster = build_cluster(SPEC, "mpd_kfac_co", 2, seed=0)
    hyper = KfacHyper(k_freq=2)
    run_step(cluster, _batch(), hyper, 0.05, 0.9, 0)
    assert cluster.owners[1] == 1
    cluster.factors[1].a_eig = None  # no decomposition to apply at step 1
    with pytest.raises(OrderingError, match=r"^worker 1, layer 1, iteration 1: preconditioning requested"):
        run_step(cluster, _batch(), hyper, 0.05, 0.9, 1)


@pytest.mark.parametrize("algorithm", ["mpd_kfac_mo", "dp_kfac"])
def test_at_most_one_layers_raw_factor_pairs_are_alive_at_a_build(monkeypatch, algorithm):
    # _precondition's bound: a layer's raw factor pairs go before the next
    # layer's builds start, so each build finds at most P earlier ones alive
    P, real, results, alive = 4, kfac.compute_factors, [], []

    def build(a, g):
        alive.append(sum(any(ref() is not None for ref in refs) for refs in results))
        pair = real(a, g)
        results.append([weakref.ref(x) for x in pair])
        return pair

    monkeypatch.setattr(kfac, "compute_factors", build)
    spec = NetworkSpec((6, 8, 5, 4), activation="tanh", bias_mode="homogeneous")
    cluster = build_cluster(spec, algorithm, P, seed=0)
    for t in range(3):
        results.clear()
        run_step(cluster, _batch(t), KfacHyper(), 0.05, 0.9, t)
    assert len(alive) == 3 * 3 * (1 if algorithm == "dp_kfac" else P)
    assert max(alive) <= P


@pytest.mark.parametrize("algorithm", distsim.ALGORITHMS)
def test_step_loss_is_the_mean_of_the_span_losses_on_the_pre_step_weights(algorithm):
    batch, P = _batch(3), 4
    cluster = build_cluster(SPEC, algorithm, P, seed=1)
    losses, _ = forward(cluster.net, batch, worker_spans(batch.size, P))
    assert len(set(losses)) == P  # no one span's loss is the mean
    assert run_step(cluster, batch, KfacHyper(), 0.05, 0.9, 0).loss == float(np.mean(losses))


def test_replicas_identical_after_each_algorithm():
    batch = _batch()
    hyper = KfacHyper()
    for algorithm in distsim.ALGORITHMS:
        cluster = build_cluster(SPEC, algorithm, 4, seed=2)
        for t in range(3):
            distsim.run_step(cluster, batch, hyper, 0.05, 0.9, t)
        for worker in cluster.workers[1:]:
            for i in range(cluster.n_layers):
                assert np.array_equal(worker.replica.layers[i].weight,
                                      cluster.workers[0].replica.layers[i].weight)


def _decomposition_payload(state, inv_type):
    """The arrays a COMM-OPT owner broadcasts after refreshing ``state``."""
    if inv_type == "eigen":
        return (state.a_eig.q, state.a_eig.values, state.g_eig.q, state.g_eig.values)
    return (state.a_damped_inv, state.g_damped_inv)


def test_each_layer_is_broadcast_from_its_owner(monkeypatch):
    # observed on the collective itself: DP-KFAC and MEM-OPT send each
    # layer's preconditioned gradient once per step from the layer's owner;
    # COMM-OPT sends each refreshed decomposition from the owner, and nothing
    # on a step without a refresh
    sent = []
    original = distsim.broadcast

    def recording(root, tensor, n_workers, counters=None, stage="predcomm"):
        sent.append((stage, root, tensor))
        return original(root, tensor, n_workers, counters, stage)

    monkeypatch.setattr(distsim, "broadcast", recording)
    spec = NetworkSpec((6, 8, 5, 7, 4), activation="tanh", bias_mode="homogeneous")
    for algorithm in ("dp_kfac", "mpd_kfac_mo", "mpd_kfac_co"):
        for inv_type in kfac.INV_TYPES:
            hyper = KfacHyper(inv_type=inv_type, k_freq=2)
            cluster = build_cluster(spec, algorithm, 3, seed=1)
            owners = cluster.owners
            assert owners == (0, 1, 2, 0)
            shapes = [l.weight.shape for l in cluster.net.layers]
            for t in range(4):
                sent.clear()
                run_step(cluster, _batch(seed=t, B=30), hyper, 0.05, 0.9, t)
                where = (algorithm, inv_type, t)
                if algorithm != "mpd_kfac_co":
                    assert {stage for stage, _, _ in sent} == {"predcomm"}, where
                    got = sorted((shapes.index(x.shape), root) for _, root, x in sent)
                    assert got == list(enumerate(owners)), where
                elif t % 2:
                    assert sent == [], where
                else:
                    assert {stage for stage, _, _ in sent} == {"inversecomm"}, where
                    layer_of = {id(x): i for i, s in cluster.factors.items()
                                for x in _decomposition_payload(s, inv_type)}
                    got = sorted((layer_of.get(id(x), -1), root) for _, root, x in sent)
                    assert got == sorted((i, owners[i]) for i in layer_of.values()), where


def test_ssgd_single_worker_equals_plain_sgd():
    batch = _batch()
    cluster = build_cluster(SPEC, "ssgd", 1, seed=4)
    reference = init_network(SPEC, seed=4)
    momentum = init_momentum(reference)
    for t in range(10):
        run_step(cluster, batch, KfacHyper(), 0.05, 0.9, t)
        _, captures = forward(reference, batch)
        sgd_step(reference, backward(reference, batch, captures)[0], 0.05, momentum, 0.9)
    ref = np.concatenate([l.weight.ravel() for l in reference.layers])
    assert np.array_equal(_weights(cluster), ref)


def test_ssgd_disjoint_matches_full_batch():
    batch = _batch()

    def run(workers):
        cluster = build_cluster(SPEC, "ssgd", workers, seed=4)
        for t in range(20):
            run_step(cluster, batch, KfacHyper(), 0.05, 0.9, t)
        return _weights(cluster)

    assert np.abs(run(2) - run(1)).max() <= 1e-13


def test_ssgd_logs_no_second_order_traffic():
    cluster = build_cluster(SPEC, "ssgd", 4, seed=0)
    entry = run_step(cluster, _batch(), KfacHyper(), 0.05, 0.9, 0).counters
    assert entry.factorcomm == entry.predcomm == entry.inversecomm == 0
    assert entry.factorcomp == entry.inversecomp == 0
    assert entry.gradcomm > 0


def test_mpd_factorcomm_formula_single_layer():
    # one 4 -> 3 layer (no bias): N_f = 16 + 9 = 25, so P=4 moves 150 elements
    spec = NetworkSpec((4, 3), activation="identity")
    batch = Batch(np.random.default_rng(0).standard_normal((4, 8)),
                  np.random.default_rng(1).integers(0, 3, size=8))
    cluster = build_cluster(spec, "mpd_kfac_mo", 4, seed=0)
    res = run_step(cluster, batch, KfacHyper(), 0.05, 0.9, 0)
    assert res.counters.factorcomm == 150


def test_stale_iterations_skip_factor_traffic():
    hyper = KfacHyper(f_freq=5, k_freq=10)
    batch = _batch()
    mpd = build_cluster(SPEC, "mpd_kfac_mo", 4, seed=0)
    dp = build_cluster(SPEC, "dp_kfac", 4, seed=0)
    mpd_steps, dp_steps = [], []
    for t in range(10):
        mpd_steps.append(run_step(mpd, batch, hyper, 0.05, 0.9, t).counters)
        dp_steps.append(run_step(dp, batch, hyper, 0.05, 0.9, t).counters)
    for t, entry in enumerate(mpd_steps):
        if t % 5 == 0:
            assert entry.factorcomm > 0 and entry.factorcomp > 0
        else:
            assert entry.factorcomm == 0 and entry.factorcomp == 0
        assert entry.predcomm > 0  # preconditioned gradients move every step
        assert entry.inversecomp == (0 if t % 10 else dp_expected_inverse(mpd, t))
    for entry in dp_steps:
        assert entry.factorcomm == 0
        assert entry.predcomm > 0


def dp_expected_inverse(cluster, t):
    per_worker = [0] * cluster.n_workers
    for owner, dims in zip(round_robin_owners(cluster.n_layers, cluster.n_workers),
                           cluster.layer_dims()):
        per_worker[owner] += layer_counts(dims)[1]
    return max(per_worker)


def test_same_seed_same_log_and_weights():
    def run():
        cluster = build_cluster(SPEC, "dp_kfac", 4, seed=11)
        log = [run_step(cluster, _batch(), KfacHyper(), 0.05, 0.9, t).counters
               for t in range(5)]
        return _weights(cluster), log

    w1, log1 = run()
    w2, log2 = run()
    assert np.array_equal(w1, w2)
    assert log1 == log2


def test_kfac_errors_carry_worker_and_layer():
    cluster = build_cluster(SPEC, "dp_kfac", 2, seed=0)
    hyper = KfacHyper(gamma=0.0)  # zero damping on singular factors must fail
    # make the first worker's first-layer stats rank-deficient by zeroing inputs
    with pytest.raises(NumericError, match=r"^worker 0, layer 0, iteration 0:"):
        run_step(cluster, _poisoned(_batch(), 2, 0, 0.0), hyper, 0.05, 0.9, 0)


@pytest.mark.parametrize("algorithm", ["mpd_kfac_co", "mpd_kfac_mo", "dp_kfac"])
def test_refresh_failure_names_its_iteration(monkeypatch, algorithm):
    # steps 0 and 1 succeed; the refresh at step 2 fails in the owner of layer 1
    cluster = build_cluster(SPEC, algorithm, 2, seed=0)
    hyper = KfacHyper(k_freq=2)
    for t in range(2):
        run_step(cluster, _batch(), hyper, 0.05, 0.9, t)
    original = kfac.sym_eig

    def failing(m):
        if m.shape[0] == SPEC.layer_dims[2]:  # layer 1's G factor
            raise NumericError("eigendecomposition failed")
        return original(m)

    monkeypatch.setattr(kfac, "sym_eig", failing)
    owner = cluster.owners[1]
    with pytest.raises(NumericError,
                       match=rf"^worker {owner}, layer 1, iteration 2: eigendecomposition failed$"):
        run_step(cluster, _batch(), hyper, 0.05, 0.9, 2)


@pytest.mark.parametrize("algorithm", ["mpd_kfac_co", "mpd_kfac_mo"])
def test_factor_build_failure_names_the_building_worker(monkeypatch, algorithm):
    # layer 0 is owned by worker 0, but its factors are also built by worker
    # 1, and a failure there is worker 1's
    cluster = build_cluster(SPEC, algorithm, 2, seed=0)
    batch = _batch()
    shards = _shards(batch, 2)
    assert cluster.owners[0] == 0
    original = kfac.compute_factors

    def failing(captured_inputs, captured_preact_grads):
        if (captured_inputs.shape[0] == SPEC.layer_dims[0] + 1
                and np.array_equal(captured_inputs[:-1], shards[1].inputs)):
            raise NumericError("injected factor failure")
        return original(captured_inputs, captured_preact_grads)

    monkeypatch.setattr(kfac, "compute_factors", failing)
    with pytest.raises(NumericError, match=r"^worker 1, layer 0, iteration 0: injected factor failure"):
        run_step(cluster, batch, KfacHyper(), 0.05, 0.9, 0)


# ---------------------------------------------------------------------------
# the local passes: worker spans of one pass over the global batch


@pytest.mark.parametrize("algorithm", ["ssgd", "mpd_kfac_co", "mpd_kfac_mo", "dp_kfac"])
def test_run_step_runs_one_forward_and_one_backward_per_step(monkeypatch, algorithm):
    # perfbench traces the passes through these two bindings
    calls = []
    for name in ("forward", "backward"):
        def counted(*args, _name=name, _original=getattr(distsim, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(distsim, name, counted)
    cluster = build_cluster(SPEC, algorithm, 4, seed=0)
    for t in range(3):
        calls.clear()
        run_step(cluster, _batch(), KfacHyper(k_freq=2), 0.05, 0.9, t)
        assert calls == ["forward", "backward"], (algorithm, t)


@pytest.mark.parametrize("policy", ["disjoint", "replicate"])
def test_run_step_passes_the_callers_batch_to_both_passes(monkeypatch, policy):
    # no per-worker copies or views: each pass runs over the caller's batch
    seen = []
    for name in ("forward", "backward"):
        def spying(net, batch, *args, _original=getattr(distsim, name)):
            seen.append(batch)
            return _original(net, batch, *args)
        monkeypatch.setattr(distsim, name, spying)
    batch = _batch()
    run_step(build_cluster(SPEC, "dp_kfac", 4, seed=0, shard_policy=policy),
             batch, KfacHyper(), 0.05, 0.9, 0)
    assert len(seen) == 2 and all(b is batch for b in seen)


def _per_worker_loop(net, shards):
    """The local passes as P separate passes, one per worker's columns."""
    passes, losses = [], []
    for shard in shards:
        loss, captures = forward(net, shard)
        grads, preact_grads = backward(net, shard, captures)
        passes.append((grads, captures[:-1], preact_grads))
        losses.append(loss)
    return passes, float(np.mean(losses))


BLOCK_SPEC = NetworkSpec((64, 64, 10), activation="tanh", bias_mode="homogeneous")


def _block_case(spec, workers, b, order="C", policy="disjoint"):
    """Pairs of (per-worker pass, the worker's span of the one pass the step
    makes): the mean loss, then each worker's gradients, input captures and
    pre-activation gradients."""
    rng = np.random.default_rng(workers * 1000 + b)
    net = init_network(spec, seed=b)
    batch = Batch(np.asarray(rng.standard_normal((spec.layer_dims[0], workers * b)), order=order),
                  rng.integers(0, spec.layer_dims[-1], size=workers * b))
    want, want_loss = _per_worker_loop(net, _shards(batch, workers, policy))
    spans = worker_spans(batch.size, workers, policy)
    losses, captures = forward(net, batch, spans)
    grads, preact_grads = backward(net, batch, captures, spans)
    assert len(grads) == workers
    pairs = [(want_loss, float(np.mean(losses)))]
    for (w_grads, w_inputs, w_preact_grads), span_grads, span in zip(want, grads, spans):
        got = (span_grads + [c[:, span] for c in captures[:-1]]
               + [g[:, span] for g in preact_grads])
        pairs += list(zip(w_grads + w_inputs + w_preact_grads, got))
    return pairs


@pytest.mark.parametrize("workers", [1, 3, 4, 8])
@pytest.mark.parametrize("b", [32, 40])
def test_block_pass_equals_per_worker_passes_bitwise(workers, b):
    for want, got in _block_case(BLOCK_SPEC, workers, b):
        assert np.shape(want) == np.shape(got) and np.array_equal(want, got)


@pytest.mark.parametrize("workers", [2, 3, 8])
@pytest.mark.parametrize("b", [1, 13, 16])
def test_replicated_shards_share_one_pass_bitwise(workers, b):
    for want, got in _block_case(BLOCK_SPEC, workers, b, policy="replicate"):
        assert np.array_equal(want, got)


@pytest.mark.parametrize("spec, b, order", [
    (BLOCK_SPEC, 1, "C"),
    (BLOCK_SPEC, 13, "C"),
    (BLOCK_SPEC, 16, "C"),
    (NetworkSpec((64, 33, 17, 10), activation="relu", bias_mode="homogeneous"), 16, "C"),
    (NetworkSpec((64, 64, 10), activation="tanh", bias_mode="none"), 16, "F"),
    (NetworkSpec((64, 64, 10), activation="tanh", bias_mode="none"), 32, "F"),
])
def test_block_pass_matches_per_worker_passes_to_rounding(spec, b, order):
    # a wider matrix product may pick another BLAS kernel: the last bits may move
    for want, got in _block_case(spec, 8, b, order):
        assert np.shape(want) == np.shape(got)
        assert np.abs(np.subtract(want, got)).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("worker", [0, 2, 3])
def test_non_finite_loss_in_a_block_names_its_worker(worker):
    cluster = build_cluster(SPEC, "dp_kfac", 4, seed=0)
    before = _weights(cluster)
    with pytest.raises(NumericError, match=rf"^worker {worker}, iteration 2: training loss"):
        run_step(cluster, _poisoned(_batch(), 4, worker, np.inf), KfacHyper(), 0.05, 0.9, 2)
    assert np.array_equal(_weights(cluster), before)


def test_step_targets_must_match_the_batch_columns():
    # one target per column of the global batch, whatever the worker spans
    batch = _batch()
    short = Batch(batch.inputs, batch.targets[:-1])
    before = _weights(build_cluster(SPEC, "ssgd", 2, seed=0))
    for policy in ("disjoint", "replicate"):
        cluster = build_cluster(SPEC, "ssgd", 2, seed=0, shard_policy=policy)
        with pytest.raises(ShapeError, match=r"^expected 32 class indices, got shape \(31,\)$"):
            run_step(cluster, short, KfacHyper(), 0.05, 0.9, 0)
        assert np.array_equal(_weights(cluster), before)


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_lr_schedule_warmup_endpoints():
    hyper = HyperConfig(lr=0.1, warmup_iters=98)
    assert hyper.lr_at(0, 0, 4) == 0.1
    assert abs(hyper.lr_at(98, 0, 4) - 0.4) <= 1e-15


def test_lr_schedule_decay_boundaries():
    hyper = HyperConfig(lr=0.1, warmup_iters=98, decay_epochs=(35, 75, 90))
    peak = 0.4
    assert abs(hyper.lr_at(10_000, 34, 4) - peak) <= 1e-15
    assert abs(hyper.lr_at(10_000, 35, 4) - peak / 10) <= 1e-15
    assert abs(hyper.lr_at(10_000, 75, 4) - peak / 100) <= 1e-16
    assert abs(hyper.lr_at(10_000, 95, 4) - peak / 1000) <= 1e-17


def test_lr_schedule_no_warmup_starts_at_peak():
    hyper = HyperConfig(lr=0.05, warmup_iters=0)
    assert hyper.lr_at(0, 0, 8) == 0.4
