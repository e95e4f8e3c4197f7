import numpy as np
import pytest

from kfaclab import distsim, kfac
from kfaclab.costmodel import round_robin_partition
from kfaclab.distsim import (
    LrSchedule,
    StepCounters,
    all_reduce_avg,
    broadcast,
    build_cluster,
    lr_schedule,
    run_step,
    shard_batch,
)
from kfaclab.errors import ArgumentError, NumericError, ShapeError
from kfaclab.kfac import KfacHyper
from kfaclab.model import Batch, NetworkSpec, backward, forward, init_momentum, init_network, sgd_step


def _weights(cluster, rank=0):
    return np.concatenate([l.weight.ravel() for l in cluster.workers[rank].replica.layers])


def _batch(seed=0, d=6, B=32, classes=4):
    rng = np.random.default_rng(seed)
    return Batch(rng.standard_normal((d, B)), rng.integers(0, classes, size=B))


SPEC = NetworkSpec((6, 8, 4), activation="tanh", bias_mode="homogeneous")


# ---------------------------------------------------------------------------
# partition


def test_round_robin_one_layer_each():
    assert round_robin_partition(4, 4) == ((0,), (1,), (2,), (3,))


def test_round_robin_five_layers_two_workers():
    assert round_robin_partition(5, 2) == ((0, 2, 4), (1, 3))


def test_round_robin_single_worker_owns_all():
    assert round_robin_partition(7, 1) == (tuple(range(7)),)


def test_round_robin_more_workers_than_layers():
    parts = round_robin_partition(3, 8)
    assert len(parts) == 8
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(i for part in parts for i in part) == [0, 1, 2]


# ---------------------------------------------------------------------------
# collectives


def test_all_reduce_mean():
    out = all_reduce_avg([np.array([1.0, 3.0]), np.array([3.0, 5.0])])
    assert np.array_equal(out, np.array([2.0, 4.0]))


def test_all_reduce_identical_inputs_idempotent():
    x = np.random.default_rng(0).standard_normal((3, 5))
    for workers in (1, 2, 4, 8):
        assert np.array_equal(all_reduce_avg([x] * workers), x)


def test_all_reduce_counter_volume():
    counters = StepCounters()
    all_reduce_avg([np.zeros(10)] * 4, counters, "gradcomm")
    assert counters.gradcomm == 60  # 2 * (P-1) * N


def test_all_reduce_shape_mismatch_names_worker():
    with pytest.raises(ShapeError, match="worker 1"):
        all_reduce_avg([np.zeros(3), np.zeros(4)])


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
            out = all_reduce_avg(inputs)
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
        broadcast(4, np.zeros(2), 4)


def test_shard_disjoint_contiguous_slices():
    batch = _batch(B=8)
    shards = shard_batch(batch, 2, "disjoint")
    assert np.array_equal(shards[0].inputs, batch.inputs[:, :4])
    assert np.array_equal(shards[1].inputs, batch.inputs[:, 4:])
    assert np.array_equal(shards[0].targets, batch.targets[:4])


def test_shard_replicate_identical():
    batch = _batch(B=6)
    shards = shard_batch(batch, 3, "replicate")
    assert all(s is batch for s in shards)


def test_shard_indivisible_batch_rejected():
    with pytest.raises(ArgumentError):
        shard_batch(_batch(B=10), 4, "disjoint")


def test_shard_mean_of_shard_gradients_equals_full_batch():
    batch = _batch(B=16)
    net = init_network(SPEC, seed=0)
    full, _ = backward(net, batch, forward(net, batch)[1])
    shards = shard_batch(batch, 4, "disjoint")
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
        cluster = build_cluster(SPEC, "dp_kfac", workers, seed=7)
        for t in range(20):
            run_step(cluster, shard_batch(batch, workers, "replicate"),
                     hyper, 0.05, 0.9, t)
        return _weights(cluster)

    reference = run(1)
    for workers in (2, 4, 8):
        assert np.array_equal(run(workers), reference), f"P={workers} diverged"


def test_mpd_replicate_matches_single_worker():
    hyper = KfacHyper()
    batch = _batch()
    single = build_cluster(SPEC, "dp_kfac", 1, seed=7)
    multi = build_cluster(SPEC, "mpd_kfac_co", 2, seed=7)
    for t in range(10):
        run_step(single, [batch], hyper, 0.05, 0.9, t)
        run_step(multi, shard_batch(batch, 2, "replicate"), hyper, 0.05, 0.9, t)
    assert np.array_equal(_weights(single), _weights(multi))


def test_dp_equals_mpd_on_one_worker():
    hyper = KfacHyper()
    batch = _batch()
    dp = build_cluster(SPEC, "dp_kfac", 1, seed=3)
    mo = build_cluster(SPEC, "mpd_kfac_mo", 1, seed=3)
    for t in range(8):
        run_step(dp, [batch], hyper, 0.1, 0.9, t)
        run_step(mo, [batch], hyper, 0.1, 0.9, t)
    assert np.array_equal(_weights(dp), _weights(mo))


def test_mpd_co_and_mo_agree():
    hyper = KfacHyper()
    batch = _batch()

    def run(variant):
        cluster = build_cluster(SPEC, f"mpd_kfac_{variant}", 4, seed=5)
        for t in range(12):
            run_step(cluster, shard_batch(batch, 4, "disjoint"),
                     hyper, 0.05, 0.9, t)
        return _weights(cluster)

    assert np.abs(run("co") - run("mo")).max() <= 1e-14


def test_mpd_co_and_mo_bit_identical():
    hyper = KfacHyper()
    batch = _batch()

    def run(variant):
        cluster = build_cluster(SPEC, f"mpd_kfac_{variant}", 4, seed=5)
        for t in range(12):
            run_step(cluster, shard_batch(batch, 4, "disjoint"),
                     hyper, 0.05, 0.9, t)
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
    shards = shard_batch(_batch(B=30), workers, "disjoint")
    run_step(cluster, shards, KfacHyper(), 0.05, 0.9, 0)
    for worker, shard in zip(cluster.workers, shards):
        _, captures = forward(reference, shard)
        _, preact_grads = backward(reference, shard, captures)
        assert worker.factors
        for i, state in worker.factors.items():
            a_cov, g_cov = kfac.compute_factors(captures[i].input, preact_grads[i])
            assert np.array_equal(state.a_cov, a_cov), (worker.rank, i)
            assert np.array_equal(state.g_cov, g_cov), (worker.rank, i)


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
            run_step(cluster, shard_batch(_batch(), 4, "disjoint"),
                     KfacHyper(), 0.05, 0.9, t)
            assert calls == [t] * cluster.n_layers
            for i in range(cluster.n_layers):
                lead = cluster.workers[0].factors[i]
                for worker in cluster.workers[1:]:
                    state = worker.factors[i]
                    assert state.a_cov is lead.a_cov and state.g_cov is lead.g_cov
                    assert state.initialized and state.last_factor_update == t


def _symmetrized_second_moment(x):
    m = x @ x.T / x.shape[1]
    return (m + m.T) / 2.0


def _worker_major_factor_stage(states, passes, hyper, t, owners, comm_opt):
    """Reference worker-major MPD factor stage: every worker builds every
    layer's raw factors with an explicit symmetrization, each layer is
    averaged by the allocating tree and folded into every worker's own copy,
    then the owner (under COMM-OPT every worker, with the same bits)
    rebuilds the decomposition."""
    n_layers = len(owners)
    if kfac.is_factor_update(t, hyper):
        raw = [[(_symmetrized_second_moment(inputs[i]), _symmetrized_second_moment(grads[i]))
                for i in range(n_layers)] for inputs, grads in passes]
        for i in range(n_layers):
            a_avg = _allocating_tree_avg([r[i][0] for r in raw])
            g_avg = _allocating_tree_avg([r[i][1] for r in raw])
            for worker_states in states:
                kfac.update_running_average(worker_states[i], a_avg, g_avg, hyper.xi, t)
    if kfac.is_inverse_update(t, hyper):
        for p, worker_states in enumerate(states):
            for i in range(n_layers):
                if comm_opt or owners[i] == p:
                    kfac.refresh_inverses(worker_states[i], hyper, t)


def _factor_state_bits(state):
    eig = [(pair.q.tobytes(), pair.values.tobytes()) if pair is not None else None
           for pair in (state.a_eig, state.g_eig)]
    arrays = [a.tobytes() if a is not None else None
              for a in (state.a_cov, state.g_cov, state.a_damped_inv, state.g_damped_inv)]
    return (state.initialized, state.last_factor_update, state.last_inverse_update,
            eig, arrays)


@pytest.mark.parametrize("freqs", [(1, 1), (2, 3)])
@pytest.mark.parametrize("inv_type", kfac.INV_TYPES)
@pytest.mark.parametrize("algorithm", ["mpd_kfac_co", "mpd_kfac_mo"])
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_mpd_factor_states_match_worker_major_oracle(workers, algorithm, inv_type, freqs):
    hyper = KfacHyper(inv_type=inv_type, f_freq=freqs[0], k_freq=freqs[1])
    cluster = build_cluster(SPEC, algorithm, workers, seed=4)
    owners = [cluster.owner_of(i) for i in range(cluster.n_layers)]
    oracle = [{i: kfac.FactorState() for i in range(cluster.n_layers)}
              for _ in range(workers)]
    for t in range(7):
        shards = shard_batch(_batch(seed=t, B=48), workers, "disjoint")
        passes = []
        for shard in shards:
            _, captures = forward(cluster.net, shard)
            _, preact_grads = backward(cluster.net, shard, captures)
            passes.append(([c.input for c in captures], preact_grads))
        _worker_major_factor_stage(oracle, passes, hyper, t, owners,
                                   algorithm == "mpd_kfac_co")
        run_step(cluster, shards, hyper, 0.05, 0.9, t)
        for worker, want in zip(cluster.workers, oracle):
            for i in range(cluster.n_layers):
                assert (_factor_state_bits(worker.factors[i])
                        == _factor_state_bits(want[i])), (t, worker.rank, i)


def test_mpd_co_preconditions_each_layer_once_per_step(monkeypatch):
    calls = []
    original = kfac.apply_preconditioner

    def counting(state, grad, hyper):
        calls.append(grad.shape)
        return original(state, grad, hyper)

    monkeypatch.setattr(kfac, "apply_preconditioner", counting)
    cluster = build_cluster(SPEC, "mpd_kfac_co", 4, seed=0)
    for t in range(3):
        calls.clear()
        run_step(cluster, shard_batch(_batch(), 4, "disjoint"),
                 KfacHyper(), 0.05, 0.9, t)
        assert len(calls) == cluster.n_layers


def test_non_finite_loss_names_worker_and_iteration():
    cluster = build_cluster(SPEC, "ssgd", 2, seed=0)
    shards = shard_batch(_batch(), 2, "disjoint")
    poisoned = Batch(np.full_like(shards[1].inputs, np.inf), shards[1].targets)
    with pytest.raises(NumericError, match=r"worker 1, iteration 7"):
        run_step(cluster, [shards[0], poisoned], KfacHyper(), 0.05, 0.9, 7)


def test_non_finite_aggregated_gradient_names_layer_and_iteration(monkeypatch):
    original = distsim.backward

    def poisoned(net, batch, captures):
        grads, preact_grads = original(net, batch, captures)
        grads[1][0, 0] = np.nan
        return grads, preact_grads

    monkeypatch.setattr(distsim, "backward", poisoned)
    cluster = build_cluster(SPEC, "ssgd", 2, seed=0)
    before = _weights(cluster)
    with pytest.raises(NumericError, match=r"^layer 1, iteration 5: aggregated gradient"):
        run_step(cluster, shard_batch(_batch(), 2, "disjoint"), KfacHyper(), 0.05, 0.9, 5)
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
        run_step(cluster, shard_batch(_batch(), 2, "disjoint"), KfacHyper(), 0.05, 0.9, 3)
    assert np.array_equal(_weights(cluster), before)


def test_replicas_identical_after_each_algorithm():
    batch = _batch()
    hyper = KfacHyper()
    for algorithm in distsim.ALGORITHMS:
        cluster = build_cluster(SPEC, algorithm, 4, seed=2)
        for t in range(3):
            distsim.run_step(cluster, shard_batch(batch, 4, "disjoint"),
                             hyper, 0.05, 0.9, t)
        for worker in cluster.workers[1:]:
            for i in range(cluster.n_layers):
                assert np.array_equal(worker.replica.layers[i].weight,
                                      cluster.workers[0].replica.layers[i].weight)


def test_dp_ownership_trace_matches_assignment():
    cluster = build_cluster(SPEC, "dp_kfac", 2, seed=0)
    res = run_step(cluster, shard_batch(_batch(), 2, "disjoint"),
                   KfacHyper(), 0.05, 0.9, 0)
    assert sorted(res.preconditioned_by) == list(range(cluster.n_layers))
    for layer, owner in res.preconditioned_by.items():
        assert layer in cluster.config.assignment[owner]


def test_ssgd_single_worker_equals_plain_sgd():
    batch = _batch()
    cluster = build_cluster(SPEC, "ssgd", 1, seed=4)
    reference = init_network(SPEC, seed=4)
    momentum = init_momentum(reference)
    for t in range(10):
        run_step(cluster, [batch], KfacHyper(), 0.05, 0.9, t)
        _, captures = forward(reference, batch)
        sgd_step(reference, backward(reference, batch, captures)[0], 0.05, momentum, 0.9)
    ref = np.concatenate([l.weight.ravel() for l in reference.layers])
    assert np.array_equal(_weights(cluster), ref)


def test_ssgd_disjoint_matches_full_batch():
    batch = _batch()

    def run(workers):
        cluster = build_cluster(SPEC, "ssgd", workers, seed=4)
        for t in range(20):
            run_step(cluster, shard_batch(batch, workers, "disjoint"), KfacHyper(), 0.05, 0.9, t)
        return _weights(cluster)

    assert np.abs(run(2) - run(1)).max() <= 1e-13


def test_ssgd_logs_no_second_order_traffic():
    cluster = build_cluster(SPEC, "ssgd", 4, seed=0)
    run_step(cluster, shard_batch(_batch(), 4, "disjoint"), KfacHyper(), 0.05, 0.9, 0)
    entry = cluster.log.steps[0]
    assert entry.factorcomm == entry.predcomm == entry.inversecomm == 0
    assert entry.factorcomp == entry.inversecomp == 0
    assert entry.gradcomm > 0


def test_mpd_factorcomm_formula_single_layer():
    # one 4 -> 3 layer (no bias): N_f = 16 + 9 = 25, so P=4 moves 150 elements
    spec = NetworkSpec((4, 3), activation="identity")
    batch = Batch(np.random.default_rng(0).standard_normal((4, 8)),
                  np.random.default_rng(1).integers(0, 3, size=8))
    cluster = build_cluster(spec, "mpd_kfac_mo", 4, seed=0)
    run_step(cluster, shard_batch(batch, 4, "disjoint"), KfacHyper(), 0.05, 0.9, 0)
    assert cluster.log.steps[0].factorcomm == 150


def test_stale_iterations_skip_factor_traffic():
    hyper = KfacHyper(f_freq=5, k_freq=10)
    batch = _batch()
    mpd = build_cluster(SPEC, "mpd_kfac_mo", 4, seed=0)
    dp = build_cluster(SPEC, "dp_kfac", 4, seed=0)
    for t in range(10):
        shards = shard_batch(batch, 4, "disjoint")
        run_step(mpd, shards, hyper, 0.05, 0.9, t)
        run_step(dp, shards, hyper, 0.05, 0.9, t)
    for t, entry in enumerate(mpd.log.steps):
        if t % 5 == 0:
            assert entry.factorcomm > 0 and entry.factorcomp > 0
        else:
            assert entry.factorcomm == 0 and entry.factorcomp == 0
        assert entry.predcomm > 0  # preconditioned gradients move every step
        assert entry.inversecomp == (0 if t % 10 else dp_expected_inverse(mpd, t))
    for entry in dp.log.steps:
        assert entry.factorcomm == 0
        assert entry.predcomm > 0


def dp_expected_inverse(cluster, t):
    from kfaclab.costmodel import layer_counts
    dims = cluster.layer_dims()
    per_worker = [
        sum(layer_counts(dims[i])[1] for i in part)
        for part in cluster.config.assignment
    ]
    return max(per_worker)


def test_same_seed_same_log_and_weights():
    def run():
        cluster = build_cluster(SPEC, "dp_kfac", 4, seed=11)
        for t in range(5):
            run_step(cluster, shard_batch(_batch(), 4, "disjoint"),
                     KfacHyper(), 0.05, 0.9, t)
        return _weights(cluster), cluster.log

    w1, log1 = run()
    w2, log2 = run()
    assert np.array_equal(w1, w2)
    assert log1 == log2


def test_kfac_errors_carry_worker_and_layer():
    cluster = build_cluster(SPEC, "dp_kfac", 2, seed=0)
    batch = _batch()
    shards = shard_batch(batch, 2, "disjoint")
    hyper = KfacHyper(gamma=0.0)  # zero damping on singular factors must fail
    # make the first worker's first-layer stats rank-deficient by zeroing inputs
    zero_inputs = Batch(np.zeros_like(shards[0].inputs), shards[0].targets)
    with pytest.raises(Exception, match=r"worker \d+, layer \d+"):
        run_step(cluster, [zero_inputs, shards[1]], hyper, 0.05, 0.9, 0)


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_lr_schedule_warmup_endpoints():
    sched = LrSchedule(base_lr=0.1, workers=4, warmup_iters=98)
    assert lr_schedule(0, 0, sched) == 0.1
    assert abs(lr_schedule(98, 0, sched) - 0.4) <= 1e-15


def test_lr_schedule_decay_boundaries():
    sched = LrSchedule(base_lr=0.1, workers=4, warmup_iters=98,
                       decay_epochs=(35, 75, 90))
    peak = 0.4
    assert abs(lr_schedule(10_000, 34, sched) - peak) <= 1e-15
    assert abs(lr_schedule(10_000, 35, sched) - peak / 10) <= 1e-15
    assert abs(lr_schedule(10_000, 75, sched) - peak / 100) <= 1e-16
    assert abs(lr_schedule(10_000, 95, sched) - peak / 1000) <= 1e-17


def test_lr_schedule_no_warmup_starts_at_peak():
    sched = LrSchedule(base_lr=0.05, workers=8, warmup_iters=0)
    assert lr_schedule(0, 0, sched) == 0.4
