"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
the assertions carry the same tolerances, so a red test is a failed criterion.
"""

import numpy as np
import pytest

from kfaclab import cli, costmodel, distsim, kfac, numerics
from kfaclab.config import DataConfig, HyperConfig, RunConfig, TrainConfig
from kfaclab.kfac import KfacHyper
from kfaclab.model import (
    Batch,
    NetworkSpec,
    backward,
    finite_diff_grad,
    forward,
    init_network,
)
from kfaclab.trainer import run_training

SEEDS = (101, 202, 303, 404, 505)
TARGET_TRAIN_LOSS = 0.2


def _report(number, title, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {number}: {title} :: {detail}")
    assert passed, f"criterion {number} ({title}): {detail}"


def _random_spd(rng, dim, floor=1.0):
    b = rng.standard_normal((dim, dim))
    return b @ b.T / dim + floor * np.eye(dim)


def test_criterion_1_eigen_damping_exactness():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        d_a, d_g = rng.integers(1, 7, size=2)
        a, g = _random_spd(rng, d_a), _random_spd(rng, d_g)
        grad = rng.standard_normal((d_g, d_a))
        scale = max(np.abs(grad).max(), 1e-300)
        a_eig, g_eig = numerics.sym_eig(a), numerics.sym_eig(g)
        for gamma in (1e-3, 0.03, 1.0):
            fast = kfac.precondition_eigen(a_eig, g_eig, grad, gamma)
            exact = kfac.exact_precondition_oracle(a, g, grad, gamma)
            worst = max(worst, float(np.abs(fast - exact).max()) / scale)
    _report(1, "eigen damping vs dense Kronecker oracle", worst <= 1e-10,
            f"1000 factor pairs x 3 damping values, max scaled deviation {worst:.2e} <= 1e-10")


def test_criterion_2_inverse_damping_factored_exactness():
    rng = np.random.default_rng(1002)
    worst_f = worst_0 = 0.0
    for _ in range(1000):
        d_a, d_g = rng.integers(1, 7, size=2)
        a, g = _random_spd(rng, d_a), _random_spd(rng, d_g)
        grad = rng.standard_normal((d_g, d_a))
        scale = max(np.abs(grad).max(), 1e-300)
        for gamma in (1e-3, 0.03, 1.0):
            fast = kfac.precondition_inverse(a, g, grad, gamma)
            oracle = kfac.factored_precondition_oracle(a, g, grad, gamma)
            worst_f = max(worst_f, float(np.abs(fast - oracle).max()) / scale)
        # split-damping cross term decays as sqrt(gamma)/lambda^3: the exact
        # agreement at gamma -> 0 is checked on strongly regularized spectra
        a0, g0 = _random_spd(rng, d_a, floor=20.0), _random_spd(rng, d_g, floor=20.0)
        tiny = kfac.precondition_inverse(a0, g0, grad, 1e-12)
        exact = kfac.exact_precondition_oracle(a0, g0, grad, 1e-12)
        worst_0 = max(worst_0, float(np.abs(tiny - exact).max()))
    ok = worst_f <= 1e-10 and worst_0 <= 1e-8
    _report(2, "inverse damping vs factored oracle + gamma->0 limit", ok,
            f"factored deviation {worst_f:.2e} <= 1e-10; "
            f"exact-oracle deviation at gamma=1e-12 {worst_0:.2e} <= 1e-8")


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for trial in range(50):
        depth = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(2, 9)) for _ in range(depth + 1))
        loss = "softmax_cross_entropy" if trial % 2 == 0 else "mean_squared_error"
        spec = NetworkSpec(dims, activation="tanh", loss_kind=loss)
        net = init_network(spec, seed=trial)
        B = int(rng.integers(1, 7))
        inputs = rng.standard_normal((dims[0], B))
        if loss == "softmax_cross_entropy":
            targets = rng.integers(0, dims[-1], size=B)
        else:
            targets = rng.standard_normal((dims[-1], B))
        batch = Batch(inputs, targets)
        _, captures = forward(net, batch)
        bp, _ = backward(net, batch, captures)
        fd = finite_diff_grad(net, batch, h=1e-5)
        for gb, gf in zip(bp, fd):
            denom = np.maximum(1.0, np.maximum(np.abs(gb), np.abs(gf)))
            worst = max(worst, float((np.abs(gb - gf) / denom).max()))
    _report(3, "backprop vs central finite differences", worst <= 1e-5,
            f"50 random tanh nets, max relative error {worst:.2e} <= 1e-5")


SPEC_DIST = NetworkSpec((6, 8, 4), activation="tanh", bias_mode="homogeneous")


def _dist_batch():
    rng = np.random.default_rng(77)
    return Batch(rng.standard_normal((6, 32)), rng.integers(0, 4, size=32))


def _final_weights(cluster):
    return np.concatenate([l.weight.ravel() for l in cluster.workers[0].replica.layers])


def test_criterion_4_distributed_equivalence():
    batch = _dist_batch()
    hyper = KfacHyper()

    def run(algorithm, workers, policy, steps=20, variant=None):
        cluster = distsim.build_cluster(SPEC_DIST, algorithm, workers, seed=5)
        for t in range(steps):
            shards = distsim.shard_batch(batch, workers, policy)
            if algorithm == "ssgd":
                distsim.ssgd_step(cluster, shards, 0.05, 0.9, t)
            elif algorithm == "dp_kfac":
                distsim.dp_kfac_step(cluster, shards, hyper, 0.05, 0.9, t)
            else:
                distsim.mpd_kfac_step(cluster, shards, hyper, 0.05, 0.9, t, variant)
        return _final_weights(cluster)

    single = run("dp_kfac", 1, "replicate")
    bitwise = all(np.array_equal(run("dp_kfac", p, "replicate"), single)
                  for p in (2, 4, 8))
    ssgd_delta = float(np.abs(run("ssgd", 2, "disjoint") - run("ssgd", 1, "disjoint")).max())
    co_mo_delta = float(np.abs(
        run("mpd_kfac_co", 4, "disjoint", variant="co")
        - run("mpd_kfac_mo", 4, "disjoint", variant="mo")
    ).max())
    ok = bitwise and ssgd_delta <= 1e-13 and co_mo_delta <= 1e-14
    _report(4, "distributed equivalences over 20 steps", ok,
            f"dp replicate bit-identical for P in {{2,4,8}}: {bitwise}; "
            f"ssgd disjoint vs full batch {ssgd_delta:.2e} <= 1e-13; "
            f"co vs mo {co_mo_delta:.2e} <= 1e-14")


def test_criterion_5_complexity_table_reproduction():
    batch_small = Batch(np.random.default_rng(3).standard_normal((6, 16)),
                        np.random.default_rng(4).integers(0, 4, size=16))
    hyper = KfacHyper(f_freq=2, k_freq=2)
    mismatches = []
    dp_factorcomm_total = 0
    for algorithm in distsim.ALGORITHMS:
        for workers in (1, 2, 4, 8, 64):
            cluster = distsim.build_cluster(SPEC_DIST, algorithm, workers, seed=0)
            for t in range(4):  # t = 0, 2 are full second-order updates
                shards = distsim.shard_batch(batch_small, workers, "replicate")
                distsim.run_step(cluster, shards, hyper, 0.05, 0.9, t)
            report = costmodel.algorithm_cost(cluster.layer_dims(), workers,
                                              algorithm, inv_type="eigen")
            for t in (0, 2):
                verdict = costmodel.verify_counters(report, cluster.log.steps[t])
                if not verdict.ok:
                    mismatches.append(f"{algorithm}/P={workers}/t={t}: {verdict.describe()}")
            if algorithm == "dp_kfac":
                dp_factorcomm_total += cluster.log.total("factorcomm")

    layers = [costmodel.LayerDims(l.d_in, l.d_out)
              for l in (costmodel.LayerDims(7, 8), costmodel.LayerDims(9, 4))]
    mpd = costmodel.algorithm_cost(layers, 8, "mpd_kfac_mo")
    dp = costmodel.algorithm_cost(layers, 8, "dp_kfac")
    realized_reduction = mpd.factorcomp / dp.factorcomp
    ok = not mismatches and dp_factorcomm_total == 0
    _report(5, "complexity-table counters, exact integer equality", ok,
            f"algorithms x P in {{1,2,4,8,64}}: {len(mismatches)} mismatches; "
            f"dp factorcomm on all iterations = {dp_factorcomm_total}; "
            f"factorcomm mpd->dp eliminated ({mpd.factorcomm} -> 0); "
            f"factorcomp reduction mpd/dp = {realized_reduction:.2f}x "
            f"(ideal {mpd.factorcomp / (mpd.factorcomp / 8):.0f}x, realized max refinement)")
    assert not mismatches, "\n".join(mismatches)


def test_criterion_6_resnet50_totals_and_memory_ratio():
    layers = costmodel.resolve_manifest("resnet50")
    n_g, n_f = costmodel.totals(layers)
    dev_g = abs(n_g - 25.6e6) / 25.6e6
    dev_f = abs(n_f - 153.9e6) / 153.9e6
    dp = costmodel.algorithm_cost(layers, 64, "dp_kfac")
    mpd = costmodel.algorithm_cost(layers, 64, "mpd_kfac_mo")
    ratio = dp.memory / mpd.memory
    ok = dev_g <= 0.05 and dev_f <= 0.05 and dp.memory <= mpd.memory and abs(ratio - 0.156) <= 0.005
    _report(6, "ResNet-50 manifest totals and memory ratio", ok,
            f"N_g={n_g / 1e6:.2f}M ({dev_g:.2%} from 25.6M), "
            f"N_f={n_f / 1e6:.2f}M ({dev_f:.2%} from 153.9M), "
            f"dp/mpd memory at P=64 = {ratio:.4f} (~0.156)")


# ---------------------------------------------------------------------------
# convergence criteria share one set of training runs


def _bundled_cfg(algorithm, seed, f_freq=1, k_freq=1):
    """The bundled blobs task (mirrors configs/blobs_dp_kfac.ini)."""
    return RunConfig(
        network=NetworkSpec((64, 64, 10), activation="tanh",
                            loss_kind="softmax_cross_entropy", bias_mode="homogeneous"),
        data=DataConfig(kind="gaussian_blobs", classes=10, dim=64, samples=10000,
                        noise=0.3, eval_fraction=0.1),
        train=TrainConfig(algorithm=algorithm, workers=4, shard_policy="disjoint",
                          epochs=4, batch_size=128, seed=seed),
        hyper=HyperConfig(lr=0.02, momentum=0.9, xi=0.05, gamma=0.3,
                          inv_type="eigen", f_freq=f_freq, k_freq=k_freq),
    )


def _iterations_to_target(rows):
    for row in rows:
        if row.train_loss <= TARGET_TRAIN_LOSS:
            return row.iteration
    return 10 ** 9  # never reached


@pytest.fixture(scope="module")
def convergence_medians():
    runs = {}
    for name, algorithm, freqs in (
        ("ssgd", "ssgd", (1, 1)),
        ("mpd_kfac", "mpd_kfac_mo", (1, 1)),
        ("dp_kfac", "dp_kfac", (1, 1)),
        ("dp_kfac_stale", "dp_kfac", (10, 50)),
    ):
        iters = [
            _iterations_to_target(run_training(_bundled_cfg(algorithm, seed, *freqs)).rows)
            for seed in SEEDS
        ]
        runs[name] = (float(np.median(iters)), iters)
    return runs


def test_criterion_7_convergence_ordering(convergence_medians):
    dp, dp_iters = convergence_medians["dp_kfac"]
    mpd, mpd_iters = convergence_medians["mpd_kfac"]
    ssgd, ssgd_iters = convergence_medians["ssgd"]
    reached = max(max(dp_iters), max(mpd_iters), max(ssgd_iters)) < 10 ** 9
    ok = reached and dp <= 1.05 * mpd and dp < ssgd
    _report(7, "iterations to target train loss (median over 5 seeds)", ok,
            f"target {TARGET_TRAIN_LOSS}: dp={dp:.0f} {dp_iters}, "
            f"mpd={mpd:.0f} {mpd_iters}, ssgd={ssgd:.0f} {ssgd_iters}; "
            f"dp <= 1.05*mpd and dp < ssgd")


def test_criterion_8_stale_fim_stability(convergence_medians):
    fresh, fresh_iters = convergence_medians["dp_kfac"]
    stale, stale_iters = convergence_medians["dp_kfac_stale"]
    ok = max(stale_iters) < 10 ** 9 and stale <= 1.5 * fresh
    _report(8, "stale-FIM run reaches target within 1.5x", ok,
            f"F_freq=10/K_freq=50 median {stale:.0f} {stale_iters} vs "
            f"fresh median {fresh:.0f} {fresh_iters} (ratio {stale / fresh:.2f} <= 1.5)")


def test_criterion_9_training_determinism(tmp_path):
    config = tmp_path / "det.ini"
    config.write_text("""
[network]
layer_dims = 16,12,4
activation = tanh
bias_mode = homogeneous

[data]
kind = gaussian_blobs
classes = 4
dim = 16
samples = 400
noise = 0.2

[train]
algorithm = dp_kfac
workers = 4
epochs = 2
batch_size = 36
seed = 11

[hyper]
lr = 0.05
gamma = 0.1
xi = 0.05
""")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--out-dir", str(out_a), "train", str(config)]) == 0
    assert cli.main(["--out-dir", str(out_b), "train", str(config)]) == 0
    csv_a = (out_a / "metrics.csv").read_bytes()
    csv_b = (out_b / "metrics.csv").read_bytes()
    _report(9, "repeated cmd_train runs are byte-identical", csv_a == csv_b,
            f"metrics.csv of {len(csv_a)} bytes identical across runs")
