"""Self-check suites runnable from the CLI: oracle, grad, dist, cost.

Each check returns a named pass/fail result with a short diagnostic, so a
broken invariant is identifiable from the report line alone.  The suites are
smaller, faster versions of the full test suite, meant as a release gate and
a field diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import costmodel, distsim, kfac, numerics
from .kfac import KfacHyper
from .model import Batch, NetworkSpec, backward, finite_diff_grad, forward, init_network

SUITES = ("oracle", "grad", "dist", "cost")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _random_spd(rng, dim: int) -> np.ndarray:
    b = rng.standard_normal((dim, dim))
    return b @ b.T / dim + np.eye(dim)


def _check(results, suite, name, passed, detail=""):
    results.append(CheckResult(suite, name, bool(passed), detail))


def run_oracle_suite() -> list[CheckResult]:
    """Kronecker/vec conventions and both damping schemes against dense solves."""
    results: list[CheckResult] = []
    rng = np.random.default_rng(2024)

    worst = 0.0
    for _ in range(50):
        d_a, d_g = rng.integers(1, 7, size=2)
        a = _random_spd(rng, d_a)
        g = rng.standard_normal((d_g, d_g))
        x = rng.standard_normal((d_g, d_a))
        lhs = numerics.kron(a, g) @ numerics.vec(x)
        rhs = numerics.vec(g @ x @ a)  # valid because a is symmetric
        worst = max(worst, float(np.abs(lhs - rhs).max() / max(1.0, np.abs(x).max())))
    _check(results, "oracle", "kron/vec mixed-product identity", worst <= 1e-12,
           f"max deviation {worst:.2e} (tol 1e-12)")

    m = rng.standard_normal((4, 3))
    rt = numerics.unvec(numerics.vec(m), 4, 3)
    _check(results, "oracle", "vec/unvec round trip", np.array_equal(rt, m),
           "bit-identical" if np.array_equal(rt, m) else "values changed")

    worst_eig = worst_inv = 0.0
    for _ in range(60):
        d = int(rng.integers(2, 7))
        s = _random_spd(rng, d)
        q, v = numerics.sym_eig(s)
        recon = float(np.abs(q @ np.diag(v) @ q.T - s).max())
        worst_eig = max(worst_eig, recon)
        inv = numerics.sym_inverse(s)
        worst_inv = max(worst_inv, float(np.abs(s @ inv - np.eye(d)).max()))
    _check(results, "oracle", "sym_eig reconstruction", worst_eig <= 1e-9,
           f"max |Q v Q^T - M| = {worst_eig:.2e}")
    _check(results, "oracle", "sym_inverse residual", worst_inv <= 1e-8,
           f"max |M M^-1 - I| = {worst_inv:.2e}")

    worst_e = worst_f = worst_zero = 0.0
    for _ in range(40):
        d_a, d_g = rng.integers(1, 7, size=2)
        a, g = _random_spd(rng, d_a), _random_spd(rng, d_g)
        grad = rng.standard_normal((d_g, d_a))
        scale = max(1e-300, float(np.abs(grad).max()))
        for gamma in (1e-3, 0.03, 1.0):
            eig = kfac.precondition_eigen(numerics.sym_eig(a), numerics.sym_eig(g), grad, gamma)
            exact = kfac.exact_precondition_oracle(a, g, grad, gamma)
            worst_e = max(worst_e, float(np.abs(eig - exact).max()) / scale)
            inv = kfac.precondition_inverse(a, g, grad, gamma)
            factored = kfac.factored_precondition_oracle(a, g, grad, gamma)
            worst_f = max(worst_f, float(np.abs(inv - factored).max()) / scale)
        # the split-damping cross term vanishes as sqrt(gamma)/lambda^3, so the
        # zero-damping agreement is checked on strongly regularized spectra
        a20, g20 = a + 19.0 * np.eye(d_a), g + 19.0 * np.eye(d_g)
        tiny = kfac.precondition_inverse(a20, g20, grad, 1e-12)
        exact0 = kfac.exact_precondition_oracle(a20, g20, grad, 1e-12)
        worst_zero = max(worst_zero, float(np.abs(tiny - exact0).max()) / scale)
    _check(results, "oracle", "eigen damping vs dense oracle", worst_e <= 1e-10,
           f"max scaled deviation {worst_e:.2e} (tol 1e-10)")
    _check(results, "oracle", "inverse damping vs factored oracle", worst_f <= 1e-10,
           f"max scaled deviation {worst_f:.2e} (tol 1e-10)")
    _check(results, "oracle", "inverse damping -> exact oracle as gamma -> 0",
           worst_zero <= 1e-8, f"max scaled deviation {worst_zero:.2e} (tol 1e-8)")
    return results


def run_grad_suite() -> list[CheckResult]:
    """Backprop against central finite differences on small tanh nets."""
    results: list[CheckResult] = []
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(10):
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 9)) for _ in range(depth + 1)]
        loss = "softmax_cross_entropy" if trial % 2 == 0 else "mean_squared_error"
        spec = NetworkSpec(tuple(dims), activation="tanh", loss_kind=loss,
                           bias_mode="homogeneous" if trial % 3 == 0 else "none")
        net = init_network(spec, seed=trial)
        B = int(rng.integers(1, 6))
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
    _check(results, "grad", "finite-difference gradient check", worst <= 1e-5,
           f"max relative error {worst:.2e} (tol 1e-5)")
    return results


def _blob_spec() -> tuple[NetworkSpec, Batch]:
    rng = np.random.default_rng(5)
    spec = NetworkSpec((6, 8, 4), activation="tanh", bias_mode="homogeneous")
    inputs = rng.standard_normal((6, 32))
    targets = rng.integers(0, 4, size=32)
    return spec, Batch(inputs, targets)


def run_dist_suite() -> list[CheckResult]:
    """Worker-count equivalences of the simulated cluster."""
    results: list[CheckResult] = []
    spec, batch = _blob_spec()
    hyper = KfacHyper()

    # replicated data: P workers must match one worker bit for bit
    def run_dp(workers: int) -> np.ndarray:
        cluster = distsim.build_cluster(spec, "dp_kfac", workers, seed=3)
        for t in range(20):
            shards = distsim.shard_batch(batch, workers, "replicate")
            distsim.dp_kfac_step(cluster, shards, hyper, 0.05, 0.9, t)
        return np.concatenate([l.weight.ravel() for l in cluster.net.layers])

    single = run_dp(1)
    ok = all(np.array_equal(run_dp(p), single) for p in (2, 4))
    _check(results, "dist", "replicate-shard dp_kfac == single worker (20 steps)", ok,
           "bit-identical" if ok else "weights diverged")

    # co and mo are the same math with different communication
    def run_mpd(variant: str) -> np.ndarray:
        cluster = distsim.build_cluster(spec, f"mpd_kfac_{variant}", 4, seed=3)
        for t in range(10):
            shards = distsim.shard_batch(batch, 4, "disjoint")
            distsim.mpd_kfac_step(cluster, shards, hyper, 0.05, 0.9, t, variant=variant)
        return np.concatenate([l.weight.ravel() for l in cluster.net.layers])

    delta = float(np.abs(run_mpd("co") - run_mpd("mo")).max())
    _check(results, "dist", "mpd co vs mo weight agreement", delta <= 1e-14,
           f"max |delta| = {delta:.2e} (tol 1e-14)")

    # disjoint ssgd against full-batch single-worker SGD
    def run_ssgd(workers: int) -> np.ndarray:
        cluster = distsim.build_cluster(spec, "ssgd", workers, seed=3)
        for t in range(20):
            shards = distsim.shard_batch(batch, workers, "disjoint")
            distsim.ssgd_step(cluster, shards, 0.05, 0.9, t)
        return np.concatenate([l.weight.ravel() for l in cluster.net.layers])

    delta = float(np.abs(run_ssgd(2) - run_ssgd(1)).max())
    _check(results, "dist", "disjoint ssgd vs full-batch SGD", delta <= 1e-13,
           f"max |delta| = {delta:.2e} (tol 1e-13)")

    # one shared weight set + ownership trace
    cluster = distsim.build_cluster(spec, "dp_kfac", 4, seed=9)
    shards = distsim.shard_batch(batch, 4, "disjoint")
    res = distsim.dp_kfac_step(cluster, shards, hyper, 0.05, 0.9, 0)
    shared = all(w.replica is cluster.net and w.momentum is cluster.momentum
                 for w in cluster.workers)
    _check(results, "dist", "every worker references the one weight/momentum set", shared)
    owned_once = sorted(res.preconditioned_by) == list(range(cluster.n_layers))
    _check(results, "dist", "every layer preconditioned exactly once", owned_once,
           f"ownership {res.preconditioned_by}")
    return results


def run_cost_suite() -> list[CheckResult]:
    """Simulated counters against the analytic complexity model."""
    results: list[CheckResult] = []
    spec, batch = _blob_spec()
    hyper = KfacHyper()
    mismatches = []
    for algorithm in distsim.ALGORITHMS:
        for workers in (1, 2, 4, 8):
            cluster = distsim.build_cluster(spec, algorithm, workers, seed=1)
            shards = distsim.shard_batch(batch, workers, "replicate")
            distsim.run_step(cluster, shards, hyper, 0.05, 0.9, 0)
            report = costmodel.algorithm_cost(cluster.layer_dims(), workers, algorithm,
                                              inv_type=hyper.inv_type)
            verdict = costmodel.verify_counters(report, cluster.log.steps[0])
            if not verdict.ok:
                mismatches.append(f"{algorithm}/P={workers}: {verdict.describe()}")
    _check(results, "cost", "simulated counters == analytic formulas",
           not mismatches, "; ".join(mismatches) or "exact for all algorithms, P in {1,2,4,8}")

    cluster = distsim.build_cluster(spec, "dp_kfac", 4, seed=1)
    stale = KfacHyper(f_freq=5, k_freq=10)
    for t in range(12):
        shards = distsim.shard_batch(batch, 4, "replicate")
        distsim.dp_kfac_step(cluster, shards, stale, 0.05, 0.9, t)
    factor_total = cluster.log.total("factorcomm")
    _check(results, "cost", "dp_kfac factor communication is zero on every step",
           factor_total == 0, f"total factorcomm = {factor_total}")

    layers = costmodel.resolve_manifest("resnet50")
    n_g, n_f = costmodel.totals(layers)
    ok = abs(n_g - 25.6e6) / 25.6e6 <= 0.05 and abs(n_f - 153.9e6) / 153.9e6 <= 0.05
    _check(results, "cost", "bundled ResNet-50 manifest totals", ok,
           f"N_g={n_g / 1e6:.2f}M, N_f={n_f / 1e6:.2f}M")
    return results


_SUITE_FNS: dict[str, Callable[[], list[CheckResult]]] = {
    "oracle": run_oracle_suite,
    "grad": run_grad_suite,
    "dist": run_dist_suite,
    "cost": run_cost_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        out = []
        for suite in SUITES:
            out.extend(_SUITE_FNS[suite]())
        return out
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    return _SUITE_FNS[name]()
