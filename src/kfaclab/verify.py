"""Self-check suites runnable from the CLI: oracle, grad, dist, cost.

This module is the one implementation of acceptance criteria 1-6 (seeds,
trial counts and tolerances pinned; ``tests/test_acceptance.py`` runs them
through :data:`CRITERIA`).  Each suite reports its criteria plus extra
checks of the conventions they rest on.  Every check returns a named
pass/fail result with a short diagnostic, so a broken invariant is
identifiable from the report line alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import costmodel, distsim, kfac, numerics
from .kfac import KfacHyper
from .model import Batch, NetworkSpec, backward, finite_diff_grad, forward, init_network

@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _random_spd(rng, dim: int, floor: float = 1.0) -> np.ndarray:
    b = rng.standard_normal((dim, dim))
    return b @ b.T / dim + floor * np.eye(dim)


def _criterion(suite: str, number: int, title: str, passed, detail: str) -> CheckResult:
    return CheckResult(suite, f"criterion {number}: {title}", bool(passed), detail)


def precondition_via_state(a, g, grad, gamma: float, inv_type: str) -> np.ndarray:
    """``grad`` preconditioned as the step does it, by the factor state that
    one running-average update (xi = 1) and one refresh build from ``a``, ``g``."""
    hyper = KfacHyper(gamma=gamma, xi=1.0, inv_type=inv_type)
    state = kfac.update_running_average(kfac.FactorState(), a, g, hyper.xi, 0)
    return kfac.apply_preconditioner(kfac.refresh_inverses(state, hyper, 0), grad, hyper)


def criterion_1() -> CheckResult:
    """Eigen damping against the dense damped-Kronecker solve."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        d_a, d_g = rng.integers(1, 7, size=2)
        a, g = _random_spd(rng, d_a), _random_spd(rng, d_g)
        grad = rng.standard_normal((d_g, d_a))
        scale = max(np.abs(grad).max(), 1e-300)
        for gamma in (1e-3, 0.03, 1.0):
            fast = precondition_via_state(a, g, grad, gamma, "eigen")
            exact = kfac.exact_precondition_oracle(a, g, grad, gamma)
            worst = max(worst, float(np.abs(fast - exact).max()) / scale)
    return _criterion("oracle", 1, "eigen damping vs dense Kronecker oracle", worst <= 1e-10,
                      f"1000 factor pairs x 3 damping values, "
                      f"max scaled deviation {worst:.2e} <= 1e-10")


def criterion_2() -> CheckResult:
    """Inverse damping against the factored oracle, and its gamma -> 0 limit."""
    rng = np.random.default_rng(1002)
    worst_f = worst_0 = 0.0
    for _ in range(1000):
        d_a, d_g = rng.integers(1, 7, size=2)
        a, g = _random_spd(rng, d_a), _random_spd(rng, d_g)
        grad = rng.standard_normal((d_g, d_a))
        scale = max(np.abs(grad).max(), 1e-300)
        for gamma in (1e-3, 0.03, 1.0):
            fast = precondition_via_state(a, g, grad, gamma, "inverse")
            oracle = kfac.factored_precondition_oracle(a, g, grad, gamma)
            worst_f = max(worst_f, float(np.abs(fast - oracle).max()) / scale)
        # split-damping cross term decays as sqrt(gamma)/lambda^3: the exact
        # agreement at gamma -> 0 is checked on strongly regularized spectra
        a0, g0 = _random_spd(rng, d_a, floor=20.0), _random_spd(rng, d_g, floor=20.0)
        tiny = precondition_via_state(a0, g0, grad, 1e-12, "inverse")
        exact = kfac.exact_precondition_oracle(a0, g0, grad, 1e-12)
        worst_0 = max(worst_0, float(np.abs(tiny - exact).max()))
    return _criterion("oracle", 2, "inverse damping vs factored oracle + gamma->0 limit",
                      worst_f <= 1e-10 and worst_0 <= 1e-8,
                      f"factored deviation {worst_f:.2e} <= 1e-10; "
                      f"exact-oracle deviation at gamma=1e-12 {worst_0:.2e} <= 1e-8")


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
    results.append(CheckResult("oracle", "kron/vec mixed-product identity", worst <= 1e-12,
                               f"max deviation {worst:.2e} (tol 1e-12)"))

    m = rng.standard_normal((4, 3))
    same = np.array_equal(numerics.unvec(numerics.vec(m), 4, 3), m)
    results.append(CheckResult("oracle", "vec/unvec round trip", same,
                               "bit-identical" if same else "values changed"))

    worst_eig = worst_inv = 0.0
    for _ in range(60):
        d = int(rng.integers(2, 7))
        s = _random_spd(rng, d)
        q, v = numerics.sym_eig(s)
        worst_eig = max(worst_eig, float(np.abs(q @ np.diag(v) @ q.T - s).max()))
        inv = numerics.sym_inverse(s)
        worst_inv = max(worst_inv, float(np.abs(s @ inv - np.eye(d)).max()))
    results.append(CheckResult("oracle", "sym_eig reconstruction", worst_eig <= 1e-9,
                               f"max |Q v Q^T - M| = {worst_eig:.2e}"))
    results.append(CheckResult("oracle", "sym_inverse residual", worst_inv <= 1e-8,
                               f"max |M M^-1 - I| = {worst_inv:.2e}"))
    return results + [criterion_1(), criterion_2()]


def _worst_fd_error(rng, trials: int, bias_mode: str) -> float:
    """Largest relative backprop-vs-central-difference error over random
    small tanh nets (classification and regression alternating)."""
    worst = 0.0
    for trial in range(trials):
        depth = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(2, 9)) for _ in range(depth + 1))
        loss = "softmax_cross_entropy" if trial % 2 == 0 else "mean_squared_error"
        spec = NetworkSpec(dims, activation="tanh", loss_kind=loss, bias_mode=bias_mode)
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
    return worst


def criterion_3() -> CheckResult:
    worst = _worst_fd_error(np.random.default_rng(1003), 50, "none")
    return _criterion("grad", 3, "backprop vs central finite differences", worst <= 1e-5,
                      f"50 random tanh nets, max relative error {worst:.2e} <= 1e-5")


def run_grad_suite() -> list[CheckResult]:
    """Backprop against central finite differences on small tanh nets."""
    worst = _worst_fd_error(np.random.default_rng(77), 10, "homogeneous")
    return [
        criterion_3(),
        CheckResult("grad", "finite-difference gradient check, homogeneous bias",
                    worst <= 1e-5, f"10 random tanh nets, max relative error "
                                   f"{worst:.2e} (tol 1e-5)"),
    ]


SPEC_DIST = NetworkSpec((6, 8, 4), activation="tanh", bias_mode="homogeneous")


def _dist_batch() -> Batch:
    rng = np.random.default_rng(77)
    return Batch(rng.standard_normal((6, 32)), rng.integers(0, 4, size=32))


def criterion_4() -> CheckResult:
    batch = _dist_batch()
    hyper = KfacHyper()

    def run(algorithm, workers, policy, steps=20):
        cluster = distsim.build_cluster(SPEC_DIST, algorithm, workers, seed=5, shard_policy=policy)
        for t in range(steps):
            distsim.run_step(cluster, batch, hyper, 0.05, 0.9, t)
        return np.concatenate([l.weight.ravel() for l in cluster.net.layers])

    single = run("dp_kfac", 1, "replicate")
    bitwise = all(np.array_equal(run("dp_kfac", p, "replicate"), single) for p in (2, 4, 8))
    ssgd_delta = float(np.abs(run("ssgd", 2, "disjoint") - run("ssgd", 1, "disjoint")).max())
    co_mo_delta = float(np.abs(
        run("mpd_kfac_co", 4, "disjoint") - run("mpd_kfac_mo", 4, "disjoint")
    ).max())
    return _criterion("dist", 4, "distributed equivalences over 20 steps",
                      bitwise and ssgd_delta <= 1e-13 and co_mo_delta <= 1e-14,
                      f"dp replicate bit-identical for P in {{2,4,8}}: {bitwise}; "
                      f"ssgd disjoint vs full batch {ssgd_delta:.2e} <= 1e-13; "
                      f"co vs mo {co_mo_delta:.2e} <= 1e-14")


def run_dist_suite() -> list[CheckResult]:
    """Worker-count equivalences of the simulated cluster."""
    results = [criterion_4()]
    batch = _dist_batch()
    cluster = distsim.build_cluster(SPEC_DIST, "dp_kfac", 4, seed=9)
    distsim.run_step(cluster, batch, KfacHyper(), 0.05, 0.9, 0)
    one_state = sorted(cluster.factors) == list(range(cluster.n_layers))
    views = [[i for i, owner in enumerate(cluster.owners) if owner == p]
             for p in range(cluster.n_workers)]
    # round-robin over 4 workers: the two layers go to workers 0 and 1
    results.append(CheckResult("dist", "one factor state per layer, held by its owner only",
                               one_state and views == [[0], [1], [], []],
                               f"worker views {views}"))
    # DP-KFAC's core mechanism: the owner builds the factors from its own
    # shard, through the weights every worker started the step with
    reference = init_network(SPEC_DIST, seed=9)
    spans = distsim.worker_spans(batch.size, 4)
    from_owner = []
    for i, owner in enumerate(cluster.owners):
        shard = Batch(batch.inputs[:, spans[owner]], batch.targets[spans[owner]])
        _, captures = forward(reference, shard)
        _, preact_grads = backward(reference, shard, captures)
        a_cov, g_cov = kfac.compute_factors(captures[i], preact_grads[i])
        state = cluster.factors[i]
        from_owner.append(np.array_equal(state.a_cov, a_cov)
                          and np.array_equal(state.g_cov, g_cov))
    results.append(CheckResult("dist", "each layer's factors come from its owner's own shard",
                               all(from_owner),
                               f"owners {list(cluster.owners)}, bit-equal {from_owner}"))
    return results


def criterion_5() -> CheckResult:
    batch_small = Batch(np.random.default_rng(3).standard_normal((6, 16)),
                        np.random.default_rng(4).integers(0, 4, size=16))
    hyper = KfacHyper(f_freq=2, k_freq=2)
    mismatches = []
    dp_factorcomm_total = 0
    for algorithm in costmodel.ALGORITHMS:
        for workers in (1, 2, 4, 8, 64):
            cluster = distsim.build_cluster(SPEC_DIST, algorithm, workers, seed=0,
                                            shard_policy="replicate")
            steps = [distsim.run_step(cluster, batch_small, hyper, 0.05, 0.9, t).counters
                     for t in range(4)]  # t = 0, 2 are full second-order updates
            report = costmodel.algorithm_cost(cluster.layer_dims(), workers,
                                              algorithm, inv_type="eigen")
            for t in (0, 2):
                diffs = costmodel.counter_mismatches(report, steps[t])
                if diffs:
                    mismatches.append(f"{algorithm}/P={workers}/t={t}: {'; '.join(diffs)}")
            if algorithm == "dp_kfac":
                dp_factorcomm_total += sum(c.factorcomm for c in steps)

    layers = [costmodel.LayerDims(7, 8), costmodel.LayerDims(9, 4)]
    mpd = costmodel.algorithm_cost(layers, 8, "mpd_kfac_mo")
    dp = costmodel.algorithm_cost(layers, 8, "dp_kfac")
    detail = (f"algorithms x P in {{1,2,4,8,64}}: {len(mismatches)} mismatches; "
              f"dp factorcomm on all iterations = {dp_factorcomm_total}; "
              f"factorcomm mpd->dp eliminated ({mpd.factorcomm} -> 0); "
              f"factorcomp reduction mpd/dp = {mpd.factorcomp / dp.factorcomp:.2f}x "
              f"(ideal {mpd.factorcomp / (mpd.factorcomp / 8):.0f}x, realized max refinement)")
    if mismatches:
        detail += "\n" + "\n".join(mismatches)
    return _criterion("cost", 5, "complexity-table counters, exact integer equality",
                      not mismatches and dp_factorcomm_total == 0, detail)


def criterion_6() -> CheckResult:
    layers = costmodel.resolve_manifest("resnet50")
    n_g, n_f = costmodel.totals(layers)
    dev_g = abs(n_g - 25.6e6) / 25.6e6
    dev_f = abs(n_f - 153.9e6) / 153.9e6
    dp = costmodel.algorithm_cost(layers, 64, "dp_kfac")
    mpd = costmodel.algorithm_cost(layers, 64, "mpd_kfac_mo")
    ratio = dp.memory / mpd.memory
    ok = (dev_g <= 0.05 and dev_f <= 0.05 and dp.memory <= mpd.memory
          and abs(ratio - 0.156) <= 0.005)
    return _criterion("cost", 6, "ResNet-50 manifest totals and memory ratio", ok,
                      f"N_g={n_g / 1e6:.2f}M ({dev_g:.2%} from 25.6M), "
                      f"N_f={n_f / 1e6:.2f}M ({dev_f:.2%} from 153.9M), "
                      f"dp/mpd memory at P=64 = {ratio:.4f} (~0.156)")


def run_cost_suite() -> list[CheckResult]:
    """Simulated counters against the analytic complexity model."""
    cluster = distsim.build_cluster(SPEC_DIST, "dp_kfac", 4, seed=1, shard_policy="replicate")
    stale = KfacHyper(f_freq=5, k_freq=10)
    factor_total = sum(distsim.run_step(cluster, _dist_batch(), stale, 0.05, 0.9, t)
                       .counters.factorcomm for t in range(12))
    return [
        criterion_5(),
        criterion_6(),
        CheckResult("cost", "dp_kfac factor communication is zero over stale steps",
                    factor_total == 0,
                    f"12 steps, f_freq=5, k_freq=10: total factorcomm = {factor_total}"),
    ]


CRITERIA: dict[int, Callable[[], CheckResult]] = dict(enumerate(
    (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6), start=1))

_SUITE_FNS: dict[str, Callable[[], list[CheckResult]]] = {
    "oracle": run_oracle_suite,
    "grad": run_grad_suite,
    "dist": run_dist_suite,
    "cost": run_cost_suite,
}
SUITES = tuple(_SUITE_FNS)


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        out = []
        for suite in SUITES:
            out.extend(_SUITE_FNS[suite]())
        return out
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    return _SUITE_FNS[name]()
