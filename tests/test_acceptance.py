"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
the assertions carry the same tolerances, so a red test is a failed criterion.
Criteria 1-6 are implemented once, in :mod:`kfaclab.verify` (``kfaclab verify
all`` runs the same checks); criteria 7-9 train full runs and live here.
"""

import numpy as np
import pytest

from kfaclab import cli, verify
from kfaclab.config import DataConfig, HyperConfig, RunConfig, TrainConfig
from kfaclab.model import NetworkSpec
from kfaclab.trainer import run_training
from test_footprint import _fresh

SEEDS = (101, 202, 303, 404, 505)
TARGET_TRAIN_LOSS = 0.2


def _report(number, title, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {number}: {title} :: {detail}")
    assert passed, f"criterion {number} ({title}): {detail}"


def _report_verified(number):
    result = verify.CRITERIA[number]()
    print(f"\n[{'PASS' if result.passed else 'FAIL'}] {result.name} :: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_1_eigen_damping_exactness():
    _report_verified(1)


def test_criterion_2_inverse_damping_factored_exactness():
    _report_verified(2)


def test_criterion_2_reads_the_same_under_any_blas_thread_setting():
    # its Cholesky inverses run on scipy's OpenBLAS, whatever threads the
    # caller gives OpenBLAS; the check must print the same deviations
    lines = {threads: _fresh("""
        import json
        from kfaclab import verify
        result = verify.CRITERIA[2]()
        print(json.dumps([result.name, result.passed, result.detail]))
    """, blas_threads=threads) for threads in (None, "1", "2")}
    assert lines[None] == lines["1"] == lines["2"], lines


def test_criterion_3_gradient_correctness():
    _report_verified(3)


def test_criterion_4_distributed_equivalence():
    _report_verified(4)


def test_criterion_5_complexity_table_reproduction():
    _report_verified(5)


def test_criterion_6_resnet50_totals_and_memory_ratio():
    _report_verified(6)


def test_criteria_1_to_6_have_one_home_in_verify(monkeypatch, capsys):
    assert cli.main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    for number in range(1, 7):
        assert f": criterion {number}: " in out, f"verify all does not report criterion {number}"
    tests = (test_criterion_1_eigen_damping_exactness,
             test_criterion_2_inverse_damping_factored_exactness,
             test_criterion_3_gradient_correctness,
             test_criterion_4_distributed_equivalence,
             test_criterion_5_complexity_table_reproduction,
             test_criterion_6_resnet50_totals_and_memory_ratio)
    for number, test in enumerate(tests, start=1):
        failing = verify.CheckResult("stub", f"criterion {number}: stub", False, "stubbed")
        monkeypatch.setitem(verify.CRITERIA, number, lambda failing=failing: failing)
        with pytest.raises(AssertionError, match="stubbed"):
            test()


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
