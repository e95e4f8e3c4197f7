"""Self-tests of the benchmark harness.  Run: python3 -m pytest perfbench -q"""

import dataclasses
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
from kfaclab import config, costmodel, trainer  # noqa: E402


def test_p90_needs_ten_samples_beyond_it():
    samples = list(range(100, 0, -1))
    p90 = harness.tail_percentile(samples, 0.9)
    assert p90 == 90
    assert sum(s > p90 for s in samples) == 10
    with pytest.raises(ValueError, match="need 10"):
        harness.tail_percentile(samples[:99], 0.9)
    with pytest.raises(ValueError):
        harness.tail_percentile([], 0.9)


def test_self_time_of_hand_built_span_tree():
    spans = [
        ["step", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["a.inner", 2.0, 3.0, 1, 1],
        ["b", 5.0, 6.0, 0, 1],
        ["c", 5.5, 7.0, 0, 1],     # overlaps b: the shared 0.5 counts once
        ["late", 9.5, 11.0, 0, 1],  # runs past its parent: clipped at 10
    ]
    assert harness.self_times(spans) == pytest.approx([10 - 3 - 2 - 0.5, 2, 1, 1, 1.5, 1.5])


def test_tracer_records_parent_and_step():
    tracer = harness.Tracer()
    mod = types.SimpleNamespace()
    mod.inner = lambda: None
    mod.outer = lambda a, b, t: mod.inner()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer", step_arg=2)
    mod.outer(0, 0, 7)
    (outer, inner) = tracer.spans
    assert outer[0] == "outer" and outer[3] == -1 and outer[4] == 7
    assert inner[0] == "inner" and inner[3] == 0 and inner[4] == 7
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_layer_metrics_exclude_step_zero():
    spans = [
        ["distsim.build_cluster", 0.0, 0.5, -1, -1],
        ["distsim.run_step", 1.0, 3.0, -1, 0],
        ["model.forward", 1.0, 2.0, 1, 0],
        ["distsim.run_step", 4.0, 5.0, -1, 1],
        ["model.forward", 4.0, 4.25, 3, 1],
        ["model.sgd_step", 4.5, 4.75, 3, 1],
        ["trainer.evaluate", 5.0, 5.5, -1, 1],
    ]
    trace = {"spans": spans, "comm_elems": [9, 4],
             "refresh_useful": 0, "checkpoint_bytes": 2 ** 20}
    m = harness.layer_metrics(trace, [3.0], "ssgd")
    assert m["model.forward_ms"] == pytest.approx(250.0)
    assert m["model.sgd_step_calls"] == 1
    assert m["distsim.step_self_ms"] == pytest.approx(500.0)
    assert m["trainer.loop_self_ms"] == pytest.approx(1500.0)
    assert m["trainer.evaluate_ms"] == pytest.approx(500.0)
    assert m["distsim.comm_elems"] == 4
    assert m["distsim.build_cluster_ms"] == pytest.approx(500.0)
    assert m["trainer.checkpoint_mib"] == 1
    assert not any(k.startswith(("kfac.", "numerics.")) for k in m)
    assert harness.missing_spans(trace, "ssgd", "eigen")[:1] == ["model.backward"]


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("gate")
    runs = {}
    for alg in ("dp_kfac", "mpd_kfac_co"):
        cfg = config.load_config(HERE / "base.ini", {
            "network.layer_dims": "6,5,3", "data.dim": "6", "data.classes": "3",
            "data.samples": "400", "train.epochs": "1", "train.batch_size": "40",
            "train.workers": "2", "hyper.k_freq": "3", "train.algorithm": alg,
            "train.out_dir": str(out / alg),
        })
        rows = trainer.run_training(cfg).rows
        dims = [costmodel.LayerDims(*reversed(cfg.network.weight_shape(i)))
                for i in range(cfg.network.depth)]
        report = costmodel.algorithm_cost(dims, 2, alg, inv_type="eigen")
        runs[alg] = (rows, report)
    return runs


def test_counter_gate_accepts_real_rows(tiny_runs):
    for alg, (rows, report) in tiny_runs.items():
        assert harness.counter_problems(rows, report, 1, 3, alg) == []
        assert any(r.inversecomp == 0 for r in rows)  # stale steps exercised


def test_counter_gate_rejects_perturbed_row(tiny_runs):
    rows, report = tiny_runs["mpd_kfac_co"]
    stale = next(i for i, r in enumerate(rows) if r.iteration % 3)
    bumped = list(rows)
    bumped[stale] = dataclasses.replace(rows[stale], inversecomm=rows[0].inversecomm)
    problems = harness.counter_problems(bumped, report, 1, 3, "mpd_kfac_co")
    assert problems == [f"iteration {rows[stale].iteration}: inversecomm "
                        f"{rows[0].inversecomm} != analytic 0"]
    off_by_one = [dataclasses.replace(rows[0], gradcomm=rows[0].gradcomm + 1)] + rows[1:]
    assert len(harness.counter_problems(off_by_one, report, 1, 3, "mpd_kfac_co")) == 1


def test_counter_gate_rejects_dp_factor_traffic(tiny_runs):
    rows, report = tiny_runs["dp_kfac"]
    leaked = [dataclasses.replace(rows[0], factorcomm=1)] + rows[1:]
    problems = harness.counter_problems(leaked, report, 1, 3, "dp_kfac")
    assert any("dp_kfac factorcomm 1 != 0" in p for p in problems)


def test_nonfinite_loss_is_reported(tiny_runs):
    rows, _ = tiny_runs["dp_kfac"]
    assert harness.nonfinite_problems(rows) == []
    bad = [dataclasses.replace(rows[-1], eval_loss=float("nan"))]
    assert harness.nonfinite_problems(bad) == [f"iteration {rows[-1].iteration}: eval_loss is nan"]
    assert harness.loss_digest(rows) != harness.loss_digest(rows[:-1] + bad)
