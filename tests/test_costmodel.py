import numpy as np
import pytest

from kfaclab import distsim
from kfaclab.costmodel import (
    LayerDims,
    algorithm_cost,
    amortized_cost,
    counter_mismatches,
    layer_counts,
    load_manifest,
    resolve_manifest,
    round_robin_owners,
    totals,
)
from kfaclab.distsim import StepCounters
from kfaclab.errors import ArgumentError, DataFormatError
from kfaclab.kfac import KfacHyper
from kfaclab.model import Batch, NetworkSpec


def test_layer_counts_substitution():
    assert layer_counts(LayerDims(4, 3)) == (12, 25)


def test_layer_counts_square_ratio_is_two():
    for d in (1, 5, 64):
        n_g, n_f = layer_counts(LayerDims(d, d))
        assert n_f == 2 * n_g


def test_factor_elements_at_least_twice_gradient_elements():
    rng = np.random.default_rng(0)
    for _ in range(100):
        dims = LayerDims(int(rng.integers(1, 500)), int(rng.integers(1, 500)))
        n_g, n_f = layer_counts(dims)
        assert n_f >= 2 * n_g
        if dims.d_in == dims.d_out:
            assert n_f == 2 * n_g


def test_totals_linearity():
    layers = [LayerDims(4, 3), LayerDims(3, 7), LayerDims(7, 2)]
    n_g, n_f = totals(layers)
    assert n_g == sum(layer_counts(d)[0] for d in layers)
    assert n_f == sum(layer_counts(d)[1] for d in layers)


def test_single_layer_dp_cost():
    report = algorithm_cost([LayerDims(4, 3)], 2, "dp_kfac")
    assert report.factorcomm == 0
    assert report.predcomm == 12  # (P-1) * N_g
    assert report.gradcomm == 2 * 1 * 12


def test_table_formulas_three_layer_net():
    layers = [LayerDims(5, 4), LayerDims(4, 4), LayerDims(4, 2)]
    n_g, n_f = totals(layers)
    P = 4
    ssgd = algorithm_cost(layers, P, "ssgd")
    mo = algorithm_cost(layers, P, "mpd_kfac_mo")
    dp = algorithm_cost(layers, P, "dp_kfac")
    assert (ssgd.gradcomp, ssgd.factorcomp, ssgd.inversecomp) == (n_g, 0, 0)
    assert ssgd.memory == n_g
    assert mo.factorcomp == n_f
    assert mo.factorcomm == 2 * (P - 1) * n_f
    assert mo.predcomm == (P - 1) * n_g
    assert mo.memory == 2 * (n_g + n_f)
    assert dp.factorcomm == 0
    assert dp.predcomm == (P - 1) * n_g
    assert dp.memory == 2 * (n_g + n_f / P)
    assert ssgd.gradcomm == mo.gradcomm == dp.gradcomm == 2 * (P - 1) * n_g


def test_co_variant_moves_decompositions_not_gradients():
    layers = [LayerDims(5, 4), LayerDims(4, 2)]
    P = 4
    co = algorithm_cost(layers, P, "mpd_kfac_co", inv_type="eigen")
    assert co.predcomm == 0
    payload = sum(layer_counts(d)[1] + d.d_in + d.d_out for d in layers)
    assert co.inversecomm == (P - 1) * payload
    co_inv = algorithm_cost(layers, P, "mpd_kfac_co", inv_type="inverse")
    assert co_inv.inversecomm == (P - 1) * totals(layers)[1]


def test_realized_max_bounds():
    rng = np.random.default_rng(1)
    for _ in range(20):
        layers = [LayerDims(int(rng.integers(1, 30)), int(rng.integers(1, 30)))
                  for _ in range(int(rng.integers(1, 9)))]
        for P in (1, 2, 4, 8):
            report = algorithm_cost(layers, P, "dp_kfac")
            assert report.n_f / P <= report.factorcomp <= report.n_f


def test_p_one_dp_equals_mpd_except_memory():
    layers = [LayerDims(6, 4), LayerDims(4, 3)]
    dp = algorithm_cost(layers, 1, "dp_kfac")
    mo = algorithm_cost(layers, 1, "mpd_kfac_mo")
    for stage in ("gradcomp", "factorcomp", "inversecomp",
                  "gradcomm", "factorcomm", "predcomm", "inversecomm"):
        assert getattr(dp, stage) == getattr(mo, stage)
    assert dp.memory == mo.memory  # N_f / 1 == N_f
    dp4 = algorithm_cost(layers, 4, "dp_kfac")
    mo4 = algorithm_cost(layers, 4, "mpd_kfac_mo")
    assert dp4.memory < mo4.memory


def test_dp_memory_below_mpd_memory():
    layers = [LayerDims(10, 10), LayerDims(10, 5)]
    for P in (2, 4, 8, 64):
        dp = algorithm_cost(layers, P, "dp_kfac")
        mo = algorithm_cost(layers, P, "mpd_kfac_mo")
        assert dp.memory < mo.memory
        assert dp.memory_realized <= mo.memory_realized


def test_round_robin_owners_shapes():
    assert round_robin_owners(5, 2) == (0, 1, 0, 1, 0)
    assert round_robin_owners(0, 3) == ()
    for n_layers, n_workers in ((-1, 2), (3, 0)):
        with pytest.raises(ArgumentError, match=r"^need n_layers >= 0 and n_workers >= 1$"):
            round_robin_owners(n_layers, n_workers)


def test_counter_mismatches_accepts_matching():
    layers = [LayerDims(4, 3)]
    report = algorithm_cost(layers, 2, "dp_kfac")
    counters = StepCounters(
        gradcomp=report.gradcomp, factorcomp=report.factorcomp,
        inversecomp=report.inversecomp, gradcomm=report.gradcomm,
        factorcomm=0, predcomm=report.predcomm, inversecomm=0,
    )
    assert counter_mismatches(report, counters) == []


def test_counter_mismatches_names_stage_and_delta():
    report = algorithm_cost([LayerDims(4, 3)], 2, "dp_kfac")
    counters = StepCounters(
        gradcomp=report.gradcomp, factorcomp=report.factorcomp,
        inversecomp=report.inversecomp, gradcomm=report.gradcomm,
        factorcomm=7, predcomm=report.predcomm + 5, inversecomm=0,
    )
    diffs = counter_mismatches(report, counters)
    assert [d.split(":")[0] for d in diffs] == ["factorcomm", "predcomm"]
    assert diffs[1] == (f"predcomm: analytic {report.predcomm} != simulated "
                        f"{report.predcomm + 5} (delta +5)")


def test_simulated_counters_match_model_sweep():
    rng = np.random.default_rng(2)
    specs = [
        NetworkSpec((6, 8, 4), bias_mode="homogeneous"),
        NetworkSpec((5, 3), activation="identity"),
        NetworkSpec((4, 7, 7, 2)),
    ]
    hyper = KfacHyper()
    mismatches = []
    for spec in specs:
        batch = Batch(rng.standard_normal((spec.layer_dims[0], 16)),
                      rng.integers(0, spec.layer_dims[-1], size=16))
        for algorithm in distsim.ALGORITHMS:
            for P in (1, 2, 4, 8):
                cluster = distsim.build_cluster(spec, algorithm, P, seed=0,
                                                shard_policy="replicate")
                res = distsim.run_step(cluster, batch, hyper, 0.05, 0.9, 0)
                report = algorithm_cost(cluster.layer_dims(), P, algorithm,
                                        inv_type=hyper.inv_type)
                diffs = counter_mismatches(report, res.counters)
                if diffs:
                    mismatches.append(f"{spec.layer_dims}/{algorithm}/P={P}: {'; '.join(diffs)}")
    assert not mismatches, "\n".join(mismatches)


def test_amortized_report_divides_factor_stages():
    report = algorithm_cost([LayerDims(4, 3)], 4, "mpd_kfac_mo")
    am = amortized_cost(report, f_freq=50, k_freq=500)
    assert am["factorcomm"] == report.factorcomm / 50
    assert am["inversecomp"] == report.inversecomp / 500
    assert am["gradcomm"] == report.gradcomm


def test_manifest_parsing(tmp_path):
    path = tmp_path / "layers.txt"
    path.write_text("# toy manifest\n4 3  # first\n\n3 2\n")
    assert load_manifest(path) == [LayerDims(4, 3), LayerDims(3, 2)]


def test_manifest_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4 3\n4\n")
    with pytest.raises(DataFormatError, match=r":2:"):
        load_manifest(path)
    path.write_text("4 x\n")
    with pytest.raises(DataFormatError, match=r":1:"):
        load_manifest(path)
    path.write_text("# only comments\n")
    with pytest.raises(DataFormatError, match="no layers"):
        load_manifest(path)


def test_bundled_resnet50_manifest_reference_totals():
    layers = resolve_manifest("resnet50")
    n_g, n_f = totals(layers)
    assert abs(n_g - 25.6e6) / 25.6e6 <= 0.05
    assert abs(n_f - 153.9e6) / 153.9e6 <= 0.05
    assert n_f / n_g > 2.0


def test_resolve_manifest_unknown_name():
    with pytest.raises(DataFormatError):
        resolve_manifest("no_such_manifest")


def test_algorithm_cost_validation():
    with pytest.raises(ArgumentError):
        algorithm_cost([LayerDims(4, 3)], 0, "dp_kfac")
    with pytest.raises(ArgumentError):
        algorithm_cost([LayerDims(4, 3)], 2, "adam")
