import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kfaclab import config, trainer
from kfaclab.config import (
    _SCHEMA,
    DataConfig,
    HyperConfig,
    RunConfig,
    TrainConfig,
    load_config,
    parse_overrides,
)
from kfaclab.costmodel import ALGORITHMS, STAGES, CostReport, StepCounters
from kfaclab.distsim import StepResult
from kfaclab.errors import ArgumentError, ConfigError, DataFormatError
from kfaclab.kfac import KfacHyper
from kfaclab.model import NetworkSpec
from kfaclab.trainer import (
    MetricsRow,
    csv_header,
    load_checkpoint,
    prepare_training,
    run_prepared,
    run_training,
    save_checkpoint,
    split_dataset,
)

BUNDLED = Path(__file__).resolve().parents[1] / "configs" / "blobs_dp_kfac.ini"

GOOD_CONFIG = """
[network]
layer_dims = 8,8,3
activation = tanh
bias_mode = homogeneous

[data]
kind = gaussian_blobs
classes = 3
dim = 8
samples = 300
noise = 0.2

[train]
algorithm = dp_kfac
workers = 2
epochs = 2
batch_size = 32
seed = 5

[hyper]
lr = 0.05
gamma = 0.1
xi = 0.05
"""


def _write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def _small_cfg(algorithm="dp_kfac", workers=2, epochs=2, seed=5, **hyper):
    return RunConfig(
        network=NetworkSpec((8, 8, 3), activation="tanh", bias_mode="homogeneous"),
        data=DataConfig(kind="gaussian_blobs", classes=3, dim=8, samples=300, noise=0.2),
        train=TrainConfig(algorithm=algorithm, workers=workers, epochs=epochs,
                          batch_size=32, seed=seed),
        hyper=HyperConfig(lr=0.05, gamma=0.1, xi=0.05, **hyper),
    )


def test_load_config_happy_path(tmp_path):
    cfg = load_config(_write(tmp_path, GOOD_CONFIG))
    assert cfg.network.layer_dims == (8, 8, 3)
    assert cfg.train.algorithm == "dp_kfac"
    assert cfg.hyper.gamma == 0.1
    assert cfg.data.eval_fraction == 0.1  # default


def test_overrides_win(tmp_path):
    path = _write(tmp_path, GOOD_CONFIG)
    cfg = load_config(path, parse_overrides(["--train.seed=9", "hyper.gamma=0.25"]))
    assert cfg.train.seed == 9
    assert cfg.hyper.gamma == 0.25


def test_bad_override_shape():
    with pytest.raises(ConfigError):
        parse_overrides(["--no-dots=1"])


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, GOOD_CONFIG.replace("seed = 5", "seed = 5\nbogus = 1"))
    with pytest.raises(ConfigError, match="bogus"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = _write(tmp_path, GOOD_CONFIG + "\n[cluster]\nsize = 4\n")
    with pytest.raises(ConfigError, match="cluster"):
        load_config(path)


def test_bad_value_names_key(tmp_path):
    path = _write(tmp_path, GOOD_CONFIG.replace("lr = 0.05", "lr = fast"))
    with pytest.raises(ConfigError, match="hyper.lr"):
        load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/definitely/not/here.ini")


def test_batch_divisibility_enforced(tmp_path):
    path = _write(tmp_path, GOOD_CONFIG.replace("workers = 2", "workers = 3"))
    with pytest.raises(ConfigError, match="^train.batch_size, train.workers and "
                                          "train.shard_policy: batch of 32 samples does not "
                                          "divide across 3 workers$"):
        load_config(path)


def test_idx_paths_must_exist(tmp_path):
    text = GOOD_CONFIG.replace(
        "kind = gaussian_blobs",
        "kind = idx\nimages = /nope.idx\nlabels = /nope2.idx",
    )
    with pytest.raises(ConfigError, match="images"):
        load_config(_write(tmp_path, text))


def test_network_data_dimension_consistency(tmp_path):
    path = _write(tmp_path, GOOD_CONFIG.replace("dim = 8", "dim = 9"))
    with pytest.raises(ConfigError, match="layer_dims"):
        load_config(path)


@pytest.mark.parametrize("override", [
    "hyper.gamma=nan", "hyper.lr=inf", "hyper.momentum=2", "hyper.xi=nan",
    "data.noise=-1", "data.samples=-5", "hyper.k_freq=0", "network.layer_dims=8,,3",
    "train.seed=-1", "hyper.lr=0", "hyper.gamma=1e400",
])
def test_out_of_range_value_is_config_error(tmp_path, override):
    path = _write(tmp_path, GOOD_CONFIG)
    with pytest.raises(ConfigError, match=override.split("=")[0].replace(".", r"\.")):
        load_config(path, parse_overrides([override]))


@pytest.mark.parametrize("override, message", [
    ("hyper.xi=0", "hyper.xi must be in (0, 1], got 0.0"),
    ("hyper.gamma=nan", "hyper.gamma must be finite and >= 0, got nan"),
    ("hyper.f_freq=0", "hyper.f_freq must be >= 1, got 0"),
    ("hyper.k_freq=0", "hyper.k_freq must be >= 1, got 0"),
    ("network.layer_dims=64,0,10", "network.layer_dims must all be >= 1, got (64, 0, 10)"),
    ("network.layer_dims=64", "network.layer_dims needs at least [d_0, d_1]"),
    ("data.samples=2", "data.samples must be >= classes (3), got 2"),
])
def test_out_of_range_messages_are_pinned(tmp_path, override, message):
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, GOOD_CONFIG), parse_overrides([override]))
    assert str(info.value) == message


def test_int_list_separators(tmp_path):
    path = _write(tmp_path, GOOD_CONFIG)
    for raw in ("8,8,3", "8 8 3", " 8, 8 ,3 "):
        assert load_config(path, {"network.layer_dims": raw}).network.layer_dims == (8, 8, 3)


_KEYS = [f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys]
_VALUES = (st.text(max_size=12)
           | st.integers(-10 ** 6, 10 ** 6).map(str)
           | st.floats().map(repr)
           | st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-0.0", "1", "2", ",", "8,,3",
                              "8,8,3", "3", "idx", "eigen", "inverse", "ssgd", "identity",
                              "mean_squared_error", "deep_linear_regression", ""]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(overrides=st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=8), _VALUES,
                                 max_size=4))
def test_fuzzed_overrides_load_or_raise_config_error(tmp_path, overrides):
    path = _write(tmp_path, GOOD_CONFIG)
    try:
        cfg = load_config(path, overrides)
    except ConfigError:
        return
    # whatever loads is a run the trainer accepts as configured
    assert all(np.isfinite([cfg.hyper.lr, cfg.hyper.momentum, cfg.hyper.xi,
                            cfg.hyper.gamma, cfg.data.noise]))
    assert isinstance(cfg.hyper, KfacHyper)


_LINES = (st.sampled_from(["[network]", "[data]", "[train]", "[hyper]", "[DEFAULT]", "[cluster]",
                           "[data", "", "# note", "; note", "  continued", "=", "seed"])
          | st.builds("{}{}{}".format, st.sampled_from(_KEYS).map(lambda k: k.split(".")[1]),
                      st.sampled_from([" = ", "=", ": ", " "]), _VALUES | st.just("100%"))
          | st.text(max_size=20))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(good=st.booleans(), lines=st.lists(_LINES, max_size=10), junk=st.binary(max_size=3),
       at=st.integers(0, 10 ** 6))
def test_fuzzed_config_files_load_or_raise_config_error(tmp_path, good, lines, junk, at):
    # text after the good config, or alone, with a few raw bytes spliced in
    body = ((GOOD_CONFIG if good else "") + "\n".join(lines)).encode()
    at %= len(body) + 1
    path = tmp_path / "fuzz.ini"
    path.write_bytes(body[:at] + junk + body[at:])
    try:
        load_config(path)
    except ConfigError:
        pass


def test_config_file_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "latin1.ini"
    path.write_bytes(GOOD_CONFIG.replace("seed = 5", "seed = 5 # caf\xe9").encode("latin-1"))
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))}.*utf-8"):
        load_config(path)


def test_percent_in_a_file_value_means_what_it_means_in_an_override(tmp_path):
    text = GOOD_CONFIG.replace("seed = 5", "seed = 5\nout_dir = runs_100%")
    from_file = load_config(_write(tmp_path, text))
    from_override = load_config(_write(tmp_path, GOOD_CONFIG), {"train.out_dir": "runs_100%"})
    assert from_file == from_override
    assert from_file.train.out_dir == "runs_100%"


# the config schema, written out independently of the dataclasses: every
# key's caster, and for the keys read from a fixed set, that set in order
_PINNED_SCHEMA = {
    "network": {"layer_dims": "int list", "activation": ("relu", "tanh", "identity"),
                "loss_kind": ("softmax_cross_entropy", "mean_squared_error"),
                "bias_mode": ("none", "homogeneous")},
    "data": {"kind": ("gaussian_blobs", "deep_linear_regression", "idx"), "classes": int,
             "dim": int, "samples": int, "noise": float, "out_dim": int, "images": str,
             "labels": str, "eval_fraction": float},
    "train": {"algorithm": ("ssgd", "mpd_kfac_co", "mpd_kfac_mo", "dp_kfac"), "workers": int,
              "shard_policy": ("disjoint", "replicate"), "epochs": int, "batch_size": int,
              "seed": int, "out_dir": str},
    "hyper": {"gamma": float, "xi": float, "inv_type": ("inverse", "eigen"), "f_freq": int,
              "k_freq": int, "lr": float, "momentum": float, "warmup_iters": int,
              "decay_epochs": "int list"},
}
_CHOICE_KEYS = [(f"{section}.{key}", options) for section, keys in _PINNED_SCHEMA.items()
                for key, options in keys.items() if isinstance(options, tuple)]
_EVERY_OPTION = {o for _, options in _CHOICE_KEYS for o in options} | {"bogus", ""}


def test_schema_is_the_pinned_keys_and_casters():
    assert {s: list(keys) for s, keys in _SCHEMA.items()} == \
           {s: list(keys) for s, keys in _PINNED_SCHEMA.items()}
    for section, keys in _PINNED_SCHEMA.items():
        for key, expected in keys.items():
            cast = _SCHEMA[section][key]
            if expected == "int list":
                assert cast is config._int_list, (section, key)
            else:  # a choice key is read as text, and its record checks the choice
                assert cast is (str if isinstance(expected, tuple) else expected), (section, key)
    assert len(_KEYS) == 29
    assert len(_CHOICE_KEYS) == 7


@pytest.mark.parametrize("dotted, options", _CHOICE_KEYS)
def test_choice_keys_load_their_options_and_name_the_rest(tmp_path, dotted, options):
    path = _write(tmp_path, GOOD_CONFIG)
    # the overrides that make the rest of the config fit each option
    companions = {
        "mean_squared_error": {"data.kind": "deep_linear_regression", "data.out_dim": "3"},
        "deep_linear_regression": {"network.loss_kind": "mean_squared_error",
                                   "data.out_dim": "3"},
        "idx": {"data.images": str(path), "data.labels": str(path)},
    }
    section, _, key = dotted.partition(".")
    for option in options:
        cfg = load_config(path, {dotted: option, **companions.get(option, {})})
        assert getattr(getattr(cfg, section), key) == option
    for other in sorted(_EVERY_OPTION - set(options)):
        with pytest.raises(ConfigError) as info:
            load_config(path, {dotted: other})
        assert str(info.value) == f"{dotted} must be one of {options!r}, got {other!r}"


# one bad value for every key that has a rule; images, labels and out_dir have none
_BAD_VALUES = {
    "network": {"layer_dims": (8, 0, 3), "activation": "sigmoid", "loss_kind": "hinge",
                "bias_mode": "full"},
    "data": {"kind": "spiral", "classes": 1, "dim": 0, "samples": 0, "noise": -0.5,
             "out_dim": 0, "eval_fraction": 1.0},
    "train": {"algorithm": "adam", "workers": 0, "shard_policy": "random", "epochs": 0,
              "batch_size": 0, "seed": -1},
    "hyper": {"gamma": float("inf"), "xi": 0.0, "inv_type": "cholesky", "f_freq": 0,
              "k_freq": 0, "lr": float("nan"), "momentum": 1.0, "warmup_iters": -1,
              "decay_epochs": (2, -1)},
}
_RECORDS = {"network": lambda **kw: NetworkSpec(**{"layer_dims": (8, 8, 3), **kw}),
            "data": DataConfig, "train": TrainConfig, "hyper": HyperConfig}


def test_bad_values_cover_every_ruled_key():
    unruled = {"data.images", "data.labels", "train.out_dir"}
    assert {f"{s}.{k}" for s, keys in _BAD_VALUES.items() for k in keys} == set(_KEYS) - unruled


@pytest.mark.parametrize("section, key, value", [
    (section, key, value) for section, keys in _BAD_VALUES.items() for key, value in keys.items()])
def test_config_message_is_the_records_own_with_the_section(tmp_path, section, key, value):
    # config.py adds the section and no rule of its own
    with pytest.raises(ArgumentError) as from_record:
        _RECORDS[section](**{key: value})
    assert str(from_record.value).startswith(f"{key} ")
    raw = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    with pytest.raises(ConfigError) as from_config:
        load_config(_write(tmp_path, GOOD_CONFIG), {f"{section}.{key}": raw})
    assert str(from_config.value) == f"{section}.{from_record.value}"


@pytest.mark.parametrize("record, field, value", [
    (TrainConfig, "batch_size", 0), (TrainConfig, "seed", -1), (TrainConfig, "epochs", 0),
    (HyperConfig, "lr", -1.0), (HyperConfig, "momentum", 5.0),
    (DataConfig, "eval_fraction", 1.5), (DataConfig, "kind", "spiral"),
    # values of the wrong type
    (KfacHyper, "gamma", "x"), (TrainConfig, "workers", "4"), (DataConfig, "samples", None),
    (HyperConfig, "decay_epochs", (1, "a")), (TrainConfig, "epochs", 2.5),
])
def test_a_record_built_directly_rejects_a_bad_field_by_name(record, field, value):
    with pytest.raises(ArgumentError, match=f"^{field} must be .*, got {re.escape(repr(value))}$"):
        record(**{field: value})


_RECORD_FIELDS = [(record, f.name) for record in (KfacHyper, TrainConfig, DataConfig, HyperConfig)
                  for f in dataclasses.fields(record)]


@settings(max_examples=200, deadline=None)
@given(record_field=st.sampled_from(_RECORD_FIELDS),
       value=st.text(max_size=4) | st.none() | st.floats() | st.booleans()
       | st.lists(st.integers(-2, 3) | st.text(max_size=2) | st.none(), max_size=3))
def test_a_field_of_any_type_builds_or_is_named(record_field, value):
    record, field = record_field
    try:
        record(**{field: value})
    except ArgumentError as exc:
        assert str(exc).startswith(f"{field} must be "), str(exc)


def test_the_data_section_is_the_datasets_record():
    from kfaclab import datasets
    assert config.DataConfig is datasets.DataConfig


def test_manifest_config_block_holds_every_schema_key():
    d = _small_cfg().to_dict()
    assert {s: list(keys) for s, keys in d.items()} == \
           {s: list(keys) for s, keys in _SCHEMA.items()}


def test_bundled_config_names_every_schema_key():
    # each key as a setting or a commented-out example, in its own section
    section, named = None, set()
    for line in BUNDLED.read_text().splitlines():
        match = re.match(r"^\[(\w+)\]|^#?\s*(\w+)\s*=", line)
        if match and match[1]:
            section = match[1]
        elif match:
            named.add(f"{section}.{match[2]}")
    assert set(_KEYS) <= named, sorted(set(_KEYS) - named)


def test_run_training_is_deterministic():
    a = run_training(_small_cfg())
    b = run_training(_small_cfg())
    assert [r.as_csv_fields() for r in a.rows] == [r.as_csv_fields() for r in b.rows]
    for la, lb in zip(a.cluster.workers[0].replica.layers,
                      b.cluster.workers[0].replica.layers):
        assert np.array_equal(la.weight, lb.weight)


def test_run_training_row_structure():
    res = run_training(_small_cfg())
    assert res.iters_per_epoch == 270 // 32  # 300 samples, 10% eval, batches of 32
    assert len(res.rows) == 2 * res.iters_per_epoch
    assert [r.iteration for r in res.rows] == list(range(len(res.rows)))
    eval_rows = [r for r in res.rows if r.eval_loss is not None]
    assert [r.epoch for r in eval_rows] == [0, 1]
    assert all(r.eval_accuracy is not None for r in eval_rows)
    # after each epoch's last step
    ipe = res.iters_per_epoch
    assert [r.iteration for r in eval_rows] == [ipe - 1, 2 * ipe - 1]


def test_each_epoch_draws_its_own_shuffle(monkeypatch):
    # epoch e takes its batches in the order of its own child stream,
    # default_rng([shuffle seed, e]), not epoch 0's
    run, inputs = prepare_training(_small_cfg()), []

    def step(cluster, batch, *rest):
        inputs.append(batch.inputs)
        return StepResult(0.0, StepCounters())

    monkeypatch.setattr(trainer, "run_step", step)
    run_prepared(run)
    B, ipe, n = run.cfg.train.batch_size, run.iters_per_epoch, len(run.train_idx)
    shuffle_seed = trainer._child_seeds(run.cfg.train.seed)["shuffle"]
    for epoch in (0, 1):
        order = run.train_idx[np.random.default_rng([shuffle_seed, epoch]).permutation(n)]
        expected = [run.dataset.inputs[:, order[b * B:(b + 1) * B]] for b in range(ipe)]
        got = inputs[epoch * ipe:(epoch + 1) * ipe]
        assert all(np.array_equal(x, y) for x, y in zip(got, expected, strict=True))


def test_row_counters_match_cluster_log(monkeypatch):
    # every row carries all seven counters of the step that made it
    steps = []
    original = trainer.run_step

    def capturing(*args):
        steps.append(original(*args))
        return steps[-1]

    monkeypatch.setattr(trainer, "run_step", capturing)
    for algorithm in ALGORITHMS:
        steps.clear()
        res = run_training(_small_cfg(algorithm, workers=4, k_freq=3))
        assert len(steps) == len(res.rows) > 0
        for row, step in zip(res.rows, steps):
            assert row.train_loss == step.loss
            assert ([getattr(row, s) for s in STAGES]
                    == [getattr(step.counters, s) for s in STAGES]), (algorithm, row.iteration)


def test_csv_header_and_counter_fields_are_pinned():
    assert csv_header() == (
        "iteration,epoch,lr,train_loss,eval_loss,eval_accuracy,"
        "gradcomp,factorcomp,inversecomp,"
        "gradcomm,factorcomm,predcomm,inversecomm"
    )
    assert STAGES == ("gradcomp", "factorcomp", "inversecomp",
                      "gradcomm", "factorcomm", "predcomm", "inversecomm")
    assert tuple(f.name for f in dataclasses.fields(StepCounters)) == STAGES
    # the report and the row are the stage record plus fields of their own
    for record in (CostReport, MetricsRow):
        assert issubclass(record, StepCounters)
        names = [f.name for f in dataclasses.fields(record)]
        assert [n for n in names if n in STAGES] == list(STAGES), record


def test_dp_and_mpd_identical_on_one_worker():
    dp = run_training(_small_cfg(algorithm="dp_kfac", workers=1))
    mo = run_training(_small_cfg(algorithm="mpd_kfac_mo", workers=1))
    for a, b in zip(dp.rows, mo.rows):
        assert abs(a.train_loss - b.train_loss) <= 1e-12


def test_split_dataset_deterministic_and_disjoint():
    from kfaclab.datasets import gen_synthetic
    data = gen_synthetic("gaussian_blobs", {"classes": 3, "dim": 4, "samples": 50, "noise": 0.1}, 0)
    tr1, ev1 = split_dataset(data, 0.2, seed=4)
    tr2, ev2 = split_dataset(data, 0.2, seed=4)
    assert np.array_equal(tr1, tr2) and np.array_equal(ev1, ev2)
    assert len(ev1) == 10
    assert sorted(np.concatenate([tr1, ev1])) == list(range(50))


def test_checkpoint_roundtrip(tmp_path):
    res = run_training(_small_cfg())
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, res.cluster, res.final_iteration, 2)
    ckpt = load_checkpoint(path)
    assert ckpt.iteration == res.final_iteration
    assert ckpt.epoch == 2
    for i, layer in enumerate(res.cluster.net.layers):
        assert np.array_equal(ckpt.arrays[f"layer{i}/weight"], layer.weight)
    # one factor state per layer, whichever worker owns it
    layers = [f"factors/layer{i}" for i in range(res.cluster.n_layers)]
    assert sorted(ckpt.meta["factor_states"]) == layers
    assert all(k.startswith(("factors/", "layer")) for k in ckpt.arrays)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOT93een" + b"\x00" * 32)
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(path)


@pytest.mark.parametrize("freqs", [(1, 1), (3, 7)])
def test_resume_continues_exactly(tmp_path, freqs):
    # the (3, 7) intervals leave the resume point mid-staleness, so the rows
    # only match if the checkpointed factor states are restored verbatim
    f_freq, k_freq = freqs
    full = run_training(_small_cfg(epochs=4, f_freq=f_freq, k_freq=k_freq))

    half = run_training(_small_cfg(epochs=2, f_freq=f_freq, k_freq=k_freq))
    path = tmp_path / "half.ckpt"
    save_checkpoint(path, half.cluster, half.final_iteration, 2)

    resumed = run_training(_small_cfg(epochs=4, f_freq=f_freq, k_freq=k_freq),
                           resume_from=load_checkpoint(path))
    tail = full.rows[len(half.rows):]
    assert len(resumed.rows) == len(tail)
    for a, b in zip(resumed.rows, tail):
        assert a.as_csv_fields() == b.as_csv_fields()
    for la, lb in zip(resumed.cluster.workers[0].replica.layers,
                      full.cluster.workers[0].replica.layers):
        assert np.array_equal(la.weight, lb.weight)


@pytest.mark.parametrize("algorithm", ["mpd_kfac_co", "mpd_kfac_mo"])
def test_mpd_resume_continues_exactly_with_one_array_per_factor(tmp_path, algorithm):
    hyper = {"f_freq": 3, "k_freq": 7}
    full = run_training(_small_cfg(algorithm, workers=4, epochs=4, **hyper))
    half = run_training(_small_cfg(algorithm, workers=4, epochs=2, **hyper))
    path = tmp_path / "half.ckpt"
    save_checkpoint(path, half.cluster, half.final_iteration, 2)

    run = prepare_training(_small_cfg(algorithm, workers=4, epochs=4, **hyper),
                           load_checkpoint(path))
    # all four workers read the one restored array of each factor
    for name in ("a_cov", "g_cov"):
        held = {id(getattr(s, name)) for w in run.cluster.workers for s in w.factors.values()}
        assert len(held) == run.cluster.n_layers, name
    resumed = run_prepared(run)
    tail = full.rows[len(half.rows):]
    assert [r.as_csv_fields() for r in resumed.rows] == [r.as_csv_fields() for r in tail]
    for la, lb in zip(resumed.cluster.net.layers, full.cluster.net.layers):
        assert np.array_equal(la.weight, lb.weight)


def test_run_manifest_config_block_reproduces_run(tmp_path):
    from kfaclab.config import config_from_dict
    cfg = _small_cfg()
    original = run_training(cfg)
    rebuilt_cfg = config_from_dict(cfg.to_dict())
    rebuilt = run_training(rebuilt_cfg)
    assert [r.as_csv_fields() for r in rebuilt.rows] == \
           [r.as_csv_fields() for r in original.rows]


@pytest.mark.parametrize("section, key, value", [
    ("hyper", "lr", "fast"), ("hyper", "gamma", float("nan")), ("train", "seed", -1),
    ("train", "shard_policy", "strided"), ("hyper", "f_freq", 1.5), ("hyper", "k_freq", True),
    ("train", "workers", 2.0), ("train", "epochs", 1.0), ("hyper", "gamma", "fast"),
    ("network", "layer_dims", [8, 8.0, 3]), ("train", "algorithm", "adam"),
])
def test_run_manifest_config_block_values_are_checked(section, key, value):
    from kfaclab.config import config_from_dict
    d = _small_cfg().to_dict()
    d[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        config_from_dict(d)


def test_run_manifest_json_config_block_rebuilds_the_config():
    from kfaclab.config import config_from_dict
    cfg = _small_cfg(decay_epochs=(1, 2))
    d = json.loads(json.dumps(cfg.to_dict()))
    assert config_from_dict(d) == cfg
    d["hyper"]["lr"] = 1  # a float key takes an integer, as a number
    rebuilt = config_from_dict(d).hyper.lr
    assert rebuilt == 1.0 and type(rebuilt) is float


def test_resume_past_end_rejected(tmp_path):
    half = run_training(_small_cfg(epochs=2))
    path = tmp_path / "half.ckpt"
    save_checkpoint(path, half.cluster, half.final_iteration, 2)
    with pytest.raises(ArgumentError, match="epoch"):
        run_training(_small_cfg(epochs=2), resume_from=load_checkpoint(path))


def test_ssgd_rows_have_zero_second_order_counters():
    res = run_training(_small_cfg(algorithm="ssgd"))
    assert all(r.factorcomm == 0 and r.predcomm == 0 and r.inversecomm == 0
               for r in res.rows)
