"""Checkpoint parser hardening: every malformed file is a DataFormatError
that names a byte offset, never a raw struct/JSON/key error."""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from kfaclab import cli, kfac
from kfaclab.config import DataConfig, HyperConfig, RunConfig, TrainConfig, load_config
from kfaclab.distsim import build_cluster, run_step
from kfaclab.errors import DataFormatError
from kfaclab.model import Batch, NetworkSpec
from kfaclab.trainer import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Checkpoint,
    _cluster_arrays,
    load_checkpoint,
    restore_cluster,
    run_training,
    save_checkpoint,
)

SPEC = NetworkSpec((3, 4, 2), activation="tanh")


def _cfg(spec=SPEC, algorithm="dp_kfac", workers=2, inv_type="eigen", samples=40,
         batch_size=8):
    return RunConfig(
        network=spec,
        data=DataConfig(kind="gaussian_blobs", classes=2, dim=spec.layer_dims[0],
                        samples=samples),
        train=TrainConfig(algorithm=algorithm, workers=workers, epochs=1,
                          batch_size=batch_size, seed=0),
        hyper=HyperConfig(inv_type=inv_type),
    )


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """(header dict, array payload) of a freshly saved two-worker checkpoint."""
    path = tmp_path_factory.mktemp("ckpt") / "valid.ckpt"
    save_checkpoint(path, build_cluster(SPEC, "dp_kfac", 2, seed=0), 0, 0)
    data = path.read_bytes()
    header_len = struct.unpack("<Q", data[12:20])[0]
    return json.loads(data[20:20 + header_len]), data[20 + header_len:]


def _pack(header, payload=b"", blob=None, version=CHECKPOINT_VERSION):
    blob = json.dumps(header).encode() if blob is None else blob
    return (CHECKPOINT_MAGIC + struct.pack("<I", version)
            + struct.pack("<Q", len(blob)) + blob + payload)


def _load(tmp_path, data):
    path = tmp_path / "case.ckpt"
    path.write_bytes(data)
    return load_checkpoint(path)


def _fails(tmp_path, data, fragment):
    with pytest.raises(DataFormatError, match=rf"{fragment}.*byte offset \d+"):
        _load(tmp_path, data)


def test_valid_checkpoint_loads(tmp_path, valid):
    ckpt = _load(tmp_path, _pack(*valid))
    assert sorted(ckpt.arrays) == sorted(e["name"] for e in valid[0]["arrays"])


def test_truncated_header(tmp_path, valid):
    _fails(tmp_path, _pack(*valid)[:15], "truncated header")


def test_header_length_past_end(tmp_path, valid):
    data = bytearray(_pack(*valid))
    data[12:20] = struct.pack("<Q", 2 ** 40)
    _fails(tmp_path, bytes(data), "runs past the end")


def test_bad_json(tmp_path, valid):
    _fails(tmp_path, _pack(None, valid[1], blob=b'{"meta": {'), "not valid JSON")


def test_header_not_utf8(tmp_path, valid):
    _fails(tmp_path, _pack(None, valid[1], blob=b'{"meta": "\xff"}'), "not UTF-8")


@pytest.mark.parametrize("key", ["meta", "arrays"])
def test_missing_top_level_key(tmp_path, valid, key):
    header = json.loads(json.dumps(valid[0]))
    del header[key]
    _fails(tmp_path, _pack(header, valid[1]), "'meta' object and an 'arrays' list")


@pytest.mark.parametrize("key", ["iteration", "epoch", "algorithm", "workers", "factor_states"])
def test_missing_meta_key(tmp_path, valid, key):
    header = json.loads(json.dumps(valid[0]))
    del header["meta"][key]
    _fails(tmp_path, _pack(header, valid[1]), f"meta needs .*'{key}'")


def test_missing_factor_state_key(tmp_path, valid):
    header = json.loads(json.dumps(valid[0]))
    first = sorted(header["meta"]["factor_states"])[0]
    del header["meta"]["factor_states"][first]["initialized"]
    _fails(tmp_path, _pack(header, valid[1]), "'initialized'")


def test_negative_shape(tmp_path, valid):
    header = json.loads(json.dumps(valid[0]))
    header["arrays"][0]["shape"] = [-1, 3]
    _fails(tmp_path, _pack(header, valid[1]), "invalid shape")


def test_unsupported_dtype(tmp_path, valid):
    header = json.loads(json.dumps(valid[0]))
    header["arrays"][0]["dtype"] = "<f4"
    _fails(tmp_path, _pack(header, valid[1]), "unsupported dtype")


def test_truncated_array_data(tmp_path, valid):
    _fails(tmp_path, _pack(valid[0], valid[1][:-1]), "truncated data")


def test_trailing_bytes(tmp_path, valid):
    _fails(tmp_path, _pack(valid[0], valid[1] + b"\0"), "1 trailing bytes")


def test_restore_names_missing_array(tmp_path, valid):
    header = json.loads(json.dumps(valid[0]))
    last = header["arrays"].pop()
    payload = valid[1][:-8 * math.prod(last["shape"])]
    ckpt = _load(tmp_path, _pack(header, payload))
    with pytest.raises(DataFormatError, match=last["name"]):
        restore_cluster(build_cluster(SPEC, "dp_kfac", 2, seed=0), ckpt, _cfg())


def test_missing_resume_file_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[network]\nlayer_dims = 3,2\n\n[data]\nkind = gaussian_blobs\n"
                   "classes = 2\ndim = 3\nsamples = 40\n")
    code = cli.main(["--out-dir", str(tmp_path / "out"), "train", str(cfg),
                     "--resume", str(tmp_path / "absent.ckpt")])
    assert code == cli.EXIT_DATA
    assert "absent.ckpt" in capsys.readouterr().err


CO_CONFIG = ("[network]\nlayer_dims = 3,4,2\n\n[data]\nkind = gaussian_blobs\nclasses = 2\n"
             "dim = 3\nsamples = 40\n\n[train]\nalgorithm = mpd_kfac_co\nworkers = 2\n"
             "batch_size = 8\n")


@pytest.fixture(scope="module")
def co_run(tmp_path_factory):
    """(config path, checkpoint) of a finished one-epoch mpd_kfac_co run."""
    root = tmp_path_factory.mktemp("co")
    cfg = root / "co.ini"
    cfg.write_text(CO_CONFIG)
    assert cli.main(["--out-dir", str(root / "run"), "train", str(cfg)]) == 0
    return cfg, load_checkpoint(root / "run" / "final.ckpt")


def _edit_checkpoint(ckpt, meta_edit=(), drop=(), add=()):
    """(meta, arrays) of ``ckpt`` after an edit, ``ckpt`` left as it is.
    ``meta_edit`` maps a top-level meta key to its new value, or a factor
    state's name to the fields to change in it (None drops the state); the
    arrays named in ``drop`` go, and those in ``add`` join or replace the
    stored ones."""
    meta = json.loads(json.dumps(ckpt.meta))
    states = meta["factor_states"]
    for key, value in dict(meta_edit).items():
        if key not in states:
            meta[key] = value
        elif value is None:
            del states[key]
        else:
            states[key].update(value)
    arrays = {n: a for n, a in ckpt.arrays.items() if n not in drop}
    return meta, {**arrays, **dict(add)}


def _resume(tmp_path, capsys, cfg, meta, arrays, version=CHECKPOINT_VERSION):
    """Resume ``cfg`` to two epochs from ``tmp_path/edited.ckpt``, a
    checkpoint holding ``meta`` and ``arrays`` laid out as the trainer saves
    them; returns (exit code, stderr)."""
    names = sorted(arrays)
    header = {"meta": meta, "arrays": [
        {"name": n, "shape": list(arrays[n].shape), "dtype": "<f8"} for n in names]}
    path = tmp_path / "edited.ckpt"
    path.write_bytes(_pack(header, b"".join(arrays[n].tobytes() for n in names),
                           blob=json.dumps(header, sort_keys=True).encode(), version=version))
    capsys.readouterr()
    code = cli.main(["--out-dir", str(tmp_path / "out"), "train", str(cfg),
                     "--train.epochs=2", "--resume", str(path)])
    return code, capsys.readouterr().err


def _rejected_resume(tmp_path, capsys, co_run, fragment, edited=None, version=CHECKPOINT_VERSION):
    """Resume the co_run config from its checkpoint, or from the (meta,
    arrays) of ``edited``, into a directory that already holds metrics: exit
    3 with ``fragment`` on stderr, no traceback, the metrics untouched.
    Returns stderr."""
    cfg, ckpt = co_run
    kept = tmp_path / "out" / "metrics.csv"
    kept.parent.mkdir()
    kept.write_text("iteration,epoch\n0,0\n")
    code, err = _resume(tmp_path, capsys, cfg, *(edited or (ckpt.meta, ckpt.arrays)), version)
    assert code == cli.EXIT_DATA
    assert fragment in err
    assert "Traceback" not in err
    assert kept.read_bytes() == b"iteration,epoch\n0,0\n"
    return err


def test_rewritten_checkpoint_resumes(tmp_path, capsys, co_run):
    cfg, ckpt = co_run
    assert _resume(tmp_path, capsys, cfg, ckpt.meta, ckpt.arrays) == (0, "")
    # laid out as the trainer saves it
    assert ((tmp_path / "edited.ckpt").read_bytes()
            == (cfg.parent / "run" / "final.ckpt").read_bytes())


LAYER1 = "factor state 'factors/layer1' (layer 1, owner worker 1)"


def test_restore_rejects_eigenbasis_without_eigenvalues(tmp_path, capsys, co_run):
    _rejected_resume(tmp_path, capsys, co_run,
                     "factor state 'factors/layer0' (layer 0, owner worker 0) under inv_type "
                     "'eigen': a_eig_v is missing from a state with last_factor_update = 3, "
                     "last_inverse_update = 3",
                     _edit_checkpoint(co_run[1], drop=["factors/layer0/a_eig_v"]))


def test_restore_rejects_mis_shaped_factor(tmp_path, capsys, co_run):
    _rejected_resume(tmp_path, capsys, co_run,
                     f"{LAYER1} under inv_type 'eigen': a_cov is of shape (2, 2); the layer "
                     f"needs (4, 4)",
                     _edit_checkpoint(co_run[1], add={"factors/layer1/a_cov": np.eye(2)}))


def test_restore_rejects_missing_factor_state(tmp_path, capsys, co_run):
    ckpt = co_run[1]
    _rejected_resume(tmp_path, capsys, co_run, f"no {LAYER1}", _edit_checkpoint(
        ckpt, {"factors/layer1": None},
        drop=[n for n in ckpt.arrays if n.startswith("factors/layer1/")]))


def test_restore_rejects_initialized_state_without_factors(tmp_path, capsys, co_run):
    assert co_run[1].meta["factor_states"]["factors/layer1"]["initialized"]
    _rejected_resume(tmp_path, capsys, co_run,
                     f"{LAYER1} under inv_type 'eigen': a_cov is missing from a state with "
                     f"last_factor_update = 3, last_inverse_update = 3",
                     _edit_checkpoint(co_run[1],
                                      drop=["factors/layer1/a_cov", "factors/layer1/g_cov"]))


@pytest.mark.parametrize("saved, resumed", [("eigen", "inverse"), ("inverse", "eigen")])
def test_resume_with_other_damping_scheme_is_data_error(tmp_path, capsys, saved, resumed):
    # four iterations with k_freq = 3: the last refresh is at iteration 3 and
    # the resumed run's first step (iteration 4) would reuse its results
    cfg = tmp_path / "dp.ini"
    cfg.write_text(CO_CONFIG.replace("mpd_kfac_co", "dp_kfac"))
    run = ["train", str(cfg), f"--hyper.inv_type={saved}", "--hyper.k_freq=3"]
    assert cli.main(["--out-dir", str(tmp_path / "run"), *run]) == 0
    capsys.readouterr()
    code = cli.main(["--out-dir", str(tmp_path / "out"), "train", str(cfg),
                     f"--hyper.inv_type={resumed}", "--hyper.k_freq=3", "--train.epochs=2",
                     "--resume", str(tmp_path / "run" / "final.ckpt")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    first = {"inverse": "a_damped_inv", "eigen": "a_eig_q"}[resumed]
    assert (f"factor state 'factors/layer0' (layer 0, owner worker 0) under inv_type "
            f"'{resumed}': {first} is missing from a state with last_factor_update = 3, "
            f"last_inverse_update = 3") in err
    assert "Traceback" not in err


def test_restore_rejects_refreshed_state_without_decomposition(tmp_path, capsys, co_run):
    ckpt = co_run[1]
    _rejected_resume(tmp_path, capsys, co_run,
                     f"{LAYER1} under inv_type 'eigen': a_eig_q is missing from a state with "
                     f"last_factor_update = 3, last_inverse_update = 3",
                     _edit_checkpoint(ckpt, drop=[n for n in ckpt.arrays
                                                  if n.startswith("factors/layer1/")
                                                  and "_eig_" in n]))


def test_restore_rejects_decompositions_of_both_damping_schemes(tmp_path, capsys, co_run):
    # an eigen run stores eigenbases only; damped inverses next to them would
    # be carried into the next save although the run never reads them
    ckpt = co_run[1]
    a_cov, g_cov = ckpt.arrays["factors/layer0/a_cov"], ckpt.arrays["factors/layer0/g_cov"]
    _rejected_resume(tmp_path, capsys, co_run,
                     "factor state 'factors/layer0' (layer 0, owner worker 0) under inv_type "
                     "'eigen': a_damped_inv is not part of a state with last_factor_update = 3, "
                     "last_inverse_update = 3",
                     _edit_checkpoint(ckpt, add={
                         "factors/layer0/a_damped_inv": np.eye(a_cov.shape[0]),
                         "factors/layer0/g_damped_inv": np.eye(g_cov.shape[0])}))


@pytest.mark.parametrize("name", ["layer0/velocity", "factors/layer7/a_cov",
                                  "factors/layer1/a_eig_w"])
def test_restore_rejects_arrays_the_run_does_not_read(tmp_path, capsys, co_run, name):
    _rejected_resume(tmp_path, capsys, co_run,
                     f"checkpoint array {name!r} is not part of the state this run restores",
                     _edit_checkpoint(co_run[1], add={name: np.zeros(3)}))


@pytest.mark.parametrize("initialized, stamp", [(False, 3), (True, -1)])
def test_restore_rejects_initialized_flag_that_contradicts_its_stamp(
        tmp_path, capsys, co_run, initialized, stamp):
    # an uninitialized state's next running-average update would replace the
    # restored averages instead of folding into them
    _rejected_resume(tmp_path, capsys, co_run,
                     f"{LAYER1}: initialized = {json.dumps(initialized)} contradicts "
                     f"last_factor_update = {stamp}",
                     _edit_checkpoint(co_run[1], {"factors/layer1": {
                         "initialized": initialized, "last_factor_update": stamp}}))


def test_restore_rejects_factors_of_an_uninitialized_state(tmp_path, capsys, co_run):
    ckpt = co_run[1]
    _rejected_resume(tmp_path, capsys, co_run,
                     f"{LAYER1} under inv_type 'eigen': a_cov is not part of a state with "
                     f"last_factor_update = -1, last_inverse_update = -1",
                     _edit_checkpoint(ckpt, {"factors/layer1": {
                         "initialized": False, "last_factor_update": -1,
                         "last_inverse_update": -1}},
                         drop=[n for n in ckpt.arrays
                               if n.startswith("factors/layer1/") and "_eig_" in n]))


def test_resume_rejects_refresh_before_any_factor_update(tmp_path, capsys, co_run):
    # no run refreshes a state before its first factor update, so a state
    # whose eigenbases outlive its averaged factors is no state a run reaches
    _rejected_resume(tmp_path, capsys, co_run,
                     f"{LAYER1} under inv_type 'eigen': a refresh needs a factor update "
                     f"first, but last_factor_update = -1, last_inverse_update = 3",
                     _edit_checkpoint(co_run[1], {"factors/layer1": {
                         "initialized": False, "last_factor_update": -1}},
                         drop=["factors/layer1/a_cov", "factors/layer1/g_cov"]))


def test_resume_from_version_1_checkpoint_is_rejected(tmp_path, capsys, co_run):
    _rejected_resume(tmp_path, capsys, co_run,
                     f"unsupported checkpoint version 1 (this build reads version "
                     f"{CHECKPOINT_VERSION}) at byte offset 8", version=1)


@pytest.mark.parametrize("edit, fragment", [
    ({"epoch": -1}, "header meta epoch = -1 is negative at byte offset 20"),
    ({"iteration": -4}, "header meta iteration = -4 is negative at byte offset 20"),
    # at 4 iterations per epoch this would replay 8 rows starting mid-epoch
    ({"iteration": 2, "epoch": 0},
     "checkpoint iteration = 2 is not epoch 0 x 4 iterations per epoch"),
], ids=["negative-epoch", "negative-iteration", "mid-epoch"])
def test_resume_rejects_impossible_position(tmp_path, capsys, co_run, edit, fragment):
    _rejected_resume(tmp_path, capsys, co_run, fragment, _edit_checkpoint(co_run[1], edit))


@pytest.mark.parametrize("stamp, value", [
    ("last_factor_update", 10 ** 6), ("last_inverse_update", 10 ** 6),
    ("last_factor_update", 4), ("last_inverse_update", -2),
])
def test_resume_rejects_impossible_staleness_stamp(tmp_path, capsys, co_run, stamp, value):
    _rejected_resume(tmp_path, capsys, co_run,
                     f"{LAYER1}: {stamp} = {value} lies outside -1..3 for a checkpoint at "
                     f"iteration 4",
                     _edit_checkpoint(co_run[1], {"factors/layer1": {stamp: value}}))


_EIGEN_STATE = ("a_cov", "g_cov", "a_eig_q", "a_eig_v", "g_eig_q", "g_eig_v")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
# states a run reaches: never updated, updated and not refreshed, and stale
@example(layer=1, f=-1, k=-1, flag=None, drop=set(_EIGEN_STATE), add=set())
@example(layer=0, f=2, k=-1, flag=None, drop=set(_EIGEN_STATE[2:]), add=set())
@example(layer=1, f=1, k=3, flag=None, drop=set(), add=set())
@given(layer=st.integers(0, 1), f=st.integers(-1, 3), k=st.integers(-1, 3),
       flag=st.none() | st.booleans(), drop=st.sets(st.sampled_from(_EIGEN_STATE)),
       add=st.sets(st.sampled_from(kfac.DECOMPOSITION_NAMES["inverse"])))
def test_edited_factor_state_resumes_exactly_or_exits_3(
        tmp_path_factory, capsys, co_run, layer, f, k, flag, drop, add):
    """An edit of one layer's flag, stamps (in range) and arrays either is
    rejected naming what is wrong, or restores a state the rule accepts
    that saves back to the same bytes.  Which of the two is decided here
    from the rule's four clauses, stated again as sets of names."""
    cfg, ckpt = co_run
    prefix = f"factors/layer{layer}"
    flag = f >= 0 if flag is None else flag
    d_out, d_in = ckpt.arrays[f"layer{layer}/weight"].shape
    edited = _edit_checkpoint(
        ckpt, {prefix: {"initialized": flag, "last_factor_update": f, "last_inverse_update": k}},
        drop=[f"{prefix}/{n}" for n in drop],
        add={f"{prefix}/{n}": np.eye(d_in if n[0] == "a" else d_out) for n in add})
    held = set(_EIGEN_STATE) - drop | add
    needed = set(_EIGEN_STATE[:2] if f >= 0 else ()) | set(_EIGEN_STATE[2:] if k >= 0 else ())
    tmp = tmp_path_factory.mktemp("edit")
    legal = flag == (f >= 0) and not k >= 0 > f and held == needed
    event("restored" if legal else "rejected")
    if legal:
        assert _resume(tmp, capsys, cfg, *edited) == (0, "")
        run_cfg = load_config(cfg)
        restored = build_cluster(run_cfg.network, "mpd_kfac_co", 2, seed=1)
        restore_cluster(restored, load_checkpoint(tmp / "edited.ckpt"), run_cfg)
        for i, state in restored.factors.items():
            d_out, d_in = restored.net.layers[i].weight.shape
            assert kfac.state_problems(state, "eigen", d_in, d_out) == []
        save_checkpoint(tmp / "again.ckpt", restored, ckpt.iteration, ckpt.epoch)
        assert (tmp / "again.ckpt").read_bytes() == (tmp / "edited.ckpt").read_bytes()
        return
    err = _rejected_resume(tmp, capsys, co_run,
                           f"factor state {prefix!r} (layer {layer}, owner worker {layer})", edited)
    if flag != (f >= 0):
        assert f"initialized = {json.dumps(flag)} contradicts last_factor_update = {f}" in err
    elif k >= 0 > f:
        assert (f"a refresh needs a factor update first, but last_factor_update = {f}, "
                f"last_inverse_update = {k}") in err
    else:
        # the first problem names an array the state lacks or should not hold
        assert err.split("under inv_type 'eigen': ")[1].split(" ")[0] in held ^ needed


def _state_bits(cluster):
    """Every weight, momentum buffer and per-layer factor state, as bytes."""
    bits = {f"layer{i}/weight": l.weight.tobytes() for i, l in enumerate(cluster.net.layers)}
    bits.update({f"layer{i}/momentum": m.tobytes() for i, m in enumerate(cluster.momentum)})
    for i, s in cluster.factors.items():
        bits[f"factors/layer{i}"] = (
            s.initialized, s.last_factor_update, s.last_inverse_update,
            *(None if a is None else (a.shape, a.tobytes())
              for a in (s.a_cov, s.g_cov, s.a_damped_inv, s.g_damped_inv)),
            *(None if e is None else (e.q.tobytes(), e.values.tobytes())
              for e in (s.a_eig, s.g_eig)))
    return bits


@pytest.mark.parametrize("inv_type", ["eigen", "inverse"])
@pytest.mark.parametrize("algorithm", ["ssgd", "dp_kfac", "mpd_kfac_co", "mpd_kfac_mo"])
def test_restore_reproduces_every_layer_state(tmp_path, algorithm, inv_type):
    cfg = _cfg(algorithm=algorithm, inv_type=inv_type)
    result = run_training(cfg)
    path = tmp_path / "final.ckpt"
    save_checkpoint(path, result.cluster, result.final_iteration, 1)
    restored = build_cluster(SPEC, algorithm, 2, seed=1)
    restore_cluster(restored, load_checkpoint(path), cfg)
    assert len(restored.factors) == (0 if algorithm == "ssgd" else restored.n_layers)
    assert _state_bits(restored) == _state_bits(result.cluster)


def test_restored_clusters_own_their_factor_arrays(tmp_path):
    # the running average folds in place, so a state that kept the loaded
    # arrays would write its steps into the Checkpoint and every other
    # cluster restored from it
    cfg = _cfg(algorithm="mpd_kfac_co")
    result = run_training(cfg)
    path = tmp_path / "final.ckpt"
    save_checkpoint(path, result.cluster, result.final_iteration, 1)
    ckpt = load_checkpoint(path)
    stepped, idle = (build_cluster(SPEC, "mpd_kfac_co", 2, seed=1) for _ in range(2))
    for cluster in (stepped, idle):
        restore_cluster(cluster, ckpt, cfg)
    rng = np.random.default_rng(0)
    batch = Batch(rng.standard_normal((3, 8)), rng.integers(0, 2, size=8))
    run_step(stepped, batch, cfg.hyper, 0.1, 0.9, ckpt.iteration)

    from_file = load_checkpoint(path)
    fresh = build_cluster(SPEC, "mpd_kfac_co", 2, seed=1)
    restore_cluster(fresh, from_file, cfg)
    assert _state_bits(stepped) != _state_bits(fresh)  # the step folded new factors in
    assert _state_bits(idle) == _state_bits(fresh)
    assert ({n: a.tobytes() for n, a in ckpt.arrays.items()}
            == {n: a.tobytes() for n, a in from_file.arrays.items()})


def test_single_worker_checkpoints_hold_the_same_arrays(tmp_path):
    # at P = 1 DP-KFAC and both MPD-KFAC variants compute the same bits, and
    # each stores every layer's state once
    payloads = {}
    for algorithm in ("dp_kfac", "mpd_kfac_co", "mpd_kfac_mo"):
        result = run_training(_cfg(algorithm=algorithm, workers=1))
        path = tmp_path / f"{algorithm}.ckpt"
        save_checkpoint(path, result.cluster, result.final_iteration, 1)
        data = path.read_bytes()
        header = json.loads(data[20:20 + struct.unpack("<Q", data[12:20])[0]])
        payloads[algorithm] = (header["arrays"], data[-sum(
            8 * math.prod(e["shape"]) for e in header["arrays"]):])
    assert payloads["mpd_kfac_co"] == payloads["dp_kfac"]
    assert payloads["mpd_kfac_mo"] == payloads["dp_kfac"]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["meta", "arrays", "name", "shape", "dtype", "iteration", "epoch",
                         "algorithm", "workers", "factor_states"]) | st.text(max_size=3),
        inner, max_size=5),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=_JSON, payload=st.binary(max_size=64))
def test_fuzzed_header_loads_or_raises_data_format_error(tmp_path, header, payload):
    try:
        assert isinstance(_load(tmp_path, _pack(header, payload)), Checkpoint)
    except DataFormatError as exc:
        assert "byte offset" in str(exc)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_bytes_load_or_raise_data_format_error(tmp_path, valid, data):
    raw = bytearray(_pack(*valid))
    for _ in range(data.draw(st.integers(0, 3))):
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(raw)))
    try:
        ckpt = _load(tmp_path, bytes(raw[:cut]))
    except DataFormatError as exc:
        assert "byte offset" in str(exc)
    else:
        assert all(np.asarray(a).dtype == np.float64 for a in ckpt.arrays.values())


def _in_memory_bytes(cluster, iteration: int, epoch: int) -> bytes:
    """The checkpoint file as the serializer built it before saving
    streamed: the whole file assembled in memory."""
    arrays, factor_meta = _cluster_arrays(cluster)
    names = sorted(arrays)
    header = {
        "meta": {"iteration": iteration, "epoch": epoch,
                 "algorithm": cluster.algorithm, "workers": cluster.n_workers,
                 "factor_states": factor_meta},
        "arrays": [{"name": n, "shape": list(arrays[n].shape), "dtype": "<f8"}
                   for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += struct.pack("<Q", len(blob))
    out += blob
    for n in names:
        out += np.ascontiguousarray(arrays[n], dtype="<f8").tobytes()
    return bytes(out)


@pytest.mark.parametrize("inv_type", ["eigen", "inverse"])
@pytest.mark.parametrize("algorithm", ["ssgd", "dp_kfac", "mpd_kfac_co", "mpd_kfac_mo"])
def test_streamed_checkpoint_is_byte_identical_to_in_memory_one(tmp_path, algorithm, inv_type):
    result = run_training(_cfg(algorithm=algorithm, inv_type=inv_type))
    path = tmp_path / "final.ckpt"
    save_checkpoint(path, result.cluster, result.final_iteration, 1)
    assert path.read_bytes() == _in_memory_bytes(result.cluster, result.final_iteration, 1)
    assert not path.with_name("final.ckpt.tmp").exists()


@pytest.fixture(scope="module", params=["eigen", "inverse"])
def wide_co(request, tmp_path_factory):
    """(training result, saved path) of two steps of a 192-wide mpd_kfac_co run on
    four workers: every layer's factors and decompositions, 4.0 MiB."""
    spec = NetworkSpec((192, 192, 192, 10), activation="tanh", bias_mode="homogeneous")
    result = run_training(_cfg(spec, "mpd_kfac_co", 4, request.param, samples=300,
                               batch_size=128))
    path = tmp_path_factory.mktemp("wide") / "final.ckpt"
    save_checkpoint(path, result.cluster, result.final_iteration, 1)
    return result, path


def _traced_peak(fn, *args):
    """Peak traced allocation above the starting level while ``fn`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


MIB = 2 ** 20


def test_save_holds_at_most_one_array_copy(tmp_path, wide_co):
    result, saved = wide_co
    data = saved.read_bytes()
    header_len = struct.unpack("<Q", data[12:20])[0]
    largest = max(a.nbytes for a in _cluster_arrays(result.cluster)[0].values())
    # large enough that a second copy of the file breaks the bound
    assert len(data) > largest + header_len + 2 * MIB
    peak = _traced_peak(save_checkpoint, tmp_path / "again.ckpt", result.cluster,
                        result.final_iteration, 1)
    assert peak <= largest + header_len + MIB
    assert (tmp_path / "again.ckpt").read_bytes() == data


def test_load_holds_the_arrays_once(wide_co):
    _, saved = wide_co
    peak = _traced_peak(load_checkpoint, saved)
    assert peak <= saved.stat().st_size + MIB
