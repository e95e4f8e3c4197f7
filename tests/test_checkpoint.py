"""Checkpoint parser hardening: every malformed file is a DataFormatError
that names a byte offset, never a raw struct/JSON/key error."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kfaclab import cli
from kfaclab.config import DataConfig, HyperConfig, RunConfig, TrainConfig
from kfaclab.distsim import build_cluster
from kfaclab.errors import DataFormatError
from kfaclab.model import NetworkSpec
from kfaclab.trainer import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Checkpoint,
    load_checkpoint,
    restore_cluster,
    save_checkpoint,
)

SPEC = NetworkSpec((3, 4, 2), activation="tanh")


def _cfg():
    return RunConfig(
        network=SPEC,
        data=DataConfig(kind="gaussian_blobs", classes=2, dim=3, samples=40),
        train=TrainConfig(algorithm="dp_kfac", workers=2, epochs=1, batch_size=8, seed=0),
        hyper=HyperConfig(),
    )


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """(header dict, array payload) of a freshly saved two-worker checkpoint."""
    path = tmp_path_factory.mktemp("ckpt") / "valid.ckpt"
    save_checkpoint(path, build_cluster(SPEC, "dp_kfac", 2, seed=0), 0, 0)
    data = path.read_bytes()
    header_len = struct.unpack("<Q", data[12:20])[0]
    return json.loads(data[20:20 + header_len]), data[20 + header_len:]


def _pack(header, payload=b"", blob=None):
    blob = json.dumps(header).encode() if blob is None else blob
    return (CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
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


def _resume(tmp_path, capsys, cfg, meta, arrays):
    """Resume ``cfg`` to two epochs from a checkpoint holding ``meta`` and
    ``arrays``; returns (exit code, stderr)."""
    names = sorted(arrays)
    header = {"meta": meta, "arrays": [
        {"name": n, "shape": list(arrays[n].shape), "dtype": "<f8"} for n in names]}
    path = tmp_path / "edited.ckpt"
    path.write_bytes(_pack(header, b"".join(arrays[n].tobytes() for n in names)))
    capsys.readouterr()
    code = cli.main(["--out-dir", str(tmp_path / "out"), "train", str(cfg),
                     "--train.epochs=2", "--resume", str(path)])
    return code, capsys.readouterr().err


def test_rewritten_checkpoint_resumes(tmp_path, capsys, co_run):
    cfg, ckpt = co_run
    assert _resume(tmp_path, capsys, cfg, ckpt.meta, ckpt.arrays) == (0, "")


def test_restore_rejects_eigenbasis_without_eigenvalues(tmp_path, capsys, co_run):
    cfg, ckpt = co_run
    arrays = dict(ckpt.arrays)
    del arrays["worker0/layer0/a_eig_v"]
    code, err = _resume(tmp_path, capsys, cfg, ckpt.meta, arrays)
    assert code == cli.EXIT_DATA
    assert "'worker0/layer0/a_eig_v' is missing" in err


def test_restore_rejects_mis_shaped_factor(tmp_path, capsys, co_run):
    cfg, ckpt = co_run
    arrays = {**ckpt.arrays, "worker1/layer1/a_cov": np.eye(2)}
    code, err = _resume(tmp_path, capsys, cfg, ckpt.meta, arrays)
    assert code == cli.EXIT_DATA
    assert "'worker1/layer1/a_cov' is of shape (2, 2); the run needs (4, 4)" in err


def test_restore_rejects_missing_factor_state(tmp_path, capsys, co_run):
    cfg, ckpt = co_run
    meta = json.loads(json.dumps(ckpt.meta))
    del meta["factor_states"]["worker1/layer1"]
    arrays = {n: a for n, a in ckpt.arrays.items() if not n.startswith("worker1/layer1/")}
    code, err = _resume(tmp_path, capsys, cfg, meta, arrays)
    assert code == cli.EXIT_DATA
    assert "no factor state 'worker1/layer1'" in err


def test_restore_rejects_initialized_state_without_factors(tmp_path, capsys, co_run):
    cfg, ckpt = co_run
    assert ckpt.meta["factor_states"]["worker0/layer1"]["initialized"]
    arrays = {n: a for n, a in ckpt.arrays.items()
              if n not in ("worker0/layer1/a_cov", "worker0/layer1/g_cov")}
    code, err = _resume(tmp_path, capsys, cfg, ckpt.meta, arrays)
    assert code == cli.EXIT_DATA
    assert "'worker0/layer1/a_cov' is missing" in err


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
    assert (f"factor state 'worker0/layer0' holds inv_type '{saved}' decompositions "
            f"(refreshed at iteration 3), but the run uses inv_type '{resumed}'") in err
    assert "Traceback" not in err


def test_restore_rejects_refreshed_state_without_decomposition(tmp_path, capsys, co_run):
    cfg, ckpt = co_run
    arrays = {n: a for n, a in ckpt.arrays.items()
              if not (n.startswith("worker1/layer1/") and "_eig_" in n)}
    code, err = _resume(tmp_path, capsys, cfg, ckpt.meta, arrays)
    assert code == cli.EXIT_DATA
    assert "'worker1/layer1' holds no decompositions" in err
    assert "the run uses inv_type 'eigen'" in err


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
