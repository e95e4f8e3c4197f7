import numpy as np
import pytest

from kfaclab.datasets import (
    Dataset,
    gen_synthetic,
    load_idx,
    quantize_for_idx,
    write_idx,
)
from kfaclab.errors import ArgumentError, DataFormatError
from kfaclab.model import Batch, NetworkSpec, backward, forward, init_momentum, init_network, predict, sgd_step


def test_gen_blobs_deterministic():
    params = {"classes": 3, "dim": 5, "samples": 30, "noise": 0.2}
    a = gen_synthetic("gaussian_blobs", params, seed=9)
    b = gen_synthetic("gaussian_blobs", params, seed=9)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    c = gen_synthetic("gaussian_blobs", params, seed=10)
    assert not np.array_equal(a.inputs, c.inputs)


def test_gen_blobs_shapes_and_balance():
    data = gen_synthetic("gaussian_blobs", {"classes": 4, "dim": 6, "samples": 40, "noise": 0.1}, 0)
    assert data.inputs.shape == (6, 40)
    assert data.targets.shape == (40,)
    assert data.task == "classification"
    counts = np.bincount(data.targets, minlength=4)
    assert counts.min() == counts.max() == 10


def test_gen_regression_shapes():
    data = gen_synthetic("deep_linear_regression",
                         {"dim": 5, "out_dim": 2, "samples": 25, "noise": 0.05}, 1)
    assert data.inputs.shape == (5, 25)
    assert data.targets.shape == (2, 25)
    assert data.task == "regression"


def test_gen_unknown_kind_and_missing_params():
    with pytest.raises(ArgumentError):
        gen_synthetic("spirals", {}, 0)
    with pytest.raises(ArgumentError):
        gen_synthetic("gaussian_blobs", {"classes": 3}, 0)


def test_noiseless_blobs_are_separable_by_small_net():
    data = gen_synthetic("gaussian_blobs",
                         {"classes": 3, "dim": 8, "samples": 60, "noise": 0.0}, seed=2)
    spec = NetworkSpec((8, 16, 3), activation="tanh", bias_mode="homogeneous")
    net = init_network(spec, seed=0)
    batch = Batch(data.inputs, data.targets)
    momentum = init_momentum(net)
    for _ in range(300):
        _, captures = forward(net, batch)
        sgd_step(net, backward(net, batch, captures)[0], lr=0.5, momentum_state=momentum, mu=0.9)
    accuracy = np.mean(predict(net, data.inputs).argmax(axis=0) == data.targets)
    assert accuracy == 1.0


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
    labels = rng.integers(0, 9, size=5, dtype=np.uint8)
    write_idx(tmp_path / "img.idx", tmp_path / "lab.idx", images, labels)
    data = load_idx(tmp_path / "img.idx", tmp_path / "lab.idx")
    assert data.inputs.shape == (12, 5)
    assert np.array_equal(data.targets, labels.astype(np.int64))
    assert np.array_equal(data.inputs, images.reshape(5, 12).T / 255.0)


def test_idx_bad_magic_names_offset(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(b"\x00\x00\x09\x03" + b"\x00" * 12)
    lab.write_bytes(b"\x00\x00\x08\x01\x00\x00\x00\x00")
    with pytest.raises(DataFormatError, match="byte offset 0"):
        load_idx(img, lab)


def test_idx_truncation_names_offset(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    # header says 2 images of 2x2 but only 3 pixel bytes follow
    img.write_bytes(b"\x00\x00\x08\x03"
                    + (2).to_bytes(4, "big") + (2).to_bytes(4, "big") + (2).to_bytes(4, "big")
                    + b"\x01\x02\x03")
    lab.write_bytes(b"\x00\x00\x08\x01" + (2).to_bytes(4, "big") + b"\x00\x01")
    with pytest.raises(DataFormatError, match="offset 19"):
        load_idx(img, lab)


def test_idx_mismatched_counts(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    write_idx(img, lab, np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
    lab.write_bytes(b"\x00\x00\x08\x01" + (2).to_bytes(4, "big") + b"\x00\x01")
    with pytest.raises(DataFormatError, match="counts differ"):
        load_idx(img, lab)


def test_idx_header_example():
    # 0x00000803 magic, 2 images of 2x2 -> a dataset of 2 samples with d_0 = 4
    import struct, tempfile, os
    with tempfile.TemporaryDirectory() as d:
        img, lab = os.path.join(d, "i"), os.path.join(d, "l")
        with open(img, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
            fh.write(bytes(range(8)))
        with open(lab, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 2))
            fh.write(b"\x00\x01")
        data = load_idx(img, lab)
        assert data.n_samples == 2
        assert data.input_dim == 4


def test_quantize_for_idx_round_trip_shape(tmp_path):
    data = gen_synthetic("gaussian_blobs", {"classes": 3, "dim": 12, "samples": 9, "noise": 0.1}, 4)
    images, labels = quantize_for_idx(data, rows=3, cols=4)
    write_idx(tmp_path / "i.idx", tmp_path / "l.idx", images, labels)
    loaded = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
    assert loaded.input_dim == 12
    assert np.array_equal(loaded.targets, data.targets)


def test_quantize_rejects_regression():
    data = Dataset(np.zeros((4, 3)), np.zeros((2, 3)), task="regression")
    with pytest.raises(ArgumentError):
        quantize_for_idx(data, 2, 2)
