import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kfaclab.datasets import (
    DataConfig,
    Dataset,
    gen_synthetic,
    load_idx,
    quantize_for_idx,
    write_all_or_nothing,
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


@pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf")])
@pytest.mark.parametrize("kind, params", [
    ("gaussian_blobs", {"classes": 3, "dim": 5, "samples": 30}),
    ("deep_linear_regression", {"dim": 5, "out_dim": 2, "samples": 25}),
])
def test_gen_synthetic_rejects_negative_or_non_finite_noise(kind, params, noise):
    with pytest.raises(ArgumentError, match="noise must be finite and >= 0"):
        gen_synthetic(kind, {**params, "noise": noise}, seed=0)


@pytest.mark.parametrize("kind, params", [
    ("gaussian_blobs", {"classes": 2, "dim": 4, "samples": 5}),
    ("deep_linear_regression", {"dim": 4, "out_dim": 2, "samples": 50}),
])
def test_gen_synthetic_rejects_a_finite_noise_that_overflows(kind, params):
    # RuntimeWarnings are errors in this suite, so the overflow must not warn
    with pytest.raises(ArgumentError, match=r"noise=1e\+308 overflows float64"):
        gen_synthetic(kind, {**params, "noise": 1e308}, seed=0)


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


_BLOBS_192 = {"classes": 10, "dim": 192, "samples": 14600, "noise": 0.3}


def test_provisioning_bits_are_pinned(tmp_path):
    # sha256 of `c + noise*n` and of the whole-array quantize and load expressions
    data = gen_synthetic("gaussian_blobs", _BLOBS_192, seed=1)
    assert _sha256(data.inputs) == (
        "2208a4e8d320600d7c881745ce8b49cda503a82da901df5137cf6bffd3da994e")
    small = gen_synthetic("gaussian_blobs",
                          {"classes": 7, "dim": 5, "samples": 33, "noise": 0.25}, seed=2)
    assert _sha256(small.inputs) == (
        "7ec5fc62501003ee00422e8c3e7334ab876efddc85896599da8ad5637b297a49")
    images, labels = quantize_for_idx(data, 12, 16)
    assert _sha256(images) == "e946448a207b8eaf96f024f6faef99e22fb581e554eadb0f3d22613e8dde56ea"
    write_idx(tmp_path / "i.idx", tmp_path / "l.idx", images, labels)
    loaded = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
    assert _sha256(loaded.inputs) == (
        "f1eb58836be73d22c5f5d97ee476f3547ae0ab1977bda8cc53318a29ec6a7e96")
    assert np.isfortran(loaded.inputs)


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_synthetic_builds_its_data_in_place():
    gen_synthetic("gaussian_blobs", {"classes": 2, "dim": 4, "samples": 5}, seed=0)  # warm-up
    data, peak = _traced_peak(gen_synthetic, "gaussian_blobs", _BLOBS_192, 1)
    assert peak <= 1.05 * (data.inputs.nbytes + data.targets.nbytes)


def test_quantize_for_idx_holds_no_float_copy_of_the_data():
    def build_and_quantize():
        return quantize_for_idx(gen_synthetic("gaussian_blobs", _BLOBS_192, 1), 12, 16)
    # the float data set, its labels, the uint8 pair and two 512 KiB blocks
    (images, labels), peak = _traced_peak(build_and_quantize)
    data_bytes = 192 * 14600 * 8 + labels.nbytes * 8
    assert peak <= data_bytes + images.nbytes + labels.nbytes + (2 << 20)


def test_load_idx_makes_one_float_copy(tmp_path):
    images = np.random.default_rng(0).integers(0, 256, size=(4000, 12, 16), dtype=np.uint8)
    write_idx(tmp_path / "i.idx", tmp_path / "l.idx", images, np.zeros(4000, dtype=np.uint8))
    _, peak = _traced_peak(load_idx, tmp_path / "i.idx", tmp_path / "l.idx")
    assert peak <= images.nbytes * (1 + 8) + (64 << 10)


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


_BLOBS = {"classes": 3, "dim": 5, "samples": 30}
_REGRESSION = {"dim": 5, "out_dim": 2, "samples": 25}


@pytest.mark.parametrize("kind, params, message", [
    ("gaussian_blobs", {**_BLOBS, "classes": 1}, "classes must be >= 2, got 1"),
    ("gaussian_blobs", {**_BLOBS, "dim": 0}, "dim must be >= 1, got 0"),
    ("gaussian_blobs", {**_BLOBS, "samples": 0}, "samples must be >= 1, got 0"),
    ("gaussian_blobs", {**_BLOBS, "samples": 2}, "samples must be >= classes (3), got 2"),
    ("deep_linear_regression", {**_REGRESSION, "dim": 0}, "dim must be >= 1, got 0"),
    ("deep_linear_regression", {**_REGRESSION, "out_dim": 0}, "out_dim must be >= 1, got 0"),
    ("deep_linear_regression", {**_REGRESSION, "samples": -1}, "samples must be >= 1, got -1"),
    ("deep_linear_regression", {**_REGRESSION, "noise": -1.0},
     "noise must be finite and >= 0, got -1.0"),
    # a count must be an integer: neither cast nor truncated
    ("gaussian_blobs", {**_BLOBS, "samples": "30"}, "samples must be >= 1, got '30'"),
    ("gaussian_blobs", {**_BLOBS, "samples": 30.5}, "samples must be >= 1, got 30.5"),
    ("deep_linear_regression", {**_REGRESSION, "noise": "0.1"},
     "noise must be finite and >= 0, got '0.1'"),
])
def test_gen_synthetic_names_the_parameter_out_of_range(kind, params, message):
    with pytest.raises(ArgumentError) as info:
        gen_synthetic(kind, params, 0)
    assert str(info.value) == message
    # the run config's [data] record states the rule, so its message is the same
    with pytest.raises(ArgumentError) as from_record:
        DataConfig(kind=kind, **params)
    assert str(from_record.value) == message


def test_gen_synthetic_names_a_missing_parameter_and_ignores_the_rest():
    with pytest.raises(ArgumentError, match=r"^synthetic dataset params missing 'out_dim'$"):
        gen_synthetic("deep_linear_regression", {"dim": 5, "samples": 25}, 0)
    # classes is not a regression parameter, so its range does not apply
    data = gen_synthetic("deep_linear_regression", {**_REGRESSION, "classes": 1}, 0)
    assert data.targets.shape == (2, 25)


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


def test_all_or_nothing_one_path_that_cannot_be_replaced(tmp_path):
    # written in full, then the directory in its place refuses it
    target = tmp_path / "out.bin"
    target.mkdir()
    with pytest.raises(OSError) as info:
        write_all_or_nothing([(target, [b"header", np.arange(4.0)])])
    assert info.value.filename == str(target) and info.value.filename2 is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def test_all_or_nothing_failing_write_names_its_path(tmp_path):
    def chunks():
        yield b"part"
        raise OSError(28, "No space left on device")

    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    first.write_bytes(b"old")
    with pytest.raises(OSError) as info:
        write_all_or_nothing([(first, [b"new"]), (second, chunks())])
    assert info.value.filename == str(second)
    assert first.read_bytes() == b"old" and not second.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]


def test_all_or_nothing_two_paths_leave_neither(tmp_path):
    # the first file is moved into place, the second cannot be: both go
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    second.mkdir()
    with pytest.raises(OSError) as info:
        write_all_or_nothing([(first, [b"a"]), (second, [b"b"])])
    assert info.value.filename == str(second)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.bin"]


def test_all_or_nothing_rejects_a_path_named_twice(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ArgumentError, match="./same.idx and same.idx name the same file"):
        write_all_or_nothing([("./same.idx", [b"a"]), ("same.idx", [b"b"])])
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, "range"])
def test_quantize_rejects_non_finite_inputs(bad):
    inputs = np.zeros((4, 3))
    if bad == "range":  # finite ends whose difference overflows
        inputs[0, 0], inputs[1, 1] = -1e308, 1e308
    else:
        inputs[2, 1] = bad
    with pytest.raises(ArgumentError, match="needs finite inputs with a finite range"):
        quantize_for_idx(Dataset(inputs, np.zeros(3, dtype=np.int64), "classification"), 2, 2)


def test_quantize_rejects_regression():
    data = Dataset(np.zeros((4, 3)), np.zeros((2, 3)), task="regression")
    with pytest.raises(ArgumentError):
        quantize_for_idx(data, 2, 2)


def _idx_pair(tmp_path, images: bytes, labels: bytes):
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    img.write_bytes(images)
    lab.write_bytes(labels)
    return img, lab


_TWO_IMAGES = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(range(8))
_TWO_LABELS = struct.pack(">II", 0x00000801, 2) + b"\x00\x01"


def test_idx_trailing_label_bytes_name_offset(tmp_path):
    with pytest.raises(DataFormatError, match="1 trailing bytes at byte offset 10"):
        load_idx(*_idx_pair(tmp_path, _TWO_IMAGES, _TWO_LABELS + b"\x07"))


def test_idx_trailing_pixel_bytes_name_offset(tmp_path):
    with pytest.raises(DataFormatError, match="2 trailing bytes at byte offset 24"):
        load_idx(*_idx_pair(tmp_path, _TWO_IMAGES + b"\x00\x00", _TWO_LABELS))


def test_idx_oversized_header_is_data_error_before_reading(tmp_path):
    # 2**32-1 images of (2**32-1)**2 pixels: the declared size cannot exist
    huge = struct.pack(">IIII", 0x00000803, *(2 ** 32 - 1,) * 3) + bytes(8)
    with pytest.raises(DataFormatError, match="truncated pixel data at byte offset 24"):
        load_idx(*_idx_pair(tmp_path, huge, _TWO_LABELS))


@pytest.mark.parametrize("rows", [2, 2 ** 30])
def test_idx_pair_with_no_images_is_data_error(tmp_path, rows):
    # zero images of 2**30 x 2**30 pixels declare no payload, but their
    # float64 columns cannot be shaped
    images = struct.pack(">IIII", 0x00000803, 0, rows, rows)
    with pytest.raises(DataFormatError, match="image count at byte offset 4 is 0"):
        load_idx(*_idx_pair(tmp_path, images, struct.pack(">II", 0x00000801, 0)))


def test_idx_unreadable_file_is_data_error(tmp_path):
    with pytest.raises(DataFormatError, match="cannot read"):
        load_idx(tmp_path, tmp_path / "absent.idx")


def _idx_bytes(magic, dims, payload_len):
    """An IDX file whose header may or may not match its payload."""
    return st.builds(
        lambda m, d, body: struct.pack(f">I{len(d)}I", m, *d) + body,
        magic, dims, st.binary(max_size=payload_len))


_SMALL = st.integers(0, 6)
_ANY_U32 = st.integers(0, 2 ** 32 - 1)
_IMAGES = (_idx_bytes(st.just(0x00000803), st.tuples(_SMALL, _SMALL, _SMALL), 80)
           | _idx_bytes(st.just(0x00000803) | _ANY_U32, st.tuples(_ANY_U32, _ANY_U32, _ANY_U32), 16)
           | st.binary(max_size=40))
_LABELS = (_idx_bytes(st.just(0x00000801), st.tuples(_SMALL), 8)
           | _idx_bytes(st.just(0x00000801) | _ANY_U32, st.tuples(_ANY_U32), 8)
           | st.binary(max_size=16))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(images=_IMAGES, labels=_LABELS)
def test_fuzzed_idx_pair_loads_or_raises_data_format_error(tmp_path, images, labels):
    try:
        data = load_idx(*_idx_pair(tmp_path, images, labels))
    except DataFormatError as exc:
        assert "byte offset" in str(exc)
    else:
        # a loaded pair holds exactly the declared bytes
        n, rows, cols = struct.unpack(">III", images[4:16])
        assert len(images) == 16 + n * rows * cols and len(labels) == 8 + n
        assert data.inputs.shape == (rows * cols, n) and data.targets.shape == (n,)
