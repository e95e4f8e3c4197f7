"""Dataset provisioning: seeded synthetic generators and the IDX binary format.

Synthetic tasks are desk-scale stand-ins for image corpora:

* ``gaussian_blobs``: class centers drawn uniformly on the unit sphere,
  samples are a center plus isotropic Gaussian noise; balanced labels.
* ``deep_linear_regression``: targets from a hidden random linear map of
  Gaussian inputs, plus observation noise.

The IDX reader/writer implements the classic big-endian layout (magic
0x00000803 for ubyte image stacks, 0x00000801 for ubyte label vectors);
pixel values are scaled to [0, 1] and images flattened to columns.  No
build, quantization or load holds a full-size temporary copy of the data.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ArgumentError, DataFormatError, at_least, check_fields, one_of

# each synthetic kind -> the parameters it reads that have no default
SYNTHETIC_KINDS = {"gaussian_blobs": ("classes", "dim", "samples"),
                   "deep_linear_regression": ("dim", "out_dim", "samples")}

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

_BLOCK_ELEMENTS = 1 << 16  # 512 KiB of float64, an in-place build's one temporary


@dataclass(frozen=True)
class DataConfig:
    """The run config's ``[data]``: a synthetic kind and its parameters, or an
    ``idx`` file pair, and the share held out for evaluation."""

    kind: str = "gaussian_blobs"
    classes: int = 10
    dim: int = 64
    samples: int = 10000
    noise: float = 0.1
    out_dim: int = 1
    images: str = ""
    labels: str = ""
    eval_fraction: float = 0.1

    def __post_init__(self):
        check_fields(vars(self), {
            "kind": one_of((*SYNTHETIC_KINDS, "idx")), "classes": at_least(2),
            "dim": at_least(1), "samples": at_least(1),
            "noise": ((lambda v: 0.0 <= v < math.inf), "finite and >= 0"),
            "out_dim": at_least(1), "eval_fraction": ((lambda v: 0.0 <= v < 1.0), "in [0, 1)")})
        if self.kind == "gaussian_blobs":  # every class gets a sample
            check_fields(vars(self), {"samples": ((lambda v: v >= self.classes),
                                                  f">= classes ({self.classes})")})


@dataclass
class Dataset:
    """Columns-are-samples inputs plus targets (class indices or a target
    matrix), ready for batching."""

    inputs: np.ndarray
    targets: np.ndarray
    task: str  # "classification" | "regression"

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[1]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[0]


def _sample_blocks(dim: int, samples: int):
    """Slices of whole samples, about ``_BLOCK_ELEMENTS`` elements each."""
    step = max(1, _BLOCK_ELEMENTS // dim)
    return (slice(j, j + step) for j in range(0, samples, step))


def gen_synthetic(kind: str, params: Mapping, seed: int) -> Dataset:
    """Deterministic synthetic dataset; same (kind, params, seed) gives
    bit-identical tensors.  :class:`DataConfig` checks the kind's ``params``;
    it ignores the rest.  A finite ``noise`` so large that the data overflow
    float64 is an ArgumentError naming it."""
    if kind not in SYNTHETIC_KINDS:
        raise ArgumentError(f"unknown synthetic dataset kind {kind!r}")
    if seed < 0:
        raise ArgumentError(f"synthetic dataset seed must be >= 0, got {seed}")
    keys = SYNTHETIC_KINDS[kind]
    for key in keys:
        if key not in params:
            raise ArgumentError(f"synthetic dataset params missing {key!r}")
    data = DataConfig(kind=kind, **{key: params[key] for key in (*keys, "noise") if key in params})
    try:
        with np.errstate(over="raise"):
            return _generate(data, np.random.default_rng(seed))
    except FloatingPointError:
        raise ArgumentError(f"synthetic dataset noise={data.noise} overflows float64: "
                            "the data would not be finite") from None


def _generate(data: DataConfig, rng: np.random.Generator) -> Dataset:
    dim, samples, noise = data.dim, data.samples, data.noise
    if data.kind == "gaussian_blobs":
        centers = rng.standard_normal((dim, data.classes))
        centers /= np.linalg.norm(centers, axis=0, keepdims=True)
        labels = np.arange(samples, dtype=np.int64) % data.classes
        # built in place, the centres added in column blocks: noise*n + c is
        # the same IEEE sum as c + noise*n, and no full-size temporary exists
        inputs = rng.standard_normal((dim, samples))
        inputs *= noise
        for block in _sample_blocks(dim, samples):
            inputs[:, block] += centers[:, labels[block]]
        return Dataset(inputs, labels, task="classification")
    hidden_map = rng.standard_normal((data.out_dim, dim)) / np.sqrt(dim)
    inputs = rng.standard_normal((dim, samples))
    targets = hidden_map @ inputs + noise * rng.standard_normal((data.out_dim, samples))
    return Dataset(inputs, targets, task="regression")


def _read_idx(path, magic: int, n_dims: int, what: str) -> tuple[tuple[int, ...], bytes]:
    """The header dimensions and the payload of one IDX file.

    The payload size the header declares is checked against the file size
    before any of it is read: a short file, trailing bytes or a size too
    large to exist raise DataFormatError naming the byte offset.
    """
    header_len = 4 + 4 * n_dims
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read IDX file: {exc.strerror or exc}") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(header_len)
        if len(head) < 4:
            raise DataFormatError(
                f"{path}: truncated magic at byte offset {len(head)} (wanted 4 bytes)")
        found = struct.unpack(">I", head[:4])[0]
        if found != magic:
            raise DataFormatError(
                f"{path}: bad magic 0x{found:08x} at byte offset 0 (expected 0x{magic:08x})")
        if len(head) < header_len:
            raise DataFormatError(
                f"{path}: truncated header at byte offset {len(head)} "
                f"(wanted {header_len} bytes)")
        dims = struct.unpack(f">{n_dims}I", head[4:])
        end = header_len + math.prod(dims)
        if end > size:
            raise DataFormatError(
                f"{path}: truncated {what} at byte offset {size} (the header at byte "
                f"offset 4 declares {end - header_len} bytes, ending at offset {end})")
        if end < size:
            raise DataFormatError(
                f"{path}: {size - end} trailing bytes at byte offset {end} after the {what}")
        payload = fh.read(end - header_len)
    if len(payload) != end - header_len:
        raise DataFormatError(f"{path}: {what} ends early at byte offset "
                              f"{header_len + len(payload)}; the file shrank while read")
    return dims, payload


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair as a classification dataset."""
    (n, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3, "pixel data")
    (n_labels,), label_bytes = _read_idx(labels_path, IDX_LABELS_MAGIC, 1, "label data")
    if n_labels != n:
        raise DataFormatError(
            f"image/label counts differ: {n} images in {images_path}, "
            f"{n_labels} labels in {labels_path} (counts at byte offset 4)"
        )
    if n == 0:
        raise DataFormatError(f"{images_path}: the image count at byte offset 4 is 0")
    images = np.frombuffer(pixels, dtype=np.uint8).reshape(n, rows * cols)
    inputs = images.astype(np.float64).T
    inputs /= 255.0
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    return Dataset(inputs, labels, task="classification")


def write_all_or_nothing(files: Sequence[tuple[str | os.PathLike, Iterable]]):
    """Write each ``(path, chunks)`` pair all or nothing: the bytes-like chunks
    stream into ``<path>.tmp``, and the files move into place once all are
    complete.  A failure leaves no ``.tmp`` file and no new file, and its
    ``OSError`` names the caller's path.  A path named twice, in any
    spelling, is an ArgumentError before any file is touched."""
    paths = [os.fspath(path) for path, _ in files]
    real = [os.path.realpath(path) for path in paths]
    for i, path in enumerate(real):
        if path in real[:i]:
            raise ArgumentError(f"{paths[real.index(path)]} and {paths[i]} name the same file")
    made: list[str] = []
    try:
        for path, (_, chunks) in zip(paths, files):
            with open(path + ".tmp", "wb") as fh:
                made.append(path + ".tmp")
                fh.writelines(chunks)
        for path in paths:
            os.replace(path + ".tmp", path)
            made.append(path)
    except BaseException as exc:
        for leftover in made:
            with contextlib.suppress(OSError):
                os.remove(leftover)
        if isinstance(exc, OSError):
            exc.filename, exc.filename2 = path, None
        raise


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray):
    """Write an IDX pair all or nothing (:func:`write_all_or_nothing`):
    ``images`` is uint8 of shape (n, rows, cols), ``labels`` uint8 of shape
    (n,)."""
    if images.ndim != 3 or images.dtype != np.uint8:
        raise ArgumentError("images must be a uint8 array of shape (n, rows, cols)")
    if labels.ndim != 1 or labels.dtype != np.uint8 or labels.shape[0] != images.shape[0]:
        raise ArgumentError("labels must be uint8 of shape (n,) matching the image count")
    n, rows, cols = images.shape
    write_all_or_nothing([
        (images_path, [struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols),
                       np.ascontiguousarray(images)]),
        (labels_path, [struct.pack(">II", IDX_LABELS_MAGIC, n), np.ascontiguousarray(labels)]),
    ])


def quantize_for_idx(dataset: Dataset, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Affinely map a classification dataset onto the uint8 IDX range.

    Lossy by construction; intended for materializing synthetic tasks as
    MNIST-style file pairs.
    """
    if dataset.task != "classification":
        raise ArgumentError("IDX export supports classification datasets only")
    if dataset.input_dim != rows * cols:
        raise ArgumentError(
            f"input dim {dataset.input_dim} does not factor as {rows}x{cols}"
        )
    if int(dataset.targets.max()) > 255:
        raise ArgumentError("IDX labels are bytes; need class indices <= 255")
    lo, hi = float(dataset.inputs.min()), float(dataset.inputs.max())
    if not math.isfinite(hi - lo):
        raise ArgumentError(f"IDX export needs finite inputs with a finite range, got {lo}..{hi}")
    span = hi - lo if hi > lo else 1.0
    n = dataset.n_samples
    images = np.empty((n, rows * cols), dtype=np.uint8)
    for block in _sample_blocks(rows * cols, n):
        scaled = dataset.inputs[:, block] - lo
        scaled /= span
        scaled *= 255.0
        np.clip(np.rint(scaled, out=scaled), 0, 255, out=scaled)
        images[block] = scaled.T
    return images.reshape(n, rows, cols), dataset.targets.astype(np.uint8)
