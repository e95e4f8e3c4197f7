"""Training-run orchestration: data provisioning, the epoch loop, metrics
rows, run manifests, and exactly-resumable checkpoints.

Randomness discipline: every stochastic choice draws from a child stream
derived from the run seed (data generation, eval split, per-epoch shuffles,
weight init), so a run is reproducible from its seed alone and a resumed run
regenerates shuffle order instead of persisting RNG state.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__, kfac
from .config import RunConfig
from .costmodel import STAGES, StepCounters
from .datasets import Dataset, gen_synthetic, load_idx, write_all_or_nothing
from .distsim import Cluster, build_cluster, run_step, start_lanes
from .errors import ArgumentError, DataFormatError
from .model import Batch, predict, _per_sample_losses
from .numerics import openblas, simd_targets

CHECKPOINT_MAGIC = b"KFACLAB\0"
CHECKPOINT_VERSION = 2


@dataclass(kw_only=True)
class MetricsRow(StepCounters):
    """One iteration's row of ``metrics.csv``: the step's stage counts and
    what the run recorded next to them."""

    iteration: int
    epoch: int
    lr: float
    train_loss: float
    eval_loss: Optional[float]
    eval_accuracy: Optional[float]

    def as_csv_fields(self) -> list[str]:
        # str of a float is its shortest round-trip repr
        return ["" if (v := getattr(self, c)) is None else str(v) for c in CSV_COLUMNS]


# the row's own fields, then the stages
CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))[len(STAGES):] + STAGES


@dataclass
class TrainResult:
    rows: list[MetricsRow]
    cluster: Cluster
    iters_per_epoch: int
    final_iteration: int


def _child_seeds(seed: int) -> dict[str, int]:
    """Named child streams off the run seed (order is part of the contract)."""
    state = np.random.SeedSequence(seed).generate_state(4, dtype=np.uint64)
    names = ("data", "split", "init", "shuffle")
    return {name: int(s) for name, s in zip(names, state)}


def provision_dataset(cfg: RunConfig) -> Dataset:
    if cfg.data.kind == "idx":
        return load_idx(cfg.data.images, cfg.data.labels)
    return gen_synthetic(cfg.data.kind, vars(cfg.data), _child_seeds(cfg.train.seed)["data"])


def split_dataset(dataset: Dataset, eval_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic permutation split; returns (train_idx, eval_idx)."""
    n = dataset.n_samples
    perm = np.random.default_rng(seed).permutation(n)
    n_eval = int(round(n * eval_fraction))
    return perm[n_eval:], perm[:n_eval]


def _take(dataset: Dataset, idx: np.ndarray) -> Batch:
    return Batch(dataset.inputs[:, idx], dataset.targets[..., idx])


def evaluate(cluster: Cluster, batch: Batch) -> tuple[float, Optional[float]]:
    """Held-out loss (and accuracy for classification) on the cluster's weights."""
    net = cluster.net
    outputs = predict(net, batch.inputs)
    loss = float(np.mean(_per_sample_losses(outputs, batch.targets, net.spec.loss_kind)))
    if net.spec.loss_kind == "softmax_cross_entropy":
        acc = float(np.mean(outputs.argmax(axis=0) == batch.targets))
        return loss, acc
    return loss, None


@dataclass
class PreparedRun:
    """A run set up to take its first step: data provisioned and split, the
    cluster built and, on resume, restored from the checkpoint."""

    cfg: RunConfig
    dataset: Dataset
    train_idx: np.ndarray
    eval_batch: Optional[Batch]
    cluster: Cluster
    iters_per_epoch: int
    start_epoch: int
    start_iteration: int


def prepare_training(cfg: RunConfig, resume_from: Optional["Checkpoint"] = None) -> PreparedRun:
    """Everything before the first step.  A data set that does not fit the
    network and a checkpoint that does not fit the run fail here, before any
    step runs or any row exists."""
    seeds = _child_seeds(cfg.train.seed)
    dataset = provision_dataset(cfg)
    if dataset.input_dim != cfg.network.layer_dims[0]:
        raise ArgumentError(
            f"dataset dim {dataset.input_dim} does not match network input "
            f"{cfg.network.layer_dims[0]}"
        )
    train_idx, eval_idx = split_dataset(dataset, cfg.data.eval_fraction, seeds["split"])
    B = cfg.train.batch_size
    iters_per_epoch = len(train_idx) // B
    if iters_per_epoch < 1:
        raise ArgumentError(f"batch size {B} exceeds the {len(train_idx)} training samples")

    cluster = build_cluster(cfg.network, cfg.train.algorithm, cfg.train.workers, seeds["init"],
                            cfg.train.shard_policy)
    start_epoch = 0
    t = 0
    if resume_from is not None:
        t = resume_from.iteration
        start_epoch = resume_from.epoch
        # a checkpoint is written at an epoch boundary; the run replays
        # whole epochs from there
        if t != start_epoch * iters_per_epoch:
            raise DataFormatError(f"checkpoint iteration = {t} is not epoch {start_epoch} x "
                                  f"{iters_per_epoch} iterations per epoch")
        restore_cluster(cluster, resume_from, cfg)
        if start_epoch >= cfg.train.epochs:
            raise ArgumentError(
                f"checkpoint already at epoch {start_epoch}; config trains {cfg.train.epochs}"
            )
    eval_batch = _take(dataset, eval_idx) if len(eval_idx) > 0 else None
    return PreparedRun(cfg=cfg, dataset=dataset, train_idx=train_idx, eval_batch=eval_batch,
                       cluster=cluster, iters_per_epoch=iters_per_epoch,
                       start_epoch=start_epoch, start_iteration=t)


def run_prepared(
    run: PreparedRun, row_sink: Optional[Callable[[MetricsRow], None]] = None
) -> TrainResult:
    """The epoch loop of a prepared run; one metrics row per iteration,
    passed to ``row_sink`` as soon as it exists so callers can stream it."""
    cfg, dataset, train_idx, cluster = run.cfg, run.dataset, run.train_idx, run.cluster
    shuffle_seed = _child_seeds(cfg.train.seed)["shuffle"]
    B = cfg.train.batch_size
    iters_per_epoch = run.iters_per_epoch
    t = run.start_iteration
    eval_batch = run.eval_batch

    rows: list[MetricsRow] = []
    # one BLAS thread: the bytes do not depend on the caller's, and lanes can run
    blas_threads, set_blas_threads, _, _ = openblas("numpy")
    caller_threads = blas_threads and blas_threads()
    if set_blas_threads:
        set_blas_threads(1)
    lanes = start_lanes(cluster.n_workers) if set_blas_threads and cluster.factors else ()
    try:
        for epoch in range(run.start_epoch, cfg.train.epochs):
            order = np.random.default_rng([shuffle_seed, epoch]).permutation(len(train_idx))
            for b in range(iters_per_epoch):
                batch = _take(dataset, train_idx[order[b * B: (b + 1) * B]])
                lr = cfg.hyper.lr_at(t, epoch, cfg.train.workers)
                result = run_step(cluster, batch, cfg.hyper, lr, cfg.hyper.momentum, t, lanes)
                eval_loss = eval_acc = None
                if b == iters_per_epoch - 1 and eval_batch is not None:
                    eval_loss, eval_acc = evaluate(cluster, eval_batch)
                row = MetricsRow(
                    iteration=t, epoch=epoch, lr=lr, train_loss=result.loss,
                    eval_loss=eval_loss, eval_accuracy=eval_acc,
                    # vars, not dataclasses.asdict: asdict deep-copies every
                    # field, about 10 us a row on CPython 3.11
                    **vars(result.counters),
                )
                rows.append(row)
                if row_sink is not None:
                    row_sink(row)
                t += 1
    finally:
        for lane in lanes:
            lane.stop()
        if set_blas_threads:
            set_blas_threads(caller_threads)
    return TrainResult(rows=rows, cluster=cluster, iters_per_epoch=iters_per_epoch,
                       final_iteration=t)


def run_training(
    cfg: RunConfig,
    row_sink: Optional[Callable[[MetricsRow], None]] = None,
    resume_from: Optional["Checkpoint"] = None,
) -> TrainResult:
    """Run the configured training job; one metrics row per iteration.

    ``row_sink`` is called with each row as soon as it exists so callers can
    stream to disk.  ``resume_from`` continues an earlier run of the same
    config at its stored iteration (data order is regenerated from the seed).
    """
    return run_prepared(prepare_training(cfg, resume_from), row_sink)


# ---------------------------------------------------------------------------
# file outputs


def write_run_manifest(path: Path, cfg: RunConfig, extra: Optional[dict] = None):
    _, set_blas_threads, blas, _ = openblas("numpy")
    inverts = cfg.train.algorithm != "ssgd" and cfg.hyper.inv_type == "inverse"
    cholesky = openblas("scipy")[2] if inverts else None
    manifest = {
        "kfaclab_version": __version__,
        "seed": cfg.train.seed,
        "config": cfg.to_dict(),
        "csv_columns": list(CSV_COLUMNS),
        # what the bytes depend on besides the config: run_prepared's one BLAS
        # thread (unknown unless OpenBLAS), the OpenBLAS build that inverts,
        # numpy's SIMD kernels and the settings that steer both libraries' kernels
        "numeric_env": {"numpy": np.__version__, "blas": blas and blas().decode(),
                        "blas_threads": 1 if set_blas_threads else None,
                        "cholesky_blas": cholesky and cholesky().decode(),
                        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                        else os.cpu_count(),
                        "numpy_simd": simd_targets(),
                        **{name: os.environ.get(name) for name in (
                            "OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES",
                            "NPY_ENABLE_CPU_FEATURES")}},
        **(extra or {}),
    }
    write_all_or_nothing([(path, [(json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()])])


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


# ---------------------------------------------------------------------------
# checkpoints: magic + version + JSON header + raw little-endian arrays


@dataclass
class Checkpoint:
    iteration: int
    epoch: int
    meta: dict
    arrays: dict[str, np.ndarray]


def _cluster_arrays(cluster: Cluster) -> tuple[dict[str, np.ndarray], dict]:
    arrays: dict[str, np.ndarray] = {}
    factor_meta: dict[str, dict] = {}
    for i, layer in enumerate(cluster.net.layers):
        arrays[f"layer{i}/weight"] = layer.weight
    for i, m in enumerate(cluster.momentum):
        arrays[f"layer{i}/momentum"] = m
    for i, state in cluster.factors.items():
        prefix = f"factors/layer{i}"
        factor_meta[prefix] = {key: getattr(state, key) for key, _ in _FACTOR_META_KEYS}
        arrays.update({f"{prefix}/{name}": arr for name, arr in kfac.state_arrays(state).items()})
    return arrays, factor_meta


def save_checkpoint(path: Path, cluster: Cluster, iteration: int, epoch: int):
    arrays, factor_meta = _cluster_arrays(cluster)
    names = sorted(arrays)
    header = {
        "meta": {
            "iteration": iteration,
            "epoch": epoch,
            "algorithm": cluster.algorithm,
            "workers": cluster.n_workers,
            "factor_states": factor_meta,
        },
        "arrays": [
            {"name": n, "shape": list(arrays[n].shape), "dtype": "<f8"} for n in names
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    # streamed: only an array that is not already C-ordered "<f8" is copied
    write_all_or_nothing([(path, itertools.chain(
        [CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(blob)), blob],
        (np.ascontiguousarray(arrays[n], dtype="<f8") for n in names)))])


_HEADER_START = 20  # magic (8) + u32 version (4) + u64 header length (8)
_META_KEYS = (("iteration", int), ("epoch", int), ("algorithm", str), ("workers", int),
              ("factor_states", dict))
_FACTOR_META_KEYS = (("initialized", bool), ("last_factor_update", int),
                     ("last_inverse_update", int))


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file.  Any departure from the layout written by
    :func:`save_checkpoint` raises DataFormatError naming the byte offset.
    Each array is read straight into its own buffer, once its declared size
    has been checked against the file size."""
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh, os.fstat(fh.fileno()).st_size, path)
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read checkpoint: {exc.strerror or exc}") from exc


def _read_checkpoint(fh, size: int, path) -> Checkpoint:
    def bad(offset: int, what: str) -> DataFormatError:
        return DataFormatError(f"{path}: {what} at byte offset {offset}")

    fixed = fh.read(_HEADER_START)
    if fixed[:8] != CHECKPOINT_MAGIC:
        raise bad(0, "bad checkpoint magic")
    if len(fixed) < _HEADER_START:
        raise bad(len(fixed), f"truncated header ({len(fixed)} of {_HEADER_START} fixed bytes)")
    version, header_len = struct.unpack("<IQ", fixed[8:])
    if version != CHECKPOINT_VERSION:
        raise bad(8, f"unsupported checkpoint version {version} (this build reads "
                     f"version {CHECKPOINT_VERSION})")
    if _HEADER_START + header_len > size:
        raise bad(12, f"header length {header_len} runs past the end of the "
                      f"{size}-byte file")
    raw = fh.read(header_len)
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        raise bad(_HEADER_START + exc.start, "header is not UTF-8") from exc
    try:
        header = json.loads(text)
    except json.JSONDecodeError as exc:
        pos = _HEADER_START + len(text[:exc.pos].encode())
        raise bad(pos, f"header is not valid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise bad(_HEADER_START, "header JSON nests too deeply") from exc

    if (type(header) is not dict or type(header.get("meta")) is not dict
            or type(header.get("arrays")) is not list):
        raise bad(_HEADER_START, "header must hold a 'meta' object and an 'arrays' list")
    meta = header["meta"]
    for key, kind in _META_KEYS:
        if type(meta.get(key)) is not kind:
            raise bad(_HEADER_START, f"header meta needs {kind.__name__} {key!r}")
    for key in ("iteration", "epoch"):
        if meta[key] < 0:
            raise bad(_HEADER_START, f"header meta {key} = {meta[key]} is negative")
    for prefix, fm in meta["factor_states"].items():
        for key, kind in _FACTOR_META_KEYS:
            if type(fm) is not dict or type(fm.get(key)) is not kind:
                raise bad(_HEADER_START,
                          f"factor state {prefix!r} needs {kind.__name__} {key!r}")

    offset = _HEADER_START + header_len
    arrays = {}
    for entry in header["arrays"]:
        if type(entry) is not dict or type(entry.get("name")) is not str:
            raise bad(_HEADER_START, f"array entry {entry!r} has no name")
        name, shape = entry["name"], entry.get("shape")
        # stored arrays are matrices, vectors or scalars
        if (type(shape) is not list or len(shape) > 2
                or any(type(d) is not int or d < 0 for d in shape)):
            raise bad(_HEADER_START, f"array {name!r} has invalid shape {shape!r}")
        if entry.get("dtype") != "<f8":
            raise bad(_HEADER_START,
                      f"array {name!r} has unsupported dtype {entry.get('dtype')!r}")
        if name in arrays:
            raise bad(_HEADER_START, f"array {name!r} listed twice")
        nbytes = math.prod(shape) * 8
        if offset + nbytes > size:
            raise bad(offset, f"truncated data of array {name!r}")
        arr = np.empty(shape, dtype="<f8")
        if fh.readinto(arr) != nbytes:  # the file shrank since fstat
            raise bad(offset, f"truncated data of array {name!r}")
        arrays[name] = arr
        offset += nbytes
    if offset != size:
        raise bad(offset, f"{size - offset} trailing bytes after the last array")
    return Checkpoint(iteration=meta["iteration"], epoch=meta["epoch"], meta=meta, arrays=arrays)


def _stored(ckpt: Checkpoint, name: str, shape: tuple[int, ...]) -> np.ndarray:
    arr = ckpt.arrays.get(name)
    if arr is None or arr.shape != shape:
        found = "missing" if arr is None else f"of shape {arr.shape}"
        raise DataFormatError(f"checkpoint array {name!r} is {found}; the run needs {shape}")
    return arr


def _restore_factor_state(state: kfac.FactorState, ckpt: Checkpoint, layer: int, owner: int,
                          d_in: int, d_out: int, inv_type: str):
    prefix = f"factors/layer{layer}"
    where = f"factor state {prefix!r} (layer {layer}, owner worker {owner})"
    fm = ckpt.meta["factor_states"].get(prefix)
    if fm is None:
        raise DataFormatError(f"checkpoint has no {where}; the run needs one")
    for key in ("last_factor_update", "last_inverse_update"):
        if not -1 <= fm[key] < ckpt.iteration:
            raise DataFormatError(f"checkpoint {where}: {key} = {fm[key]} lies outside "
                                  f"-1..{ckpt.iteration - 1} for a checkpoint at iteration "
                                  f"{ckpt.iteration}")

    if fm["initialized"] != (fm["last_factor_update"] >= 0):
        raise DataFormatError(f"checkpoint {where}: initialized = {json.dumps(fm['initialized'])} "
                              f"contradicts last_factor_update = {fm['last_factor_update']}")
    state.last_factor_update = fm["last_factor_update"]
    state.last_inverse_update = fm["last_inverse_update"]
    # copies: the running average folds into them in place, not into the checkpoint
    kfac.load_arrays(state, {n[len(prefix) + 1:]: arr.copy() for n, arr in ckpt.arrays.items()
                             if n.startswith(prefix + "/")})
    problems = kfac.state_problems(state, inv_type, d_in, d_out)
    if problems:
        raise DataFormatError(f"checkpoint {where} under inv_type {inv_type!r}: {problems[0]}")


def restore_cluster(cluster: Cluster, ckpt: Checkpoint, cfg: RunConfig):
    """Load a checkpoint's weights, momentum and every layer's factor state
    into a freshly built cluster of the same configuration, reading exactly
    what a checkpoint of the run holds.  A DataFormatError names a missing,
    mis-shaped or unread array or factor state, a staleness stamp outside
    ``-1 <= stamp < iteration`` or contradicting ``initialized``, and a
    factor state that :func:`kfaclab.kfac.state_problems` rejects."""
    if ckpt.meta["algorithm"] != cfg.train.algorithm or ckpt.meta["workers"] != cfg.train.workers:
        raise ArgumentError(
            "checkpoint was produced with a different algorithm/worker configuration"
        )
    for i, layer in enumerate(cluster.net.layers):
        layer.weight[...] = _stored(ckpt, f"layer{i}/weight", layer.weight.shape)
    for i, m in enumerate(cluster.momentum):
        m[...] = _stored(ckpt, f"layer{i}/momentum", m.shape)
    for i, state in cluster.factors.items():
        d_out, d_in = cluster.net.layers[i].weight.shape
        _restore_factor_state(state, ckpt, i, cluster.owners[i], d_in, d_out,
                              cfg.hyper.inv_type)
    # what the restored cluster holds is what it reads, and what it would save
    unread = sorted(set(ckpt.arrays) - set(_cluster_arrays(cluster)[0]))
    if unread:
        raise DataFormatError(f"checkpoint array {unread[0]!r} is not part of the state this "
                              f"run restores ({len(unread)} such arrays)")
