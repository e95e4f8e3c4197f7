"""Training-run orchestration: data provisioning, the epoch loop, metrics
rows, run manifests, and exactly-resumable checkpoints.

Randomness discipline: every stochastic choice draws from a child stream
derived from the run seed (data generation, eval split, per-epoch shuffles,
weight init), so a run is reproducible from its seed alone and a resumed run
regenerates shuffle order instead of persisting RNG state.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .config import RunConfig
from .datasets import Dataset, gen_synthetic, load_idx
from .distsim import Cluster, build_cluster, lr_schedule, run_step, shard_batch
from .errors import ArgumentError, DataFormatError
from .kfac import FactorState
from .model import Batch, predict, _per_sample_losses
from .numerics import EigenPair

CSV_COLUMNS = (
    "iteration", "epoch", "lr", "train_loss", "eval_loss", "eval_accuracy",
    "gradcomp", "factorcomp", "inversecomp",
    "gradcomm", "factorcomm", "predcomm", "inversecomm",
)

CHECKPOINT_MAGIC = b"KFACLAB\0"
CHECKPOINT_VERSION = 1


@dataclass
class MetricsRow:
    iteration: int
    epoch: int
    lr: float
    train_loss: float
    eval_loss: Optional[float]
    eval_accuracy: Optional[float]
    gradcomp: int
    factorcomp: int
    inversecomp: int
    gradcomm: int
    factorcomm: int
    predcomm: int
    inversecomm: int

    def as_csv_fields(self) -> list[str]:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)
        return [fmt(getattr(self, c)) for c in CSV_COLUMNS]


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
    seeds = _child_seeds(cfg.train.seed)
    if cfg.data.kind == "idx":
        return load_idx(cfg.data.images, cfg.data.labels)
    return gen_synthetic(cfg.data.kind, cfg.data.synthetic_params(), seeds["data"])


def split_dataset(dataset: Dataset, eval_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic permutation split; returns (train_idx, eval_idx)."""
    n = dataset.n_samples
    perm = np.random.default_rng(seed).permutation(n)
    n_eval = int(round(n * eval_fraction))
    return perm[n_eval:], perm[:n_eval]


def _take(dataset: Dataset, idx: np.ndarray) -> Batch:
    targets = dataset.targets[idx] if dataset.targets.ndim == 1 else dataset.targets[:, idx]
    return Batch(dataset.inputs[:, idx], targets)


def evaluate(cluster: Cluster, batch: Batch) -> tuple[float, Optional[float]]:
    """Held-out loss (and accuracy for classification) on the cluster's weights."""
    net = cluster.net
    outputs = predict(net, batch.inputs)
    loss = float(np.mean(_per_sample_losses(outputs, batch.targets, net.spec.loss_kind)))
    if net.spec.loss_kind == "softmax_cross_entropy":
        acc = float(np.mean(outputs.argmax(axis=0) == batch.targets))
        return loss, acc
    return loss, None


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

    cluster = build_cluster(
        cfg.network, cfg.train.algorithm, cfg.train.workers, seeds["init"]
    )
    start_epoch = 0
    t = 0
    if resume_from is not None:
        restore_cluster(cluster, resume_from, cfg)
        t = resume_from.iteration
        start_epoch = resume_from.epoch
        if start_epoch >= cfg.train.epochs:
            raise ArgumentError(
                f"checkpoint already at epoch {start_epoch}; config trains {cfg.train.epochs}"
            )

    hyper = cfg.hyper.kfac_hyper()
    sched = cfg.hyper.schedule(cfg.train.workers)
    eval_batch = _take(dataset, eval_idx) if len(eval_idx) > 0 else None

    rows: list[MetricsRow] = []
    for epoch in range(start_epoch, cfg.train.epochs):
        order = np.random.default_rng([seeds["shuffle"], epoch]).permutation(len(train_idx))
        for b in range(iters_per_epoch):
            batch = _take(dataset, train_idx[order[b * B: (b + 1) * B]])
            shards = shard_batch(batch, cfg.train.workers, cfg.train.shard_policy)
            lr = lr_schedule(t, epoch, sched)
            result = run_step(cluster, shards, hyper, lr, cfg.hyper.momentum, t)
            eval_loss = eval_acc = None
            if b == iters_per_epoch - 1 and eval_batch is not None:
                eval_loss, eval_acc = evaluate(cluster, eval_batch)
            c = result.counters
            row = MetricsRow(
                iteration=t, epoch=epoch, lr=lr, train_loss=result.loss,
                eval_loss=eval_loss, eval_accuracy=eval_acc,
                gradcomp=c.gradcomp, factorcomp=c.factorcomp, inversecomp=c.inversecomp,
                gradcomm=c.gradcomm, factorcomm=c.factorcomm,
                predcomm=c.predcomm, inversecomm=c.inversecomm,
            )
            rows.append(row)
            if row_sink is not None:
                row_sink(row)
            t += 1
    return TrainResult(rows=rows, cluster=cluster, iters_per_epoch=iters_per_epoch,
                       final_iteration=t)


# ---------------------------------------------------------------------------
# file outputs


def atomic_write_bytes(path: Path, data: bytes):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def write_run_manifest(path: Path, cfg: RunConfig, extra: Optional[dict] = None):
    manifest = {
        "kfaclab_version": __version__,
        "seed": cfg.train.seed,
        "config": cfg.to_dict(),
        "csv_columns": list(CSV_COLUMNS),
    }
    if extra:
        manifest.update(extra)
    atomic_write_bytes(path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


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
    for worker in cluster.workers:
        for i, state in worker.factors.items():
            prefix = f"worker{worker.rank}/layer{i}"
            factor_meta[prefix] = {
                "initialized": state.initialized,
                "last_factor_update": state.last_factor_update,
                "last_inverse_update": state.last_inverse_update,
            }
            fields = {
                "a_cov": state.a_cov, "g_cov": state.g_cov,
                "a_damped_inv": state.a_damped_inv, "g_damped_inv": state.g_damped_inv,
            }
            if state.a_eig is not None:
                fields.update({"a_eig_q": state.a_eig.q, "a_eig_v": state.a_eig.values})
            if state.g_eig is not None:
                fields.update({"g_eig_q": state.g_eig.q, "g_eig_v": state.g_eig.values})
            for name, arr in fields.items():
                if arr is not None:
                    arrays[f"{prefix}/{name}"] = arr
    return arrays, factor_meta


def save_checkpoint(path: Path, cluster: Cluster, iteration: int, epoch: int):
    arrays, factor_meta = _cluster_arrays(cluster)
    names = sorted(arrays)
    header = {
        "meta": {
            "iteration": iteration,
            "epoch": epoch,
            "algorithm": cluster.config.algorithm,
            "workers": cluster.config.workers,
            "factor_states": factor_meta,
        },
        "arrays": [
            {"name": n, "shape": list(arrays[n].shape), "dtype": "<f8"} for n in names
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += struct.pack("<Q", len(blob))
    out += blob
    for n in names:
        out += np.ascontiguousarray(arrays[n], dtype="<f8").tobytes()
    atomic_write_bytes(path, bytes(out))


_HEADER_START = 20  # magic (8) + u32 version (4) + u64 header length (8)
_META_KEYS = (("iteration", int), ("epoch", int), ("algorithm", str), ("workers", int),
              ("factor_states", dict))
_FACTOR_META_KEYS = (("initialized", bool), ("last_factor_update", int),
                     ("last_inverse_update", int))


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file.  Any departure from the layout written by
    :func:`save_checkpoint` raises DataFormatError naming the byte offset."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read checkpoint: {exc.strerror or exc}") from exc

    def bad(offset: int, what: str) -> DataFormatError:
        return DataFormatError(f"{path}: {what} at byte offset {offset}")

    if data[:8] != CHECKPOINT_MAGIC:
        raise bad(0, "bad checkpoint magic")
    if len(data) < _HEADER_START:
        raise bad(len(data), f"truncated header ({len(data)} of {_HEADER_START} fixed bytes)")
    version = struct.unpack("<I", data[8:12])[0]
    if version != CHECKPOINT_VERSION:
        raise bad(8, f"unsupported checkpoint version {version}")
    header_len = struct.unpack("<Q", data[12:20])[0]
    if _HEADER_START + header_len > len(data):
        raise bad(12, f"header length {header_len} runs past the end of the "
                      f"{len(data)}-byte file")
    raw = data[_HEADER_START:_HEADER_START + header_len]
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
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(data):
            raise bad(offset, f"truncated data of array {name!r}")
        arrays[name] = np.frombuffer(
            data, dtype="<f8", count=count, offset=offset
        ).reshape(shape).copy()
        offset += nbytes
    if offset != len(data):
        raise bad(offset, f"{len(data) - offset} trailing bytes after the last array")
    return Checkpoint(iteration=meta["iteration"], epoch=meta["epoch"], meta=meta, arrays=arrays)


def _stored(ckpt: Checkpoint, name: str, shape: tuple[int, ...]) -> np.ndarray:
    arr = ckpt.arrays.get(name)
    if arr is None or arr.shape != shape:
        found = "missing" if arr is None else f"of shape {arr.shape}"
        raise DataFormatError(f"checkpoint array {name!r} is {found}; the run needs {shape}")
    return arr


def _restore_factor_state(state: FactorState, ckpt: Checkpoint, prefix: str,
                          d_in: int, d_out: int, inv_type: str):
    fm = ckpt.meta["factor_states"].get(prefix)
    if fm is None:
        raise DataFormatError(f"checkpoint has no factor state {prefix!r}; the run needs one")

    def group(*names, required=False):
        """Arrays saved together: all of them, or None for each if absent."""
        if not required and not any(f"{prefix}/{n}" in ckpt.arrays for n in names):
            return [None] * len(names)
        # a_* arrays are d_in wide, g_* d_out; *_v are eigenvalue vectors
        return [_stored(ckpt, f"{prefix}/{n}", (d_in if n[0] == "a" else d_out,)
                        * (1 if n.endswith("_v") else 2)) for n in names]

    state.initialized = fm["initialized"]
    state.last_factor_update = fm["last_factor_update"]
    state.last_inverse_update = fm["last_inverse_update"]
    # an initialized state cannot lack its averaged factors
    state.a_cov, state.g_cov = group("a_cov", "g_cov", required=state.initialized)
    state.a_damped_inv, state.g_damped_inv = group("a_damped_inv", "g_damped_inv")
    eig = group("a_eig_q", "a_eig_v", "g_eig_q", "g_eig_v")
    if eig[0] is not None:
        state.a_eig, state.g_eig = EigenPair(*eig[:2]), EigenPair(*eig[2:])
    # a refreshed state must hold the decomposition the run preconditions with
    if state.last_inverse_update >= 0:
        held = ("eigen" if state.a_eig is not None
                else "inverse" if state.a_damped_inv is not None else None)
        if held != inv_type:
            stored = f"inv_type {held!r} decompositions" if held else "no decompositions"
            raise DataFormatError(
                f"checkpoint factor state {prefix!r} holds {stored} (refreshed at "
                f"iteration {state.last_inverse_update}), but the run uses inv_type "
                f"{inv_type!r}"
            )


def restore_cluster(cluster: Cluster, ckpt: Checkpoint, cfg: RunConfig):
    """Load a checkpoint's weights, momentum and every worker's factor
    states into a freshly built cluster of the same configuration.  A
    missing or mis-shaped array or factor state is a DataFormatError, and so
    is a refreshed factor state that lacks the decomposition of the run's
    ``inv_type`` (a resume that switches the damping scheme)."""
    if ckpt.meta["algorithm"] != cfg.train.algorithm or ckpt.meta["workers"] != cfg.train.workers:
        raise ArgumentError(
            "checkpoint was produced with a different algorithm/worker configuration"
        )
    for i, layer in enumerate(cluster.net.layers):
        layer.weight[...] = _stored(ckpt, f"layer{i}/weight", layer.weight.shape)
    for i, m in enumerate(cluster.momentum):
        m[...] = _stored(ckpt, f"layer{i}/momentum", m.shape)
    for worker in cluster.workers:
        for i, state in worker.factors.items():
            d_out, d_in = cluster.net.layers[i].weight.shape
            _restore_factor_state(state, ckpt, f"worker{worker.rank}/layer{i}", d_in, d_out,
                                  cfg.hyper.inv_type)
