"""Deterministic single-process simulation of a data-parallel cluster.

The step contract keeps every worker's weights and momentum bit-identical,
so the cluster holds ONE weight set and ONE momentum set that every worker
references, and applies each update once.  What differs between workers is
kept per worker: the data shard, the captures of that worker's local
forward/backward pass (held as local values, never on the shared network),
and the factor state (averaged factors, decompositions, staleness stamps).

Workers run sequentially in worker-index order and every collective reduces
over a fixed pairwise tree of worker indices, so runs are bit-reproducible.
The tree shape also guarantees that averaging P identical tensors returns
the input bits unchanged whenever P is a power of two (every partial sum is
x + x, which is exact), which is what makes replicated-data cluster runs
exactly equal to their single-worker counterparts.

Three algorithm families share the gradient path (local backprop, then an
averaging all-reduce):

* ``ssgd``: momentum SGD on the aggregated gradient, no curvature.
* ``mpd_kfac_*``: every worker builds factor statistics for every layer,
  factors are all-reduced, and each layer's decomposition is computed by its
  round-robin owner.  The ``co`` variant broadcasts decompositions and every
  worker preconditions everything locally (the copies are bit-identical, so
  the simulator applies one local copy once per layer on behalf of all P);
  the ``mo`` variant preconditions at the owner and broadcasts
  preconditioned gradients.
* ``dp_kfac``: each worker builds factor statistics from its LOCAL
  shard for its OWN layers only, preconditions the aggregated gradient
  there, and broadcasts the result.  Factor communication never happens.

Every step logs element counts per stage; the analytic model in
:mod:`kfaclab.costmodel` must reproduce them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import kfac
from .costmodel import LayerDims, layer_counts, round_robin_partition
from .errors import ArgumentError, KfacLabError, NumericError, ShapeError
from .kfac import FactorState, KfacHyper
from .model import Batch, Network, NetworkSpec, backward, forward, init_momentum, init_network, sgd_step

ALGORITHMS = ("ssgd", "mpd_kfac_co", "mpd_kfac_mo", "dp_kfac")
SHARD_POLICIES = ("disjoint", "replicate")


@dataclass
class StepCounters:
    """Element counts for one simulated step.  Compute counters are per-worker
    maxima; communication counters are cluster totals."""

    gradcomp: int = 0
    factorcomp: int = 0
    inversecomp: int = 0
    gradcomm: int = 0
    factorcomm: int = 0
    predcomm: int = 0
    inversecomm: int = 0


@dataclass
class CollectiveLog:
    steps: list[StepCounters] = field(default_factory=list)

    def new_step(self) -> StepCounters:
        entry = StepCounters()
        self.steps.append(entry)
        return entry

    def total(self, stage: str) -> int:
        return sum(getattr(s, stage) for s in self.steps)


@dataclass(frozen=True)
class ClusterConfig:
    workers: int
    assignment: tuple[tuple[int, ...], ...]
    algorithm: str

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ArgumentError(f"unknown algorithm {self.algorithm!r}")
        if self.workers < 1:
            raise ArgumentError("worker count must be >= 1")
        if len(self.assignment) != self.workers:
            raise ArgumentError("assignment must list one layer set per worker")


def assign_layers_round_robin(n_layers: int, workers: int) -> tuple[tuple[int, ...], ...]:
    """Circular layer partition: worker p owns layers p, p+P, ... (0-based)."""
    if n_layers < 1:
        raise ArgumentError("need at least one layer")
    return round_robin_partition(n_layers, workers)


def validate_partition(assignment: Sequence[Sequence[int]], n_layers: int):
    seen: set[int] = set()
    for p, part in enumerate(assignment):
        for i in part:
            if i in seen:
                raise ArgumentError(f"layer {i} assigned to more than one worker")
            seen.add(i)
    if seen != set(range(n_layers)):
        raise ArgumentError(f"assignment does not cover layers 0..{n_layers - 1} exactly")


@dataclass
class WorkerState:
    """One worker's view: its own factor states, plus references to the
    cluster's shared weights (``replica``) and momentum buffers."""

    rank: int
    replica: Network
    factors: dict[int, FactorState]
    momentum: list[np.ndarray]


@dataclass
class Cluster:
    config: ClusterConfig
    net: Network
    momentum: list[np.ndarray]
    workers: list[WorkerState]
    log: CollectiveLog = field(default_factory=CollectiveLog)

    @property
    def n_layers(self) -> int:
        return self.net.depth

    def owner_of(self, layer: int) -> int:
        for p, part in enumerate(self.config.assignment):
            if layer in part:
                return p
        raise ArgumentError(f"layer {layer} has no owner in the assignment")

    def layer_dims(self) -> list[LayerDims]:
        return [
            LayerDims(l.weight.shape[1], l.weight.shape[0])
            for l in self.net.layers
        ]


def build_cluster(
    spec: NetworkSpec,
    algorithm: str,
    workers: int,
    seed: int,
    assignment: Optional[tuple[tuple[int, ...], ...]] = None,
) -> Cluster:
    """One shared weight/momentum set, per-worker factor states, layer
    ownership round-robin unless an explicit partition is given."""
    net = init_network(spec, seed)
    momentum = init_momentum(net)
    if assignment is None:
        assignment = assign_layers_round_robin(net.depth, workers)
    validate_partition(assignment, net.depth)
    config = ClusterConfig(workers=workers, assignment=assignment, algorithm=algorithm)
    states = []
    for p in range(workers):
        if algorithm == "ssgd":
            owned: dict[int, FactorState] = {}
        elif algorithm == "dp_kfac":
            owned = {i: FactorState() for i in assignment[p]}
        else:  # mpd variants keep averaged factors for every layer
            owned = {i: FactorState() for i in range(net.depth)}
        states.append(WorkerState(p, net, owned, momentum))
    return Cluster(config=config, net=net, momentum=momentum, workers=states)


# ---------------------------------------------------------------------------
# collectives


def _tree_sum(tensors: Sequence[np.ndarray]) -> np.ndarray:
    level = tensors
    while len(level) > 1:
        merged = []
        for i in range(0, len(level) - 1, 2):
            merged.append(level[i] + level[i + 1])
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return level[0]


def all_reduce_avg(
    tensors: Sequence[np.ndarray],
    counters: Optional[StepCounters] = None,
    stage: str = "gradcomm",
) -> np.ndarray:
    """Elementwise mean over workers via a fixed index-ordered pairwise tree.

    Logs the ring all-reduce volume, 2(P-1) * N elements.
    """
    if not tensors:
        raise ArgumentError("all_reduce_avg needs at least one tensor")
    shape = tensors[0].shape
    for p, t in enumerate(tensors):
        if t.shape != shape:
            raise ShapeError(f"all-reduce shape mismatch at worker {p}: {t.shape} != {shape}")
    n_workers = len(tensors)
    if counters is not None:
        setattr(counters, stage, getattr(counters, stage) + 2 * (n_workers - 1) * tensors[0].size)
    return _tree_sum(tensors) / n_workers


def broadcast(
    root: int,
    tensor: np.ndarray,
    n_workers: int,
    counters: Optional[StepCounters] = None,
    stage: str = "predcomm",
) -> list[np.ndarray]:
    """Copy the root's tensor to every worker; logs (P-1) * N elements."""
    if not (0 <= root < n_workers):
        raise ArgumentError(f"broadcast root {root} outside 0..{n_workers - 1}")
    if counters is not None:
        setattr(counters, stage, getattr(counters, stage) + (n_workers - 1) * tensor.size)
    return [tensor.copy() for _ in range(n_workers)]


def shard_batch(batch: Batch, workers: int, policy: str = "disjoint") -> list[Batch]:
    """Split one global batch into per-worker batches.

    ``disjoint`` hands out contiguous equal slices (batch size must divide);
    ``replicate`` gives every worker the full batch (test mode).
    """
    if policy not in SHARD_POLICIES:
        raise ArgumentError(f"unknown shard policy {policy!r}")
    if policy == "replicate":
        return [batch] * workers
    B = batch.size
    if B % workers != 0:
        raise ArgumentError(f"batch of {B} samples does not divide across {workers} workers")
    size = B // workers
    shards = []
    for p in range(workers):
        cols = slice(p * size, (p + 1) * size)
        targets = batch.targets[cols] if batch.targets.ndim == 1 else batch.targets[:, cols]
        shards.append(Batch(batch.inputs[:, cols], targets))
    return shards


# ---------------------------------------------------------------------------
# steps


@dataclass(frozen=True)
class StepResult:
    loss: float
    counters: StepCounters
    preconditioned_by: Optional[dict[int, int]] = None


@dataclass(frozen=True)
class LocalPass:
    """One worker's forward/backward over its own shard: the local gradients
    and, per layer, the two K-FAC captures (input batch and per-sample
    pre-activation gradient batch)."""

    grads: list[np.ndarray]
    inputs: list[np.ndarray]
    preact_grads: list[np.ndarray]


def _local_grads(cluster: Cluster, shards: Sequence[Batch], t: int) -> tuple[list[LocalPass], float]:
    if len(shards) != cluster.config.workers:
        raise ArgumentError(
            f"got {len(shards)} shards for {cluster.config.workers} workers"
        )
    passes, losses = [], []
    for p, shard in enumerate(shards):
        loss, captures = forward(cluster.net, shard)
        if not np.isfinite(loss):
            raise NumericError(f"worker {p}, iteration {t}: training loss is {loss}")
        grads, preact_grads = backward(cluster.net, shard, captures)
        passes.append(LocalPass(grads, [c.input for c in captures], preact_grads))
        losses.append(loss)
    return passes, float(np.mean(losses))


def _aggregate_grads(
    cluster: Cluster, local: list[LocalPass], counters: StepCounters
) -> list[np.ndarray]:
    return [
        all_reduce_avg([lp.grads[i] for lp in local], counters, "gradcomm")
        for i in range(cluster.n_layers)
    ]


def _apply_update(cluster: Cluster, grads: list[np.ndarray], lr: float, momentum: float):
    sgd_step(cluster.net, grads, lr, cluster.momentum, momentum)


def _rethrow(exc: KfacLabError, worker: int, layer: int):
    raise type(exc)(f"worker {worker}, layer {layer}: {exc}") from exc


def ssgd_step(
    cluster: Cluster, shards: Sequence[Batch], lr: float, momentum: float, t: int
) -> StepResult:
    """Synchronous data-parallel SGD: average gradients, identical update."""
    counters = cluster.log.new_step()
    local, loss = _local_grads(cluster, shards, t)
    agg = _aggregate_grads(cluster, local, counters)
    counters.gradcomp = sum(g.size for g in agg)
    _apply_update(cluster, agg, lr, momentum)
    return StepResult(loss, counters)


def dp_kfac_step(
    cluster: Cluster,
    shards: Sequence[Batch],
    hyper: KfacHyper,
    lr: float,
    momentum: float,
    t: int,
) -> StepResult:
    """Distributed preconditioning: local-shard factors for owned layers only,
    zero factor communication, preconditioned gradients broadcast."""
    counters = cluster.log.new_step()
    local, loss = _local_grads(cluster, shards, t)
    agg = _aggregate_grads(cluster, local, counters)
    counters.gradcomp = sum(g.size for g in agg)

    f_up = kfac.is_factor_update(t, hyper)
    k_up = kfac.is_inverse_update(t, hyper)
    dims = cluster.layer_dims()
    owners: dict[int, int] = {}
    precond: dict[int, np.ndarray] = {}
    factor_work, inverse_work = [], []
    for worker, own in zip(cluster.workers, local):
        owned_f = 0
        for i in sorted(worker.factors):
            try:
                pg, _ = kfac.kfac_layer_step(
                    worker.factors[i],
                    own.inputs[i],
                    own.preact_grads[i],
                    agg[i],
                    hyper,
                    t,
                )
            except KfacLabError as exc:
                _rethrow(exc, worker.rank, i)
            owners[i] = worker.rank
            precond[i] = pg
            owned_f += layer_counts(dims[i])[1]
        factor_work.append(owned_f if f_up else 0)
        inverse_work.append(owned_f if k_up else 0)
    counters.factorcomp = max(factor_work)
    counters.inversecomp = max(inverse_work)

    update = []
    for i in range(cluster.n_layers):
        copies = broadcast(owners[i], precond[i], cluster.config.workers, counters, "predcomm")
        update.append(copies[0])
    _apply_update(cluster, update, lr, momentum)
    return StepResult(loss, counters, preconditioned_by=owners)


def mpd_kfac_step(
    cluster: Cluster,
    shards: Sequence[Batch],
    hyper: KfacHyper,
    lr: float,
    momentum: float,
    t: int,
    variant: str = "co",
) -> StepResult:
    """Model-parallel D-KFAC: global factors via all-reduce, decompositions at
    the layer owner.  ``co`` broadcasts decompositions, ``mo`` broadcasts
    preconditioned gradients."""
    if variant not in ("co", "mo"):
        raise ArgumentError(f"unknown mpd variant {variant!r}")
    counters = cluster.log.new_step()
    P = cluster.config.workers
    local, loss = _local_grads(cluster, shards, t)
    agg = _aggregate_grads(cluster, local, counters)
    counters.gradcomp = sum(g.size for g in agg)
    dims = cluster.layer_dims()

    if kfac.is_factor_update(t, hyper):
        # raw local factors for every layer on every worker, then averaged
        raw: list[list[tuple[np.ndarray, np.ndarray]]] = []
        for worker, own in zip(cluster.workers, local):
            per_layer = []
            for i in range(cluster.n_layers):
                try:
                    per_layer.append(kfac.compute_factors(own.inputs[i], own.preact_grads[i]))
                except KfacLabError as exc:
                    _rethrow(exc, worker.rank, i)
            raw.append(per_layer)
        counters.factorcomp = sum(layer_counts(d)[1] for d in dims)
        for i in range(cluster.n_layers):
            a_avg = all_reduce_avg([raw[p][i][0] for p in range(P)], counters, "factorcomm")
            g_avg = all_reduce_avg([raw[p][i][1] for p in range(P)], counters, "factorcomm")
            for worker in cluster.workers:
                kfac.update_running_average(worker.factors[i], a_avg, g_avg, hyper.xi, t)

    if kfac.is_inverse_update(t, hyper):
        inverse_work = [0] * P
        for i in range(cluster.n_layers):
            owner = cluster.owner_of(i)
            state = cluster.workers[owner].factors[i]
            try:
                kfac.refresh_inverses(state, hyper, t)
            except KfacLabError as exc:
                _rethrow(exc, owner, i)
            inverse_work[owner] += layer_counts(dims[i])[1]
            if variant == "co":
                _broadcast_decomposition(cluster, owner, i, state, hyper, counters, t)
        counters.inversecomp = max(inverse_work)

    owners = {i: cluster.owner_of(i) for i in range(cluster.n_layers)}
    update: list[np.ndarray] = []
    for i in range(cluster.n_layers):
        # co: every worker holds a bit-identical copy of the decomposition and
        # would compute the same bits, so worker 0's local copy is applied once
        # for all of them; mo: the owner applies it and broadcasts the result
        rank = 0 if variant == "co" else owners[i]
        try:
            pg = kfac.apply_preconditioner(cluster.workers[rank].factors[i], agg[i], hyper)
        except KfacLabError as exc:
            _rethrow(exc, rank, i)
        if variant == "mo":
            pg = broadcast(rank, pg, P, counters, "predcomm")[0]
        update.append(pg)
    _apply_update(cluster, update, lr, momentum)
    return StepResult(loss, counters, preconditioned_by=owners)


def _broadcast_decomposition(
    cluster: Cluster,
    owner: int,
    layer: int,
    state: FactorState,
    hyper: KfacHyper,
    counters: StepCounters,
    t: int,
):
    """COMM-OPT payload: eigenbases plus eigenvalue vectors, or the two damped
    inverses.  Receivers store identical copies in their own factor states."""
    P = cluster.config.workers
    if hyper.inv_type == "eigen":
        tensors = [state.a_eig.q, state.a_eig.values, state.g_eig.q, state.g_eig.values]
    else:
        tensors = [state.a_damped_inv, state.g_damped_inv]
    received = [broadcast(owner, arr, P, counters, "inversecomm") for arr in tensors]
    for p, worker in enumerate(cluster.workers):
        dest = worker.factors[layer]
        if hyper.inv_type == "eigen":
            dest.a_eig = kfac.EigenPair(received[0][p], received[1][p])
            dest.g_eig = kfac.EigenPair(received[2][p], received[3][p])
            dest.a_damped_inv = None
            dest.g_damped_inv = None
        else:
            dest.a_damped_inv = received[0][p]
            dest.g_damped_inv = received[1][p]
            dest.a_eig = None
            dest.g_eig = None
        dest.last_inverse_update = t


@dataclass(frozen=True)
class LrSchedule:
    """Warmup from the base rate to ``workers * base``, then step decay."""

    base_lr: float
    workers: int
    warmup_iters: int = 0
    decay_epochs: tuple[int, ...] = ()
    decay_factor: float = 10.0


def lr_schedule(t: int, epoch: int, sched: LrSchedule) -> float:
    """Learning rate at iteration ``t`` in epoch ``epoch``: linear ramp from
    the base rate to ``P`` times it over the warmup iterations, then divided
    by the decay factor at every decay-epoch boundary already passed."""
    peak = sched.base_lr * sched.workers
    if sched.warmup_iters > 0 and t < sched.warmup_iters:
        return sched.base_lr + (peak - sched.base_lr) * (t / sched.warmup_iters)
    drops = sum(1 for e in sched.decay_epochs if epoch >= e)
    return peak / sched.decay_factor ** drops


def run_step(
    cluster: Cluster,
    shards: Sequence[Batch],
    hyper: KfacHyper,
    lr: float,
    momentum: float,
    t: int,
) -> StepResult:
    """Dispatch one step by the cluster's configured algorithm."""
    algo = cluster.config.algorithm
    if algo == "ssgd":
        return ssgd_step(cluster, shards, lr, momentum, t)
    if algo == "dp_kfac":
        return dp_kfac_step(cluster, shards, hyper, lr, momentum, t)
    return mpd_kfac_step(cluster, shards, hyper, lr, momentum, t, variant=algo[-2:])
