"""Deterministic single-process simulation of a data-parallel cluster.

The step contract keeps every worker's weights and momentum bit-identical,
so the cluster holds ONE weight set and ONE momentum set that every worker
references, and applies each update once.  Every layer has one owner, read
from the assignment, and ONE factor state (averaged factors,
decompositions, staleness stamps): DP-KFAC keeps it only at the owner, and
under MPD-KFAC every worker would hold the same bits.  What differs between
workers is the data shard and the captures of that worker's local
forward/backward pass (held as local values, never on the shared network).

Workers run sequentially in worker-index order and every collective reduces
over a fixed pairwise tree of worker indices, so runs are bit-reproducible.
The tree shape also guarantees that averaging P identical tensors returns
the input bits unchanged whenever P is a power of two (every partial sum is
x + x, which is exact), which is what makes replicated-data cluster runs
exactly equal to their single-worker counterparts.  Only the first tree
level allocates; later levels and the final division by P work in place on
those fresh partial sums, never on the inputs.

:func:`run_step` is the one step skeleton.  It does the work every
algorithm shares once: local forward/backward passes, the averaging
all-reduce of the gradients, and the GradComp count.  It then hands the
aggregated gradients to the preconditioning of the cluster's configured
algorithm and applies one momentum-SGD update:

* ``ssgd``: no preconditioning, the aggregated gradient is the update.
* ``mpd_kfac_*``: every worker builds factor statistics for every layer,
  factors are all-reduced layer by layer, and each layer's decomposition is
  computed by its round-robin owner.  The all-reduced factors are the same
  bits on every worker, so their running average is folded once per layer
  into the layer's one state.  The ``co`` variant broadcasts decompositions
  and every worker preconditions everything locally (every worker holds the
  same decomposition, so the simulator applies it once per layer on behalf
  of all P); the ``mo`` variant preconditions at the owner and broadcasts
  preconditioned gradients.
* ``dp_kfac``: each worker builds factor statistics from its LOCAL
  shard for its OWN layers only, preconditions the aggregated gradient
  there, and broadcasts the result.  Factor communication never happens.

A broadcast hands every receiver the same read-only tensor instead of P
copies; its element count is still logged as (P-1) * N.

Every step logs element counts per stage; the analytic model in
:mod:`kfaclab.costmodel` must reproduce them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import kfac
from .costmodel import ALGORITHMS, LayerDims, layer_counts, round_robin_partition
from .errors import ArgumentError, KfacLabError, NumericError, ShapeError
from .kfac import FactorState, KfacHyper
from .model import Batch, Network, NetworkSpec, backward, forward, init_momentum, init_network, sgd_step
from .numerics import divide_in_place

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


class WorkerView(NamedTuple):
    """What one worker holds: the shared weights (``replica``) and momentum
    buffers, and the factor states of the layers it keeps."""

    rank: int
    replica: Network
    momentum: list[np.ndarray]
    factors: dict[int, FactorState]


@dataclass
class Cluster:
    config: ClusterConfig
    net: Network
    momentum: list[np.ndarray]
    factors: dict[int, FactorState]  # one per layer; none for ssgd
    owners: tuple[int, ...]  # owners[i]: the worker that owns layer i
    log: CollectiveLog = field(default_factory=CollectiveLog)

    @property
    def n_layers(self) -> int:
        return self.net.depth

    @property
    def workers(self) -> tuple[WorkerView, ...]:
        """Per-worker views derived from the one state per layer: under
        MPD-KFAC every worker holds every layer's state, under DP-KFAC only
        its assigned layers', under S-SGD none.  The step never reads them."""
        dp = self.config.algorithm == "dp_kfac"
        return tuple(
            WorkerView(p, self.net, self.momentum,
                       {i: self.factors[i] for i in (part if dp else self.factors)})
            for p, part in enumerate(self.config.assignment)
        )

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
) -> Cluster:
    """One shared weight/momentum set, one factor state per layer, layer
    ownership by :func:`kfaclab.costmodel.round_robin_partition`, the
    partition the cost model assumes."""
    net = init_network(spec, seed)
    # allocated right after the weights: allocated after the assignment
    # instead, the steps of the 192-wide P=8 perfbench workload ran 2-7%
    # slower (memory placement, not work)
    momentum = init_momentum(net)
    assignment = round_robin_partition(net.depth, workers)
    config = ClusterConfig(workers=workers, assignment=assignment, algorithm=algorithm)
    owner_by_layer = {i: p for p, part in enumerate(assignment) for i in part}
    factors = {} if algorithm == "ssgd" else {i: FactorState() for i in range(net.depth)}
    return Cluster(config=config, net=net, momentum=momentum, factors=factors,
                   owners=tuple(owner_by_layer[i] for i in range(net.depth)))


# ---------------------------------------------------------------------------
# collectives


def _tree_sum(tensors: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise sum over worker indices, never writing to an input.

    The first level allocates one fresh array per pair; every later level
    adds into its left operand, which is always such a fresh partial sum (a
    carried-over odd input only ever sits at the end of a level, where it is
    a right operand or carried again).
    """
    level = list(tensors)
    fresh = False
    while len(level) > 1:
        merged = [np.add(level[i], level[i + 1], out=level[i] if fresh else None)
                  for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
        fresh = True
    return level[0]


def all_reduce_avg(
    tensors: Sequence[np.ndarray],
    counters: Optional[StepCounters] = None,
    stage: str = "gradcomm",
) -> np.ndarray:
    """Elementwise mean over workers via a fixed index-ordered pairwise tree.

    Returns a fresh array and leaves the inputs untouched.  Logs the ring
    all-reduce volume, 2(P-1) * N elements.
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
    if n_workers == 1:
        return tensors[0].copy()
    # _tree_sum's result is a fresh array when P > 1
    return divide_in_place(_tree_sum(tensors), n_workers)


def broadcast(
    root: int,
    tensor: np.ndarray,
    n_workers: int,
    counters: Optional[StepCounters] = None,
    stage: str = "predcomm",
) -> np.ndarray:
    """Send the root's tensor to every worker; logs (P-1) * N elements.

    Every receiver would hold the same bits, so the one received tensor is
    returned: a read-only view of the root's, shared by all workers.
    """
    if not (0 <= root < n_workers):
        raise ArgumentError(f"broadcast root {root} outside 0..{n_workers - 1}")
    if counters is not None:
        setattr(counters, stage, getattr(counters, stage) + (n_workers - 1) * tensor.size)
    received = tensor.view()
    received.flags.writeable = False
    return received


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


def _rethrow(exc: KfacLabError, worker: int, layer: int):
    raise type(exc)(f"worker {worker}, layer {layer}: {exc}") from exc


def _check_finite(update: Sequence[np.ndarray], t: int, what: str,
                  owners: Optional[Sequence[int]] = None):
    for i, g in enumerate(update):
        if not np.isfinite(g).all():
            where = "" if owners is None else f"worker {owners[i]}, "
            raise NumericError(f"{where}layer {i}, iteration {t}: {what} is not finite")


def _dp_precondition(
    cluster: Cluster,
    local: list[LocalPass],
    agg: list[np.ndarray],
    hyper: KfacHyper,
    counters: StepCounters,
    t: int,
) -> list[np.ndarray]:
    """Distributed preconditioning: local-shard factors for owned layers only,
    zero factor communication, preconditioned gradients broadcast."""
    f_up = kfac.is_factor_update(t, hyper)
    k_up = kfac.is_inverse_update(t, hyper)
    dims = cluster.layer_dims()
    precond: dict[int, np.ndarray] = {}
    factor_work, inverse_work = [], []
    for p, (part, own) in enumerate(zip(cluster.config.assignment, local)):
        owned_f = 0
        for i in part:
            try:
                precond[i], _ = kfac.kfac_layer_step(
                    cluster.factors[i], own.inputs[i], own.preact_grads[i], agg[i], hyper, t)
            except KfacLabError as exc:
                _rethrow(exc, p, i)
            owned_f += layer_counts(dims[i])[1]
        factor_work.append(owned_f if f_up else 0)
        inverse_work.append(owned_f if k_up else 0)
    counters.factorcomp = max(factor_work)
    counters.inversecomp = max(inverse_work)
    return [
        broadcast(owner, precond[i], cluster.config.workers, counters, "predcomm")
        for i, owner in enumerate(cluster.owners)
    ]


def _mpd_precondition(
    cluster: Cluster,
    local: list[LocalPass],
    agg: list[np.ndarray],
    hyper: KfacHyper,
    counters: StepCounters,
    t: int,
) -> list[np.ndarray]:
    """Model-parallel D-KFAC: global factors via all-reduce, decompositions at
    the layer owner.  COMM-OPT (``mpd_kfac_co``) broadcasts decompositions,
    MEM-OPT (``mpd_kfac_mo``) broadcasts preconditioned gradients.

    The factor stage runs layer-major: for each layer every worker's raw
    pair is built and all-reduced at once, so only one layer's P raw pairs
    are alive at a time.  The averaged pair is folded once into the layer's
    one state, which is what P separate folds of identical inputs would
    have produced bit for bit."""
    comm_opt = cluster.config.algorithm == "mpd_kfac_co"
    P = cluster.config.workers
    dims = cluster.layer_dims()

    if kfac.is_factor_update(t, hyper):
        counters.factorcomp = sum(layer_counts(d)[1] for d in dims)
        for i in range(cluster.n_layers):
            raw = []
            for p, own in enumerate(local):
                try:
                    raw.append(kfac.compute_factors(own.inputs[i], own.preact_grads[i]))
                except KfacLabError as exc:
                    _rethrow(exc, p, i)
            a_avg = all_reduce_avg([a for a, _ in raw], counters, "factorcomm")
            g_avg = all_reduce_avg([g for _, g in raw], counters, "factorcomm")
            kfac.update_running_average(cluster.factors[i], a_avg, g_avg, hyper.xi, t)

    if kfac.is_inverse_update(t, hyper):
        inverse_work = [0] * P
        for i, owner in enumerate(cluster.owners):
            state = cluster.factors[i]
            try:
                kfac.refresh_inverses(state, hyper, t)
            except KfacLabError as exc:
                _rethrow(exc, owner, i)
            inverse_work[owner] += layer_counts(dims[i])[1]
            if comm_opt:
                # eigenbases plus eigenvalue vectors, or the two damped
                # inverses; every receiver would hold the owner's bits, so
                # the layer's one state stands for all of them
                payload = ((state.a_eig.q, state.a_eig.values, state.g_eig.q, state.g_eig.values)
                           if hyper.inv_type == "eigen"
                           else (state.a_damped_inv, state.g_damped_inv))
                for arr in payload:
                    broadcast(owner, arr, P, counters, "inversecomm")
        counters.inversecomp = max(inverse_work)

    update: list[np.ndarray] = []
    for i, owner in enumerate(cluster.owners):
        # co: every worker holds the same decomposition and would compute the
        # same bits, so it is applied once for all of them; mo: the owner
        # applies it and broadcasts the result.  Either way a failure is
        # reported at the owner, as the non-finite check in run_step does.
        try:
            pg = kfac.apply_preconditioner(cluster.factors[i], agg[i], hyper)
        except KfacLabError as exc:
            _rethrow(exc, owner, i)
        if not comm_opt:
            pg = broadcast(owner, pg, P, counters, "predcomm")
        update.append(pg)
    return update


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
    """One synchronous step of the cluster's configured algorithm: local
    passes, the gradient all-reduce, the algorithm's preconditioning (none
    for ``ssgd``), then one momentum-SGD update of the shared weights."""
    counters = cluster.log.new_step()
    # a diverging run overflows here; the finiteness checks report it as a
    # NumericError instead of numpy warnings followed by inf/nan weights
    with np.errstate(over="ignore", invalid="ignore"):
        local, loss = _local_grads(cluster, shards, t)
        update = [
            all_reduce_avg([lp.grads[i] for lp in local], counters, "gradcomm")
            for i in range(cluster.n_layers)
        ]
        _check_finite(update, t, "aggregated gradient")
        counters.gradcomp = sum(g.size for g in update)
        owners = None
        if cluster.config.algorithm != "ssgd":
            precondition = (_dp_precondition if cluster.config.algorithm == "dp_kfac"
                            else _mpd_precondition)
            update = precondition(cluster, local, update, hyper, counters, t)
            _check_finite(update, t, "preconditioned gradient", cluster.owners)
            owners = dict(enumerate(cluster.owners))
        sgd_step(cluster.net, update, lr, cluster.momentum, momentum)
    return StepResult(loss, counters, preconditioned_by=owners)
