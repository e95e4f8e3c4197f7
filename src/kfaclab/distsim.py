"""Deterministic single-process simulation of a data-parallel cluster.

A :class:`Cluster` holds the training state and nothing else: what a
checkpoint restores, plus the three settings it was built with.  The step
contract keeps every worker's weights and momentum bit-identical,
so the cluster holds ONE weight set and ONE momentum set that every worker
references, and applies each update once.  Every layer has one owner
(``Cluster.owners[i]``, from :func:`~kfaclab.costmodel.round_robin_owners`)
and ONE factor state (averaged factors, decompositions, staleness stamps):
DP-KFAC keeps it only at the owner, and under MPD-KFAC every worker would
hold the same bits.  What differs between workers is the data shard, the
worker's span of the global batch's columns (:func:`worker_spans`), and its
local pass: that span of ONE forward/backward pass over the batch (see
:mod:`kfaclab.model`), with its own gradient ``(1/b) g_p a_p^T``, factors and
mean loss.  The step keeps the one pass and slices it: a builder's captures
are its span's columns of the pass's captures.

Per-worker work runs in worker-index order and every collective reduces
over a fixed pairwise tree of worker indices, so runs are bit-reproducible.
Replicated-data cluster runs equal their single-worker counterparts
exactly: equal spans (the ``replicate`` policy) read the same columns of
the one pass, which are the single-worker pass's, and the tree returns the
bits of P identical tensors unchanged whenever P is a power of two (every
partial sum is x + x, which is exact).  Only the first tree level
allocates; later levels and the final division by P work in place on
those fresh partial sums.

:func:`run_step` is the one step skeleton.  It does the work every
algorithm shares once: the local forward/backward pass, the averaging
all-reduce of the gradients, and the GradComp count.  ``ssgd`` applies the
aggregated gradient as it is; the K-FAC algorithms precondition it in three
passes over the layers in order, the paper's three stages: build and fold
the factors, refresh the decompositions at their owners, precondition and
broadcast.  The passes take two decisions from the algorithm:

* **Who builds the factors.**  Under ``dp_kfac`` the layer's owner builds
  them from its LOCAL shard and factors are never communicated; under
  ``mpd_kfac_*`` every worker builds them and they are all-reduced.  Either
  way the result is folded once into the layer's one state, and the owner
  refreshes the decomposition.
* **What the owner broadcasts.**  ``mpd_kfac_co`` broadcasts the refreshed
  decomposition and every worker preconditions locally (the same bits
  everywhere, so the simulator applies it once per layer on behalf of all
  P); ``mpd_kfac_mo`` and ``dp_kfac`` broadcast the preconditioned gradient.

One compute ledger serves all three: on a factor step each worker is
credited N_f for every layer it builds factors for, on a refresh step the
owner is credited N_f, and FactorComp and InverseComp are the per-worker
maxima.  One momentum-SGD update of the shared weights ends the step.

A broadcast hands every receiver the same read-only tensor instead of P
copies; its element count is still counted as (P-1) * N.

Every step returns a fresh :class:`~kfaclab.costmodel.StepCounters` of
element counts per stage (the cluster keeps no history); the analytic model
in :mod:`kfaclab.costmodel` must reproduce them exactly.

**Owner lanes.**  A refresh step's decompositions run at the same time, as
on P machines.  Once a training run has numpy's BLAS on one thread
(OpenBLAS's own threads fight pinned lanes: a 2.5 ms step took 24-28 ms), it
starts side lanes 1 .. ``min(P, usable CPUs) - 1``, threads pinned to a CPU
each (:func:`start_lanes`), hands them to every :func:`run_step` and stops
them when it ends.  Lane 0 is the calling thread; layer i refreshes on lane
``owners[i] % n_lanes``, or on lane 0 in a step handed no lanes.  Only the
refresh pass touches a lane: it hands the side-lane layers to their lanes,
runs the lane-0 layers itself and waits for every answer, so a side lane
starts after the whole build pass (:func:`_precondition` gives the cost) and
ends with the pass.  Lanes make the same single-threaded LAPACK calls on the
same arrays, so no bit or count changes.  Pinning is what pays: an unpinned
woken thread stays on the caller's CPU (six 193x193 ``eigh`` calls: 1.02x
their serial time, pinned 0.63x).  A lane found on the caller's current CPU
is moved; the caller's affinity is never touched.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import kfac
from .costmodel import ALGORITHMS, LayerDims, StepCounters, layer_counts, round_robin_owners
from .errors import ArgumentError, KfacLabError, NumericError, ShapeError
from .kfac import FactorState, KfacHyper
from .model import (Batch, Network, NetworkSpec, backward, forward, init_momentum, init_network,
                    sgd_step)
from .numerics import divide_in_place

SHARD_POLICIES = ("disjoint", "replicate")


class WorkerView(NamedTuple):
    """What one worker holds: the shared weights (``replica``) and momentum
    buffers, and the factor states of the layers it keeps."""

    rank: int
    replica: Network
    momentum: list[np.ndarray]
    factors: dict[int, FactorState]


@dataclass
class Cluster:
    """The training state: one shared weight/momentum set, one factor state
    per layer, and each layer's owner, plus the three settings it was built
    from."""

    algorithm: str
    n_workers: int
    shard_policy: str
    net: Network
    momentum: list[np.ndarray]
    factors: dict[int, FactorState]  # one per layer; none for ssgd
    owners: tuple[int, ...]  # owners[i]: the worker that owns layer i

    @property
    def n_layers(self) -> int:
        return self.net.depth

    @property
    def workers(self) -> tuple[WorkerView, ...]:
        """Per-worker views derived from the one state per layer: under
        MPD-KFAC every worker holds every layer's state, under DP-KFAC only
        the layers it owns, under S-SGD none.  No package module reads them;
        perfbench's checkpoint gate does, until it reads the state per layer."""
        dp = self.algorithm == "dp_kfac"
        return tuple(
            WorkerView(p, self.net, self.momentum,
                       {i: s for i, s in self.factors.items() if not dp or self.owners[i] == p})
            for p in range(self.n_workers)
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
    shard_policy: str = "disjoint",
) -> Cluster:
    """One shared weight/momentum set, one factor state per layer, and
    ``owners`` from :func:`kfaclab.costmodel.round_robin_owners`, the placement
    the cost model assumes; ``shard_policy`` for :func:`worker_spans`."""
    if algorithm not in ALGORITHMS:
        raise ArgumentError(f"unknown algorithm {algorithm!r}")
    # rejects a worker count below 1 and an unknown policy before allocating
    worker_spans(workers, workers, shard_policy)
    # The allocator state the step relies on: under glibc, freeing a mapped
    # block of at most 32 MiB raises the mmap threshold to its size
    # (mallopt(3)), so step arrays below 16 MiB come from the heap instead of
    # being mapped and faulted in afresh each step.  It touches no page.
    np.empty(16 << 20, dtype=np.uint8)
    net = init_network(spec, seed)
    # allocated right after the weights: allocated after the assignment
    # instead, the steps of the 192-wide P=8 perfbench workload ran 2-7%
    # slower (memory placement, not work)
    momentum = init_momentum(net)
    factors = {} if algorithm == "ssgd" else {i: FactorState() for i in range(net.depth)}
    return Cluster(algorithm, workers, shard_policy, net, momentum, factors,
                   round_robin_owners(net.depth, workers))


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
    counters: StepCounters,
    stage: str,
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
    setattr(counters, stage, getattr(counters, stage) + 2 * (n_workers - 1) * tensors[0].size)
    if n_workers == 1:
        return tensors[0].copy()
    # _tree_sum's result is a fresh array when P > 1
    return divide_in_place(_tree_sum(tensors), n_workers)


def broadcast(
    root: int,
    tensor: np.ndarray,
    n_workers: int,
    counters: StepCounters,
    stage: str,
) -> np.ndarray:
    """Send the root's tensor to every worker; logs (P-1) * N elements.

    Every receiver would hold the same bits, so the one received tensor is
    returned: a read-only view of the root's, shared by all workers.
    """
    if not (0 <= root < n_workers):
        raise ArgumentError(f"broadcast root {root} outside 0..{n_workers - 1}")
    setattr(counters, stage, getattr(counters, stage) + (n_workers - 1) * tensor.size)
    received = tensor.view()
    received.flags.writeable = False
    return received


def worker_spans(batch_size: int, workers: int, policy: str = "disjoint") -> tuple[slice, ...]:
    """Each worker's columns of a global batch of ``batch_size`` samples.

    ``disjoint`` hands out contiguous equal spans (batch size must divide);
    ``replicate`` gives every worker the full batch (test mode).
    """
    if policy not in SHARD_POLICIES:
        raise ArgumentError(f"unknown shard policy {policy!r}")
    if workers < 1:
        raise ArgumentError("worker count must be >= 1")
    if policy == "replicate":
        return (slice(0, batch_size),) * workers
    if batch_size % workers != 0:
        raise ArgumentError(f"batch of {batch_size} samples does not divide across "
                            f"{workers} workers")
    b = batch_size // workers
    return tuple(slice(p * b, (p + 1) * b) for p in range(workers))


# ---------------------------------------------------------------------------
# steps


@dataclass(frozen=True)
class StepResult:
    loss: float
    counters: StepCounters


def _where(worker: Optional[int], layer: int, t: int) -> str:
    """Where in a step something failed: ``worker p, layer i, iteration t``."""
    return f"{'' if worker is None else f'worker {worker}, '}layer {layer}, iteration {t}"


def _check_finite(update: Sequence[np.ndarray], t: int, what: str,
                  owners: Optional[Sequence[int]] = None):
    for i, g in enumerate(update):
        if not np.isfinite(g).all():
            worker = None if owners is None else owners[i]
            raise NumericError(f"{_where(worker, i, t)}: {what} is not finite")


# ---------------------------------------------------------------------------
# owner lanes (see the module docstring)

class _Lane(threading.Thread):
    """A daemon thread pinned to one CPU.  It runs its jobs in order and
    answers each with the exception it raised, or None, until :meth:`stop`."""

    def __init__(self, cpu: int):
        import queue
        super().__init__(name="kfaclab-lane", daemon=True)
        self.jobs, self.answers = queue.SimpleQueue(), queue.SimpleQueue()
        self.start()
        self.pin(cpu)

    def pin(self, cpu: int):
        os.sched_setaffinity(self.native_id, {cpu})
        self.cpu = cpu

    def stop(self):
        self.jobs.put(None)
        self.join()

    def run(self):
        for errstate, fn, args in iter(self.jobs.get, None):
            try:
                with np.errstate(**errstate):  # numpy keeps one per thread
                    fn(*args)
                self.answers.put(None)
            except BaseException as exc:  # the step raises it in layer order
                self.answers.put(exc)


@functools.cache
def _getcpu():
    """libc's ``sched_getcpu`` (Linux): the CPU the calling thread is on."""
    import ctypes
    return ctypes.CFUNCTYPE(ctypes.c_int)(("sched_getcpu", ctypes.CDLL(None)))


def start_lanes(n_workers: int) -> tuple[_Lane, ...]:
    """A run's ``min(n_workers, usable CPUs) - 1`` side lanes, on the usable
    CPUs after the first; the caller stops each (:meth:`_Lane.stop`)."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []  # Linux
    return tuple(_Lane(cpu) for cpu in cpus[1:n_workers])


def _side_lanes(lanes: Sequence[_Lane]) -> Sequence[_Lane]:
    """``lanes``, none left on the caller's current CPU; none in a forked child."""
    if not lanes or not lanes[0].is_alive():
        return ()
    here = _getcpu()()
    free = sorted(os.sched_getaffinity(0) - {here} - {lane.cpu for lane in lanes})
    for lane in lanes:
        if lane.cpu == here:
            lane.pin(free.pop())
    return lanes


def _precondition(
    cluster: Cluster,
    captures: list[np.ndarray],
    preact_grads: list[np.ndarray],
    spans: Sequence[slice],
    agg: list[np.ndarray],
    hyper: KfacHyper,
    counters: StepCounters,
    t: int,
    lanes: Sequence[_Lane],
) -> list[np.ndarray]:
    """K-FAC preconditioning of the aggregated gradients in the three passes
    the module docstring gives, with the algorithm's two decisions, the
    compute ledger and the lanes.  Builder p reads its span of the one
    pass's captures.  Only one layer's P raw factor pairs are alive at a
    time.  Each pass stops below the lowest failed layer, and the step
    raises that layer's first failure, as a layer-by-layer step would: a
    factor-build failure names the worker that built the factors, any later
    one the owner.

    A side lane gets its refreshes after the whole build pass, not right
    after its own layer's build.  Where lane 0 carries the longer refresh
    chain, as on every benchmark workload on two CPUs (layer 0, and layer 2
    where there is one, against layer 1), that costs nothing; a net whose
    side-lane refreshes outweigh lane 0's could lose up to the build time of
    the layers after them."""
    dp = cluster.algorithm == "dp_kfac"
    comm_opt = cluster.algorithm == "mpd_kfac_co"
    P, owners, n_layers = cluster.n_workers, cluster.owners, cluster.n_layers
    k_up = kfac.is_inverse_update(t, hyper)
    n_fs = [layer_counts(dims)[1] for dims in cluster.layer_dims()]
    factor_work, inverse_work = [0] * P, [0] * P
    failed: dict[int, tuple[BaseException, int]] = {}  # a layer's first failure and its worker

    if kfac.is_factor_update(t, hyper):
        try:
            for i in range(n_layers):
                raw = []
                for worker in (owners[i],) if dp else range(P):
                    raw.append(kfac.compute_factors(captures[i][:, spans[worker]],
                                                    preact_grads[i][:, spans[worker]]))
                    factor_work[worker] += n_fs[i]
                worker = owners[i]
                if dp:
                    a_new, g_new = raw[0]
                else:
                    a_new = all_reduce_avg([a for a, _ in raw], counters, "factorcomm")
                    g_new = all_reduce_avg([g for _, g in raw], counters, "factorcomm")
                kfac.update_running_average(cluster.factors[i], a_new, g_new, hyper.xi, t)
        except Exception as exc:
            failed[i] = exc, worker

    if k_up:
        lanes = _side_lanes(lanes)
        lane = [owner % (len(lanes) + 1) for owner in owners]
        limit = min(failed, default=n_layers)
        handed = [i for i in range(limit) if lane[i]]
        for i in handed:
            lanes[lane[i] - 1].jobs.put((np.geterr(), kfac.refresh_inverses,
                                         (cluster.factors[i], hyper, t)))
        try:
            for i in range(limit):
                inverse_work[owners[i]] += n_fs[i]
                if not lane[i]:
                    kfac.refresh_inverses(cluster.factors[i], hyper, t)
        except Exception as exc:
            failed[i] = exc, owners[i]
        finally:  # the step ends with every lane idle
            for i in handed:
                if (error := lanes[lane[i] - 1].answers.get()) is not None:
                    failed[i] = error, owners[i]

    update = []
    try:
        for i in range(min(failed, default=n_layers)):
            state = cluster.factors[i]
            pg = kfac.apply_preconditioner(state, agg[i], hyper)
            if not comm_opt:
                pg = broadcast(owners[i], pg, P, counters, "predcomm")
            elif k_up:
                for arr in kfac.decomposition_arrays(state).values():
                    broadcast(owners[i], arr, P, counters, "inversecomm")
            update.append(pg)
    except Exception as exc:
        failed[i] = exc, owners[i]
    if failed:
        exc, worker = failed[i := min(failed)]
        if isinstance(exc, KfacLabError):
            raise type(exc)(f"{_where(worker, i, t)}: {exc}") from exc
        raise exc
    counters.factorcomp = max(factor_work)
    counters.inversecomp = max(inverse_work)
    return update


def run_step(
    cluster: Cluster,
    batch: Batch,
    hyper: KfacHyper,
    lr: float,
    momentum: float,
    t: int,
    lanes: Sequence[_Lane] = (),
) -> StepResult:
    """One synchronous step over the global ``batch``: one forward and one
    backward over it that give each worker's span its local loss and
    gradients, the gradient all-reduce, the algorithm's preconditioning (none
    for ``ssgd``; refreshes run on ``lanes``), then one momentum-SGD update of
    the shared weights.  Returns the mean local loss and the step's own counters."""
    counters = StepCounters()
    # a diverging run overflows here; the finiteness checks report it as a
    # NumericError instead of numpy warnings followed by inf/nan weights
    with np.errstate(over="ignore", invalid="ignore"):
        spans = worker_spans(batch.size, cluster.n_workers, cluster.shard_policy)
        losses, captures = forward(cluster.net, batch, spans)
        for p, loss in enumerate(losses):
            if not np.isfinite(loss):
                raise NumericError(f"worker {p}, iteration {t}: training loss is {loss}")
        grads, preact_grads = backward(cluster.net, batch, captures, spans)
        # grads[p][i]: worker p's gradient of layer i
        update = [all_reduce_avg([g[i] for g in grads], counters, "gradcomm")
                  for i in range(cluster.n_layers)]
        _check_finite(update, t, "aggregated gradient")
        counters.gradcomp = sum(g.size for g in update)
        if cluster.algorithm != "ssgd":
            update = _precondition(cluster, captures, preact_grads, spans, update, hyper,
                                   counters, t, lanes)
            _check_finite(update, t, "preconditioned gradient", cluster.owners)
        sgd_step(cluster.net, update, lr, cluster.momentum, momentum)
    return StepResult(float(np.mean(losses)), counters)
