"""Pure helpers shared by run.py, its per-algorithm child
process and the self-tests: percentiles, span self time, the per-row counter
gate, per-layer metric reduction and the environment record.

Nothing here imports kfaclab, so run.py can load it before it has
checked that the package sources exist.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

ALGORITHMS = ("ssgd", "mpd_kfac_co", "mpd_kfac_mo", "dp_kfac")

# stages that fire only on factor-refresh / decomposition-refresh iterations;
# every other stage fires on every iteration
FACTOR_STAGES = ("factorcomp", "factorcomm")
INVERSE_STAGES = ("inversecomp", "inversecomm")
EVERY_STEP_STAGES = ("gradcomp", "gradcomm", "predcomm")
COMM_STAGES = ("gradcomm", "factorcomm", "predcomm", "inversecomm")

# a tail percentile is reported only when at least this many samples lie beyond it
MIN_TAIL_SAMPLES = 10

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(samples: Sequence[float], q: float = 0.9) -> float:
    """Nearest-rank ``q`` quantile, refused unless MIN_TAIL_SAMPLES samples
    lie strictly beyond its rank (so p90 needs at least 100 samples)."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{round(q * 100)} of {n} samples leaves {max(n - rank, 0)} beyond it; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return sorted(samples)[rank - 1]


# ---------------------------------------------------------------------------
# spans


@dataclass
class Tracer:
    """In-memory span recorder.  A span is ``[name, start, end, parent, step]``
    where ``parent`` indexes the enclosing span (-1 at top level) and ``step``
    is the training iteration the span ran in (-1 outside the step loop)."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    step: int = -1

    def wrap(self, module, attr: str, name: str,
             step_arg: int | None = None) -> Callable:
        """Replace ``module.attr`` with a recording wrapper; ``step_arg`` names
        the positional argument that carries the iteration number."""
        fn = getattr(module, attr)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if step_arg is not None:
                self.step = args[step_arg]
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.step]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        setattr(module, attr, traced)
        return traced


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of it covered by its direct
    children (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, step in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, step) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# correctness gates


def counter_problems(rows, report, f_freq: int, k_freq: int, algorithm: str) -> list[str]:
    """Compare every metrics row's element counters with the analytic report.

    On an iteration where factors (decompositions) are refreshed the factor
    (inverse) stages must equal the report; on other iterations they must be
    zero.  DP-KFAC must never communicate factors.
    """
    problems = []
    for row in rows:
        t = row.iteration
        expected = {s: getattr(report, s) for s in EVERY_STEP_STAGES}
        for s in FACTOR_STAGES:
            expected[s] = getattr(report, s) if t % f_freq == 0 else 0
        for s in INVERSE_STAGES:
            expected[s] = getattr(report, s) if t % k_freq == 0 else 0
        for stage, want in expected.items():
            got = getattr(row, stage)
            if got != want:
                problems.append(f"iteration {t}: {stage} {got} != analytic {want}")
        if algorithm == "dp_kfac" and row.factorcomm != 0:
            problems.append(f"iteration {t}: dp_kfac factorcomm {row.factorcomm} != 0")
    return problems


def nonfinite_problems(rows) -> list[str]:
    problems = []
    for row in rows:
        for col in ("train_loss", "eval_loss"):
            v = getattr(row, col)
            if v is not None and not math.isfinite(v):
                problems.append(f"iteration {row.iteration}: {col} is {v}")
    return problems


def loss_digest(rows) -> str:
    """Digest of the exact train/eval loss columns (repr keeps every bit)."""
    h = hashlib.sha256()
    for row in rows:
        h.update(f"{row.train_loss!r},{row.eval_loss!r}\n".encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# per-layer reduction of one traced algorithm run

# spans reported as ``<name>_ms``: self time, mean per timed step
STEP_SPANS = (
    "model.forward", "model.backward", "model.sgd_step",
    "distsim.all_reduce", "distsim.broadcast",
    "kfac.compute_factors", "kfac.running_average", "kfac.refresh", "kfac.precondition",
    "numerics.sym_eig", "numerics.sym_inverse",
)
# spans that also report ``<name>_calls``, mean per timed step
PER_STEP_CALLS = (
    "model.sgd_step", "distsim.all_reduce", "distsim.broadcast",
    "kfac.refresh", "kfac.precondition", "numerics.sym_eig", "numerics.sym_inverse",
)
KFAC_ONLY = ("kfac.", "numerics.")
# traced once per run (not per step); summed over the run
PER_RUN_SPANS = {
    "distsim.build_cluster": "distsim.build_cluster_ms",
    "trainer.save_checkpoint": "trainer.save_checkpoint_ms",
    "trainer.load_checkpoint": "trainer.load_checkpoint_ms",
}


def expected_spans(algorithm: str, inv_type: str) -> list[str]:
    """Spans that must record at least one call in a traced run."""
    names = ["model.forward", "model.backward", "model.sgd_step",
             "distsim.run_step", "distsim.all_reduce", "distsim.build_cluster",
             "datasets.provision", "config.load", "trainer.evaluate",
             "trainer.save_checkpoint", "trainer.load_checkpoint"]
    if algorithm != "ssgd":
        names += ["distsim.broadcast", "kfac.compute_factors", "kfac.running_average",
                  "kfac.refresh", "kfac.precondition",
                  "numerics.sym_eig" if inv_type == "eigen" else "numerics.sym_inverse"]
    return names


def layer_metrics(trace: dict, step_s: Sequence[float], algorithm: str) -> dict[str, float]:
    """Per-layer metrics of one traced algorithm run.

    ``trace`` carries ``spans``, the per-row communication element totals
    ``comm_elems``, ``refresh_useful`` and ``checkpoint_bytes``; ``step_s``
    holds the time of every step after step 0, which is excluded from
    per-step means because it carries the first decomposition.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    n_timed = len(step_s)
    if n_timed < 1:
        raise ValueError("a traced run needs at least two steps")
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    run_ms: dict[str, float] = {}
    all_calls: dict[str, int] = {}
    step_span_ms: dict[int, float] = {}
    eval_ms: list[float] = []
    for span, self_s in zip(spans, selfs):
        name, start, end, parent, step = span
        all_calls[name] = all_calls.get(name, 0) + 1
        if name in PER_RUN_SPANS:
            run_ms[name] = run_ms.get(name, 0.0) + 1e3 * (end - start)
        if name == "trainer.evaluate":
            eval_ms.append(1e3 * self_s)
        if step < 1:
            continue
        if name in ("distsim.run_step", "trainer.evaluate"):
            step_span_ms[step] = step_span_ms.get(step, 0.0) + 1e3 * (end - start)
        ms[name] = ms.get(name, 0.0) + 1e3 * self_s
        calls[name] = calls.get(name, 0) + 1

    out = {}
    for name in STEP_SPANS:
        if algorithm == "ssgd" and name.startswith(KFAC_ONLY):
            continue
        out[f"{name}_ms"] = ms.get(name, 0.0) / n_timed
        if name in PER_STEP_CALLS:
            out[f"{name}_calls"] = calls.get(name, 0) / n_timed
    out["distsim.step_self_ms"] = ms.get("distsim.run_step", 0.0) / n_timed
    out["distsim.comm_elems"] = sum(trace["comm_elems"][1:]) / n_timed
    loop = [1e3 * dt - step_span_ms.get(t, 0.0) for t, dt in enumerate(step_s, start=1)]
    out["trainer.loop_self_ms"] = sum(loop) / n_timed
    out["trainer.evaluate_ms"] = sum(eval_ms) / len(eval_ms) if eval_ms else 0.0
    for span_name, metric in PER_RUN_SPANS.items():
        out[metric] = run_ms.get(span_name, 0.0)
    out["trainer.checkpoint_mib"] = trace["checkpoint_bytes"] / 2 ** 20
    if algorithm != "ssgd":
        refreshes = all_calls.get("kfac.refresh", 0)
        out["kfac.refresh_useful_ratio"] = trace["refresh_useful"] / refreshes if refreshes else 0.0
    return dict(sorted(out.items()))


def metric_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mib", "MiB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def missing_spans(trace: dict, algorithm: str, inv_type: str) -> list[str]:
    seen = {span[0] for span in trace["spans"]}
    return [n for n in expected_spans(algorithm, inv_type) if n not in seen]


# ---------------------------------------------------------------------------
# environment record


def environment() -> dict:
    """Machine, interpreter, numeric-library and thread settings of a run."""
    import numpy
    import scipy

    def blas(cfg):
        deps = cfg.get("Build Dependencies", {})
        return {k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack")
                if k in deps}

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }
