"""Run one algorithm of one benchmark workload in a fresh process.

Usage: python3 child.py SPEC_JSON OUT_JSON   (started by run.py)

The spec names the config file, its overrides, and whether to trace.  The
child imports kfaclab (timed), loads the config, trains through the public
``trainer.run_training`` with a row sink that stamps every row, writes the
final checkpoint, and only then runs its correctness checks, so the checks
cost neither measured time nor peak memory.  It writes timings, checks and
(when tracing) spans to OUT_JSON.

The four algorithms of a round run as four such processes that take turns
of about TURN_S, so each samples the whole measured window of a host whose
speed drifts within seconds.  The child announces itself with ``ready``,
then works only between a ``go`` line on stdin and its reply on stdout:
``step`` after the metrics row that ends a turn, ``saved`` once the
checkpoint is written, and exit after its checks.  Only one process computes
at a time.  A turn holds many short steps, so the one step per turn that
starts on caches the other processes used barely moves the median, and a
long step hardly notices the refill.
"""

import json
import resource
import sys
import time
from pathlib import Path

TURN_S = 0.1


def _wait_turn():
    if not sys.stdin.readline():
        sys.exit(3)  # run.py is gone


def _end_turn(message: str):
    sys.stdout.write(message + "\n")
    sys.stdout.flush()


def _first_call_time(module, attr: str) -> list:
    """Stamp the first call of ``module.attr`` and then unhook itself."""
    orig = getattr(module, attr)
    stamp: list = []

    def hook(*args, **kwargs):
        stamp.append(time.perf_counter())
        setattr(module, attr, orig)
        return orig(*args, **kwargs)

    setattr(module, attr, hook)
    return stamp


def _install_tracer(tracer, config, distsim, kfac, trainer, refresh_useful: list):
    # (binding module, attribute the callers look up, span name)
    for module, attr, name in (
        (trainer, "provision_dataset", "datasets.provision"),
        (trainer, "build_cluster", "distsim.build_cluster"),
        (trainer, "evaluate", "trainer.evaluate"),
        (trainer, "save_checkpoint", "trainer.save_checkpoint"),
        (trainer, "load_checkpoint", "trainer.load_checkpoint"),
        (config, "load_config", "config.load"),
        (distsim, "forward", "model.forward"),
        (distsim, "backward", "model.backward"),
        (distsim, "sgd_step", "model.sgd_step"),
        (distsim, "all_reduce_avg", "distsim.all_reduce"),
        (distsim, "broadcast", "distsim.broadcast"),
        (kfac, "compute_factors", "kfac.compute_factors"),
        (kfac, "update_running_average", "kfac.running_average"),
        (kfac, "apply_preconditioner", "kfac.precondition"),
        (kfac, "sym_eig", "numerics.sym_eig"),
        (kfac, "sym_inverse", "numerics.sym_inverse"),
    ):
        tracer.wrap(module, attr, name)
    tracer.wrap(trainer, "run_step", "distsim.run_step", step_arg=5)
    traced_refresh = tracer.wrap(kfac, "refresh_inverses", "kfac.refresh")

    def refresh(state, hyper, t):
        # useful when the factors changed since the decomposition was last built
        refresh_useful[0] += state.last_factor_update > state.last_inverse_update
        return traced_refresh(state, hyper, t)

    kfac.refresh_inverses = refresh


def _state_arrays(cluster) -> dict:
    """Every array and staleness stamp of a cluster, keyed by location."""
    out = {}
    for w in cluster.workers:
        for i, layer in enumerate(w.replica.layers):
            out[f"w{w.rank}/l{i}/weight"] = layer.weight
        for i, m in enumerate(w.momentum):
            out[f"w{w.rank}/l{i}/momentum"] = m
        for i, s in w.factors.items():
            p = f"w{w.rank}/l{i}/"
            out[p + "stamps"] = (s.initialized, s.last_factor_update, s.last_inverse_update)
            for name in ("a_cov", "g_cov", "a_damped_inv", "g_damped_inv"):
                out[p + name] = getattr(s, name)
            for name in ("a_eig", "g_eig"):
                pair = getattr(s, name)
                out[p + name] = None if pair is None else (pair.q, pair.values)
    return out


def _bit_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_bit_equal(x, y) for x, y in zip(a, b))
    if not hasattr(a, "tobytes"):
        return a == b
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    _end_turn("ready")
    _wait_turn()
    t0 = time.perf_counter()
    from kfaclab import config, costmodel, distsim, kfac, trainer
    import_s = time.perf_counter() - t0

    import harness

    tracer = harness.Tracer() if spec["trace"] else None
    refresh_useful = [0]
    if tracer is not None:
        _install_tracer(tracer, config, distsim, kfac, trainer, refresh_useful)
    first_step = _first_call_time(trainer, "run_step")

    t_cfg = time.perf_counter()
    cfg = config.load_config(spec["config"], spec["overrides"])
    step_s: list = []  # row-to-row intervals, without the turns of others
    rows: list = []
    turn_start = last = t0

    def sink(row):
        nonlocal turn_start, last
        now = time.perf_counter()
        if rows:
            step_s.append(now - last)
        rows.append(row)
        last = now
        if now - turn_start >= TURN_S:
            _end_turn("step")
            _wait_turn()
            turn_start = last = time.perf_counter()

    result = trainer.run_training(cfg, row_sink=sink)
    if tracer is not None:
        tracer.step = -1
    out_dir = Path(cfg.train.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "final.ckpt"
    trainer.save_checkpoint(ckpt_path, result.cluster, result.final_iteration, cfg.train.epochs)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _end_turn("saved")
    _wait_turn()

    # ---- correctness checks (outside the measured part) ----
    alg, workers = cfg.train.algorithm, cfg.train.workers
    hyper = cfg.hyper
    dims = [costmodel.LayerDims(*reversed(cfg.network.weight_shape(i)))
            for i in range(cfg.network.depth)]
    report = costmodel.algorithm_cost(dims, workers, alg, inv_type=hyper.inv_type)
    problems = harness.counter_problems(rows, report, hyper.f_freq, hyper.k_freq, alg)
    problems += harness.nonfinite_problems(rows)
    ckpt = trainer.load_checkpoint(ckpt_path)
    restored = distsim.build_cluster(cfg.network, alg, workers, seed=0)
    trainer.restore_cluster(restored, ckpt, cfg)
    want, got = _state_arrays(result.cluster), _state_arrays(restored)
    bad = [k for k in want if not _bit_equal(want[k], got.get(k))]
    if bad or ckpt.iteration != result.final_iteration:
        problems.append(f"checkpoint round trip differs at {bad[:3]} "
                        f"(iteration {ckpt.iteration} vs {result.final_iteration})")

    out = {
        "algorithm": alg,
        "workers": workers,
        "layers": cfg.network.depth,
        "import_s": import_s,
        "setup_s": import_s + (first_step[0] - t_cfg),
        "step_s": step_s,
        "peak_rss_kib": peak_rss_kib,
        "steps": len(rows),
        "final_eval_loss": rows[-1].eval_loss,
        "loss_digest": harness.loss_digest(rows),
        "problems": problems[:20],
    }
    if tracer is not None:
        out["trace"] = {
            "spans": tracer.spans,
            "comm_elems": [sum(getattr(r, s) for s in harness.COMM_STAGES) for r in rows],
            "refresh_useful": refresh_useful[0],
            "checkpoint_bytes": ckpt_path.stat().st_size,
        }
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
