"""Owner lanes (``distsim``'s module docstring): a refresh step's
decompositions on pinned threads.  Each check runs in a fresh process
with one BLAS thread, the only kind that starts lanes, except the last ones,
which check that a training run sets that one thread itself.  ``lanes_at(n)``
makes the step see n usable CPUs and folds the pins onto the real ones, so
any lane count runs on any host."""

import os

import pytest

from kfaclab import numerics
from test_footprint import _fresh

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or numerics.openblas("numpy")[0] is None,
    reason="lanes run only on Linux, over numpy's own OpenBLAS")

_PRELUDE = """
    import json, os, threading, time
    import numpy as np
    from kfaclab import distsim, kfac, numerics
    from kfaclab.distsim import build_cluster, run_step
    from kfaclab.errors import NumericError
    from kfaclab.kfac import KfacHyper
    from kfaclab.model import Batch, NetworkSpec

    real_cpus, real_pin = sorted(os.sched_getaffinity(0)), os.sched_setaffinity
    os.sched_setaffinity = lambda tid, cpus: real_pin(
        tid, {real_cpus[c % len(real_cpus)] for c in cpus})

    def lanes_at(n_cpus):
        os.sched_getaffinity = lambda pid: set(range(n_cpus))

    def batch(seed, d, B=48, classes=3):
        rng = np.random.default_rng(seed)
        return Batch(rng.standard_normal((d, B)), rng.integers(0, classes, size=B))
"""

# layer i's factors are (a, g) = (4, 5), (6, 7), (8, 3): a factor's side
# names its layer
_THREE = """
    SPEC = NetworkSpec((3, 5, 7, 3), bias_mode="homogeneous")
    real_eig = kfac.sym_eig

    def failing_eig(sides, before=lambda m: None):
        def eig(m):
            before(m)
            if m.shape[0] in sides:
                raise NumericError(f"eig of side {m.shape[0]} failed")
            return real_eig(m)
        kfac.sym_eig = eig

    def raised(cluster, t=0, inv_type="eigen"):
        try:
            run_step(cluster, batch(t, 3), KfacHyper(inv_type=inv_type), 0.05, 0.9, t)
        except NumericError as exc:
            return str(exc)
"""


def test_lanes_change_no_bit_and_no_count():
    got = _fresh(_PRELUDE, """
        import sys
        from kfaclab.kfac import state_arrays
        sys.setswitchinterval(1e-5)  # lanes and the caller interleave often
        spec = NetworkSpec((6, 7, 5, 8, 4, 9, 3, 6, 5, 3), bias_mode="homogeneous")

        def digest(alg, P, freqs, inv_type, n_cpus):
            lanes_at(n_cpus)
            cluster = build_cluster(spec, alg, P, seed=1)
            hyper = KfacHyper(f_freq=freqs[0], k_freq=freqs[1], inv_type=inv_type)
            out = [repr(run_step(cluster, batch(t, 6), hyper, 0.05, 0.9, t).counters)
                   for t in range(4)]
            out += [l.weight.tobytes().hex() for l in cluster.net.layers]
            out += [m.tobytes().hex() for m in cluster.momentum]
            for s in cluster.factors.values():
                out += [s.last_factor_update, s.last_inverse_update]
                out += [(k, a.tobytes().hex()) for k, a in sorted(state_arrays(s).items())]
            return out

        # (f_freq, k_freq) = (2, 1): steps 1 and 3 refresh without building
        mismatched = [(alg, P, freqs, inv)
                      for alg in ("mpd_kfac_co", "mpd_kfac_mo", "dp_kfac") for P in (2, 3, 4, 8)
                      for freqs in ((1, 1), (1, 2), (2, 1)) for inv in ("eigen", "inverse")
                      if digest(alg, P, freqs, inv, 8) != digest(alg, P, freqs, inv, 1)]
        print(json.dumps([mismatched, len(distsim._LANES), threading.active_count()]))
    """)
    # P = 8 on 8 CPUs: seven side lanes, each a thread of its own, more
    # threads than the host has CPUs
    assert got == [[], 7, 8]


def test_lowest_layer_failure_wins_over_a_side_lane_refresh():
    # on two CPUs layer 1 (owner 1) refreshes on the side lane, layers 0 and
    # 2 (owner 0) on the calling thread
    got = _fresh(_PRELUDE, _THREE, """
        lanes_at(2)
        real_build = kfac.compute_factors

        def build(a, g):
            if a.shape[0] == 8:
                raise NumericError("layer 2's factors failed")
            return real_build(a, g)

        out = []
        for sides, build_fails in (((7,), True), ((5, 7), False), ((7,), False)):
            kfac.compute_factors = build if build_fails else real_build
            failing_eig(sides)
            out.append(raised(build_cluster(SPEC, "dp_kfac", 2, seed=0)))
        layer_0_builds = []

        def second_builder_fails(a, g):  # MPD builds each layer at worker 0, then 1
            if a.shape[0] == 4:
                layer_0_builds.append(a)
                if len(layer_0_builds) == 2:
                    raise NumericError("worker 1's layer-0 factors failed")
            return real_build(a, g)

        kfac.compute_factors = second_builder_fails  # layer 1's refresh still fails
        out.append(raised(build_cluster(SPEC, "mpd_kfac_mo", 2, seed=0)))
        kfac.compute_factors, real_precondition = real_build, kfac.apply_preconditioner

        def precondition(state, grad, hyper):
            if state.a_cov.shape[0] == 4:
                raise NumericError("layer 0's preconditioning failed")
            return real_precondition(state, grad, hyper)

        kfac.apply_preconditioner = precondition
        out.append(raised(build_cluster(SPEC, "dp_kfac", 2, seed=0)))
        kfac.apply_preconditioner, real_inverse = real_precondition, kfac.sym_inverse
        on_main = []  # where layer 1's Cholesky refresh ran
        for sides in ((5, 7), (7,)):  # LAPACK finds these sides not positive definite
            def inverse(m, sides=sides):
                if m.shape[0] == 7:
                    on_main.append(threading.current_thread() is threading.main_thread())
                return real_inverse(-m if m.shape[0] in sides else m)
            kfac.sym_inverse = inverse
            out.append(raised(build_cluster(SPEC, "dp_kfac", 2, seed=0), inv_type="inverse"))
        print(json.dumps([out, on_main, len(distsim._LANES)]))
    """)
    not_pd = ("damped gradient factor G is not invertible: "
              "Cholesky inversion failed for a {0}x{0} matrix (not positive definite?)")
    assert got == [["worker 1, layer 1, iteration 0: eig of side 7 failed",
                    "worker 0, layer 0, iteration 0: eig of side 5 failed",
                    "worker 1, layer 1, iteration 0: eig of side 7 failed",
                    "worker 1, layer 0, iteration 0: worker 1's layer-0 factors failed",
                    "worker 0, layer 0, iteration 0: layer 0's preconditioning failed",
                    "worker 0, layer 0, iteration 0: " + not_pd.format(5),
                    "worker 1, layer 1, iteration 0: " + not_pd.format(7)], [False, False], 1]


def test_a_raising_step_returns_with_every_lane_idle():
    got = _fresh(_PRELUDE, _THREE, """
        lanes_at(2)
        finished = []

        def slow_side(m):  # layer 1's refresh, on the side lane
            if m.shape[0] in (6, 7):
                time.sleep(0.3)
                finished.append(m.shape[0])

        failing_eig((5,), before=slow_side)
        message = raised(build_cluster(SPEC, "mpd_kfac_mo", 2, seed=0))
        print(json.dumps([message, finished, len(distsim._LANES)]))
    """)
    assert got == ["worker 0, layer 0, iteration 0: eig of side 5 failed", [6, 7], 1]


def test_a_side_lane_overflow_warns_of_nothing():
    # run_step ignores overflow; a lane must too, and pytest's filter would
    # turn the warning into an error
    got = _fresh(_PRELUDE, _THREE, """
        import warnings
        warnings.simplefilter("error", RuntimeWarning)
        lanes_at(2)
        where = []

        def overflowing(m):
            if m.shape[0] == 7:
                where.append(threading.current_thread() is threading.main_thread())
                np.float64(1e308) * 10
        failing_eig((), before=overflowing)
        print(json.dumps([raised(build_cluster(SPEC, "dp_kfac", 2, seed=0)), where]))
    """)
    assert got == [None, [False]]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_child_forked_after_a_laned_step_can_step():
    got = _fresh(_PRELUDE, _THREE, """
        lanes_at(2)
        cluster = build_cluster(SPEC, "dp_kfac", 2, seed=0)
        run_step(cluster, batch(0, 3), KfacHyper(), 0.05, 0.9, 0)
        assert len(distsim._LANES) == 1
        pid = os.fork()
        if pid == 0:
            run_step(cluster, batch(1, 3), KfacHyper(), 0.05, 0.9, 1)
            os._exit(0 if len(distsim._LANES) == 1 else 1)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        print(json.dumps(None if done[0] == 0 else os.waitstatus_to_exitcode(done[1])))
    """)
    assert got == 0


_TRAIN = """
    from kfaclab import config, trainer
    lanes_at(8)
    cfg = config.load_config({config!r}, {overrides!r})
    trainer.run_training(cfg)
    print(json.dumps([len(distsim._LANES), threading.active_count()]))
"""
_BUNDLED = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "blobs_dp_kfac.ini")


@pytest.mark.parametrize("overrides", [
    {"train.algorithm": "ssgd"},
    {"train.workers": "1"},  # one owner: no side lane
])
def test_runs_that_cannot_use_lanes_start_no_thread(overrides):
    overrides = {"data.samples": "600", "train.epochs": "1", "train.workers": "4", **overrides}
    assert _fresh(_PRELUDE, _TRAIN.format(config=_BUNDLED, overrides=overrides)) == [0, 1]


_MULTITHREADED = pytest.mark.skipif((os.cpu_count() or 1) < 2,
                                    reason="one CPU: OpenBLAS runs one thread")


@_MULTITHREADED
def test_a_multithreaded_blas_starts_no_lane():
    # a library caller of run_step keeps its own BLAS threads, and no lane
    got = _fresh(_PRELUDE, _THREE, """
        lanes_at(8)
        cluster = build_cluster(SPEC, "dp_kfac", 4, seed=0)
        for t in range(3):
            run_step(cluster, batch(t, 3), KfacHyper(), 0.05, 0.9, t)
        print(json.dumps([numerics.openblas("numpy")[0](), len(distsim._LANES),
                          threading.active_count()]))
    """, blas_threads=None)
    assert got[0] > 1 and got[1:] == [0, 1]


@_MULTITHREADED
def test_a_run_steps_on_one_blas_thread_and_restores_the_callers_count():
    got = _fresh(_PRELUDE, """
        from kfaclab import config, trainer
        lanes_at(8)
        threads, set_threads = numerics.openblas("numpy")[:2]
        cfg = config.load_config({config!r}, {overrides!r})
        seen = [threads()]

        def failing(row):
            seen.append(threads())
            raise KeyboardInterrupt

        trainer.run_training(cfg, row_sink=lambda row: seen.append(threads()))
        seen.append(threads())
        set_threads(2)
        try:
            trainer.run_training(cfg, row_sink=failing)
        except KeyboardInterrupt:
            seen.append(threads())
        print(json.dumps([seen[0], sorted(set(seen[1:-3])), seen[-3:], len(distsim._LANES)]))
    """.format(config=_BUNDLED, overrides={"data.samples": "600", "train.epochs": "1",
                                             "train.workers": "4"}), blas_threads=None)
    caller, during, after, lanes = got
    # the steps ran on one thread and started the lanes; each exit restored
    # the caller's count, also after a run the row sink interrupted
    assert caller > 1 and during == [1] and after == [caller, 1, 2] and lanes == 3


_WIDE_RUN = """
    import hashlib
    from kfaclab import cli
    digests = []
    for algorithm, inv_type in (("ssgd", "eigen"), ("dp_kfac", "eigen"), ("dp_kfac", "inverse")):
        out = os.path.join({tmp!r}, "{threads}", algorithm + inv_type)
        assert cli.main(["train", {config!r}, "--out-dir", out, "--train.workers=4",
                         "--train.algorithm=" + algorithm, "--network.layer_dims=64,192,192,10",
                         "--hyper.inv_type=" + inv_type, "--data.samples=1200",
                         "--train.epochs=1"]) == 0
        digests += [hashlib.sha256(open(os.path.join(out, name), "rb").read()).hexdigest()
                    for name in ("metrics.csv", "final.ckpt")]
    print(json.dumps(digests))
"""


@_MULTITHREADED
def test_a_wide_run_gives_the_same_bytes_under_any_blas_thread_setting(tmp_path):
    # 8 steps of a 192-wide net: wide enough that OpenBLAS splits its
    # products over threads, and so sums them in another order
    digests = {threads: _fresh(_PRELUDE, _WIDE_RUN.format(tmp=str(tmp_path), threads=threads,
                                                          config=_BUNDLED),
                               blas_threads=threads)
               for threads in (None, "1", "2")}
    assert digests[None] == digests["1"] == digests["2"]
