"""Owner lanes (``distsim``'s module docstring): a refresh step's
decompositions on pinned threads.  Each check runs in a fresh process with
one BLAS thread, except the last ones, which check that a training run sets
that one thread itself.  A check of the step starts its lanes with
``started(P)``, which stops them on leaving; a training run starts and stops
its own.  ``lanes_at(n)`` makes the lanes see n usable CPUs and folds the
pins onto the real ones, so any lane count runs on any host."""

import os

import pytest

from kfaclab import numerics
from test_footprint import _fresh

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or numerics.openblas("numpy")[0] is None,
    reason="lanes run only on Linux, over numpy's own OpenBLAS")

_PRELUDE = """
    import contextlib, json, os, threading, time
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

    @contextlib.contextmanager
    def started(P):
        lanes = distsim.start_lanes(P)
        try:
            yield lanes
        finally:
            for lane in lanes:
                lane.stop()

    def lane_threads():
        return sum(thread.name == "kfaclab-lane" for thread in threading.enumerate())

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

    def raised(cluster, lanes, t=0, inv_type="eigen"):
        try:
            run_step(cluster, batch(t, 3), KfacHyper(inv_type=inv_type), 0.05, 0.9, t, lanes)
        except NumericError as exc:
            return str(exc)
"""


def test_lanes_change_no_bit_and_no_count():
    got = _fresh(_PRELUDE, """
        import sys
        from kfaclab.kfac import state_arrays
        sys.setswitchinterval(1e-5)  # lanes and the caller interleave often
        spec = NetworkSpec((6, 7, 5, 8, 4, 9, 3, 6, 5, 3), bias_mode="homogeneous")

        made = set()  # (usable CPUs, P, lanes made, threads beside the caller)

        def digest(alg, P, freqs, inv_type, n_cpus):
            lanes_at(n_cpus)
            cluster = build_cluster(spec, alg, P, seed=1)
            hyper = KfacHyper(f_freq=freqs[0], k_freq=freqs[1], inv_type=inv_type)
            with started(P) as lanes:
                out = [repr(run_step(cluster, batch(t, 6), hyper, 0.05, 0.9, t, lanes).counters)
                       for t in range(4)]
                made.add((n_cpus, P, len(lanes), threading.active_count() - 1))
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
        print(json.dumps([mismatched, sorted(made), threading.active_count()]))
    """)
    # P = 8 on 8 CPUs: seven side lanes, each a thread of its own, more
    # threads than the host has CPUs; one CPU: none.  Every lane stopped.
    mismatched, made, threads = got
    assert mismatched == [] and threads == 1
    Ps = (2, 3, 4, 8)
    assert made == [[1, P, 0, 0] for P in Ps] + [[8, P, P - 1, P - 1] for P in Ps]


def test_lowest_layer_failure_wins_over_a_side_lane_refresh():
    # on two CPUs layer 1 (owner 1) refreshes on the side lane, layers 0 and
    # 2 (owner 0) on the calling thread
    got = _fresh(_PRELUDE, _THREE, """
        lanes_at(2)
        lanes = distsim.start_lanes(2)
        real_build = kfac.compute_factors

        def build(a, g):
            if a.shape[0] == 8:
                raise NumericError("layer 2's factors failed")
            return real_build(a, g)

        out = []
        for sides, build_fails in (((7,), True), ((5, 7), False), ((7,), False)):
            kfac.compute_factors = build if build_fails else real_build
            failing_eig(sides)
            out.append(raised(build_cluster(SPEC, "dp_kfac", 2, seed=0), lanes))
        layer_0_builds = []

        def second_builder_fails(a, g):  # MPD builds each layer at worker 0, then 1
            if a.shape[0] == 4:
                layer_0_builds.append(a)
                if len(layer_0_builds) == 2:
                    raise NumericError("worker 1's layer-0 factors failed")
            return real_build(a, g)

        kfac.compute_factors = second_builder_fails  # layer 1's refresh still fails
        out.append(raised(build_cluster(SPEC, "mpd_kfac_mo", 2, seed=0), lanes))
        kfac.compute_factors, real_precondition = real_build, kfac.apply_preconditioner

        def precondition(state, grad, hyper):
            if state.a_cov.shape[0] == 4:
                raise NumericError("layer 0's preconditioning failed")
            return real_precondition(state, grad, hyper)

        kfac.apply_preconditioner = precondition
        out.append(raised(build_cluster(SPEC, "dp_kfac", 2, seed=0), lanes))
        kfac.apply_preconditioner, real_inverse = real_precondition, kfac.sym_inverse
        on_main = []  # where layer 1's Cholesky refresh ran
        for sides in ((5, 7), (7,)):  # LAPACK finds these sides not positive definite
            def inverse(m, sides=sides):
                if m.shape[0] == 7:
                    on_main.append(threading.current_thread() is threading.main_thread())
                return real_inverse(-m if m.shape[0] in sides else m)
            kfac.sym_inverse = inverse
            out.append(raised(build_cluster(SPEC, "dp_kfac", 2, seed=0), lanes,
                              inv_type="inverse"))
        for lane in lanes:
            lane.stop()
        print(json.dumps([out, on_main, len(lanes), lane_threads()]))
    """)
    not_pd = ("damped gradient factor G is not invertible: "
              "Cholesky inversion failed for a {0}x{0} matrix (not positive definite?)")
    assert got == [["worker 1, layer 1, iteration 0: eig of side 7 failed",
                    "worker 0, layer 0, iteration 0: eig of side 5 failed",
                    "worker 1, layer 1, iteration 0: eig of side 7 failed",
                    "worker 1, layer 0, iteration 0: worker 1's layer-0 factors failed",
                    "worker 0, layer 0, iteration 0: layer 0's preconditioning failed",
                    "worker 0, layer 0, iteration 0: " + not_pd.format(5),
                    "worker 1, layer 1, iteration 0: " + not_pd.format(7)], [False, False], 1, 0]


def test_a_raising_step_returns_with_every_lane_idle():
    got = _fresh(_PRELUDE, _THREE, """
        lanes_at(2)
        finished = []

        def slow_side(m):  # layer 1's refresh, on the side lane
            if m.shape[0] in (6, 7):
                time.sleep(0.3)
                finished.append(m.shape[0])

        failing_eig((5,), before=slow_side)
        with started(2) as lanes:  # read before stop() waits for the lane
            message = raised(build_cluster(SPEC, "mpd_kfac_mo", 2, seed=0), lanes)
            print(json.dumps([message, finished, len(lanes)]))
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
        with started(2) as lanes:
            print(json.dumps([raised(build_cluster(SPEC, "dp_kfac", 2, seed=0), lanes), where]))
    """)
    assert got == [None, [False]]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_child_forked_after_a_laned_step_can_step():
    got = _fresh(_PRELUDE, _THREE, """
        lanes_at(2)
        cluster = build_cluster(SPEC, "dp_kfac", 2, seed=0)
        with started(2) as lanes:
            run_step(cluster, batch(0, 3), KfacHyper(), 0.05, 0.9, 0, lanes)
            assert lane_threads() == 1
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child steps with its parent's lanes, which it lacks
                real_refresh, on_main = kfac.refresh_inverses, []

                def refresh(state, hyper, t):
                    on_main.append(threading.current_thread() is threading.main_thread())
                    return real_refresh(state, hyper, t)

                kfac.refresh_inverses = refresh
                try:
                    run_step(cluster, batch(1, 3), KfacHyper(), 0.05, 0.9, 1, lanes)
                    os.write(write_end, json.dumps([on_main, threading.active_count()]).encode())
                finally:
                    os._exit(0)
            os.close(write_end)
            deadline = time.monotonic() + 60
            while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            if done[0] == 0:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
            child = os.read(read_end, 1 << 16).decode()
        print(json.dumps([None if done[0] == 0 else os.waitstatus_to_exitcode(done[1]),
                          child and json.loads(child)]))
    """)
    # every refresh of the child's step ran on its main thread, its only one
    assert got == [0, [[True, True, True], 1]]


_TRAIN = """
    from kfaclab import config, trainer
    lanes_at(8)
    cfg = config.load_config({config!r}, {overrides!r})
    seen = []
    trainer.run_training(cfg, row_sink=lambda row: seen.append(lane_threads()))
    print(json.dumps([sorted(set(seen)), threading.active_count()]))
"""
_BUNDLED = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "blobs_dp_kfac.ini")


@pytest.mark.parametrize("overrides", [
    {"train.algorithm": "ssgd"},
    {"train.workers": "1"},  # one owner: no side lane
])
def test_runs_that_cannot_use_lanes_start_no_thread(overrides):
    overrides = {"data.samples": "600", "train.epochs": "1", "train.workers": "4", **overrides}
    assert _fresh(_PRELUDE, _TRAIN.format(config=_BUNDLED, overrides=overrides)) == [[0], 1]


_MULTITHREADED = pytest.mark.skipif((os.cpu_count() or 1) < 2,
                                    reason="one CPU: OpenBLAS runs one thread")


@_MULTITHREADED
@pytest.mark.parametrize("blas_threads", [None, "1"])
def test_a_multithreaded_blas_starts_no_lane(blas_threads):
    # a library caller of run_step keeps its own BLAS threads, and a step
    # handed no lanes starts none, under any BLAS thread count
    got = _fresh(_PRELUDE, _THREE, """
        lanes_at(8)
        cluster = build_cluster(SPEC, "dp_kfac", 4, seed=0)
        for t in range(3):
            run_step(cluster, batch(t, 3), KfacHyper(), 0.05, 0.9, t)
        print(json.dumps([numerics.openblas("numpy")[0](), threading.active_count()]))
    """, blas_threads=blas_threads)
    assert (got[0] == 1 if blas_threads else got[0] > 1) and got[1] == 1


@_MULTITHREADED
def test_a_run_steps_on_one_blas_thread_and_restores_the_callers_count():
    overrides = {"data.samples": "600", "train.epochs": "1", "train.workers": "4"}
    got = _fresh(_PRELUDE, """
        from kfaclab import config, trainer
        lanes_at(8)
        threads, set_threads = numerics.openblas("numpy")[:2]
        cfg = config.load_config({config!r}, {overrides!r})
        diverging = config.load_config({config!r}, {diverging!r})
        caller, rows, after = threads(), set(), []

        def sink(row):
            rows.add((threads(), lane_threads()))

        def failing(row):
            sink(row)
            raise KeyboardInterrupt

        trainer.run_training(cfg, row_sink=sink)
        after.append([threads(), lane_threads()])
        set_threads(2)
        try:
            trainer.run_training(cfg, row_sink=failing)
        except KeyboardInterrupt:
            after.append([threads(), lane_threads()])
        try:
            trainer.run_training(diverging, row_sink=sink)
        except NumericError:
            after.append([threads(), lane_threads()])
        print(json.dumps([caller, sorted(rows), after]))
    """.format(config=_BUNDLED, overrides=overrides,
               diverging={**overrides, "hyper.lr": "1e300", "network.activation": "identity"}),
        blas_threads=None)
    caller, during, after = got
    # the steps ran on one thread and on the run's three lanes; each exit
    # stopped the lanes and restored the caller's count, also after a run the
    # row sink interrupted and after a run that diverged
    assert caller > 1 and during == [[1, 3]] and after == [[caller, 0], [2, 0], [2, 0]]


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
