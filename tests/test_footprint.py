"""What a process pays for: each check runs in a fresh interpreter, because
imports and allocator state are per process and the pytest process's own
would hide them."""

import json
import os
import platform
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import kfaclab
from kfaclab.costmodel import STAGES, layer_counts, resolve_manifest, totals

SRC = Path(kfaclab.__file__).resolve().parent.parent
BUNDLED = SRC.parent / "configs" / "blobs_dp_kfac.ini"


def _fresh(*code: str, address_space: int | None = None, default_blas: bool = False):
    """Run the ``code`` blocks in order in a new interpreter with one BLAS
    thread (with the BLAS's own default if ``default_blas``), its address
    space capped at ``address_space`` bytes if given; returns the JSON value
    of its last output line."""
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if not (default_blas and k in threads)}
    env.update({} if default_blas else dict.fromkeys(threads, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def cap():
        if address_space is not None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    done = subprocess.run([sys.executable, "-c", "\n".join(map(textwrap.dedent, code))], env=env,
                          capture_output=True, text=True, timeout=300, preexec_fn=cap)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_SCIPY_LOADED = """
    import json, sys
    print(json.dumps(sorted(n for n in sys.modules if n.split(".")[0] == "scipy")))
"""


def test_importing_every_module_loads_no_scipy():
    loaded = _fresh("""
        import importlib, pkgutil, sys
        import kfaclab
        for m in pkgutil.iter_modules(kfaclab.__path__):
            importlib.import_module(f"kfaclab.{m.name}")
        assert "kfaclab.cli" in sys.modules and "kfaclab.verify" in sys.modules
    """, _SCIPY_LOADED)
    assert loaded == []


@pytest.mark.parametrize("algorithm, inv_type, loads_scipy", [
    ("dp_kfac", "eigen", False),
    ("ssgd", "eigen", False),
    ("dp_kfac", "inverse", True),
])
def test_scipy_is_loaded_only_by_a_cholesky_refresh(algorithm, inv_type, loads_scipy):
    # 540 training samples in batches of 128: four steps, each refreshing
    loaded = _fresh(f"""
        from kfaclab import config, trainer
        cfg = config.load_config({str(BUNDLED)!r}, {{
            "train.algorithm": {algorithm!r}, "hyper.inv_type": {inv_type!r},
            "data.samples": "600", "train.epochs": "1"}})
        assert trainer.run_training(cfg).final_iteration == 4
    """, _SCIPY_LOADED)
    # the LAPACK extension alone: not the scipy or scipy.linalg packages
    assert loaded == (["scipy.linalg._flapack"] if loads_scipy else [])


def test_lapack_extension_is_the_one_scipy_linalg_imports_later():
    """After a ``sym_inverse`` call, ``import scipy.linalg`` reuses the
    extension ``numerics`` loaded: the same routines, and the same bits as
    a ``sym_inverse`` written on the scipy wrappers."""
    mismatched = _fresh("""
        import json
        import numpy as np
        from kfaclab import numerics
        numerics.sym_inverse(np.eye(2))
        import scipy.linalg.lapack as lapack
        assert numerics._lapack().dpotrf is lapack.dpotrf
        assert numerics._lapack().dpotri is lapack.dpotri

        def wrapper_inverse(m):
            chol, info = lapack.dpotrf(np.array(m).T, lower=0, clean=0, overwrite_a=1)
            inv_t, info = lapack.dpotri(chol, lower=0, overwrite_c=1)
            inv = inv_t.T
            np.copyto(inv, inv.T, where=np.triu(np.ones(m.shape, dtype=bool), 1))
            return inv

        rng = np.random.default_rng(0)
        mismatched = []
        for n in (1, 10, 64, 65, 192, 193):
            x = rng.standard_normal((n, 2 * n))
            m = x @ x.T / (2 * n) + 0.01 * np.eye(n)
            if numerics.sym_inverse(m).tobytes() != wrapper_inverse(m).tobytes():
                mismatched.append(n)
        print(json.dumps(mismatched))
    """)
    assert mismatched == []


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="glibc's dynamic mmap threshold is what this guards")
def test_steady_state_steps_do_not_fault_fresh_pages():
    """Guards the explicit warm-up in ``distsim.build_cluster``.  A 192-wide
    layer's gradient (193 x 192 float64, 296 KiB) lies above glibc's initial
    128 KiB mmap threshold, which rises only when a larger mmapped block is
    freed.  The data set is built in place, with no such block, so the
    cluster frees one of 16 MiB before the first step.  Without it every
    gradient is mmapped and unmapped afresh each step: about 1100 faults per
    step, and the S-SGD step takes 1.5-1.8 times as long."""
    assert _steady_state_faults({"train.algorithm": "ssgd"}) <= 10


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="glibc's dynamic mmap threshold is what this guards")
def test_steady_state_block_pass_steps_do_not_fault_fresh_pages():
    """The same guard of the warm-up for the widest captures a step
    allocates: one pass over 8 workers' shards of 32 makes B = 256 wide
    captures (193 x 256 float64, 386 KiB), next to DP-KFAC's factor builds
    and refreshes.  Without the warm-up: about 50-70 faults per step."""
    assert _steady_state_faults({"train.algorithm": "dp_kfac", "train.workers": "8",
                                 "train.batch_size": "256"}) <= 10


def _steady_state_faults(overrides: dict) -> float:
    """Median minor page faults per step after the first ten steps of one
    epoch of the bundled config with 192-wide layers."""
    overrides = {"network.layer_dims": "192,192,192,10", "data.dim": "192",
                 "data.samples": "14600", "train.epochs": "1", **overrides}
    return _fresh(f"""
        import json, resource, statistics
        from kfaclab import config, trainer
        cfg = config.load_config({str(BUNDLED)!r}, {overrides!r})
        stamps = []
        trainer.run_training(cfg, row_sink=lambda row: stamps.append(
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
        steady = [b - a for a, b in zip(stamps[10:], stamps[11:])]
        print(json.dumps(statistics.median(steady)))
    """)


def test_forward_leaves_only_the_captures_alive():
    """After ``forward`` on a 192-192-192-10 net over 256 columns, what is
    alive is what the step reads: the three layer inputs (193 x 256 with the
    bias row), the 10 x 256 network output and the loss.  A hidden
    pre-activation kept past the pass is 384 KiB more."""
    live = _fresh("""
        import json, tracemalloc
        import numpy as np
        from kfaclab.model import Batch, NetworkSpec, forward, init_network
        net = init_network(NetworkSpec((192, 192, 192, 10), bias_mode="homogeneous"), seed=0)
        rng = np.random.default_rng(0)
        batch = Batch(rng.standard_normal((192, 256)), rng.integers(0, 10, size=256))
        tracemalloc.start()
        loss, captures = forward(net, batch)
        print(json.dumps(tracemalloc.get_traced_memory()[0]))
    """)
    assert live <= (3 * 193 + 10) * 256 * 8 + 64 * 1024


# A cost report is linear in the layer count whatever the worker count.  The
# cap makes a regression to per-worker work end in a MemoryError at once
# instead of filling the machine's memory.
_ONE_GIB = 1 << 30


def test_cost_model_at_a_huge_worker_count_is_the_formula():
    # every one of ResNet-50's 54 layers on a worker of its own
    P = 10**20
    reports = _fresh(f"""
        import dataclasses, json
        from kfaclab import costmodel
        layers = costmodel.resolve_manifest("resnet50")
        print(json.dumps([dataclasses.asdict(costmodel.algorithm_cost(layers, {P}, alg))
                          for alg in costmodel.ALGORITHMS]))
    """, address_space=_ONE_GIB)
    layers = resolve_manifest("resnet50")
    n_g, n_f = totals(layers)
    max_f = max(layer_counts(d)[1] for d in layers)
    payload = n_f + sum(d.d_in + d.d_out for d in layers)
    gradcomm = 2 * (P - 1) * n_g
    # the stages in STAGES order, then memory_realized
    want = {
        "ssgd": (n_g, 0, 0, gradcomm, 0, 0, 0, n_g),
        "mpd_kfac_co": (n_g, n_f, max_f, gradcomm, 2 * (P - 1) * n_f, 0, (P - 1) * payload,
                        2 * (n_g + n_f)),
        "mpd_kfac_mo": (n_g, n_f, max_f, gradcomm, 2 * (P - 1) * n_f, (P - 1) * n_g, 0,
                        2 * (n_g + n_f)),
        "dp_kfac": (n_g, max_f, max_f, gradcomm, 0, (P - 1) * n_g, 0, 2 * (n_g + max_f)),
    }
    got = {r["algorithm"]: tuple(r[k] for k in (*STAGES, "memory_realized")) for r in reports}
    assert got == want
    assert all(r["workers"] == P for r in reports)


def test_cost_command_at_a_huge_worker_count_exits_0():
    code = _fresh("""
        import json
        from kfaclab import cli
        print(json.dumps(cli.main(["cost", "resnet50", "--p", "99999999999999999999"])))
    """, address_space=_ONE_GIB)
    assert code == 0
