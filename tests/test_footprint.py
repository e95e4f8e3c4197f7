"""What a process pays for: each check runs in a fresh interpreter, because
imports and allocator state are per process and the pytest process's own
would hide them."""

import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import kfaclab

SRC = Path(kfaclab.__file__).resolve().parent.parent
BUNDLED = SRC.parent / "configs" / "blobs_dp_kfac.ini"


def _fresh(*code: str):
    """Run the ``code`` blocks in order in a new interpreter with one BLAS
    thread; returns the JSON value of its last output line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", "\n".join(map(textwrap.dedent, code))], env=env,
                          capture_output=True, text=True, timeout=300)
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
    if loads_scipy:
        assert "scipy.linalg.lapack" in loaded
    else:
        assert loaded == []


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
