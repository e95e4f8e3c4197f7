"""One-shot kernel report: ``numerics.sym_eig`` and ``numerics.sym_inverse``
wall time at every distinct factor dimension of the bundled ResNet-50 layer
manifest, giving the cost model a measured per-dimension column next to its
element counts.  Not part of the repeated benchmark workloads.

Usage (from the repository root):

    python3 perfbench/kernels.py [--max-dim 2304] [--out perfbench/results/kernels.json]

Dimensions above ``--max-dim`` are skipped and listed as such (4608 takes
about half a minute per eigendecomposition on a 2-core Xeon).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402

REPEATS = 7
BUDGET_S = 2.0  # stop repeating a kernel once this much time is spent on it


def time_call(fn, arg) -> list[float]:
    """Wall times in ms: at least one call, then more until REPEATS calls or
    BUDGET_S seconds."""
    samples, spent = [], 0.0
    while len(samples) < REPEATS and (not samples or spent < BUDGET_S):
        t = time.perf_counter()
        fn(arg)
        samples.append(1e3 * (time.perf_counter() - t))
        spent += samples[-1] / 1e3
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-dim", type=int, default=2304)
    parser.add_argument("--out", default=None, help="also write the report as JSON")
    args = parser.parse_args(argv)
    os.environ.update(harness.THREAD_ENV)

    import numpy as np
    from kfaclab import costmodel, numerics

    layers = costmodel.resolve_manifest("resnet50")
    dims = sorted({d for layer in layers for d in layer})
    rows, skipped = [], []
    rng = np.random.default_rng(0)
    for d in dims:
        if d > args.max_dim:
            skipped.append(d)
            continue
        b = rng.standard_normal((d, d))
        spd = b @ b.T / d + 0.1 * np.eye(d)
        eig = time_call(numerics.sym_eig, spd)
        inv = time_call(numerics.sym_inverse, spd)
        rows.append({"dim": d, "sym_eig_ms": statistics.median(eig),
                     "sym_inverse_ms": statistics.median(inv),
                     "samples": [len(eig), len(inv)]})
        print(f"d={d:5d}  sym_eig {rows[-1]['sym_eig_ms']:10.3f} ms  "
              f"sym_inverse {rows[-1]['sym_inverse_ms']:10.3f} ms  (median of {len(eig)}/{len(inv)})",
              flush=True)
    if skipped:
        print(f"skipped (above --max-dim {args.max_dim}): {skipped}")
    report = {"manifest": "resnet50", "dims": dims, "kernels": rows, "skipped": skipped,
              "max_dim": args.max_dim, "env": harness.environment()}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
