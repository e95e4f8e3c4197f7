"""Regenerate reference.json: every algorithm's final eval loss and
loss-column digest on every workload for seeds 0-15, plus the tolerance
the benchmark allows around the median final loss.

Usage (from the repository root; timings are not taken, so jobs may overlap):

    python3 perfbench/make_reference.py

Rerun it only when a change is meant to alter the training arithmetic, and
say so in the change.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import harness
import run

# the final loss must lie within this many times the seed-to-seed half-range
# of the median (with a floor), so a diverged run cannot pass
TOLERANCE_FACTOR = 3.0
TOLERANCE_FLOOR = 0.05
SEEDS = range(16)
JOBS = 2


def round_up(x: float, digits: int = 2) -> float:
    """``x`` rounded up to ``digits`` significant digits."""
    e = math.floor(math.log10(x)) - digits + 1
    return float(f"{math.ceil(x / 10 ** e) * 10 ** e:.{max(0, -e)}f}")


def one(workload: str, seed: int) -> dict:
    workdir = run.WORK / f"ref-{workload}-s{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        rnd, _ = run.Runner(workload, seed, workdir, time.monotonic()).run_round(0, trace=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = {a: r["problems"] for a, r in rnd.items() if r.get("problems")}
    if bad:
        raise SystemExit(f"{workload} seed {seed}: {bad}")
    return rnd


def main() -> int:
    jobs = [(w, s) for w in run.WORKLOADS for s in SEEDS]
    with ThreadPoolExecutor(JOBS) as pool:
        results = list(pool.map(lambda job: one(*job), jobs))
    reference = {}
    for (workload, seed), rnd in zip(jobs, results):
        ref = reference.setdefault(workload, {"losses": {}, "digests": {}})
        ref["digests"][str(seed)] = {a: rnd[a]["loss_digest"] for a in harness.ALGORITHMS}
        for a in harness.ALGORITHMS:
            ref["losses"].setdefault(a, []).append(rnd[a]["final_eval_loss"])
    for workload, ref in reference.items():
        losses = ref.pop("losses")
        ref["final_eval_loss"] = {a: statistics.median(v) for a, v in losses.items()}
        ref["tolerance"] = {
            a: round_up(max(TOLERANCE_FLOOR, TOLERANCE_FACTOR * (max(v) - min(v)) / 2))
            for a, v in losses.items()}
        ref["seed_range"] = {a: [min(v), max(v)] for a, v in losses.items()}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
