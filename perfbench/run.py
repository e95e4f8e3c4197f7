"""Wall-clock benchmark of kfaclab's simulated cluster.

Usage (from the repository root):

    python3 perfbench/run.py --workload blobs_p4 --seed 1 --seconds 25 --trace 0

Every run trains the four algorithms side by side on identical data, each in
a fresh Python process (``child.py``), through the package's public
``trainer.run_training``.  With ``--trace 0`` it repeats rounds of the four
processes, rotating which algorithm goes first, for about ``--seconds`` and
reports the end-to-end metrics; with ``--trace 1`` it runs one untraced and
one traced round and reports per-layer self times and call counts.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit status is nonzero when any correctness
check failed.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import select
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASE_CONFIG = HERE / "base.ini"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(SRC))

DEADLINE_S = 170.0

WIDE = {"network.layer_dims": "192,192,192,10", "data.dim": "192"}

# Every workload is the bundled config plus these overrides.  Run lengths keep
# at least 101 steps per algorithm so step 0 can be dropped and p90 still has
# 10 samples beyond it.
WORKLOADS = {
    # the lab's reference comparison as shipped: 65x65 factors, per-call
    # overhead and sym_eig about 40% of a dp_kfac step (280 steps)
    "blobs_p4": {},
    # decomposition dominates: 193x193 / 192x192 factors, eigen every step
    # (102 steps)
    "wide_eigen_p4": {**WIDE, "data.samples": "14600", "train.epochs": "1"},
    # generated IDX data, P=8, stale Cholesky inverses every 5th step: p50 is
    # the stale-step path, p90 the refresh step (102 steps)
    "idx_stale_p8": {
        **WIDE, "data.kind": "idx", "train.workers": "8", "train.batch_size": "256",
        "train.epochs": "1", "hyper.inv_type": "inverse", "hyper.f_freq": "1",
        "hyper.k_freq": "5", "hyper.lr": "0.005",
    },
}
END_TO_END_ORDER = ["setup_s", "run_s"] + [
    f"{alg}.{m}" for alg in harness.ALGORITHMS
    for m in ("step_ms_p50", "step_ms_p90", "peak_rss_mib")]
IDX_SAMPLES = 29100
IDX_SHAPE = (12, 16)


def child_env() -> dict:
    env = dict(os.environ, **harness.THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def write_idx(workdir: Path, seed: int) -> dict:
    """Materialise the idx workload's data set (outside any timed region)."""
    from kfaclab.datasets import gen_synthetic, quantize_for_idx, write_idx as write_pair

    data = gen_synthetic("gaussian_blobs", {"classes": 10, "dim": 192,
                                            "samples": IDX_SAMPLES, "noise": 0.3}, seed)
    images, labels = quantize_for_idx(data, *IDX_SHAPE)
    paths = {"data.images": str(workdir / "images.idx"),
             "data.labels": str(workdir / "labels.idx")}
    write_pair(paths["data.images"], paths["data.labels"], images, labels)
    return paths


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.env = child_env()
        self.overrides = dict(WORKLOADS[workload], **{"train.seed": str(seed)})
        if workload == "idx_stale_p8":
            self.overrides.update(write_idx(workdir, seed))
        self.n_runs = 0

    def deadline(self) -> float:
        return max(DEADLINE_S - (time.monotonic() - self.started), 1.0)

    def run_round(self, index: int, trace: bool) -> tuple[dict[str, dict], float | None]:
        """One fresh process per algorithm, the processes taking turns (see
        child.py) and the first turn rotating with ``index``.  Returns each algorithm's
        result and the round's wall time from the first turn until every
        checkpoint is written (None when a process failed)."""
        k = index % len(harness.ALGORITHMS)
        order = harness.ALGORITHMS[k:] + harness.ALGORITHMS[:k]
        procs, tags, results = {}, {}, {}
        try:
            for alg in order:
                tags[alg], procs[alg] = self.start_child(alg, trace)
            for alg in order:
                self.reply(procs[alg])  # "ready": the interpreter is up
            t_start = time.perf_counter()
            active = list(order)
            while active:
                for alg in list(active):
                    if self.turn(procs[alg]) != "step":  # "saved", or "" if it died
                        active.remove(alg)
            run_s = time.perf_counter() - t_start
            for alg in order:
                self.turn(procs[alg])  # checks, then the process exits
                procs[alg].wait(timeout=self.deadline())
        except (subprocess.TimeoutExpired, TimeoutError):
            run_s = None
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdin.close()
                proc.stdout.close()
        for alg in order:
            out = self.workdir / f"{tags[alg]}.out.json"
            if procs[alg].returncode == 0 and out.is_file():
                results[alg] = json.loads(out.read_text())
            else:
                err = (self.workdir / f"{tags[alg]}.err").read_text().strip().splitlines()
                results[alg] = {"algorithm": alg, "problems": [
                    f"exit {procs[alg].returncode}: {' | '.join(err[-3:]) or 'timed out'}"]}
                run_s = None
        return results, run_s

    def start_child(self, alg: str, trace: bool) -> tuple[str, subprocess.Popen]:
        self.n_runs += 1
        tag = f"{self.n_runs:03d}-{alg}"
        spec = {
            "config": str(BASE_CONFIG),
            "overrides": dict(self.overrides, **{
                "train.algorithm": alg,
                "train.out_dir": str(self.workdir / tag),
            }),
            "trace": trace,
        }
        spec_path = self.workdir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        with open(self.workdir / f"{tag}.err", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path),
                 str(self.workdir / f"{tag}.out.json")],
                env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                bufsize=0,
            )
        return tag, proc

    def turn(self, proc: subprocess.Popen) -> str:
        """Let ``proc`` work until its next reply."""
        try:
            proc.stdin.write(b"go\n")
        except BrokenPipeError:
            return ""
        return self.reply(proc)

    def reply(self, proc: subprocess.Popen) -> str:
        """The next line ``proc`` writes ("" once it has exited)."""
        ready, _, _ = select.select([proc.stdout], [], [], self.deadline())
        if not ready:
            raise TimeoutError("a benchmark process stopped answering")
        return proc.stdout.readline().decode().strip()


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE.read_text())[workload]


def check_losses(rounds: list[dict], ref: dict, seed: int, lines: list[str]):
    """Final eval loss within tolerance of the stored reference; loss columns
    identical across rounds; and whether they match the stored digest."""
    for alg in harness.ALGORITHMS:
        runs = [r[alg] for r in rounds if "loss_digest" in r[alg]]
        if not runs:
            continue
        want = ref["final_eval_loss"][alg]
        tol = ref["tolerance"][alg]
        loss = runs[0]["final_eval_loss"]
        digests = {r["loss_digest"] for r in runs}
        problems = []
        if loss is None or not abs(loss - want) <= tol:
            problems.append(f"final eval loss {loss} outside {want} +- {tol} (diverged?)")
        if len(digests) > 1:
            problems.append(f"loss columns differ between identical runs: {sorted(digests)}")
        stored = ref["digests"].get(str(seed), {}).get(alg)
        same = "unknown (no stored digest for this seed)" if stored is None else (
            "yes" if digests == {stored} else "no")
        lines.append(f"{alg:12s} final eval loss {loss} (reference {want:.4f} +- {tol}); "
                     f"loss digest {runs[0]['loss_digest']}; arithmetic identical: {same}")
        for r in runs:
            r["problems"] = r.get("problems", []) + problems


def end_to_end(rounds: list[dict], round_s: list[float]) -> dict:
    """Medians over the run; a metric whose processes all failed is left out
    (the run already counts as failed)."""
    samples = {
        "setup_s": ([r[a]["setup_s"] for r in rounds for a in r if "setup_s" in r[a]], "s"),
        "run_s": (round_s, "s"),
    }
    tails = {}
    for alg in harness.ALGORITHMS:
        runs = [r[alg] for r in rounds if "step_s" in r[alg]]
        steps_ms = [1e3 * s for run in runs for s in run["step_s"]]
        samples[f"{alg}.step_ms_p50"] = (steps_ms, "ms")
        samples[f"{alg}.peak_rss_mib"] = ([run["peak_rss_kib"] / 1024 for run in runs], "MiB")
        if runs:
            try:
                tails[f"{alg}.step_ms_p90"] = (harness.tail_percentile(steps_ms, 0.9), "ms")
            except ValueError as exc:
                for run in runs:
                    run["problems"].append(str(exc))
    metrics = {name: (statistics.median(values), unit)
               for name, (values, unit) in samples.items() if values}
    metrics.update(tails)
    return dict(sorted(metrics.items(), key=lambda kv: END_TO_END_ORDER.index(kv[0])))


def per_layer(traced: dict, overhead_s: float | None, inv_type: str, lines: list[str]) -> dict:
    metrics = {}
    shared = {"kfaclab.import_ms": [], "config.load_ms": [], "datasets.provision_ms": []}
    for alg in harness.ALGORITHMS:
        run = traced[alg]
        if "trace" not in run:
            continue
        trace = run["trace"]
        missing = harness.missing_spans(trace, alg, inv_type)
        if missing:
            run["problems"].append(f"traced spans recorded no calls: {missing}")
        for name, value in harness.layer_metrics(trace, run["step_s"], alg).items():
            metrics[f"{alg}.{name}"] = (value, harness.metric_unit(name))
        shared["kfaclab.import_ms"].append(1e3 * run["import_s"])
        for name, span in (("config.load_ms", "config.load"),
                           ("datasets.provision_ms", "datasets.provision")):
            shared[name] += [1e3 * (s[2] - s[1]) for s in trace["spans"] if s[0] == span]
    for name, values in shared.items():
        if values:
            metrics[name] = (statistics.median(values), "ms")
    if overhead_s is not None:
        metrics["trace.overhead_s"] = (overhead_s, "s")
    confirm(metrics, traced, lines)
    return metrics


def confirm(metrics: dict, traced: dict, lines: list[str]):
    """Report what the workload is for; informational, a later change may
    legitimately move any of these."""
    def get(name):
        return metrics.get(name, (float("nan"), ""))[0]

    per_step = [f"dp_kfac.{n}_ms" for n in harness.STEP_SPANS]
    per_step += ["dp_kfac.distsim.step_self_ms", "dp_kfac.trainer.loop_self_ms"]
    dp_self = {k: metrics[k][0] for k in per_step if k in metrics}
    if dp_self:
        top = max(dp_self, key=dp_self.get)
        lines.append(f"confirm: largest dp_kfac per-step self time is {top} ({dp_self[top]:.3f} ms)")
    run = traced.get("mpd_kfac_co", {})
    if "workers" in run:
        lines.append(f"confirm: mpd_kfac_co.kfac.precondition_calls "
                     f"{get('mpd_kfac_co.kfac.precondition_calls'):g} vs workers x layers "
                     f"{run['workers'] * run['layers']}")
    for alg in harness.ALGORITHMS:
        lines.append(f"confirm: {alg} model.sgd_step_calls {get(f'{alg}.model.sgd_step_calls'):g}"
                     + ("" if alg == "ssgd" else
                        f", numerics.sym_eig_calls {get(f'{alg}.numerics.sym_eig_calls'):g}"
                        f", kfac.refresh_useful_ratio {get(f'{alg}.kfac.refresh_useful_ratio'):g}"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "kfaclab" / "__init__.py").is_file():
        print(f"error: kfaclab sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(harness.THREAD_ENV)
    print("env " + json.dumps(harness.environment(), sort_keys=True))

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        # compile bytecode and warm the file cache so import time is steady
        subprocess.run([sys.executable, "-c", "import kfaclab.cli"], env=child_env(), check=True)
        runner = Runner(args.workload, args.seed, workdir, started)
        inv_type = runner.overrides.get("hyper.inv_type", "eigen")
        lines: list[str] = []
        t_measure = time.monotonic()
        if args.trace:
            (plain, plain_s), (traced, traced_s) = (runner.run_round(0, trace=False),
                                                    runner.run_round(1, trace=True))
            rounds = [plain, traced]
            overhead = None if None in (plain_s, traced_s) else traced_s - plain_s
            metrics = per_layer(traced, overhead, inv_type, lines)
        else:
            rounds, round_s = [], []
            while True:
                t_round = time.monotonic()
                results, run_s = runner.run_round(len(rounds), trace=False)
                rounds.append(results)
                if run_s is not None:
                    round_s.append(run_s)
                took = time.monotonic() - t_round
                if time.monotonic() - t_measure + took > args.seconds:
                    break
            metrics = end_to_end(rounds, round_s)
        check_losses(rounds, load_reference(args.workload), args.seed, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [r[a] for r in rounds for a in r]
    failed = [run for run in runs if run.get("problems")]
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{len(runs)} runs, {len(failed)} failed")
    for line in lines:
        print(line)
    for run in failed:
        print(f"FAILED {run['algorithm']}: " + "; ".join(run["problems"]))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
