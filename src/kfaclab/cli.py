"""Command-line entry points: train, cost, verify, gen-data.

Exit codes: 0 success, 1 verification failure, 2 configuration error
(ConfigError), 3 data/format error (DataFormatError, ArgumentError,
ShapeError, CapacityError, OrderingError), 4 numeric failure (NumericError).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, costmodel, kfac, verify
from .config import load_config, parse_overrides
from .datasets import gen_synthetic, quantize_for_idx, write_idx
from .errors import (
    ArgumentError,
    CapacityError,
    ConfigError,
    DataFormatError,
    KfacLabError,
    NumericError,
    OrderingError,
    ShapeError,
)
from .trainer import (
    csv_header,
    load_checkpoint,
    run_training,
    save_checkpoint,
    write_run_manifest,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# every package error class ends the process with one documented code
EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    DataFormatError: EXIT_DATA,
    ArgumentError: EXIT_DATA,
    ShapeError: EXIT_DATA,
    CapacityError: EXIT_DATA,
    OrderingError: EXIT_DATA,
    NumericError: EXIT_NUMERIC,
}
_EXIT_LABELS = {EXIT_CONFIG: "config error", EXIT_DATA: "data error",
                EXIT_NUMERIC: "numeric failure"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfaclab",
        description="Desk-scale distributed K-FAC laboratory",
    )
    parser.add_argument("--version", action="version", version=f"kfaclab {__version__}")
    parser.add_argument("--seed", type=int, default=None, help="override train.seed")
    parser.add_argument("--out-dir", default=None, help="override train.out_dir")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training experiment from a config file")
    p_train.add_argument("config", help="path to the run config")
    p_train.add_argument("--resume", default=None, help="checkpoint to continue from")
    # also accepted after the subcommand; SUPPRESS keeps a value given before it
    p_train.add_argument("--out-dir", default=argparse.SUPPRESS, help="override train.out_dir")

    p_cost = sub.add_parser("cost", help="analytic cost reports for a layer manifest")
    p_cost.add_argument("manifest", help="manifest path or bundled name (resnet50)")
    p_cost.add_argument("--p", default="1,2,4,8,64", help="comma-separated worker counts")
    p_cost.add_argument("--alg", default="all",
                        help="comma-separated algorithms or 'all'")
    p_cost.add_argument("--inv-type", default="eigen", choices=kfac.INV_TYPES)
    p_cost.add_argument("--f-freq", type=int, default=None,
                        help="also emit per-iteration costs amortized over this factor interval")
    p_cost.add_argument("--k-freq", type=int, default=None,
                        help="decomposition interval for the amortized report")
    p_cost.add_argument("--json", dest="json_out", default=None, help="write the report as JSON")

    p_verify = sub.add_parser("verify", help="run a self-check suite")
    p_verify.add_argument("suite", choices=verify.SUITES + ("all",))

    p_gen = sub.add_parser("gen-data", help="materialize a synthetic dataset as an IDX pair")
    p_gen.add_argument("kind", choices=("gaussian_blobs",))
    p_gen.add_argument("--classes", type=int, default=10)
    p_gen.add_argument("--dim", type=int, default=64)
    p_gen.add_argument("--samples", type=int, default=1000)
    p_gen.add_argument("--noise", type=float, default=0.1)
    p_gen.add_argument("--rows", type=int, default=8, help="image rows (rows*cols == dim)")
    p_gen.add_argument("--images", required=True)
    p_gen.add_argument("--labels", required=True)
    return parser


def _holds_rows_before(csv_path: Path, iteration: int) -> bool:
    """Whether ``csv_path`` is a metrics file with the documented header and
    exactly the rows of iterations 0..iteration-1, in order."""
    try:
        text = csv_path.read_text()
    except (OSError, UnicodeDecodeError):
        return False
    lines = text.splitlines()
    return (text.endswith("\n") and lines[0] == csv_header()
            and [line.split(",", 1)[0] for line in lines[1:]]
            == [str(i) for i in range(iteration)])


def cmd_train(args, overrides) -> int:
    if args.seed is not None:
        overrides["train.seed"] = str(args.seed)
    if args.out_dir is not None:
        overrides["train.out_dir"] = str(args.out_dir)
    cfg = load_config(args.config, overrides)
    out_dir = Path(cfg.train.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    resume = load_checkpoint(args.resume) if args.resume else None

    csv_path = out_dir / "metrics.csv"
    # a resumed run continues the directory's own metrics when they end
    # exactly where the checkpoint does
    append = resume is not None and _holds_rows_before(csv_path, resume.iteration)
    # written incrementally so a numeric abort still leaves the partial rows
    with open(csv_path, "a" if append else "w") as fh:
        if not append:
            fh.write(csv_header() + "\n")
        def sink(row):
            fh.write(",".join(row.as_csv_fields()) + "\n")
            fh.flush()
        try:
            result = run_training(cfg, row_sink=sink, resume_from=resume)
        except NumericError as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            print(f"partial metrics kept at {csv_path}", file=sys.stderr)
            return EXIT_NUMERIC

    write_run_manifest(out_dir / "run.json", cfg, extra={
        "iterations": result.final_iteration,
        "iters_per_epoch": result.iters_per_epoch,
    })
    save_checkpoint(out_dir / "final.ckpt", result.cluster,
                    result.final_iteration, cfg.train.epochs)
    last = result.rows[-1]
    print(f"finished {result.final_iteration} iterations "
          f"({cfg.train.epochs} epochs) of {cfg.train.algorithm} "
          f"on P={cfg.train.workers}")
    print(f"final train loss {last.train_loss:.6f}"
          + (f", eval loss {last.eval_loss:.6f}" if last.eval_loss is not None else "")
          + (f", eval accuracy {last.eval_accuracy:.4f}" if last.eval_accuracy is not None else ""))
    print(f"outputs: {csv_path}, {out_dir / 'run.json'}, {out_dir / 'final.ckpt'}")
    return EXIT_OK


_COST_FIELDS = (
    ("gradcomp", "GradComp"), ("factorcomp", "FactorComp"), ("inversecomp", "InverseComp"),
    ("gradcomm", "GradComm"), ("factorcomm", "FactorComm"), ("predcomm", "PredComm"),
    ("inversecomm", "InverseComm"), ("memory", "Memory"),
)


def cmd_cost(args) -> int:
    layers = costmodel.resolve_manifest(args.manifest)
    n_g, n_f = costmodel.totals(layers)
    worker_counts = [int(x) for x in args.p.split(",") if x.strip()]
    algs = list(costmodel.ALGORITHMS) if args.alg == "all" else [
        a.strip() for a in args.alg.split(",") if a.strip()
    ]
    reports = [
        costmodel.algorithm_cost(layers, p, alg, inv_type=args.inv_type)
        for p in worker_counts for alg in algs
    ]
    amortized = None
    if args.f_freq or args.k_freq:
        f = args.f_freq or 1
        k = args.k_freq or 1
        amortized = [costmodel.amortized_cost(r, f, k) for r in reports]

    print(f"{len(layers)} layers: N_g={n_g} ({n_g / 1e6:.2f}M), "
          f"N_f={n_f} ({n_f / 1e6:.2f}M), N_f/N_g={n_f / n_g:.3f}")
    for p in worker_counts:
        group = [r for r in reports if r.workers == p]
        print(f"\nP = {p} (per second-order-update iteration, element counts)")
        header = "stage".ljust(12) + "".join(r.algorithm.rjust(14) for r in group)
        print(header)
        for attr, label in _COST_FIELDS:
            cells = "".join(f"{getattr(r, attr):>14.0f}" for r in group)
            print(label.ljust(12) + cells)
        dp = next((r for r in group if r.algorithm == "dp_kfac"), None)
        mpd = next((r for r in group if r.algorithm.startswith("mpd")), None)
        if dp and mpd:
            comp_ratio = mpd.factorcomp / dp.factorcomp if dp.factorcomp else float("inf")
            print(f"dp vs mpd: factorcomp {comp_ratio:.2f}x lower, "
                  f"factorcomm eliminated ({mpd.factorcomm} -> 0), "
                  f"memory {dp.memory / mpd.memory:.3f}x")
    for note in costmodel.model_notes():
        print(f"note: {note}")

    if args.json_out:
        payload = {
            "manifest": {"layers": len(layers), "n_g": n_g, "n_f": n_f,
                         "nf_ng_ratio": n_f / n_g},
            "inv_type": args.inv_type,
            "reports": [r.to_dict() for r in reports],
            "notes": list(costmodel.model_notes()),
        }
        if amortized is not None:
            payload["amortized"] = amortized
        Path(args.json_out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json_out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    failed = [r for r in results if not r.passed]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"[{mark}] {r.suite}: {r.name}{detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def cmd_gen_data(args) -> int:
    if args.dim % args.rows != 0:
        raise ArgumentError(f"--dim {args.dim} is not divisible by --rows {args.rows}")
    seed = args.seed if args.seed is not None else 0
    dataset = gen_synthetic(args.kind, {
        "classes": args.classes, "dim": args.dim,
        "samples": args.samples, "noise": args.noise,
    }, seed)
    images, labels = quantize_for_idx(dataset, args.rows, args.dim // args.rows)
    write_idx(args.images, args.labels, images, labels)
    print(f"wrote {args.samples} samples to {args.images} / {args.labels} (seed {seed})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        overrides = parse_overrides(extra)
        if args.command == "train":
            return cmd_train(args, overrides)
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.command == "cost":
            return cmd_cost(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_gen_data(args)
    except KfacLabError as exc:
        code = next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)
        print(f"{_EXIT_LABELS[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
