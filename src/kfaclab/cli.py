"""Command-line entry points: train, cost, verify, gen-data.

Exit codes: 0 success, 1 verification failure, 2 configuration error
(ConfigError), 3 data/format error (DataFormatError, ArgumentError,
ShapeError, CapacityError, OrderingError) or a command that ran out of memory
(MemoryError), 4 numeric failure (NumericError).
An output path that cannot be created or written is a configuration error
naming its setting (``train.out_dir``, ``--json``, ``--images``,
``--labels``).  Once its output directory exists, ``train`` records in
``run.json``, written once after ``final.ckpt``, how it ended (status, exit
code, error message, last iteration written) on every exit path.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__, costmodel, kfac, verify
from .config import load_config, parse_overrides
from .datasets import gen_synthetic, quantize_for_idx, write_all_or_nothing, write_idx
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
    prepare_training,
    run_prepared,
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


def _package_error(exc: KfacLabError | MemoryError, command: str) -> KfacLabError:
    """A package error as it is; running out of memory as a CapacityError
    naming the command."""
    if isinstance(exc, MemoryError):
        return CapacityError(f"{command}: out of memory")
    return exc


def _report(exc: KfacLabError) -> int:
    """Print a package error under its exit-code label; returns the code."""
    code = next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)
    print(f"{_EXIT_LABELS[code]}: {exc}", file=sys.stderr)
    return code


def _unusable_output(action: str, path: Path, exc: OSError,
                     setting: str = "train.out_dir") -> ConfigError:
    return ConfigError(f"{setting}: cannot {action} {path}: {exc.strerror or exc}")


def _csv_list(flag: str, value: str, cast=str) -> list:
    """The items of a comma-separated flag value; an empty item (``4,,8``)
    or an item named twice is an error."""
    raw = [x.strip() for x in value.split(",")]
    if "" in raw:
        what = "empty item" if any(raw) else "names nothing"
        raise ArgumentError(f"{flag}: {what} in {value!r}")
    try:
        items = [cast(x) for x in raw]
    except ValueError:
        raise ArgumentError(f"{flag}: expected comma-separated integers, got {value!r}") from None
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ArgumentError(f"{flag}: {item} named twice in {value!r}")
    return items


def cmd_train(args, overrides) -> int:
    if args.seed is not None:
        overrides["train.seed"] = str(args.seed)
    if args.out_dir is not None:
        overrides["train.out_dir"] = str(args.out_dir)
    cfg = load_config(args.config, overrides)
    out_dir = Path(cfg.train.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unusable_output("create", out_dir, exc) from exc
    csv_path = out_dir / "metrics.csv"
    manifest_path = out_dir / "run.json"
    ckpt_path = out_dir / "final.ckpt"
    last_iteration = None  # of the last row this invocation wrote
    csv_written = False
    result = None
    outcome = {"status": "failed", "exit_code": None, "error": None}

    def sink(row):
        nonlocal last_iteration
        fh.write(",".join(row.as_csv_fields()) + "\n")
        fh.flush()
        last_iteration = row.iteration

    try:
        resume = load_checkpoint(args.resume) if args.resume else None
        # data and checkpoint are checked here, before metrics.csv is touched
        run = prepare_training(cfg, resume_from=resume)
        # a resumed run continues the directory's own metrics when they end
        # exactly where the checkpoint does
        append = resume is not None and _holds_rows_before(csv_path, resume.iteration)
        # written incrementally so a numeric abort still leaves the partial rows
        try:
            fh = open(csv_path, "a" if append else "w")
        except OSError as exc:
            raise _unusable_output("open", csv_path, exc) from exc
        with fh:
            csv_written = True
            if not append:
                fh.write(csv_header() + "\n")
            result = run_prepared(run, row_sink=sink)
        try:
            save_checkpoint(ckpt_path, result.cluster, result.final_iteration, cfg.train.epochs)
        except OSError as exc:
            raise _unusable_output("write", ckpt_path, exc) from exc
        outcome.update(status="finished", exit_code=EXIT_OK, iterations=result.final_iteration,
                       iters_per_epoch=result.iters_per_epoch)
    except (KfacLabError, MemoryError) as exc:
        exc = _package_error(exc, "train")
        outcome.update(exit_code=_report(exc), error=str(exc))
        if csv_written and result is None:
            print(f"partial metrics kept at {csv_path}", file=sys.stderr)
    except BaseException as exc:
        # an interrupt or an internal fault: record it, keep the traceback
        outcome["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        # once, after final.ckpt; a failed run keeps its own exit code
        try:
            write_run_manifest(manifest_path, cfg,
                               extra={**outcome, "last_iteration": last_iteration})
        except OSError as exc:
            code = _report(_unusable_output("write", manifest_path, exc))
            outcome["exit_code"] = outcome["exit_code"] or code
    if outcome["exit_code"] != EXIT_OK:
        return outcome["exit_code"]
    last = result.rows[-1]
    print(f"finished {result.final_iteration} iterations "
          f"({cfg.train.epochs} epochs) of {cfg.train.algorithm} "
          f"on P={cfg.train.workers}")
    print(f"final train loss {last.train_loss:.6f}"
          + (f", eval loss {last.eval_loss:.6f}" if last.eval_loss is not None else "")
          + (f", eval accuracy {last.eval_accuracy:.4f}" if last.eval_accuracy is not None else ""))
    print(f"outputs: {csv_path}, {manifest_path}, {ckpt_path}")
    return EXIT_OK


# (field, row label): the stages, gradcomp labelled GradComp, then memory
_COST_FIELDS = tuple((s, s[:-4].capitalize() + s[-4:].capitalize())
                     for s in costmodel.STAGES) + (("memory", "Memory"),)


def cmd_cost(args) -> int:
    layers = costmodel.resolve_manifest(args.manifest)
    n_g, n_f = costmodel.totals(layers)
    worker_counts = _csv_list("--p", args.p, int)
    algs = list(costmodel.ALGORITHMS) if args.alg == "all" else _csv_list("--alg", args.alg)
    reports = [
        costmodel.algorithm_cost(layers, p, alg, inv_type=args.inv_type)
        for p in worker_counts for alg in algs
    ]
    amortized = None
    if args.f_freq is not None or args.k_freq is not None:
        f = 1 if args.f_freq is None else args.f_freq
        k = 1 if args.k_freq is None else args.k_freq
        amortized = [costmodel.amortized_cost(r, f, k) for r in reports]

    print(f"{len(layers)} layers: N_g={n_g} ({n_g / 1e6:.2f}M), "
          f"N_f={n_f} ({n_f / 1e6:.2f}M), N_f/N_g={n_f / n_g:.3f}")
    for p in worker_counts:
        group = [r for r in reports if r.workers == p]
        print(f"\nP = {p} (per second-order-update iteration, element counts)")
        print("stage".ljust(12) + "".join(f" {r.algorithm:>13}" for r in group))
        for attr, label in _COST_FIELDS:
            # round: the counts print exactly, the idealized memory as .0f would
            print(label.ljust(12) + "".join(f" {round(getattr(r, attr)):>13}" for r in group))
        dp = next((r for r in group if r.algorithm == "dp_kfac"), None)
        mpd = next((r for r in group if r.algorithm.startswith("mpd")), None)
        if dp and mpd:
            comp_ratio = mpd.factorcomp / dp.factorcomp if dp.factorcomp else float("inf")
            print(f"dp vs mpd: factorcomp {comp_ratio:.2f}x lower, "
                  f"factorcomm eliminated ({mpd.factorcomm} -> 0), "
                  f"memory {dp.memory / mpd.memory:.3f}x")
        if amortized is not None:
            print(f"amortized over f_freq = {f}, k_freq = {k} (mean per iteration)")
            for attr, label in _COST_FIELDS[:-1]:  # every stage; memory is not amortized
                print(label.ljust(12) + "".join(f" {a[attr]:>13.1f}" for a in amortized
                                                if a["workers"] == p))
    for note in costmodel.NOTES:
        print(f"note: {note}")

    if args.json_out:
        payload = {
            "manifest": {"layers": len(layers), "n_g": n_g, "n_f": n_f,
                         "nf_ng_ratio": n_f / n_g},
            "inv_type": args.inv_type,
            "reports": [asdict(r) for r in reports],
            "notes": list(costmodel.NOTES),
        }
        if amortized is not None:
            payload["amortized"] = amortized
        try:
            write_all_or_nothing([(args.json_out, [
                (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()])])
        except OSError as exc:
            raise _unusable_output("write", args.json_out, exc, "--json") from exc
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
    if args.rows < 1:
        raise ArgumentError(f"--rows {args.rows} must be >= 1")
    if args.dim % args.rows != 0:
        raise ArgumentError(f"--dim {args.dim} is not divisible by --rows {args.rows}")
    if Path(args.images).resolve() == Path(args.labels).resolve():
        raise ConfigError(f"--images {args.images} and --labels {args.labels} name the same file")
    seed = args.seed if args.seed is not None else 0
    dataset = gen_synthetic(args.kind, vars(args), seed)
    images, labels = quantize_for_idx(dataset, args.rows, args.dim // args.rows)
    try:
        write_idx(args.images, args.labels, images, labels)
    except OSError as exc:
        flag = "--images" if exc.filename == args.images else "--labels"
        raise _unusable_output("write", exc.filename, exc, flag) from exc
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
    except (KfacLabError, MemoryError) as exc:
        return _report(_package_error(exc, args.command))


if __name__ == "__main__":
    sys.exit(main())
