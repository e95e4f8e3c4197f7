import hashlib
import importlib.machinery
import importlib.util
import json

import numpy as np
import pytest

from kfaclab import cli, config, errors, numerics, trainer, verify
from kfaclab.datasets import load_idx
from test_footprint import _fresh

SMALL_CONFIG = """
[network]
layer_dims = 8,8,3
activation = tanh
bias_mode = homogeneous

[data]
kind = gaussian_blobs
classes = 3
dim = 8
samples = 200
noise = 0.2

[train]
algorithm = dp_kfac
workers = 2
epochs = 2
batch_size = 20
seed = 3

[hyper]
lr = 0.05
gamma = 0.1
xi = 0.05
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG)
    return path


def test_train_outputs_and_byte_identical_reruns(config_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--out-dir", str(out_a), "train", str(config_path)]) == 0
    assert cli.main(["--out-dir", str(out_b), "train", str(config_path)]) == 0
    csv_a = (out_a / "metrics.csv").read_bytes()
    csv_b = (out_b / "metrics.csv").read_bytes()
    assert csv_a == csv_b
    assert (out_a / "run.json").is_file()
    assert (out_a / "final.ckpt").is_file()
    manifest = json.loads((out_a / "run.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["config"]["train"]["algorithm"] == "dp_kfac"
    header = csv_a.decode().splitlines()[0]
    assert header.split(",") == list(manifest["csv_columns"])


def test_train_seed_override_changes_output(config_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["--out-dir", str(out_a), "train", str(config_path)])
    cli.main(["--seed", "17", "--out-dir", str(out_b), "train", str(config_path)])
    assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()


def test_train_resume_matches_straight_run(config_path, tmp_path):
    full_dir, half_dir, resumed_dir = (tmp_path / n for n in ("full", "half", "resumed"))
    cli.main(["--out-dir", str(full_dir), "train", str(config_path), "--train.epochs=4"])
    cli.main(["--out-dir", str(half_dir), "train", str(config_path)])
    cli.main(["--out-dir", str(resumed_dir), "train", str(config_path),
              "--train.epochs=4", "--resume", str(half_dir / "final.ckpt")])
    full_rows = (full_dir / "metrics.csv").read_text().splitlines()
    resumed_rows = (resumed_dir / "metrics.csv").read_text().splitlines()
    # resumed CSV holds exactly the continuation rows
    assert resumed_rows[1:] == full_rows[len(full_rows) - len(resumed_rows) + 1:]


def test_train_resume_into_same_dir_keeps_earlier_rows(config_path, tmp_path):
    full_dir, run_dir = tmp_path / "full", tmp_path / "run"
    cli.main(["--out-dir", str(full_dir), "train", str(config_path), "--train.epochs=4"])
    assert cli.main(["--out-dir", str(run_dir), "train", str(config_path)]) == 0
    assert cli.main(["--out-dir", str(run_dir), "train", str(config_path),
                     "--train.epochs=4", "--resume", str(run_dir / "final.ckpt")]) == 0
    for name in ("metrics.csv", "final.ckpt"):
        assert (run_dir / name).read_bytes() == (full_dir / name).read_bytes(), name
    manifest = json.loads((run_dir / "run.json").read_text())
    rows = (run_dir / "metrics.csv").read_text().splitlines()
    assert len(rows) == 1 + manifest["iterations"]


def test_train_resume_rewrites_metrics_that_do_not_end_at_the_checkpoint(config_path, tmp_path):
    half_dir, run_dir = tmp_path / "half", tmp_path / "run"
    cli.main(["--out-dir", str(half_dir), "train", str(config_path)])
    cli.main(["--out-dir", str(run_dir), "train", str(config_path), "--train.epochs=3"])
    cli.main(["--out-dir", str(run_dir), "train", str(config_path),
              "--train.epochs=4", "--resume", str(half_dir / "final.ckpt")])
    rows = (run_dir / "metrics.csv").read_text().splitlines()
    iterations = json.loads((half_dir / "run.json").read_text())["iterations"]
    assert rows[1].split(",")[0] == str(iterations)


def test_rejected_resume_keeps_the_directory_outputs(config_path, tmp_path):
    # an eigen checkpoint cannot continue as an inverse run (exit 3); the
    # metrics and checkpoint of the run already in the directory must survive
    half_dir, run_dir = tmp_path / "half", tmp_path / "run"
    assert cli.main(["--out-dir", str(half_dir), "train", str(config_path)]) == 0
    assert cli.main(["--out-dir", str(run_dir), "train", str(config_path),
                     "--train.epochs=3"]) == 0
    kept = {name: (run_dir / name).read_bytes() for name in ("metrics.csv", "final.ckpt")}
    code = cli.main(["--out-dir", str(run_dir), "train", str(config_path),
                     "--train.epochs=4", "--hyper.inv_type=inverse",
                     "--resume", str(half_dir / "final.ckpt")])
    assert code == cli.EXIT_DATA
    for name, data in kept.items():
        assert (run_dir / name).read_bytes() == data, name
    manifest = json.loads((run_dir / "run.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["exit_code"] == cli.EXIT_DATA
    assert "inv_type 'inverse'" in manifest["error"]
    assert manifest["last_iteration"] is None


def test_finished_run_manifest_records_its_outcome(config_path, tmp_path):
    for inv_type in ("eigen", "inverse"):
        out = tmp_path / inv_type
        assert cli.main(["--out-dir", str(out), "train", str(config_path),
                         f"--hyper.inv_type={inv_type}"]) == 0
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["status"] == "finished"
        assert manifest["exit_code"] == 0
        assert manifest["error"] is None
        assert manifest["last_iteration"] == manifest["iterations"] - 1
        # the build of the library that inverts, for a run that does
        cholesky = manifest["numeric_env"]["cholesky_blas"]
        assert cholesky is None if inv_type == "eigen" else cholesky.startswith("OpenBLAS ")


_KERNEL_SETTINGS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")
_NUMERIC_ENV = """
    import json, os
    from kfaclab import cli
    assert cli.main(["--out-dir", {out!r}, "train", {config!r}]) == 0
    print(json.dumps(json.load(open(os.path.join({out!r}, "run.json")))["numeric_env"]))
"""


def test_numeric_env_records_numpys_simd_dispatch(config_path, tmp_path, monkeypatch):
    # numpy's exp and tanh change their last bits with the SIMD target, so a
    # run without the AVX-512 targets must not look like the default run
    for name in _KERNEL_SETTINGS:
        monkeypatch.delenv(name, raising=False)
    default = _fresh(_NUMERIC_ENV.format(out=str(tmp_path / "default"), config=str(config_path)))
    assert [default[name] for name in _KERNEL_SETTINGS] == [None] * 3
    if "X86_V4" not in (default["numpy_simd"] or ()):
        pytest.skip("this host's numpy does not dispatch X86_V4, so there is nothing to disable")
    disabled = "AVX512_SPR AVX512_ICL X86_V4"
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", disabled)
    narrow = _fresh(_NUMERIC_ENV.format(out=str(tmp_path / "narrow"), config=str(config_path)))
    assert narrow != default
    assert narrow["NPY_DISABLE_CPU_FEATURES"] == disabled
    assert "X86_V4" not in narrow["numpy_simd"]


def test_dp_and_mpd_loss_columns_identical_single_worker(config_path, tmp_path):
    def losses(algorithm, out):
        code = cli.main([
            "--out-dir", str(out), "train", str(config_path),
            f"--train.algorithm={algorithm}", "--train.workers=1",
        ])
        assert code == 0
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        return [float(line.split(",")[3]) for line in rows]

    dp = losses("dp_kfac", tmp_path / "dp")
    mo = losses("mpd_kfac_mo", tmp_path / "mo")
    assert len(dp) == len(mo)
    assert max(abs(a - b) for a, b in zip(dp, mo)) <= 1e-12


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(SMALL_CONFIG.replace("lr = 0.05", "lr = banana"))
    assert cli.main(["train", str(bad)]) == cli.EXIT_CONFIG
    assert cli.main(["train", str(tmp_path / "missing.ini")]) == cli.EXIT_CONFIG


def test_config_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(SMALL_CONFIG.encode() + b"# \xff\n")
    assert cli.main(["train", str(bad)]) == cli.EXIT_CONFIG
    assert str(bad) in capsys.readouterr().err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# the documented contract (README, cli docstring), written out independently
DOCUMENTED_EXIT_CODES = {
    "ConfigError": 2, "DataFormatError": 3, "ArgumentError": 3, "ShapeError": 3,
    "CapacityError": 3, "OrderingError": 3, "NumericError": 4,
}


def test_every_package_error_has_a_documented_exit_code(monkeypatch, capsys):
    classes = list(_subclasses(errors.KfacLabError))
    assert sorted(c.__name__ for c in classes) == sorted(DOCUMENTED_EXIT_CODES)
    for cls in classes:
        def fail(args, cls=cls):
            raise cls("planted failure")

        monkeypatch.setattr(cli, "cmd_verify", fail)
        code = cli.main(["verify", "oracle"])
        assert code == DOCUMENTED_EXIT_CODES[cls.__name__], cls.__name__
        assert "planted failure" in capsys.readouterr().err


def test_numeric_failure_exit_code_keeps_partial_csv(config_path, tmp_path, capsys):
    # zero damping on rank-deficient local factors fails inside the first
    # preconditioning step; the metrics file must survive with its header
    out = tmp_path / "out"
    code = cli.main(["--out-dir", str(out), "train", str(config_path),
                     "--hyper.gamma=0.0"])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "worker" in err and "layer" in err
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("iteration,")


def test_out_dir_accepted_after_train_subcommand(config_path, tmp_path):
    # the argument order the README shows
    out = tmp_path / "blobs_ssgd"
    code = cli.main(["train", str(config_path), "--train.algorithm=ssgd", "--out-dir", str(out)])
    assert code == 0
    assert (out / "metrics.csv").is_file()
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["config"]["train"]["algorithm"] == "ssgd"


def test_out_dir_under_a_file_is_config_error(config_path, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = cli.main(["--out-dir", str(blocker / "sub"), "train", str(config_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert f"train.out_dir: cannot create {blocker / 'sub'}: Not a directory" in err
    assert "Traceback" not in err
    assert blocker.read_text() == ""


def test_metrics_path_that_is_a_directory_is_config_error(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "metrics.csv").mkdir(parents=True)
    code = cli.main(["--out-dir", str(out), "train", str(config_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert f"train.out_dir: cannot open {out / 'metrics.csv'}: Is a directory" in err
    assert "Traceback" not in err
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["exit_code"] == cli.EXIT_CONFIG
    assert "metrics.csv: Is a directory" in manifest["error"]
    assert not (out / "final.ckpt").exists()


DIVERGING_CONFIG = """
[network]
layer_dims = 16,16
activation = identity
loss_kind = mean_squared_error

[data]
kind = deep_linear_regression
dim = 16
out_dim = 16

[train]
algorithm = ssgd
workers = 2
epochs = 8
batch_size = 64
seed = 0

[hyper]
lr = 5
"""


def test_checkpoint_path_that_is_a_directory_is_config_error(config_path, tmp_path, capsys):
    # the run trains in full, then cannot place final.ckpt: run.json must
    # not say finished, and no temporary file may stay behind
    out = tmp_path / "out"
    (out / "final.ckpt").mkdir(parents=True)
    code = cli.main(["--out-dir", str(out), "train", str(config_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert err.splitlines() == [
        f"config error: train.out_dir: cannot write {out / 'final.ckpt'}: Is a directory"]
    manifest = json.loads((out / "run.json").read_text())
    assert (manifest["status"], manifest["exit_code"]) == ("failed", cli.EXIT_CONFIG)
    assert "final.ckpt: Is a directory" in manifest["error"]
    assert sorted(p.name for p in out.iterdir()) == ["final.ckpt", "metrics.csv", "run.json"]


def test_manifest_path_that_is_a_directory_is_config_error(config_path, tmp_path, capsys):
    # run.json is written last, after final.ckpt
    out = tmp_path / "out"
    (out / "run.json").mkdir(parents=True)
    code = cli.main(["--out-dir", str(out), "train", str(config_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert err.splitlines() == [
        f"config error: train.out_dir: cannot write {out / 'run.json'}: Is a directory"]
    assert (out / "final.ckpt").is_file() and (out / "run.json").is_dir()
    assert sorted(p.name for p in out.iterdir()) == ["final.ckpt", "metrics.csv", "run.json"]


def test_failed_run_keeps_its_exit_code_when_run_json_also_fails(tmp_path, capsys):
    cfg = tmp_path / "diverge.ini"
    cfg.write_text(DIVERGING_CONFIG)
    out = tmp_path / "out"
    (out / "run.json").mkdir(parents=True)
    assert cli.main(["--out-dir", str(out), "train", str(cfg)]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "worker 0, iteration 160" in err and "run.json: Is a directory" in err


def test_diverged_run_exits_numeric_and_keeps_rows(tmp_path, capsys):
    # the loss first overflows at iteration 160; the run must stop there
    # with the numeric exit code instead of finishing on inf/nan weights
    cfg = tmp_path / "diverge.ini"
    cfg.write_text(DIVERGING_CONFIG)
    out = tmp_path / "out"
    code = cli.main(["--out-dir", str(out), "train", str(cfg)])
    assert code == cli.EXIT_NUMERIC
    assert "worker 0, iteration 160" in capsys.readouterr().err
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert len(rows) == 160
    assert all(np.isfinite(float(r.split(",")[3])) for r in rows)
    assert not (out / "final.ckpt").exists()


def test_diverged_run_manifest_says_why_it_stopped(tmp_path, capsys):
    cfg = tmp_path / "diverge.ini"
    cfg.write_text(DIVERGING_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "train", str(cfg)]) == cli.EXIT_NUMERIC
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["exit_code"] == cli.EXIT_NUMERIC
    assert "worker 0, iteration 160" in manifest["error"]
    assert manifest["last_iteration"] == 159
    assert manifest["config"]["hyper"]["lr"] == 5.0


def test_interrupted_run_manifest_records_the_exception(config_path, tmp_path, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_prepared", interrupt)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["--out-dir", str(out), "train", str(config_path)])
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["exit_code"] is None
    assert manifest["error"].startswith("KeyboardInterrupt")


def test_interrupt_is_raised_when_run_json_cannot_be_written(config_path, tmp_path,
                                                            monkeypatch, capsys):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_prepared", interrupt)
    out = tmp_path / "out"
    (out / "run.json").mkdir(parents=True)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["--out-dir", str(out), "train", str(config_path)])
    assert "run.json: Is a directory" in capsys.readouterr().err


def _out_of_memory(*args, **kwargs):
    raise MemoryError


def test_out_of_memory_before_the_run_directory_exists_exits_3(config_path, tmp_path,
                                                                monkeypatch, capsys):
    # the config check lays out the worker spans: a worker count too large
    # for memory ends there, before the output directory is made
    monkeypatch.setattr(config, "worker_spans", _out_of_memory)
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "train", str(config_path)]) == cli.EXIT_DATA
    assert capsys.readouterr().err.splitlines() == ["data error: train: out of memory"]
    assert not out.exists()


def test_out_of_memory_during_training_is_recorded_in_the_manifest(config_path, tmp_path,
                                                                    monkeypatch, capsys):
    monkeypatch.setattr(trainer, "provision_dataset", _out_of_memory)
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "train", str(config_path)]) == cli.EXIT_DATA
    assert capsys.readouterr().err.splitlines() == ["data error: train: out of memory"]
    manifest = json.loads((out / "run.json").read_text())
    assert (manifest["status"], manifest["exit_code"]) == ("failed", cli.EXIT_DATA)
    assert manifest["error"] == "train: out of memory"


@pytest.mark.parametrize("argv, binding", [
    (["cost", "resnet50"], "cmd_cost"),
    (["verify", "oracle"], "cmd_verify"),
    (["gen-data", "gaussian_blobs", "--images", "x", "--labels", "y"], "cmd_gen_data"),
])
def test_every_command_out_of_memory_exits_3(monkeypatch, capsys, argv, binding):
    monkeypatch.setattr(cli, binding, _out_of_memory)
    assert cli.main(argv) == cli.EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [f"data error: {argv[0]}: out of memory"]


def test_cost_command_toy_manifest(tmp_path, capsys):
    manifest = tmp_path / "toy.txt"
    manifest.write_text("4 3\n")
    json_out = tmp_path / "cost.json"
    code = cli.main(["cost", str(manifest), "--p", "2", "--alg", "dp_kfac,ssgd",
                     "--json", str(json_out)])
    assert code == 0
    out = capsys.readouterr().out
    assert "N_g=12" in out and "N_f=25" in out
    payload = json.loads(json_out.read_text())
    assert payload["manifest"] == {"layers": 1, "n_g": 12, "n_f": 25,
                                   "nf_ng_ratio": 25 / 12}
    dp = next(r for r in payload["reports"] if r["algorithm"] == "dp_kfac")
    assert dp["factorcomm"] == 0
    assert dp["predcomm"] == 12


def test_cost_command_bundled_resnet50(capsys):
    assert cli.main(["cost", "resnet50", "--p", "64", "--alg", "mpd_kfac_mo,dp_kfac"]) == 0
    out = capsys.readouterr().out
    assert "N_g=25503912" in out
    assert "N_f=153851562" in out
    assert "factorcomm eliminated" in out


def test_cost_command_amortized_json(tmp_path):
    manifest = tmp_path / "toy.txt"
    manifest.write_text("4 3\n3 2\n")
    json_out = tmp_path / "cost.json"
    cli.main(["cost", str(manifest), "--p", "4", "--alg", "dp_kfac",
              "--f-freq", "10", "--k-freq", "50", "--json", str(json_out)])
    payload = json.loads(json_out.read_text())
    report = payload["reports"][0]
    amortized = payload["amortized"][0]
    assert amortized["factorcomp"] == report["factorcomp"] / 10
    assert amortized["inversecomp"] == report["inversecomp"] / 50


def test_cost_text_prints_the_amortized_rows(tmp_path, capsys):
    # under each P's table, every stage at the --json amortized value
    json_out = tmp_path / "cost.json"
    assert cli.main(["cost", "resnet50", "--p", "1,64", "--f-freq", "5", "--k-freq", "10",
                     "--json", str(json_out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    amortized = json.loads(json_out.read_text())["amortized"]
    heads = [i for i, line in enumerate(lines)
             if line == "amortized over f_freq = 5, k_freq = 10 (mean per iteration)"]
    assert len(heads) == 2
    for head, p in zip(heads, (1, 64)):
        assert lines[head - 1].startswith("dp vs mpd:")
        rows = [a for a in amortized if a["workers"] == p]
        for line, (attr, label) in zip(lines[head + 1:], cli._COST_FIELDS[:-1]):
            assert line.split() == [label] + [f"{a[attr]:.1f}" for a in rows]
    assert lines[heads[0] + 8] == ""


def test_cost_json_is_pinned(tmp_path):
    # every report and amortized value of the bundled ResNet-50 manifest, byte for byte
    json_out = tmp_path / "cost.json"
    assert cli.main(["cost", "resnet50", "--f-freq", "5", "--k-freq", "10",
                     "--json", str(json_out)]) == 0
    assert hashlib.sha256(json_out.read_bytes()).hexdigest() == (
        "29035274f03927d84d60ab22f0a7c0e4b854ade93e905c548c39c2495bd27ac9")


def test_cost_text_is_pinned(capsys):
    # the default table, byte for byte
    assert cli.main(["cost", "resnet50"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "4dde96f010f1514555ada546449a8c39fa2672f1a25c2a5cd65f2d94dd22ca16")


def test_cost_cells_are_separated_and_exact(tmp_path, capsys):
    # 28-digit counts: every cell its own column, with the --json digits
    json_out = tmp_path / "cost.json"
    assert cli.main(["cost", "resnet50", "--p", str(10**20), "--json", str(json_out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    reports = json.loads(json_out.read_text())["reports"]
    assert lines[3].split() == ["stage"] + [r["algorithm"] for r in reports]
    for attr, label in cli._COST_FIELDS:
        cells = next(line for line in lines if line.startswith(label + " ")).split()
        want = [f"{r[attr]:.0f}" if isinstance(r[attr], float) else str(r[attr])
                for r in reports]
        assert cells == [label] + want
    assert str(2 * (10**20 - 1) * 25503912) in lines[7]


def test_cost_missing_manifest_exit_code():
    assert cli.main(["cost", "/no/such/manifest.txt"]) == cli.EXIT_DATA


# flag values -> (exit code, text the one-line message must hold)
_BAD_COST = {
    "p-not-integer": (["{toy}", "--p", "x"], cli.EXIT_DATA, "--p: expected"),
    "p-empty": (["{toy}", "--p", ","], cli.EXIT_DATA, "--p: names nothing"),
    "alg-empty": (["{toy}", "--alg", ","], cli.EXIT_DATA, "--alg: names nothing"),
    "p-empty-item": (["{toy}", "--p", "4,,8"], cli.EXIT_DATA, "--p: empty item in '4,,8'"),
    "p-trailing-comma": (["{toy}", "--p", "4,"], cli.EXIT_DATA, "--p: empty item in '4,'"),
    "p-repeated": (["{toy}", "--p", "4,4"], cli.EXIT_DATA, "--p: 4 named twice in '4,4'"),
    "p-repeated-spelled-apart": (["{toy}", "--p", "8, 4,08"], cli.EXIT_DATA,
                                 "--p: 8 named twice in '8, 4,08'"),
    "alg-empty-item": (["{toy}", "--alg", "ssgd,,dp_kfac"], cli.EXIT_DATA,
                       "--alg: empty item in 'ssgd,,dp_kfac'"),
    "alg-repeated": (["{toy}", "--alg", "dp_kfac,dp_kfac"], cli.EXIT_DATA,
                     "--alg: dp_kfac named twice in 'dp_kfac,dp_kfac'"),
    "f-freq-zero": (["{toy}", "--f-freq", "0"], cli.EXIT_DATA, "staleness intervals"),
    "k-freq-zero": (["{toy}", "--k-freq", "0"], cli.EXIT_DATA, "staleness intervals"),
    "manifest-directory": (["{dir}"], cli.EXIT_DATA, "cannot read manifest"),
    "manifest-not-utf8": (["{binary}"], cli.EXIT_DATA,
                          "binary.txt: cannot read manifest: not UTF-8"),
    "json-unwritable": (["{toy}", "--json", "{missing}"], cli.EXIT_CONFIG, "--json: cannot write"),
}


@pytest.mark.parametrize("case", _BAD_COST)
def test_cost_bad_input_is_a_typed_one_line_error(tmp_path, capsys, case):
    flags, code, names = _BAD_COST[case]
    toy = tmp_path / "toy.txt"
    toy.write_text("4 3\n3 2\n")
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"4 3\n\xff\xfe 2\n")
    paths = {"toy": toy, "dir": tmp_path, "binary": binary,
             "missing": tmp_path / "no" / "such" / "a.json"}
    assert cli.main(["cost", *(f.format(**paths) for f in flags)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and names in err, err


_BAD_GEN_DATA = {
    "rows-zero": (["--rows", "0"], cli.EXIT_DATA, "--rows 0 must be >= 1"),
    "noise-nan": (["--noise", "nan"], cli.EXIT_DATA, "noise must be finite"),
    "noise-inf": (["--noise", "inf"], cli.EXIT_DATA, "noise must be finite"),
    "noise-negative": (["--noise", "-0.5"], cli.EXIT_DATA, "noise must be finite"),
    "seed-negative": (["--seed", "-1"], cli.EXIT_DATA, "seed must be >= 0, got -1"),
    "images-unwritable": (["--images", "{missing}"], cli.EXIT_CONFIG, "--images: cannot write"),
    "labels-unwritable": (["--labels", "{missing}"], cli.EXIT_CONFIG, "--labels: cannot write"),
}


@pytest.mark.parametrize("case", _BAD_GEN_DATA)
def test_gen_data_bad_input_is_a_typed_one_line_error(tmp_path, capsys, case):
    flags, code, names = _BAD_GEN_DATA[case]
    missing = tmp_path / "no" / "such" / "file.idx"
    argv = ["gen-data", "gaussian_blobs", "--dim", "16", "--rows", "4", "--samples", "20",
            "--images", str(tmp_path / "x.idx"), "--labels", str(tmp_path / "y.idx")]
    flags = [f.format(missing=missing) for f in flags]
    # --seed is kfaclab's own flag, given before the subcommand
    argv = flags + argv if flags[0] == "--seed" else argv + flags
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and names in err, err


@pytest.mark.parametrize("unwritable", ["images", "labels", "labels-is-a-directory"])
def test_gen_data_failure_leaves_neither_file(tmp_path, capsys, unwritable):
    out = tmp_path / "out"
    out.mkdir()
    paths = {"images": out / "x.idx", "labels": out / "y.idx"}
    if unwritable == "labels-is-a-directory":
        paths["labels"].mkdir()  # written in full, then cannot be moved into place
    else:
        paths[unwritable] = tmp_path / "no" / "such" / "file.idx"
    code = cli.main(["gen-data", "gaussian_blobs", "--dim", "16", "--rows", "4", "--samples", "20",
                     "--images", str(paths["images"]), "--labels", str(paths["labels"])])
    assert code == cli.EXIT_CONFIG
    flag = "--images" if unwritable == "images" else "--labels"
    assert f"{flag}: cannot write" in capsys.readouterr().err
    left = sorted(p.name for p in out.iterdir())
    assert left == (["y.idx"] if unwritable == "labels-is-a-directory" else []), left


def test_cost_json_failure_leaves_no_partial_file(tmp_path, capsys):
    toy = tmp_path / "toy.txt"
    toy.write_text("4 3\n3 2\n")
    json_out = tmp_path / "cost.json"
    json_out.mkdir()  # written in full, then cannot be moved into place
    assert cli.main(["cost", str(toy), "--json", str(json_out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"--json: cannot write {json_out}" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cost.json", "toy.txt"]


@pytest.fixture
def fresh_lapack():
    numerics.openblas.cache_clear()
    yield
    numerics.openblas.cache_clear()


@pytest.mark.parametrize("scipy_dir", [None, "empty"])
def test_inverse_run_without_the_lapack_extension_is_a_config_error(
        config_path, tmp_path, monkeypatch, capsys, fresh_lapack, scipy_dir):
    find_spec = importlib.util.find_spec
    fake = None
    if scipy_dir is not None:
        fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        fake.submodule_search_locations = [str(tmp_path / scipy_dir)]
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *rest: fake if name == "scipy" else find_spec(name, *rest))
    assert cli.main(["--out-dir", str(tmp_path / "out"), "train", str(config_path),
                     "--hyper.inv_type=inverse"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error: worker 0, layer 0, iteration 0: hyper.inv_type = inverse needs "
        "scipy.libs/libscipy_openblas-*.so",
        f"partial metrics kept at {tmp_path / 'out' / 'metrics.csv'}"]
    manifest = json.loads((tmp_path / "out" / "run.json").read_text())
    assert manifest["exit_code"] == cli.EXIT_CONFIG
    assert manifest["numeric_env"]["cholesky_blas"] is None


@pytest.mark.parametrize("images, labels", [("same.idx", "same.idx"),
                                            ("./same.idx", "same.idx")])
def test_gen_data_names_both_flags_for_one_path(tmp_path, monkeypatch, capsys, images, labels):
    def no_data(*args):
        raise AssertionError("data generated before the paths were checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "gen_synthetic", no_data)
    assert cli.main(["gen-data", "gaussian_blobs", "--images", images,
                     "--labels", labels]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"config error: --images {images} and --labels {labels} name the same file"]
    assert list(tmp_path.iterdir()) == []


def test_noise_that_overflows_float64_is_a_data_error(config_path, tmp_path, capsys):
    # the fault is in the data: no all-zero IDX pair with exit 0, and no
    # "training loss is nan" with the numeric exit 4
    img, lab = tmp_path / "x.idx", tmp_path / "y.idx"
    assert cli.main(["gen-data", "gaussian_blobs", "--dim", "4", "--rows", "2", "--samples", "5",
                     "--classes", "2", "--noise", "1e308",
                     "--images", str(img), "--labels", str(lab)]) == cli.EXIT_DATA
    assert not img.exists() and not lab.exists()
    assert cli.main(["--out-dir", str(tmp_path / "out"), "train", str(config_path),
                     "--data.noise=1e308"]) == cli.EXIT_DATA
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["data error: synthetic dataset noise=1e+308 overflows float64: "
                     "the data would not be finite"] * 2, lines


def test_fewer_blob_samples_than_classes_is_a_config_error(config_path, tmp_path, capsys):
    # exit 2 naming the key, as for every other bad [data] value, not a data error
    assert cli.main(["--out-dir", str(tmp_path / "out"), "train", str(config_path),
                     "--data.samples=2"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config error: data.samples must be >= classes (3), got 2"]
    assert not (tmp_path / "out").exists()


def test_gen_data_round_trip(tmp_path):
    img, lab = tmp_path / "x.idx", tmp_path / "y.idx"
    code = cli.main(["--seed", "4", "gen-data", "gaussian_blobs", "--classes", "4",
                     "--dim", "16", "--samples", "32", "--noise", "0.1",
                     "--rows", "4", "--images", str(img), "--labels", str(lab)])
    assert code == 0
    data = load_idx(img, lab)
    assert data.n_samples == 32
    assert data.input_dim == 16
    assert set(np.unique(data.targets)) <= {0, 1, 2, 3}


def test_gen_data_bad_rows_exit_code(tmp_path):
    code = cli.main(["gen-data", "gaussian_blobs", "--dim", "10", "--rows", "3",
                     "--images", str(tmp_path / "i"), "--labels", str(tmp_path / "l")])
    assert code == cli.EXIT_DATA


def test_train_from_idx_files(tmp_path):
    img, lab = tmp_path / "x.idx", tmp_path / "y.idx"
    cli.main(["--seed", "4", "gen-data", "gaussian_blobs", "--classes", "3",
              "--dim", "16", "--samples", "60", "--noise", "0.1",
              "--rows", "4", "--images", str(img), "--labels", str(lab)])
    cfg = tmp_path / "idx.ini"
    cfg.write_text(f"""
[network]
layer_dims = 16,8,3

[data]
kind = idx
images = {img}
labels = {lab}
eval_fraction = 0.0

[train]
algorithm = ssgd
workers = 2
epochs = 1
batch_size = 30
seed = 0

[hyper]
lr = 0.05
""")
    assert cli.main(["--out-dir", str(tmp_path / "out"), "train", str(cfg)]) == 0
    rows = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert len(rows) == 3  # header + 2 iterations


def test_verify_command_all_pass(capsys):
    assert cli.main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_oracle_catches_broken_vec_convention(monkeypatch):
    # row-stacking instead of column-stacking must be caught by name
    def row_stacking_vec(m):
        return m.reshape((-1, 1), order="C").copy()

    monkeypatch.setattr(numerics, "vec", row_stacking_vec)
    results = verify.run_oracle_suite()
    failed = {r.name for r in results if not r.passed}
    assert "kron/vec mixed-product identity" in failed


def test_unrecognized_extra_args_rejected_outside_train(config_path):
    with pytest.raises(SystemExit):
        cli.main(["verify", "oracle", "--bogus.flag=1"])
