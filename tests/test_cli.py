import json

import numpy as np
import pytest

from kfaclab import cli, errors, numerics, verify
from kfaclab.datasets import load_idx

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


def test_cost_missing_manifest_exit_code():
    assert cli.main(["cost", "/no/such/manifest.txt"]) == cli.EXIT_DATA


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
