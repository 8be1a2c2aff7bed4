import csv
import json
import os
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dpkl import cli
from dpkl.cli import main
from dpkl.data import synth_blobs, synth_regression
from dpkl.trainer import TrainConfig

FAST = [
    "--m", "2", "--q", "8", "--max-epochs", "3", "--hidden-dims", "8",
    "--check-every", "2", "--latent-dim", "2",
]


def write_regression_csv(path, n=60, seed=0, D=1):
    ds = synth_regression("sine", n=n, D=D, noise_std=0.1, seed=seed)
    header = [f"x{i}" for i in range(D)] + ["y"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row, target in zip(ds.X, ds.y):
            w.writerow([*row, target])
    return path


def write_blobs_csv(path, n_per_class=30, seed=0):
    ds = synth_blobs(C=2, n_per_class=n_per_class, d_in=2, separation=6.0, seed=seed)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x0", "x1", "label"])
        for row, target in zip(ds.X, ds.y):
            w.writerow([*row, int(target)])
    return path


def run(args):
    return main([str(a) for a in args])


def expected_environment():
    import scipy

    from dpkl import threads

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # the pinning holds every loaded OpenBLAS to one thread; unknown without one
        "blas_threads": 1 if threads._openblas() else None,
        "kernel_workers": threads._WORKERS,
        # numpy's SIMD dispatch targets: whether the rff trig's np.tan is vectorised
        "numpy_simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"],
    }


class TestTrain:
    def test_regression_run_writes_artifacts(self, tmp_path, capsys):
        data = write_regression_csv(tmp_path / "sine.csv")
        out = tmp_path / "run"
        code = run(["train", "--task", "regression", "--data", data, "--target", "y",
                    "--n-labeled", "20", "--seed", "7", "--out", out, *FAST])
        assert code == 0
        assert (out / "checkpoint.json").exists()
        assert (out / "report.json").exists()
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["rmse"] >= 0.0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["m"] == 2
        assert report["config"]["seed"] == 7
        assert len(report["run"]["epochs"]) == 3
        assert "spearman_variance_error" in report["test"]

    def test_report_records_step_diagnostics(self, tmp_path):
        data = write_regression_csv(tmp_path / "sine.csv")
        out = tmp_path / "run"
        assert run(["train", "--data", data, "--target", "y", "--n-labeled", "20",
                    "--out", out, *FAST]) == 0
        epochs = json.loads((out / "report.json").read_text())["run"]["epochs"]
        for rec in epochs:
            assert rec["grad_norm"] > 0.0 and rec["mixed_grad_norm"] > 0.0
            assert rec["chol_min_diag"] > 0.0

    def test_report_records_environment(self, tmp_path):
        data = write_regression_csv(tmp_path / "sine.csv")
        out = tmp_path / "run"
        assert run(["train", "--data", data, "--target", "y", "--n-labeled", "20",
                    "--out", out, *FAST]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["environment"] == expected_environment()
        assert report["environment"]["kernel_workers"] in (1, 2)

    def test_blas_threads_read_inside_the_pinning(self, monkeypatch):
        from dpkl import cli, threads

        # the loaded OpenBLAS libraries are pinned and read
        counts = [4, 3]
        libs = [(lambda i=i: counts[i], lambda n, i=i: counts.__setitem__(i, n)) for i in (0, 1)]
        monkeypatch.setattr(threads, "_openblas", lambda: libs)
        assert cli.environment()["blas_threads"] == 1
        assert counts == [4, 3]
        monkeypatch.setattr(threads, "_openblas", lambda: [])
        with pytest.warns(RuntimeWarning, match="no OpenBLAS found"):
            assert cli.environment()["blas_threads"] is None

    def test_ssdpkl_without_pool_fails(self, tmp_path, capsys):
        data = write_regression_csv(tmp_path / "sine.csv")
        code = run(["train", "--data", data, "--target", "y", "--n-labeled", "20",
                    "--mode", "ssdpkl", "--out", tmp_path / "run", *FAST])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        # fit's rule is the only one: the empty pool reaches it
        assert record["error"] == "EmptyUnlabeledSet"

    def test_dkl_with_extra_particles_fails(self, tmp_path, capsys):
        data = write_regression_csv(tmp_path / "sine.csv")
        code = run(["train", "--data", data, "--target", "y", "--n-labeled", "20",
                    "--mode", "dkl", "--m", "5", "--out", tmp_path / "run"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"

    def test_dkl_defaults_to_one_particle(self, tmp_path, capsys):
        data = write_regression_csv(tmp_path / "sine.csv")
        out = tmp_path / "run"
        code = run(["train", "--data", data, "--target", "y", "--n-labeled", "20",
                    "--mode", "dkl", "--out", out, "--q", "8", "--max-epochs", "2",
                    "--hidden-dims", "8"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["m"] == 1

    def test_ssdpkl_trains_with_pool(self, tmp_path):
        data = write_regression_csv(tmp_path / "sine.csv", n=80)
        out = tmp_path / "run"
        code = run(["train", "--data", data, "--target", "y", "--n-labeled", "20",
                    "--n-unlabeled", "30", "--mode", "ssdpkl", "--out", out, *FAST])
        assert code == 0

    def test_classification_run(self, tmp_path):
        data = write_blobs_csv(tmp_path / "blobs.csv")
        out = tmp_path / "run"
        code = run(["train", "--task", "classification", "--data", data,
                    "--target", "label", "--n-labeled", "40", "--out", out,
                    "--m", "2", "--max-epochs", "4", "--hidden-dims", "8",
                    "--learning-rate", "0.01"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "accuracy" in report["test"]
        assert "entropy" in report["test"]["per_point"]

    def test_zero_epoch_classification_writes_strict_json(self, tmp_path):
        data = write_blobs_csv(tmp_path / "blobs.csv")
        out = tmp_path / "run"
        code = run(["train", "--task", "classification", "--data", data,
                    "--target", "label", "--n-labeled", "40", "--out", out,
                    *FAST, "--max-epochs", "0"])
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        docs = {p.name: json.loads(p.read_text(), parse_constant=reject)
                for p in out.glob("*.json")}
        assert set(docs) == {"checkpoint.json", "report.json"}
        run_doc = docs["report.json"]["run"]
        assert run_doc["epochs"] == []
        assert run_doc["final_train_nll"] is None and run_doc["final_objective"] is None

    def test_build_version_spawns_git_once(self, monkeypatch):
        calls, spawn = [], subprocess.run

        def counted(*args, **kwargs):
            calls.append(args)
            return spawn(*args, **kwargs)

        monkeypatch.setattr(cli.subprocess, "run", counted)
        cli.build_version.cache_clear()
        version = cli.build_version()
        cli.build_parser()
        assert cli.build_version() == version
        assert len(calls) == 1

    def test_missing_file_is_user_error(self, tmp_path, capsys):
        code = run(["train", "--data", tmp_path / "nope.csv", "--target", "y",
                    "--n-labeled", "5", "--out", tmp_path / "run"])
        assert code == 1
        assert "error" in json.loads(capsys.readouterr().err.strip())
        assert not (tmp_path / "run").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        data = write_regression_csv(tmp_path / "sine.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 4\nmax_epochs = 2\nq = 8\nhidden_dims = 8\nseed = 3\n")
        out = tmp_path / "run"
        code = run(["train", "--data", data, "--target", "y", "--n-labeled", "20",
                    "--config", cfg, "--m", "2", "--out", out])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["m"] == 2        # flag beats file
        assert report["config"]["max_epochs"] == 2  # file beats default
        assert report["config"]["seed"] == 3

    @pytest.mark.parametrize("split_flags, n_test", [
        (["--n-test", "10", "--no-normalize-features"], 10),
        ([], 25),  # every row not labeled or unlabeled
    ], ids=["given", "resolved"])
    def test_record_holds_the_split_and_data_flags(self, tmp_path, split_flags, n_test):
        # the record reproduces its own split: sizes, the resolved n_test and how
        # the data file was read and normalized
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        out = tmp_path / "run"
        assert run(["train", "--data", data, "--target", "y", "--n-labeled", "30",
                    "--n-unlabeled", "5", *split_flags, "--out", out, *FAST]) == 0
        expected = {"task": "regression", "data": str(data), "target": "y", "n_labeled": 30,
                    "n_unlabeled": 5, "n_test": n_test, "delimiter": ",", "no_header": False,
                    "skip_bad_rows": False, "no_normalize_features": bool(split_flags)}
        report = json.loads((out / "report.json").read_text())["config"]
        checkpoint = json.loads((out / "checkpoint.json").read_text())["config"]
        for config in (report, checkpoint):
            assert {k: config.get(k) for k in expected} == expected
            assert config["m"] == 2 and config["max_epochs"] == 3
        assert report == checkpoint


@pytest.fixture
def trained(tmp_path):
    data = write_regression_csv(tmp_path / "sine.csv")
    out = tmp_path / "run"
    assert run(["train", "--data", data, "--target", "y", "--n-labeled", "20",
                "--seed", "1", "--out", out, *FAST]) == 0
    return data, out / "checkpoint.json"


class TestPredict:
    def test_predict_on_training_file(self, trained, tmp_path):
        data, ckpt = trained
        out_csv = tmp_path / "pred.csv"
        assert run(["predict", "--checkpoint", ckpt, "--data", data, "--out", out_csv]) == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        variances = np.array([float(r["variance"]) for r in rows])
        means = np.array([float(r["mean"]) for r in rows])
        assert np.all(np.isfinite(means)) and np.all(np.isfinite(variances))
        assert np.all(variances >= 0.0)
        assert (tmp_path / "pred.meta.json").exists()

    def test_predict_without_target_column(self, trained, tmp_path):
        data, ckpt = trained
        query = tmp_path / "query.csv"
        with open(data, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(query, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in rows:
                w.writerow(row[:-1])
        out_csv = tmp_path / "pred2.csv"
        assert run(["predict", "--checkpoint", ckpt, "--data", query, "--out", out_csv]) == 0

    def test_meta_records_environment(self, trained, tmp_path):
        data, ckpt = trained
        assert run(["predict", "--checkpoint", ckpt, "--data", data,
                    "--out", tmp_path / "pred.csv"]) == 0
        meta = json.loads((tmp_path / "pred.meta.json").read_text())
        assert meta["environment"] == expected_environment()

    @pytest.mark.parametrize("body", ["x0,y\n0.5,\n0.7,\n", "y,x0\n,0.5\n,0.7\n"])
    def test_blank_target_cells_are_not_read(self, trained, tmp_path, body):
        _, ckpt = trained
        (tmp_path / "with_target.csv").write_text(body)
        (tmp_path / "features.csv").write_text("x0\n0.5\n0.7\n")
        for name in ("with_target", "features"):
            assert run(["predict", "--checkpoint", ckpt, "--data", tmp_path / f"{name}.csv",
                        "--out", tmp_path / f"{name}_pred.csv"]) == 0
        predictions = (tmp_path / "with_target_pred.csv").read_bytes()
        assert predictions == (tmp_path / "features_pred.csv").read_bytes()
        assert len(predictions.splitlines()) == 3

    def test_headerless_query_without_target_blames_target(self, trained, tmp_path, capsys):
        # the checkpoint's target "y" names no column "0".."k-1" of a headerless
        # file, so no column is dropped: the error names --target, not the model
        data, ckpt = trained
        query = tmp_path / "plain.csv"
        query.write_text("".join(data.read_text().splitlines(keepends=True)[1:]))
        args = ["predict", "--checkpoint", ckpt, "--data", query, "--no-header",
                "--out", tmp_path / "p.csv"]
        assert run(args) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError" and "--target" in record["message"]
        assert not (tmp_path / "p.csv").exists()
        assert run([*args, "--target", "1"]) == 0
        assert len((tmp_path / "p.csv").read_text().splitlines()) == 61

    def test_dimension_mismatch_fails(self, trained, tmp_path, capsys):
        _, ckpt = trained
        bad = write_regression_csv(tmp_path / "wide.csv", D=3)
        code = run(["predict", "--checkpoint", ckpt, "--data", bad, "--out", tmp_path / "p.csv"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "CheckpointError"


class TestBenchmark:
    def bench_args(self, data, out, workers=1):
        return ["benchmark", "--data", data, "--target", "y", "--sizes", "14,18",
                "--trials", "2", "--modes", "dpkl,dkl", "--seed", "5",
                "--n-test", "20", "--workers", workers, "--out", out, *FAST]

    def test_grid_rows_and_summary(self, tmp_path):
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        out = tmp_path / "bench"
        assert run(self.bench_args(data, out)) == 0
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8  # 2 modes x 2 sizes x 2 trials
        assert {r["mode"] for r in rows} == {"dpkl", "dkl"}
        with open(out / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 4
        assert all(float(r["rmse_std"]) >= 0.0 for r in summary)
        assert (out / "results.meta.json").exists()

    @pytest.mark.parametrize("flag", [["--task", "classification"], ["--n-labeled", "5"],
                                      ["--mode", "ssdpkl"]], ids=["task", "n_labeled", "mode"])
    def test_train_only_flag_is_usage_error(self, tmp_path, capsys, flag):
        # the grid always trains regression cells of the --sizes sizes
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        out = tmp_path / "bench"
        with pytest.raises(SystemExit) as exc:
            run([*self.bench_args(data, out), *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["task = classification", "n_labeled = 5", "mode = ssdpkl"],
                             ids=["task", "n_labeled", "mode"])
    def test_train_only_config_key_is_exit_one(self, tmp_path, capsys, line):
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "bench"
        assert run([*self.bench_args(data, out), "--config", cfg]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert repr(line.split(" = ")[0]) in record["message"]
        assert not out.exists()

    def test_rerun_is_idempotent(self, tmp_path):
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        out = tmp_path / "bench"
        assert run(self.bench_args(data, out)) == 0
        first = (out / "results.csv").read_bytes()
        first_summary = (out / "summary.csv").read_bytes()
        assert run(self.bench_args(data, out)) == 0
        assert (out / "results.csv").read_bytes() == first
        assert (out / "summary.csv").read_bytes() == first_summary

    @pytest.mark.parametrize("old", ["mode,n,trial,seed,rmse,nll\ndpkl,14,0,5,0.5,1.0\n", ""],
                             ids=["pre-dataset-header", "empty"])
    def test_results_of_another_header_is_exit_one_before_any_cell(self, tmp_path, capsys,
                                                                    monkeypatch, old):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "_run_training", no_cell)
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        out = tmp_path / "bench"
        out.mkdir()
        (out / "results.csv").write_text(old)
        assert run(self.bench_args(data, out)) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert str(out / "results.csv") in record["message"]
        assert (out / "results.csv").read_text() == old
        assert sorted(p.name for p in out.iterdir()) == ["results.csv"]

    # a crash mid-append leaves a short last row; a hand-edited file, cells
    # that are not numbers
    @pytest.mark.parametrize("bad", ["sine,dpkl,20", "sine,dpkl,20,0,x,0.5,1.0",
                                     "sine,dpkl,20,0,5,0.5,1.0,2"],
                             ids=["truncated", "non-integer-seed", "extra-cell"])
    def test_malformed_results_row_is_exit_one_before_any_cell(self, tmp_path, capsys,
                                                               monkeypatch, bad):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "_run_training", no_cell)
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        out = tmp_path / "bench"
        out.mkdir()
        old = "dataset,mode,n,trial,seed,rmse,nll\nsine,dpkl,14,0,5,0.5,1.0\n" + bad
        (out / "results.csv").write_text(old)
        assert run(self.bench_args(data, out)) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert f"{out / 'results.csv'}: row 3 " in record["message"]
        assert (out / "results.csv").read_text() == old
        assert sorted(p.name for p in out.iterdir()) == ["results.csv"]

    def test_resume_is_per_dataset(self, tmp_path, capsys):
        # a second dataset into the same --out runs its own cells, and the
        # summary keeps each dataset's rows apart
        out = tmp_path / "bench"
        sine = write_regression_csv(tmp_path / "sine.csv", n=60)
        other = write_regression_csv(tmp_path / "resampled.csv", n=60, seed=1)
        assert run(self.bench_args(sine, out)) == 0
        capsys.readouterr()
        assert run(self.bench_args(other, out)) == 0
        assert json.loads(capsys.readouterr().out)["new_rows"] == 8
        with open(out / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        assert [(r["dataset"], r["mode"], r["n"], r["trials"]) for r in summary] == [
            (dataset, mode, n, "2") for dataset in ("resampled", "sine")
            for mode in ("dkl", "dpkl") for n in ("14", "18")
        ]

    def test_unknown_mode_flag_is_usage_error(self, tmp_path, capsys):
        # every --modes entry is checked at parse time, not cell by cell
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        args = self.bench_args(data, tmp_path / "bench")
        args[args.index("--modes") + 1] = "dpkl,dlk"
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 2
        assert "dlk" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    def test_unknown_mode_in_config_is_exit_one_before_reading_data(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("modes = dpkl,dlk\n")
        code = run(["benchmark", "--data", tmp_path / "nope.csv", "--target", "y",
                    "--config", cfg, "--out", tmp_path / "bench"])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "modes" in record["message"] and "'dlk'" in record["message"]
        assert not (tmp_path / "bench").exists()

    def test_every_mode_tests_on_the_same_rows(self, tmp_path, monkeypatch):
        # a trial's cells differ only in mode, so they must score the same rows:
        # dpkl and dkl carve out the --n-unlabeled rows too, and leave them unused
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        test_rows, split = {}, cli.split

        def recording_split(ds, spec):
            parts = split(ds, spec)
            test_rows.setdefault((spec.n_labeled, spec.seed), []).append(parts["test"].X)
            return parts

        monkeypatch.setattr(cli, "split", recording_split)
        assert run([*self.bench_args(data, tmp_path / "bench"), "--modes", "dpkl,ssdpkl",
                    "--n-unlabeled", "10"]) == 0
        assert len(test_rows) == 4  # 2 sizes x 2 trials
        for dpkl_rows, ssdpkl_rows in test_rows.values():
            np.testing.assert_array_equal(dpkl_rows, ssdpkl_rows)

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--modes", ","),
                                             ("--sizes", ",")], ids=["trials", "modes", "sizes"])
    def test_empty_grid_is_exit_one_before_reading_data(self, tmp_path, capsys, flag, value):
        args = self.bench_args(tmp_path / "nope.csv", tmp_path / "bench")
        args[args.index(flag) + 1] = value
        assert run(args) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "empty grid" in record["message"]
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("flag, value, named", [("--sizes", "14,18,14", "size 14"),
                                                    ("--modes", "dpkl,dkl,dpkl", "mode dpkl")],
                             ids=["sizes", "modes"])
    def test_repeated_grid_entry_is_exit_one_before_reading_data(self, tmp_path, capsys, flag,
                                                                 value, named):
        args = self.bench_args(tmp_path / "nope.csv", tmp_path / "bench")
        args[args.index(flag) + 1] = value
        assert run(args) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert named in record["message"]
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("n_unlabeled", [None, "0"])
    def test_ssdpkl_without_pool_is_exit_one_before_reading_data(self, tmp_path, capsys,
                                                                n_unlabeled):
        args = self.bench_args(tmp_path / "nope.csv", tmp_path / "bench")
        args[args.index("--modes") + 1] = "dpkl,ssdpkl"
        if n_unlabeled is not None:
            args += ["--n-unlabeled", n_unlabeled]
        assert run(args) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "EmptyUnlabeledSet" and "--n-unlabeled" in record["message"]
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_worker_count_below_one_is_exit_one_before_reading_data(self, tmp_path, capsys,
                                                                     workers):
        assert run(self.bench_args(tmp_path / "nope.csv", tmp_path / "bench", workers)) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError" and "--workers" in record["message"]
        assert not (tmp_path / "bench").exists()

    def test_worker_count_does_not_change_results(self, tmp_path):
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        out1, out3 = tmp_path / "b1", tmp_path / "b3"
        assert run(self.bench_args(data, out1, workers=1)) == 0
        assert run(self.bench_args(data, out3, workers=3)) == 0
        assert (out1 / "results.csv").read_bytes() == (out3 / "results.csv").read_bytes()

    @pytest.mark.parametrize("n_test", ["0", "-1"])
    def test_n_test_below_one_is_exit_one_before_reading_data(self, tmp_path, capsys, n_test):
        # no cell could report a test metric: refused before any cell trains
        args = self.bench_args(tmp_path / "nope.csv", tmp_path / "bench")
        args[args.index("--n-test") + 1] = n_test
        assert run(args) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError" and f"--n-test {n_test}" in record["message"]
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("sizes", ["0,14", "14,-2"])
    def test_size_below_one_is_exit_one_before_reading_data(self, tmp_path, capsys, sizes):
        args = self.bench_args(tmp_path / "nope.csv", tmp_path / "bench")
        args[args.index("--sizes") + 1] = sizes
        assert run(args) == 1
        record = json.loads(capsys.readouterr().err.strip())
        bad = next(v for v in sizes.split(",") if int(v) < 1)
        assert record["error"] == "ConfigError" and f"--sizes {bad}" in record["message"]
        assert not (tmp_path / "bench").exists()

    def test_negative_alpha_is_exit_one_before_reading_data(self, tmp_path, capsys):
        args = [*self.bench_args(tmp_path / "nope.csv", tmp_path / "bench"), "--alpha", "-1"]
        assert run(args) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError" and "ssdpkl_alpha" in record["message"]
        assert not (tmp_path / "bench").exists()

    def test_one_worker_runs_every_cell_on_the_main_thread(self, tmp_path, monkeypatch):
        # the kernel loops spread over the kernel workers only from the main thread
        cell_threads, run_training = [], cli._run_training

        def recording(*args, **kwargs):
            cell_threads.append(threading.current_thread())
            return run_training(*args, **kwargs)

        monkeypatch.setattr(cli, "_run_training", recording)
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        assert run(self.bench_args(data, tmp_path / "bench")) == 0
        assert cell_threads == [threading.main_thread()] * 8

    # Run in a subprocess: the k-th cell in results.csv's row order (the k-th
    # call at one worker) waits until the k - 1 rows before it are in the file,
    # as they are at once with one worker, then ends the process unclean.
    KILL_AT_CELL = """
import json, os, sys, time
from pathlib import Path
from dpkl import cli

cell, argv = json.loads(sys.argv[1]), json.loads(sys.argv[2])
results = Path(argv[argv.index("--out") + 1]) / "results.csv"
run_training = cli._run_training

def killing(ds, cfg, task, n_labeled, **kwargs):
    if [cfg.mode, n_labeled, cfg.seed] == cell[:3]:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and (
                not results.exists() or len(results.read_bytes().splitlines()) < cell[3]):
            time.sleep(0.05)
        os._exit(17)
    return run_training(ds, cfg, task, n_labeled, **kwargs)

cli._run_training = killing
sys.exit(cli.main(argv))
"""

    # k = 1 is killed before any row: the file must still hold its header
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_killed_grid_keeps_its_finished_rows_and_resumes(self, tmp_path, monkeypatch,
                                                              workers, k):
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        full, out = tmp_path / "full", tmp_path / "bench"
        assert run(self.bench_args(data, full, workers)) == 0
        # row order: mode, then size, then trial; seed is --seed 5 plus the trial
        cells = [(mode, n, 5 + trial) for mode in ("dkl", "dpkl") for n in (14, 18)
                 for trial in (0, 1)]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [str(a) for a in self.bench_args(data, out, workers)]
        killed = subprocess.run([sys.executable, "-c", self.KILL_AT_CELL,
                                 json.dumps([*cells[k - 1], k]), json.dumps(argv)], env=env)
        assert killed.returncode == 17
        full_rows = (full / "results.csv").read_bytes().splitlines(keepends=True)
        # the header and the k - 1 rows before the killed cell, every one whole
        assert (out / "results.csv").read_bytes() == b"".join(full_rows[:k])

        trained, run_training = [], cli._run_training

        def recording(ds, cfg, task, n_labeled, **kwargs):
            trained.append((cfg.mode, n_labeled, cfg.seed))
            return run_training(ds, cfg, task, n_labeled, **kwargs)

        monkeypatch.setattr(cli, "_run_training", recording)
        assert run(self.bench_args(data, out, workers)) == 0
        assert sorted(trained) == cells[k - 1:]
        for name in ("results.csv", "summary.csv"):
            assert (out / name).read_bytes() == (full / name).read_bytes(), name

    @pytest.mark.parametrize("workers", [1, 3])
    def test_killed_grid_leaves_a_current_sidecar(self, tmp_path, workers):
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        out = tmp_path / "bench"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [str(a) for a in self.bench_args(data, out, workers)]
        # the 4th cell in row order: dkl, size 18, trial 1 (seed 5 + 1)
        killed = subprocess.run([sys.executable, "-c", self.KILL_AT_CELL,
                                 json.dumps(["dkl", 18, 6, 4]), json.dumps(argv)], env=env)
        assert killed.returncode == 17
        assert len((out / "results.csv").read_bytes().splitlines()) == 4  # header + 3 rows
        meta = json.loads((out / "results.meta.json").read_text())
        assert meta["failures"] == []
        config = meta["config"]
        assert (config["data"], config["sizes"], config["modes"], config["trials"],
                config["seed"], config["n_test"], config["workers"]) == (
                    str(data), [14, 18], ["dpkl", "dkl"], 2, 5, 20, workers)
        assert config["train"]["dpkl"]["m"] == 2 and config["train"]["dkl"]["m"] == 1

    def test_failure_is_in_the_sidecar_before_the_next_cell(self, tmp_path, monkeypatch):
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        out = tmp_path / "bench"
        args = self.bench_args(data, out)
        args[args.index("--modes") + 1] = "dkl"
        args[args.index("--sizes") + 1] = "14"
        sidecar_failures, run_training = [], cli._run_training

        def first_cell_fails(ds, cfg, task, n_labeled, **kwargs):
            if cfg.seed == 5:
                raise ValueError("cell failed")
            meta = json.loads((out / "results.meta.json").read_text())
            sidecar_failures.append(meta["failures"])
            return run_training(ds, cfg, task, n_labeled, **kwargs)

        monkeypatch.setattr(cli, "_run_training", first_cell_fails)
        assert run(args) == 0  # one of the two cells trained
        failure = {"cell": ["dkl", 14, 0], "error": "ValueError", "message": "cell failed"}
        assert sidecar_failures == [[failure]]
        assert json.loads((out / "results.meta.json").read_text())["failures"] == [failure]

    # the last row unterminated too (a hand-edited file): this run's first row
    # must still start on a line of its own
    @pytest.mark.parametrize("end", [b"\r\n", b""], ids=["terminated", "unterminated"])
    def test_previous_rows_keep_their_bytes(self, tmp_path, end):
        # rows as dpkl writes them, each float in its shortest repr
        previous = [b"dataset,mode,n,trial,seed,rmse,nll",
                    b"other,dkl,14,0,5,5e-324,1e+16", b"other,dkl,14,1,6,1e-05,-0.0",
                    b"other,dpkl,14,0,5,0.1,3.0"]
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        out = tmp_path / "bench"
        out.mkdir()
        (out / "results.csv").write_bytes(b"\r\n".join(previous) + end)
        assert run(self.bench_args(data, out)) == 0
        lines = (out / "results.csv").read_bytes().splitlines()
        assert lines[:len(previous)] == previous
        assert len(lines) == len(previous) + 8
        assert all(line.startswith(b"sine,") for line in lines[len(previous):])

    def test_changed_training_config_is_exit_one_before_any_cell(self, tmp_path, capsys,
                                                                 monkeypatch):
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        out = tmp_path / "bench"
        assert run(self.bench_args(data, out)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "_run_training", no_cell)
        # more trials too: the rerun would have cells to train under the new config
        args = [*self.bench_args(data, out), "--max-epochs", "4"]
        args[args.index("--trials") + 1] = "3"
        assert run(args) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "dpkl rows" in record["message"] and "max_epochs" in record["message"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_under_the_same_training_config(self, tmp_path, capsys):
        # more trials and another --seed under the same config add their cells,
        # and a sidecar that predates the recorded config resumes as it did
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        out = tmp_path / "bench"
        args = self.bench_args(data, out)
        args[args.index("--modes") + 1] = "dkl"
        args[args.index("--sizes") + 1] = "14"
        assert run(args) == 0
        args[args.index("--trials") + 1] = "3"
        assert run(args) == 0
        args[args.index("--seed") + 1] = "9"
        assert run(args) == 0
        meta_path = out / "results.meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta["config"]["train"]["dkl"]["seed"] == 9
        del meta["config"]["train"]
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        assert run([*args, "--max-epochs", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["new_rows"] == 0
        with open(out / "results.csv", newline="") as fh:
            assert [r["seed"] for r in csv.DictReader(fh)] == ["5", "6", "7", "9", "10", "11"]

    # a hand-edited sidecar, and one cut short by a kill under an older dpkl
    @pytest.mark.parametrize("sidecar", ["{}", "[]", '{"config": ', '{"config": {"train": 5}}'],
                             ids=["empty-object", "array", "truncated", "ill-typed-train"])
    def test_broken_sidecar_is_exit_one_naming_it(self, tmp_path, capsys, monkeypatch, sidecar):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "_run_training", no_cell)
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        out = tmp_path / "bench"
        out.mkdir()
        results = b"dataset,mode,n,trial,seed,rmse,nll\r\nsine,dkl,14,0,5,0.5,1.0\r\n"
        (out / "results.csv").write_bytes(results)
        (out / "results.meta.json").write_text(sidecar)
        assert run(self.bench_args(data, out)) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert str(out / "results.meta.json") in record["message"]
        assert "--out" in record["message"]
        assert (out / "results.csv").read_bytes() == results
        assert (out / "results.meta.json").read_text() == sidecar

    def test_resume_that_moves_the_default_n_test_is_exit_one(self, tmp_path, capsys):
        # 60 rows: --sizes 14 tests on 46 of them, --sizes 14,18 would test on 42
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        out = tmp_path / "bench"
        args = self.bench_args(data, out)
        args[args.index("--modes") + 1] = "dkl"
        args[args.index("--trials") + 1] = "1"
        del args[args.index("--n-test"):args.index("--n-test") + 2]
        sizes = args.index("--sizes") + 1
        args[sizes] = "14"
        assert run(args) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        args[sizes] = "14,18"
        assert run(args) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "on 46 test rows, this run's on 42" in record["message"]
        assert "--n-test 46" in record["message"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # with the recorded n_test the rerun gets past the check; 18 labeled
        # and 46 test rows are more than the file has, which the cell reports
        assert run([*args, "--n-test", "46"]) == 1
        failures = json.loads((out / "results.meta.json").read_text())["failures"]
        assert failures == [{"cell": ["dkl", 18, 0], "error": "InsufficientRows",
                             "message": "split needs 64 rows, dataset has 60"}]
        assert (out / "results.csv").read_bytes() == before["results.csv"]

    def test_resume_under_the_recorded_n_test(self, tmp_path, capsys):
        # a smaller --sizes moves the default too; --n-test with the recorded
        # value adds the new trial's cell
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        out = tmp_path / "bench"
        args = self.bench_args(data, out)
        args[args.index("--modes") + 1] = "dkl"
        args[args.index("--trials") + 1] = "1"
        del args[args.index("--n-test"):args.index("--n-test") + 2]
        assert run(args) == 0  # sizes 14 and 18: 42 test rows
        capsys.readouterr()
        args[args.index("--sizes") + 1] = "14"
        args[args.index("--trials") + 1] = "2"
        assert run(args) == 1
        assert "--n-test 42" in json.loads(capsys.readouterr().err.strip())["message"]
        assert run([*args, "--n-test", "42"]) == 0
        assert json.loads(capsys.readouterr().out)["new_rows"] == 1
        assert json.loads((out / "results.meta.json").read_text())["config"]["n_test"] == 42

    def test_another_dataset_keeps_its_own_default_n_test(self, tmp_path, capsys):
        # its rows never share a summary row with the first dataset's
        out = tmp_path / "bench"
        for name, n in (("sine", 60), ("smaller", 50)):
            args = self.bench_args(write_regression_csv(tmp_path / f"{name}.csv", n=n), out)
            del args[args.index("--n-test"):args.index("--n-test") + 2]
            args[args.index("--sizes") + 1] = "14"
            assert run(args) == 0
        assert json.loads((out / "results.meta.json").read_text())["config"]["n_test"] == 36

    def refused_before_any_cell(self, out, args, monkeypatch, capsys):
        """The ConfigError message of a rerun that neither trains a cell nor rewrites a file."""
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "_run_training", no_cell)
        assert run(args) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        return record["message"]

    def test_resume_after_another_dataset_keeps_the_first_ones_n_test(self, tmp_path, capsys,
                                                                      monkeypatch):
        # sine at --sizes 14 tests on 46 rows; after another dataset's run, sine
        # at --sizes 14,18 would test on 42
        out = tmp_path / "bench"
        sine = write_regression_csv(tmp_path / "sine.csv", n=60)
        other = write_regression_csv(tmp_path / "other.csv", n=60, seed=1)
        for data, sizes in ((sine, "14"), (other, "14"), (sine, "14,18")):
            args = self.bench_args(data, out)
            del args[args.index("--n-test"):args.index("--n-test") + 2]
            args[args.index("--sizes") + 1] = sizes
            if sizes == "14":
                assert run(args) == 0
        message = self.refused_before_any_cell(out, args, monkeypatch, capsys)
        assert "on 46 test rows, this run's on 42" in message and "--n-test 46" in message

    @pytest.mark.parametrize("key, flags, values", [
        ("n_unlabeled", ["--n-unlabeled", "10"], "5, this run's with 10"),
        ("target", ["--target", "y2"], "'y', this run's with 'y2'"),
        ("normalize_features", ["--no-normalize-features"], "True, this run's with False"),
    ], ids=["n_unlabeled", "target", "normalize_features"])
    def test_resume_under_another_split_is_exit_one_before_any_cell(
            self, tmp_path, capsys, monkeypatch, key, flags, values):
        ds = synth_regression("sine", n=60, D=1, noise_std=0.1, seed=0)
        data = tmp_path / "sine.csv"
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x0", "y", "y2"])
            w.writerows([*row, target, 2.0 * target] for row, target in zip(ds.X, ds.y))
        out = tmp_path / "bench"
        args = [*self.bench_args(data, out), "--n-unlabeled", "5"]
        args[args.index("--modes") + 1] = "dkl"
        args[args.index("--sizes") + 1] = "14"
        args[args.index("--trials") + 1] = "1"
        assert run(args) == 0
        args[args.index("--trials") + 1] = "2"  # a new cell to train under the new split
        message = self.refused_before_any_cell(out, [*args, *flags], monkeypatch, capsys)
        assert f"sine rows made with {key} {values}" in message


def _typed_flag_cases():
    """(command, dest, flag argv, config value) for every typed or on/off flag
    of the train and benchmark parsers, each with a sample of its type."""
    samples = {int: "3", float: "0.25", cli._int_tuple: "4,2", cli._mode_list: "ssdpkl"}
    cases = []
    for command in ("train", "benchmark"):
        parser = cli.build_parser().parse_args([command]).parser
        for a in parser._actions:
            if not a.option_strings or a.dest == "help":
                continue
            if a.nargs == 0:
                cases.append(pytest.param(command, a.dest, [a.option_strings[0]], "true",
                                          id=f"{command}-{a.dest}"))
            elif a.type is not None:
                raw = samples[a.type]
                cases.append(pytest.param(command, a.dest, [a.option_strings[0], raw], raw,
                                          id=f"{command}-{a.dest}"))
    return cases


class TestConfigFile:
    @pytest.mark.parametrize("command, dest, flag, raw", _typed_flag_cases())
    def test_config_value_resolves_as_its_flag(self, tmp_path, command, dest, flag, raw):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{dest} = {raw}\n")
        from_flag = getattr(cli.parse_args([command, *flag]), dest)
        from_file = getattr(cli.parse_args([command, "--config", str(cfg)]), dest)
        assert (type(from_file), from_file) == (type(from_flag), from_flag)
        assert from_file != getattr(cli.parse_args([command]), dest)  # not the default

    def test_every_train_config_field_has_a_flag(self):
        # a config file key is always a flag's dest; the Cholesky jitter is a constant
        dests = {a.dest for a in cli.build_parser().parse_args(["train"]).parser._actions}
        assert {f.name for f in fields(TrainConfig)} <= dests
        assert TrainConfig.base_jitter == 1e-8

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_classifier_l2_flag_is_gone(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args([command, "--classifier-l2", "0.01"])
        assert exc.value.code == 2
        assert "--classifier-l2" in capsys.readouterr().err

    def test_value_outside_choices_is_exit_one_before_reading_data(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("activation = swish\n")
        code = run(["train", "--data", tmp_path / "nope.csv", "--target", "y",
                    "--n-labeled", "20", "--config", cfg, "--out", tmp_path / "run"])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "activation" in record["message"] and "'swish'" in record["message"]
        assert not (tmp_path / "run").exists()

    def test_benchmark_config_sets_the_grid(self, tmp_path):
        data = write_regression_csv(tmp_path / "sine.csv", n=60)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("sizes = 14\nmodes = dkl\ntrials = 3\n")
        out = tmp_path / "bench"
        assert run(["benchmark", "--data", data, "--target", "y", "--n-test", "20",
                    "--config", cfg, "--out", out, *FAST]) == 0
        with open(out / "results.csv", newline="") as fh:
            cells = [(r["mode"], r["n"], r["trial"]) for r in csv.DictReader(fh)]
        assert cells == [("dkl", "14", "0"), ("dkl", "14", "1"), ("dkl", "14", "2")]
        config = json.loads((out / "results.meta.json").read_text())["config"]
        assert (config["sizes"], config["modes"], config["trials"]) == ([14], ["dkl"], 3)


class TestReport:
    def test_regression_report_tables(self, tmp_path, capsys):
        data = write_regression_csv(tmp_path / "sine.csv")
        out = tmp_path / "run"
        assert run(["train", "--data", data, "--target", "y", "--n-labeled", "20",
                    "--n-test", "30", "--seed", "2", "--out", out, *FAST]) == 0
        capsys.readouterr()
        assert run(["report", "--run-dir", out]) == 0
        outputs = json.loads(capsys.readouterr().out.strip())
        assert "spearman_variance_error" in outputs

        with open(out / "latent.csv", newline="") as fh:
            latent = list(csv.reader(fh))
        assert latent[0] == ["z0", "z1"]
        assert len(latent) - 1 == 30  # one row per test point

        with open(out / "calibration.csv", newline="") as fh:
            cal = list(csv.DictReader(fh))
        assert sum(int(r["count"]) for r in cal) == 30
        meta = json.loads((out / "calibration.meta.json").read_text())
        assert "spearman_variance_error" in meta

    def test_classification_report_entropy_table(self, tmp_path, capsys):
        data = write_blobs_csv(tmp_path / "blobs.csv")
        out = tmp_path / "run"
        assert run(["train", "--task", "classification", "--data", data,
                    "--target", "label", "--n-labeled", "40", "--n-test", "20",
                    "--out", out, "--m", "2", "--max-epochs", "3",
                    "--hidden-dims", "8"]) == 0
        capsys.readouterr()
        assert run(["report", "--run-dir", out]) == 0
        with open(out / "entropy.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        assert set(rows[0]) == {"entropy", "error"}

    def test_missing_run_dir_fails(self, tmp_path, capsys):
        code = run(["report", "--run-dir", tmp_path / "nothing"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "CheckpointError"

    @pytest.mark.parametrize("body", [
        "[]",
        '{"test": {"per_point": {"variance": [1.0, 2.0]}}}',
        '{"test": {"per_point": {"variance": [1.0, 2.0], "squared_error": [1.0, 2.0, 3.0]}}}',
        '{"latent_mean_embeddings": [[0.1, 0.2]], "test": {"per_point": {"entropy": [0.5]}}}',
        '{"latent_mean_embeddings": [0.1, 0.2]}',
        '{"run": ',
    ], ids=["list", "no-squared-error", "unequal-columns", "no-error", "flat-latent",
          "cut-short"])
    def test_malformed_report_fails_before_any_table(self, tmp_path, capsys, body):
        report = tmp_path / "report.json"
        report.write_text(body)
        assert run(["report", "--run-dir", tmp_path]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "CheckpointError"
        assert str(report) in err["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]  # no table, no sidecar


class TestOutputFiles:
    @pytest.mark.parametrize("command", ["predict", "report"])
    def test_failed_rename_leaves_previous_outputs(self, trained, tmp_path, monkeypatch,
                                                   capsys, command):
        data, ckpt = trained
        out = tmp_path / "out"
        out.mkdir()
        if command == "predict":
            argv = ["predict", "--checkpoint", ckpt, "--data", data, "--out", out / "pred.csv"]
            names = ["pred.csv", "pred.meta.json"]
        else:
            argv = ["report", "--run-dir", ckpt.parent, "--out", out]
            names = ["latent.csv", "latent.meta.json", "calibration.csv", "calibration.meta.json"]
        previous = {name: f"previous {name}\n".encode() for name in names}
        for name, body in previous.items():
            (out / name).write_bytes(body)

        def failing_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "OSError"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == previous
        assert not list(tmp_path.rglob("*.tmp"))

    def test_csv_cells_are_shortest_repr(self, tmp_path):
        floats = [5e-324, 1e16, 1e-5, -0.0, 0.0, 3.0, -2.0, 1e300, 0.1]
        ints = [0, -7, 2**62]
        rows = [[np.float64(v), float(v)] for v in floats]
        rows += [[np.int64(v), int(v)] for v in ints]
        cli.write_csv(tmp_path / "t.csv", ["a", "b"], rows, {"k": 1})
        expected = ["a,b"] + [f"{float(v)!r},{float(v)!r}" for v in floats]
        expected += [f"{int(v)},{int(v)}" for v in ints]
        assert (tmp_path / "t.csv").read_bytes() == "".join(
            line + "\r\n" for line in expected).encode()
        assert json.loads((tmp_path / "t.meta.json").read_text())["config"] == {"k": 1}


class TestExitCodes:
    def test_internal_invariant_violation_is_exit_two(self, tmp_path, capsys, monkeypatch):
        from dpkl import cli
        from dpkl.errors import InternalConsistencyError

        def boom(args):
            raise InternalConsistencyError("posterior variance went badly negative")

        monkeypatch.setattr(cli, "cmd_report", boom)
        code = run(["report", "--run-dir", tmp_path])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "InternalConsistencyError"

    def test_non_finite_objective_is_exit_two(self, tmp_path, capsys):
        # Labels scaled to 1e200 would not do: their std overflows and label
        # normalization squashes them back to finite values. Features are not
        # normalized with this flag, so 1e200 overflows the exact kernel.
        ds = synth_regression("sine", n=30, D=1, noise_std=0.1, seed=0)
        data = tmp_path / "huge.csv"
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x0", "y"])
            for row, target in zip(ds.X * 1e200, ds.y):
                w.writerow([*row, target])
        with np.errstate(all="ignore"):
            code = run(["train", "--data", data, "--target", "y", "--n-labeled", "20",
                        "--kernel-mode", "exact", "--no-normalize-features",
                        "--out", tmp_path / "run", *FAST])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "InternalConsistencyError"
        assert "objective" in record["message"]
        assert not (tmp_path / "run" / "checkpoint.json").exists()

    def scaled_sine_csv(self, path, x_scale=1.0, y_scale=1.0):
        ds = synth_regression("sine", n=30, D=1, noise_std=0.1, seed=0)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x0", "y"])
            for row, target in zip(ds.X * x_scale, ds.y * y_scale):
                w.writerow([*row, target])
        return path

    def test_non_finite_validation_metric_is_exit_two(self, tmp_path, capsys):
        # on the default rff route the objective of 1e200 features stays
        # finite; the exact-kernel validation NLL does not
        data = self.scaled_sine_csv(tmp_path / "huge.csv", x_scale=1e200)
        with np.errstate(all="ignore"):
            code = run(["train", "--data", data, "--target", "y", "--n-labeled", "20",
                        "--no-normalize-features", "--out", tmp_path / "run", *FAST])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "InternalConsistencyError"
        assert "validation metric" in record["message"]
        assert not (tmp_path / "run" / "checkpoint.json").exists()

    def test_overflowing_label_std_is_exit_two(self, tmp_path, capsys):
        data = self.scaled_sine_csv(tmp_path / "huge.csv", y_scale=1e200)
        with np.errstate(all="ignore"):
            code = run(["train", "--data", data, "--target", "y", "--n-labeled", "20",
                        "--out", tmp_path / "run", *FAST])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "InternalConsistencyError",
                          "message": "non-finite label normalization mean or std"}

    @pytest.mark.parametrize("line", ["unlabeled_cap = 0", "batch_size = 0",
                                      "kappa_bandwidth = 0.0", "learning_rate = nan",
                                      "noise_var = nan", "ssdpkl_alpha = inf",
                                      "amplitude = nan", "amplitude = -1.0",
                                      "bandwidth = 0.0", "hidden_dims = 4,0", "latent_dim = 0",
                                      # fixed settings, no longer TrainConfig fields
                                      "adam_beta1 = 0.9", "adam_beta2 = 0.999",
                                      "adam_eps = 1e-8", "classifier_l2 = 0.0",
                                      "base_jitter = 1e-8"])
    def test_invalid_config_value_is_exit_one_before_reading_data(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code = run(["train", "--data", tmp_path / "nope.csv", "--target", "y",
                    "--n-labeled", "20", "--config", cfg, "--out", tmp_path / "run"])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert line.split()[0] in record["message"]
        assert not (tmp_path / "run").exists()

    def test_unknown_config_key_is_exit_one(self, tmp_path, capsys):
        data = write_regression_csv(tmp_path / "sine.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rat = 0.5\nmax_epoch = 3\n")
        code = run(["train", "--data", data, "--target", "y", "--n-labeled", "20",
                    "--config", cfg, "--out", tmp_path / "run"])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "'learning_rat'" in record["message"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("error, argv", [
        ("FileExistsError", lambda data, ckpt, path: [
            "train", "--data", data, "--target", "y", "--n-labeled", "20", "--out", path, *FAST]),
        ("IsADirectoryError", lambda data, ckpt, path: [
            "predict", "--checkpoint", path, "--data", data, "--out", f"{path}.csv"]),
        ("IsADirectoryError", lambda data, ckpt, path: [
            "predict", "--checkpoint", ckpt, "--data", path, "--out", f"{path}.csv"]),
    ], ids=["out-is-a-file", "checkpoint-is-a-directory", "data-is-a-directory"])
    def test_path_error_is_exit_one(self, trained, tmp_path, capsys, error, argv):
        data, ckpt = trained
        path = tmp_path / "taken"
        if error == "FileExistsError":
            path.write_text("not a directory\n")
        else:
            path.mkdir()
        assert run(argv(data, ckpt, path)) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == error

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    @pytest.mark.parametrize("out", ["taken", "taken/run"], ids=["file", "parent-is-a-file"])
    def test_out_that_is_not_a_directory_is_refused_before_any_fit(self, tmp_path, capsys,
                                                                  monkeypatch, command, out):
        calls = []

        def no_fit(*args, **kwargs):
            calls.append(args)
            raise AssertionError("trained before --out was checked")

        monkeypatch.setattr(cli, "_run_training", no_fit)
        data = write_regression_csv(tmp_path / "sine.csv")
        (tmp_path / "taken").write_text("not a directory\n")
        sizes = ["--n-labeled", "20"] if command == "train" else ["--sizes", "20", "--trials", "1"]
        code = run([command, "--data", data, "--target", "y", *sizes,
                    "--out", tmp_path / out, *FAST])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "FileExistsError"
        assert calls == []

    def test_headerless_target_must_be_an_index(self, tmp_path, capsys):
        data = tmp_path / "plain.csv"
        data.write_text("".join(f"{i / 30},{i % 7}\n" for i in range(30)))
        code = run(["train", "--data", data, "--no-header", "--target", "y",
                    "--n-labeled", "20", "--out", tmp_path / "run", *FAST])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "MissingTarget" and "'y'" in record["message"]

    def test_unexpected_exception_is_exit_two(self, tmp_path, capsys, monkeypatch):
        from dpkl import cli

        def boom(args):
            raise RuntimeError("unplanned")

        monkeypatch.setattr(cli, "cmd_report", boom)
        assert run(["report", "--run-dir", tmp_path]) == 2

    def test_negative_unlabeled_size_is_exit_one(self, tmp_path, capsys):
        # a pool of -5 rows would shift labeled rows into the test slice
        data = write_regression_csv(tmp_path / "sine.csv")
        code = run(["train", "--data", data, "--target", "y", "--n-labeled", "30",
                    "--n-unlabeled", "-5", "--out", tmp_path / "run", *FAST])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "InsufficientRows"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("n_labeled, n_test, message", [
        (30, -3, "split sizes must be >= 0"),
        (70, None, "split needs 70 rows, dataset has 60"),
        (30, 40, "split needs 70 rows, dataset has 60"),
    ], ids=["negative-test", "labeled-too-many", "test-too-many"])
    def test_split_sizes_are_reported_by_split(self, tmp_path, capsys, n_labeled, n_test,
                                               message):
        data = write_regression_csv(tmp_path / "sine.csv")
        sizes = ["--n-labeled", n_labeled] + ([] if n_test is None else ["--n-test", n_test])
        code = run(["train", "--data", data, "--target", "y", *sizes,
                    "--out", tmp_path / "run", *FAST])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InsufficientRows"
        assert message in record["message"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("header", ["x0,y", "x0"])
    def test_header_only_query_file_is_exit_one(self, trained, tmp_path, capsys, header):
        _, ckpt = trained
        query = tmp_path / "query.csv"
        query.write_text(header + "\n")
        code = run(["predict", "--checkpoint", ckpt, "--data", query, "--out", tmp_path / "p.csv"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "InsufficientRows"

    @pytest.mark.parametrize(
        "body", ["x0\n0.5\n{}\n", "x0,y\n0.5,1.0\n{},2.0\n"], ids=["features", "with-target"]
    )
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_query_cell_is_exit_one(self, trained, tmp_path, capsys, body, cell):
        _, ckpt = trained
        query = tmp_path / "query.csv"
        query.write_text(body.format(cell))
        code = run(["predict", "--checkpoint", ckpt, "--data", query, "--out", tmp_path / "p.csv"])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ParseError"
        assert "row 3, column 1" in record["message"]
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize(
        "body, where",
        [
            ("x0\n0.5\nabc\n", "row 3, column 1"),
            ("x0,y\n0.5,\nabc,\n", "row 3, column 1"),
            ("y,x0\n,0.5\n,abc\n", "row 3, column 2"),
            ("y,x0\n,0.5\n,nan\n", "row 3, column 2"),
            ("y,x0\n,0.5\n,\n", "row 3, column 2"),
        ],
    )
    def test_bad_query_feature_cell_is_exit_one(self, trained, tmp_path, capsys, body, where):
        _, ckpt = trained
        query = tmp_path / "query.csv"
        query.write_text(body)
        code = run(["predict", "--checkpoint", ckpt, "--data", query, "--out", tmp_path / "p.csv"])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ParseError"
        assert where in record["message"]
        assert not (tmp_path / "p.csv").exists()

    def test_short_first_query_row_is_named(self, trained, tmp_path, capsys):
        # the header sets the width, so the short row is named, not the good one after it
        _, ckpt = trained
        query = tmp_path / "query.csv"
        query.write_text("x0,y\n0.5\n0.1,1\n0.2,2\n")
        code = run(["predict", "--checkpoint", ckpt, "--data", query, "--out", tmp_path / "p.csv"])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ParseError", "message": "row 2 has 1 cells, expected 2"}
        assert not (tmp_path / "p.csv").exists()


def test_star_import_resolves_every_public_name():
    import dpkl

    namespace = {}
    exec("from dpkl import *", namespace)  # AttributeError on a dangling name
    assert set(dpkl.__all__) <= set(namespace)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats would be most of the CLI's import time and no part of dpkl
    # uses it, so importing dpkl.cli must not load it
    import dpkl

    src = str(Path(dpkl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, dpkl.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_commands_leave_scipy_stats_unloaded(tmp_path):
    # train and benchmark score their test rows with cli._spearman, which is
    # numpy's: a regression and a classification train and a one-cell
    # benchmark run in one process, and none of them loads scipy.stats
    import dpkl

    reg = write_regression_csv(tmp_path / "sine.csv")
    blobs = write_blobs_csv(tmp_path / "blobs.csv")
    commands = [
        ["train", "--data", reg, "--target", "y", "--n-labeled", "30", *FAST,
         "--out", tmp_path / "reg"],
        ["train", "--task", "classification", "--data", blobs, "--target", "label",
         "--n-labeled", "40", *FAST, "--out", tmp_path / "cls"],
        ["benchmark", "--data", reg, "--target", "y", "--sizes", "20", "--trials", "1",
         "--modes", "dpkl", *FAST, "--out", tmp_path / "bench"],
    ]
    commands = [[str(a) for a in argv] for argv in commands]
    code = ("import sys\nfrom dpkl.cli import main\n"
            f"codes = [main(argv) for argv in {commands!r}]\n"
            "sys.exit(codes != [0, 0, 0] or 'scipy.stats' in sys.modules)")
    src = str(Path(dpkl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    # the statistic was computed, not skipped as undefined
    report = json.loads((tmp_path / "reg" / "report.json").read_text())
    assert isinstance(report["test"]["spearman_variance_error"], float)


class TestSpearman:
    """cli._spearman against scipy.stats.spearmanr, bit for bit."""

    @staticmethod
    def check(x, y):
        from scipy.stats import spearmanr

        rho = cli._spearman(x, y)
        assert isinstance(rho, float)
        assert np.float64(rho).tobytes() == np.float64(spearmanr(x, y).statistic).tobytes()

    @pytest.mark.parametrize("n", range(2, 61))
    def test_random(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            self.check(*rng.normal(size=(2, n)))

    @pytest.mark.parametrize("n", [5, 20, 60])
    def test_rounded_ties(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(50):
            x, y = np.round(rng.normal(size=(2, n)), 1)
            if len(set(x)) > 1 and len(set(y)) > 1:
                self.check(x, y)

    @pytest.mark.parametrize("n", [6, 20, 60])
    def test_three_values(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(50):
            x = rng.choice([-1.5, 0.0, 2.0], size=n)
            y = rng.choice([0.0, 1.0, 7.0], size=n)
            x[:3], y[:3] = [-1.5, 0.0, 2.0], [7.0, 1.0, 0.0]  # no constant input
            self.check(x, y)

    def test_infinities(self):
        rng = np.random.default_rng(300)
        for _ in range(50):
            x, y = rng.normal(size=(2, 20))
            x[rng.integers(0, 20, 3)] = np.inf
            y[rng.integers(0, 20, 3)] = -np.inf
            x[0] = -np.inf
            self.check(x, y)

    def test_near_monotone(self):
        rng = np.random.default_rng(400)
        for n in (2, 3, 20, 60):
            x = np.sort(rng.normal(size=n))
            self.check(x, x + 1e-12 * rng.normal(size=n))
            self.check(x, -x)
            y = x.copy()
            y[[0, -1]] = y[[-1, 0]]  # one swap
            self.check(x, y)

    @pytest.mark.parametrize("x, y", [
        ([], []), ([1.0], [2.0]),
        ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]),
        ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [np.nan, 2.0, 3.0]),
    ], ids=["empty", "one", "constant-x", "constant-y", "nan-x", "nan-y"])
    def test_undefined_is_none(self, x, y):
        assert cli._spearman(np.array(x), np.array(y)) is None
