import json
from pathlib import Path

import numpy as np
import pytest

from dpkl import net
from dpkl.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from dpkl.cli import main as cli_main
from dpkl.classify import init_head
from dpkl.data import NormalizationStats
from dpkl.errors import CheckpointError
from dpkl.kernels import LatentKernelSpec


def make_checkpoint(task="regression", with_head=False):
    arch = net.MlpArchitecture(2, (4,), 2, activation="tanh")
    ensemble = net.init_ensemble(arch, 3, seed=13)
    spec = LatentKernelSpec()
    rng = np.random.default_rng(0)
    return Checkpoint(
        task=task,
        target_column="y",
        ensemble=ensemble,
        head=init_head(2, 2, 3, seed=5) if with_head else None,
        kernel_spec=spec,
        noise_var=0.1,
        stats=NormalizationStats(
            x_mean=np.array([0.5, -0.5]), x_std=np.array([1.5, 2.0]),
            y_mean=1.0, y_std=2.0, normalize_labels=(task == "regression"),
        ),
        X_train=rng.normal(size=(6, 2)),
        y_train=rng.normal(size=6),
        config={"m": 3, "seed": 13},
        version="test",
    )


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("task, target", [("regression", "y"), ("classification", "label")])
class TestGoldenV1:
    """format_version 1 files written by an earlier build (see data/README.md)."""

    def test_predict_output_byte_identical(self, task, target, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        code = cli_main([
            "predict", "--checkpoint", str(DATA / f"v1_{task}.ckpt.json"),
            "--data", str(DATA / f"v1_{task}_query.csv"), "--target", target,
            "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == (DATA / f"v1_{task}_predictions.csv").read_bytes()

    def test_resave_byte_identical(self, task, target, tmp_path):
        # every byte but the rff basis, which these files carry and load ignores
        golden = DATA / f"v1_{task}.ckpt.json"
        doc = json.loads(golden.read_text())
        assert doc["rff_basis"] is not None
        save_checkpoint(tmp_path / "again.json", load_checkpoint(golden))
        assert (tmp_path / "again.json").read_text() == json.dumps({**doc, "rff_basis": None})


class TestRoundTrip:
    def test_particles_bit_exact(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.ensemble.flat(), ckpt.ensemble.flat())
        assert loaded.ensemble.arch == ckpt.ensemble.arch
        assert loaded.ensemble.seed == ckpt.ensemble.seed

    def test_all_fields_survive(self, tmp_path):
        ckpt = make_checkpoint(task="classification", with_head=True)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.task == "classification"
        assert loaded.target_column == "y"
        np.testing.assert_array_equal(loaded.head.flat(), ckpt.head.flat())
        np.testing.assert_array_equal(loaded.X_train, ckpt.X_train)
        np.testing.assert_array_equal(loaded.y_train, ckpt.y_train)
        assert loaded.stats.y_std == 2.0
        assert loaded.noise_var == 0.1
        assert loaded.config == {"m": 3, "seed": 13}

    def test_forward_outputs_preserved(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        X = np.random.default_rng(1).normal(size=(5, 2))
        np.testing.assert_array_equal(
            net.ensemble_embeddings(ckpt.ensemble, X), net.ensemble_embeddings(loaded.ensemble, X)
        )

    def test_optional_fields_absent(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ckpt)
        doc = json.loads(path.read_text())
        assert doc["rff_basis"] is None and doc["head"] is None
        assert load_checkpoint(path).head is None


class TestMalformed:
    def test_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("definitely not json {")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_format_name(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ckpt)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_particle_count_mismatch(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ckpt)
        doc = json.loads(path.read_text())
        doc["ensemble"]["m"] = 7
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["noise_var", "kernel", "normalization", "train_data",
                                       "ensemble"])
    def test_missing_field_is_named_and_exit_one(self, tmp_path, capsys, field):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, make_checkpoint())
        doc = json.loads(path.read_text())
        del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=repr(field)):
            load_checkpoint(path)
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n0.1,0.2\n")
        code = cli_main(["predict", "--checkpoint", str(path), "--data", str(query),
                         "--out", str(tmp_path / "pred.csv")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CheckpointError" and repr(field) in record["message"]

    @pytest.mark.parametrize("task, field, value", [("classification", "head", None),
                                                    ("regression", "task", "ranking")])
    def test_bad_task_or_missing_head_is_named_and_exit_one(self, tmp_path, capsys, task,
                                                             field, value):
        doc = json.loads((DATA / f"v1_{task}.ckpt.json").read_text())
        doc[field] = value
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=repr(field)):
            load_checkpoint(path)
        code = cli_main(["predict", "--checkpoint", str(path),
                         "--data", str(DATA / f"v1_{task}_query.csv"),
                         "--out", str(tmp_path / "pred.csv")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CheckpointError" and repr(field) in record["message"]
