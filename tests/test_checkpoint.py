import base64
import json
import os
from pathlib import Path

import numpy as np
import pytest
from helpers import save_checkpoint_v1

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
# where format_version 2 packs an array: (top-level field, key)
PACKED = [("ensemble", "particles"), ("head", "thetas"), ("train_data", "X"), ("train_data", "y")]


def unpack(obj) -> np.ndarray:
    return np.frombuffer(base64.b64decode(obj["base64"]), "<f8").reshape(obj["shape"])


def pack(a) -> dict:
    a = np.asarray(a, dtype="<f8")
    return {"dtype": "<f8", "shape": list(a.shape),
            "base64": base64.b64encode(a.tobytes()).decode("ascii")}


def repacked(mutate):
    """A mutation of v1 number lists, applied to a v2 file's decoded arrays."""
    def apply(doc):
        held = [(f, k) for f, k in PACKED if doc[f] is not None]
        for f, k in held:
            doc[f][k] = unpack(doc[f][k]).tolist()
        mutate(doc)
        for f, k in held:
            doc[f][k] = pack(doc[f][k])
    return apply


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
        # a resave writes v2: the golden arrays packed, every other field as it
        # was but the rff basis, which these files carry and load ignores
        golden = DATA / f"v1_{task}.ckpt.json"
        doc = json.loads(golden.read_text())
        assert doc["rff_basis"] is not None
        save_checkpoint(tmp_path / "again.json", load_checkpoint(golden))
        again = json.loads((tmp_path / "again.json").read_text())
        for f, k in PACKED:
            if doc[f] is not None:
                np.testing.assert_array_equal(unpack(again[f][k]), np.asarray(doc[f][k]))
                again[f][k] = doc[f][k]
        assert again == {**doc, "rff_basis": None, "format_version": 2}
        # and the v2 file resaves byte for byte
        save_checkpoint(tmp_path / "third.json", load_checkpoint(tmp_path / "again.json"))
        assert (tmp_path / "third.json").read_bytes() == (tmp_path / "again.json").read_bytes()


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

    # every array a checkpoint holds must fit its architecture, and the stats
    # and noise be values training could have written (D = 2, m = 3 here)
    @pytest.mark.parametrize("field, save, mutate", [
        ("ensemble", save_checkpoint_v1,
         lambda doc: [row.pop() for row in doc["ensemble"]["particles"]]),
        ("train_data", save_checkpoint_v1,
         lambda doc: [row.append(0.5) for row in doc["train_data"]["X"]]),
        ("train_data", save_checkpoint_v1, lambda doc: doc["train_data"]["y"].pop()),
        ("normalization", save_checkpoint,
         lambda doc: doc["normalization"]["x_mean"].append(0.0)),
        ("normalization", save_checkpoint,
         lambda doc: doc["normalization"].update(x_std=[0.0, 2.0])),
        ("normalization", save_checkpoint, lambda doc: doc["normalization"].update(y_std=0.0)),
        ("normalization", save_checkpoint, lambda doc: doc["normalization"].update(y_std=-2.0)),
        ("noise_var", save_checkpoint, lambda doc: doc.update(noise_var=-1.0)),
        ("head", save_checkpoint_v1, lambda doc: doc["head"]["thetas"].pop()),
        # a non-finite parameter would predict NaN rows with exit 0
        ("ensemble", save_checkpoint_v1,
         lambda doc: doc["ensemble"]["particles"][1].__setitem__(2, float("nan"))),
        ("head", save_checkpoint_v1,
         lambda doc: doc["head"]["thetas"][1].__setitem__(2, float("inf"))),
        # the same array mutations on format_version 2's packed arrays
        ("ensemble", save_checkpoint,
         repacked(lambda doc: [row.pop() for row in doc["ensemble"]["particles"]])),
        ("train_data", save_checkpoint,
         repacked(lambda doc: [row.append(0.5) for row in doc["train_data"]["X"]])),
        ("train_data", save_checkpoint, repacked(lambda doc: doc["train_data"]["y"].pop())),
        ("head", save_checkpoint, repacked(lambda doc: doc["head"]["thetas"].pop())),
        ("ensemble", save_checkpoint, repacked(
            lambda doc: doc["ensemble"]["particles"][1].__setitem__(2, float("nan")))),
        ("head", save_checkpoint, repacked(
            lambda doc: doc["head"]["thetas"][1].__setitem__(2, float("inf")))),
    ], ids=["particle-rows-short", "train-X-extra-column", "train-y-short", "x-mean-long",
            "x-std-zero", "y-std-zero", "y-std-negative", "noise-var-negative",
            "head-particles-short", "particle-nan", "head-weight-inf",
            "particle-rows-short-v2", "train-X-extra-column-v2", "train-y-short-v2",
            "head-particles-short-v2", "particle-nan-v2", "head-weight-inf-v2"])
    def test_inconsistent_field_is_named_and_exit_one(self, tmp_path, capsys, field, save,
                                                      mutate):
        task = "classification" if field == "head" else "regression"
        path = tmp_path / "ckpt.json"
        save(path, make_checkpoint(task=task, with_head=(field == "head")))
        doc = json.loads(path.read_text())
        mutate(doc)
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
        assert not (tmp_path / "pred.csv").exists()

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


def make_wide_checkpoint():
    """A regression model whose arrays are all non-square: D=3, (5, 4) hidden, d=2, m=4."""
    ckpt = make_checkpoint()
    ckpt.ensemble = net.init_ensemble(net.MlpArchitecture(3, (5, 4), 2), 4, seed=7)
    ckpt.stats = NormalizationStats(x_mean=np.zeros(3), x_std=np.ones(3), y_mean=0.0,
                                    y_std=1.0, normalize_labels=True)
    ckpt.X_train = np.random.default_rng(2).normal(size=(7, 3))
    ckpt.y_train = np.random.default_rng(3).normal(size=7)
    return ckpt


class TestPackedV2:
    @pytest.mark.parametrize("make", [make_wide_checkpoint,
                                      lambda: make_checkpoint("classification", with_head=True)],
                             ids=["non-square", "classification"])
    def test_round_trip_array_equal(self, tmp_path, make):
        ckpt = make()
        save_checkpoint(tmp_path / "ckpt.json", ckpt)
        doc = json.loads((tmp_path / "ckpt.json").read_text())
        assert doc["format_version"] == 2
        assert all(doc[f][k]["dtype"] == "<f8" for f, k in PACKED if doc[f] is not None)
        loaded = load_checkpoint(tmp_path / "ckpt.json")
        np.testing.assert_array_equal(loaded.ensemble.flat(), ckpt.ensemble.flat())
        np.testing.assert_array_equal(loaded.X_train, ckpt.X_train)
        np.testing.assert_array_equal(loaded.y_train, ckpt.y_train)
        if ckpt.head is not None:
            np.testing.assert_array_equal(loaded.head.thetas, ckpt.head.thetas)
        for a in (loaded.ensemble.flat(), loaded.X_train, loaded.y_train):
            assert a.flags.writeable and a.dtype == np.float64

    def test_resave_byte_identical(self, tmp_path):
        save_checkpoint(tmp_path / "a.json", make_checkpoint("classification", with_head=True))
        save_checkpoint(tmp_path / "b.json", load_checkpoint(tmp_path / "a.json"))
        assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_v1_and_v2_predict_byte_identical(self, tmp_path, capsys, task):
        ckpt = make_checkpoint(task, with_head=(task == "classification"))
        save_checkpoint_v1(tmp_path / "v1.json", ckpt)
        save_checkpoint(tmp_path / "v2.json", ckpt)
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n0.1,0.2\n-1.5,3.0\n2.25,-0.75\n")
        for version in ("v1", "v2"):
            assert cli_main(["predict", "--checkpoint", str(tmp_path / f"{version}.json"),
                             "--data", str(query), "--out", str(tmp_path / f"{version}.csv")]) == 0
        assert (tmp_path / "v2.csv").read_bytes() == (tmp_path / "v1.csv").read_bytes()

    def test_golden_v1_resaved_predicts_golden_bytes(self, tmp_path, capsys):
        save_checkpoint(tmp_path / "v2.json", load_checkpoint(DATA / "v1_regression.ckpt.json"))
        assert cli_main(["predict", "--checkpoint", str(tmp_path / "v2.json"),
                         "--data", str(DATA / "v1_regression_query.csv"), "--target", "y",
                         "--out", str(tmp_path / "pred.csv")]) == 0
        golden = DATA / "v1_regression_predictions.csv"
        assert (tmp_path / "pred.csv").read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("field, key, mutate", [
        ("ensemble", "particles", lambda a: a.update(dtype=">f8")),
        ("train_data", "X", lambda a: a.update(dtype="<f4")),
        ("ensemble", "particles", lambda a: a.update(shape=[a["shape"][0] * a["shape"][1]])),
        ("train_data", "y", lambda a: a.update(shape=[a["shape"][0], 1])),
        ("head", "thetas", lambda a: a.update(shape=[a["shape"][0], 1, a["shape"][1]])),
        ("ensemble", "particles", lambda a: a.update(shape=[-a["shape"][0], -a["shape"][1]])),
        ("train_data", "X", lambda a: a.update(shape=[a["shape"][0], 2.0])),
        ("train_data", "X", lambda a: a.update(shape=[a["shape"][0] + 1, a["shape"][1]])),
        ("head", "thetas", lambda a: a.update(shape=[a["shape"][0], a["shape"][1] - 1])),
        # characters outside the alphabet: a lax decoder skips them and
        # still finds the right byte length
        ("ensemble", "particles", lambda a: a.update(base64="!!!!" + a["base64"])),
        ("train_data", "y", lambda a: a.update(base64=a["base64"][:-1])),
        ("ensemble", "particles", lambda a: a.pop("base64")),
    ], ids=["dtype-big-endian", "dtype-f4", "shape-rank-1", "shape-rank-2-y",
            "shape-rank-3-head", "shape-negative", "shape-float", "shape-too-many-rows",
            "shape-too-few-bytes", "base64-bad-char", "base64-bad-padding", "base64-missing"])
    def test_malformed_packed_array_is_named_and_exit_one(self, tmp_path, capsys, field, key,
                                                          mutate):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, make_checkpoint("classification", with_head=True))
        doc = json.loads(path.read_text())
        mutate(doc[field][key])
        path.write_text(json.dumps(doc))
        self.assert_refused(tmp_path, capsys, path, field)

    @pytest.mark.parametrize("field, key, value", [
        ("ensemble", "particles", float("nan")),
        ("ensemble", "particles", float("-inf")),
        ("head", "thetas", float("nan")),
        ("head", "thetas", float("inf")),
        ("train_data", "X", float("nan")),
    ], ids=["particle-nan", "particle-neg-inf", "head-nan", "head-inf", "train-X-nan"])
    def test_non_finite_packed_value_is_named_and_exit_one(self, tmp_path, capsys, field, key,
                                                           value):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, make_checkpoint("classification", with_head=True))
        doc = json.loads(path.read_text())
        a = unpack(doc[field][key]).copy()
        a.flat[1] = value
        doc[field][key] = pack(a)
        path.write_text(json.dumps(doc))
        self.assert_refused(tmp_path, capsys, path, field)

    @pytest.mark.parametrize("field, key", PACKED, ids=["particles", "thetas", "X", "y"])
    @pytest.mark.parametrize("version", [1, 2])
    def test_array_of_the_other_version_is_named_and_exit_one(self, tmp_path, capsys, field,
                                                              key, version):
        # v2 packs where v1 lists: each file must hold its own version's encoding
        path = tmp_path / "ckpt.json"
        ckpt = make_checkpoint("classification", with_head=True)
        (save_checkpoint_v1 if version == 1 else save_checkpoint)(path, ckpt)
        doc = json.loads(path.read_text())
        a = doc[field][key]
        doc[field][key] = pack(a) if version == 1 else unpack(a).tolist()
        path.write_text(json.dumps(doc))
        self.assert_refused(tmp_path, capsys, path, field)

    @staticmethod
    def assert_refused(tmp_path, capsys, path, field):
        with pytest.raises(CheckpointError, match=repr(field)):
            load_checkpoint(path)
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n0.1,0.2\n")
        code = cli_main(["predict", "--checkpoint", str(path), "--data", str(query),
                         "--out", str(tmp_path / "pred.csv")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CheckpointError" and repr(field) in record["message"]
        assert not (tmp_path / "pred.csv").exists()


class TestAtomicSave:
    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch, step):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, make_checkpoint())
        before = path.read_bytes()

        def fail(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, step, fail)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(path, make_wide_checkpoint())
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
        save_checkpoint(path, make_wide_checkpoint())
        assert load_checkpoint(path).ensemble.arch.input_dim == 3
