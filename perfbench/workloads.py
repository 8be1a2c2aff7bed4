"""The benchmark's workloads: seeded inputs, set-up, one timed op, its checks.

Each workload drives dpkl only through a public entry point -- ``trainer.fit``,
``classify.fit_classifier`` or ``cli.main(["predict", ...])`` -- and receives
nothing from the benchmark but the generated inputs. The harness hands each
op ``call``, which runs the entry point timed from outside (and traced when
asked), and ``mark``, a ``trajectory_hook`` that stamps epoch boundaries.

Every op of a run repeats the same work on the same inputs, and its digest
must match the first op's. Held-out quality is therefore evaluated once per
run, on the first successful op's model, which lets the test sets be large.

Problem sizes are fixed by the workload definition; epoch counts are run
length, chosen so that a run stays short on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from pathlib import Path

import numpy as np

from dpkl import checkpoint, classify, cli, trainer
from dpkl.data import Dataset, normalize, synth_blobs, synth_regression

from metrics import OpResult


def child_seeds(seed: int, n: int) -> list[int]:
    """n independent integer seeds derived from the workload seed."""
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(n)]


def digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _training_op(report, digest: str, model) -> OpResult:
    """Result of one training call: the loss must be finite and have dropped."""
    first, final = report.epochs[0].train_nll, report.final_train_nll
    error = None
    if not np.isfinite(final):
        error = f"final train loss {final} is not finite"
    elif not final < first:
        error = f"final train loss {final} is not below epoch 1's {first}"
    return OpResult(
        ok=error is None, error=error,
        checked=[rec.val_metric is not None for rec in report.epochs],
        digest=digest, model=model,
    )


def _regression_quality(means, variances, y, noise_var) -> dict:
    pred_var = variances + noise_var
    return {
        "test_rmse": float(np.sqrt(np.mean((means - y) ** 2))),
        "test_nll": float(np.mean(
            0.5 * (np.log(2 * np.pi * pred_var) + (means - y) ** 2 / pred_var))),
    }


class RegressionFit:
    """``trainer.fit`` on a fixed problem; quality on a held-out test set."""

    kind = "train"

    def __init__(self, name, why, make_data, config, rmse_bar):
        self.name, self.why = name, why
        self.make_data = make_data  # seed -> (labeled, unlabeled | None, test)
        self.config = config  # TrainConfig overrides
        self.rmse_bar = rmse_bar  # test RMSE must stay below rmse_bar * std(test y)

    def setup(self, seed: int, workdir: Path) -> dict:
        labeled, unlabeled, test = self.make_data(seed)
        others = [test] if unlabeled is None else [unlabeled, test]
        lab_n, others_n, stats = normalize(labeled, others)
        pool = None if unlabeled is None else others_n[0].X
        return {
            "data": trainer.TrainData(lab_n.X, lab_n.y, pool),
            "test": others_n[-1],
            "stats": stats,
            "config": trainer.TrainConfig(seed=seed, **self.config),
        }

    def op(self, state, call, mark) -> OpResult:
        ens, report = call(trainer.fit, state["data"], state["config"], trajectory_hook=mark)
        return _training_op(report, digest_arrays(ens.flat()), ens)

    def evaluate(self, state, op: OpResult):
        """(quality, error, digest of the test predictions) for one trained model."""
        cfg, data, test, stats = state["config"], state["data"], state["test"], state["stats"]
        means_n, vars_n = trainer.predict_regression(
            op.model, cfg.kernel_spec(), data.X, data.y, test.X, cfg.noise_var, cfg.base_jitter
        )
        y = stats.invert_y(test.y)
        quality = _regression_quality(
            stats.invert_y(means_n), stats.invert_variance(vars_n), y,
            stats.invert_variance(cfg.noise_var),
        )
        error = None
        if not (np.all(np.isfinite(means_n)) and np.all(vars_n >= 0)):
            error = "test predictions are not finite or have negative variance"
        elif not quality["test_rmse"] < self.rmse_bar * float(np.std(y)):
            error = f"test RMSE {quality['test_rmse']:.4g} misses the bar {self.rmse_bar} x std(y)"
        return quality, error, digest_arrays(means_n, vars_n)


class ClassifierFit:
    """``classify.fit_classifier`` on Gaussian blobs; accuracy on fresh blobs."""

    kind = "train"

    def __init__(self, name, why, blobs, n_test_per_class, config, accuracy_bar):
        self.name, self.why = name, why
        self.blobs = blobs  # synth_blobs kwargs without the seed
        self.n_test_per_class = n_test_per_class
        self.config = config
        self.accuracy_bar = accuracy_bar

    def setup(self, seed: int, workdir: Path) -> dict:
        s_train, s_test = child_seeds(seed, 2)
        train = synth_blobs(**self.blobs, seed=s_train)
        test = synth_blobs(**dict(self.blobs, n_per_class=self.n_test_per_class), seed=s_test)
        train_n, (test_n,), _ = normalize(train, [test], normalize_labels=False)
        return {
            "data": trainer.TrainData(train_n.X, train_n.y),
            "test": test_n,
            "config": trainer.TrainConfig(seed=seed, **self.config),
        }

    def op(self, state, call, mark) -> OpResult:
        ens, head, report = call(
            classify.fit_classifier, state["data"], state["config"], trajectory_hook=mark
        )
        return _training_op(report, digest_arrays(ens.flat(), head.flat()), (ens, head))

    def evaluate(self, state, op: OpResult):
        ens, head = op.model
        test = state["test"]
        probs = classify.predict_probs(ens, head, test.X)
        labels = test.y.astype(np.int64)
        onehot = classify.one_hot(labels, head.C)
        accuracy = float(np.mean(probs.argmax(axis=1) == labels))
        quality = {
            # RMSE of the class-probability vector against the one-hot label
            "test_rmse": float(np.sqrt(np.mean((probs - onehot) ** 2))),
            "test_nll": classify.cross_entropy(probs, onehot),
            "test_accuracy": accuracy,
        }
        error = None
        if not accuracy >= self.accuracy_bar:
            error = f"test accuracy {accuracy:.4f} misses the bar {self.accuracy_bar}"
        return quality, error, digest_arrays(probs)


def _write_csv(path: Path, ds: Dataset) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i}" for i in range(ds.dim)] + ["y"])
        for row, target in zip(ds.X, ds.y):
            w.writerow([repr(float(v)) for v in row] + [repr(float(target))])


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


class PredictServe:
    """In-process ``dpkl predict`` against a checkpoint ``dpkl train`` wrote.

    Set-up writes the training CSV, trains and saves the served checkpoint
    through the CLI, and writes the query CSV. Every op's output is compared
    with a direct ``trainer.predict_regression`` on the same checkpoint.
    """

    kind = "predict"

    def __init__(self, name, why, n_labeled, n_test, D, n_query, train_flags, rmse_bar):
        self.name, self.why = name, why
        self.n_labeled, self.n_test, self.D, self.n_query = n_labeled, n_test, D, n_query
        self.train_flags = train_flags
        self.rmse_bar = rmse_bar

    def setup(self, seed: int, workdir: Path) -> dict:
        s_train, s_query = child_seeds(seed, 2)
        workdir.mkdir(parents=True, exist_ok=True)
        train_csv = workdir / "train.csv"
        _write_csv(train_csv, synth_regression(
            "friedman", self.n_labeled + self.n_test, D=self.D, noise_std=1.0, seed=s_train))
        rc = _quiet_cli([
            "train", "--data", train_csv, "--target", "y", "--n-labeled", self.n_labeled,
            "--n-test", self.n_test, "--seed", seed, "--out", workdir / "run", *self.train_flags,
        ])
        if rc != 0:
            raise RuntimeError(f"dpkl train exited {rc} during set-up")
        query_csv = workdir / "query.csv"
        _write_csv(query_csv, synth_regression(
            "friedman", self.n_query, D=self.D, noise_std=1.0, seed=s_query))
        return {"workdir": workdir, "checkpoint": workdir / "run" / "checkpoint.json",
                "query": query_csv}

    def _expected(self, state) -> dict:
        """Direct library prediction on the served checkpoint, computed once."""
        if "expected" not in state:
            ckpt = checkpoint.load_checkpoint(state["checkpoint"])
            query = cli.load_csv(state["query"], ckpt.target_column)
            means_n, vars_n = trainer.predict_regression(
                ckpt.ensemble, ckpt.kernel_spec, ckpt.X_train, ckpt.y_train,
                ckpt.stats.apply_x(query.X), ckpt.noise_var,
            )
            state["expected"] = {
                "means": ckpt.stats.invert_y(means_n),
                "variances": ckpt.stats.invert_variance(vars_n),
                "y": query.y,
                "noise_var": float(ckpt.stats.invert_variance(ckpt.noise_var)),
                "params_digest": digest_arrays(ckpt.ensemble.flat()),
            }
        return state["expected"]

    def op(self, state, call, mark) -> OpResult:
        out = state["workdir"] / "predictions.csv"
        rc = call(_quiet_cli, ["predict", "--checkpoint", state["checkpoint"],
                               "--data", state["query"], "--out", out])
        if rc != 0:
            return OpResult(error=f"dpkl predict exited {rc}")
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        got = np.asarray(rows[1:], dtype=np.float64).reshape(-1, 2)
        means, variances = got[:, 0], got[:, 1]
        exp = self._expected(state)
        y = exp["y"]
        if rows[0] != ["mean", "variance"] or got.shape[0] != y.shape[0]:
            return OpResult(error=f"expected {y.shape[0]} rows of mean,variance, "
                                  f"got {got.shape[0]}")
        quality = _regression_quality(means, variances, y, exp["noise_var"])
        error = None
        if not (np.all(np.isfinite(got)) and np.all(variances >= 0)):
            error = "predictions are not finite or have negative variance"
        elif not (np.array_equal(means, exp["means"])
                  and np.array_equal(variances, exp["variances"])):
            error = "CLI output differs from trainer.predict_regression"
        elif not quality["test_rmse"] < self.rmse_bar * float(np.std(y)):
            error = f"query RMSE {quality['test_rmse']:.4g} misses the bar {self.rmse_bar} x std(y)"
        return OpResult(
            ok=error is None, error=error, rows=int(got.shape[0]), quality=quality,
            digest=hashlib.sha256(
                (exp["params_digest"] + digest_arrays(means, variances)).encode()
            ).hexdigest(),
        )

    def evaluate(self, state, op: OpResult):
        """Each op checked its own output; the quality is on the query rows."""
        return op.quality, None, ""


def _sine(seed: int):
    s_lab, s_test = child_seeds(seed, 2)
    labeled = synth_regression("sine", n=50, D=1, noise_std=0.1, seed=s_lab)
    test = synth_regression("sine", n=1000, D=1, noise_std=0.1, seed=s_test)
    return labeled, None, test


def _friedman_pool(seed: int, n_l=400, n_u=5000, n_test=200):
    ds = synth_regression("friedman", n=n_l + n_u + n_test, D=8, noise_std=1.0, seed=seed)
    pool = slice(n_l, n_l + n_u)
    return (
        Dataset(ds.X[:n_l], ds.y[:n_l]),
        Dataset(ds.X[pool], np.zeros(n_u)),
        Dataset(ds.X[n_l + n_u:], ds.y[n_l + n_u:]),
    )


# Paper defaults throughout (m=50, q=100, MLP (100,50,50)); TrainConfig's
# defaults are those values, so only the route, mode and run length are set.
WORKLOADS = {
    w.name: w
    for w in (
        RegressionFit(
            "fit-rff",
            "rff route on sine, 45 training rows: backprop and the particle update dominate",
            _sine, dict(kernel_mode="rff", max_epochs=30, early_stop_check_every=10),
            rmse_bar=0.5,
        ),
        RegressionFit(
            "fit-exact",
            "exact route on the same problem: the m^2-pair cotangent loop and cross block dominate",
            _sine, dict(kernel_mode="exact", max_epochs=10, early_stop_check_every=5),
            rmse_bar=0.5,
        ),
        RegressionFit(
            "ssdpkl-pool",
            "ssdpkl rff on friedman, 400 labeled + 5000 pool rows: forward/backward over the pool and GP at n > q",
            _friedman_pool, dict(mode="ssdpkl", kernel_mode="rff", max_epochs=6,
                                 early_stop_check_every=6),
            rmse_bar=0.8,
        ),
        PredictServe(
            "predict-serve",
            "dpkl predict on a served checkpoint: checkpoint load, CSV parse, query x train kernel",
            n_labeled=100, n_test=20, D=8, n_query=2000,
            train_flags=["--max-epochs", "10"], rmse_bar=0.9,
        ),
        ClassifierFit(
            "classify-blobs",
            "fit_classifier on 3 blobs: minibatch steps through classify's own update rule, no GP",
            blobs=dict(C=3, n_per_class=100, d_in=3, separation=4.0), n_test_per_class=1000,
            config=dict(max_epochs=10, early_stop_check_every=5), accuracy_bar=0.85,
        ),
    )
}
