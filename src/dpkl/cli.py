"""Batch command-line surface: train, predict, benchmark, report.

Outputs are plot-ready CSVs and JSON, never figures. Every JSON artifact
embeds the fully-resolved config and a build version string; every CSV gets a
.meta.json sidecar with the same so the tables themselves stay tidy and
RFC-4180 clean. Exit codes: 0 success, 1 user/config/data error, 2 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__, classify, net, threads, trainer
from .checkpoint import TASKS, Checkpoint, _write_atomic, load_checkpoint, save_checkpoint
from .data import Dataset, SplitSpec, load_csv, load_features, normalize, split
from .errors import (
    CheckpointError,
    ConfigError,
    DpklError,
    EmptyUnlabeledSet,
    InternalConsistencyError,
)
from .threads import single_threaded_blas
from .trainer import TrainConfig, TrainData

# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


@functools.cache
def build_version() -> str:
    """Package version plus the git commit in a checkout; cached, as it spawns git."""
    base = __version__
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"{base}+g{out.stdout.strip()}"
    except Exception:
        pass
    return base


def write_csv(path: Path, header, rows, config: dict, extra: dict | None = None) -> None:
    """Comma-delimited UTF-8 with a header row, then its sidecar, each written
    whole. csv writes a float, numpy's included, as its shortest repr."""
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    _write_atomic(path, text.getvalue())
    write_meta(path, config, extra)


def environment() -> dict:
    """Package versions, BLAS threads under the pinning, and the kernel worker count."""
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": threads.pinned_blas_threads(),
            "kernel_workers": threads._WORKERS}


def write_meta(csv_path: Path, config: dict, extra: dict | None = None) -> None:
    """Sidecar with the resolved config, version and environment, so CSVs stay tidy."""
    meta = {"version": build_version(), "config": config, "environment": environment()}
    if extra:
        meta.update(extra)
    _write_atomic(csv_path.with_suffix(".meta.json"), json.dumps(meta, indent=2))


def _error_record(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


# ---------------------------------------------------------------------------
# config resolution: flags > config file > the flags' defaults
#
# Each subcommand's parser is the one place that knows a key's type, default
# and allowed values. A --config file's values are converted and checked by
# the matching flag's action and become that parser's defaults, so the flags
# given on the command line still win. Flags that map onto TrainConfig fields
# default to None, leaving the default to the field itself.
# ---------------------------------------------------------------------------

_TRAIN_CONFIG_KEYS = [f.name for f in fields(TrainConfig)]


def _int_tuple(raw: str) -> tuple[int, ...]:
    """'100,50,50' -> (100, 50, 50)."""
    return tuple(int(x) for x in raw.split(",") if x.strip())


def _mode_list(raw: str) -> tuple[str, ...]:
    """'dpkl,dkl' -> ('dpkl', 'dkl'); every entry must be one of trainer.MODES."""
    modes = tuple(s.strip() for s in raw.split(",") if s.strip())
    unknown = [mode for mode in modes if mode not in trainer.MODES]
    if unknown:
        raise ValueError(f"modes must be from {list(trainer.MODES)}, got {unknown}")
    return modes


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def read_config_file(path, parser: argparse.ArgumentParser) -> dict:
    """Flat key=value file; '#' starts a comment.

    A key is the dest of one of ``parser``'s flags and converts as that flag
    does (a boolean for the on/off flags), with the flag's choices enforced.
    Any other key raises ConfigError.
    """
    actions = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            action = actions.get(key)
            # a misspelt key would otherwise go unused without a word
            if action is None:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            convert = _parse_bool if action.nargs == 0 else action.type or str
            try:
                value = convert(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: config key {key}: {exc}") from None
            if action.choices and value not in action.choices:
                raise ConfigError(f"{path}:{lineno}: config key {key} must be one of "
                                  f"{list(action.choices)}, got {value!r}")
            values[key] = value
    return values


def resolve_train_config(args, **overrides) -> TrainConfig:
    """TrainConfig from the parsed flags; ``overrides`` win over them and a
    None value leaves the field's default."""
    given = {key: getattr(args, key, None) for key in _TRAIN_CONFIG_KEYS}
    kwargs = {k: v for k, v in {**given, **overrides}.items() if v is not None}
    # dkl means a single deterministic network unless m was forced explicitly
    if kwargs.get("mode") == "dkl":
        kwargs.setdefault("m", 1)
    cfg = TrainConfig(**kwargs)
    cfg.validate()
    return cfg


def _spearman(x: np.ndarray, y: np.ndarray):
    """Spearman rank correlation, None when undefined (constant input)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) < 2 or np.all(x == x[0]) or np.all(y == y[0]):
        return None
    # imported here: scipy.stats takes most of a second to import, and only
    # this statistic needs it
    from scipy.stats import spearmanr

    rho = spearmanr(x, y).statistic
    return None if rho is None or math.isnan(rho) else float(rho)


# ---------------------------------------------------------------------------
# evaluation shared by train / benchmark
# ---------------------------------------------------------------------------


def _evaluate_regression(ensemble, cfg: TrainConfig, labeled, test, stats):
    """Test metrics in original target units, plus per-point tables."""
    means_n, vars_n = trainer.predict_regression(
        ensemble, cfg.kernel_spec(), labeled.X, labeled.y, test.X, cfg.noise_var
    )
    means = stats.invert_y(means_n)
    latent_var = stats.invert_variance(vars_n)
    pred_var = stats.invert_variance(vars_n + cfg.noise_var)
    y_true = stats.invert_y(test.y)
    sq_err = (means - y_true) ** 2
    return {
        "n_test": int(test.n),
        "rmse": float(np.sqrt(np.mean(sq_err))),
        "test_nll": trainer.predictive_nll(means, pred_var, y_true, 0.0),
        "spearman_variance_error": _spearman(pred_var, sq_err),
        "per_point": {
            "variance": pred_var.tolist(),
            "latent_variance": latent_var.tolist(),
            "squared_error": sq_err.tolist(),
        },
    }


def _evaluate_classification(ensemble, head, test):
    probs = classify.predict_probs(ensemble, head, test.X)
    labels = test.y.astype(np.int64)
    pred = probs.argmax(axis=1)
    errors = (pred != labels).astype(float)
    entropy = classify.prediction_entropy(probs)
    ce = classify.cross_entropy(probs, classify.one_hot(labels, head.C))
    return {
        "n_test": int(test.n),
        "accuracy": float(np.mean(pred == labels)),
        "test_cross_entropy": float(ce),
        "spearman_entropy_error": _spearman(entropy, errors),
        "per_point": {"entropy": entropy.tolist(), "error": errors.tolist()},
    }


def _run_training(
    ds: Dataset, cfg: TrainConfig, task: str,
    n_labeled: int | None, n_unlabeled: int, n_test: int | None, normalize_features: bool,
):
    """Split, normalize, fit, evaluate. Returns (ensemble, head, report, test
    metrics, normalized labeled and test sets, normalization stats).

    ``n_test`` None means every row not labeled or unlabeled; ``split``
    rejects sizes that are negative or exceed the dataset.
    """
    if n_labeled is None:
        raise ConfigError("--n-labeled is required")
    if n_test is None:
        n_test = max(ds.n - n_labeled - n_unlabeled, 0)
    parts = split(ds, SplitSpec(n_labeled, n_unlabeled, n_test, cfg.seed))
    labeled, unlabeled, test = parts["labeled"], parts["unlabeled"], parts["test"]
    labeled_n, (unlabeled_n, test_n), stats = normalize(
        labeled,
        [unlabeled, test],
        normalize_labels=(task == "regression"),
        normalize_features=normalize_features,
    )
    head = None
    if task == "regression":
        pool = unlabeled_n.X if cfg.mode == "ssdpkl" else None
        ensemble, report = trainer.fit(TrainData(labeled_n.X, labeled_n.y, pool), cfg)
        metrics = (
            _evaluate_regression(ensemble, cfg, labeled_n, test_n, stats)
            if n_test > 0
            else {}
        )
    else:
        ensemble, head, report = classify.fit_classifier(
            TrainData(labeled_n.X, labeled_n.y), cfg
        )
        metrics = _evaluate_classification(ensemble, head, test_n) if n_test > 0 else {}
    return ensemble, head, report, metrics, labeled_n, test_n, stats


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _out_dir(args) -> Path:
    """--out, refused before any data is read if it or its nearest existing parent is no directory."""
    out_dir = Path(args.out)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise FileExistsError(f"--out {out_dir}: {existing} exists and is not a directory")
    return out_dir


def _load_data(args) -> Dataset:
    """The --data CSV with its --target column, as train and benchmark read it."""
    if args.data is None or args.target is None:
        raise ConfigError("--data and --target are required")
    return load_csv(args.data, args.target, delimiter=args.delimiter,
                    has_header=not args.no_header, skip_bad_rows=args.skip_bad_rows)


def cmd_train(args) -> int:
    cfg = resolve_train_config(args)
    task, data_path, target = args.task, args.data, args.target
    out_dir = _out_dir(args)
    ds = _load_data(args)
    ensemble, head, report, metrics, labeled_n, test_n, stats = _run_training(
        ds, cfg, task, n_labeled=args.n_labeled, n_unlabeled=args.n_unlabeled,
        n_test=args.n_test, normalize_features=not args.no_normalize_features,
    )

    # mean over particles of each test point's latent image, (n_test, d)
    latent = net.ensemble_embeddings(ensemble, test_n.X).mean(axis=0)
    resolved = dict(asdict(cfg), task=task, data=str(data_path), target=str(target))
    version = build_version()
    ckpt = Checkpoint(
        task=task,
        target_column=target,
        ensemble=ensemble,
        head=head,
        kernel_spec=cfg.kernel_spec(),
        noise_var=cfg.noise_var,
        stats=stats,
        X_train=labeled_n.X,
        y_train=labeled_n.y,
        config=resolved,
        version=version,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint.json"
    save_checkpoint(ckpt_path, ckpt)

    report_doc = {
        "version": version,
        "config": resolved,
        "environment": environment(),
        "run": report.to_dict(),
        "test": metrics,
        "latent_mean_embeddings": latent.tolist(),
    }
    report_path = out_dir / "report.json"
    _write_atomic(report_path, json.dumps(report_doc, indent=2))

    print(
        json.dumps(
            {
                "checkpoint": str(ckpt_path),
                "report": str(report_path),
                "best_epoch": report.best_epoch,
                **{k: v for k, v in metrics.items() if not isinstance(v, dict)},
            }
        )
    )
    return 0


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    target = args.target if args.target is not None else ckpt.target_column
    D = ckpt.ensemble.arch.input_dim
    X = load_features(args.data, target, args.delimiter, not args.no_header)
    if X.shape[1] != D and args.no_header and args.target is None and not str(target).isdigit():
        # "0".."k-1" name a headerless file's columns: the target dropped none
        raise ConfigError(f"checkpoint target column {target!r} names no column of a file without "
                          "a header, so none was dropped; give --target as a 0-based index")
    if X.shape[1] != D:
        raise CheckpointError(
            f"query has {X.shape[1]} feature columns, checkpoint expects {D}"
        )

    X_n = ckpt.stats.apply_x(X)
    out_path = Path(args.out)
    if ckpt.task == "regression":
        means_n, vars_n = trainer.predict_regression(
            ckpt.ensemble, ckpt.kernel_spec, ckpt.X_train, ckpt.y_train, X_n,
            ckpt.noise_var,
        )
        means = ckpt.stats.invert_y(means_n)
        variances = ckpt.stats.invert_variance(vars_n)
        write_csv(out_path, ["mean", "variance"], zip(means, variances), ckpt.config)
    else:
        probs = classify.predict_probs(ckpt.ensemble, ckpt.head, X_n)
        entropy = classify.prediction_entropy(probs)
        header = ["pred_class", "entropy"] + [f"prob_{c}" for c in range(ckpt.head.C)]
        rows = [
            [int(p.argmax()), h, *p]
            for p, h in zip(probs, entropy)
        ]
        write_csv(out_path, header, rows, ckpt.config)
    print(json.dumps({"predictions": str(out_path), "n": int(X.shape[0])}))
    return 0


_BENCH_HEADER = ["dataset", "mode", "n", "trial", "seed", "rmse", "nll"]


def cmd_benchmark(args) -> int:
    data_path, target = args.data, args.target
    sizes, trials, n_unlabeled, workers = args.sizes, args.trials, args.n_unlabeled, args.workers
    modes = args.modes
    base_seed = TrainConfig.seed if args.seed is None else args.seed
    if not sizes or not modes or trials < 1:
        raise ConfigError(f"empty grid: sizes {list(sizes)}, modes {list(modes)}, "
                          f"trials {trials}")
    repeated = [f"{name} {v}" for name, values in (("size", sizes), ("mode", modes))
                for v in dict.fromkeys(values) if values.count(v) > 1]
    if repeated:  # a repeated cell would train twice and read as two trials
        raise ConfigError(f"repeated grid entries: {', '.join(repeated)}")
    if min(sizes) < 1:  # a cell needs labeled rows
        raise ConfigError(f"--sizes {min(sizes)} must be >= 1")
    if args.n_test is not None and args.n_test < 1:  # and test rows to report on
        raise ConfigError(f"--n-test {args.n_test} must be >= 1")
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    if "ssdpkl" in modes and n_unlabeled < 1:  # fit's own rule, before any cell trains
        raise EmptyUnlabeledSet(f"ssdpkl mode needs a non-empty unlabeled pool, "
                                f"got --n-unlabeled {n_unlabeled}")
    # each mode's config, refused before any data is read; the grid's dkl
    # cells are single networks even when --m sizes the others
    configs = {mode: resolve_train_config(args, mode=mode, m=1 if mode == "dkl" else args.m)
               for mode in modes}
    out_dir = _out_dir(args)

    ds = _load_data(args)
    dataset_name = Path(str(data_path)).stem
    n_test = args.n_test
    if n_test is None:
        n_test = ds.n - max(sizes) - n_unlabeled
        if n_test < 1:
            raise ConfigError("dataset too small for the requested sizes; set --n-test")

    def run_cell(mode: str, n: int, trial: int):
        seed = base_seed + trial
        cfg = replace(configs[mode], seed=seed)
        # every mode carves out the pool, so a trial's cells share their test rows
        _, _, _, metrics, *_ = _run_training(
            ds, cfg, "regression", n_labeled=n, n_unlabeled=n_unlabeled, n_test=n_test,
            normalize_features=not args.no_normalize_features,
        )
        return [dataset_name, mode, n, trial, seed, metrics["rmse"], metrics["test_nll"]]

    cells = [(mode, n, trial) for mode in modes for n in sizes for trial in range(trials)]
    results_path = out_dir / "results.csv"
    previous = []  # an earlier run's rows: resumed, and summarized with this run's
    if results_path.exists():
        with open(results_path, newline="") as fh:
            reader = csv.reader(fh)
            header, previous = next(reader, None), list(reader)
        if header != _BENCH_HEADER:
            raise ConfigError(f"{results_path} has header {header}, expected {_BENCH_HEADER}")
        for r, row in enumerate(previous, start=2):  # a crash mid-append leaves a short row
            try:
                if len(row) != len(_BENCH_HEADER):
                    raise ValueError(f"{len(row)} cells, expected {len(_BENCH_HEADER)}")
                row[2:] = [*map(int, row[2:5]), *map(float, row[5:])]
            except ValueError as exc:
                raise ConfigError(f"{results_path}: row {r} is not a results row: {exc}") from None
    existing = {tuple(r[:5]) for r in previous}
    # in results.csv's row order, so each row is appended once it and every row
    # before it are done: a killed grid leaves a prefix of rows to resume from
    todo = sorted(c for c in cells if (dataset_name, *c, base_seed + c[2]) not in existing)

    def attempt(cell):
        """The cell's results row (a list), or its failure record (a dict)."""
        try:
            return run_cell(*cell)
        except Exception as exc:
            return {"cell": list(cell), "error": type(exc).__name__, "message": str(exc)}

    rows, failures = [], []
    out_dir.mkdir(parents=True, exist_ok=True)
    # one worker keeps the cells on this thread, the only one whose kernel
    # loops threads._split spreads over the kernel workers
    with (ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool,
          open(results_path, "a", newline="", encoding="utf-8") as fh):
        results = csv.writer(fh)
        if fh.tell() == 0:  # a new file: its header is on disk before any cell runs
            results.writerow(_BENCH_HEADER)
            fh.flush()
        for outcome in (pool.map if pool else map)(attempt, todo):
            if isinstance(outcome, dict):
                failures.append(outcome)
                continue
            results.writerow(outcome)
            fh.flush()
            rows.append(outcome)

    # summary covers the whole results file, in its row order: mean and 1-std
    # error bars (a float written with repr reads back equal)
    groups: dict[tuple, list] = {}
    for dataset, mode, n, _, _, rmse, nll in [*previous, *rows]:
        groups.setdefault((dataset, mode, n), []).append((rmse, nll))
    summary = []
    for key, sel in sorted(groups.items()):
        rmses, nlls = (np.asarray(column) for column in zip(*sel))
        summary.append([*key, len(sel), rmses.mean(), rmses.std(), nlls.mean(), nlls.std()])
    summary_path = out_dir / "summary.csv"
    resolved = {
        "data": str(data_path), "target": str(target), "sizes": sizes, "modes": modes,
        "trials": trials, "seed": base_seed, "n_test": int(n_test),
        "n_unlabeled": n_unlabeled, "workers": workers,
    }
    write_meta(results_path, resolved, {"failures": failures})
    write_csv(summary_path, ["dataset", "mode", "n", "trials", "rmse_mean", "rmse_std",
                             "nll_mean", "nll_std"], summary, resolved)
    for failure in failures:
        _error_record(failure["error"], f"cell {failure['cell']}: {failure['message']}")
    if todo and len(failures) == len(todo):
        _error_record("BenchmarkFailed", "every trial failed")
        return 1
    print(json.dumps({"results": str(results_path), "summary": str(summary_path),
                      "new_rows": len(rows), "failures": len(failures)}))
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    report_path = run_dir / "report.json"
    if not report_path.exists():
        raise CheckpointError(f"{report_path} not found; run `dpkl train` first")
    with open(report_path) as fh:
        doc = json.load(fh)
    out_dir = Path(args.out) if args.out else run_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    config = doc.get("config", {})
    test = doc.get("test", {})
    per_point = test.get("per_point", {})
    outputs = {}

    latent = np.asarray(doc.get("latent_mean_embeddings", []))
    if latent.size:
        latent_path = out_dir / "latent.csv"
        write_csv(latent_path, [f"z{i}" for i in range(latent.shape[1])], latent, config)
        outputs["latent"] = str(latent_path)

    if "variance" in per_point:
        var = np.asarray(per_point["variance"])
        sq = np.asarray(per_point["squared_error"])
        order = np.argsort(var, kind="stable")
        bins = np.array_split(order, min(10, len(order)))
        rows = [
            [i + 1, len(b), float(var[b].mean()), float(sq[b].mean())]
            for i, b in enumerate(bins)
            if len(b)
        ]
        cal_path = out_dir / "calibration.csv"
        rho = {"spearman_variance_error": test.get("spearman_variance_error")}
        write_csv(cal_path, ["decile", "count", "mean_variance", "mean_squared_error"], rows,
                  config, rho)
        outputs.update(calibration=str(cal_path), **rho)

    if "entropy" in per_point:
        ent = per_point["entropy"]
        err = per_point["error"]
        ent_path = out_dir / "entropy.csv"
        rho = {"spearman_entropy_error": test.get("spearman_entropy_error")}
        write_csv(ent_path, ["entropy", "error"], zip(ent, err), config, rho)
        outputs.update(entropy=str(ent_path), **rho)

    if not outputs:
        raise CheckpointError("run directory has no test artifacts to report on")
    print(json.dumps(outputs))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_train_flags(p: argparse.ArgumentParser, out: str) -> None:
    p.add_argument("--config", help="key=value config file (flags override)")
    p.add_argument("--out", "-o", default=out, help=f"output directory (default: {out})")
    p.add_argument("--data")
    p.add_argument("--target")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--no-header", action="store_true", dest="no_header")
    p.add_argument("--skip-bad-rows", action="store_true", dest="skip_bad_rows")
    p.add_argument("--n-unlabeled", type=int, dest="n_unlabeled", default=0)
    p.add_argument("--n-test", type=int, dest="n_test")
    p.add_argument("--no-normalize-features", action="store_true", dest="no_normalize_features")
    # TrainConfig fields: None keeps the field's own default
    p.add_argument("--kernel-mode", choices=trainer.KERNEL_MODES, dest="kernel_mode")
    p.add_argument("--m", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--learning-rate", "--lr", type=float, dest="learning_rate")
    p.add_argument("--noise-var", type=float, dest="noise_var")
    p.add_argument("--alpha", type=float, dest="ssdpkl_alpha")
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--val-fraction", type=float, dest="val_fraction")
    p.add_argument("--check-every", type=int, dest="early_stop_check_every")
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden-dims", type=_int_tuple, dest="hidden_dims")
    p.add_argument("--latent-dim", type=int, dest="latent_dim")
    p.add_argument("--activation", choices=net.ACTIVATIONS)
    p.add_argument("--amplitude", type=float)
    p.add_argument("--bandwidth", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--unlabeled-cap", type=int, dest="unlabeled_cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpkl",
        description="GP regression and softmax classification over latent "
        "distributions learned by particle ensembles.",
    )
    parser.add_argument("--version", action="version", version=build_version())
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model and write checkpoint + report")
    _add_train_flags(p_train, out="run")
    p_train.add_argument("--mode", choices=trainer.MODES)
    p_train.add_argument("--task", choices=TASKS, default="regression")
    p_train.add_argument("--n-labeled", type=int, dest="n_labeled")
    p_train.set_defaults(func=cmd_train, parser=p_train)

    p_pred = sub.add_parser("predict", help="posterior predictions from a checkpoint")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--target", help="column to drop from the query file")
    p_pred.add_argument("--delimiter", default=",")
    p_pred.add_argument("--no-header", action="store_true", dest="no_header")
    p_pred.add_argument("--out", "-o", default="predictions.csv", help="output CSV path")
    p_pred.set_defaults(func=cmd_predict)

    # no abbreviations: train's --mode would otherwise read as --modes
    p_bench = sub.add_parser("benchmark", help="trials x sizes x modes RMSE/NLL grid",
                             allow_abbrev=False)
    _add_train_flags(p_bench, out="benchmark")
    p_bench.add_argument("--sizes", type=_int_tuple, default=(50, 100),
                         help="comma list of labeled-set sizes (default 50,100)")
    p_bench.add_argument("--trials", type=int, default=10)
    p_bench.add_argument("--modes", type=_mode_list, default="dpkl,dkl",
                         help="comma list from dpkl,ssdpkl,dkl (default dpkl,dkl)")
    p_bench.add_argument("--workers", type=int, default=1, help="parallel trial workers (default 1)")
    p_bench.set_defaults(func=cmd_benchmark, parser=p_bench)

    p_rep = sub.add_parser("report", help="calibration/latent/entropy tables from a run")
    p_rep.add_argument("--run-dir", required=True, dest="run_dir")
    p_rep.add_argument("--out", "-o", help="output directory (default: run dir)")
    p_rep.set_defaults(func=cmd_report)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Flags beat the --config file, which beats the flags' defaults."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        args.parser.set_defaults(**read_config_file(args.config, args.parser))
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        with single_threaded_blas():
            return args.func(args)
    except InternalConsistencyError as exc:
        _error_record(type(exc).__name__, str(exc))
        return 2
    except (DpklError, OSError, ValueError) as exc:
        _error_record(type(exc).__name__, str(exc))
        return 1
    except Exception as exc:  # anything else is an internal failure
        _error_record(type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
