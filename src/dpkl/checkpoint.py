"""Versioned JSON checkpoint format.

Layout (format_version 1), stable across releases:

    {
      "format": "dpkl-checkpoint",
      "format_version": 1,
      "version": "<package version / build id>",
      "task": "regression" | "classification",
      "target_column": <name or index used at training time>,
      "ensemble": {
        "architecture": {"input_dim", "hidden_dims", "latent_dim", "activation"},
        "m": <particle count>,
        "seed": <init seed>,
        "particles": [<flat parameter vector per particle>]
      },
      "head": {"C", "thetas": [<flat (C*d) vector per particle>]} | null,
      "kernel": {"amplitude", "bandwidth"},
      "rff_basis": null,
      "noise_var": <float>,
      "normalization": {"x_mean", "x_std", "y_mean", "y_std", "normalize_labels"},
      "train_data": {"X": [[...]], "y": [...]},   # normalized labeled data
      "config": {<fully resolved training config>}
    }

Each particle vector is one row of the ensemble's (m, P) particle matrix:
per layer, the (out, in) weight matrix row-major, then the bias. Each head
vector is one particle's (C, d) class-weight matrix, row-major. Floats
survive the JSON round trip bit-exactly (shortest-repr encoding).

Prediction always takes the exact kernel route, and the config's seed, q,
latent_dim and bandwidth determine the training rff basis, so new files
write ``rff_basis`` as null. Earlier v1 files may hold a {"q", "seed", "V",
"b"} object there; load ignores the key either way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import classify, kernels, net
from .data import Dataset, NormalizationStats
from .errors import CheckpointError, DimensionMismatch

FORMAT_NAME = "dpkl-checkpoint"
FORMAT_VERSION = 1
TASKS = ("regression", "classification")


@dataclass
class Checkpoint:
    task: str
    target_column: str | int
    ensemble: net.ParticleEnsemble
    head: classify.SoftmaxHead | None
    kernel_spec: kernels.LatentKernelSpec
    noise_var: float
    stats: NormalizationStats
    X_train: np.ndarray
    y_train: np.ndarray
    config: dict
    version: str = "unknown"


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    arch = ckpt.ensemble.arch
    doc = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "version": ckpt.version,
        "task": ckpt.task,
        "target_column": ckpt.target_column,
        "ensemble": {
            "architecture": {
                "input_dim": arch.input_dim,
                "hidden_dims": list(arch.hidden_dims),
                "latent_dim": arch.latent_dim,
                "activation": arch.activation,
            },
            "m": ckpt.ensemble.m,
            "seed": ckpt.ensemble.seed,
            "particles": ckpt.ensemble.flat().tolist(),
        },
        "head": None
        if ckpt.head is None
        else {"C": ckpt.head.C, "thetas": ckpt.head.flat().tolist()},
        "kernel": {
            "amplitude": ckpt.kernel_spec.amplitude,
            "bandwidth": ckpt.kernel_spec.bandwidth,
        },
        "rff_basis": None,
        "noise_var": ckpt.noise_var,
        "normalization": ckpt.stats.to_dict(),
        "train_data": {"X": ckpt.X_train.tolist(), "y": ckpt.y_train.tolist()},
        "config": ckpt.config,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _ensemble(doc: dict) -> net.ParticleEnsemble:
    a = doc["architecture"]
    arch = net.MlpArchitecture(a["input_dim"], tuple(a["hidden_dims"]), a["latent_dim"],
                               a["activation"])
    if len(doc["particles"]) != doc["m"]:
        raise CheckpointError("particle count does not match m")
    return net.ParticleEnsemble(
        arch, np.asarray(doc["particles"], dtype=np.float64), seed=doc["seed"]
    )


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; CheckpointError names a missing or malformed field."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise CheckpointError(f"{path} is not a {FORMAT_NAME} file")
    if doc.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('format_version')}")

    def field(name, parse=lambda v: v, optional=False):
        try:
            return parse(doc.get(name) if optional else doc[name])
        except (LookupError, TypeError, ValueError, AttributeError, DimensionMismatch) as exc:
            raise CheckpointError(
                f"checkpoint field {name!r} is missing or malformed ({type(exc).__name__}: {exc})"
            ) from None

    def require(name, ok, what):
        if not ok:
            raise CheckpointError(f"checkpoint field {name!r} is malformed: {what}")

    def known_task(task):
        if task not in TASKS:
            raise ValueError(f"{task!r} is not one of {TASKS}")
        return task

    ensemble = field("ensemble", _ensemble)
    D, d, m = ensemble.arch.input_dim, ensemble.arch.latent_dim, ensemble.m
    task = field("task", known_task)
    head = field("head", lambda h: None if h is None else classify.SoftmaxHead(
        h["C"], np.asarray(h["thetas"], dtype=np.float64).reshape(m, h["C"], d)
    ), optional=True)
    if task == "classification" and head is None:
        raise CheckpointError("checkpoint field 'head' is missing from a classification file")
    train = field("train_data", lambda t: Dataset(np.asarray(t["X"], dtype=np.float64),
                                                  np.asarray(t["y"], dtype=np.float64)))
    require("train_data", train.dim == D and train.y.ndim == 1, f"X must be (n, {D}), y (n,)")
    noise_var = field("noise_var", float)
    require("noise_var", 0 <= noise_var < math.inf, f"{noise_var} is not finite and >= 0")
    # the stats as normalize writes them: finite means, finite stds > 0
    stats = field("normalization", NormalizationStats.from_dict)
    std, mean = np.append(stats.x_std, stats.y_std), np.append(stats.x_mean, stats.y_mean)
    require("normalization", stats.x_mean.shape == stats.x_std.shape == (D,)
            and np.isfinite(mean).all() and np.all((0 < std) & (std < np.inf)),
            f"needs {D} feature means and stds, every mean finite, every std finite and > 0")
    return Checkpoint(
        task=task,
        target_column=field("target_column"),
        ensemble=ensemble,
        head=head,
        kernel_spec=field("kernel", lambda k: kernels.LatentKernelSpec(
            amplitude=k["amplitude"], bandwidth=k["bandwidth"]
        )),
        noise_var=noise_var,
        stats=stats,
        X_train=train.X,
        y_train=train.y,
        config=doc.get("config", {}),
        version=doc.get("version", "unknown"),
    )
