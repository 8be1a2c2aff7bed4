"""Versioned JSON checkpoint format.

Layout (format_version 2), stable across releases:

    {
      "format": "dpkl-checkpoint",
      "format_version": 2,
      "version": "<package version / build id>",
      "task": "regression" | "classification",
      "target_column": <name or index used at training time>,
      "ensemble": {
        "architecture": {"input_dim", "hidden_dims", "latent_dim", "activation"},
        "m": <particle count>,
        "seed": <init seed>,
        "particles": <packed (m, P) array>
      },
      "head": {"C", "thetas": <packed (m, C*d) array>} | null,
      "kernel": {"amplitude", "bandwidth"},
      "rff_basis": null,
      "noise_var": <float>,
      "normalization": {"x_mean", "x_std", "y_mean", "y_std", "normalize_labels"},
      "train_data": {"X": <packed (n, D) array>, "y": <packed (n,) array>},
      "config": {<fully resolved training config>}
    }

A packed array is {"dtype": "<f8", "shape": [...], "base64": "..."}: the
little-endian float64 bytes of the C-order array as base64 text, bit-exact.
Particle row l is particle l's parameter vector: per layer, the (out, in)
weight matrix row-major, then the bias. Head row l is particle l's (C, d)
class-weight matrix, row-major. The file is written whole or not at all.

format_version 1 files, which hold the four arrays as JSON number lists,
still load, and resave as v2. Prediction takes the exact kernel route, so
``rff_basis`` is written as null; v1 files may hold a {"q", "seed", "V", "b"}
object there, which load ignores.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import classify, kernels, net
from .data import Dataset, NormalizationStats
from .errors import CheckpointError, DimensionMismatch

FORMAT_NAME = "dpkl-checkpoint"
FORMAT_VERSION = 2
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


def _pack(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype="<f8")
    return {"dtype": "<f8", "shape": list(a.shape),
            "base64": base64.b64encode(a.tobytes()).decode("ascii")}


def _unpack(v, ndim: int) -> np.ndarray:
    """A packed array of rank ndim as a writable native float64 array."""
    if not isinstance(v, dict):
        raise TypeError(f"expected a packed array object, got {type(v).__name__}")
    shape, raw = v["shape"], base64.b64decode(v["base64"], validate=True)
    if not (v["dtype"] == "<f8" and isinstance(shape, list) and len(shape) == ndim
            and all(type(s) is int and s >= 0 for s in shape)
            and len(raw) == 8 * math.prod(shape)):
        raise ValueError(f"dtype {v['dtype']!r}, shape {shape!r} and {len(raw)} bytes "
                         f"do not make a {ndim}-d '<f8' array")
    return np.frombuffer(raw, "<f8").astype(np.float64).reshape(shape)


def _write_atomic(path, text: str) -> None:
    """Write text to path whole or not at all: a temporary file beside it,
    flushed and fsynced, then renamed over it, and removed on failure."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
            "particles": _pack(ckpt.ensemble.flat()),
        },
        "head": None
        if ckpt.head is None
        else {"C": ckpt.head.C, "thetas": _pack(ckpt.head.flat())},
        "kernel": {
            "amplitude": ckpt.kernel_spec.amplitude,
            "bandwidth": ckpt.kernel_spec.bandwidth,
        },
        "rff_basis": None,
        "noise_var": ckpt.noise_var,
        "normalization": ckpt.stats.to_dict(),
        "train_data": {"X": _pack(ckpt.X_train), "y": _pack(ckpt.y_train)},
        "config": ckpt.config,
    }
    _write_atomic(path, json.dumps(doc))


def _ensemble(doc: dict, array) -> net.ParticleEnsemble:
    a = doc["architecture"]
    arch = net.MlpArchitecture(a["input_dim"], tuple(a["hidden_dims"]), a["latent_dim"],
                               a["activation"])
    ensemble = net.ParticleEnsemble(arch, array(doc["particles"], 2), seed=doc["seed"])
    if ensemble.m != doc["m"]:
        raise ValueError(f"{ensemble.m} particle rows, but m is {doc['m']}")
    return ensemble


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; CheckpointError names a missing or malformed field."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise CheckpointError(f"{path} is not a {FORMAT_NAME} file")
    if doc.get("format_version") not in (1, FORMAT_VERSION):
        raise CheckpointError(f"unsupported checkpoint version {doc.get('format_version')}")
    # v1 holds the arrays as JSON number lists
    array = _unpack if doc["format_version"] == 2 else lambda v, ndim: np.asarray(v, np.float64)

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

    ensemble = field("ensemble", lambda e: _ensemble(e, array))
    D, d, m = ensemble.arch.input_dim, ensemble.arch.latent_dim, ensemble.m
    task = field("task", known_task)
    head = field("head", lambda h: None if h is None else classify.SoftmaxHead(
        h["C"], array(h["thetas"], 2).reshape(m, h["C"], d)
    ), optional=True)
    if task == "classification" and head is None:
        raise CheckpointError("checkpoint field 'head' is missing from a classification file")
    train = field("train_data", lambda t: Dataset(array(t["X"], 2), array(t["y"], 1)))
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
