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
      "rff_basis": {"q", "seed", "V", "b"} | null,
      "noise_var": <float>,
      "normalization": {"x_mean", "x_std", "y_mean", "y_std", "normalize_labels"},
      "train_data": {"X": [[...]], "y": [...]},   # normalized labeled data
      "config": {<fully resolved training config>}
    }

Each particle vector is one row of the ensemble's (m, P) particle matrix:
per layer, the (out, in) weight matrix row-major, then the bias. Each head
vector is one particle's (C, d) class-weight matrix, row-major. Floats
survive the JSON round trip bit-exactly (shortest-repr encoding).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import classify, kernels, net
from .data import NormalizationStats
from .errors import CheckpointError

FORMAT_NAME = "dpkl-checkpoint"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    task: str
    target_column: str | int
    ensemble: net.ParticleEnsemble
    head: classify.SoftmaxHead | None
    kernel_spec: kernels.LatentKernelSpec
    rff_basis: kernels.RffBasis | None
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
        "rff_basis": None
        if ckpt.rff_basis is None
        else {
            "q": ckpt.rff_basis.q,
            "seed": ckpt.rff_basis.seed,
            "V": ckpt.rff_basis.V.tolist(),
            "b": ckpt.rff_basis.b.tolist(),
        },
        "noise_var": ckpt.noise_var,
        "normalization": ckpt.stats.to_dict(),
        "train_data": {"X": ckpt.X_train.tolist(), "y": ckpt.y_train.tolist()},
        "config": ckpt.config,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path} is not valid JSON: {exc}")
    if doc.get("format") != FORMAT_NAME:
        raise CheckpointError(f"{path} is not a {FORMAT_NAME} file")
    if doc.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('format_version')}")

    ens_doc = doc["ensemble"]
    arch_doc = ens_doc["architecture"]
    arch = net.MlpArchitecture(
        input_dim=arch_doc["input_dim"],
        hidden_dims=tuple(arch_doc["hidden_dims"]),
        latent_dim=arch_doc["latent_dim"],
        activation=arch_doc["activation"],
    )
    if len(ens_doc["particles"]) != ens_doc["m"]:
        raise CheckpointError("particle count does not match m")
    ensemble = net.ParticleEnsemble(
        arch, np.asarray(ens_doc["particles"], dtype=np.float64), seed=ens_doc["seed"]
    )

    head = None
    if doc.get("head") is not None:
        C = doc["head"]["C"]
        thetas = np.asarray(doc["head"]["thetas"], dtype=np.float64)
        head = classify.SoftmaxHead(C, thetas.reshape(-1, C, arch.latent_dim))

    basis = None
    if doc.get("rff_basis") is not None:
        bd = doc["rff_basis"]
        basis = kernels.RffBasis(
            V=np.asarray(bd["V"], dtype=np.float64),
            b=np.asarray(bd["b"], dtype=np.float64),
            seed=bd["seed"],
        )

    return Checkpoint(
        task=doc["task"],
        target_column=doc["target_column"],
        ensemble=ensemble,
        head=head,
        kernel_spec=kernels.LatentKernelSpec(
            amplitude=doc["kernel"]["amplitude"], bandwidth=doc["kernel"]["bandwidth"]
        ),
        rff_basis=basis,
        noise_var=doc["noise_var"],
        stats=NormalizationStats.from_dict(doc["normalization"]),
        X_train=np.asarray(doc["train_data"]["X"], dtype=np.float64),
        y_train=np.asarray(doc["train_data"]["y"], dtype=np.float64),
        config=doc.get("config", {}),
        version=doc.get("version", "unknown"),
    )
