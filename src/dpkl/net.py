"""MLP particle ensemble: forward maps and closed-form vector-Jacobian products.

Each particle is a full set of MLP weights. The ensemble of m particles is the
empirical stand-in for a distribution over network parameters; all particles
share one architecture and are the rows of one (m, P) matrix. Backprop is
hand-written so gradients are exact, testable against finite differences, and
free of framework dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer shapes of the latent map: input_dim -> hidden_dims... -> latent_dim."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (100, 50, 50)
    latent_dim: int = 2
    activation: str = "relu"

    def __post_init__(self):
        if self.input_dim < 1 or self.latent_dim < 1:
            raise ValueError("input_dim and latent_dim must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden dims must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))

    @property
    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_out, fan_in) per layer; weights are stored (out, in)."""
        dims = [self.input_dim, *self.hidden_dims, self.latent_dim]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]

    @property
    def num_params(self) -> int:
        return sum(out * (fin + 1) for out, fin in self.layer_shapes)


@dataclass
class MlpParams:
    """One particle's weights and biases; weights are (fan_out, fan_in)."""

    arch: MlpArchitecture
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def flatten(self) -> np.ndarray:
        """Single parameter vector: per layer, weights row-major then bias."""
        parts = []
        for W, b in zip(self.weights, self.biases):
            parts.append(W.ravel())
            parts.append(b)
        return np.concatenate(parts)


def unflatten_params(arch: MlpArchitecture, w: np.ndarray) -> MlpParams:
    """Inverse of MlpParams.flatten."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (arch.num_params,):
        raise DimensionMismatch(
            f"parameter vector has length {w.size}, architecture needs {arch.num_params}"
        )
    weights, biases, pos = [], [], 0
    for out, fin in arch.layer_shapes:
        weights.append(w[pos : pos + out * fin].reshape(out, fin))
        pos += out * fin
        biases.append(w[pos : pos + out])
        pos += out
    return MlpParams(arch, weights, biases)


class ParticleEnsemble:
    """m particles sharing one architecture, stored as the rows of one matrix.

    The (m, P) float64 matrix is the only storage: ``flat()`` returns it live,
    and each particle's weights and biases are reshaped views of its row, so
    an in-place update of the matrix is what every forward pass reads.
    """

    def __init__(self, arch: MlpArchitecture, flat: np.ndarray, seed: int):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim != 2 or flat.shape[1] != arch.num_params:
            raise DimensionMismatch(
                f"particle matrix has shape {flat.shape}, expected (m, {arch.num_params})"
            )
        self.arch = arch
        self.seed = seed
        self._flat = flat
        self._particles = tuple(unflatten_params(arch, row) for row in flat)

    @property
    def particles(self) -> tuple[MlpParams, ...]:
        """Per-particle views of the matrix rows; read-only."""
        return self._particles

    @property
    def m(self) -> int:
        return self._flat.shape[0]

    def flat(self) -> np.ndarray:
        """The live (m, P) particle matrix, rows in the MlpParams.flatten layout."""
        return self._flat

    def copy(self) -> "ParticleEnsemble":
        return ParticleEnsemble(self.arch, self._flat.copy(), self.seed)


def init_params(arch: MlpArchitecture, rng: np.random.Generator) -> MlpParams:
    """He-scaled Gaussian weights (std sqrt(2/fan_in)), zero biases."""
    weights, biases = [], []
    for out, fin in arch.layer_shapes:
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fin), size=(out, fin)))
        biases.append(np.zeros(out))
    return MlpParams(arch, weights, biases)


def init_ensemble(arch: MlpArchitecture, m: int, seed: int) -> ParticleEnsemble:
    """Draw m particles i.i.d. from the He-scaled Gaussian init, deterministically.

    Particles are drawn sequentially from one generator seeded with ``seed``,
    so the result is bitwise reproducible.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    return ParticleEnsemble(
        arch, np.stack([init_params(arch, rng).flatten() for _ in range(m)]), seed
    )


def _activate(pre: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(pre, 0.0)
    return np.tanh(pre)


def forward(p: MlpParams, X: np.ndarray) -> np.ndarray:
    """Map inputs (n, D) to latent points (n, d); last layer is affine only."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != p.arch.input_dim:
        raise DimensionMismatch(
            f"X has shape {X.shape}, expected (n, {p.arch.input_dim})"
        )
    a = X
    last = len(p.weights) - 1
    for i, (W, b) in enumerate(zip(p.weights, p.biases)):
        pre = a @ W.T + b
        a = pre if i == last else _activate(pre, p.arch.activation)
    return a


def _forward_trace(p: MlpParams, X: np.ndarray):
    """Forward pass keeping the post-activation input of every layer."""
    acts = [X]
    a = X
    last = len(p.weights) - 1
    for i, (W, b) in enumerate(zip(p.weights, p.biases)):
        pre = a @ W.T + b
        a = pre if i == last else _activate(pre, p.arch.activation)
        acts.append(a)
    return acts


def backward_params(p: MlpParams, X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product of the forward map, flattened.

    Returns d(sum_ij G_ij * Z_ij)/dw for Z = forward(p, X), in the same layout
    as MlpParams.flatten. G must match the forward output shape (n, d).
    """
    X = np.asarray(X, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    acts = _forward_trace(p, X)
    if G.shape != acts[-1].shape:
        raise DimensionMismatch(
            f"cotangent has shape {G.shape}, forward output is {acts[-1].shape}"
        )
    grads_w = [None] * len(p.weights)
    grads_b = [None] * len(p.weights)
    delta = G
    for i in range(len(p.weights) - 1, -1, -1):
        a_in = acts[i]
        if i < len(p.weights) - 1:
            # chain through the activation applied at layer i's output
            out = acts[i + 1]
            if p.arch.activation == "relu":
                delta = delta * (out > 0.0)
            else:
                delta = delta * (1.0 - out * out)
        grads_w[i] = delta.T @ a_in
        grads_b[i] = delta.sum(axis=0)
        delta = delta @ p.weights[i]
    parts = []
    for gw, gb in zip(grads_w, grads_b):
        parts.append(gw.ravel())
        parts.append(gb)
    return np.concatenate(parts)


def ensemble_embeddings(ensemble: ParticleEnsemble, X: np.ndarray) -> list[np.ndarray]:
    """Per-particle latent embeddings [Z^(1), ..., Z^(m)], each (n, d)."""
    return [forward(p, X) for p in ensemble.particles]
