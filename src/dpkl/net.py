"""MLP particle ensemble: forward maps and closed-form vector-Jacobian products.

Each particle is a full set of MLP weights. The ensemble of m particles is the
empirical stand-in for a distribution over network parameters; all particles
share one architecture and are the rows of one (m, P) matrix. Backprop is
hand-written so gradients are exact, testable against finite differences, and
free of framework dependencies.

The ensemble goes through the network in groups of particles: each layer's
weights are strided (g, out, in) views of the matrix rows, the forward pass is
one stacked GEMM per layer for the whole group (``forward_group``), and the
vector-Jacobian product writes each layer's gradient straight into the same
views of an (m, P) output. Groups are sized so that a group's activations hold
about ``_GROUP_ENTRIES`` values, which keeps the working memory at
O(workers _GROUP_ENTRIES + m n d) for any input size; a large input goes one
particle at a time. ``forward_vjp`` is the forward pass that a VJP follows: at
the paper sizes it keeps the groups' activations (at most ``_TRACE_ENTRIES``)
for its one backward pass, and above that the backward pass recomputes them.
The trainer streams an ssdpkl pool through it in chunks sized to keep their
trace, so only a large labeled set is recomputed, and a pool group's later
chunks take the VJP's add mode: each layer's gradient goes through a layer
buffer of the worker range into the group's (m, P) sum, so no (m, P) scratch
is needed.
Per slice, the stacked GEMMs and reductions make the same calls as a
per-particle loop, so the results are bitwise equal to it.

Whole groups split over the kernel workers of ``threads`` (a split GEMM is not
bitwise on OpenBLAS), so each row of the embeddings and of the gradient keeps
its one-worker operations at any worker count. Workers write disjoint rows and
never write the cotangent. The backward chain works in place and drops each
activation once it has been read. A pass that keeps no trace
(``ensemble_embeddings``, and ``forward_vjp`` above ``_TRACE_ENTRIES``) writes
every group of a worker range into the range's one set of layer and delta
buffers, which the range allocates and passes down to each group, so a
pool-sized pass does not fault each group's arrays in afresh.
An ssdpkl pool's memory is a chunk's (``trainer``) and does not grow with its
rows; ``unlabeled_cap`` bounds only its time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import require_finite_input
from .errors import DimensionMismatch
from .threads import _split

ACTIVATIONS = ("relu", "tanh")

# Entries in one group's activations: particles go through the network
# together in groups of g, where g n (D + sum(hidden) + d) is at most 2^17
# float64 values (1 MB), so a group's stacked GEMMs and activations stay in
# a core's L2 while large inputs still go one particle at a time.
_GROUP_ENTRIES = 1 << 17
# Entries of a whole forward trace that ``forward_vjp`` keeps for its VJP:
# 2^20 float64 values (8 MB) hold the paper-size passes (457k entries at
# n=45, m=50) and each chunk of an ssdpkl pool, which the trainer sizes to it
# (99 rows at the paper MLP with D=8).
_TRACE_ENTRIES = 1 << 20


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer shapes of the latent map: input_dim -> hidden_dims... -> latent_dim."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (100, 50, 50)
    latent_dim: int = 2
    activation: str = "relu"

    def __post_init__(self):
        for name in ("input_dim", "latent_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must all be >= 1, got {tuple(self.hidden_dims)}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))

    @property
    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_out, fan_in) per layer; weights are stored (out, in)."""
        dims = [self.input_dim, *self.hidden_dims, self.latent_dim]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]

    @property
    def num_params(self) -> int:
        return sum(out * (fin + 1) for out, fin in self.layer_shapes)


class ParticleEnsemble:
    """m particles sharing one architecture, stored as the rows of one matrix.

    The (m, P) float64 matrix is the only storage: ``flat()`` returns it live,
    so an in-place update of the matrix is what every forward pass reads. Row
    l is particle l's parameter vector: per layer, the (out, in) weights
    row-major, then the bias. A NaN or inf parameter is a ValueError.
    """

    def __init__(self, arch: MlpArchitecture, flat: np.ndarray, seed: int):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim != 2 or flat.shape[1] != arch.num_params:
            raise DimensionMismatch(
                f"particle matrix has shape {flat.shape}, expected (m, {arch.num_params})"
            )
        require_finite_input(particles=flat)
        self.arch = arch
        self.seed = seed
        self._flat = flat

    @property
    def m(self) -> int:
        return self._flat.shape[0]

    def flat(self) -> np.ndarray:
        """The live (m, P) particle matrix."""
        return self._flat


def init_ensemble(arch: MlpArchitecture, m: int, seed: int) -> ParticleEnsemble:
    """Draw m particles i.i.d. from the He-scaled Gaussian init, deterministically.

    Weights are N(0, 2/fan_in) and biases zero. Particles are drawn
    sequentially, layer by layer, from one generator seeded with ``seed``, so
    the result is bitwise reproducible.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    W = np.zeros((m, arch.num_params))
    layers = _layer_views(arch, W)
    for l in range(m):
        for Wl, _ in layers:
            Wl[l] = rng.normal(0.0, np.sqrt(2.0 / Wl.shape[2]), size=Wl.shape[1:])
    return ParticleEnsemble(arch, W, seed)


def _activate(pre: np.ndarray, activation: str) -> np.ndarray:
    """The hidden-layer nonlinearity, in place."""
    if activation == "relu":
        return np.maximum(pre, 0.0, out=pre)
    return np.tanh(pre, out=pre)


def _chain_activation(delta: np.ndarray, a: np.ndarray, activation: str) -> None:
    """Multiply delta by the activation's derivative at its output a; a is spent."""
    if activation == "relu":
        delta *= a > 0.0
    else:
        np.multiply(a, a, out=a)
        np.subtract(1.0, a, out=a)
        delta *= a


def _width(arch: MlpArchitecture) -> int:
    """Activation entries a row and particle: D + sum(hidden) + d."""
    return arch.input_dim + sum(arch.hidden_dims) + arch.latent_dim


def _group_size(arch: MlpArchitecture, n: int) -> int:
    """Particles per group, so that a group's activations fill about _GROUP_ENTRIES."""
    return max(1, _GROUP_ENTRIES // (max(n, 1) * _width(arch)))


class _GroupBuffers:
    """Buffers for groups of up to g particles over n rows, views of one block,
    which a worker range allocates and passes down to each of its groups
    (``_over_groups``): with "acts", the layer outputs (g, n, fan_out); with
    "deltas", the backward deltas (g, n, fan_in) past the first layer; with
    "grad", one layer's (g, fan_out, fan_in) weight gradient and (g, fan_out)
    bias sums, at the largest layer's size, which an adding VJP writes before
    it adds them into its output. Freed as one array, the block keeps glibc
    from trimming the heap under the pass's other arrays; with one array a
    layer, an ssdpkl-pool epoch still took about 14k page faults, with the
    block none."""

    def __init__(self, arch: MlpArchitecture, g: int, n: int, kinds: tuple[str, ...]):
        shapes = arch.layer_shapes
        widths = ([out for out, _ in shapes] if "acts" in kinds else []) + (
            [fin for _, fin in shapes[1:]] if "deltas" in kinds else [])
        grad = max(out * (fin + 1) for out, fin in shapes) if "grad" in kinds else 0
        block, views, pos = np.empty(g * (n * sum(widths) + grad)), [], 0
        for w in widths:
            views.append(block[pos : pos + g * n * w].reshape(g, n, w))
            pos += g * n * w
        self.acts, self.deltas = views[: len(shapes)], views[len(shapes) :]
        self.grads = [(block[pos : pos + g * out * fin].reshape(g, out, fin),
                       block[pos + g * out * fin : pos + g * out * (fin + 1)].reshape(g, out))
                      for out, fin in shapes] if grad else []


def _over_groups(arch: MlpArchitecture, m: int, n: int, fn, buffers: tuple[str, ...] = ()) -> None:
    """Run ``fn(rows, bufs)`` on every particle group, whole groups on the kernel workers.

    With ``buffers``, the kinds of ``_GroupBuffers`` the pass writes, each
    worker range allocates one for its first, largest group and passes it as
    ``bufs`` to every group of the range; without them, each group's arrays
    would be freed and faulted in again by the next. A pass that keeps its
    activations and overwrites its output passes none, and its groups get None.
    """
    g = _group_size(arch, n)

    def run(start, stop):
        bufs = None if not buffers else _GroupBuffers(arch, min(g, m - start * g), n, buffers)
        for s in range(start * g, min(stop * g, m), g):
            fn(slice(s, s + g), bufs)

    _split(-(-m // g), g * n * _width(arch), run)


def _layer_views(arch: MlpArchitecture, W: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per layer, the (g, out, in) weight and (g, out) bias views of the rows of W.

    Slicing and reshaping a matrix whose rows are unit-stride never copies, so
    writing a view writes W.
    """
    views, pos = [], 0
    for out, fin in arch.layer_shapes:
        end = pos + out * fin
        views.append((W[:, pos:end].reshape(W.shape[0], out, fin), W[:, end : end + out]))
        pos = end + out
    return views


def _check_input(arch: MlpArchitecture, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != arch.input_dim:
        raise DimensionMismatch(f"X has shape {X.shape}, expected (n, {arch.input_dim})")
    return X


def forward_group(
    arch: MlpArchitecture, W: np.ndarray, X: np.ndarray, bufs: _GroupBuffers | None = None
) -> list[np.ndarray]:
    """Forward pass of the particles in the rows of W, keeping every layer's input.

    Returns [X, A_1, ..., Z]: the shared (n, D) input, then one stacked
    (g, n, width) array per layer; the last layer is affine only. Every
    forward pass of the library, with or without a backward pass, is a
    sequence of these calls. The layers are written into ``bufs.acts`` when
    ``bufs`` is given (a worker range's buffers, which its next group
    overwrites), else into fresh arrays.
    """
    acts = [X]
    layers = _layer_views(arch, W)
    for i, (Wl, bl) in enumerate(layers):
        out = None if bufs is None else bufs.acts[i][: len(W)]
        a = np.matmul(acts[-1], Wl.transpose(0, 2, 1), out=out)
        a += bl[:, None, :]
        acts.append(a if i == len(layers) - 1 else _activate(a, arch.activation))
    return acts


def ensemble_embeddings(ensemble: ParticleEnsemble, X: np.ndarray) -> np.ndarray:
    """Latent embeddings of X under every particle, stacked (m, n, d)."""
    return _forward(ensemble.arch, ensemble.flat(), _check_input(ensemble.arch, X), None)


def _forward(arch: MlpArchitecture, W: np.ndarray, X: np.ndarray, traces: dict | None):
    """The stacked embeddings; each group's other activations go to traces[first row] if given."""
    Z = np.empty((W.shape[0], X.shape[0], arch.latent_dim))

    def group(rows, bufs):
        acts = forward_group(arch, W[rows], X, bufs)
        Z[rows] = acts.pop()  # the backward chain never reads Z
        if traces is not None:
            traces[rows.start] = acts

    _over_groups(arch, W.shape[0], X.shape[0], group, ("acts",) if traces is None else ())
    return Z


def forward_vjp(ensemble: ParticleEnsemble, X: np.ndarray):
    """(Z, vjp): Z = ensemble_embeddings(ensemble, X) and the VJP of the forward map at X.

    ``vjp(G, out=None, add=False)`` returns the vector-Jacobian products of
    every particle's forward map, one row each: row l is d(sum_ij G[l]_ij
    Z^(l)_ij)/dw^(l), in the layout of the particle rows. G is (m, n, d); a
    broadcast view serves when every particle gets the same cotangent. Each
    layer's gradient is written straight into the layer views of ``out``, an
    (m, P) matrix with unit-stride rows (a column block of a wider matrix will
    do), allocated when None; returns ``out``. With ``add``, each layer's
    gradient goes into a layer buffer of the worker range and is added into
    ``out``'s views: the same bits as ``out += vjp(G)``, with no (m, P)
    temporary.

    The forward pass keeps every group's activations when they total at most
    ``_TRACE_ENTRIES`` (m n (D + sum(hidden) + d) values), so ``vjp`` runs no
    second forward pass; above that it recomputes each group's. Either way
    the results are bitwise equal. ``vjp`` spends the activations, so it may
    be called once; the particles must not change in between.
    """
    arch, W = ensemble.arch, ensemble.flat()
    X = _check_input(arch, X)
    m, n = W.shape[0], X.shape[0]
    traces = {} if m * n * _width(arch) <= _TRACE_ENTRIES else None
    Z = _forward(arch, W, X, traces)
    spent = []
    last = len(arch.layer_shapes) - 1

    def vjp(G: np.ndarray, out: np.ndarray | None = None, add: bool = False) -> np.ndarray:
        if spent:
            raise RuntimeError("a forward_vjp product can be taken once")
        G = np.asarray(G, dtype=np.float64)
        if G.shape != Z.shape:
            raise DimensionMismatch(f"cotangent has shape {G.shape}, forward output is {Z.shape}")
        if out is None:
            out = (np.zeros if add else np.empty)(W.shape)
        elif out.shape != W.shape or out.strides[1] != out.itemsize:
            raise DimensionMismatch(
                f"gradient output {out.shape} must be {W.shape} with unit-stride rows"
            )
        spent.append(True)

        def group(rows, bufs):
            if traces is None:
                acts = forward_group(arch, W[rows], X, bufs)[:-1]
            else:
                acts = traces.pop(rows.start)
            delta = G[rows]
            layers = list(zip(_layer_views(arch, W[rows]), _layer_views(arch, out[rows])))
            for i in range(last, -1, -1):
                (Wl, _), (gW, gb) = layers[i]
                if i < last:
                    # delta is the previous step's fresh product, so it is written in place
                    _chain_activation(delta, acts.pop(), arch.activation)
                tW, tb = (gW, gb) if not add else (b[: len(delta)] for b in bufs.grads[i])
                np.matmul(delta.transpose(0, 2, 1), acts[-1], out=tW)
                np.sum(delta, axis=1, out=tb)
                if add:
                    gW += tW
                    gb += tb
                if i > 0:
                    out_i = None if traces is not None else bufs.deltas[i - 1][: len(delta)]
                    delta = np.matmul(delta, Wl, out=out_i)

        kinds = ("acts", "deltas") if traces is None else ()
        _over_groups(arch, m, n, group, kinds + ("grad",) if add else kinds)
        return out

    return Z, vjp
