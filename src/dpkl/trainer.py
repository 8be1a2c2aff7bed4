"""Particle functional gradient descent on the (regularized) GP likelihood.

Each iteration computes every particle's gradient of the scalar objective,
mixes the raw gradients with an RBF kernel over parameter vectors (bandwidth
from the median heuristic), and applies one Adam update per particle. With a
single particle this is exactly gradient descent on the GP likelihood, i.e.
the deterministic deep-kernel baseline. ``functional_gradient_step`` is the
one update rule: it acts in place on an (m, P) particle matrix, and the
softmax classifier in ``classify`` calls it too. Its Adam update is one pass
over the matrix in chunks of ``_ADAM_CHUNK`` entries that stay in a core's
L2, written into two reused chunk buffers, so it allocates no (m, P)
array. Each chunk gets the unchunked update's elementwise operations in the
same order, so the result is bitwise identical to it. The step also records
the mean off-diagonal particle kernel, a particle-collapse signal, and the
norms of the raw and mixed gradients.

The objective's gradient is one grouped pass over the ensemble: embeddings
and kernel cotangents are stacked (m, n, d) arrays, and the VJP of
``net.forward_vjp``, which reuses the forward pass's activations at the paper
sizes, writes the (m, P) gradient in place.

``_train_epochs`` is the one epoch loop, shared with ``classify``: the
validation schedule, the non-finite metric guard, the best snapshot (a copy
of the particle matrix, replaced only by a strictly better metric), the
per-epoch ``EpochRecord``, the trajectory hook and the final loss, read
from the last record. ``fit`` supplies its full-batch epoch and validation
NLL; no pass runs after the last epoch.

Three training modes, one objective path per kernel route:
  ssdpkl — minimize (1/n_l) nll + (alpha/n_u) * sum of posterior variances
           over an unlabeled pool;
  dpkl   — the same algebra on an empty pool with weights 1 and 0, which is
           the GP negative log likelihood over labeled data;
  dkl    — single-particle dpkl (deterministic network baseline).
On the rff route the kernel R R^T has rank q, so the pool's variances and
cotangents are q x q Gram algebra: the objective holds O((n_l + n_u) q)
values and no n_l x n_u array, and ``unlabeled_cap`` bounds it.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar

import numpy as np

from . import gp, kernels, net
from .data import Dataset, require_finite_input
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyUnlabeledSet,
    InsufficientData,
    InternalConsistencyError,
)
from .linalg import BASE_JITTER, solve_chol
from .threads import single_threaded_blas

MODES = ("dpkl", "ssdpkl", "dkl")
KERNEL_MODES = ("exact", "rff")

_H_FLOOR = 1e-12
# Entries per chunk of the particle update's elementwise passes. In the Adam
# pass the phi, m1, m2 and W slices and two chunk buffers are 6 x 128 KB,
# which stays inside one core's L2.
_ADAM_CHUNK = 1 << 14
# Adam's moment decays and denominator offset, fixed as in the reference protocol
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    """All training hyperparameters; defaults follow the reference protocol."""

    m: int = 50
    q: int = 100
    learning_rate: float = 1e-3
    noise_var: float = 0.1
    ssdpkl_alpha: float = 1.0
    max_epochs: int = 100
    val_fraction: float = 0.1
    early_stop_check_every: int = 10
    seed: int = 0
    mode: str = "dpkl"
    kernel_mode: str = "rff"
    # latent map
    hidden_dims: tuple[int, ...] = (100, 50, 50)
    latent_dim: int = 2
    activation: str = "relu"
    # latent kernel
    amplitude: float = 0.5
    bandwidth: float = 1.0
    # numerics and plumbing
    unlabeled_cap: int = 50000
    batch_size: int = 16  # classification only; regression is full-batch
    base_jitter: ClassVar[float] = BASE_JITTER  # first rung of the Cholesky jitter ladder

    def validate(self) -> None:
        # NaN fails no comparison below, so non-finite floats are caught first
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.kernel_mode not in KERNEL_MODES:
            raise ConfigError(f"kernel_mode must be one of {KERNEL_MODES}")
        for name in ("m", "q", "early_stop_check_every", "unlabeled_cap", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        # the latent map's and the kernel's own checks, as config errors
        try:
            self.architecture(1)
            self.kernel_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.mode == "dkl" and self.m != 1:
            raise ConfigError("dkl mode forces m = 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("val_fraction must be in (0, 1)")
        if self.noise_var < 0:
            raise ConfigError("noise_var must be >= 0")
        if self.max_epochs < 0:
            raise ConfigError("max_epochs must be >= 0")
        if self.ssdpkl_alpha < 0:  # it would reward pool variance, not penalize it
            raise ConfigError("ssdpkl_alpha must be >= 0")

    def kernel_spec(self) -> kernels.LatentKernelSpec:
        return kernels.LatentKernelSpec(self.amplitude, self.bandwidth)

    def architecture(self, input_dim: int) -> net.MlpArchitecture:
        return net.MlpArchitecture(
            input_dim, tuple(self.hidden_dims), self.latent_dim, self.activation
        )


@dataclass
class TrainData(Dataset):
    """Labeled inputs/targets, plus an optional unlabeled pool for ssdpkl.

    Construction rejects what no fit can train on, as a user error: X and y
    get Dataset's checks (DimensionMismatch when their rows differ, ValueError
    for a NaN or inf), and the pool must be finite too, with X's columns.
    """

    X_unlabeled: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.X_unlabeled is not None:
            self.X_unlabeled = np.asarray(self.X_unlabeled, dtype=np.float64)
            if self.X_unlabeled.shape[1:] != self.X.shape[1:]:
                raise DimensionMismatch(f"pool has shape {self.X_unlabeled.shape}, "
                                        f"X has {self.dim} columns")
            require_finite_input(X_unlabeled=self.X_unlabeled)


def derive_seeds(seed: int) -> dict[str, int]:
    """Stable per-purpose child seeds from one master seed."""
    children = np.random.SeedSequence(seed).spawn(5)
    names = ("init", "val_split", "rff", "unlabeled", "batches")
    return {k: int(c.generate_state(1)[0]) for k, c in zip(names, children)}


# ---------------------------------------------------------------------------
# particle kernel
# ---------------------------------------------------------------------------


def _pairwise_sq_dists(flat: np.ndarray) -> np.ndarray:
    sq = np.sum(flat * flat, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (flat @ flat.T)
    return np.maximum(d2, 0.0)


def median_heuristic(d2: np.ndarray) -> float:
    """Bandwidth med^2 / log(m+1) from the (m, m) squared particle distances.

    Returns 1 for a single particle, and floors the bandwidth at 1e-12 when
    all particles coincide (kappa is then 1 among them regardless).
    """
    m = d2.shape[0]
    if m == 1:
        return 1.0
    iu = np.triu_indices(m, k=1)
    med = float(np.median(np.sqrt(d2[iu])))
    return max(med**2 / math.log(m + 1), _H_FLOOR)


def _kappa_matrix(d2: np.ndarray, h: float) -> np.ndarray:
    """RBF particle kernel exp(-|w - w'|^2 / h) from squared distances."""
    K = np.exp(-d2 / h)
    # Subnormal weights carry no mass next to the unit diagonal, but they make
    # the kappa @ G product about 30x slower; flush them to zero.
    K[K < np.finfo(float).tiny] = 0.0
    return K


# ---------------------------------------------------------------------------
# objective and per-particle gradients
# ---------------------------------------------------------------------------


@dataclass
class _ObjectiveResult:
    objective: float
    nll: float
    grads: np.ndarray  # (m, P), one row per particle
    jitter: float
    chol_min_diag: float  # smallest pivot of the GP Cholesky factor


def _rff_basis_for(config: TrainConfig) -> kernels.RffBasis:
    seed = derive_seeds(config.seed)["rff"]
    return kernels.sample_rff_basis(config.kernel_spec(), config.latent_dim, config.q, seed)


def _objective_core(
    ensemble: net.ParticleEnsemble,
    data: TrainData,
    config: TrainConfig,
    basis: kernels.RffBasis | None,
    out: np.ndarray | None = None,
) -> _ObjectiveResult:
    """c_nll * nll + w_reg * (sum of pool posterior variances) and its (m, P)
    gradient, written into out if given. Only ssdpkl has a pool: dpkl and dkl
    run the same algebra on an empty one, whose zero-size blocks add exact zeros.
    """
    spec = config.kernel_spec()
    X_lab = data.X
    y = np.asarray(data.y, dtype=np.float64).reshape(-1)
    n_l = X_lab.shape[0]
    if config.mode == "ssdpkl":
        X_pool = data.X_unlabeled
        c_nll, w_reg = 1.0 / n_l, config.ssdpkl_alpha / len(X_pool)
    else:
        X_pool, c_nll, w_reg = X_lab[:0], 1.0, 0.0
    Z_all, vjp = net.forward_vjp(ensemble, np.vstack([X_lab, X_pool]))
    rff = config.kernel_mode == "rff"

    if rff:
        # K = R R^T has rank q, so every pool term is a q x q Gram: with
        # P = A^{-1} R_L, Q = R_L^T P and G_U = R_U^T R_U, the pool's
        # B = A^{-1} K_LU is P R_U^T, and no n_l x n_u array is formed
        R_all = kernels.rff_feature_matrix(basis, Z_all, spec)
        R_L, R_U = R_all[:n_l], R_all[n_l:]
        state = gp.gp_state_exact(R_L @ R_L.T, y, config.noise_var, config.base_jitter)
        P = solve_chol(state.chol, R_L)
        Q, G_U = R_L.T @ P, R_U.T @ R_U
        PG = P @ G_U
        reg_value = float(np.trace(G_U) - np.sum(G_U * Q))
        BB = PG @ P.T
    else:
        K_full = kernels._exact_gram(spec, Z_all)
        K_LL, K_LU, k_ss = K_full[:n_l, :n_l], K_full[:n_l, n_l:], np.diag(K_full[n_l:, n_l:])
        state = gp.gp_state_exact(K_LL, y, config.noise_var, config.base_jitter)
        B = solve_chol(state.chol, K_LU)  # columns are A^{-1} k_*(u)
        reg_value = float(np.sum(k_ss) - np.sum(K_LU * B))
        BB = B @ B.T

    nll_value = gp.nll(state)
    objective = c_nll * nll_value + w_reg * reg_value
    # d objective / d K_LL, the cotangent of every labeled pair
    S_LL = c_nll * gp.nll_grad_kernel(state) + w_reg * BB
    if rff:
        T = np.empty_like(R_all)  # d objective / d R: labeled rows, then the pool's
        np.matmul(2.0 * S_LL, R_L, out=T[:n_l])
        T[:n_l] -= 2.0 * w_reg * PG
        np.matmul(R_U, Q, out=T[n_l:])
        np.subtract(R_U, T[n_l:], out=T[n_l:])
        T[n_l:] *= 2.0 * w_reg
        G = kernels.rff_embedding_cotangents(basis, Z_all, spec, T)
    else:
        C = np.block([[S_LL, -2.0 * w_reg * B],
                      [np.zeros_like(B.T), w_reg * np.eye(len(X_pool))]])
        G = kernels.kernel_embedding_cotangents(spec, Z_all, C)

    grads = vjp(G, out=out)
    chol_min_diag = float(np.min(np.diag(state.chol.L)))
    return _ObjectiveResult(objective, nll_value, grads, state.chol.jitter_used, chol_min_diag)


# ---------------------------------------------------------------------------
# update rule
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Per-particle Adam moments; only raw gradients are kernel-mixed.

    ``last_bandwidth`` and ``last_kappa_offdiag_mean`` describe the particle
    kernel of the latest step; the mean off-diagonal kappa is None for m = 1
    and tends to 1 as the particles collapse onto one another.
    ``last_grad_norm`` and ``last_mixed_grad_norm`` are the Frobenius norms of
    that step's raw (m, P) gradient and of its kappa-mixed gradient phi.
    """

    m1: np.ndarray
    m2: np.ndarray
    t: int = 0
    last_bandwidth: float | None = None
    last_kappa_offdiag_mean: float | None = None
    last_grad_norm: float | None = None
    last_mixed_grad_norm: float | None = None

    @staticmethod
    def zeros(m: int, p: int) -> "AdamState":
        return AdamState(m1=np.zeros((m, p)), m2=np.zeros((m, p)))


def _require_finite(value, stage: str, step: int) -> None:
    if not np.all(np.isfinite(value)):
        raise InternalConsistencyError(f"non-finite {stage} at step {step}")


def _adam_update(W: np.ndarray, phi: np.ndarray, opt: AdamState, config: TrainConfig) -> None:
    """One Adam step on W from the mixed gradient phi, in cache-sized chunks.

    Each chunk is a block of whole rows, or part of one row when a row exceeds
    _ADAM_CHUNK entries, so slicing never copies and a non-contiguous W is
    still written in place. Every chunk sees the same elementwise operations
    in the same order as the unchunked update, so the result is bitwise equal
    to it; the only working memory is two chunk buffers.
    """
    m, P = W.shape
    cols = min(P, _ADAM_CHUNK)
    rows = min(m, max(1, _ADAM_CHUNK // P))
    buf_a, buf_b = np.empty((rows, cols)), np.empty((rows, cols))
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    c1, c2 = 1.0 - b1**opt.t, 1.0 - b2**opt.t
    for i in range(0, m, rows):
        for j in range(0, P, cols):
            block = np.s_[i : i + rows, j : j + cols]
            g, m1, m2, w = phi[block], opt.m1[block], opt.m2[block], W[block]
            a, b = buf_a[: g.shape[0], : g.shape[1]], buf_b[: g.shape[0], : g.shape[1]]
            m1 *= b1
            np.multiply(1.0 - b1, g, out=a)
            m1 += a
            m2 *= b2
            np.multiply(1.0 - b2, g, out=a)
            a *= g
            m2 += a
            np.divide(m1, c1, out=a)
            a *= config.learning_rate
            np.divide(m2, c2, out=b)
            np.sqrt(b, out=b)
            b += _ADAM_EPS
            a /= b
            w -= a


def functional_gradient_step(
    W: np.ndarray,
    G: np.ndarray,
    opt: AdamState,
    config: TrainConfig,
) -> None:
    """Kernel-mix the particle gradients and take one Adam step, in place.

    W is the live (m, P) particle matrix and G its (m, P) gradient. The mixed
    gradient is phi(w_i) = sum_l kappa(w_i, w_l) G[l], with kappa's bandwidth
    from the median heuristic recomputed this step; one pairwise-distance
    matrix serves both. Updates W, opt.m1 and opt.m2 in place with one chunked
    Adam pass (``_adam_update``).
    Raises InternalConsistencyError on a non-finite gradient or update.
    """
    if G.shape != W.shape:
        raise ValueError(f"gradient {G.shape} does not match particles {W.shape}")
    opt.t += 1
    _require_finite(G, "gradient", opt.t)
    d2 = _pairwise_sq_dists(W)
    h = median_heuristic(d2)
    K = _kappa_matrix(d2, h)
    phi = K @ G
    opt.last_bandwidth = h
    m = K.shape[0]
    opt.last_kappa_offdiag_mean = (
        float((K.sum() - np.trace(K)) / (m * (m - 1))) if m > 1 else None
    )
    opt.last_grad_norm = math.sqrt(np.vdot(G, G))
    opt.last_mixed_grad_norm = math.sqrt(np.vdot(phi, phi))
    _adam_update(W, phi, opt, config)
    _require_finite(W, "particle update", opt.t)


# ---------------------------------------------------------------------------
# prediction (always the exact kernel route)
# ---------------------------------------------------------------------------


@single_threaded_blas()
def predict_regression(
    ensemble: net.ParticleEnsemble,
    spec: kernels.LatentKernelSpec,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_query: np.ndarray,
    noise_var: float,
    base_jitter: float = TrainConfig.base_jitter,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and latent variances at query points (normalized units)."""
    require_finite_input(X_query=X_query)
    Z_tr = net.ensemble_embeddings(ensemble, X_train)
    K = kernels.empirical_kernel_exact(spec, Z_tr)
    state = gp.gp_state_exact(K, y_train, noise_var, base_jitter)
    Z_q = net.ensemble_embeddings(ensemble, X_query)
    K_star, k_ss = kernels.cross_kernel_batch(spec, Z_tr, Z_q)
    return gp.posterior_batch(state, K_star, k_ss)


def predictive_nll(
    means: np.ndarray, variances: np.ndarray, y: np.ndarray, noise_var: float
) -> float:
    """Mean Gaussian negative log density of targets under the posterior."""
    v = variances + noise_var
    return float(np.mean(0.5 * (np.log(2.0 * np.pi * v) + (y - means) ** 2 / v)))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    train_nll: float
    objective: float
    val_metric: float | None
    h_kappa: float | None
    kappa_offdiag_mean: float | None  # particle-collapse signal: 1 when all coincide
    grad_norm: float  # |G| of the epoch's last step, raw per-particle gradients
    mixed_grad_norm: float  # |phi| of that step, after kappa-mixing
    jitter: float
    chol_min_diag: float | None  # min diag(L) of the GP Cholesky; None for classification
    seconds: float


@dataclass
class RunReport:
    """Everything a run produced besides the ensemble itself.

    A value the run never measured stays None (null in JSON): the final loss
    of a run with no epochs, for one. Otherwise the final loss is the last
    epoch's ``train_nll`` and ``objective``, taken before its update.
    """

    task: str
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_metric: float | None = None
    final_train_nll: float | None = None
    final_objective: float | None = None
    total_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def _validation_split(n: int, val_fraction: float, seed: int):
    order = np.random.default_rng(seed).permutation(n)
    n_val = math.ceil(val_fraction * n)
    n_train = n - n_val
    if n_train < 2:
        raise InsufficientData(
            f"{n} labeled points leave {n_train} for training after the validation split"
        )
    return order[:n_train], order[n_train:]


def _start(data: TrainData, config: TrainConfig, y: np.ndarray):
    """The start-up of ``fit`` and ``fit_classifier``: (seeds, (X_tr, y_tr),
    (X_val, y_val), initial ensemble). The validation set is the last
    ceil(val_fraction * n) rows of a seeded shuffle of (data.X, y)."""
    seeds = derive_seeds(config.seed)
    tr_idx, val_idx = _validation_split(data.n, config.val_fraction, seeds["val_split"])
    ensemble = net.init_ensemble(config.architecture(data.dim), config.m, seeds["init"])
    return seeds, (data.X[tr_idx], y[tr_idx]), (data.X[val_idx], y[val_idx]), ensemble


def _train_epochs(task, config, W, opt, run_epoch, val_metric, better, hook):
    """The epoch loop of ``fit`` and ``fit_classifier``; returns (best copy of W, report).

    ``run_epoch(epoch)`` steps the live particle matrix W and returns that
    epoch's (train_nll, objective, jitter, chol_min_diag); ``val_metric()``
    scores the live model. The metric is checked at epoch 0, every
    early_stop_check_every epochs and at the last epoch, and must be finite. A
    check takes a snapshot only when ``better(metric, best)`` holds, so a tie
    keeps the earlier one. ``hook(epoch)``, when given, runs after epoch 0's
    check and after every epoch.
    """
    report = RunReport(task=task)
    best_metric, best, best_epoch = val_metric(), W.copy(), 0
    if hook is not None:
        hook(0)
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        train_nll, objective, jitter, chol_min_diag = run_epoch(epoch)
        checked = epoch % config.early_stop_check_every == 0 or epoch == config.max_epochs
        metric = val_metric() if checked else None
        if metric is not None:
            _require_finite(metric, "validation metric", opt.t)
            if better(metric, best_metric):
                best_metric, best, best_epoch = metric, W.copy(), epoch
        report.epochs.append(
            EpochRecord(
                epoch, train_nll, objective, metric, opt.last_bandwidth,
                opt.last_kappa_offdiag_mean, opt.last_grad_norm, opt.last_mixed_grad_norm,
                jitter, chol_min_diag, time.perf_counter() - t0,
            )
        )
        if hook is not None:
            hook(epoch)
    # Epoch 0's metric is checked only now, so that a non-finite objective at
    # step 1 is reported as such; a NaN never compares better than it, so it
    # would otherwise stay "best".
    _require_finite(best_metric, "validation metric", 0)
    report.best_epoch, report.best_val_metric = best_epoch, best_metric
    if report.epochs:
        report.final_train_nll = report.epochs[-1].train_nll
        report.final_objective = report.epochs[-1].objective
    return best, report


@single_threaded_blas()
def fit(
    data: TrainData,
    config: TrainConfig,
    trajectory_hook=None,
) -> tuple[net.ParticleEnsemble, RunReport]:
    """Run the full training loop and return the best-validation snapshot.

    Validation NLL is checked at epoch 0, every early_stop_check_every
    epochs, and at the last epoch; the best snapshot is returned, never one
    worse than epoch 0. Deterministic given config.seed. Raises
    EmptyUnlabeledSet for ssdpkl without a pool, even at zero epochs. BLAS
    runs one thread.
    """
    config.validate()
    if config.mode == "ssdpkl" and (data.X_unlabeled is None or len(data.X_unlabeled) == 0):
        raise EmptyUnlabeledSet("ssdpkl mode needs a non-empty unlabeled pool")
    t_start = time.perf_counter()
    y = np.asarray(data.y, dtype=np.float64).reshape(-1)
    seeds, (X_tr, y_tr), (X_val, y_val), ensemble = _start(data, config, y)
    spec = config.kernel_spec()
    W = ensemble.flat()
    basis = _rff_basis_for(config) if config.kernel_mode == "rff" else None
    opt = AdamState.zeros(*W.shape)
    # One gradient buffer for every epoch. A fresh one, freed at each epoch's
    # end next to the step's phi, let glibc trim the heap top and fault about
    # 6 MB back in every epoch at the paper sizes.
    grads = np.empty_like(W)

    def run_epoch(epoch):
        # a pool over unlabeled_cap rows is subsampled afresh each epoch
        X_u = data.X_unlabeled
        if X_u is not None and X_u.shape[0] > config.unlabeled_cap:
            rng = np.random.default_rng([seeds["unlabeled"], epoch])
            X_u = X_u[rng.choice(X_u.shape[0], size=config.unlabeled_cap, replace=False)]
        result = _objective_core(
            ensemble, TrainData(X_tr, y_tr, X_u), config, basis, out=grads
        )
        _require_finite(result.objective, "objective", opt.t + 1)
        functional_gradient_step(W, result.grads, opt, config)
        return result.nll, result.objective, result.jitter, result.chol_min_diag

    def val_metric() -> float:
        means, variances = predict_regression(
            ensemble, spec, X_tr, y_tr, X_val, config.noise_var, config.base_jitter
        )
        return predictive_nll(means, variances, y_val, config.noise_var)

    hook = None if trajectory_hook is None else (lambda e: trajectory_hook(e, ensemble))
    best, report = _train_epochs(
        "regression", config, W, opt, run_epoch, val_metric, operator.lt, hook
    )
    report.total_seconds = time.perf_counter() - t_start
    return net.ParticleEnsemble(ensemble.arch, best, ensemble.seed), report
