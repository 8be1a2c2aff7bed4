"""Probabilistic softmax classification over latent distributions.

The softmax head keeps one weight vector per class per particle; class scores
are the inner product of the particle-mean latent embedding with the
particle-mean class vector (exact for the linear kernel, O(m) instead of the
O(m^2) double sum). Training calls the regression trainer's update rule,
``trainer.functional_gradient_step``, once per minibatch of the cross-entropy:
each particle is a row of one joint matrix [network weights | class weights],
and the ensemble and the head are views into it. A minibatch's gradient is
one grouped forward pass and one grouped backward pass over all particles
(``net.ensemble_vjp``), written straight into the network block of the
(m, P + C d) joint gradient; the class-weight block follows in closed form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import net
from .errors import ConfigError, DimensionMismatch, InsufficientData
from .threads import single_threaded_blas
from .trainer import (
    AdamState,
    EpochRecord,
    RunReport,
    TrainConfig,
    TrainData,
    _kappa_matrix,  # noqa: F401 -- perfbench's tracer test reads classify._kappa_matrix
    _require_finite,
    _validation_split,
    derive_seeds,
    functional_gradient_step,
)


@dataclass
class SoftmaxHead:
    """Per-particle class-weight vectors: thetas is (m, C, d), thetas[l] is (C, d)."""

    C: int
    thetas: np.ndarray

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=np.float64)

    @property
    def m(self) -> int:
        return self.thetas.shape[0]

    @property
    def d(self) -> int:
        return self.thetas.shape[2]

    def flat(self) -> np.ndarray:
        """(m, C*d) matrix, one row-major class-weight matrix per particle."""
        return self.thetas.reshape(self.m, -1)

    def mean_theta(self) -> np.ndarray:
        return np.mean(self.thetas, axis=0)

    def copy(self) -> "SoftmaxHead":
        return SoftmaxHead(self.C, self.thetas.copy())


def init_head(C: int, d: int, m: int, seed: int) -> SoftmaxHead:
    """Gaussian head init with fan-in scaling, no bias, deterministic per seed."""
    if C < 2:
        raise ConfigError("classification needs at least two classes")
    rng = np.random.default_rng(seed)
    return SoftmaxHead(C, [rng.normal(0.0, np.sqrt(2.0 / d), size=(C, d)) for _ in range(m)])


def logits(head: SoftmaxHead, embeddings: np.ndarray) -> np.ndarray:
    """Class scores (n, C): particle-mean embedding dotted with particle-mean weights.

    The double particle average of theta_c . z_i factorizes into the product
    of the two means because the score is bilinear. ``embeddings`` is the
    stacked (m, n, d) particle images.
    """
    Z = np.asarray(embeddings)
    if Z.shape[-1] != head.d:
        raise DimensionMismatch(f"embeddings have dim {Z.shape[-1]}, head has d={head.d}")
    if Z.shape[0] != head.m:
        raise DimensionMismatch("embedding particle count does not match head")
    return Z.mean(axis=0) @ head.mean_theta().T


def softmax_probs(nu: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    nu = np.asarray(nu, dtype=np.float64)
    shifted = nu - nu.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def one_hot(labels: np.ndarray, C: int) -> np.ndarray:
    labels = np.asarray(labels)
    out = np.zeros((labels.shape[0], C))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(probs: np.ndarray, onehot: np.ndarray) -> float:
    """Mean negative log probability of the true class."""
    probs = np.asarray(probs, dtype=np.float64)
    onehot = np.asarray(onehot, dtype=np.float64)
    if probs.shape != onehot.shape:
        raise DimensionMismatch(f"probs {probs.shape} vs labels {onehot.shape}")
    p_true = np.sum(probs * onehot, axis=1)
    return float(-np.mean(np.log(p_true)))


def prediction_entropy(probs: np.ndarray) -> np.ndarray:
    """Per-row entropy of the class distribution, in nats."""
    p = np.clip(probs, 1e-300, 1.0)
    return -np.sum(p * np.log(p), axis=1)


def predict_probs(
    ensemble: net.ParticleEnsemble, head: SoftmaxHead, X: np.ndarray
) -> np.ndarray:
    return softmax_probs(logits(head, net.ensemble_embeddings(ensemble, X)))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def batch_grads(
    ensemble: net.ParticleEnsemble,
    head: SoftmaxHead,
    X: np.ndarray,
    labels: np.ndarray,
    l2: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Gradient of the batch objective w.r.t. each particle's joint (w, theta) vector.

    The objective is the cross-entropy of ``predict_probs`` on the batch, plus
    l2 times the squared norm of every particle's class weights when l2 > 0.
    Returns the (m, P + C*d) gradient, rows in the joint layout, and the
    objective's value at the current parameters, read off the same forward
    pass.
    """
    Z = net.ensemble_embeddings(ensemble, X)
    Z_bar = Z.mean(axis=0)
    theta_bar = head.mean_theta()
    probs = softmax_probs(Z_bar @ theta_bar.T)
    onehot = one_hot(labels, head.C)
    loss = cross_entropy(probs, onehot)
    if l2 > 0:
        loss += l2 * float(sum(np.sum(t * t) for t in head.thetas))
    E = (probs - onehot) / X.shape[0]
    G_z = (E @ theta_bar) / head.m  # same for every particle
    g_theta_common = (E.T @ Z_bar) / head.m
    p_net = ensemble.arch.num_params
    grads = np.empty((head.m, p_net + head.C * head.d))
    net.ensemble_vjp(ensemble, X, np.broadcast_to(G_z, Z.shape), out=grads[:, :p_net])
    g_theta = g_theta_common + (2.0 * l2 * head.thetas if l2 > 0 else 0.0)
    grads[:, p_net:] = g_theta.reshape(-1, head.C * head.d)  # broadcasts when l2 == 0
    return grads, loss


def fit_classifier(
    data: TrainData,
    config: TrainConfig,
    trajectory_hook=None,
) -> tuple[net.ParticleEnsemble, SoftmaxHead, RunReport]:
    """Minibatch particle functional gradient descent on the cross-entropy.

    Each particle's parameter vector is its network weights concatenated with
    its class-weight matrix, so the particle kernel and median heuristic act
    on the joint space. Returns the best-validation-accuracy snapshot. Each
    epoch's ``train_nll`` (and ``objective``) is the mean minibatch objective
    taken before that minibatch's update, from the forward pass the gradient
    needs anyway.
    """
    config.validate()
    if config.mode == "ssdpkl":
        raise ConfigError("ssdpkl applies to regression only")
    with single_threaded_blas():
        return _fit_classifier_loop(data, config, trajectory_hook)


def _fit_classifier_loop(data, config, trajectory_hook):
    t_start = time.perf_counter()
    X = np.asarray(data.X, dtype=np.float64)
    labels = np.asarray(data.y)
    if not np.all(labels == labels.astype(np.int64)):
        raise ConfigError("classification targets must be integer class labels")
    labels = labels.astype(np.int64)
    C = int(labels.max()) + 1
    if C < 2:
        raise InsufficientData("need at least two classes in the training data")

    seeds = derive_seeds(config.seed)
    tr_idx, val_idx = _validation_split(X.shape[0], config.val_fraction, seeds["val_split"])
    X_tr, y_tr = X[tr_idx], labels[tr_idx]
    X_val, y_val = X[val_idx], labels[val_idx]

    arch = config.architecture(X.shape[1])
    ensemble = net.init_ensemble(arch, config.m, seeds["init"])
    head = init_head(C, config.latent_dim, config.m, seeds["rff"])
    # one joint particle matrix; the ensemble and the head are views into it
    W = np.hstack([ensemble.flat(), head.flat()])
    p_net = arch.num_params
    ensemble = net.ParticleEnsemble(arch, W[:, :p_net], ensemble.seed)
    head = SoftmaxHead(C, W[:, p_net:].reshape(head.thetas.shape))
    opt = AdamState.zeros(*W.shape)

    def val_accuracy(ens, hd) -> float:
        probs = predict_probs(ens, hd, X_val)
        return float(np.mean(probs.argmax(axis=1) == y_val))

    report = RunReport(task="classification")
    best_metric = val_accuracy(ensemble, head)
    best_ens, best_head = ensemble.copy(), head.copy()
    best_epoch = 0
    if trajectory_hook is not None:
        trajectory_hook(0, ensemble, head)

    n_tr = X_tr.shape[0]
    bs = min(config.batch_size, n_tr)
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = np.random.default_rng([seeds["batches"], epoch]).permutation(n_tr)
        epoch_losses = []
        for start in range(0, n_tr, bs):
            idx = order[start : start + bs]
            G, loss = batch_grads(ensemble, head, X_tr[idx], y_tr[idx], config.classifier_l2)
            _require_finite(loss, "minibatch loss", opt.t + 1)
            functional_gradient_step(W, G, opt, config)
            epoch_losses.append(loss)
        checked = epoch % config.early_stop_check_every == 0 or epoch == config.max_epochs
        metric = val_accuracy(ensemble, head) if checked else None
        if metric is not None and metric > best_metric:
            best_metric = metric
            best_ens, best_head = ensemble.copy(), head.copy()
            best_epoch = epoch
        report.epochs.append(
            EpochRecord(
                epoch=epoch,
                train_nll=float(np.mean(epoch_losses)),
                objective=float(np.mean(epoch_losses)),
                val_metric=metric,
                h_kappa=opt.last_bandwidth,
                kappa_offdiag_mean=opt.last_kappa_offdiag_mean,
                grad_norm=opt.last_grad_norm,
                mixed_grad_norm=opt.last_mixed_grad_norm,
                jitter=0.0,
                chol_min_diag=None,
                seconds=time.perf_counter() - t0,
            )
        )
        if trajectory_hook is not None:
            trajectory_hook(epoch, ensemble, head)

    report.best_epoch = best_epoch
    report.best_val_metric = best_metric
    if report.epochs:
        report.final_train_nll = report.final_objective = report.epochs[-1].train_nll
    report.total_seconds = time.perf_counter() - t_start
    return best_ens, best_head, report
