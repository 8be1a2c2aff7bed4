"""Probabilistic softmax classification over latent distributions.

The softmax head keeps one weight vector per class per particle; class scores
are the inner product of the particle-mean latent embedding with the
particle-mean class vector (exact for the linear kernel, O(m) instead of the
O(m^2) double sum). Training calls the regression trainer's update rule,
``trainer.functional_gradient_step``, once per minibatch of the cross-entropy:
each particle is a row of one joint matrix [network weights | class weights],
and the ensemble and the head are views into it. A minibatch's gradient is
one grouped forward pass and one grouped backward pass over all particles
(``net.forward_vjp``), written straight into the network block of the
(m, P + C d) joint gradient; the class-weight block follows in closed form.
The epoch loop is the regression trainer's too (``trainer._train_epochs``):
this module supplies only the minibatch epoch and the validation accuracy,
and the best snapshot is one copy of the joint matrix.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass

import numpy as np

from . import net
from .data import require_finite_input
from .errors import ConfigError, DimensionMismatch, InsufficientData
from .threads import single_threaded_blas
from .trainer import (
    AdamState,
    RunReport,
    TrainConfig,
    TrainData,
    _kappa_matrix,  # noqa: F401 -- perfbench's tracer test reads classify._kappa_matrix
    _require_finite,
    _start,
    _train_epochs,
    functional_gradient_step,
)


@dataclass
class SoftmaxHead:
    """Per-particle class-weight vectors: thetas is (m, C, d), thetas[l] is (C, d).
    A NaN or inf weight is a ValueError."""

    C: int
    thetas: np.ndarray

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=np.float64)
        require_finite_input(thetas=self.thetas)

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


@single_threaded_blas()
def predict_probs(
    ensemble: net.ParticleEnsemble, head: SoftmaxHead, X: np.ndarray
) -> np.ndarray:
    require_finite_input(X=X)
    return softmax_probs(logits(head, net.ensemble_embeddings(ensemble, X)))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def batch_grads(
    ensemble: net.ParticleEnsemble,
    head: SoftmaxHead,
    X: np.ndarray,
    labels: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Gradient of the batch objective w.r.t. each particle's joint (w, theta) vector.

    The objective is the cross-entropy of ``predict_probs`` on the batch.
    Returns the (m, P + C*d) gradient, rows in the joint layout, and the
    objective's value at the current parameters, read off the same forward
    pass.
    """
    Z, vjp = net.forward_vjp(ensemble, X)
    Z_bar = Z.mean(axis=0)
    theta_bar = head.mean_theta()
    probs = softmax_probs(Z_bar @ theta_bar.T)
    onehot = one_hot(labels, head.C)
    loss = cross_entropy(probs, onehot)
    E = (probs - onehot) / X.shape[0]
    G_z = (E @ theta_bar) / head.m  # same for every particle
    g_theta_common = (E.T @ Z_bar) / head.m
    p_net = ensemble.arch.num_params
    grads = np.empty((head.m, p_net + head.C * head.d))
    vjp(np.broadcast_to(G_z, Z.shape), out=grads[:, :p_net])
    grads[:, p_net:] = g_theta_common.reshape(-1)  # the same for every particle
    return grads, loss


def _joint_views(arch: net.MlpArchitecture, C: int, W: np.ndarray, seed: int):
    """The ensemble and the head whose parameters are the columns of joint matrix W."""
    p_net = arch.num_params
    head = SoftmaxHead(C, W[:, p_net:].reshape(W.shape[0], C, -1))
    return net.ParticleEnsemble(arch, W[:, :p_net], seed), head


@single_threaded_blas()
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
    t_start = time.perf_counter()
    labels = data.y
    # one_hot would index a negative label from the last class
    if not np.all((labels == labels.astype(np.int64)) & (labels >= 0)):
        raise ConfigError("classification targets must be non-negative integer class labels")
    labels = labels.astype(np.int64)
    C = int(labels.max()) + 1
    if C < 2:
        raise InsufficientData("need at least two classes in the training data")

    seeds, (X_tr, y_tr), (X_val, y_val), init = _start(data, config, labels)
    W = np.hstack([init.flat(), init_head(C, config.latent_dim, config.m, seeds["rff"]).flat()])
    ensemble, head = _joint_views(init.arch, C, W, init.seed)
    opt = AdamState.zeros(*W.shape)
    n_tr = X_tr.shape[0]
    bs = min(config.batch_size, n_tr)

    def run_epoch(epoch):
        order = np.random.default_rng([seeds["batches"], epoch]).permutation(n_tr)
        losses = []
        for start in range(0, n_tr, bs):
            idx = order[start : start + bs]
            G, loss = batch_grads(ensemble, head, X_tr[idx], y_tr[idx])
            _require_finite(loss, "minibatch loss", opt.t + 1)
            functional_gradient_step(W, G, opt, config)
            losses.append(loss)
        loss = float(np.mean(losses))
        return loss, loss, 0.0, None

    def val_accuracy() -> float:
        probs = predict_probs(ensemble, head, X_val)
        return float(np.mean(probs.argmax(axis=1) == y_val))

    hook = None if trajectory_hook is None else (lambda e: trajectory_hook(e, ensemble, head))
    best, report = _train_epochs(
        "classification", config, W, opt, run_epoch, val_accuracy, operator.gt, hook
    )
    report.total_seconds = time.perf_counter() - t_start
    return (*_joint_views(init.arch, C, best, init.seed), report)
