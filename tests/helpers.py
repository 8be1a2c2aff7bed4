"""Shared oracles for the test suite: finite differences and brute-force sums."""

import numpy as np

from dpkl.errors import DimensionMismatch
from dpkl.kernels import base_kernel
from dpkl.net import MlpParams


def det_cofactor(a: np.ndarray) -> float:
    """Determinant by cofactor expansion along the first row (oracle, n <= ~6)."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * det_cofactor(minor)
    return total


def kernel_quad_loop(spec, embeddings_a, embeddings_b) -> np.ndarray:
    """Quadruple-loop reference for the double particle-average kernel block."""
    m = len(embeddings_a)
    na, nb = embeddings_a[0].shape[0], embeddings_b[0].shape[0]
    K = np.zeros((na, nb))
    for i in range(na):
        for j in range(nb):
            acc = 0.0
            for Za in embeddings_a:
                for Zb in embeddings_b:
                    acc += base_kernel(spec, Za[i], Zb[j])
            K[i, j] = acc / m**2
    return K


def kernel_cotangents_loop(spec, embeddings, C) -> list[np.ndarray]:
    """Per-particle-pair reference for kernels.kernel_embedding_cotangents."""
    Csym = C + C.T
    m = len(embeddings)
    out = []
    for Zl in embeddings:
        G = np.zeros_like(Zl)
        for Zl2 in embeddings:
            d2 = np.sum((Zl[:, None, :] - Zl2[None, :, :]) ** 2, axis=-1)
            M = Csym * spec.amplitude * np.exp(-d2 / (2.0 * spec.bandwidth**2))
            G += M.sum(axis=1)[:, None] * Zl - M @ Zl2
        out.append(-G / (m**2 * spec.bandwidth**2))
    return out


def fd_gradient(f, w0: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(w0)
    for j in range(w0.size):
        wp, wm = w0.copy(), w0.copy()
        wp[j] += step
        wm[j] -= step
        g[j] = (f(wp) - f(wm)) / (2.0 * step)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """L2 relative error of a against reference b."""
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12))


def particle_fd_gradient(ensemble, l: int, objective, step: float = 1e-5) -> np.ndarray:
    """Finite differences of objective(ensemble) w.r.t. particle l alone."""
    row = ensemble.flat()[l]  # live row: writing it moves particle l
    w0 = row.copy()

    def f(w):
        row[:] = w
        try:
            return objective()
        finally:
            row[:] = w0

    return fd_gradient(f, w0, step)


def functional_gradient_step_unblocked(W, G, opt, config) -> None:
    """Reference for trainer.functional_gradient_step: Adam over whole arrays.

    The same kappa mixing, then the update written with full (m, P)
    temporaries and no chunking. The chunked in-place step must reproduce W,
    opt.m1, opt.m2 and opt.last_bandwidth bit for bit.
    """
    from dpkl.trainer import _kappa_matrix, median_heuristic

    opt.t += 1
    sq = np.sum(W * W, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (W @ W.T), 0.0)
    h = config.kappa_bandwidth if config.kappa_bandwidth is not None else median_heuristic(d2)
    phi = _kappa_matrix(d2, h) @ G
    opt.last_bandwidth = h

    b1, b2 = config.adam_beta1, config.adam_beta2
    opt.m1 *= b1
    opt.m1 += (1.0 - b1) * phi
    opt.m2 *= b2
    opt.m2 += (1.0 - b2) * phi * phi
    step = opt.m1 / (1.0 - b1**opt.t)
    step *= config.learning_rate
    denom = opt.m2 / (1.0 - b2**opt.t)
    np.sqrt(denom, out=denom)
    denom += config.adam_eps
    step /= denom
    W -= step


def forward(p: MlpParams, X: np.ndarray) -> np.ndarray:
    """Reference for net.ensemble_embeddings: one particle's forward map, (n, d)."""
    return _forward_trace(p, X)[-1]


def _forward_trace(p: MlpParams, X: np.ndarray) -> list[np.ndarray]:
    """One particle's forward pass keeping the post-activation input of every layer."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != p.arch.input_dim:
        raise DimensionMismatch(f"X has shape {X.shape}, expected (n, {p.arch.input_dim})")
    acts = [X]
    a = X
    last = len(p.weights) - 1
    for i, (W, b) in enumerate(zip(p.weights, p.biases)):
        pre = a @ W.T + b
        if i < last:
            pre = np.maximum(pre, 0.0) if p.arch.activation == "relu" else np.tanh(pre)
        a = pre
        acts.append(a)
    return acts


def backward_params(p: MlpParams, X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Reference for net.ensemble_vjp: one particle's vector-Jacobian product.

    Returns d(sum_ij G_ij * Z_ij)/dw for Z = forward(p, X), in the
    MlpParams.flatten layout. G must match the forward output shape (n, d).
    """
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
