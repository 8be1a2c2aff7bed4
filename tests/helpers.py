"""Shared oracles for the test suite: finite differences, brute-force sums,
the per-particle, single-query and scalar forms of library routines that the
library itself computes only in stacked or batched form, and the
format_version 1 checkpoint writer."""

import json
import math
from dataclasses import dataclass

import numpy as np

from dpkl import classify, gp, kernels, linalg, net, trainer
from dpkl.checkpoint import FORMAT_NAME
from dpkl.errors import (
    DimensionMismatch,
    EmptyUnlabeledSet,
    InternalConsistencyError,
    NotPositiveDefinite,
)
from dpkl.gp import _VARIANCE_SLACK, GpState, nll_grad_kernel
from dpkl.kernels import LatentKernelSpec, empirical_cross_block
from dpkl.linalg import solve_chol
from dpkl.net import MlpArchitecture
from dpkl.trainer import TrainConfig, TrainData, _ObjectiveResult


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


def base_kernel(spec: LatentKernelSpec, z: np.ndarray, z2: np.ndarray) -> float:
    """Base RBF kernel between two latent points."""
    z = np.asarray(z, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if z.shape != z2.shape:
        raise DimensionMismatch(f"latent points differ in shape: {z.shape} vs {z2.shape}")
    d2 = float(np.sum((z - z2) ** 2))
    return spec.amplitude * np.exp(-d2 / (2.0 * spec.bandwidth**2))


def cross_kernel(spec, train_embeddings, query_embeddings) -> tuple[np.ndarray, float]:
    """(k_*, k_**) for a single query point; reference for kernels.cross_kernel_batch.

    ``query_embeddings`` holds the particle images of one point, each (1, d).
    k_*[i] averages the base kernel between training point i and the query over
    all particle pairs; k_** is the query's self-average.
    """
    query = np.asarray(query_embeddings, dtype=np.float64)
    if query.ndim != 3 or query.shape[1] != 1:
        raise DimensionMismatch("cross_kernel takes a single query point")
    k_star = empirical_cross_block(spec, train_embeddings, query)[:, 0]
    k_ss = float(empirical_cross_block(spec, query, query)[0, 0])
    return k_star, k_ss


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


# One-thread forms of the kernels that split their loops over workers: every
# output entry must come out bitwise equal to these at any worker count.


def _serial_particle_blocks(spec, embeddings_a, B):
    """All (l, rows, E) exp blocks of the one-loop cross block: row blocks of
    each a-side particle against every b-side image."""
    na = embeddings_a.shape[1]
    right_T = np.ascontiguousarray(kernels._augment(spec, B)[1].T)
    step = max(1, kernels._BLOCK_ENTRIES // max(B.shape[0], 1))
    buf = np.empty((min(step, na), B.shape[0]))
    for l, Za in enumerate(embeddings_a):
        left = kernels._augment(spec, Za)[0]
        for r0 in range(0, na, step):
            rows = slice(r0, min(r0 + step, na))
            E = buf[: rows.stop - r0]
            np.matmul(left[rows], right_T, out=E)
            yield l, rows, kernels._exp_nonpositive(E)


def empirical_cross_block_serial(spec, embeddings_a, embeddings_b) -> np.ndarray:
    """kernels.empirical_cross_block as one loop, the a-side particles summed in
    index order: bitwise equal to it up to m = 3, where its chunk cut falls
    after the first chunk's particles are summed, and to round-off above."""
    embeddings_a = np.asarray(embeddings_a, dtype=np.float64)
    embeddings_b = np.asarray(embeddings_b, dtype=np.float64)
    m, na, d = embeddings_a.shape
    nb = embeddings_b.shape[1]
    ones = np.ones(m)
    out = np.zeros((na, nb))
    for _, rows, E in _serial_particle_blocks(spec, embeddings_a, embeddings_b.reshape(-1, d)):
        out[rows] += ones @ E.reshape(-1, m, nb)
    return out * (spec.amplitude / m**2)


def cross_kernel_batch_serial(spec, train_embeddings, query_embeddings):
    """kernels.cross_kernel_batch from empirical_cross_block_serial and one loop
    over the self-pairs."""
    query_embeddings = np.asarray(query_embeddings, dtype=np.float64)
    K_star = empirical_cross_block_serial(spec, query_embeddings, train_embeddings)
    m, nq, _ = query_embeddings.shape
    left, right = kernels._augment(spec, query_embeddings.transpose(1, 0, 2))
    right_T = right.transpose(0, 2, 1)
    step = max(1, kernels._BLOCK_ENTRIES // m**2)
    k_ss = np.empty(nq)
    for r0 in range(0, nq, step):
        rows = slice(r0, r0 + step)
        k_ss[rows] = kernels._exp_nonpositive(left[rows] @ right_T[rows]).sum(axis=(1, 2))
    return K_star, k_ss * (spec.amplitude / m**2)


def rff_feature_matrix_serial(basis, embeddings, spec, cos=np.cos) -> np.ndarray:
    """One-thread kernels.rff_feature_matrix, one whole (n, q) phase matrix a
    particle, with libm's cos (or ``cos``)."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    m, n, _ = embeddings.shape
    scale = np.sqrt(spec.amplitude) * np.sqrt(2.0 / basis.q) / m
    R = np.zeros((n, basis.q))
    for Z in embeddings:
        R += cos(Z @ basis.V.T + basis.b)
    return scale * R


def rff_embedding_cotangents_serial(basis, embeddings, spec, T, sin=np.sin) -> np.ndarray:
    """One-thread VJP of kernels.rff_features_vjp, one whole (n, q) phase matrix a
    particle, with libm's sin (or ``sin``)."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    m, n, d = embeddings.shape
    scale = -np.sqrt(spec.amplitude) * np.sqrt(2.0 / basis.q) / m
    G = np.empty((m, n, d))
    for l, Z in enumerate(embeddings):
        G[l] = scale * ((T * sin(Z @ basis.V.T + basis.b)) @ basis.V)
    return G


def libm_sincos(theta, out, scratch=None):
    """kernels._sincos from np.cos and np.sin: the trig of the rff loops before
    they shared one reduction. It needs no scratch."""
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _sincos(theta):  # on a phase matrix the caller no longer needs
    return kernels._sincos(theta, np.empty(theta.shape, complex))


# The library's own trig in the per-particle one-thread forms above: its loops
# split rows, particles and blocks, and must give these bits at any worker count.


def rff_feature_matrix_sincos_serial(basis, embeddings, spec) -> np.ndarray:
    """rff_feature_matrix_serial with kernels._sincos's cosines."""
    return rff_feature_matrix_serial(basis, embeddings, spec, cos=lambda P: _sincos(P).real)


def rff_embedding_cotangents_sincos_serial(basis, embeddings, spec, T) -> np.ndarray:
    """rff_embedding_cotangents_serial with kernels._sincos's sines."""
    return rff_embedding_cotangents_serial(basis, embeddings, spec, T, sin=lambda P: _sincos(P).imag)


# The exact cotangent chain before it built each particle pair's block once:
# every block (l, l') in both orders, in one thread. The library's chain sums
# each entry's pairs in another order, so it matches this at a stated rtol.


def kernel_embedding_cotangents_all_blocks(spec, embeddings, C) -> np.ndarray:
    """kernels.kernel_embedding_cotangents over all m^2 particle blocks, rows only."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    m, n, d = embeddings.shape
    Csym = C + C.T
    B = embeddings.reshape(-1, d)
    B1 = np.concatenate([B, np.ones((m * n, 1))], axis=1)
    G = np.empty((m, n, d))
    for l, rows, E in _serial_particle_blocks(spec, embeddings, B):
        M = E.reshape(-1, m, n)
        M *= Csym[rows, None, :]
        P = E @ B1
        G[l, rows] = P[:, d:] * embeddings[l][rows] - P[:, :d]
    G *= -spec.amplitude / (m**2 * spec.bandwidth**2)
    return G


def cross_cotangents_all_blocks(spec, embeddings_a, embeddings_b, C):
    """kernels.kernel_embedding_cotangents over two point sets, (G_a, G_b), from
    every particle block (l, l') built dense, in one thread."""
    Za = np.asarray(embeddings_a, dtype=np.float64)
    Zb = np.asarray(embeddings_b, dtype=np.float64)
    m = len(Za)
    scale = 1.0 / (m**2 * spec.bandwidth**2)
    G_a, G_b = np.zeros_like(Za), np.zeros_like(Zb)
    for l in range(m):
        for l2 in range(m):
            diff = Za[l][:, None, :] - Zb[l2][None, :, :]  # (n_a, n_b, d)
            M = C * spec.amplitude * np.exp(-np.sum(diff**2, axis=-1) / (2.0 * spec.bandwidth**2))
            G_a[l] -= scale * np.einsum("ij,ijd->id", M, diff)
            G_b[l2] += scale * np.einsum("ij,ijd->jd", M, diff)
    return G_a, G_b


# The exact cotangent chain with its own tile loop, before the loop was shared
# with the training Gram and before its tiles held whole particles: the library's
# chain must stay bitwise equal to it where m n^2 <= _BLOCK_ENTRIES (the same
# tiles), and equal to round-off where its tiles cut a particle's columns. One
# thread runs the chunks in order, which the fixed chunks make the same bits as
# any worker count.


def kernel_embedding_cotangents_own_loop(spec, embeddings, C) -> np.ndarray:
    """kernels.kernel_embedding_cotangents with the tile loop written inline."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    m, n, d = embeddings.shape
    B = embeddings.reshape(-1, d)
    B1 = np.concatenate([B, np.ones((m * n, 1))], axis=1)
    left = kernels._augment(spec, embeddings)[0]
    right_T = np.ascontiguousarray(kernels._augment(spec, B)[1].T)
    rows_step = min(n, max(1, math.isqrt(kernels._BLOCK_ENTRIES)))
    cols_step = min(m * n, max(1, kernels._BLOCK_ENTRIES // rows_step))
    Csym = np.empty((n, n + cols_step - 1))
    np.add(C, C.T, out=Csym[:, :n])
    c = n
    while c < Csym.shape[1]:
        w = min(c, Csym.shape[1] - c)
        Csym[:, c : c + w] = Csym[:, :w]
        c += w
    chunks = kernels._CHUNKS
    owned = np.cumsum(np.arange(m, 0, -1))
    cuts = [0, *np.searchsorted(owned, owned[-1] * np.arange(1, chunks) / chunks) + 1, m]
    A = np.zeros((chunks, m * n, d + 1))
    buf = np.empty(rows_step * cols_step)
    for k in range(chunks):
        for l in range(cuts[k], cuts[k + 1]):
            for r0 in range(0, n, rows_step):
                r1 = min(r0 + rows_step, n)
                rows = slice(l * n + r0, l * n + r1)
                for c0 in range(l * n, m * n, cols_step):
                    c1 = min(c0 + cols_step, m * n)
                    M = buf[: (r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
                    np.matmul(left[l, r0:r1], right_T[:, c0:c1], out=M)
                    kernels._exp_nonpositive(M)
                    M *= Csym[r0:r1, c0 % n : c0 % n + c1 - c0]
                    A[k, rows] += M @ B1[c0:c1]
                    c_other = max(c0, (l + 1) * n)
                    if c_other < c1:
                        A[k, c_other:c1] += M[:, c_other - c0 :].T @ B1[rows]
    total = A.sum(axis=0)
    G = (total[:, d:] * B - total[:, :d]).reshape(m, n, d)
    G *= -spec.amplitude / (m**2 * spec.bandwidth**2)
    return G


# The rff objective before its pool terms became q x q Grams: K_LU = R_L R_U^T
# and B = A^{-1} K_LU as n_l x n_u arrays. The library's Gram algebra sums in
# another order, so it matches this at a stated rtol; on an empty pool the two
# make the same operations, and dpkl and dkl must match it bit for bit.


def rff_objective_dense_pool(ensemble, data, config, basis):
    """(objective, nll, (m, P) gradient) of trainer._objective_core's rff route, dense pool terms."""
    from dpkl import gp

    spec = config.kernel_spec()
    X_lab = np.asarray(data.X, dtype=np.float64)
    y = np.asarray(data.y, dtype=np.float64).reshape(-1)
    n_l = X_lab.shape[0]
    if config.mode == "ssdpkl":
        X_pool = data.X_unlabeled
        c_nll, w_reg = 1.0 / n_l, config.ssdpkl_alpha / len(X_pool)
    else:
        X_pool, c_nll, w_reg = X_lab[:0], 1.0, 0.0
    Z_all, vjp = net.forward_vjp(ensemble, np.vstack([X_lab, X_pool]))
    R_all, rff_vjp = kernels.rff_features_vjp(basis, Z_all, spec)
    R_L, R_U = R_all[:n_l], R_all[n_l:]
    K_LL, K_LU, k_ss = R_L @ R_L.T, R_L @ R_U.T, np.sum(R_U * R_U, axis=1)
    state = gp.gp_state_exact(K_LL, y, config.noise_var, config.base_jitter)
    nll_value = gp.nll(state)
    B = linalg.solve_chol(state.chol, K_LU)
    reg_value = float(np.sum(k_ss) - np.sum(K_LU * B))
    S_LL = c_nll * gp.nll_grad_kernel(state) + w_reg * (B @ B.T)
    T_L = 2.0 * S_LL @ R_L - 2.0 * w_reg * (B @ R_U)
    T_U = 2.0 * w_reg * (R_U - B.T @ R_L)
    G = rff_vjp(np.vstack([T_L, T_U]))
    return c_nll * nll_value + w_reg * reg_value, nll_value, vjp(G)


# trainer._objective_core before it streamed the pool: the labeled rows and
# the pool stacked into one forward pass and one kernel build, a dense
# (n_l + n_u)^2 Gram and np.block cotangent on the exact route. The streamed
# objective sums the pool chunk by chunk, so it matches this at a stated rtol;
# on an empty pool the two make the same operations, bit for bit.


def objective_core_whole_batch(
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
        R_all, rff_vjp = kernels.rff_features_vjp(basis, Z_all, spec)
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
        G = rff_vjp(T)
    else:
        C = np.block([[S_LL, -2.0 * w_reg * B],
                      [np.zeros_like(B.T), w_reg * np.eye(len(X_pool))]])
        G = kernels.kernel_embedding_cotangents(spec, Z_all, C)

    grads = vjp(G, out=out)
    chol_min_diag = float(np.min(np.diag(state.chol.L)))
    return _ObjectiveResult(objective, nll_value, grads, state.chol.jitter_used, chol_min_diag)


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

    The same kappa mixing and the same algebra (squared norms from the Gram
    diagonal, Kingma & Ba's efficient Adam), written with full (m, P)
    temporaries and no chunking. The chunked in-place step must reproduce W,
    opt.m1, opt.m2 and opt.last_bandwidth bit for bit.
    """
    from dpkl.trainer import _kappa_matrix, median_heuristic

    opt.t += 1
    gram = W @ W.T
    sq = np.diagonal(gram)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
    np.fill_diagonal(d2, 0.0)
    h = median_heuristic(d2)
    phi = _kappa_matrix(d2, h) @ G
    opt.last_bandwidth = h

    b1, b2 = 0.9, 0.999
    c1, c2 = 1.0 - b1**opt.t, 1.0 - b2**opt.t
    opt.m1 *= b1
    opt.m1 += (1.0 - b1) * phi
    opt.m2 *= b2
    opt.m2 += (1.0 - b2) * phi * phi
    step = opt.m1 * (config.learning_rate * math.sqrt(c2) / c1)
    denom = np.sqrt(opt.m2)
    denom += 1e-8 * math.sqrt(c2)
    step /= denom
    W -= step


def functional_gradient_step_textbook(W, G, opt, config) -> None:
    """Oracle for trainer.functional_gradient_step in textbook algebra.

    Squared norms from a separate row-sum pass and Adam with bias-corrected
    moments, lr * (m1 / c1) / (sqrt(m2 / c2) + eps). The step agrees with it
    to round-off, not bit for bit.
    """
    from dpkl.trainer import _kappa_matrix, median_heuristic

    opt.t += 1
    sq = np.sum(W * W, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (W @ W.T), 0.0)
    h = median_heuristic(d2)
    phi = _kappa_matrix(d2, h) @ G
    opt.last_bandwidth = h

    b1, b2 = 0.9, 0.999
    opt.m1 *= b1
    opt.m1 += (1.0 - b1) * phi
    opt.m2 *= b2
    opt.m2 += (1.0 - b2) * phi * phi
    step = opt.m1 / (1.0 - b1**opt.t)
    step *= config.learning_rate
    denom = opt.m2 / (1.0 - b2**opt.t)
    np.sqrt(denom, out=denom)
    denom += 1e-8
    step /= denom
    W -= step


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
    """Inverse of MlpParams.flatten: views of one particle row of the (m, P) matrix."""
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


def ensemble_vjp(ensemble, X, G, out=None) -> np.ndarray:
    """net.forward_vjp's product as one call: the (m, P) VJP of every particle at X."""
    return net.forward_vjp(ensemble, X)[1](G, out)


def backward_params(p: MlpParams, X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Reference for net.forward_vjp's product: one particle's vector-Jacobian product.

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


def inv_chol(f: linalg.CholFactor) -> np.ndarray:
    """Explicit inverse of the factored matrix."""
    return linalg.solve_chol(f, np.eye(f.n))


def nll_grad_rff(state: GpState, R: np.ndarray) -> np.ndarray:
    """d nll / d R = 2 (d nll / d K) R for K = R R^T, on the state built from R."""
    return 2.0 * nll_grad_kernel(state) @ R


@dataclass(frozen=True)
class PredictiveDistribution:
    """Posterior mean and latent variance at one query (normalized target units)."""

    mean: float
    variance: float


def posterior(state: GpState, k_star: np.ndarray, k_ss: float) -> PredictiveDistribution:
    """GP posterior at one query: mean k_*^T alpha, variance k_** - k_*^T A^{-1} k_*.

    Reference for gp.posterior_batch.
    """
    k_star = np.asarray(k_star, dtype=np.float64).reshape(-1)
    if k_star.shape[0] != state.n:
        raise DimensionMismatch(f"k_star has length {k_star.shape[0]}, state has n={state.n}")
    if k_ss < 0:
        raise ValueError("k_ss must be >= 0")
    mean = float(k_star @ state.alpha)
    var = float(k_ss - k_star @ linalg.solve_chol(state.chol, k_star))
    if var < _VARIANCE_SLACK:
        raise InternalConsistencyError(f"posterior variance {var:.3e} below tolerance")
    return PredictiveDistribution(mean=mean, variance=max(var, 0.0))


def variance_regularizer(
    state: GpState, unlabeled_cross: list[tuple[np.ndarray, float]]
) -> float:
    """Sum of posterior variances over unlabeled points, one query at a time.

    The semi-supervised objective applies the alpha/n_u weight to this sum.
    """
    if len(unlabeled_cross) == 0:
        raise EmptyUnlabeledSet("variance regularizer needs at least one unlabeled point")
    total = 0.0
    for k_star, k_ss in unlabeled_cross:
        total += posterior(state, k_star, k_ss).variance
    return total


def projection_residual_oracle(K: np.ndarray, k_star: np.ndarray, k_ss: float) -> float:
    """Squared RKHS distance from a query embedding to the labeled span.

    Computed by explicit Gram algebra as k_** - k_*^T K^{-1} k_* with no noise
    term; K must be invertible. Exists solely as an independent check that the
    posterior variance equals this projection residual.
    """
    K = linalg.check_symmetric(K)
    k_star = np.asarray(k_star, dtype=np.float64).reshape(-1)
    if k_star.shape[0] != K.shape[0]:
        raise DimensionMismatch("k_star length does not match K")
    try:
        f = linalg.cholesky(K, base_jitter=0.0)
    except NotPositiveDefinite:
        raise NotPositiveDefinite("labeled Gram matrix is singular; projection undefined")
    return float(k_ss - k_star @ linalg.solve_chol(f, k_star))


def _objective(ensemble, data, config, basis):
    """trainer._objective_core, with fit's own rff basis when none is given."""
    if basis is None and config.kernel_mode == "rff":
        basis = trainer._rff_basis_for(config)
    return trainer._objective_core(ensemble, data, config, basis)


def per_particle_loss_grads(ensemble, data, config, basis=None) -> np.ndarray:
    """(m, P) gradient of the scalar training objective, one row per particle."""
    return _objective(ensemble, data, config, basis).grads


def objective_value(ensemble, data, config, basis=None) -> float:
    """The scalar objective the trainer descends, at the current particles."""
    return _objective(ensemble, data, config, basis).objective


def batch_objective(ensemble, head, X, labels) -> float:
    """Cross-entropy on one batch, from its own forward pass.

    Reference for the loss that classify.batch_grads returns.
    """
    probs = classify.predict_probs(ensemble, head, X)
    return classify.cross_entropy(probs, classify.one_hot(labels, head.C))


def save_checkpoint_v1(path, ckpt) -> None:
    """The format_version 1 writer: every array as JSON number lists."""
    arch = ckpt.ensemble.arch
    doc = {
        "format": FORMAT_NAME,
        "format_version": 1,
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
