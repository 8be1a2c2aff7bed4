"""Kernels over latent probability distributions.

A point x maps, through every particle, to a cloud of latent points; the
distributional kernel between two points is the double particle-average of a
base RBF kernel over their clouds. Two evaluation routes are provided:

* exact: the full double sum over all m^2 n_a n_b pairs of particle images,
  one route built from cache-sized blocks, each worker range filling its own
  buffer. A pair costs one exp and 2d+7 FLOPs (an inner-size d+2 GEMM, a
  clamp, a reduction). The backward chain builds each particle pair's block
  once, m(m+1)/2 n^2 pairs in rows x columns tiles, and takes both the
  block's row and its column sums from it. Working memory is
  O(workers _BLOCK_ENTRIES + m n d + n^2), never an (m n)^2 array;
* random Fourier features: a factor R with R R^T ~= K, O(n m q) to build.

Every function takes the particle images of a point set stacked (m, n, d).

Exp and trig loops split over the kernel workers of ``threads`` so that each
output entry keeps its one-worker operations: by row blocks; by rows with every
GEMM run whole in ``rff_feature_matrix`` (OpenBLAS can round a row differently
in a product of fewer rows); by particles in the rff cotangent chain; by a
fixed number of particle chunks, each summing into its own accumulator, in the
exact one. The rff loops take their particles in groups: one stacked
``np.matmul`` (one GEMM a particle, as a per-particle loop makes) and one cos
or sin over the group's phases, summed into R in particle order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .threads import _split

# Entries in one exact-kernel block: 2^17 float64 values (1 MB) stay in a
# core's L2 cache while the block is built and consumed.
_BLOCK_ENTRIES = 1 << 17
# Phase entries a trig call of the rff loops takes at most: a group of
# particles' (g, n, q) phases, 2^20 float64 values (8 MB). One long call per
# worker range holds the GIL off for its whole length, where a call a particle
# made the workers take turns.
_TRIG_ENTRIES = 1 << 20
# A trig entry against threads._MIN_ENTRIES: cos and sin take about 26 ns an
# entry, so the 45-row paper passes (225 000 phases) pay for a hand-off.
_TRIG_COST = 1 << 8
# Particle chunks of the exact cotangent chain: a constant, never the worker
# count, so each chunk's sums, and their order, are the same at any count.
_CHUNKS = 2
# A cotangent pair against threads._MIN_ENTRIES: an exp, a Csym product and
# two inner-size d+1 GEMMs take about 3 ns a pair, so the 45-row paper chain
# (1.3 million pairs a chunk) pays for a hand-off and a 30-row one does not.
_PAIR_COST = 1 << 2


@dataclass(frozen=True)
class LatentKernelSpec:
    """Amplitude and bandwidth of the base RBF kernel k(z, z') = a exp(-|z-z'|^2 / 2h^2)."""

    amplitude: float = 0.5
    bandwidth: float = 1.0

    def __post_init__(self):
        if not (0 < self.amplitude < np.inf and 0 < self.bandwidth < np.inf):
            raise ValueError("amplitude and bandwidth must be positive and finite")


@dataclass(frozen=True)
class RffBasis:
    """Random Fourier basis: q frequencies (rows of V) and phases in [0, 2pi)."""

    V: np.ndarray  # (q, d)
    b: np.ndarray  # (q,)

    @property
    def q(self) -> int:
        return self.V.shape[0]

    @property
    def d(self) -> int:
        return self.V.shape[1]


def _augment(spec: LatentKernelSpec, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left rows [z/h^2, -|z|^2/2h^2, -1] and right rows [z, 1, |z|^2/2h^2].

    A left row of u times a right row of v is -|u - v|^2 / 2h^2, so one GEMM
    of inner size d+2 gives a whole block of base-kernel exponents. Works on
    the last axis, so stacked (r, m, d) inputs augment row by row.
    """
    s = 0.5 / spec.bandwidth**2
    sq = s * np.sum(Z * Z, axis=-1, keepdims=True)
    one = np.ones_like(sq)
    return (
        np.concatenate([(2.0 * s) * Z, -sq, -one], axis=-1),
        np.concatenate([Z, one, sq], axis=-1),
    )


def _exp_nonpositive(blk: np.ndarray) -> np.ndarray:
    """exp(min(blk, 0)) in place; the clamp drops round-off that would make a
    squared distance negative."""
    np.minimum(blk, 0.0, out=blk)
    return np.exp(blk, out=blk)


def _block_rows(n_b: int) -> int:  # a-side rows of a block against n_b b-side images
    return max(1, _BLOCK_ENTRIES // max(n_b, 1))


def _trig_group(n: int, q: int) -> int:  # particles per trig call
    return max(1, _TRIG_ENTRIES // max(n * q, 1))


def _check_embeddings(embeddings) -> np.ndarray:
    """The particle images as one float64 (m, n, d) array with m >= 1."""
    Z = np.asarray(embeddings, dtype=np.float64)
    if Z.ndim != 3 or Z.shape[0] < 1:
        raise DimensionMismatch(f"embeddings must be stacked (m, n, d), got shape {Z.shape}")
    return Z


def empirical_cross_block(
    spec: LatentKernelSpec,
    embeddings_a: np.ndarray,
    embeddings_b: np.ndarray,
) -> np.ndarray:
    """Double particle-average kernel block between two point sets.

    Entry (i, j) is (1/m^2) sum_{l,l'} k(za_i^(l), zb_j^(l')). The a-side
    particle sum runs in index order and each block reduces through the same
    BLAS calls, so results are deterministic.
    """
    embeddings_a = _check_embeddings(embeddings_a)
    embeddings_b = _check_embeddings(embeddings_b)
    m, na, d = embeddings_a.shape
    if embeddings_b.shape[2] != d:
        raise DimensionMismatch("latent dimensions differ between point sets")
    if embeddings_b.shape[0] != m:
        raise DimensionMismatch("both sides must come from the same particle count")
    nb = embeddings_b.shape[1]
    left = _augment(spec, embeddings_a)[0]
    right_T = np.ascontiguousarray(_augment(spec, embeddings_b.reshape(-1, d))[1].T)
    ones = np.ones(m)
    out = np.zeros((na, nb))
    step = _block_rows(m * nb)
    def fill(b0, b1):  # row blocks b0..b1-1, cut where one worker cuts them
        buf = np.empty((min(step, na), m * nb))
        for r0 in range(b0 * step, min(b1 * step, na), step):
            rows = slice(r0, min(r0 + step, na))
            E = buf[: rows.stop - r0]  # E[i, c] = k(za_i^(l), zb_c) / amplitude
            for l in range(m):  # a-side particles in index order
                np.matmul(left[l, rows], right_T, out=E)
                out[rows] += ones @ _exp_nonpositive(E).reshape(-1, m, nb)
    _split(-(-na // step), step * m * m * nb, fill)
    return out * (spec.amplitude / m**2)


def empirical_kernel_exact(
    spec: LatentKernelSpec, embeddings: np.ndarray
) -> np.ndarray:
    """The n x n distributional kernel matrix, symmetrized against round-off."""
    K = empirical_cross_block(spec, embeddings, embeddings)
    return 0.5 * (K + K.T)


def cross_kernel_batch(
    spec: LatentKernelSpec,
    train_embeddings: np.ndarray,
    query_embeddings: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(K_*, k_**) for many query points: K_* is (n_q, n), k_** is (n_q,).

    k_** entries are the per-query self-averages, i.e. the diagonal of the
    query block — not the full query kernel matrix.
    """
    query_embeddings = _check_embeddings(query_embeddings)
    K_star = empirical_cross_block(spec, query_embeddings, train_embeddings)
    m, nq, _ = query_embeddings.shape
    left, right = _augment(spec, query_embeddings.transpose(1, 0, 2))  # (nq, m, d+2)
    right_T = right.transpose(0, 2, 1)
    step = max(1, _BLOCK_ENTRIES // m**2)
    k_ss = np.empty(nq)
    def fill(b0, b1):
        for r0 in range(b0 * step, b1 * step, step):
            rows = slice(r0, r0 + step)
            k_ss[rows] = _exp_nonpositive(left[rows] @ right_T[rows]).sum(axis=(1, 2))
    _split(-(-nq // step), step * m * m, fill)
    return K_star, k_ss * (spec.amplitude / m**2)


def sample_rff_basis(
    spec: LatentKernelSpec, d: int, q: int, seed: int
) -> RffBasis:
    """Draw a Fourier basis for the base kernel, deterministically per seed.

    Frequencies are i.i.d. N(0, I/h^2) — the spectral density of the RBF with
    bandwidth h — and phases are uniform on [0, 2pi). Frequencies are drawn
    first, then phases, from one generator.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    rng = np.random.default_rng(seed)
    V = rng.normal(0.0, 1.0 / spec.bandwidth, size=(q, d))
    b = rng.uniform(0.0, 2.0 * np.pi, size=q)
    return RffBasis(V=V, b=b)


def rff_feature_matrix(
    basis: RffBasis, embeddings: np.ndarray, spec: LatentKernelSpec
) -> np.ndarray:
    """Particle-averaged feature matrix R (n, q) with R R^T ~= the exact kernel.

    R_ij = sqrt(a) * (1/m) * sum_l sqrt(2/q) cos(v_j . z_i^(l) + b_j); the
    sqrt(a) factor carries the kernel amplitude into the factorization.
    """
    embeddings = _check_embeddings(embeddings)
    m, n, d = embeddings.shape
    if d != basis.d:
        raise DimensionMismatch(
            f"basis dimension {basis.d} does not match embeddings dimension {d}"
        )
    scale = np.sqrt(spec.amplitude) * np.sqrt(2.0 / basis.q) / m
    R = np.zeros((n, basis.q))
    g = _trig_group(n, basis.q)
    def fill(r0, r1):  # R += cos(Z V^T + b) on rows r0..r1-1, one cos a particle group
        buf = np.empty((min(g, m), n, basis.q))
        for l0 in range(0, m, g):
            P = buf[: min(g, m - l0)]
            np.matmul(embeddings[l0 : l0 + g], basis.V.T, out=P)  # every row, see the module doc
            C = P[:, r0:r1]
            np.cos(np.add(C, basis.b, out=C), out=C)
            for c in C:  # particle order, as one particle at a time
                R[r0:r1] += c
    _split(n, m * basis.q * _TRIG_COST, fill)
    return scale * R


def rff_embedding_cotangents(
    basis: RffBasis,
    embeddings: np.ndarray,
    spec: LatentKernelSpec,
    T: np.ndarray,
) -> np.ndarray:
    """Chain a cotangent on R back to each particle's embedding matrix.

    Given T = dJ/dR for R = rff_feature_matrix(...), returns the stacked
    (m, n, d) cotangents G^(l) = -(sqrt(a) sqrt(2/q) / m) (T * sin(Z^(l) V^T + b)) V.
    """
    embeddings = _check_embeddings(embeddings)
    m, n, d = embeddings.shape
    T = np.asarray(T, dtype=np.float64)
    if T.shape != (n, basis.q):
        raise DimensionMismatch(f"cotangent shape {T.shape} != {(n, basis.q)}")
    scale = -np.sqrt(spec.amplitude) * np.sqrt(2.0 / basis.q) / m
    G = np.empty((m, n, d))
    g = _trig_group(n, basis.q)
    def fill(l0, l1):  # G[l] for l in l0..l1-1, one sin a particle group
        buf = np.empty((min(g, l1 - l0), n, basis.q))
        for s0 in range(l0, l1, g):
            S = buf[: min(g, l1 - s0)]
            np.matmul(embeddings[s0 : s0 + len(S)], basis.V.T, out=S)
            S += basis.b
            np.multiply(np.sin(S, out=S), T, out=S)
            G[s0 : s0 + len(S)] = scale * (S @ basis.V)
    _split(m, n * basis.q * _TRIG_COST, fill)
    return G


def kernel_embedding_cotangents(
    spec: LatentKernelSpec,
    embeddings: np.ndarray,
    C: np.ndarray,
) -> np.ndarray:
    """Chain a cotangent on the exact kernel matrix back to the embeddings.

    Given C = dJ/dK for K = empirical_kernel_exact over one point set (C need
    not be symmetric; both index slots are accounted for), returns the stacked
    (m, n, d) cotangents G^(l):

        G^(l)[i] = (1/m^2) sum_{j,l'} (C_ij + C_ji) * dk/dz (z_i^(l), z_j^(l')).

    Each particle pair's block is built once: particle l's rows against the
    columns of particles l' >= l. A pair (i, c) of weight M_ic = k(z_i, B_c)
    Csym_ic adds M_ic (z_i - B_c) to row i's sum and, as Csym is symmetric and
    dk/db = -dk/da, M_ic (B_c - z_i) to column c's when c is in another
    particle. Both are sums of M [B, 1] rows, so one (m n, d+1) accumulator
    A = [sum M B, sum M] gives G = A[:, d] z - A[:, :d]. The particles go in
    _CHUNKS fixed chunks, each summing into its own A, and the chunks' A are
    added in chunk order, so every entry is the same at any worker count.
    """
    embeddings = _check_embeddings(embeddings)
    m, n, d = embeddings.shape
    C = np.asarray(C, dtype=np.float64)
    if C.shape != (n, n):
        raise DimensionMismatch(f"cotangent shape {C.shape} != {(n, n)}")
    B = embeddings.reshape(-1, d)
    B1 = np.concatenate([B, np.ones((m * n, 1))], axis=1)
    left = _augment(spec, embeddings)[0]
    right_T = np.ascontiguousarray(_augment(spec, B)[1].T)
    # tiles of rows x columns within _BLOCK_ENTRIES, square once n rows exceed
    # it, so each tile's column sums stay one inner-size-rows product
    rows_step = min(n, max(1, math.isqrt(_BLOCK_ENTRIES)))
    cols_step = min(m * n, max(1, _BLOCK_ENTRIES // rows_step))
    # Csym repeated along its columns: a tile from column c0 takes the
    # cols_step columns from c0 mod n, cut inside a particle or not
    Csym = np.empty((n, n + cols_step - 1))
    np.add(C, C.T, out=Csym[:, :n])
    c = n
    while c < Csym.shape[1]:  # doubling the filled columns each copy
        w = min(c, Csym.shape[1] - c)
        Csym[:, c : c + w] = Csym[:, :w]
        c += w
    # whole particles a chunk, balanced by the m - l pair blocks particle l owns
    owned = np.cumsum(np.arange(m, 0, -1))
    cuts = [0, *np.searchsorted(owned, owned[-1] * np.arange(1, _CHUNKS) / _CHUNKS) + 1, m]
    A = np.zeros((_CHUNKS, m * n, d + 1))
    def fill(k0, k1):  # the particles of chunks k0..k1-1
        buf = np.empty(rows_step * cols_step)
        for k in range(k0, k1):
            for l in range(cuts[k], cuts[k + 1]):
                for r0 in range(0, n, rows_step):
                    r1 = min(r0 + rows_step, n)
                    rows = slice(l * n + r0, l * n + r1)  # of A and B1
                    for c0 in range(l * n, m * n, cols_step):
                        c1 = min(c0 + cols_step, m * n)
                        M = buf[: (r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
                        np.matmul(left[l, r0:r1], right_T[:, c0:c1], out=M)
                        _exp_nonpositive(M)
                        M *= Csym[r0:r1, c0 % n : c0 % n + c1 - c0]
                        A[k, rows] += M @ B1[c0:c1]
                        c_other = max(c0, (l + 1) * n)  # first column of a particle l' > l
                        if c_other < c1:
                            A[k, c_other:c1] += M[:, c_other - c0 :].T @ B1[rows]
    _split(_CHUNKS, int(owned[-1]) * n * n // _CHUNKS * _PAIR_COST, fill)
    total = A.sum(axis=0)
    G = (total[:, d:] * B - total[:, :d]).reshape(m, n, d)
    G *= -spec.amplitude / (m**2 * spec.bandwidth**2)
    return G
