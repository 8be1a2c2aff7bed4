"""Kernels over latent probability distributions.

A point x maps, through every particle, to a cloud of latent points; the
distributional kernel between two points is the double particle-average of a
base RBF kernel over their clouds. Two evaluation routes are provided:

* exact: the full double sum over all m^2 n_a n_b pairs of particle images,
  one route built from cache-sized blocks (``_particle_blocks``). A pair costs
  one exp and 2d+7 FLOPs (an inner-size d+2 GEMM, a clamp, a reduction); the
  backward chain rebuilds the blocks, at one exp and 4d+8 FLOPs a pair.
  Working memory is O(workers _BLOCK_ENTRIES + m n d), never an (m n)^2 array;
* random Fourier features: a factor R with R R^T ~= K, O(n m q) to build.

Every function takes the particle images of a point set stacked (m, n, d).

Exp and trig loops split over the kernel workers of ``threads`` so that each
output entry keeps its one-worker operations: by row blocks; by rows with every
GEMM run whole in ``rff_feature_matrix`` (OpenBLAS can round a row differently
in a product of fewer rows); by particles in both cotangent chains. The rff
loops take their particles in groups: one stacked ``np.matmul`` (one GEMM a
particle, as a per-particle loop makes) and one cos or sin over the group's
phases, summed into R in particle order.
"""

from __future__ import annotations

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


def _particle_blocks(spec: LatentKernelSpec, embeddings_a: np.ndarray, B: np.ndarray):
    """Yield (l, rows, E): E[i, c] = k(za_i^(l), B[c]) / amplitude for i in rows.

    ``B`` is the b-side images stacked particle-major, (m * n_b, d). Each block
    holds at most max(m * n_b, _BLOCK_ENTRIES) entries and is written into one
    reused buffer, so a consumer must finish with E before the next step.
    """
    na = embeddings_a.shape[1]
    right_T = np.ascontiguousarray(_augment(spec, B)[1].T)
    step = _block_rows(B.shape[0])
    buf = np.empty((min(step, na), B.shape[0]))
    for l, Za in enumerate(embeddings_a):
        left = _augment(spec, Za)[0]
        for r0 in range(0, na, step):
            rows = slice(r0, min(r0 + step, na))
            E = buf[: rows.stop - r0]
            np.matmul(left[rows], right_T, out=E)
            yield l, rows, _exp_nonpositive(E)


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
    ones = np.ones(m)
    out = np.zeros((na, nb))
    step = _block_rows(m * nb)
    def fill(b0, b1):  # row blocks b0..b1-1, cut where one worker cuts them
        rows = slice(b0 * step, b1 * step)
        for _, r, E in _particle_blocks(spec, embeddings_a[:, rows], embeddings_b.reshape(-1, d)):
            out[rows][r] += ones @ E.reshape(-1, m, nb)
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
    """
    embeddings = _check_embeddings(embeddings)
    m, n, d = embeddings.shape
    C = np.asarray(C, dtype=np.float64)
    if C.shape != (n, n):
        raise DimensionMismatch(f"cotangent shape {C.shape} != {(n, n)}")
    Csym = C + C.T
    B = embeddings.reshape(-1, d)
    B1 = np.concatenate([B, np.ones((m * n, 1))], axis=1)
    G = np.empty((m, n, d))
    def fill(l0, l1):
        for l, rows, E in _particle_blocks(spec, embeddings[l0:l1], B):
            M = E.reshape(-1, m, n)
            M *= Csym[rows, None, :]
            P = E @ B1  # [sum_c M_ic B_c, sum_c M_ic]
            G[l0 + l, rows] = P[:, d:] * embeddings[l0 + l][rows] - P[:, :d]
    _split(m, n * m * n, fill)
    G *= -spec.amplitude / (m**2 * spec.bandwidth**2)
    return G
