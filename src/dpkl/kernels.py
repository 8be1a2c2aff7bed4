"""Kernels over latent probability distributions.

A point x maps, through every particle, to a cloud of latent points; the
distributional kernel between two points is the double particle-average of a
base RBF kernel over their clouds. Two evaluation routes are provided:

* exact: the double sum over the m^2 n_a n_b pairs of particle images, on one
  tile loop, each worker range filling its own cache-sized tile. A pair costs
  one exp and 2d+7 FLOPs (an inner-size d+2 GEMM, a clamp, a reduction). A
  tile is rows of one particle against every later particle of its own point
  set, the m(m+1)/2 n^2 pairs l <= l' of the training Gram and the backward
  chain (the Gram adds each block and its transpose, the chain its row and
  its column sums), or against every particle of a second set: the m^2 n_a
  n_b pairs of prediction's K_LL and K_*, and of an ssdpkl pool chunk's cross
  block against the labeled rows and its cotangent to both sides. Working
  memory is O(workers max(_BLOCK_ENTRIES, m n_b) + m n d + n n_b), never an
  (m n)^2 array;
* random Fourier features: a factor R with R R^T ~= K, O(n m q) to build.

Every function takes the particle images of a point set stacked (m, n, d).

Exp and trig loops split over the kernel workers of ``threads`` so that each
output entry keeps its one-worker operations: by points in the self-pairs; by
rows of a particle group's rff phases, their GEMM run whole first (OpenBLAS can
round a row differently in a product of fewer rows); by particles in the rff
cotangent chain; by a fixed number of particle chunks, each summing into its
own accumulator, in the exact tile loop. The rff loops take their particles in
groups: one stacked ``np.matmul`` (one GEMM a particle, as a per-particle loop
makes), then ``_sincos`` over L2-sized blocks, one Cody-Waite reduction (Cody &
Waite 1980) for both cos and sin, in about half the time of np.cos plus np.sin.
R sums the cosines in particle order; the sines, written over the phases, serve
the VJP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .threads import _split

# Entries in one exact-kernel block: 2^17 float64 values (1 MB) stay in a
# core's L2 cache while the block is built and consumed.
_BLOCK_ENTRIES = 1 << 17
# Phases of an rff particle group, 2^20 float64 values (8 MB). A pass within
# one group keeps its sines for its VJP (each ssdpkl pool chunk, the 45-row
# paper pass); above it the VJP rebuilds them in such groups, while R's pass
# takes groups of _BLOCK_ENTRIES (ROADMAP, "Measured and left out").
_TRIG_ENTRIES = 1 << 20
# A trig entry against threads._MIN_ENTRIES: _sincos and the sum into R take
# about 20 ns an entry, so the 45-row paper passes (225 000 phases) pay for a hand-off.
_TRIG_COST = 1 << 8
# pi/2 = _PIO2_HI + _PIO2_LO, fdlibm's 33-bit pio2_1 and its tail: k _PIO2_HI is
# exact for quadrants |k| <= 2^20. A _sincos block of 2^15 phases keeps its
# complex output and temporaries, 32 bytes a phase, in L2; blocks of 2^14
# (more, shorter calls) held 1 MB less on ssdpkl-pool but cut its gain by a third.
_PIO2_HI, _PIO2_LO, _K_MAX = 1.57079632673412561417e+00, 6.07710050650619224932e-11, 2.0**20
_QUADRANTS, _SINCOS_ENTRIES = np.array([1, 1j, -1, -1j]), 1 << 15  # i^(k mod 4); phases a block
# Particle chunks of the exact tile loop: a constant, never the worker count,
# so each chunk's sums, and their order, are the same at any count.
_CHUNKS = 2
# A pair of the exact tile loop against threads._MIN_ENTRIES: the chain's exp,
# Csym product and two inner-size d+1 GEMMs take about 3 ns, a block's about 2.
# The 45-row paper Gram and chain (1.3 million pairs a chunk) pay for a hand-off,
# a 30-row one not; so does a 45-row cross block, the validation check's K_LL.
_PAIR_COST = 1 << 2


@dataclass(frozen=True)
class LatentKernelSpec:
    """Amplitude and bandwidth of the base RBF kernel k(z, z') = a exp(-|z-z'|^2 / 2h^2)."""

    amplitude: float = 0.5
    bandwidth: float = 1.0

    def __post_init__(self):
        for name in ("amplitude", "bandwidth"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


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

    Entry (i, j) is (1/m^2) sum_{l,l'} k(za_i^(l), zb_j^(l')), summed by the
    two-set tiles of _exact_gram: the same bits at any worker count.
    """
    embeddings_a = _check_embeddings(embeddings_a)
    embeddings_b = _check_embeddings(embeddings_b)
    if embeddings_b.shape[2] != embeddings_a.shape[2]:
        raise DimensionMismatch("latent dimensions differ between point sets")
    if embeddings_b.shape[0] != embeddings_a.shape[0]:
        raise DimensionMismatch("both sides must come from the same particle count")
    return _exact_gram(spec, embeddings_a, embeddings_b)


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
    return K_star, _self_pairs(spec, query_embeddings)[0]


def _self_pairs(spec: LatentKernelSpec, embeddings: np.ndarray, w: float | None = None):
    """(k_**, G): each point's self-average over its m^2 pairs of images, and,
    with a weight w, the (m, n, d) cotangents of w sum(k_**) (else None).

    The self-pairs E[i, l, l'] = k(z_i^(l), z_i^(l')) / amplitude are the
    diagonal of a point set's own kernel block, whose cotangent w I chains as
    kernel_embedding_cotangents' would: G^(l)[i] = -(2 w a / m^2 h^2)
    sum_l' E[i, l, l'] (z_i^(l) - z_i^(l')).
    """
    m, n, d = embeddings.shape
    Z = embeddings.transpose(1, 0, 2)  # (n, m, d)
    left, right = _augment(spec, Z)
    right_T = right.transpose(0, 2, 1)
    step = max(1, _BLOCK_ENTRIES // m**2)
    k_ss = np.empty(n)
    G = None if w is None else np.empty((n, m, d))
    def fill(b0, b1):
        for r0 in range(b0 * step, b1 * step, step):
            rows = slice(r0, r0 + step)
            E = _exp_nonpositive(left[rows] @ right_T[rows])
            k_ss[rows] = E.sum(axis=(1, 2))
            if G is not None:
                G[rows] = E.sum(axis=2)[..., None] * Z[rows] - E @ Z[rows]
    _split(-(-n // step), step * m * m, fill)
    if G is not None:
        G = G.transpose(1, 0, 2) * (-2.0 * w * spec.amplitude / (m**2 * spec.bandwidth**2))
    return k_ss * (spec.amplitude / m**2), G


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


def _sincos(theta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """cos(theta) + i sin(theta) into out, contiguous complex, spending theta:
    cos and sin of r = (theta - k P1) - k P2, k = rint(2 theta / pi) and
    pi/2 = P1 + P2, turned by the exact product with i^(k mod 4). Entry by
    entry, a NaN, an inf or a quadrant |k| > 2^20, where k P1 is inexact,
    gets libm's own."""
    k = np.multiply(theta, 2 / np.pi)
    np.rint(k, out=k)
    if not np.abs(k).max(initial=0.0) <= _K_MAX:  # a NaN fails it too
        ok = np.abs(k) <= _K_MAX
        with np.errstate(invalid="ignore"):
            out[...] = np.cos(theta) + 1j * np.sin(theta)
        out[ok] = _sincos(theta[ok], np.empty(np.count_nonzero(ok), complex))
        return out
    theta -= k * _PIO2_HI  # r, in place
    theta -= k * _PIO2_LO
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    k = k.astype(np.intp).reshape(-1)
    k &= 3
    o = out.reshape(-1)
    for j in range(4):  # a quarter block's factors at a time: fewer temporaries
        q = slice(len(k) * j // 4, len(k) * (j + 1) // 4)
        o[q] *= _QUADRANTS[k[q]]
    return out


def _sines_over_phases(P: np.ndarray, R: np.ndarray | None, r0: int, r1: int) -> None:
    """Write the sines of the (g, n, q) phases P[:, r0:r1] over them, adding
    their cosines to R[r0:r1] in particle order unless R is None; one _sincos
    a block."""
    g, _, q = P.shape
    rows = max(1, min(r1 - r0, _SINCOS_ENTRIES // q))
    parts = min(g, max(1, _SINCOS_ENTRIES // (rows * q)))
    buf = np.empty(parts * rows * q, complex)
    for r in range(r0, r1, rows):
        rs = slice(r, min(r + rows, r1))
        for l0 in range(0, g, parts):
            blk = P[l0 : l0 + parts, rs]
            E = _sincos(blk, buf[: blk.size].reshape(blk.shape))
            if R is not None:
                for c in E.real:  # particle order, as one particle at a time
                    R[rs] += c
            blk[...] = E.imag


def rff_features_vjp(basis: RffBasis, embeddings: np.ndarray, spec: LatentKernelSpec):
    """(R, vjp): the particle-averaged feature matrix R (n, q), R R^T ~= the
    exact kernel, and ``vjp(T) = rff_embedding_cotangents(..., T)``, bitwise.

    R_ij = sqrt(a) * (1/m) * sum_l sqrt(2/q) cos(v_j . z_i^(l) + b_j); the
    sqrt(a) factor carries the kernel amplitude into the factorization. The
    first ``vjp`` spends R's sines when all m n q fit ``_TRIG_ENTRIES``;
    else it rebuilds them, and no (m, n, q) array outlives this call.
    """
    embeddings = _check_embeddings(embeddings)
    m, n, d = embeddings.shape
    if d != basis.d:
        raise DimensionMismatch(
            f"basis dimension {basis.d} does not match embeddings dimension {d}"
        )
    scale = np.sqrt(spec.amplitude) * np.sqrt(2.0 / basis.q) / m
    R = np.zeros((n, basis.q))
    keep = m * n * basis.q <= _TRIG_ENTRIES  # the sines, one group, for the VJP
    g = m if keep else max(1, _BLOCK_ENTRIES // (n * basis.q))
    S = np.empty((min(g, m), n, basis.q))  # a group's phases, then their sines
    for l0 in range(0, m, g):
        P = S[: min(g, m - l0)]
        np.matmul(embeddings[l0 : l0 + g], basis.V.T, out=P)  # every row, see the module doc
        P += basis.b
        _split(n, len(P) * basis.q * _TRIG_COST, lambda r0, r1: _sines_over_phases(P, R, r0, r1))
    kept = [S] if keep else []

    def vjp(T: np.ndarray) -> np.ndarray:
        if not kept:
            return rff_embedding_cotangents(basis, embeddings, spec, T)
        T, S = _rff_cotangent(T, n, basis.q), kept.pop()
        return -scale * (np.multiply(S, T, out=S) @ basis.V)

    return scale * R, vjp


def rff_feature_matrix(basis: RffBasis, embeddings: np.ndarray, spec: LatentKernelSpec) -> np.ndarray:
    """The R of rff_features_vjp."""
    return rff_features_vjp(basis, embeddings, spec)[0]


def _rff_cotangent(T, n: int, q: int) -> np.ndarray:
    T = np.asarray(T, dtype=np.float64)
    if T.shape != (n, q):
        raise DimensionMismatch(f"cotangent shape {T.shape} != {(n, q)}")
    return T


def rff_embedding_cotangents(
    basis: RffBasis,
    embeddings: np.ndarray,
    spec: LatentKernelSpec,
    T: np.ndarray,
) -> np.ndarray:
    """Chain a cotangent on R back to each particle's embedding matrix.

    Given T = dJ/dR for R = rff_feature_matrix(...), returns the stacked
    (m, n, d) cotangents G^(l) = -(sqrt(a) sqrt(2/q) / m) (T * sin(Z^(l) V^T + b)) V,
    the sines rebuilt as R's pass makes them.
    """
    embeddings = _check_embeddings(embeddings)
    m, n, d = embeddings.shape
    T = _rff_cotangent(T, n, basis.q)
    scale = -np.sqrt(spec.amplitude) * np.sqrt(2.0 / basis.q) / m
    G = np.empty((m, n, d))
    g = _trig_group(n, basis.q)
    def fill(l0, l1):  # G[l] for l in l0..l1-1, one phase GEMM a particle group
        buf = np.empty((min(g, l1 - l0), n, basis.q))
        for s0 in range(l0, l1, g):
            S = buf[: min(g, l1 - s0)]
            np.matmul(embeddings[s0 : s0 + len(S)], basis.V.T, out=S)
            S += basis.b
            _sines_over_phases(S, None, 0, n)
            np.multiply(S, T, out=S)
            G[s0 : s0 + len(S)] = scale * (S @ basis.V)
    _split(m, n * basis.q * _TRIG_COST, fill)
    return G


def _tile_rows(m: int, n: int, n_b: int) -> int:
    """Rows of a _pair_tiles tile: n a-side rows against all m particles of n_b."""
    return max(1, min(n, _BLOCK_ENTRIES // max(m * n_b, 1)))


def _pair_tiles(spec: LatentKernelSpec, embeddings: np.ndarray, tile, embeddings_b=None) -> None:
    """Run ``tile(k, l, r0, E)`` on every exp tile of the particle pairs l <= l'.

    E[i, c] = k(z_{r0+i}^(l), B_{l n + c}) / amplitude, B the (m n, d) stack of
    all images: _tile_rows rows of particle l against every particle l' >= l,
    within max(_BLOCK_ENTRIES, m n_b) entries, one GEMM and one exp each. With
    ``embeddings_b`` (m, n_b, d), B stacks its images instead and a tile's rows
    run against every particle, E[i, c] = k(z_{r0+i}^(l), B_c). _CHUNKS fixed
    chunks k of whole particles, balanced by the pairs particle l owns, run on
    _split, their tiles in one order: a consumer that sums chunk k into its
    own accumulator gets the same bits at any worker count. E is reused once
    tile returns.
    """
    m, n, d = embeddings.shape
    one_set = embeddings_b is None
    Zb = embeddings if one_set else embeddings_b
    n_b = Zb.shape[1]
    if n_b == 0:  # no pair, so no tile
        return
    left = _augment(spec, embeddings)[0]
    right_T = np.ascontiguousarray(_augment(spec, Zb.reshape(-1, d))[1].T)
    step = _tile_rows(m, n, n_b)
    owned = np.cumsum(np.arange(m, 0, -1) if one_set else np.full(m, m))
    cuts = [0, *np.searchsorted(owned, owned[-1] * np.arange(1, _CHUNKS) / _CHUNKS) + 1, m]
    def fill(k0, k1):  # the particles of chunks k0..k1-1
        buf = np.empty(step * m * n_b)
        for k in range(k0, k1):
            for l in range(cuts[k], cuts[k + 1]):
                cols = right_T[:, l * n_b if one_set else 0 :]
                for r0 in range(0, n, step):
                    E = buf[: min(step, n - r0) * cols.shape[1]].reshape(-1, cols.shape[1])
                    np.matmul(left[l, r0 : r0 + len(E)], cols, out=E)
                    tile(k, l, r0, _exp_nonpositive(E))
    _split(_CHUNKS, int(owned[-1]) * n * n_b // _CHUNKS * _PAIR_COST, fill)


def _exact_gram(spec: LatentKernelSpec, embeddings: np.ndarray, embeddings_b=None) -> np.ndarray:
    """The training K_LL from the particle pairs l <= l' of _pair_tiles, or, with
    ``embeddings_b``, empirical_cross_block from all pairs of the two sets.

    A chunk sums A = sum_l E_ll / 2 + sum_{l<l'} E_ll' (two sets: sum_{l,l'}
    E_ll') into its own (n, n_b) array, a tile's particles folded onto it by one
    ones-vector product; the chunks' A add in chunk order. K = (A + A^T) amplitude
    / m^2, symmetric by construction, agrees with empirical_kernel_exact to
    round-off; two sets give K = A amplitude / m^2.
    """
    m, n, _ = embeddings.shape
    one_set = embeddings_b is None
    n_b = n if one_set else embeddings_b.shape[1]
    A, ones = [np.zeros((n, n_b)) for _ in range(_CHUNKS)], np.ones(m)
    def tile(k, l, r0, E):
        if one_set:  # the (l, l) block opens the tile, and A + A^T adds it twice
            E[:, :n] *= 0.5
        A[k][r0 : r0 + len(E)] += ones[l if one_set else 0 :] @ E.reshape(len(E), -1, n_b)
    _pair_tiles(spec, embeddings, tile, embeddings_b)
    K = A[0]
    for a in A[1:]:  # into the first: no third (n, n_b) array
        K += a
    if one_set:
        K = K + K.T
    K *= spec.amplitude / m**2
    return K


def kernel_embedding_cotangents(
    spec: LatentKernelSpec,
    embeddings: np.ndarray,
    C: np.ndarray,
    embeddings_b: np.ndarray | None = None,
):
    """Chain a cotangent on the exact kernel matrix back to the embeddings.

    Given C = dJ/dK for K = empirical_kernel_exact over one point set (C need
    not be symmetric; both index slots are accounted for), returns the stacked
    (m, n, d) cotangents G^(l):

        G^(l)[i] = (1/m^2) sum_{j,l'} (C_ij + C_ji) * dk/dz (z_i^(l), z_j^(l')).

    With ``embeddings_b``, C = dJ/dK is (n, n_b) for K = empirical_cross_block
    between the two sets, and the result is the pair (G_a, G_b), each side's
    cotangents, C_ij taking the place of C_ij + C_ji.

    Each particle pair's block is built once, by _pair_tiles. A pair (i, c)
    of weight M_ic = k(z_i, B_c) Csym_i(c mod n) adds M_ic (z_i - B_c) to row i's
    sum and, as Csym is symmetric and dk/db = -dk/da, M_ic (B_c - z_i) to
    column c's when c is in another particle (two sets: always). Both are sums
    of M [B, 1] rows, so one accumulator A = [sum M B, sum M] over the stacked
    images of both sides a chunk gives G = A[:, d] z - A[:, :d], the chunks' A
    added in chunk order.
    """
    embeddings = _check_embeddings(embeddings)
    m, n, d = embeddings.shape
    one_set = embeddings_b is None
    Zb = embeddings if one_set else _check_embeddings(embeddings_b)
    n_b = Zb.shape[1]
    C = np.asarray(C, dtype=np.float64)
    if C.shape != (n, n_b):
        raise DimensionMismatch(f"cotangent shape {C.shape} != {(n, n_b)}")
    off = 0 if one_set else m * n  # of b-side rows in A and B1
    B = embeddings.reshape(-1, d) if one_set else np.concatenate(
        [embeddings.reshape(-1, d), Zb.reshape(-1, d)])
    B1 = np.concatenate([B, np.ones((len(B), 1))], axis=1)
    Csym = C + C.T if one_set else C
    A = np.zeros((_CHUNKS, len(B), d + 1))
    def tile(k, l, r0, M):
        rows = slice(l * n + r0, l * n + r0 + len(M))  # of A and B1
        c0 = off + (l * n if one_set else 0)  # the tile's first column, in A and B1
        M.reshape(len(M), -1, n_b)[:] *= Csym[r0 : r0 + len(M), None]  # each particle's columns
        A[k, rows] += M @ B1[c0:]
        own = n if one_set else 0  # particle l's own columns, which its row sums hold
        A[k, c0 + own :] += M[:, own:].T @ B1[rows]
    _pair_tiles(spec, embeddings, tile, embeddings_b)
    total = A.sum(axis=0)
    G = total[:, d:] * B - total[:, :d]
    G *= -spec.amplitude / (m**2 * spec.bandwidth**2)
    if one_set:
        return G.reshape(m, n, d)
    return G[:off].reshape(m, n, d), G[off:].reshape(m, n_b, d)
