import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    base_kernel,
    cross_kernel,
    cross_cotangents_all_blocks,
    cross_kernel_batch_serial,
    empirical_cross_block_serial,
    fd_gradient,
    kernel_cotangents_loop,
    kernel_embedding_cotangents_all_blocks,
    kernel_embedding_cotangents_own_loop,
    kernel_quad_loop,
    rff_embedding_cotangents_serial,
    rff_embedding_cotangents_sincos_serial,
    rff_feature_matrix_serial,
    rff_feature_matrix_sincos_serial,
)

import dpkl.kernels as kernels_mod
from dpkl import threads
from dpkl.errors import DimensionMismatch
from dpkl.kernels import (
    LatentKernelSpec,
    RffBasis,
    cross_kernel_batch,
    empirical_cross_block,
    empirical_kernel_exact,
    kernel_embedding_cotangents,
    rff_feature_matrix,
    rff_features_vjp,
    sample_rff_basis,
)

SPEC = LatentKernelSpec()  # amplitude 0.5, bandwidth 1


def random_embeddings(m, n, d, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    return [spread * rng.normal(size=(n, d)) for _ in range(m)]


class TestBaseKernel:
    def test_zero_distance_gives_amplitude(self):
        z = np.array([0.3, -1.2])
        assert base_kernel(SPEC, z, z) == 0.5

    def test_decay_limit(self):
        far = base_kernel(SPEC, np.zeros(2), np.full(2, 50.0))
        assert far < 1e-300 or far == 0.0

    def test_default_formula_point(self):
        # squared distance 2 under the defaults: 0.5 * exp(-1)
        z, z2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        np.testing.assert_allclose(base_kernel(SPEC, z, z2), 0.5 * np.exp(-1.0), rtol=1e-15)

    def test_bandwidth_knob(self):
        wide = LatentKernelSpec(amplitude=0.5, bandwidth=2.0)
        z, z2 = np.zeros(1), np.array([2.0])
        np.testing.assert_allclose(base_kernel(wide, z, z2), 0.5 * np.exp(-0.5), rtol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            base_kernel(SPEC, np.zeros(2), np.zeros(3))


class TestEmpiricalKernel:
    def test_single_particle_reduction(self):
        (Z,) = random_embeddings(1, 5, 2, seed=2)
        K = empirical_kernel_exact(SPEC, [Z])
        for i in range(5):
            for j in range(5):
                np.testing.assert_allclose(K[i, j], base_kernel(SPEC, Z[i], Z[j]), atol=1e-14)

    def test_collapsed_latent_gives_constant_matrix(self):
        z_star = np.array([1.0, -2.0])
        embeddings = [np.tile(z_star, (4, 1)) for _ in range(3)]
        K = empirical_kernel_exact(SPEC, embeddings)
        np.testing.assert_allclose(K, 0.5 * np.ones((4, 4)), atol=1e-14)

    def test_brute_force_double_sum(self):
        embeddings = random_embeddings(3, 4, 2, seed=3)
        K = empirical_kernel_exact(SPEC, embeddings)
        np.testing.assert_allclose(K, kernel_quad_loop(SPEC, embeddings, embeddings), atol=1e-12)

    def test_symmetric_and_factorizable(self):
        from dpkl.linalg import cholesky

        rng = np.random.default_rng(5)
        for trial in range(20):
            m, n = int(rng.integers(1, 5)), int(rng.integers(2, 7))
            K = empirical_kernel_exact(SPEC, random_embeddings(m, n, 2, seed=100 + trial))
            np.testing.assert_array_equal(K, K.T)
            assert np.all(np.diag(K) <= 0.5 + 1e-12)
            cholesky(K + 0.01 * np.eye(n), base_jitter=0.0)

    def test_particle_permutation_invariance(self):
        embeddings = random_embeddings(4, 5, 2, seed=6)
        K = empirical_kernel_exact(SPEC, embeddings)
        K_perm = empirical_kernel_exact(SPEC, [embeddings[i] for i in (2, 0, 3, 1)])
        np.testing.assert_allclose(K, K_perm, atol=1e-14)


class TestCrossKernel:
    def test_query_on_training_point(self):
        (Z,) = random_embeddings(1, 4, 2, seed=7)
        k_star, k_ss = cross_kernel(SPEC, [Z], [Z[1:2]])
        np.testing.assert_allclose(k_star[1], 0.5, atol=1e-14)
        np.testing.assert_allclose(k_ss, 0.5, atol=1e-14)

    def test_two_particle_self_average(self):
        rng = np.random.default_rng(8)
        q1, q2 = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
        (Z,) = random_embeddings(1, 3, 2, seed=9)
        _, k_ss = cross_kernel(SPEC, [Z, Z], [q1, q2])
        expected = 0.25 * (2 * 0.5 + 2 * base_kernel(SPEC, q1[0], q2[0]))
        np.testing.assert_allclose(k_ss, expected, atol=1e-14)

    def test_brute_force_oracle(self):
        train = random_embeddings(3, 4, 2, seed=10)
        query = random_embeddings(3, 1, 2, seed=11)
        k_star, k_ss = cross_kernel(SPEC, train, query)
        np.testing.assert_allclose(
            k_star, kernel_quad_loop(SPEC, train, query)[:, 0], atol=1e-12
        )
        np.testing.assert_allclose(
            k_ss, kernel_quad_loop(SPEC, query, query)[0, 0], atol=1e-12
        )

    def test_far_query_decays(self):
        train = random_embeddings(2, 4, 2, seed=12)
        query = [np.full((1, 2), 100.0), np.full((1, 2), 101.0)]
        k_star, k_ss = cross_kernel(SPEC, train, query)
        assert np.all(k_star < 1e-100)
        assert k_ss <= 0.5 + 1e-12

    def test_batch_matches_single(self):
        train = random_embeddings(2, 5, 2, seed=13)
        queries = random_embeddings(2, 3, 2, seed=14)
        K_star, k_ss = cross_kernel_batch(SPEC, train, queries)
        for i in range(3):
            single = [Z[i : i + 1] for Z in queries]
            ks, kss = cross_kernel(SPEC, train, single)
            np.testing.assert_allclose(K_star[i], ks, atol=1e-12)
            np.testing.assert_allclose(k_ss[i], kss, atol=1e-12)


class TestBlockBoundaries:
    """Blocked exact-kernel routes against the loop oracles when blocks split
    a particle's rows: one row per block, and a row count that leaves a
    ragged last block (2 rows per block for 7 rows, 3 for k_ss)."""

    M, NA, NB = 3, 7, 5
    SPEC = LatentKernelSpec(amplitude=0.7, bandwidth=1.3)

    @pytest.mark.parametrize("entries", [1, 2 * M * NB + 1])
    def test_cross_block(self, monkeypatch, entries):
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", entries)
        a = random_embeddings(self.M, self.NA, 2, seed=40)
        b = random_embeddings(self.M, self.NB, 2, seed=41)
        np.testing.assert_allclose(
            empirical_cross_block(self.SPEC, a, b),
            kernel_quad_loop(self.SPEC, a, b),
            rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize("entries", [1, 2 * M * NA + 1])
    def test_cotangents(self, monkeypatch, entries):
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", entries)
        embeddings = random_embeddings(self.M, self.NA, 2, seed=42)
        C = np.random.default_rng(43).normal(size=(self.NA, self.NA))  # asymmetric
        for G, G_ref in zip(
            kernel_embedding_cotangents(self.SPEC, embeddings, C),
            kernel_cotangents_loop(self.SPEC, embeddings, C),
        ):
            np.testing.assert_allclose(G, G_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("entries", [1, 2 * M * NB + 1])
    def test_cross_kernel_batch(self, monkeypatch, entries):
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", entries)
        train = random_embeddings(self.M, self.NB, 2, seed=44)
        queries = random_embeddings(self.M, self.NA, 2, seed=45)
        K_star, k_ss = cross_kernel_batch(self.SPEC, train, queries)
        np.testing.assert_allclose(
            K_star, kernel_quad_loop(self.SPEC, queries, train), rtol=0, atol=1e-12
        )
        for i in range(self.NA):
            single = [Z[i : i + 1] for Z in queries]
            np.testing.assert_allclose(
                k_ss[i], kernel_quad_loop(self.SPEC, single, single)[0, 0], rtol=0, atol=1e-12
            )


class TestRffBasis:
    def test_deterministic(self):
        a = sample_rff_basis(SPEC, d=2, q=64, seed=21)
        b = sample_rff_basis(SPEC, d=2, q=64, seed=21)
        np.testing.assert_array_equal(a.V, b.V)
        np.testing.assert_array_equal(a.b, b.b)

    def test_default_feature_count(self):
        basis = sample_rff_basis(SPEC, d=2, q=100, seed=0)
        assert basis.q == 100 and basis.V.shape == (100, 2)

    def test_spectral_variance(self):
        # frequency variance per coordinate should be 1/h^2
        spec = LatentKernelSpec(amplitude=0.5, bandwidth=2.0)
        basis = sample_rff_basis(spec, d=2, q=100_000, seed=1)
        observed = basis.V.var(axis=0)
        np.testing.assert_allclose(observed, 1.0 / 4.0, rtol=0.02)

    def test_phases_in_range(self):
        basis = sample_rff_basis(SPEC, d=3, q=1000, seed=2)
        assert np.all(basis.b >= 0.0) and np.all(basis.b < 2 * np.pi)


class TestRffFeatures:
    def test_degenerate_cosine(self):
        basis = RffBasis(V=np.zeros((1, 2)), b=np.zeros(1))
        R = rff_feature_matrix(basis, [np.zeros((1, 2))], SPEC)
        np.testing.assert_allclose(R, np.sqrt(0.5) * np.sqrt(2.0), rtol=1e-15)

    def test_identical_particles_collapse(self):
        (Z,) = random_embeddings(1, 5, 2, seed=22)
        basis = sample_rff_basis(SPEC, 2, 32, seed=3)
        R1 = rff_feature_matrix(basis, [Z], SPEC)
        R3 = rff_feature_matrix(basis, [Z, Z, Z], SPEC)
        np.testing.assert_allclose(R1, R3, atol=1e-14)

    def test_converges_to_exact_kernel(self):
        embeddings = random_embeddings(5, 10, 2, seed=23)
        K = empirical_kernel_exact(SPEC, embeddings)
        basis = sample_rff_basis(SPEC, 2, 2000, seed=4)
        R = rff_feature_matrix(basis, embeddings, SPEC)
        assert np.max(np.abs(R @ R.T - K)) < 0.05

    def test_factor_is_psd(self):
        embeddings = random_embeddings(3, 6, 2, seed=24)
        for seed in range(5):
            basis = sample_rff_basis(SPEC, 2, 16, seed=seed)
            R = rff_feature_matrix(basis, embeddings, SPEC)
            assert np.linalg.eigvalsh(R @ R.T).min() > -1e-10

    def test_mean_error_shrinks_with_q(self):
        embeddings = random_embeddings(5, 10, 2, seed=25)
        K = empirical_kernel_exact(SPEC, embeddings)
        errs = []
        for q in (100, 400, 1600):
            trial = [
                np.max(np.abs(
                    rff_feature_matrix(sample_rff_basis(SPEC, 2, q, seed=s), embeddings, SPEC)
                    @ rff_feature_matrix(sample_rff_basis(SPEC, 2, q, seed=s), embeddings, SPEC).T
                    - K
                ))
                for s in range(5)
            ]
            errs.append(np.mean(trial))
        assert errs[0] >= errs[1] >= errs[2]

    def test_dimension_mismatch(self):
        basis = sample_rff_basis(SPEC, 3, 8, seed=5)
        with pytest.raises(DimensionMismatch):
            rff_feature_matrix(basis, [np.zeros((4, 2))], SPEC)


class TestSincos:
    """kernels._sincos, both cos and sin from one Cody-Waite reduction and the
    tangent of the half angle, against np.cos and np.sin: within 2 * 2^-53 up to
    its bound, on numpy's vectorised np.tan and on libm's alike, libm's own past it."""

    ULPS = 2 * 2.0**-53
    BOUND = 2.0**20 * np.pi / 2  # past it, k P1 is no longer exact

    @staticmethod
    def sincos(theta):
        theta = np.array(theta, dtype=np.float64)  # a copy: _sincos spends it
        return kernels_mod._sincos(theta, np.empty(theta.shape, complex))

    def assert_near_libm(self, theta):
        E = self.sincos(theta)
        assert np.abs(E.real - np.cos(theta)).max() <= self.ULPS
        assert np.abs(E.imag - np.sin(theta)).max() <= self.ULPS

    def test_dense_grid_up_to_the_bound(self):
        rng = np.random.default_rng(70)
        self.assert_near_libm(np.linspace(-self.BOUND, self.BOUND, 2_000_001))
        self.assert_near_libm(np.linspace(-20.0, 20.0, 400_001))
        self.assert_near_libm(rng.uniform(-self.BOUND, self.BOUND, 400_000))
        self.assert_near_libm(np.geomspace(1e-300, self.BOUND, 100_000))

    def test_multiples_of_pi_over_4_and_each_side_of_a_quadrant_boundary(self):
        # j pi/4: the even j are the quadrant centres, the odd j the boundaries
        # where rint(2 theta / pi) moves on, every k mod 4 near 0 and the bound
        j = np.concatenate([np.arange(-64, 65), 2**21 - np.arange(16), np.arange(16) - 2**21])
        theta = j * (np.pi / 4)
        assert sorted(set(np.rint(theta * (2 / np.pi)).astype(int) % 4)) == [0, 1, 2, 3]
        for side in (theta, np.nextafter(theta, -np.inf), np.nextafter(theta, np.inf)):
            self.assert_near_libm(side)
        E = self.sincos(np.arange(8) * (np.pi / 2))  # i^k, to round-off
        np.testing.assert_allclose(E, [1, 1j, -1, -1j] * 2, atol=4e-15)

    def test_non_finite_and_past_the_bound_take_libm_unwarned(self):
        special = np.array([np.nan, np.inf, -np.inf, (2**20 + 1) * np.pi / 2, -3 * self.BOUND,
                            1e300, -1e22])
        finite = np.linspace(-5.0, 5.0, 11)
        theta = np.concatenate([special, finite])  # one block: each entry keeps its own value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = self.sincos(theta)
        with np.errstate(invalid="ignore"):
            cos, sin = np.cos(special), np.sin(special)
        np.testing.assert_array_equal(E.real[: len(special)], cos)
        np.testing.assert_array_equal(E.imag[: len(special)], sin)
        assert np.array_equal(E[len(special) :], self.sincos(finite))

    def test_empty(self):
        assert self.sincos(np.empty((0, 3))).shape == (0, 3)

    def test_block_temporaries_within_the_stated_bytes_a_phase(self):
        # the _SINCOS_ENTRIES comment: 24 bytes a phase beyond out (k, t^2 and 1 + t^2)
        n = kernels_mod._SINCOS_ENTRIES
        theta = np.random.default_rng(71).uniform(-50.0, 50.0, n)
        out = np.empty(n, complex)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kernels_mod._sincos(theta, out)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert 8 * n <= peak <= 24 * n + 4096  # k at least; a few Python objects beside the arrays


class TestCotangentChains:
    """The backward maps through both kernel routes, against finite differences."""

    def test_exact_chain_matches_fd(self):
        embeddings = random_embeddings(3, 4, 2, seed=26)
        rng = np.random.default_rng(27)
        C = rng.normal(size=(4, 4))  # deliberately asymmetric
        G = kernel_embedding_cotangents(SPEC, embeddings, C)
        l, i, axis = 1, 2, 0

        def f(v):
            perturbed = [Z.copy() for Z in embeddings]
            perturbed[l][i, axis] = v
            return float(np.sum(C * kernel_quad_loop(SPEC, perturbed, perturbed)))

        v0 = embeddings[l][i, axis]
        numeric = (f(v0 + 1e-6) - f(v0 - 1e-6)) / 2e-6
        np.testing.assert_allclose(G[l][i, axis], numeric, rtol=1e-6, atol=1e-10)

    def test_rff_chain_matches_fd(self):
        embeddings = random_embeddings(3, 4, 2, seed=28)
        basis = sample_rff_basis(SPEC, 2, 8, seed=6)
        rng = np.random.default_rng(29)
        T = rng.normal(size=(4, 8))
        G = rff_features_vjp(basis, embeddings, SPEC)[1](T)
        l, i, axis = 2, 0, 1

        def f(v):
            perturbed = [Z.copy() for Z in embeddings]
            perturbed[l][i, axis] = v
            return float(np.sum(T * rff_feature_matrix(basis, perturbed, SPEC)))

        v0 = embeddings[l][i, axis]
        numeric = (f(v0 + 1e-6) - f(v0 - 1e-6)) / 2e-6
        np.testing.assert_allclose(G[l][i, axis], numeric, rtol=1e-6, atol=1e-10)

    @pytest.mark.parametrize("sines", ["kept", "rebuilt"])
    def test_rff_vjp_matches_fd(self, monkeypatch, sines):
        # the VJP of rff_features_vjp, its sines kept from R's pass or, with a
        # budget below the m n q = 96 of them, rebuilt by phase groups without R
        embeddings = random_embeddings(3, 4, 2, seed=28)
        basis = sample_rff_basis(SPEC, 2, 8, seed=6)
        T = np.random.default_rng(29).normal(size=(4, 8))
        if sines == "rebuilt":
            monkeypatch.setattr(kernels_mod, "_TRIG_ENTRIES", 3 * 4 * 8 - 1)
        rebuilds, groups = [], kernels_mod._phase_groups
        monkeypatch.setattr(kernels_mod, "_phase_groups",
                            lambda *args: rebuilds.append(args[3] is None) or groups(*args))
        R, vjp = rff_features_vjp(basis, embeddings, SPEC)
        G = vjp(T)
        assert any(rebuilds) == (sines == "rebuilt")
        assert np.array_equal(R, rff_feature_matrix(basis, embeddings, SPEC))
        assert np.array_equal(G, rff_embedding_cotangents_sincos_serial(basis, embeddings, SPEC, T))
        # the kept sines are spent: a second product rebuilds them, to the same bits
        assert np.array_equal(vjp(T), G)
        l, i, axis = 2, 0, 1

        def f(v):
            perturbed = [Z.copy() for Z in embeddings]
            perturbed[l][i, axis] = v
            return float(np.sum(T * rff_feature_matrix(basis, perturbed, SPEC)))

        v0 = embeddings[l][i, axis]
        numeric = (f(v0 + 1e-6) - f(v0 - 1e-6)) / 2e-6
        np.testing.assert_allclose(G[l][i, axis], numeric, rtol=1e-6, atol=1e-10)

    def test_vjp_rejects_a_cotangent_of_another_shape(self):
        basis = sample_rff_basis(SPEC, 2, 8, seed=6)
        _, vjp = rff_features_vjp(basis, random_embeddings(3, 4, 2, seed=28), SPEC)
        with pytest.raises(DimensionMismatch):
            vjp(np.ones(8))

    def test_empty_point_set(self):
        # no phases: the first product spends the kept (empty) sines, the
        # second rebuilds them
        basis = sample_rff_basis(SPEC, 2, 8, seed=6)
        R, vjp = rff_features_vjp(basis, np.empty((3, 0, 2)), SPEC)
        assert R.shape == (0, 8)
        for _ in range(2):
            assert vjp(np.empty((0, 8))).shape == (3, 0, 2)

    def test_no_sines_outlive_the_call_above_the_budget(self, monkeypatch):
        # the paper pass's 225 000 sines (1.8 MB) are held for the VJP within
        # the budget, and one below it only R and the VJP's references are
        m, n, q = 50, 45, 100
        Z = np.random.default_rng(66).normal(size=(m, n, 2))
        basis = sample_rff_basis(SPEC, 2, q, seed=67)
        held = {}
        for budget in (m * n * q, m * n * q - 1):
            monkeypatch.setattr(kernels_mod, "_TRIG_ENTRIES", budget)
            tracemalloc.start()
            try:
                R, vjp = rff_features_vjp(basis, Z, SPEC)
                held[budget] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            del R, vjp
        assert held[m * n * q] >= 8 * m * n * q
        assert held[m * n * q - 1] < 8 * m * n * q / 10


def assert_close_to_libm(basis, embeddings, T):
    """R, the VJP and its second call, which rebuilds the sines, against the
    np.cos / np.sin oracles at rtol 1e-12, with an absolute floor of 1e-12 of
    the largest entry: _sincos is within 2^-52 of libm, entry by entry."""
    R, vjp = rff_features_vjp(basis, embeddings, SPEC)
    R_libm = rff_feature_matrix_serial(basis, embeddings, SPEC)
    G_libm = rff_embedding_cotangents_serial(basis, embeddings, SPEC, T)
    for got, want in [(R, R_libm), (vjp(T), G_libm), (vjp(T), G_libm)]:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def assert_close_to_all_blocks(G, spec, embeddings, C):
    """The exact chain against the one over all m^2 particle blocks at rtol
    1e-12, with an absolute floor of 1e-12 of the largest entry: an entry's
    pair terms can cancel to far below their own size."""
    want = kernel_embedding_cotangents_all_blocks(spec, embeddings, C)
    np.testing.assert_allclose(G, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def at_one_worker(monkeypatch, fn, *args):
    """fn(*args) with one kernel worker; the worker count is restored after."""
    workers = threads._WORKERS
    monkeypatch.setattr(threads, "_WORKERS", 1)
    try:
        return fn(*args)
    finally:
        monkeypatch.setattr(threads, "_WORKERS", workers)


def recording_split(ranges):
    """threads._split, appending to ranges one list a call of the starts of
    its ranges: a call's own list, as an rff rebuild splits again in a range."""
    def split(n, unit_entries, fn):
        ranges.append(seen := [])
        threads._split(n, unit_entries, lambda a, b: (seen.append(a), fn(a, b)))
    return split


class TestKernelWorkers:
    """Every kernel that splits its loops over workers is bitwise equal to its
    one-thread form at any worker count."""

    CASES = {  # m, n_a, n_b, d, q, _BLOCK_ENTRIES
        "ragged-blocks": (3, 7, 5, 2, 7, 31),  # 2-row blocks of 7 rows
        "one-row": (4, 1, 1, 2, 5, 1 << 17),  # fewer rows than workers
        "one-particle": (1, 6, 4, 2, 5, 7),  # fewer particles than workers
        "ragged-last-block": (2, 7, 3, 3, 4, 12),  # 2-row blocks: 2, 2, 2, 1
        "many-blocks": (5, 40, 30, 3, 16, 300),
        # a one-row product takes OpenBLAS's GEMV route and rounds differently,
        # so a row split of the rff GEMM would show here
        "one-row-a-worker": (2, 3, 2, 2, 100, 1 << 17),
    }

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", CASES)
    def test_bitwise_equal_to_one_thread(self, monkeypatch, workers, case):
        m, na, nb, d, q, entries = self.CASES[case]
        monkeypatch.setattr(threads, "_WORKERS", workers)
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", entries)
        ranges = []
        monkeypatch.setattr(kernels_mod, "_split", recording_split(ranges))
        rng = np.random.default_rng(60)
        a, b = rng.normal(size=(m, na, d)), rng.normal(size=(m, nb, d))
        basis = sample_rff_basis(SPEC, d, q, seed=61)
        T, C = rng.normal(size=(na, q)), rng.normal(size=(na, na))
        K_star, k_ss = cross_kernel_batch(SPEC, b, a)
        K_star_ref, k_ss_ref = at_one_worker(monkeypatch, cross_kernel_batch, SPEC, b, a)
        K = empirical_cross_block(SPEC, a, b)
        # the exact blocks sum in fixed particle chunks: equal to their own
        # one-worker result, and close to the one-loop form
        np.testing.assert_allclose(K, empirical_cross_block_serial(SPEC, a, b), rtol=1e-12)
        R, vjp = rff_features_vjp(basis, a, SPEC)
        G_rff = rff_embedding_cotangents_sincos_serial(basis, a, SPEC, T)
        pairs = [
            (K, at_one_worker(monkeypatch, empirical_cross_block, SPEC, a, b)),
            (K_star, K_star_ref),
            (k_ss, k_ss_ref),
            (k_ss, cross_kernel_batch_serial(SPEC, b, a)[1]),
            (R, rff_feature_matrix_sincos_serial(basis, a, SPEC)),
            (vjp(T), G_rff),  # the kept sines
            (vjp(T), G_rff),  # rebuilt, split by particles
        ]
        for got, want in pairs:
            assert np.array_equal(got, want)
        assert_close_to_libm(basis, a, T)
        # the exact chain sums in fixed particle chunks: equal to its own
        # one-worker result, and close to the chain over all m^2 blocks
        G = kernel_embedding_cotangents(SPEC, a, C)
        assert_close_to_all_blocks(G, SPEC, a, C)
        assert np.array_equal(G, at_one_worker(monkeypatch, kernel_embedding_cotangents, SPEC, a, C))
        assert max(len(r) for r in ranges) == workers  # some call did split

    def test_many_workers_under_fast_switching(self, monkeypatch):
        # more workers than cores, and thread switches as often as possible:
        # a lost or torn write to a shared output would show as a mismatch
        monkeypatch.setattr(threads, "_WORKERS", 8)
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", 40)
        rng = np.random.default_rng(62)
        a, b = rng.normal(size=(4, 30, 2)), rng.normal(size=(4, 9, 2))
        basis = sample_rff_basis(SPEC, 2, 10, seed=63)
        C = rng.normal(size=(30, 30))
        K_ref = at_one_worker(monkeypatch, empirical_cross_block, SPEC, a, b)
        R_ref = rff_feature_matrix_sincos_serial(basis, a, SPEC)
        G_ref = at_one_worker(monkeypatch, kernel_embedding_cotangents, SPEC, a, C)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 2.0
            for _ in range(20):
                assert np.array_equal(empirical_cross_block(SPEC, a, b), K_ref)
                assert np.array_equal(rff_feature_matrix(basis, a, SPEC), R_ref)
                assert np.array_equal(kernel_embedding_cotangents(SPEC, a, C), G_ref)
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(interval)


class TestExactCotangentChain:
    """kernel_embedding_cotangents builds each particle pair's block once, in
    row tiles against every later particle and fixed particle chunks: bitwise
    the same at any worker count, and close to the chain over all m^2 blocks."""

    SPEC = LatentKernelSpec(amplitude=0.7, bandwidth=1.3)
    CASES = {  # m, n, d, _BLOCK_ENTRIES, C
        "one-particle": (1, 6, 2, 1 << 17, "asymmetric"),  # no column term
        "two-particles": (2, 7, 2, 1 << 17, "asymmetric"),
        # one-row tiles of 7-row particles
        "tile-cuts-a-particle": (3, 7, 2, 31, "asymmetric"),
        "one-entry-tiles": (3, 5, 2, 1, "asymmetric"),
        "many-tiles": (5, 40, 3, 300, "asymmetric"),
        "symmetric-C": (4, 9, 2, 1 << 17, "symmetric"),
        "ssdpkl-pool": (4, 11, 2, 40, "ssdpkl"),  # 6 labeled rows, 5 pool rows
    }

    @staticmethod
    def cotangent(kind, n, rng):
        if kind == "asymmetric":
            return rng.normal(size=(n, n))
        if kind == "symmetric":
            S = rng.normal(size=(n, n))
            return S + S.T
        # trainer._objective_core's exact ssdpkl cotangent: labeled block,
        # pool cross block, zeros and the pool's self-pairs at w
        n_l, w = 6, 0.3
        S = rng.normal(size=(n_l, n_l))
        Bp = rng.normal(size=(n_l, n - n_l))
        return np.block([[S + S.T, -2.0 * w * Bp],
                         [np.zeros_like(Bp.T), w * np.eye(n - n_l)]])

    @pytest.mark.parametrize("case", CASES)
    def test_same_bits_at_any_worker_count(self, monkeypatch, case):
        m, n, d, entries, kind = self.CASES[case]
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(66)
        Z, C = rng.normal(size=(m, n, d)), self.cotangent(kind, n, rng)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(threads, "_WORKERS", workers)
            results.append(kernel_embedding_cotangents(self.SPEC, Z, C))
        assert all(np.array_equal(G, results[0]) for G in results[1:])
        assert_close_to_all_blocks(results[0], self.SPEC, Z, C)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_paper_size_splits_at_the_default_threshold(self, monkeypatch, workers):
        # m = 50, 45 training rows: both chunks run on their own worker
        monkeypatch.setattr(threads, "_WORKERS", workers)
        ranges = []
        monkeypatch.setattr(kernels_mod, "_split", recording_split(ranges))
        rng = np.random.default_rng(67)
        Z, C = rng.normal(size=(50, 45, 2)), rng.normal(size=(45, 45))
        G = kernel_embedding_cotangents(SPEC, Z, C)
        assert [len(r) for r in ranges] == [min(workers, kernels_mod._CHUNKS)]
        assert np.array_equal(G, at_one_worker(monkeypatch, kernel_embedding_cotangents, SPEC, Z, C))
        assert_close_to_all_blocks(G, SPEC, Z, C)

    def test_working_memory_stays_far_below_one_pair_matrix(self):
        # m = 50, n = 400: an (m n)^2 array of pair terms would take 3.2 GB
        m, n, d = 50, 400, 2
        rng = np.random.default_rng(68)
        Z, C = rng.normal(size=(m, n, d)), rng.normal(size=(n, n))
        tracemalloc.start()
        try:
            kernel_embedding_cotangents(SPEC, Z, C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = kernels_mod._BLOCK_ENTRIES
        bound = 8 * (
            kernels_mod._CHUNKS * m * n * (d + 1)  # the chunks' accumulators
            + max(threads._WORKERS, 1) * entries  # one tile buffer a worker
            + n * n  # C + C^T
            + 8 * m * n * (d + 2)  # augmented rows, [B, 1], G and their temporaries
        )
        assert peak < bound < 8 * (m * n) ** 2 / 100


class TestRffWorkers:
    """The rff phase loop at the paper sizes, in R's pass and the VJP's rebuild,
    one phase GEMM a particle group and one _sincos a block, against their
    per-particle one-thread forms on the same _sincos, bit for bit at any
    worker count, and close to libm's cos and sin."""

    M, Q = 50, 100

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("min_entries", [0, None])  # every split, the default's
    @pytest.mark.parametrize("n", [16, 45])
    @pytest.mark.parametrize("trig_entries", [1, 3 * 45 * 100, None])  # g = 1, ragged, one group
    def test_bitwise_equal_to_per_particle_loop(
        self, monkeypatch, workers, min_entries, n, trig_entries
    ):
        monkeypatch.setattr(threads, "_WORKERS", workers)
        if min_entries is not None:
            monkeypatch.setattr(threads, "_MIN_ENTRIES", min_entries)
        if trig_entries is not None:  # the sines rebuilt, in groups of this many phases
            monkeypatch.setattr(kernels_mod, "_TRIG_ENTRIES", trig_entries)
            monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", trig_entries)
        ranges = []
        monkeypatch.setattr(kernels_mod, "_split", recording_split(ranges))
        rng = np.random.default_rng(64)
        Z = rng.normal(size=(self.M, n, 2))
        T = rng.normal(size=(n, self.Q))
        basis = sample_rff_basis(SPEC, 2, self.Q, seed=65)
        R, vjp = rff_features_vjp(basis, Z, SPEC)
        G_want = rff_embedding_cotangents_sincos_serial(basis, Z, SPEC, T)
        assert np.array_equal(R, rff_feature_matrix_sincos_serial(basis, Z, SPEC))
        assert np.array_equal(vjp(T), G_want)
        # one split a particle group of R's pass: at the default budget R's
        # pass is one group, and the default threshold splits every call over
        # all workers; it leaves a group of g = 1 or 3 to 8 particles (ragged)
        # on the caller. The VJP keeps R's sines, or rebuilds them: one split
        # by particles, then each range's groups of g, one serial split a
        # group on the range's worker
        g = self.M if trig_entries is None else max(1, trig_entries // (n * self.Q))
        split = workers if min_entries == 0 or trig_entries is None else 1
        want = [split] * -(-self.M // g)
        if trig_entries is not None:
            cuts = [self.M * i // workers for i in range(workers + 1)]
            want += [workers] + [1] * sum(-(-(b - a) // g) for a, b in zip(cuts, cuts[1:]))
        assert [len(r) for r in ranges] == want
        assert np.array_equal(vjp(T), G_want)  # a second product rebuilds the sines
        assert_close_to_libm(basis, Z, T)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_particle_rebuild_splits_rows(self, monkeypatch, workers):
        # m = 1 with n q above the budget: the particle split is one range on
        # the caller, whose one group splits its sines by rows over the workers
        n = 45
        monkeypatch.setattr(threads, "_WORKERS", workers)
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
        monkeypatch.setattr(kernels_mod, "_TRIG_ENTRIES", n * self.Q - 1)
        ranges = []
        monkeypatch.setattr(kernels_mod, "_split", recording_split(ranges))
        rng = np.random.default_rng(69)
        Z, T = rng.normal(size=(1, n, 2)), rng.normal(size=(n, self.Q))
        basis = sample_rff_basis(SPEC, 2, self.Q, seed=70)
        R, vjp = rff_features_vjp(basis, Z, SPEC)
        G_want = rff_embedding_cotangents_sincos_serial(basis, Z, SPEC, T)
        assert np.array_equal(R, rff_feature_matrix_sincos_serial(basis, Z, SPEC))
        assert np.array_equal(vjp(T), G_want)
        assert [len(r) for r in ranges] == [workers, 1, workers]  # R's rows, the particle, its rows
        assert np.array_equal(vjp(T), G_want)


class TestSplit:
    """threads._split: contiguous ranges, exceptions after every range, and
    serial runs where a second worker cannot help."""

    @pytest.fixture(autouse=True)
    def three_workers(self, monkeypatch):
        monkeypatch.setattr(threads, "_WORKERS", 3)
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10])
    def test_ranges_cover_range_n_in_order(self, n):
        seen = []
        threads._split(n, 1, lambda a, b: seen.append((a, b)))
        seen.sort()
        assert len(seen) == max(1, min(3, n))
        assert seen[0][0] == 0 and seen[-1][1] == n
        assert all(prev[1] == nxt[0] < nxt[1] for prev, nxt in zip(seen, seen[1:]))

    def test_every_range_runs_on_a_kernel_worker(self):
        seen = {}
        threads._split(3, 1, lambda a, b: seen.setdefault(a, threading.current_thread()))
        assert sorted(seen) == [0, 1, 2]
        assert all(t.name.startswith("dpkl-kernel") for t in seen.values())

    def test_small_work_runs_serially(self, monkeypatch):
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 100)
        seen = []
        threads._split(10, 19, lambda a, b: seen.append((a, b)))  # one worker's worth
        assert seen == [(0, 10)]
        seen.clear()
        threads._split(10, 20, lambda a, b: seen.append((a, b)))  # two workers' worth
        assert sorted(seen) == [(0, 5), (5, 10)]

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_exception_is_raised_after_every_range(self, failing):
        finished = []

        def fn(a, b):
            if a == failing:
                raise ValueError(a)
            time.sleep(0.05)
            finished.append(a)

        with pytest.raises(ValueError):
            threads._split(3, 1, fn)
        assert sorted(finished) == [a for a in range(3) if a != failing]

    def test_first_exception_in_range_order_wins(self):
        def fn(a, b):
            if a == 1:
                time.sleep(0.05)  # range 2 fails first
            if a:
                raise ValueError(a)

        with pytest.raises(ValueError, match="^1$"):
            threads._split(3, 1, fn)

    def test_serial_off_the_main_thread(self):
        seen = []
        t = threading.Thread(
            target=threads._split,
            args=(10, 1, lambda a, b: seen.append((a, b, threading.current_thread()))),
        )
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        assert seen == [(0, 10, t)]


def test_import_starts_no_thread():
    import dpkl

    src = str(Path(dpkl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import threading, sys; n = threading.active_count(); "
        "import dpkl, dpkl.cli; sys.exit(threading.active_count() != n)"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestExactGram:
    """_exact_gram, the training K_LL, sums the particle pairs l <= l' on the
    cotangent chain's tile loop: close to empirical_kernel_exact, symmetric,
    and the same bits at one worker and two."""

    CASES = {  # m, n, _BLOCK_ENTRIES
        "paper-size": (50, 45, 1 << 17),
        "one-particle": (1, 6, 1 << 17),
        # m n^2 above _BLOCK_ENTRIES: a particle's 400 rows cut into tiles of
        # 163, 163 and 74 rows (one particle: 327 and 73)
        "n-above-a-square-tile": (2, 400, 1 << 17),
        "one-particle-n-above-a-square-tile": (1, 400, 1 << 17),
        # one-row tiles of 7-row particles
        "tile-cuts-a-particle": (3, 7, 31),
        "one-entry-tiles": (3, 5, 1),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_close_to_the_full_kernel_and_symmetric(self, monkeypatch, case):
        m, n, entries = self.CASES[case]
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", entries)
        Z = np.random.default_rng(70).normal(size=(m, n, 2))
        K = kernels_mod._exact_gram(SPEC, Z)
        want = empirical_kernel_exact(SPEC, Z)
        np.testing.assert_allclose(K, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("case", CASES)
    def test_same_bits_at_one_worker_and_two(self, monkeypatch, case):
        m, n, entries = self.CASES[case]
        monkeypatch.setattr(threads, "_WORKERS", 2)
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", entries)
        Z = np.random.default_rng(71).normal(size=(m, n, 2))
        K = kernels_mod._exact_gram(SPEC, Z)
        assert np.array_equal(K, at_one_worker(monkeypatch, kernels_mod._exact_gram, SPEC, Z))

    def test_paper_size_splits_at_the_default_threshold(self, monkeypatch):
        # m = 50, 45 training rows: both chunks run on their own worker
        monkeypatch.setattr(threads, "_WORKERS", 2)
        ranges = []
        monkeypatch.setattr(kernels_mod, "_split", recording_split(ranges))
        kernels_mod._exact_gram(SPEC, np.random.default_rng(72).normal(size=(50, 45, 2)))
        assert ranges == [[0, 1]]

    def test_many_workers_under_fast_switching(self, monkeypatch):
        # more workers than cores and thread switches as often as possible: a
        # lost or torn add to a chunk's accumulator would show as a mismatch
        monkeypatch.setattr(threads, "_WORKERS", 8)
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", 40)
        Z = np.random.default_rng(75).normal(size=(6, 30, 2))
        K_ref = at_one_worker(monkeypatch, kernels_mod._exact_gram, SPEC, Z)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 2.0
            for _ in range(20):
                assert np.array_equal(kernels_mod._exact_gram(SPEC, Z), K_ref)
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("case", [*TestExactCotangentChain.CASES, "paper-size"])
    def test_cotangent_chain_bits_unchanged_by_the_shared_loop(self, monkeypatch, case):
        m, n, d, entries, kind = TestExactCotangentChain.CASES.get(
            case, (50, 45, 2, 1 << 17, "asymmetric"))
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(73)
        Z, C = rng.normal(size=(m, n, d)), TestExactCotangentChain.cotangent(kind, n, rng)
        spec = TestExactCotangentChain.SPEC
        G = kernel_embedding_cotangents(spec, Z, C)
        want = kernel_embedding_cotangents_own_loop(spec, Z, C)
        if m * n * n <= entries:  # the oracle's tiles are the library's: n rows, every later particle
            assert np.array_equal(G, want)
        else:  # its tiles cut particles' columns: the pairs summed over other tile widths
            np.testing.assert_allclose(G, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_working_memory_stays_far_below_one_pair_matrix(self):
        # m = 50, n = 400: the chunks' (n, n) accumulators and one tile buffer
        # a worker, never an (m n)^2 array of pairs
        m, n, d = 50, 400, 2
        Z = np.random.default_rng(74).normal(size=(m, n, d))
        tracemalloc.start()
        try:
            kernels_mod._exact_gram(SPEC, Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = kernels_mod._BLOCK_ENTRIES
        bound = 8 * (
            (kernels_mod._CHUNKS + 5) * n * n  # the chunks' A, their sum, A^T, K, temporaries
            + max(threads._WORKERS, 1) * entries  # one tile buffer a worker
            + 4 * m * n * (d + 2)  # augmented rows and their temporaries
        )
        assert peak < bound < 8 * (m * n) ** 2 / 100


class TestPairTiles:
    """_pair_tiles' tiles are rows of particle l against every particle l' >= l
    (two sets: every particle), each pair once, within max(_BLOCK_ENTRIES, m n_b)
    entries a tile, the bound of empirical_cross_block's own row blocks."""

    @pytest.mark.parametrize("entries", [1, 6, 31, 40, 300, 1 << 17])
    def test_tile_steps_take_whole_particles(self, monkeypatch, entries):
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", entries)
        for m in (1, 2, 3, 5, 50):
            for n in (0, 1, 5, 7, 11, 45, 52, 400):
                for n_b in (0, 1, 4, n):
                    rows = kernels_mod._tile_rows(m, n, n_b)
                    assert 1 <= rows <= max(n, 1)  # a step of at least 1 on empty sets too
                    if n_b:  # as many rows as fit, up to all n of them
                        assert rows * m * n_b <= max(entries, m * n_b)
                        assert rows in (n, 1) or (rows + 1) * m * n_b > entries

    def test_paper_size_tile_is_one_particle_against_all(self):
        # m = 50, n = 45: the tile shape the fit-exact bits were made with, the
        # first particle's 45 rows against all 2250 columns
        assert kernels_mod._tile_rows(50, 45, 45) == 45
        shapes = {}  # particle l: its tiles' shapes
        kernels_mod._pair_tiles(SPEC, np.zeros((50, 45, 1)),
                                lambda k, l, r0, E: shapes.setdefault(l, []).append(E.shape))
        assert shapes == {l: [(45, 45 * (50 - l))] for l in range(50)}

    @staticmethod
    def record_tiles(monkeypatch, entries, Za, Zb=None):
        """seen[l, i, c]: the times row i of a-particle l met column c of the
        b-side stack; every tile is checked against the base kernel as it runs."""
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", entries)
        m, n, _ = Za.shape
        B = (Za if Zb is None else Zb).reshape(m * (n if Zb is None else Zb.shape[1]), -1)
        n_b = len(B) // m
        seen = np.zeros((m, n, m * n_b), dtype=int)
        rows = kernels_mod._tile_rows(m, n, n_b)
        def tile(k, l, r0, E):
            c0 = l * n_b if Zb is None else 0  # rows against every remaining particle
            assert E.shape == (min(rows, n - r0), m * n_b - c0) and r0 % rows == 0
            assert E.size <= max(entries, m * n_b)
            r1 = r0 + len(E)
            seen[l, r0:r1, c0:] += 1
            d2 = ((Za[l, r0:r1, None] - B[None, c0:]) ** 2).sum(axis=-1)
            np.testing.assert_allclose(E, np.exp(-0.5 * d2), rtol=0, atol=1e-12)
        kernels_mod._pair_tiles(SPEC, Za, tile, Zb)
        return seen

    @pytest.mark.parametrize("m, n, entries", [
        (1, 6, 1 << 17), (3, 7, 31), (3, 5, 1), (5, 40, 300), (4, 11, 40),
        (6, 9, 200),  # 3-row tiles
        (2, 400, 1 << 17),  # 163-row tiles, the last 74 rows
    ])
    def test_each_pair_once_in_whole_particle_tiles(self, monkeypatch, m, n, entries):
        Z = np.asarray(random_embeddings(m, n, 2, seed=80))
        seen = self.record_tiles(monkeypatch, entries, Z)
        upper = np.arange(m)[:, None] <= np.arange(m)  # the pairs l <= l'
        want = np.broadcast_to(upper[:, None, :, None], (m, n, m, n)).reshape(m, n, m * n)
        assert np.array_equal(seen, want)

    @pytest.mark.parametrize("m, n_a, n_b, entries", [
        (1, 6, 4, 1 << 17), (3, 7, 5, 31), (3, 5, 4, 1), (5, 40, 11, 300),
        (4, 11, 6, 40),
        (6, 9, 4, 30),  # one-row tiles, each 24 entries
        (2, 400, 99, 1 << 17),  # a labeled set's rows against a pool chunk's
    ])
    def test_two_sets_each_pair_once_in_whole_b_particle_tiles(self, monkeypatch, m, n_a, n_b, entries):
        Za = np.asarray(random_embeddings(m, n_a, 2, seed=81))
        Zb = np.asarray(random_embeddings(m, n_b, 2, seed=82))
        seen = self.record_tiles(monkeypatch, entries, Za, Zb)
        assert np.array_equal(seen, np.ones_like(seen))  # every pair (l, l'), once


class TestCrossBlockOnTheTileLoop:
    """empirical_cross_block is _exact_gram's two-set mode: its l-sum splits at
    the _CHUNKS particle cut, so it is bitwise equal to the one-loop form up to
    m = 3 (one particle a chunk, or the first chunk's two summed first, as that
    form does) and equal to it to round-off above."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("entries", [1, 31, 1 << 17])
    def test_bitwise_equal_to_the_one_loop_form_up_to_three_particles(self, monkeypatch, workers, m, entries):
        monkeypatch.setattr(threads, "_WORKERS", workers)
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(84)
        a, b = rng.normal(size=(m, 13, 2)), rng.normal(size=(m, 5, 2))
        K, K_ref = empirical_cross_block(SPEC, a, b), empirical_cross_block_serial(SPEC, a, b)
        assert K.tobytes() == K_ref.tobytes()
        K_star, k_ss = cross_kernel_batch(SPEC, b, a)
        K_star_ref, k_ss_ref = cross_kernel_batch_serial(SPEC, b, a)
        assert K_star.tobytes() == K_star_ref.tobytes() and k_ss.tobytes() == k_ss_ref.tobytes()

    def test_paper_size_close_to_the_one_loop_form(self):
        # m = 50: prediction's K_* of 2000 query rows against 100 training rows
        rng = np.random.default_rng(85)
        q, tr = rng.normal(size=(50, 200, 2)), rng.normal(size=(50, 100, 2))
        np.testing.assert_allclose(
            empirical_cross_block(SPEC, q, tr), empirical_cross_block_serial(SPEC, q, tr), rtol=1e-12)

    def test_validation_k_ll_splits_at_the_default_threshold(self, monkeypatch):
        # n = 45 at m = 50: the full m^2-pair K_LL of a validation check runs
        # both chunks, each on its own worker
        monkeypatch.setattr(threads, "_WORKERS", 2)
        ranges = []
        monkeypatch.setattr(kernels_mod, "_split", recording_split(ranges))
        empirical_kernel_exact(SPEC, np.random.default_rng(86).normal(size=(50, 45, 2)))
        assert ranges == [[0, 1]]

    @pytest.mark.parametrize("m", [1, 3, 50])
    def test_no_query_rows(self, m):
        train = np.random.default_rng(87).normal(size=(m, 4, 2))
        K_star, k_ss = cross_kernel_batch(SPEC, train, np.empty((m, 0, 2)))
        assert K_star.shape == (0, 4) and k_ss.shape == (0,)
        assert empirical_cross_block(SPEC, np.empty((m, 0, 2)), np.empty((m, 0, 2))).shape == (0, 0)

    # an empty b side has no pair and so no tile: empty blocks and zero cotangents
    @pytest.mark.parametrize("m", [1, 3, 50])
    def test_cross_block_of_no_b_rows(self, m):
        a = np.random.default_rng(88).normal(size=(m, 4, 2))
        assert empirical_cross_block(SPEC, a, np.empty((m, 0, 2))).shape == (4, 0)

    @pytest.mark.parametrize("m", [1, 3, 50])
    def test_no_train_rows(self, m):
        query = np.random.default_rng(89).normal(size=(m, 5, 2))
        K_star, k_ss = cross_kernel_batch(SPEC, np.empty((m, 0, 2)), query)
        assert K_star.shape == (5, 0)
        np.testing.assert_array_equal(k_ss, cross_kernel_batch(SPEC, query[:, :1], query)[1])

    @pytest.mark.parametrize("m", [1, 3, 50])
    def test_cotangents_of_no_b_rows(self, m):
        a = np.random.default_rng(90).normal(size=(m, 4, 2))
        G_a, G_b = kernel_embedding_cotangents(SPEC, a, np.empty((4, 0)), np.empty((m, 0, 2)))
        np.testing.assert_array_equal(G_a, np.zeros((m, 4, 2)))
        assert G_b.shape == (m, 0, 2)


class TestCrossBlockChains:
    """The exact pool terms on two point sets: _exact_gram's cross block, the
    cross-block cotangent chained to both sides, and the self-pairs' k_** and
    their chain, against dense oracles and finite differences, and the same
    bits at any worker count."""

    SPEC = LatentKernelSpec(amplitude=0.7, bandwidth=1.3)
    CASES = {  # m, n_a, n_b, d, _BLOCK_ENTRIES
        "one-particle": (1, 6, 3, 2, 1 << 17),
        "whole-sets": (3, 7, 5, 2, 1 << 17),
        # tiles of 2 a-rows against all three b-particles: a particle's 7
        # a-rows cut over four row tiles
        "tiles-cut-a-rows": (3, 7, 5, 2, 31),
        # tiles of 2 a-rows against all five b-particles of 3 (named for
        # the column tiles the loop once took)
        "tiles-cut-the-b-particles": (5, 4, 3, 2, 30),
        "one-entry-tiles": (3, 5, 4, 2, 1),
        "many-tiles": (5, 40, 11, 3, 300),
    }

    def inputs(self, case, seed=90):
        m, n_a, n_b, d, _ = self.CASES[case]
        rng = np.random.default_rng(seed)
        return rng.normal(size=(m, n_a, d)), rng.normal(size=(m, n_b, d)), rng.normal(size=(n_a, n_b))

    @pytest.mark.parametrize("case", CASES)
    def test_cross_gram_and_chain_match_dense_oracles(self, monkeypatch, case):
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", self.CASES[case][-1])
        Za, Zb, C = self.inputs(case)
        K = kernels_mod._exact_gram(self.SPEC, Za, Zb)
        want = empirical_cross_block(self.SPEC, Za, Zb)
        np.testing.assert_allclose(K, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        for G, G_want in zip(kernel_embedding_cotangents(self.SPEC, Za, C, Zb),
                             cross_cotangents_all_blocks(self.SPEC, Za, Zb, C)):
            np.testing.assert_allclose(G, G_want, rtol=1e-12, atol=1e-12 * np.abs(G_want).max())

    @pytest.mark.parametrize("case", CASES)
    def test_same_bits_at_any_worker_count(self, monkeypatch, case):
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", self.CASES[case][-1])
        Za, Zb, C = self.inputs(case, seed=91)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(threads, "_WORKERS", workers)
            K = kernels_mod._exact_gram(self.SPEC, Za, Zb)
            G_a, G_b = kernel_embedding_cotangents(self.SPEC, Za, C, Zb)
            k_ss, G_s = kernels_mod._self_pairs(self.SPEC, Zb, 0.3)
            results.append(b"".join(x.tobytes() for x in (K, G_a, G_b, k_ss, G_s)))
        assert results[1:] == results[:1] * 2

    def test_cross_chain_matches_finite_differences(self):
        Za, Zb, C = self.inputs("whole-sets", seed=92)
        G_a, G_b = kernel_embedding_cotangents(self.SPEC, Za, C, Zb)

        def f(flat):
            a, b = flat[: Za.size].reshape(Za.shape), flat[Za.size :].reshape(Zb.shape)
            return float(np.sum(C * empirical_cross_block(self.SPEC, a, b)))

        numeric = fd_gradient(f, np.concatenate([Za.ravel(), Zb.ravel()]))
        np.testing.assert_allclose(np.concatenate([G_a.ravel(), G_b.ravel()]), numeric,
                                   rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("entries", [1, 7, 1 << 17])  # one point a step, two, all
    def test_self_pairs_are_the_diagonal_and_its_chain(self, monkeypatch, entries):
        monkeypatch.setattr(kernels_mod, "_BLOCK_ENTRIES", entries)
        m, n, d, w = 3, 6, 2, 0.3
        Z = np.random.default_rng(93).normal(size=(m, n, d))
        k_ss, G = kernels_mod._self_pairs(self.SPEC, Z, w)
        # k_** is cross_kernel_batch's, bit for bit, and the own block's diagonal
        assert k_ss.tobytes() == cross_kernel_batch_serial(self.SPEC, Z, Z)[1].tobytes()
        np.testing.assert_allclose(k_ss, np.diag(empirical_kernel_exact(self.SPEC, Z)), rtol=1e-12)
        # the chain of w I on the own block, and of w sum(k_**) by finite differences
        want = kernel_embedding_cotangents(self.SPEC, Z, w * np.eye(n))
        np.testing.assert_allclose(G, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        numeric = fd_gradient(
            lambda flat: w * float(np.sum(kernels_mod._self_pairs(self.SPEC, flat.reshape(Z.shape))[0])),
            Z.ravel())
        np.testing.assert_allclose(G.ravel(), numeric, rtol=1e-6, atol=1e-9)
        assert kernels_mod._self_pairs(self.SPEC, Z)[1] is None
