import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    functional_gradient_step_textbook,
    functional_gradient_step_unblocked,
    libm_sincos,
    objective_core_whole_batch,
    objective_value,
    particle_fd_gradient,
    per_particle_loss_grads,
    rel_err,
    rff_objective_dense_pool,
)

from dpkl import classify, kernels, net, threads, trainer
from dpkl.data import synth_blobs, synth_regression
from dpkl.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyUnlabeledSet,
    InsufficientData,
    InternalConsistencyError,
)
from dpkl.trainer import (
    AdamState,
    TrainConfig,
    TrainData,
    derive_seeds,
    fit,
    functional_gradient_step,
    median_heuristic,
    _kappa_matrix,
    _pairwise_sq_dists,
    _validation_split,
)


def tiny_config(**overrides):
    base = dict(
        m=3, q=10, mode="dpkl", kernel_mode="exact", hidden_dims=(4,),
        latent_dim=2, activation="tanh", seed=7, max_epochs=5,
        early_stop_check_every=2,
    )
    base.update(overrides)
    return TrainConfig(**base)


def tiny_data(seed=0, n=6, n_unlabeled=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 3))
    y = rng.normal(size=n)
    Xu = rng.uniform(0, 1, size=(n_unlabeled, 3)) if n_unlabeled else None
    return TrainData(X, y, Xu)


def particle_d2(ens):
    return _pairwise_sq_dists(ens.flat())


class TestMedianHeuristic:
    def test_single_particle(self):
        ens = net.init_ensemble(net.MlpArchitecture(3, (4,), 2), 1, 0)
        assert median_heuristic(particle_d2(ens)) == 1.0

    def test_two_particles_closed_form(self):
        arch = net.MlpArchitecture(2, (), 2)
        ens = net.init_ensemble(arch, 2, 0)
        w = ens.flat()[0].copy()
        shift = np.zeros_like(w)
        shift[0] = 3.0  # distance exactly 3
        ens.flat()[1] = w + shift
        np.testing.assert_allclose(
            median_heuristic(particle_d2(ens)), 9.0 / np.log(3.0), rtol=1e-12
        )

    def test_collapsed_particles_keep_kappa_one(self):
        arch = net.MlpArchitecture(2, (), 2)
        ens = net.init_ensemble(arch, 3, 0)
        ens.flat()[:] = ens.flat()[0].copy()
        d2 = particle_d2(ens)
        h = median_heuristic(d2)
        assert h > 0
        assert np.all(_kappa_matrix(d2, h) == 1.0)


class TestKappa:
    def test_self_similarity(self):
        W = np.random.default_rng(0).normal(size=(4, 10))
        K = _kappa_matrix(_pairwise_sq_dists(W), 2.0)
        np.testing.assert_allclose(np.diag(K), 1.0, rtol=0, atol=1e-14)

    def test_unit_bandwidth_point(self):
        W = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0]])  # squared distance 3
        K = _kappa_matrix(_pairwise_sq_dists(W), 3.0)
        np.testing.assert_allclose(K[0, 1], np.exp(-1.0), rtol=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            K = _kappa_matrix(_pairwise_sq_dists(rng.normal(size=(5, 6))), 1.7)
            np.testing.assert_array_equal(K, K.T)


class TestPerParticleGrads:
    def test_duplicate_particles_share_gradient(self):
        cfg = tiny_config()
        data = tiny_data()
        arch = cfg.architecture(3)
        ens = net.init_ensemble(arch, 3, 42)
        ens.flat()[1] = ens.flat()[0]
        grads = per_particle_loss_grads(ens, data, cfg)
        np.testing.assert_allclose(grads[0], grads[1], atol=1e-12)

    def test_alpha_zero_matches_supervised_up_to_scaling(self):
        data = tiny_data(n=6, n_unlabeled=4)
        cfg_ss = tiny_config(mode="ssdpkl", ssdpkl_alpha=0.0)
        cfg_sup = tiny_config(mode="dpkl")
        ens = net.init_ensemble(cfg_ss.architecture(3), 3, 1)
        g_ss = per_particle_loss_grads(ens, data, cfg_ss)
        g_sup = per_particle_loss_grads(ens, TrainData(data.X, data.y), cfg_sup)
        for a, b in zip(g_ss, g_sup):
            np.testing.assert_allclose(a, b / 6.0, atol=1e-12)

    @pytest.mark.parametrize("kernel_mode", ["exact", "rff"])
    @pytest.mark.parametrize("mode", ["dpkl", "dkl"])
    def test_supervised_modes_run_on_an_empty_pool(self, mode, kernel_mode):
        # dpkl and dkl are ssdpkl's algebra on an empty pool: a pool in the data
        # changes no bit of the gradient, and the objective is the NLL itself
        cfg = tiny_config(mode=mode, kernel_mode=kernel_mode, m=1 if mode == "dkl" else 3)
        data = tiny_data(n_unlabeled=4)
        ens = net.init_ensemble(cfg.architecture(3), cfg.m, 5)
        basis = trainer._rff_basis_for(cfg) if kernel_mode == "rff" else None
        pooled = trainer._objective_core(ens, data, cfg, basis)
        bare = trainer._objective_core(ens, TrainData(data.X, data.y), cfg, basis)
        assert pooled.grads.tobytes() == bare.grads.tobytes()
        assert pooled.objective == pooled.nll and bare.objective == bare.nll

    @pytest.mark.parametrize("kernel_mode", ["exact", "rff"])
    def test_matches_finite_differences(self, kernel_mode):
        cfg = tiny_config(kernel_mode=kernel_mode)
        data = tiny_data()
        ens = net.init_ensemble(cfg.architecture(3), cfg.m, 42)
        grads = per_particle_loss_grads(ens, data, cfg)
        for l in range(cfg.m):
            numeric = particle_fd_gradient(
                ens, l, lambda: objective_value(ens, data, cfg)
            )
            assert rel_err(grads[l], numeric) < 1e-6

    def test_ssdpkl_needs_unlabeled_pool(self):
        # rejected up front, even when no epoch would run the objective
        with pytest.raises(EmptyUnlabeledSet):
            fit(tiny_data(), tiny_config(mode="ssdpkl", max_epochs=0))


class TestRffPoolGrams:
    """The rff route's pool terms as q x q Grams, against the dense n_l x n_u
    algebra they replaced (``helpers.rff_objective_dense_pool``)."""

    def core_and_oracle(self, cfg, data, seed=21):
        ens = net.init_ensemble(cfg.architecture(3), cfg.m, seed)
        basis = trainer._rff_basis_for(cfg)
        return (trainer._objective_core(ens, data, cfg, basis),
                rff_objective_dense_pool(ens, data, cfg, basis))

    # q = 10 throughout: labeled rows below and above it, a one-row pool and one past q
    @pytest.mark.parametrize("n_l, n_u", [(6, 1), (6, 25), (15, 1), (15, 25)])
    def test_matches_dense_oracle(self, n_l, n_u):
        cfg = tiny_config(mode="ssdpkl", kernel_mode="rff", q=10)
        got, (objective, nll, grads) = self.core_and_oracle(cfg, tiny_data(n=n_l, n_unlabeled=n_u))
        assert got.nll == nll  # the labeled Cholesky is untouched
        np.testing.assert_allclose(got.objective, objective, rtol=1e-12)
        # with an absolute floor of 1e-12 of the largest entry, for entries whose terms cancel
        np.testing.assert_allclose(got.grads, grads, rtol=1e-12, atol=1e-12 * np.abs(grads).max())

    @pytest.mark.parametrize("mode", ["dpkl", "dkl"])
    @pytest.mark.parametrize("n_l", [6, 15])
    def test_empty_pool_is_bitwise(self, mode, n_l):
        cfg = tiny_config(mode=mode, kernel_mode="rff", m=1 if mode == "dkl" else 3)
        got, (objective, nll, grads) = self.core_and_oracle(cfg, tiny_data(n=n_l, n_unlabeled=4))
        assert got.objective == objective == nll == got.nll
        assert got.grads.tobytes() == grads.tobytes()

    def test_matches_finite_differences_past_q(self):
        # labeled rows and pool rows both outnumber the q = 5 features
        cfg = tiny_config(mode="ssdpkl", kernel_mode="rff", q=5, m=2)
        data = tiny_data(seed=3, n=9, n_unlabeled=8)
        ens = net.init_ensemble(cfg.architecture(3), cfg.m, 42)
        grads = per_particle_loss_grads(ens, data, cfg)
        for l in range(cfg.m):
            numeric = particle_fd_gradient(ens, l, lambda: objective_value(ens, data, cfg))
            assert rel_err(grads[l], numeric) < 1e-6

    @pytest.mark.parametrize("sines", ["kept", "rebuilt"])
    @pytest.mark.parametrize("n_l, n_u", [(6, 25), (15, 1)])
    def test_close_to_libm_trig(self, monkeypatch, sines, n_l, n_u):
        # the objective on _sincos against the same objective on np.cos and
        # np.sin, at rtol 1e-12 with the gradient's absolute floor; the VJPs
        # keep R's sines, or rebuild them one particle at a time
        if sines == "rebuilt":
            monkeypatch.setattr(kernels, "_TRIG_ENTRIES", 1)
        cfg = tiny_config(mode="ssdpkl", kernel_mode="rff", q=10)
        data = tiny_data(n=n_l, n_unlabeled=n_u)
        ens = net.init_ensemble(cfg.architecture(3), cfg.m, 24)
        basis = trainer._rff_basis_for(cfg)
        got = trainer._objective_core(ens, data, cfg, basis)
        monkeypatch.setattr(kernels, "_sincos", libm_sincos)
        want = trainer._objective_core(ens, data, cfg, basis)
        np.testing.assert_allclose(got.objective, want.objective, rtol=1e-12)
        np.testing.assert_allclose(got.nll, want.nll, rtol=1e-12)
        np.testing.assert_allclose(got.grads, want.grads, rtol=1e-12,
                                   atol=1e-12 * np.abs(want.grads).max())
        assert got.grads.tobytes() != want.grads.tobytes()  # the trig did change

    def test_pool_memory_is_linear_in_rows(self):
        # n_l x n_u arrays at 300 x 20 000 would take 48 MB each; the Gram
        # algebra holds O((n_l + n_u) q) features, cotangents and MLP passes
        cfg = TrainConfig(m=2, q=20, mode="ssdpkl", kernel_mode="rff", hidden_dims=(6,))
        rng = np.random.default_rng(22)
        data = TrainData(rng.uniform(size=(300, 3)), rng.normal(size=300),
                         rng.uniform(size=(20_000, 3)))
        ens = net.init_ensemble(cfg.architecture(3), cfg.m, 23)
        basis = trainer._rff_basis_for(cfg)
        tracemalloc.start()
        try:
            trainer._objective_core(ens, data, cfg, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


def assert_matches_whole_batch(got, want):
    """The streamed objective against the whole-batch oracle at rtol 1e-12, the
    gradient with an absolute floor of 1e-12 of its largest entry, as in
    TestRffPoolGrams."""
    np.testing.assert_allclose(got.objective, want.objective, rtol=1e-12)
    np.testing.assert_allclose(got.nll, want.nll, rtol=1e-12)
    np.testing.assert_allclose(got.grads, want.grads, rtol=1e-12,
                               atol=1e-12 * np.abs(want.grads).max())


class TestStreamedPool:
    """_objective_core streams the pool in chunks after the labeled pass, on
    both kernel routes: close to the whole-batch objective it replaced
    (``helpers.objective_core_whole_batch``), at any chunk size, and the same
    bits at any worker count."""

    @staticmethod
    def core_and_oracle(cfg, data, seed=31):
        ens = net.init_ensemble(cfg.architecture(data.dim), cfg.m, seed)
        basis = trainer._rff_basis_for(cfg) if cfg.kernel_mode == "rff" else None
        return (trainer._objective_core(ens, data, cfg, basis),
                objective_core_whole_batch(ens, data, cfg, basis))

    @staticmethod
    def chunks_of(monkeypatch, rows, cfg, n_l, arch):
        """Force a pool chunk of ``rows`` rows through net._TRACE_ENTRIES."""
        per_row = max(cfg.m * net._width(arch), n_l, cfg.m**2)
        monkeypatch.setattr(net, "_TRACE_ENTRIES", rows * per_row)
        assert trainer._pool_chunk_rows(cfg, arch, n_l) == rows

    @pytest.mark.parametrize("kernel_mode", ["exact", "rff"])
    @pytest.mark.parametrize("n_l, n_u", [(6, 1), (6, 25), (15, 1), (15, 25)])
    def test_matches_whole_batch_oracle(self, kernel_mode, n_l, n_u):
        cfg = tiny_config(mode="ssdpkl", kernel_mode=kernel_mode, q=10)
        assert_matches_whole_batch(*self.core_and_oracle(cfg, tiny_data(n=n_l, n_unlabeled=n_u)))

    @pytest.mark.parametrize("kernel_mode", ["exact", "rff"])
    @pytest.mark.parametrize("mode", ["dpkl", "dkl"])
    def test_empty_pool_is_bitwise(self, kernel_mode, mode):
        cfg = tiny_config(mode=mode, kernel_mode=kernel_mode, m=1 if mode == "dkl" else 3)
        got, want = self.core_and_oracle(cfg, tiny_data(n=9, n_unlabeled=4))
        assert got.objective == want.objective == got.nll
        assert got.grads.tobytes() == want.grads.tobytes()

    @pytest.mark.parametrize("kernel_mode", ["exact", "rff"])
    @pytest.mark.parametrize("chunk", ["1", "g-1", "g", "g+1"])
    def test_any_chunk_size_matches_the_oracle(self, monkeypatch, kernel_mode, chunk):
        # a 10-row pool is two groups of g = 5 rows: chunks of 1 row, of 4 and
        # then 1, one whole group, and one chunk larger than the group
        cfg = tiny_config(mode="ssdpkl", kernel_mode=kernel_mode, q=10)
        data = tiny_data(n=6, n_unlabeled=10)
        rows = {"1": 1, "g-1": 4, "g": 5, "g+1": 6}[chunk]
        self.chunks_of(monkeypatch, rows, cfg, 6, cfg.architecture(3))
        forwarded, forward_vjp = [], net.forward_vjp
        monkeypatch.setattr(net, "forward_vjp",
                            lambda ens, X: forwarded.append(len(X)) or forward_vjp(ens, X))
        got, want = self.core_and_oracle(cfg, data)
        per_group = [rows] * (5 // rows) + ([5 % rows] if 5 % rows else [])
        assert forwarded == [6, *per_group * 2, 16]  # labeled, the chunks, the oracle's
        assert_matches_whole_batch(got, want)

    @pytest.mark.parametrize("kernel_mode", ["exact", "rff"])
    def test_paper_mlp_pool_of_several_chunks(self, kernel_mode):
        # the paper MLP at D = 8: 99-row chunks on the rff route, so a
        # 250-row pool is two groups of 125 rows, each a 99- and a 26-row chunk
        m = 50 if kernel_mode == "rff" else 6
        cfg = TrainConfig(m=m, q=100, mode="ssdpkl", kernel_mode=kernel_mode)
        rng = np.random.default_rng(32)
        data = TrainData(rng.uniform(size=(45, 8)), rng.normal(size=45),
                         rng.uniform(size=(250, 8)))
        if kernel_mode == "rff":
            assert trainer._pool_chunk_rows(cfg, cfg.architecture(8), 45) == 99
        assert_matches_whole_batch(*self.core_and_oracle(cfg, data))

    @pytest.mark.parametrize("kernel_mode", ["exact", "rff"])
    @pytest.mark.parametrize("n_u", [1, 10])
    def test_same_bits_at_any_worker_count(self, monkeypatch, kernel_mode, n_u):
        cfg = tiny_config(mode="ssdpkl", kernel_mode=kernel_mode, q=10)
        data = tiny_data(n=6, n_unlabeled=n_u)
        self.chunks_of(monkeypatch, 3, cfg, 6, cfg.architecture(3))
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
        ranges, split = [], trainer._split
        monkeypatch.setattr(trainer, "_split", lambda n, unit, fn: split(
            n, unit, lambda a, b: (ranges.append(threading.current_thread().name), fn(a, b))))
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(threads, "_WORKERS", workers)
            ranges.clear()
            got, want = self.core_and_oracle(cfg, data)
            results.append((got.objective, got.grads.tobytes()))
            # the groups run whole on the kernel workers, two of them here
            assert len(ranges) == (1 if workers == 1 else 2)
            assert workers == 1 or all(r.startswith("dpkl-kernel") for r in ranges)
            assert_matches_whole_batch(got, want)
        assert results[1:] == results[:1] * 2

    @pytest.mark.parametrize("kernel_mode", ["exact", "rff"])
    def test_many_workers_under_fast_switching(self, monkeypatch, kernel_mode):
        # more workers than cores and thread switches as often as possible: a
        # lost or torn write of a group's sums or gradient would show as a mismatch
        cfg = tiny_config(mode="ssdpkl", kernel_mode=kernel_mode, q=10)
        data = tiny_data(n=6, n_unlabeled=30)
        self.chunks_of(monkeypatch, 2, cfg, 6, cfg.architecture(3))
        ens = net.init_ensemble(cfg.architecture(3), cfg.m, 36)
        basis = trainer._rff_basis_for(cfg) if kernel_mode == "rff" else None
        monkeypatch.setattr(threads, "_WORKERS", 1)
        want = trainer._objective_core(ens, data, cfg, basis).grads.tobytes()
        monkeypatch.setattr(threads, "_WORKERS", 8)
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 2.0
            for _ in range(20):
                assert trainer._objective_core(ens, data, cfg, basis).grads.tobytes() == want
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(interval)

    def test_working_memory_is_flat_in_pool_rows(self):
        # one call at the paper MLP (m = 50, D = 8, 99-row chunks): every pool
        # array is a chunk's, so from 2 to 8 chunks of pool the peak moves by
        # under 1 MB (0.2-0.7 MB measured, with the worker timing); the
        # whole-batch objective, whose pool arrays grow with the rows, moved
        # 2.2 MB between the same pools
        cfg = TrainConfig(mode="ssdpkl", kernel_mode="rff")
        arch = cfg.architecture(8)
        ens = net.init_ensemble(arch, cfg.m, 33)
        basis = trainer._rff_basis_for(cfg)
        c, rng = trainer._pool_chunk_rows(cfg, arch, 45), np.random.default_rng(34)
        peaks = []
        for rows in (2 * c, 8 * c):
            data = TrainData(rng.uniform(size=(45, 8)), rng.normal(size=45),
                             rng.uniform(size=(rows, 8)))
            tracemalloc.start()
            try:
                trainer._objective_core(ens, data, cfg, basis)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 1e6

    def test_pool_pass_holds_no_gradient_scratch(self, monkeypatch):
        # the paper MLP at D = 8 on one worker, 45 labeled rows and two groups
        # of three 99-row chunks: one call's peak, less the arrays it must
        # hold at once, stays below one (m, P) array (1.6 of 3.4 MB measured),
        # so no chunk's VJP goes through an (m, P) scratch before it is added
        # into its group's sum (5.2 MB with one)
        monkeypatch.setattr(threads, "_WORKERS", 1)
        cfg = TrainConfig(mode="ssdpkl", kernel_mode="rff")
        arch = cfg.architecture(8)
        c, n_l = trainer._pool_chunk_rows(cfg, arch, 45), 45
        rng = np.random.default_rng(37)
        data = TrainData(rng.uniform(size=(n_l, 8)), rng.normal(size=n_l),
                         rng.uniform(size=(6 * c, 8)))
        ens = net.init_ensemble(arch, cfg.m, 38)
        basis = trainer._rff_basis_for(cfg)
        out = np.empty(ens.flat().shape)
        tracemalloc.start()
        try:
            trainer._objective_core(ens, data, cfg, basis, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_row = cfg.m * (sum(cfg.hidden_dims) + cfg.latent_dim + cfg.q) * 8  # trace and sines
        held = (n_l + c) * per_row + 2 * out.nbytes  # the labeled and a chunk's, two group sums
        assert peak - held < out.nbytes


def test_exact_ssdpkl_pool_memory_is_bounded_by_the_chunk():
    # exact ssdpkl, m = 2, one epoch, 300 labeled rows and a 20 000-row pool:
    # the dense (n_l + n_u)^2 Gram and cotangent would take 3.3 GB each; the
    # streamed pool stays under a 400 MB budget, interpreter and numpy included
    import dpkl

    src = str(Path(dpkl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = """
import resource
import numpy as np
from dpkl.trainer import TrainConfig, TrainData, fit
rng = np.random.default_rng(35)
data = TrainData(rng.uniform(size=(300, 3)), rng.normal(size=300), rng.uniform(size=(20000, 3)))
cfg = TrainConfig(m=2, q=10, mode="ssdpkl", kernel_mode="exact", hidden_dims=(6,), max_epochs=1)
_, report = fit(data, cfg)
assert np.isfinite(report.final_objective)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) * 1024 < 400e6  # ru_maxrss is in KB on Linux


class TestFunctionalGradientStep:
    def test_zero_gradients_leave_ensemble_fixed(self):
        cfg = tiny_config()
        ens = net.init_ensemble(cfg.architecture(3), 3, 0)
        before = ens.flat().copy()
        opt = AdamState.zeros(*before.shape)
        functional_gradient_step(ens.flat(), np.zeros_like(before), opt, cfg)
        np.testing.assert_array_equal(ens.flat(), before)

    def test_step_moves_the_particle_views_in_place(self):
        cfg = tiny_config()
        ens = net.init_ensemble(cfg.architecture(3), 3, 1)
        X = np.random.default_rng(2).uniform(size=(4, 3))
        before = net.ensemble_embeddings(ens, X)
        W = ens.flat()
        G = np.random.default_rng(3).normal(size=W.shape)
        functional_gradient_step(W, G, AdamState.zeros(*W.shape), cfg)
        assert W is ens.flat()
        after = net.ensemble_embeddings(ens, X)
        for Z, Z_new in zip(before, after):
            assert not np.array_equal(Z_new, Z)

    def test_single_particle_is_plain_adam(self):
        cfg = tiny_config(m=1)
        arch = cfg.architecture(3)
        ens = net.init_ensemble(arch, 1, 5)
        w = ens.flat()[0].copy()
        rng = np.random.default_rng(6)
        grad_seq = [rng.normal(size=w.size) for _ in range(4)]

        opt = AdamState.zeros(1, w.size)
        for g in grad_seq:
            functional_gradient_step(ens.flat(), g[None, :], opt, cfg)

        m1 = np.zeros_like(w)
        v1 = np.zeros_like(w)
        ref = w.copy()
        for t, g in enumerate(grad_seq, start=1):
            m1 = 0.9 * m1 + 0.1 * g
            v1 = 0.999 * v1 + 0.001 * g * g
            ref -= cfg.learning_rate * (m1 / (1 - 0.9**t)) / (
                np.sqrt(v1 / (1 - 0.999**t)) + 1e-8
            )
        np.testing.assert_allclose(ens.flat()[0], ref, rtol=1e-12, atol=1e-15)

    def test_distant_particles_decouple(self, monkeypatch):
        # fixed small bandwidth makes kappa vanish between far-apart particles,
        # so the coupled update must match two independent single-particle runs
        monkeypatch.setattr(trainer, "median_heuristic", lambda d2: 1.0)
        cfg2 = tiny_config(m=2)
        arch = cfg2.architecture(3)
        ens = net.init_ensemble(arch, 2, 8)
        ens.flat()[1] = ens.flat()[0] + 100.0
        flats = ens.flat().copy()
        G = np.random.default_rng(9).normal(size=flats.shape)

        opt = AdamState.zeros(*flats.shape)
        functional_gradient_step(ens.flat(), G, opt, cfg2)

        cfg1 = tiny_config(m=1)
        for i in range(2):
            solo = flats[i : i + 1].copy()
            opt1 = AdamState.zeros(*solo.shape)
            functional_gradient_step(solo, G[i : i + 1], opt1, cfg1)
            np.testing.assert_allclose(ens.flat()[i], solo[0], atol=1e-6)

    def test_far_particles_give_no_subnormal_kappa(self, monkeypatch):
        # squared distance 720 at bandwidth 1: exp(-720) is subnormal
        monkeypatch.setattr(trainer, "median_heuristic", lambda d2: 1.0)
        cfg = tiny_config(m=3)
        arch = cfg.architecture(3)
        ens = net.init_ensemble(arch, 3, 8)
        W = ens.flat()
        shift = np.zeros(W.shape[1])
        shift[0] = np.sqrt(720.0)
        W[1] = W[0] + shift
        W[2] = W[0] + 2 * shift
        seen, kappa_matrix = [], trainer._kappa_matrix
        monkeypatch.setattr(
            trainer, "_kappa_matrix", lambda d2, h: seen.append(kappa_matrix(d2, h)) or seen[-1]
        )
        functional_gradient_step(W, np.ones_like(W), AdamState.zeros(*W.shape), cfg)
        (K,) = seen
        assert not np.any((K != 0.0) & (np.abs(K) < np.finfo(float).tiny))
        np.testing.assert_allclose(K, np.eye(3), rtol=0, atol=1e-12)

    def test_distances_computed_once_per_step(self, monkeypatch):
        cfg = tiny_config()
        ens = net.init_ensemble(cfg.architecture(3), 3, 4)
        W = ens.flat()
        calls, pairwise = [], trainer._pairwise_sq_dists
        monkeypatch.setattr(
            trainer, "_pairwise_sq_dists", lambda flat: calls.append(1) or pairwise(flat)
        )
        functional_gradient_step(W, np.ones_like(W), AdamState.zeros(*W.shape), cfg)
        assert len(calls) == 1

    def test_particle_permutation_equivariance(self):
        cfg = tiny_config()
        arch = cfg.architecture(3)
        ens_a = net.init_ensemble(arch, 3, 12)
        ens_b = net.ParticleEnsemble(arch, ens_a.flat().copy(), ens_a.seed)
        perm = [2, 0, 1]
        ens_b.flat()[:] = ens_b.flat()[perm]
        G = np.random.default_rng(13).normal(size=ens_a.flat().shape)
        functional_gradient_step(ens_a.flat(), G, AdamState.zeros(*G.shape), cfg)
        functional_gradient_step(ens_b.flat(), G[perm], AdamState.zeros(*G.shape), cfg)
        for out_pos, src in enumerate(perm):
            np.testing.assert_allclose(
                ens_b.flat()[out_pos],
                ens_a.flat()[src],
                atol=1e-12,
            )

    def test_gradient_shape_mismatch_rejected(self):
        W = np.zeros((3, 5))
        with pytest.raises(ValueError):
            functional_gradient_step(W, np.zeros((3, 4)), AdamState.zeros(3, 5), tiny_config())


def assert_same_step_state(W, opt, W_ref, opt_ref):
    np.testing.assert_array_equal(W, W_ref)
    np.testing.assert_array_equal(opt.m1, opt_ref.m1)
    np.testing.assert_array_equal(opt.m2, opt_ref.m2)
    assert opt.t == opt_ref.t
    assert opt.last_bandwidth == opt_ref.last_bandwidth


class TestChunkedUpdate:
    """The chunked in-place Adam pass reproduces the unblocked oracle bit for bit."""

    def run_against_oracle(self, W, cfg, steps=4, seed=0):
        rng = np.random.default_rng(seed)
        W_ref = W.copy()
        opt, opt_ref = AdamState.zeros(*W.shape), AdamState.zeros(*W.shape)
        for k in range(steps):
            G = rng.normal(size=W.shape) * 10.0 ** (k - 2)
            functional_gradient_step(W, G, opt, cfg)
            functional_gradient_step_unblocked(W_ref, G, opt_ref, cfg)
            assert_same_step_state(W, opt, W_ref, opt_ref)

    # P = 26 here: a chunk of 7 leaves a ragged last column chunk (26 = 3 * 7 + 5),
    # a chunk of 60 takes two whole rows and leaves a ragged last row block.
    @pytest.mark.parametrize("chunk", [1, 7, 60, None])
    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_unblocked_oracle(self, monkeypatch, chunk, m):
        if chunk is not None:
            monkeypatch.setattr(trainer, "_ADAM_CHUNK", chunk)
        cfg = tiny_config(m=m)
        W = net.init_ensemble(cfg.architecture(3), m, 11).flat()
        assert W.shape == (m, 26)
        self.run_against_oracle(W, cfg)

    @pytest.mark.parametrize("chunk", [7, None])
    def test_non_contiguous_view_updated_in_place(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(trainer, "_ADAM_CHUNK", chunk)
        wide = np.random.default_rng(3).normal(size=(3, 40))
        before = wide.copy()
        W = wide[:, 5:31]
        assert not W.flags.c_contiguous
        self.run_against_oracle(W, tiny_config())  # checks the view, so the writes land in wide
        assert not np.array_equal(wide[:, 5:31], before[:, 5:31])
        np.testing.assert_array_equal(wide[:, :5], before[:, :5])
        np.testing.assert_array_equal(wide[:, 31:], before[:, 31:])

    @pytest.mark.parametrize("chunk", [7, None])
    def test_classifier_joint_matrix(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(trainer, "_ADAM_CHUNK", chunk)
        shapes, shadow = [], {}

        def checked_step(W, G, opt, config):
            if not shadow:
                shadow["W"], shadow["opt"] = W.copy(), AdamState.zeros(*W.shape)
            functional_gradient_step_unblocked(shadow["W"], G, shadow["opt"], config)
            functional_gradient_step(W, G, opt, config)
            assert_same_step_state(W, opt, shadow["W"], shadow["opt"])
            shapes.append(W.shape)

        monkeypatch.setattr(classify, "functional_gradient_step", checked_step)
        ds = synth_blobs(C=3, n_per_class=8, d_in=3, separation=4.0, seed=0)
        cfg = tiny_config(m=3, max_epochs=2, batch_size=8)
        classify.fit_classifier(TrainData(ds.X, ds.y), cfg)
        assert len(shapes) == 2 * 3  # 21 training rows in batches of 8
        assert set(shapes) == {(3, 26 + 3 * 2)}  # (m, P + C * d)


class TestTextbookOracle:
    """The step in its own algebra against textbook Adam with row-sum norms."""

    def test_paper_size_ensemble_agrees_over_200_steps(self):
        cfg = TrainConfig()  # the paper's m = 50 and MLP (100, 50, 50)
        W = net.init_ensemble(cfg.architecture(1), cfg.m, 3).flat()
        assert W.shape == (50, 7902)
        W0, W_ref = W.copy(), W.copy()
        opt, opt_ref = AdamState.zeros(*W.shape), AdamState.zeros(*W.shape)
        rng = np.random.default_rng(4)
        grads = [rng.normal(size=W.shape) * scale for scale in (1e-3, 1.0, 1e3)]
        for k in range(200):
            G = grads[k % 3] * (1.0 + k / 200)
            functional_gradient_step(W, G, opt, cfg)
            functional_gradient_step_textbook(W_ref, G, opt_ref, cfg)
            assert opt.last_bandwidth == pytest.approx(opt_ref.last_bandwidth, rel=1e-12)
        # rtol 1e-12, set before measuring: the two algebras round differently,
        # about 1e-15 of the distance the particles moved
        assert rel_err(W - W0, W_ref - W0) < 1e-12
        assert rel_err(opt.m1, opt_ref.m1) < 1e-12
        assert rel_err(opt.m2, opt_ref.m2) < 1e-12


class TestStepGuards:
    def stepped_state(self):
        rng = np.random.default_rng(30)
        W, opt, cfg = rng.normal(size=(3, 26)), AdamState.zeros(3, 26), tiny_config()
        functional_gradient_step(W, rng.normal(size=W.shape), opt, cfg)
        return W, opt, cfg

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_moves_nothing(self, bad):
        W, opt, cfg = self.stepped_state()
        before = W.copy(), opt.m1.copy(), opt.m2.copy()
        G = np.ones_like(W)
        G[2, 5] = bad
        with pytest.raises(InternalConsistencyError, match="non-finite gradient at step 2"):
            functional_gradient_step(W, G, opt, cfg)
        for now, then in zip((W, opt.m1, opt.m2), before):
            np.testing.assert_array_equal(now, then)

    def test_finite_gradient_with_overflowing_norm_takes_the_step(self):
        # every entry is finite, but the squared norm is 78 * 1e400
        W, opt, cfg = self.stepped_state()
        with np.errstate(over="ignore"):
            functional_gradient_step(W, np.full_like(W, 1e200), opt, cfg)
        assert opt.t == 2
        assert np.all(np.isfinite(W))
        assert opt.last_grad_norm == math.inf

    def test_pairwise_distances_are_symmetric_with_a_zero_diagonal(self):
        # large norms against small distances: a norm from another summation
        # order than the Gram diagonal's would leave a non-zero diagonal
        W = 3.0 + np.random.default_rng(31).normal(size=(6, 1000))
        d2 = _pairwise_sq_dists(W)
        np.testing.assert_array_equal(d2, d2.T)
        np.testing.assert_array_equal(np.diag(d2), 0.0)
        assert np.all(d2 >= 0.0)
        brute = ((W[:, None, :] - W[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(d2, brute, rtol=1e-10)


class TestKappaDiagnostic:
    def kappa_offdiag_after_step(self, W, cfg):
        opt = AdamState.zeros(*W.shape)
        functional_gradient_step(W, np.ones_like(W), opt, cfg)
        return opt.last_kappa_offdiag_mean

    def test_coincident_particles_give_one(self):
        # every entry is exact in binary, so the distances are exactly 0
        W = np.full((3, 26), 0.25)
        assert self.kappa_offdiag_after_step(W, tiny_config()) == 1.0

    def test_far_apart_particles_give_zero(self, monkeypatch):
        monkeypatch.setattr(trainer, "median_heuristic", lambda d2: 1.0)
        W = np.zeros((3, 26))
        W[1, 0], W[2, 0] = 100.0, 200.0
        assert self.kappa_offdiag_after_step(W, tiny_config()) == 0.0

    def test_single_particle_has_none(self):
        assert self.kappa_offdiag_after_step(np.zeros((1, 26)), tiny_config(m=1)) is None

    def test_recorded_per_epoch(self):
        _, report = fit(tiny_data(), tiny_config())
        values = [e.kappa_offdiag_mean for e in report.epochs]
        assert len(values) == 5 and all(0.0 < v <= 1.0 for v in values)
        assert report.to_dict()["epochs"][0]["kappa_offdiag_mean"] == values[0]
        _, report = fit(tiny_data(), tiny_config(m=1, mode="dkl"))
        assert all(e.kappa_offdiag_mean is None for e in report.epochs)
        ds = synth_blobs(C=2, n_per_class=8, d_in=2, separation=4.0, seed=0)
        _, _, report = classify.fit_classifier(TrainData(ds.X, ds.y), tiny_config(max_epochs=2))
        assert all(0.0 < e.kappa_offdiag_mean <= 1.0 for e in report.epochs)


class TestStepDiagnostics:
    """Gradient norms per step and the smallest Cholesky pivot per epoch."""

    def test_norms_of_raw_and_mixed_gradients(self):
        rng = np.random.default_rng(20)
        W, G = rng.normal(size=(4, 26)), rng.normal(size=(4, 26))
        mixed = _kappa_matrix(_pairwise_sq_dists(W), median_heuristic(_pairwise_sq_dists(W))) @ G
        opt = AdamState.zeros(*W.shape)
        functional_gradient_step(W, G, opt, tiny_config(m=4))
        assert opt.last_grad_norm == pytest.approx(np.linalg.norm(G), rel=1e-13)
        assert opt.last_mixed_grad_norm == pytest.approx(np.linalg.norm(mixed), rel=1e-13)
        assert opt.last_mixed_grad_norm > opt.last_grad_norm  # kappa adds neighbours' pulls

    @pytest.mark.parametrize("overrides", [
        dict(), dict(kernel_mode="rff"), dict(m=1, mode="dkl"),
    ])
    def test_recorded_per_epoch_by_fit(self, overrides):
        cfg = tiny_config(**overrides)
        _, report = fit(tiny_data(n=8), cfg)
        records = report.to_dict()["epochs"]
        assert len(records) == cfg.max_epochs
        for e, rec in zip(report.epochs, records):
            assert e.grad_norm > 0.0 and e.mixed_grad_norm > 0.0
            if cfg.m == 1:  # kappa is exactly 1: mixing changes nothing
                assert e.mixed_grad_norm == pytest.approx(e.grad_norm, rel=1e-13)
            # every pivot of chol(K + noise I) is at least sqrt(noise_var)
            assert math.sqrt(cfg.noise_var) * (1 - 1e-9) <= e.chol_min_diag
            assert e.chol_min_diag <= math.sqrt(2 * cfg.amplitude + cfg.noise_var + 1e-6)
            for key in ("grad_norm", "mixed_grad_norm", "chol_min_diag"):
                assert rec[key] == getattr(e, key)

    def test_recorded_per_epoch_by_fit_classifier(self):
        ds = synth_blobs(C=2, n_per_class=8, d_in=2, separation=4.0, seed=0)
        _, _, report = classify.fit_classifier(TrainData(ds.X, ds.y), tiny_config(max_epochs=2))
        for rec in report.to_dict()["epochs"]:
            assert rec["grad_norm"] > 0.0 and rec["mixed_grad_norm"] > 0.0
            assert rec["chol_min_diag"] is None


class TestNonFinite:
    def test_non_finite_gradient_names_stage_and_step(self):
        W = np.zeros((2, 4))
        G = np.ones_like(W)
        G[1, 2] = np.nan
        opt = AdamState.zeros(*W.shape)
        opt.t = 6
        with pytest.raises(InternalConsistencyError, match="gradient at step 7"):
            functional_gradient_step(W, G, opt, tiny_config(m=2))

    def test_overflowing_update_is_caught(self):
        # finite gradients whose kappa-mixed sum overflows to inf
        W = np.zeros((3, 4))
        G = np.full_like(W, 1e308)
        with np.errstate(all="ignore"), pytest.raises(
            InternalConsistencyError, match="particle update at step 1"
        ):
            functional_gradient_step(W, G, AdamState.zeros(*W.shape), tiny_config())

    @pytest.mark.parametrize("kernel_mode", ["exact", "rff"])
    def test_fit_with_huge_labels_raises(self, kernel_mode):
        # y ~ 1e200 makes y^T A^-1 y overflow; the run must not end as a
        # "success" at best_epoch 0 with a nan objective
        ds = synth_regression("sine", n=30, D=1, noise_std=0.1, seed=0)
        cfg = TrainConfig(m=3, q=10, max_epochs=4, hidden_dims=(8,), kernel_mode=kernel_mode)
        with np.errstate(all="ignore"), pytest.raises(
            InternalConsistencyError, match="objective at step 1"
        ):
            fit(TrainData(ds.X, ds.y * 1e200), cfg)


class TestNonFiniteValidation:
    def test_non_finite_validation_metric_raises(self):
        # rff features of huge inputs stay finite, the exact-kernel validation does not
        ds = synth_regression("sine", n=30, D=1, noise_std=0.1, seed=0)
        cfg = TrainConfig(m=3, q=10, max_epochs=4, hidden_dims=(8,), kernel_mode="rff")
        with np.errstate(all="ignore"), pytest.raises(
            InternalConsistencyError, match="validation metric at step 4"
        ):
            fit(TrainData(ds.X * 1e200, ds.y), cfg)

    def test_non_finite_epoch_zero_metric_raises(self):
        ds = synth_regression("sine", n=30, D=1, noise_std=0.1, seed=0)
        cfg = TrainConfig(m=3, q=10, max_epochs=0, hidden_dims=(8,))
        with np.errstate(all="ignore"), pytest.raises(
            InternalConsistencyError, match="validation metric at step 0"
        ):
            fit(TrainData(ds.X * 1e200, ds.y), cfg)


class TestFinalLoss:
    """fit ends at its last epoch: one objective pass per epoch, none after, and
    the final loss is the last epoch's record for both trainers."""

    @pytest.mark.parametrize("mode, kernel_mode", [
        ("dpkl", "rff"), ("dpkl", "exact"), ("ssdpkl", "rff"), ("ssdpkl", "exact"),
    ])
    def test_one_objective_pass_per_epoch(self, monkeypatch, mode, kernel_mode):
        calls, core = [], trainer._objective_core

        def counted(*args, **kwargs):
            calls.append(None)
            return core(*args, **kwargs)

        monkeypatch.setattr(trainer, "_objective_core", counted)
        cfg = tiny_config(mode=mode, kernel_mode=kernel_mode, max_epochs=4)
        fit(tiny_data(n_unlabeled=4 if mode == "ssdpkl" else 0), cfg)
        assert len(calls) == cfg.max_epochs

    @pytest.mark.parametrize("mode", ["dpkl", "ssdpkl"])
    def test_fit_reports_the_last_epoch(self, mode):
        _, report = fit(tiny_data(n_unlabeled=4), tiny_config(mode=mode))
        last = report.epochs[-1]
        assert report.final_train_nll == last.train_nll
        assert report.final_objective == last.objective
        if mode == "ssdpkl":  # the two differ, so neither stands in for the other
            assert report.final_objective != report.final_train_nll

    def test_fit_classifier_reports_the_last_epoch(self):
        ds = synth_blobs(C=2, n_per_class=8, d_in=2, separation=4.0, seed=0)
        _, _, report = classify.fit_classifier(TrainData(ds.X, ds.y), tiny_config(max_epochs=2))
        assert report.final_train_nll == report.epochs[-1].train_nll
        assert report.final_objective == report.epochs[-1].objective


class TestFit:
    def sine_data(self, seed=0, n=50):
        ds = synth_regression("sine", n=n, D=1, noise_std=0.1, seed=seed)
        return TrainData(ds.X, ds.y)

    def test_loss_decreases_on_sine(self):
        cfg = TrainConfig(m=5, q=30, max_epochs=30, seed=3, hidden_dims=(16,))
        _, report = fit(self.sine_data(), cfg)
        assert report.final_train_nll < report.epochs[0].train_nll

    def test_zero_epochs_returns_initialized_ensemble(self):
        cfg = TrainConfig(m=3, max_epochs=0, seed=4, hidden_dims=(8,))
        data = self.sine_data()
        ensemble, report = fit(data, cfg)
        seeds = derive_seeds(cfg.seed)
        fresh = net.init_ensemble(cfg.architecture(1), 3, seeds["init"])
        np.testing.assert_array_equal(ensemble.flat(), fresh.flat())
        assert report.epochs == []
        assert report.final_train_nll is None and report.final_objective is None

    def test_deterministic_given_seed(self):
        cfg = TrainConfig(m=3, q=20, max_epochs=8, seed=5, hidden_dims=(8,))
        e1, r1 = fit(self.sine_data(), cfg)
        e2, r2 = fit(self.sine_data(), cfg)
        np.testing.assert_array_equal(e1.flat(), e2.flat())
        assert [e.train_nll for e in r1.epochs] == [e.train_nll for e in r2.epochs]
        assert r1.best_epoch == r2.best_epoch

    def test_dkl_equals_single_particle_dpkl(self):
        data = self.sine_data()
        trajectories = {}
        for mode in ("dpkl", "dkl"):
            cfg = TrainConfig(m=1, q=20, max_epochs=10, seed=6, hidden_dims=(8,), mode=mode)
            snaps = []
            fit(data, cfg, trajectory_hook=lambda e, ens: snaps.append(ens.flat().copy()))
            trajectories[mode] = snaps
        assert len(trajectories["dpkl"]) == len(trajectories["dkl"]) == 11
        for a, b in zip(trajectories["dpkl"], trajectories["dkl"]):
            np.testing.assert_array_equal(a, b)

    def test_best_snapshot_is_not_moved_by_later_steps(self):
        # the step updates the live particle matrix in place; the returned
        # best-validation snapshot must be a copy taken at its epoch
        cfg = TrainConfig(m=3, q=20, max_epochs=9, seed=3, hidden_dims=(8,),
                          early_stop_check_every=3, learning_rate=0.05)
        snaps, live = [], {}

        def hook(epoch, ens):
            snaps.append(ens.flat().copy())
            live["ens"] = ens

        best, report = fit(self.sine_data(), cfg, trajectory_hook=hook)
        assert 0 < report.best_epoch < cfg.max_epochs
        np.testing.assert_array_equal(best.flat(), snaps[report.best_epoch])
        assert not np.array_equal(best.flat(), live["ens"].flat())
        assert not np.shares_memory(best.flat(), live["ens"].flat())

    def test_early_stop_never_worse_than_epoch_zero(self):
        from dpkl.trainer import predict_regression, predictive_nll

        data = self.sine_data(seed=9)
        cfg = TrainConfig(m=3, q=20, max_epochs=12, seed=9, hidden_dims=(8,),
                          early_stop_check_every=3)
        ensemble, report = fit(data, cfg)
        seeds = derive_seeds(cfg.seed)
        tr, va = _validation_split(data.X.shape[0], cfg.val_fraction, seeds["val_split"])

        def metric(ens):
            means, variances = predict_regression(
                ens, cfg.kernel_spec(), data.X[tr], data.y[tr], data.X[va], cfg.noise_var
            )
            return predictive_nll(means, variances, data.y[va], cfg.noise_var)

        fresh = net.init_ensemble(cfg.architecture(1), cfg.m, seeds["init"])
        assert metric(ensemble) <= metric(fresh) + 1e-12

    def test_ssdpkl_runs_and_uses_pool(self):
        rng = np.random.default_rng(10)
        data = TrainData(
            rng.uniform(0, 1, (20, 1)),
            rng.normal(size=20),
            rng.uniform(0, 1, (15, 1)),
        )
        cfg = TrainConfig(m=2, q=10, max_epochs=4, seed=11, hidden_dims=(6,), mode="ssdpkl")
        _, report = fit(data, cfg)
        assert len(report.epochs) == 4

    @pytest.mark.parametrize("max_epochs", [0, 2])
    def test_unlabeled_cap_bounds_every_forward_pass(self, monkeypatch, max_epochs):
        rng = np.random.default_rng(14)
        n_l, cap = 12, 5
        data = TrainData(
            rng.uniform(0, 1, (n_l, 1)), rng.normal(size=n_l), rng.uniform(0, 1, (40, 1))
        )
        cfg = TrainConfig(m=2, q=10, max_epochs=max_epochs, seed=15, hidden_dims=(6,),
                          mode="ssdpkl", unlabeled_cap=cap)
        rows = []
        forward_group = net.forward_group
        monkeypatch.setattr(
            net, "forward_group",
            lambda arch, W, X, *bufs: rows.append(len(X)) or forward_group(arch, W, X, *bufs),
        )
        fit(data, cfg)
        assert rows and max(rows) <= n_l + cap

    def test_ssdpkl_without_pool_rejected(self):
        cfg = TrainConfig(m=2, max_epochs=2, mode="ssdpkl", hidden_dims=(6,))
        with pytest.raises(EmptyUnlabeledSet):
            fit(self.sine_data(), cfg)

    def test_insufficient_labeled_data(self):
        rng = np.random.default_rng(12)
        data = TrainData(rng.normal(size=(2, 1)), rng.normal(size=2))
        with pytest.raises(InsufficientData):
            fit(data, TrainConfig(m=1, hidden_dims=(4,)))


class TestConfigValidation:
    def test_dkl_forces_single_particle(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="dkl", m=5).validate()

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="banana").validate()

    def test_bad_val_fraction(self):
        with pytest.raises(ConfigError):
            TrainConfig(val_fraction=1.5).validate()

    def test_defaults_are_valid(self):
        TrainConfig().validate()

    @pytest.mark.parametrize("field, value", [("unlabeled_cap", 0), ("batch_size", 0)])
    def test_bad_size_or_kappa_bandwidth(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field, value", [("latent_dim", 0), ("hidden_dims", (4, -2)),
                                              ("activation", "swish")],
                             ids=["latent_dim", "hidden_dims", "activation"])
    def test_bad_mlp_shape_or_activation(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value}).validate()

    def test_empty_hidden_dims_is_a_linear_map(self):
        TrainConfig(hidden_dims=()).validate()

    @pytest.mark.parametrize("field", ["amplitude", "bandwidth"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_kernel_scales_must_be_positive(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be positive"):
            TrainConfig(**{field: value}).validate()

    def test_ssdpkl_alpha_must_not_be_negative(self):
        # a negative weight would reward pool posterior variance; 0 drops the term
        with pytest.raises(ConfigError, match="ssdpkl_alpha must be >= 0"):
            TrainConfig(mode="ssdpkl", ssdpkl_alpha=-1.0).validate()
        TrainConfig(mode="ssdpkl", ssdpkl_alpha=0.0).validate()


FITS = [
    # TrainData raises as it is built, before either fit is called
    pytest.param(lambda data: data, id="construction"),
    pytest.param(lambda data: fit(data, tiny_config(max_epochs=1)), id="fit"),
    pytest.param(lambda data: classify.fit_classifier(data, tiny_config(max_epochs=1)),
                 id="fit_classifier"),
]


def labeled_rows(n=30):
    """Inputs and 0/1 targets that both fits accept."""
    return np.random.default_rng(3).uniform(size=(n, 3)), np.arange(n) % 2


@pytest.mark.parametrize("fit_fn", FITS)
class TestInputChecks:
    """TrainData, and so both fits, reject mismatched or non-finite input before
    training, as user errors."""

    @pytest.mark.parametrize("n_x, n_y", [(25, 30), (30, 25)])
    def test_row_counts_must_match(self, fit_fn, n_x, n_y):
        X, y = labeled_rows()
        with pytest.raises(DimensionMismatch):
            fit_fn(TrainData(X[:n_x], y[:n_y]))

    def test_pool_columns_must_match(self, fit_fn):
        X, y = labeled_rows()
        with pytest.raises(DimensionMismatch, match="pool"):
            fit_fn(TrainData(X, y, np.zeros((5, 2))))

    @pytest.mark.parametrize("name", ["X", "y", "X_unlabeled"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_a_value_error(self, fit_fn, name, bad):
        X, y = labeled_rows()
        arrays = {"X": X, "y": y.astype(float), "X_unlabeled": X[:5].copy()}
        arrays[name][1] = bad
        with pytest.raises(ValueError, match=f"{name} contains NaN or inf"):
            fit_fn(TrainData(**arrays))


def test_train_data_copies_no_float64_array():
    # each fit builds one per epoch
    X, y = labeled_rows()
    y = y.astype(float)
    data = TrainData(X, y, X[:5])
    assert data.X is X and data.y is y and np.shares_memory(data.X_unlabeled, X)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_query_is_a_value_error(bad):
    X, y = labeled_rows()
    cfg = tiny_config(max_epochs=0)
    query = X[:4].copy()
    query[2, 1] = bad
    ens, _ = fit(TrainData(X, y), cfg)
    with pytest.raises(ValueError, match="X_query contains NaN or inf"):
        trainer.predict_regression(ens, cfg.kernel_spec(), X, y, query, cfg.noise_var)
    ens, head, _ = classify.fit_classifier(TrainData(X, y), cfg)
    with pytest.raises(ValueError, match="X contains NaN or inf"):
        classify.predict_probs(ens, head, query)


def test_empty_query_set_predicts_no_rows():
    X, y = labeled_rows()
    cfg = tiny_config(max_epochs=0)
    ens, _ = fit(TrainData(X, y), cfg)
    means, variances = trainer.predict_regression(ens, cfg.kernel_spec(), X, y, X[:0], cfg.noise_var)
    assert means.shape == (0,) and variances.shape == (0,)
