import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    MlpParams,
    backward_params,
    ensemble_vjp,
    fd_gradient,
    forward,
    rel_err,
    unflatten_params,
)

from dpkl import net, threads
from dpkl.errors import DimensionMismatch
from dpkl.net import (
    MlpArchitecture,
    ParticleEnsemble,
    ensemble_embeddings,
    init_ensemble,
)


def small_arch(activation="tanh"):
    return MlpArchitecture(input_dim=3, hidden_dims=(4,), latent_dim=2, activation=activation)


class TestParticleMatrix:
    def test_matrix_shape_checked(self):
        arch = small_arch()
        with pytest.raises(DimensionMismatch):
            ParticleEnsemble(arch, np.zeros((2, arch.num_params + 1)), 0)
        with pytest.raises(DimensionMismatch):
            ParticleEnsemble(arch, np.zeros(arch.num_params), 0)


class TestInit:
    def test_deterministic(self):
        arch = small_arch()
        a = init_ensemble(arch, 4, seed=11)
        b = init_ensemble(arch, 4, seed=11)
        np.testing.assert_array_equal(a.flat(), b.flat())

    def test_single_particle(self):
        assert init_ensemble(small_arch(), 1, 0).m == 1

    def test_default_ensemble_size(self):
        ens = init_ensemble(small_arch(), 50, 0)
        assert ens.m == 50
        assert ens.flat().shape == (50, ens.arch.num_params)

    def test_draws_follow_particle_then_layer_order(self):
        # one generator, particle by particle and layer by layer, bit for bit
        arch = MlpArchitecture(1, (100, 50, 50), 2)
        rng = np.random.default_rng(13)
        rows = [
            MlpParams(
                arch,
                [rng.normal(0.0, np.sqrt(2.0 / fin), size=(out, fin)) for out, fin in arch.layer_shapes],
                [np.zeros(out) for out, _ in arch.layer_shapes],
            ).flatten()
            for _ in range(50)
        ]
        np.testing.assert_array_equal(init_ensemble(arch, 50, 13).flat(), np.stack(rows))

    def test_biases_zero_weights_he_scaled(self):
        arch = MlpArchitecture(100, (50,), 2)
        ens = init_ensemble(arch, 1, 3)
        p = unflatten_params(arch, ens.flat()[0])
        assert all(np.all(b == 0) for b in p.biases)
        # std of the first-layer weights should be near sqrt(2/100)
        observed = p.weights[0].std()
        assert abs(observed - np.sqrt(2.0 / 100)) < 0.02

    def test_default_architecture_shape(self):
        arch = MlpArchitecture(input_dim=8)
        assert [s for s, _ in arch.layer_shapes] == [100, 50, 50, 2]

    def test_num_params(self):
        arch = small_arch()
        assert arch.num_params == (3 + 1) * 4 + (4 + 1) * 2


class TestFlatten:
    def test_round_trip_identity(self):
        arch = small_arch()
        w = init_ensemble(arch, 1, 5).flat()[0]
        np.testing.assert_array_equal(unflatten_params(arch, w).flatten(), w)

    def test_round_trip_preserves_forward(self):
        arch = small_arch()
        p = unflatten_params(arch, init_ensemble(arch, 1, 6).flat()[0])
        X = np.random.default_rng(0).normal(size=(5, 3))
        q = unflatten_params(arch, p.flatten())
        np.testing.assert_array_equal(forward(p, X), forward(q, X))

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            unflatten_params(small_arch(), np.zeros(7))


class TestForward:
    def test_zero_params_map_to_zero(self):
        arch = small_arch()
        p = unflatten_params(arch, np.zeros(arch.num_params))
        X = np.random.default_rng(1).normal(size=(6, 3))
        np.testing.assert_array_equal(forward(p, X), np.zeros((6, 2)))

    def test_single_linear_layer_is_affine(self):
        arch = MlpArchitecture(3, (), 2)
        rng = np.random.default_rng(2)
        W = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        p = MlpParams(arch, [W], [b])
        X = rng.normal(size=(4, 3))
        np.testing.assert_allclose(forward(p, X), X @ W.T + b, atol=1e-15)

    def test_dead_relu_outputs_final_bias(self):
        arch = MlpArchitecture(2, (3,), 2, activation="relu")
        W0 = -np.ones((3, 2))
        b0 = -np.ones(3)  # pre-activations strictly negative for positive inputs
        W1 = np.random.default_rng(3).normal(size=(2, 3))
        b1 = np.array([0.7, -0.2])
        p = MlpParams(arch, [W0, W1], [b0, b1])
        X = np.random.default_rng(4).uniform(0.1, 1.0, size=(5, 2))
        np.testing.assert_allclose(forward(p, X), np.tile(b1, (5, 1)), atol=1e-15)

    def test_repeated_calls_bitwise_identical(self):
        ens = init_ensemble(small_arch(), 1, 7)
        X = np.random.default_rng(5).normal(size=(8, 3))
        np.testing.assert_array_equal(ensemble_embeddings(ens, X), ensemble_embeddings(ens, X))

    def test_wrong_input_dim(self):
        ens = init_ensemble(small_arch(), 1, 0)
        with pytest.raises(DimensionMismatch):
            ensemble_embeddings(ens, np.zeros((4, 5)))


class TestBackward:
    def test_zero_cotangent(self):
        arch = small_arch()
        ens = init_ensemble(arch, 1, 8)
        X = np.random.default_rng(6).normal(size=(5, 3))
        g = ensemble_vjp(ens, X, np.zeros((1, 5, 2)))
        np.testing.assert_array_equal(g, np.zeros((1, arch.num_params)))

    def test_linear_layer_closed_form(self):
        arch = MlpArchitecture(3, (), 2)
        rng = np.random.default_rng(7)
        W = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        p = MlpParams(arch, [W], [b])
        X = rng.normal(size=(6, 3))
        G = rng.normal(size=(6, 2))
        g = backward_params(p, X, G)
        gw = g[:6].reshape(2, 3)
        gb = g[6:]
        np.testing.assert_allclose(gw, G.T @ X, atol=1e-14)
        np.testing.assert_allclose(gb, G.sum(axis=0), atol=1e-14)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_matches_finite_differences(self, activation):
        arch = small_arch(activation)
        rng = np.random.default_rng(9)
        p0 = unflatten_params(arch, init_ensemble(arch, 1, 10).flat()[0])
        X = rng.normal(size=(5, 3))
        G = rng.normal(size=(5, 2))
        analytic = backward_params(p0, X, G)

        def f(w):
            return float(np.sum(G * forward(unflatten_params(arch, w), X)))

        numeric = fd_gradient(f, p0.flatten(), step=1e-5)
        assert rel_err(analytic, numeric) < 1e-6

    def test_deep_net_matches_finite_differences(self):
        arch = MlpArchitecture(2, (5, 4, 3), 2, activation="tanh")
        rng = np.random.default_rng(11)
        p0 = unflatten_params(arch, init_ensemble(arch, 1, 12).flat()[0])
        X = rng.normal(size=(4, 2))
        G = rng.normal(size=(4, 2))

        def f(w):
            return float(np.sum(G * forward(unflatten_params(arch, w), X)))

        assert rel_err(backward_params(p0, X, G), fd_gradient(f, p0.flatten())) < 1e-5

    def test_wrong_cotangent_shape(self):
        ens = init_ensemble(small_arch(), 1, 0)
        with pytest.raises(DimensionMismatch):
            ensemble_vjp(ens, np.zeros((5, 3)), np.zeros((1, 4, 2)))


def random_ensemble(arch, m, seed):
    """Initial particles with nonzero biases, so every parameter matters."""
    ens = init_ensemble(arch, m, seed)
    ens.flat()[:] += 0.1 * np.random.default_rng(seed).normal(size=ens.flat().shape)
    return ens


def per_particle(ens, X, G):
    """The per-particle oracles stacked: embeddings (m, n, d) and VJPs (m, P)."""
    particles = [unflatten_params(ens.arch, w) for w in ens.flat()]
    Z = np.stack([forward(p, X) for p in particles])
    grads = np.stack([backward_params(p, X, G_l) for p, G_l in zip(particles, G)])
    return Z, grads


class TestBatchedPass:
    """The grouped particle pass against the per-particle oracles, bit for bit."""

    ARCH_DIMS = dict(input_dim=3, hidden_dims=(4, 6), latent_dim=2)
    N = 7
    WIDTH = 3 + 4 + 6 + 2  # D + sum(hidden) + d

    # budget 1: one particle per group; 2 * N * WIDTH: groups 2, 2, 1 of m = 5
    @pytest.mark.parametrize("budget", [1, 2 * N * WIDTH, None])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("m", [1, 5])
    def test_matches_per_particle_oracle(self, monkeypatch, budget, activation, m):
        if budget is not None:
            monkeypatch.setattr(net, "_GROUP_ENTRIES", budget)
        ens = random_ensemble(MlpArchitecture(**self.ARCH_DIMS, activation=activation), m, 3)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(self.N, 3))
        G = rng.normal(size=(m, self.N, 2))
        Z_ref, grads_ref = per_particle(ens, X, G)
        np.testing.assert_array_equal(ensemble_embeddings(ens, X), Z_ref)
        np.testing.assert_array_equal(ensemble_vjp(ens, X, G), grads_ref)
        # one cotangent shared by every particle, as a broadcast view
        shared = np.broadcast_to(G[0], G.shape)
        np.testing.assert_array_equal(
            ensemble_vjp(ens, X, shared), per_particle(ens, X, [G[0]] * m)[1]
        )

    def test_paper_architecture_default_groups(self):
        # m = 50 at n = 45 with the paper MLP: groups of 14 with a ragged last one
        ens = random_ensemble(MlpArchitecture(1, (100, 50, 50), 2), 50, 5)
        rng = np.random.default_rng(6)
        X = rng.uniform(-3, 3, size=(45, 1))
        G = rng.normal(size=(50, 45, 2))
        assert 50 % net._group_size(ens.arch, 45) != 0
        Z_ref, grads_ref = per_particle(ens, X, G)
        np.testing.assert_array_equal(ensemble_embeddings(ens, X), Z_ref)
        np.testing.assert_array_equal(ensemble_vjp(ens, X, G), grads_ref)

    def test_writes_only_its_column_block(self, monkeypatch):
        monkeypatch.setattr(net, "_GROUP_ENTRIES", 2 * self.N * self.WIDTH)
        arch = MlpArchitecture(**self.ARCH_DIMS)
        m, P = 5, arch.num_params
        # the particles are themselves the left block of a wider matrix
        joint = np.hstack([random_ensemble(arch, m, 7).flat(), np.ones((m, 4))])
        ens = ParticleEnsemble(arch, joint[:, :P], 7)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(self.N, 3))
        G = rng.normal(size=(m, self.N, 2))
        wide = np.full((m, P + 9), 7.5)
        result = ensemble_vjp(ens, X, G, out=wide[:, 3 : 3 + P])
        assert np.shares_memory(result, wide)
        np.testing.assert_array_equal(wide[:, 3 : 3 + P], per_particle(ens, X, G)[1])
        np.testing.assert_array_equal(wide[:, :3], 7.5)
        np.testing.assert_array_equal(wide[:, 3 + P :], 7.5)

    def test_bad_output_rejected(self):
        ens = init_ensemble(small_arch(), 2, 0)
        X, G = np.zeros((5, 3)), np.zeros((2, 5, 2))
        with pytest.raises(DimensionMismatch):
            ensemble_vjp(ens, X, G, out=np.empty((2, ens.arch.num_params + 1)))
        with pytest.raises(DimensionMismatch):
            ensemble_vjp(ens, X, G, out=np.empty((ens.arch.num_params, 2)).T)

    @pytest.mark.parametrize("budget", [1, 2 * N * WIDTH, 10 * N * WIDTH - 1, None])
    def test_group_activations_bounded(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(net, "_GROUP_ENTRIES", budget)
        stacks = []
        forward_group = net.forward_group

        def recording(arch, W, X, *bufs):
            acts = forward_group(arch, W, X, *bufs)
            stacks.append(sum(a.size for a in acts[1:]))
            return acts

        monkeypatch.setattr(net, "forward_group", recording)
        ens = random_ensemble(MlpArchitecture(**self.ARCH_DIMS), 9, 9)
        X = np.random.default_rng(10).normal(size=(self.N, 3))
        ensemble_vjp(ens, X, ensemble_embeddings(ens, X))
        assert stacks and max(stacks) <= max(net._GROUP_ENTRIES, self.N * self.WIDTH)


class TestForwardVjp:
    """forward_vjp keeps the forward trace for its one VJP at the paper sizes and
    recomputes it above the budget; both are bitwise equal to the oracles."""

    ARCH_DIMS, N = TestBatchedPass.ARCH_DIMS, TestBatchedPass.N

    @pytest.mark.parametrize("trace_entries", [0, None])  # recomputed, kept
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("m", [1, 5])
    def test_matches_per_particle_oracle(self, monkeypatch, trace_entries, activation, m):
        if trace_entries is not None:
            monkeypatch.setattr(net, "_TRACE_ENTRIES", trace_entries)
        monkeypatch.setattr(net, "_GROUP_ENTRIES", 2 * self.N * TestBatchedPass.WIDTH)
        passes = []  # particles of every forward_group call
        forward_group = net.forward_group

        def counted(arch, W, X, *bufs):
            passes.append(W.shape[0])
            return forward_group(arch, W, X, *bufs)

        monkeypatch.setattr(net, "forward_group", counted)
        ens = random_ensemble(MlpArchitecture(**self.ARCH_DIMS, activation=activation), m, 3)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(self.N, 3))
        G = rng.normal(size=(m, self.N, 2))
        Z_ref, grads_ref = per_particle(ens, X, G)
        shared_ref = per_particle(ens, X, [G[0]] * m)[1]
        for cotangent, want in [(G, grads_ref), (np.broadcast_to(G[0], G.shape), shared_ref)]:
            passes.clear()
            Z, vjp = net.forward_vjp(ens, X)
            np.testing.assert_array_equal(Z, Z_ref)
            np.testing.assert_array_equal(vjp(cotangent), want)
            # each particle goes forward once when the trace is kept, twice when not
            assert sum(passes) == m * (2 if trace_entries == 0 else 1)

    def test_paper_size_keeps_its_trace(self):
        arch = MlpArchitecture(1, (100, 50, 50), 2)
        assert 50 * 45 * net._width(arch) <= net._TRACE_ENTRIES  # the n = 45 rff epoch
        assert 50 * 5400 * (8 + 200 + 2) > net._TRACE_ENTRIES  # the ssdpkl pool

    @pytest.mark.parametrize("trace_entries", [0, None])
    def test_second_product_raises(self, monkeypatch, trace_entries):
        if trace_entries is not None:
            monkeypatch.setattr(net, "_TRACE_ENTRIES", trace_entries)
        ens = random_ensemble(MlpArchitecture(**self.ARCH_DIMS), 3, 3)
        X = np.random.default_rng(4).normal(size=(self.N, 3))
        Z, vjp = net.forward_vjp(ens, X)
        vjp(Z)
        with pytest.raises(RuntimeError, match="once"):
            vjp(Z)

    def test_checks_input_and_cotangent(self):
        ens = init_ensemble(small_arch(), 2, 0)
        with pytest.raises(DimensionMismatch):
            net.forward_vjp(ens, np.zeros((5, 4)))
        Z, vjp = net.forward_vjp(ens, np.zeros((5, 3)))
        with pytest.raises(DimensionMismatch):
            vjp(np.zeros((2, 4, 2)))
        vjp(Z)  # a rejected cotangent does not spend the product


class TestAddingVjp:
    """vjp(G, out=A, add=True) adds each layer's gradient into A through a
    layer buffer of its worker range: byte for byte A += vjp(G), signed zeros
    included, on the kept trace and the recomputed one, at any worker count."""

    ARCH_DIMS, N, WIDTH = TestBatchedPass.ARCH_DIMS, TestBatchedPass.N, TestBatchedPass.WIDTH

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("trace_entries", [0, None])  # recomputed, kept
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_equals_out_plus_vjp_bytewise(self, monkeypatch, workers, trace_entries, activation):
        monkeypatch.setattr(threads, "_WORKERS", workers)
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
        monkeypatch.setattr(net, "_GROUP_ENTRIES", 2 * self.N * self.WIDTH)  # groups 2, 2, 1
        if trace_entries is not None:
            monkeypatch.setattr(net, "_TRACE_ENTRIES", trace_entries)
        ranges = record_splits(monkeypatch)
        m = 5
        ens = random_ensemble(MlpArchitecture(**self.ARCH_DIMS, activation=activation), m, 13)
        rng = np.random.default_rng(14)
        X = rng.normal(size=(self.N, 3))
        G = rng.normal(size=(m, self.N, 2))
        G[1] = -0.0  # a particle whose every gradient entry is a signed zero
        G[3, : self.N // 2] = 0.0
        A = rng.normal(size=(m, ens.arch.num_params))
        A[:, ::3], A[:, 1::3] = 0.0, -0.0  # +0 and -0 under every kind of VJP entry
        A[2] = rng.normal(size=A.shape[1])
        want = A.copy()
        want += net.forward_vjp(ens, X)[1](G)
        got = A.copy()
        assert net.forward_vjp(ens, X)[1](G, out=got, add=True) is got
        assert got.tobytes() == want.tobytes()
        assert max(len(r) for r in ranges) == min(workers, 3)  # the adding VJP did split


def record_splits(monkeypatch):
    """Patch net's _split to record, per call, the start of every range it runs."""
    ranges = []
    split = threads._split

    def recording(n, unit_entries, fn):
        ranges.append([])
        split(n, unit_entries, lambda a, b: (ranges[-1].append(a), fn(a, b)))

    monkeypatch.setattr(net, "_split", recording)
    return ranges


class TestMlpWorkers:
    """The particle pass with whole groups on the kernel workers, against the
    per-particle oracles, bit for bit at any worker count."""

    ARCH_DIMS, N, WIDTH = TestBatchedPass.ARCH_DIMS, TestBatchedPass.N, TestBatchedPass.WIDTH

    # budget 1: one particle per group; 2 * N * WIDTH: groups 2, 2, 1 of m = 5
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("budget", [1, 2 * N * WIDTH, None])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("m", [1, 5])
    def test_matches_per_particle_oracle(self, monkeypatch, workers, budget, activation, m):
        monkeypatch.setattr(threads, "_WORKERS", workers)
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
        if budget is not None:
            monkeypatch.setattr(net, "_GROUP_ENTRIES", budget)
        ranges = record_splits(monkeypatch)
        ens = random_ensemble(MlpArchitecture(**self.ARCH_DIMS, activation=activation), m, 3)
        P = ens.arch.num_params
        rng = np.random.default_rng(4)
        X = rng.normal(size=(self.N, 3))
        G = rng.normal(size=(m, self.N, 2))
        G.flags.writeable = False  # a worker that wrote the cotangent would raise
        Z_ref, grads_ref = per_particle(ens, X, G)
        assert np.array_equal(ensemble_embeddings(ens, X), Z_ref)
        assert np.array_equal(ensemble_vjp(ens, X, G), grads_ref)
        # one cotangent shared by every particle, as a (read-only) broadcast view
        shared = np.broadcast_to(G[0], G.shape)
        assert np.array_equal(ensemble_vjp(ens, X, shared), per_particle(ens, X, [G[0]] * m)[1])
        # gradients written into a column block of a wider matrix, and only there
        wide = np.full((m, P + 9), 7.5)
        ensemble_vjp(ens, X, G, out=wide[:, 3 : 3 + P])
        assert np.array_equal(wide[:, 3 : 3 + P], grads_ref)
        assert np.all(wide[:, :3] == 7.5) and np.all(wide[:, 3 + P :] == 7.5)
        groups = -(-m // net._group_size(ens.arch, self.N))
        assert max(len(r) for r in ranges) == min(workers, groups)  # some call did split

    def test_many_workers_under_fast_switching(self, monkeypatch):
        # more workers than cores, and thread switches as often as possible:
        # a lost or torn write to a shared output would show as a mismatch
        monkeypatch.setattr(threads, "_WORKERS", 8)
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
        monkeypatch.setattr(net, "_GROUP_ENTRIES", 1)
        ens = random_ensemble(MlpArchitecture(**self.ARCH_DIMS), 11, 5)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 3))
        G = rng.normal(size=(11, 200, 2))
        Z_ref, grads_ref = per_particle(ens, X, G)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                assert np.array_equal(ensemble_embeddings(ens, X), Z_ref)
                assert np.array_equal(ensemble_vjp(ens, X, G), grads_ref)
        finally:
            sys.setswitchinterval(interval)


class TestRangeBuffers:
    """A pass that keeps no trace writes every group of a worker range into the
    range's one set of layer and delta buffers; results stay the oracles'."""

    ARCH_DIMS, N = TestBatchedPass.ARCH_DIMS, TestBatchedPass.N

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("pass_", ["embeddings", "vjp"])
    def test_groups_of_a_range_share_buffers(self, monkeypatch, workers, pass_):
        monkeypatch.setattr(threads, "_WORKERS", workers)
        monkeypatch.setattr(threads, "_MIN_ENTRIES", 0)
        monkeypatch.setattr(net, "_GROUP_ENTRIES", 1)  # one particle a group
        monkeypatch.setattr(net, "_TRACE_ENTRIES", 0)  # the VJP recomputes its forward pass
        ranges = record_splits(monkeypatch)
        m = 6
        ens = random_ensemble(MlpArchitecture(**self.ARCH_DIMS, activation="relu"), m, 11)
        W = ens.flat()
        rng = np.random.default_rng(12)
        X, G = rng.normal(size=(self.N, 3)), rng.normal(size=(m, self.N, 2))
        group_of = {}  # thread -> the particle its current group starts at
        addresses = {}  # (particle, what) -> data addresses of that group's arrays
        held = []  # every array seen stays alive, so no address is freed and reused
        forward_group, chain = net.forward_group, net._chain_activation

        def recording_forward(arch, Wg, Xg, *bufs):
            acts = forward_group(arch, Wg, Xg, *bufs)
            row = (Wg.ctypes.data - W.ctypes.data) // W.strides[0]
            group_of[threading.get_ident()] = row
            addresses[row, "acts"] = [a.ctypes.data for a in acts[1:]]
            held.append(acts)
            return acts

        def recording_chain(delta, a, activation):
            row = group_of[threading.get_ident()]
            addresses.setdefault((row, "deltas"), []).append(delta.ctypes.data)
            held.append(delta)
            chain(delta, a, activation)

        monkeypatch.setattr(net, "forward_group", recording_forward)
        monkeypatch.setattr(net, "_chain_activation", recording_chain)
        Z_ref, grads_ref = per_particle(ens, X, G)
        if pass_ == "embeddings":
            assert np.array_equal(ensemble_embeddings(ens, X), Z_ref)
        else:
            assert np.array_equal(ensemble_vjp(ens, X, G), grads_ref)
        starts = ranges[-1]
        assert len(starts) == workers
        kinds = ["acts"] + (["deltas"] if pass_ == "vjp" else [])
        for first, stop in zip(starts, [*starts[1:], m]):
            for what in kinds:
                seen = [addresses[row, what] for row in range(first, stop)]
                assert seen[0] and seen == [seen[0]] * len(seen), (first, what)

    def test_two_user_threads_keep_their_own_buffers(self, monkeypatch):
        # a range's buffers are locals of its pass, so two callers' buffered
        # passes at once never write into each other's groups
        monkeypatch.setattr(net, "_GROUP_ENTRIES", 1)  # one particle a group
        monkeypatch.setattr(net, "_TRACE_ENTRIES", 0)  # the VJP recomputes its forward pass
        m, n = 5, 60
        cases = []
        for seed, activation in [(21, "relu"), (22, "tanh")]:
            ens = random_ensemble(MlpArchitecture(**self.ARCH_DIMS, activation=activation), m, seed)
            rng = np.random.default_rng(seed)
            X, G = rng.normal(size=(n, 3)), rng.normal(size=(m, n, 2))
            cases.append((ens, X, G, *per_particle(ens, X, G)))
        start = threading.Barrier(len(cases))
        failures = []

        def run(ens, X, G, Z_ref, grads_ref):
            start.wait()
            for _ in range(20):
                Z, vjp = net.forward_vjp(ens, X)
                if not (np.array_equal(ensemble_embeddings(ens, X), Z_ref)
                        and np.array_equal(Z, Z_ref) and np.array_equal(vjp(G), grads_ref)):
                    failures.append(ens.seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=case) for case in cases]
            for t in workers:
                t.start()
            for t in workers:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert not failures


def test_paper_passes_split_only_at_large_n():
    # the paper MLP (m = 50): the n = 45 and n = 16 passes stay serial and
    # start no thread, even with two workers; the n = 2000 pass splits
    code = textwrap.dedent(
        """
        import threading
        import numpy as np
        from dpkl import net, threads

        threads._WORKERS = 2
        ranges = []
        split = threads._split

        def recording(n, unit_entries, fn):
            ranges.append([])
            split(n, unit_entries, lambda a, b: (ranges[-1].append(a), fn(a, b)))

        net._split = recording
        ens = net.init_ensemble(net.MlpArchitecture(1, (100, 50, 50), 2), 50, 0)
        rng = np.random.default_rng(0)
        for n in (45, 16):
            X = rng.uniform(-3, 3, size=(n, 1))
            Z, vjp = net.forward_vjp(ens, X)
            vjp(Z)
        assert threading.active_count() == 1, threading.enumerate()
        assert [len(r) for r in ranges] == [1, 1, 1, 1], ranges
        ranges.clear()
        X = rng.uniform(-3, 3, size=(2000, 1))
        Z, vjp = net.forward_vjp(ens, X)  # above the trace budget: the VJP recomputes
        vjp(Z)
        assert [len(r) for r in ranges] == [2, 2], ranges
        """
    )
    src = str(Path(net.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
