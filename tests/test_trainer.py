import numpy as np
import pytest
from helpers import particle_fd_gradient, rel_err

from dpkl import net, trainer
from dpkl.data import synth_regression
from dpkl.errors import ConfigError, EmptyUnlabeledSet, InsufficientData
from dpkl.trainer import (
    AdamState,
    TrainConfig,
    TrainData,
    derive_seeds,
    fit,
    functional_gradient_step,
    kappa,
    median_heuristic,
    objective_value,
    per_particle_loss_grads,
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


class TestMedianHeuristic:
    def test_single_particle(self):
        ens = net.init_ensemble(net.MlpArchitecture(3, (4,), 2), 1, 0)
        assert median_heuristic(ens) == 1.0

    def test_two_particles_closed_form(self):
        arch = net.MlpArchitecture(2, (), 2)
        ens = net.init_ensemble(arch, 2, 0)
        w = ens.particles[0].flatten()
        shift = np.zeros_like(w)
        shift[0] = 3.0  # distance exactly 3
        ens.particles[1] = net.unflatten_params(arch, w + shift)
        np.testing.assert_allclose(median_heuristic(ens), 9.0 / np.log(3.0), rtol=1e-12)

    def test_collapsed_particles_keep_kappa_one(self):
        arch = net.MlpArchitecture(2, (), 2)
        ens = net.init_ensemble(arch, 3, 0)
        w = ens.particles[0].flatten()
        ens.particles = [net.unflatten_params(arch, w.copy()) for _ in range(3)]
        h = median_heuristic(ens)
        assert h > 0
        assert kappa(h, w, w) == 1.0


class TestKappa:
    def test_self_similarity(self):
        w = np.random.default_rng(0).normal(size=10)
        assert kappa(2.0, w, w) == 1.0

    def test_unit_bandwidth_point(self):
        w = np.zeros(4)
        w2 = np.array([1.0, 1.0, 1.0, 0.0])  # squared distance 3
        np.testing.assert_allclose(kappa(3.0, w, w2), np.exp(-1.0), rtol=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            w, w2 = rng.normal(size=6), rng.normal(size=6)
            assert kappa(1.7, w, w2) == kappa(1.7, w2, w)


class TestPerParticleGrads:
    def test_duplicate_particles_share_gradient(self):
        cfg = tiny_config()
        data = tiny_data()
        arch = cfg.architecture(3)
        ens = net.init_ensemble(arch, 3, 42)
        ens.particles[1] = net.unflatten_params(arch, ens.particles[0].flatten())
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
        cfg = tiny_config(mode="ssdpkl")
        ens = net.init_ensemble(cfg.architecture(3), 3, 0)
        with pytest.raises(EmptyUnlabeledSet):
            per_particle_loss_grads(ens, tiny_data(), cfg)


class TestFunctionalGradientStep:
    def test_zero_gradients_leave_ensemble_fixed(self):
        cfg = tiny_config()
        ens = net.init_ensemble(cfg.architecture(3), 3, 0)
        before = ens.flat().copy()
        opt = AdamState.zeros(3, before.shape[1])
        grads = [np.zeros(before.shape[1]) for _ in range(3)]
        functional_gradient_step(ens, grads, opt, cfg)
        np.testing.assert_array_equal(ens.flat(), before)

    def test_single_particle_is_plain_adam(self):
        cfg = tiny_config(m=1)
        arch = cfg.architecture(3)
        ens = net.init_ensemble(arch, 1, 5)
        w = ens.particles[0].flatten().copy()
        rng = np.random.default_rng(6)
        grad_seq = [rng.normal(size=w.size) for _ in range(4)]

        opt = AdamState.zeros(1, w.size)
        for g in grad_seq:
            functional_gradient_step(ens, [g], opt, cfg)

        m1 = np.zeros_like(w)
        v1 = np.zeros_like(w)
        ref = w.copy()
        for t, g in enumerate(grad_seq, start=1):
            m1 = 0.9 * m1 + 0.1 * g
            v1 = 0.999 * v1 + 0.001 * g * g
            ref -= cfg.learning_rate * (m1 / (1 - 0.9**t)) / (
                np.sqrt(v1 / (1 - 0.999**t)) + cfg.adam_eps
            )
        np.testing.assert_allclose(ens.particles[0].flatten(), ref, rtol=1e-12, atol=1e-15)

    def test_distant_particles_decouple(self):
        # fixed small bandwidth makes kappa vanish between far-apart particles,
        # so the coupled update must match two independent single-particle runs
        cfg2 = tiny_config(m=2, kappa_bandwidth=1.0)
        arch = cfg2.architecture(3)
        ens = net.init_ensemble(arch, 2, 8)
        w0 = ens.particles[0].flatten()
        ens.particles[1] = net.unflatten_params(arch, w0 + 100.0)
        flats = ens.flat().copy()
        rng = np.random.default_rng(9)
        grads = [rng.normal(size=w0.size) for _ in range(2)]

        opt = AdamState.zeros(2, w0.size)
        functional_gradient_step(ens, grads, opt, cfg2)

        cfg1 = tiny_config(m=1, kappa_bandwidth=1.0)
        for i in range(2):
            solo = net.ParticleEnsemble(arch, [net.unflatten_params(arch, flats[i])], 0)
            opt1 = AdamState.zeros(1, w0.size)
            functional_gradient_step(solo, [grads[i]], opt1, cfg1)
            np.testing.assert_allclose(
                ens.particles[i].flatten(), solo.particles[0].flatten(), atol=1e-6
            )

    def test_far_particles_give_no_subnormal_kappa(self, monkeypatch):
        # squared distance 720 at bandwidth 1: exp(-720) is subnormal
        cfg = tiny_config(m=3, kappa_bandwidth=1.0)
        arch = cfg.architecture(3)
        ens = net.init_ensemble(arch, 3, 8)
        w0 = ens.particles[0].flatten()
        shift = np.zeros_like(w0)
        shift[0] = np.sqrt(720.0)
        ens.particles[1] = net.unflatten_params(arch, w0 + shift)
        ens.particles[2] = net.unflatten_params(arch, w0 + 2 * shift)
        seen, kappa_matrix = [], trainer._kappa_matrix
        monkeypatch.setattr(
            trainer, "_kappa_matrix", lambda flat, h: seen.append(kappa_matrix(flat, h)) or seen[-1]
        )
        grads = [np.ones_like(w0) for _ in range(3)]
        functional_gradient_step(ens, grads, AdamState.zeros(3, w0.size), cfg)
        (K,) = seen
        assert not np.any((K != 0.0) & (np.abs(K) < np.finfo(float).tiny))
        np.testing.assert_allclose(K, np.eye(3), rtol=0, atol=1e-12)

    def test_identity_weighting_uses_raw_gradients(self):
        cfg = tiny_config(kappa_weighting="identity")
        arch = cfg.architecture(3)
        ens = net.init_ensemble(arch, 3, 10)
        flats = ens.flat().copy()
        rng = np.random.default_rng(11)
        grads = [rng.normal(size=flats.shape[1]) for _ in range(3)]
        opt = AdamState.zeros(3, flats.shape[1])
        functional_gradient_step(ens, grads, opt, cfg)
        for i in range(3):
            g = grads[i]
            # first Adam step with bias correction reduces to lr * g / (|g| + eps)
            expected = flats[i] - cfg.learning_rate * g / (np.abs(g) + cfg.adam_eps)
            np.testing.assert_allclose(ens.particles[i].flatten(), expected, rtol=1e-10)

    def test_particle_permutation_equivariance(self):
        cfg = tiny_config()
        arch = cfg.architecture(3)
        ens_a = net.init_ensemble(arch, 3, 12)
        ens_b = ens_a.copy()
        perm = [2, 0, 1]
        ens_b.particles = [ens_b.particles[i] for i in perm]
        rng = np.random.default_rng(13)
        grads = [rng.normal(size=arch.num_params) for _ in range(3)]
        functional_gradient_step(ens_a, grads, AdamState.zeros(3, arch.num_params), cfg)
        functional_gradient_step(
            ens_b, [grads[i] for i in perm], AdamState.zeros(3, arch.num_params), cfg
        )
        for out_pos, src in enumerate(perm):
            np.testing.assert_allclose(
                ens_b.particles[out_pos].flatten(),
                ens_a.particles[src].flatten(),
                atol=1e-12,
            )


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
        forward = net.forward
        monkeypatch.setattr(net, "forward", lambda p, X: rows.append(len(X)) or forward(p, X))
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
