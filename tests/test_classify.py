import numpy as np
import pytest
from helpers import (
    backward_params,
    batch_objective,
    fd_gradient,
    forward,
    rel_err,
    unflatten_params,
)

from dpkl import net
from dpkl.classify import (
    SoftmaxHead,
    batch_grads,
    cross_entropy,
    fit_classifier,
    init_head,
    logits,
    one_hot,
    prediction_entropy,
    predict_probs,
    softmax_probs,
)
from dpkl.data import synth_blobs
from dpkl.errors import ConfigError, DimensionMismatch
from dpkl.trainer import TrainConfig, TrainData, derive_seeds, _validation_split


def random_setup(m=3, n=5, d=2, C=3, seed=0):
    rng = np.random.default_rng(seed)
    embeddings = [rng.normal(size=(n, d)) for _ in range(m)]
    head = SoftmaxHead(C, [rng.normal(size=(C, d)) for _ in range(m)])
    return embeddings, head


def logits_double_sum(head, embeddings):
    """O(m^2) reference straight from the probabilistic inner product."""
    m = len(embeddings)
    n = embeddings[0].shape[0]
    nu = np.zeros((n, head.C))
    for i in range(n):
        for c in range(head.C):
            acc = 0.0
            for theta in head.thetas:
                for Z in embeddings:
                    acc += theta[c] @ Z[i]
            nu[i, c] = acc / m**2
    return nu


class TestLogits:
    def test_single_particle_is_plain_dot_product(self):
        embeddings, head = random_setup(m=1)
        nu = logits(head, embeddings)
        np.testing.assert_allclose(nu, embeddings[0] @ head.thetas[0].T, atol=1e-14)

    def test_zero_mean_weights_give_zero_logits(self):
        embeddings, head = random_setup(m=2)
        head.thetas[1] = -head.thetas[0]
        np.testing.assert_allclose(logits(head, embeddings), 0.0, atol=1e-14)

    def test_double_sum_oracle(self):
        embeddings, head = random_setup(m=3, seed=1)
        np.testing.assert_allclose(
            logits(head, embeddings), logits_double_sum(head, embeddings), atol=1e-12
        )

    def test_particle_permutation_invariance(self):
        embeddings, head = random_setup(m=4, seed=2)
        perm = [3, 1, 0, 2]
        nu = logits(head, embeddings)
        nu_p = logits(
            SoftmaxHead(head.C, [head.thetas[i] for i in perm]),
            [embeddings[i] for i in perm],
        )
        np.testing.assert_allclose(nu, nu_p, atol=1e-13)

    def test_dimension_mismatch(self):
        embeddings, head = random_setup()
        with pytest.raises(DimensionMismatch):
            logits(head, [Z[:, :1] for Z in embeddings])


class TestSoftmax:
    def test_equal_logits_give_uniform(self):
        probs = softmax_probs(np.full((2, 4), 3.3))
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_no_overflow_on_large_logits(self):
        probs = softmax_probs(np.array([[1000.0, 0.0]]))
        np.testing.assert_allclose(probs, [[1.0, 0.0]], atol=1e-300)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        probs = softmax_probs(rng.normal(size=(20, 5)) * 10)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0)

    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        nu = rng.normal(size=(6, 4))
        perm = [2, 0, 3, 1]
        np.testing.assert_allclose(
            softmax_probs(nu[:, perm]), softmax_probs(nu)[:, perm], atol=1e-14
        )


class TestCrossEntropy:
    def test_perfect_prediction(self):
        probs = np.array([[1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12]])
        labels = one_hot(np.array([0, 1]), 2)
        assert cross_entropy(probs, labels) < 1e-11

    def test_uniform_probs(self):
        C = 5
        probs = np.full((7, C), 1.0 / C)
        labels = one_hot(np.zeros(7, dtype=int), C)
        np.testing.assert_allclose(cross_entropy(probs, labels), np.log(C), rtol=1e-12)

    def test_gradient_wrt_logits(self):
        rng = np.random.default_rng(5)
        nu = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        onehot = one_hot(labels, 3)
        analytic = (softmax_probs(nu) - onehot) / 4.0

        def f(flat):
            return cross_entropy(softmax_probs(flat.reshape(4, 3)), onehot)

        numeric = fd_gradient(f, nu.ravel().copy(), step=1e-6).reshape(4, 3)
        assert rel_err(analytic, numeric) < 1e-7


class TestEntropy:
    def test_bounds(self):
        rng = np.random.default_rng(6)
        probs = softmax_probs(rng.normal(size=(50, 4)))
        ent = prediction_entropy(probs)
        assert np.all(ent >= 0.0)
        assert np.all(ent <= np.log(4) + 1e-12)

    def test_uniform_maximizes(self):
        np.testing.assert_allclose(
            prediction_entropy(np.full((1, 8), 0.125))[0], np.log(8), rtol=1e-12
        )


class TestBatchGrads:
    def test_matches_finite_differences_on_joint_vector(self):
        cfg_dims = dict(input_dim=3, hidden_dims=(4,), latent_dim=2, activation="tanh")
        arch = net.MlpArchitecture(**cfg_dims)
        rng = np.random.default_rng(7)
        m, C, n = 3, 2, 6
        ensemble = net.init_ensemble(arch, m, 8)
        head = init_head(C, 2, m, 9)
        X = rng.normal(size=(n, 3))
        labels = rng.integers(0, C, size=n)
        grads, _ = batch_grads(ensemble, head, X, labels)
        p_net = arch.num_params
        for l in range(m):
            w_row, theta = ensemble.flat()[l], head.thetas[l]  # live views
            joint0 = np.concatenate([w_row, theta.ravel()])

            def f(joint):
                w_row[:] = joint[:p_net]
                theta[:] = joint[p_net:].reshape(C, 2)
                try:
                    return batch_objective(ensemble, head, X, labels)
                finally:
                    w_row[:] = joint0[:p_net]
                    theta[:] = joint0[p_net:].reshape(C, 2)

            numeric = fd_gradient(f, joint0, step=1e-6)
            assert rel_err(grads[l], numeric) < 1e-6

    def test_loss_is_batch_objective_at_current_parameters(self):
        arch = net.MlpArchitecture(3, (4,), 2)
        ensemble = net.init_ensemble(arch, 3, 1)
        head = init_head(3, 2, 3, 2)
        rng = np.random.default_rng(3)
        X, labels = rng.normal(size=(7, 3)), rng.integers(0, 3, size=7)
        grads, loss = batch_grads(ensemble, head, X, labels)
        assert grads.shape == (3, arch.num_params + 3 * 2)
        assert loss == batch_objective(ensemble, head, X, labels)


class TestFitClassifier:
    def blobs(self, seed=0, n_per_class=30):
        ds = synth_blobs(C=2, n_per_class=n_per_class, d_in=2, separation=6.0, seed=seed)
        return TrainData(ds.X, ds.y)

    def small_config(self, **overrides):
        base = dict(m=3, max_epochs=15, seed=1, hidden_dims=(16,), latent_dim=2,
                    early_stop_check_every=5, learning_rate=1e-2)
        base.update(overrides)
        return TrainConfig(**base)

    def test_learns_separable_blobs(self):
        data = self.blobs()
        ensemble, head, report = fit_classifier(data, self.small_config())
        test = synth_blobs(C=2, n_per_class=40, d_in=2, separation=6.0, seed=99)
        probs = predict_probs(ensemble, head, test.X)
        accuracy = np.mean(probs.argmax(axis=1) == test.y)
        assert accuracy >= 0.95
        assert report.task == "classification"

    def test_deterministic(self):
        data = self.blobs(seed=2)
        cfg = self.small_config(max_epochs=5)
        e1, h1, r1 = fit_classifier(data, cfg)
        e2, h2, r2 = fit_classifier(data, cfg)
        np.testing.assert_array_equal(e1.flat(), e2.flat())
        np.testing.assert_array_equal(h1.flat(), h2.flat())
        assert [e.train_nll for e in r1.epochs] == [e.train_nll for e in r2.epochs]

    def test_single_particle_equals_plain_mlp_softmax_adam(self):
        data = self.blobs(seed=3, n_per_class=15)
        cfg = self.small_config(m=1, max_epochs=3)
        trajectory = []
        fit_classifier(
            data,
            cfg,
            trajectory_hook=lambda e, ens, hd: trajectory.append(
                np.concatenate([ens.flat()[0], hd.thetas[0].ravel()])
            ),
        )

        # independent reference: same seeds/splits/batches, plain Adam, no kernel
        seeds = derive_seeds(cfg.seed)
        tr, _ = _validation_split(data.X.shape[0], cfg.val_fraction, seeds["val_split"])
        X_tr, y_tr = data.X[tr], data.y.astype(int)[tr]
        arch = cfg.architecture(2)
        params = net.init_ensemble(arch, 1, seeds["init"]).flat()[0]
        theta = init_head(2, cfg.latent_dim, 1, seeds["rff"]).thetas[0]
        w = np.concatenate([params, theta.ravel()])
        m1, v1, t = np.zeros_like(w), np.zeros_like(w), 0
        bs = min(cfg.batch_size, len(X_tr))
        p_net = arch.num_params
        for epoch in range(1, cfg.max_epochs + 1):
            order = np.random.default_rng([seeds["batches"], epoch]).permutation(len(X_tr))
            for start in range(0, len(X_tr), bs):
                idx = order[start : start + bs]
                Xb, yb = X_tr[idx], y_tr[idx]
                p = unflatten_params(arch, w[:p_net])
                th = w[p_net:].reshape(2, cfg.latent_dim)
                Z = forward(p, Xb)
                probs = softmax_probs(Z @ th.T)
                E = (probs - one_hot(yb, 2)) / len(Xb)
                g = np.concatenate([backward_params(p, Xb, E @ th), (E.T @ Z).ravel()])
                t += 1
                m1 = 0.9 * m1 + 0.1 * g
                v1 = 0.999 * v1 + 0.001 * g * g
                w = w - cfg.learning_rate * (m1 / (1 - 0.9**t)) / (
                    np.sqrt(v1 / (1 - 0.999**t)) + 1e-8
                )
        np.testing.assert_allclose(trajectory[-1], w, rtol=1e-9, atol=1e-12)

    def test_train_nll_is_the_pre_step_minibatch_loss(self):
        # one epoch, one minibatch: the logged loss is the objective at the
        # parameters the step started from, not at the ones it produced
        data = self.blobs(seed=4)
        cfg = self.small_config(max_epochs=1, batch_size=1000)
        snaps = {}

        def hook(epoch, ens, hd):
            snaps[epoch] = (net.ParticleEnsemble(ens.arch, ens.flat().copy(), ens.seed),
                            SoftmaxHead(hd.C, hd.thetas.copy()))

        _, _, report = fit_classifier(data, cfg, trajectory_hook=hook)
        seeds = derive_seeds(cfg.seed)
        tr, _ = _validation_split(data.X.shape[0], cfg.val_fraction, seeds["val_split"])
        X_tr, y_tr = data.X[tr], data.y.astype(int)[tr]
        before = batch_objective(*snaps[0], X_tr, y_tr)
        after = batch_objective(*snaps[1], X_tr, y_tr)
        np.testing.assert_allclose(report.epochs[0].train_nll, before, rtol=1e-12)
        assert abs(after - before) > 1e-6

    def test_best_snapshot_is_not_moved_by_later_steps(self):
        ds = synth_blobs(C=2, n_per_class=30, d_in=2, separation=2.0, seed=0)
        data = TrainData(ds.X, ds.y)
        cfg = self.small_config(max_epochs=6, seed=0, hidden_dims=(8,),
                                early_stop_check_every=2, learning_rate=0.05)
        snaps, live = [], {}

        def hook(epoch, ens, hd):
            snaps.append(np.hstack([ens.flat(), hd.flat()]))
            live["model"] = (ens, hd)

        ens, head, report = fit_classifier(data, cfg, trajectory_hook=hook)
        assert 0 < report.best_epoch < cfg.max_epochs
        returned = np.hstack([ens.flat(), head.flat()])
        np.testing.assert_array_equal(returned, snaps[report.best_epoch])
        live_ens, live_head = live["model"]
        assert not np.array_equal(ens.flat(), live_ens.flat())
        assert not np.shares_memory(ens.flat(), live_ens.flat())
        assert not np.shares_memory(head.thetas, live_head.thetas)

    def test_zero_epochs_returns_initialized_model(self):
        cfg = self.small_config(max_epochs=0)
        ensemble, head, report = fit_classifier(self.blobs(), cfg)
        seeds = derive_seeds(cfg.seed)
        fresh = net.init_ensemble(cfg.architecture(2), cfg.m, seeds["init"])
        fresh_head = init_head(2, cfg.latent_dim, cfg.m, seeds["rff"])
        np.testing.assert_array_equal(ensemble.flat(), fresh.flat())
        np.testing.assert_array_equal(head.thetas, fresh_head.thetas)
        assert report.epochs == []
        assert report.final_train_nll is None and report.final_objective is None

    def test_ties_keep_the_earlier_snapshot(self):
        # separable blobs: validation accuracy reaches 1.0 at one check and
        # stays there, so every later check ties the best one
        cfg = self.small_config(max_epochs=6, seed=0, early_stop_check_every=1)
        snaps = []

        def hook(epoch, ens, hd):
            snaps.append(np.hstack([ens.flat(), hd.flat()]))

        ens, head, report = fit_classifier(self.blobs(seed=0), cfg, trajectory_hook=hook)
        tied = [e.epoch for e in report.epochs if e.val_metric == report.best_val_metric]
        assert len(tied) >= 2 and tied[0] > 0
        assert report.best_epoch == tied[0]
        np.testing.assert_array_equal(np.hstack([ens.flat(), head.flat()]), snaps[tied[0]])
        assert not np.array_equal(snaps[tied[0]], snaps[tied[-1]])

    def test_ssdpkl_mode_rejected(self):
        with pytest.raises(ConfigError):
            fit_classifier(self.blobs(), self.small_config(mode="ssdpkl"))

    def test_non_integer_labels_rejected(self):
        data = self.blobs()
        bad = TrainData(data.X, data.y + 0.5)
        with pytest.raises(ConfigError):
            fit_classifier(bad, self.small_config())

    def test_negative_labels_rejected(self):
        # one_hot would write label -1 into the last class's column
        data = self.blobs()
        y = data.y.copy()
        y[0] = -1
        with pytest.raises(ConfigError, match="non-negative"):
            fit_classifier(TrainData(data.X, y), self.small_config())
