import numpy as np
import pytest
from helpers import fd_gradient, rel_err

from dpkl.errors import DimensionMismatch
from dpkl.net import (
    MlpArchitecture,
    MlpParams,
    ParticleEnsemble,
    backward_params,
    forward,
    init_ensemble,
    unflatten_params,
)


def small_arch(activation="tanh"):
    return MlpArchitecture(input_dim=3, hidden_dims=(4,), latent_dim=2, activation=activation)


class TestParticleMatrix:
    def test_particles_are_views_of_the_matrix_rows(self):
        ens = init_ensemble(small_arch(), 3, 0)
        X = np.random.default_rng(1).normal(size=(5, 3))
        ens.flat()[1] += 0.5
        for p, row in zip(ens.particles, ens.flat()):
            assert all(np.shares_memory(W, row) for W in p.weights + p.biases)
            np.testing.assert_array_equal(p.flatten(), row)
        np.testing.assert_array_equal(
            forward(ens.particles[1], X), forward(unflatten_params(ens.arch, ens.flat()[1]), X)
        )

    def test_particles_cannot_be_reassigned(self):
        ens = init_ensemble(small_arch(), 3, 0)
        with pytest.raises(AttributeError):
            ens.particles = list(ens.particles)
        with pytest.raises(TypeError):
            ens.particles[0] = ens.particles[1]

    def test_copy_shares_no_memory(self):
        ens = init_ensemble(small_arch(), 3, 0)
        dup = ens.copy()
        np.testing.assert_array_equal(dup.flat(), ens.flat())
        assert not np.shares_memory(dup.flat(), ens.flat())
        ens.flat()[:] = 0.0
        assert np.any(dup.particles[0].weights[0] != 0.0)

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
        assert len({id(p) for p in ens.particles}) == 50

    def test_biases_zero_weights_he_scaled(self):
        arch = MlpArchitecture(100, (50,), 2)
        ens = init_ensemble(arch, 1, 3)
        p = ens.particles[0]
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
        p = init_ensemble(arch, 1, 5).particles[0]
        w = p.flatten()
        np.testing.assert_array_equal(unflatten_params(arch, w).flatten(), w)

    def test_round_trip_preserves_forward(self):
        arch = small_arch()
        p = init_ensemble(arch, 1, 6).particles[0]
        X = np.random.default_rng(0).normal(size=(5, 3))
        q = unflatten_params(arch, p.flatten())
        np.testing.assert_array_equal(forward(p, X), forward(q, X))

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            unflatten_params(small_arch(), np.zeros(7))


class TestForward:
    def test_zero_params_map_to_zero(self):
        arch = small_arch()
        p = init_ensemble(arch, 1, 0).particles[0]
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
        arch = small_arch()
        p = init_ensemble(arch, 1, 7).particles[0]
        X = np.random.default_rng(5).normal(size=(8, 3))
        np.testing.assert_array_equal(forward(p, X), forward(p, X))

    def test_wrong_input_dim(self):
        p = init_ensemble(small_arch(), 1, 0).particles[0]
        with pytest.raises(DimensionMismatch):
            forward(p, np.zeros((4, 5)))


class TestBackward:
    def test_zero_cotangent(self):
        arch = small_arch()
        p = init_ensemble(arch, 1, 8).particles[0]
        X = np.random.default_rng(6).normal(size=(5, 3))
        g = backward_params(p, X, np.zeros((5, 2)))
        np.testing.assert_array_equal(g, np.zeros(arch.num_params))

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
        p0 = init_ensemble(arch, 1, 10).particles[0]
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
        p0 = init_ensemble(arch, 1, 12).particles[0]
        X = rng.normal(size=(4, 2))
        G = rng.normal(size=(4, 2))

        def f(w):
            return float(np.sum(G * forward(unflatten_params(arch, w), X)))

        assert rel_err(backward_params(p0, X, G), fd_gradient(f, p0.flatten())) < 1e-5

    def test_wrong_cotangent_shape(self):
        p = init_ensemble(small_arch(), 1, 0).particles[0]
        with pytest.raises(DimensionMismatch):
            backward_params(p, np.zeros((5, 3)), np.zeros((4, 2)))
