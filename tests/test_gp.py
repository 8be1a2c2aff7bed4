import math

import numpy as np
import pytest
from helpers import (
    cross_kernel,
    det_cofactor,
    nll_grad_rff,
    posterior,
    projection_residual_oracle,
    rel_err,
    variance_regularizer,
)

from dpkl.errors import (
    DimensionMismatch,
    EmptyUnlabeledSet,
    InternalConsistencyError,
    NotPositiveDefinite,
)
from dpkl.gp import gp_state_exact, nll, nll_grad_kernel, posterior_batch
from dpkl.kernels import LatentKernelSpec, empirical_kernel_exact

SPEC = LatentKernelSpec()


def random_kernel(n, rng, m=2, spread=1.0):
    embeddings = [spread * rng.normal(size=(n, 2)) for _ in range(m)]
    return empirical_kernel_exact(SPEC, embeddings), embeddings


class TestNll:
    def test_zero_kernel_unit_noise(self):
        y = np.array([1.0, -2.0, 0.5])
        state = gp_state_exact(np.zeros((3, 3)), y, noise_var=1.0)
        np.testing.assert_allclose(nll(state), 0.5 * np.sum(y**2), rtol=1e-14)

    def test_scalar_case(self):
        a, s2, y1 = 0.5, 0.1, 1.3
        state = gp_state_exact(np.array([[a]]), np.array([y1]), noise_var=s2)
        expected = 0.5 * y1**2 / (a + s2) + 0.5 * np.log(a + s2)
        np.testing.assert_allclose(nll(state), expected, rtol=1e-14)

    def test_dense_inverse_oracle(self):
        rng = np.random.default_rng(0)
        K, _ = random_kernel(5, rng)
        y = rng.normal(size=5)
        state = gp_state_exact(K, y, noise_var=0.1)
        A = K + 0.1 * np.eye(5) + state.chol.jitter_used * np.eye(5)
        reference = 0.5 * y @ np.linalg.inv(A) @ y + 0.5 * np.log(det_cofactor(A))
        np.testing.assert_allclose(nll(state), reference, atol=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        K, _ = random_kernel(6, rng)
        y = rng.normal(size=6)
        perm = rng.permutation(6)
        a = nll(gp_state_exact(K, y, 0.1))
        b = nll(gp_state_exact(K[np.ix_(perm, perm)], y[perm], 0.1))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize(
        "K", [np.eye(3)[:, :2], np.eye(2), np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0],
                                                     [0.0, 0.0, 1.0]])],
        ids=["non-square", "wrong-size", "asymmetric"])
    def test_kernel_shape_and_symmetry_checked(self, K):
        with pytest.raises(DimensionMismatch):
            gp_state_exact(K, np.zeros(3), 0.1)

    def test_noise_on_the_diagonal_leaves_the_symmetrized_kernel_bitwise(self):
        # one symmetry pass over K + sigma^2 I gives the bits of two, one over
        # K and one over the sum
        rng = np.random.default_rng(7)
        K = rng.normal(size=(6, 6))
        K = K @ K.T + 1e-13 * rng.normal(size=(6, 6))
        Ks = 0.5 * (K + K.T)
        twice = np.linalg.cholesky(Ks + 0.1 * np.eye(6))
        np.testing.assert_array_equal(gp_state_exact(K, np.zeros(6), 0.1).chol.L, twice)


class TestNllGradKernel:
    def test_zero_targets(self):
        rng = np.random.default_rng(2)
        K, _ = random_kernel(4, rng)
        state = gp_state_exact(K, np.zeros(4), 0.1)
        A = K + 0.1 * np.eye(4)
        np.testing.assert_allclose(nll_grad_kernel(state), 0.5 * np.linalg.inv(A), atol=1e-10)

    def test_scalar_calculus(self):
        a, s2, y1 = 0.5, 0.1, 0.7
        state = gp_state_exact(np.array([[a]]), np.array([y1]), s2)
        expected = 0.5 * (1.0 / (a + s2) - y1**2 / (a + s2) ** 2)
        np.testing.assert_allclose(nll_grad_kernel(state)[0, 0], expected, rtol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_symmetric_finite_differences(self, n):
        rng = np.random.default_rng(10 + n)
        K, _ = random_kernel(n, rng)
        y = rng.normal(size=n)
        S = nll_grad_kernel(gp_state_exact(K, y, 0.1, base_jitter=0.0))
        step = 1e-6
        numeric = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                Kp, Km = K.copy(), K.copy()
                Kp[i, j] += step
                Kp[j, i] = Kp[i, j] if i != j else Kp[i, j]
                Km[i, j] -= step
                Km[j, i] = Km[i, j] if i != j else Km[i, j]
                fp = nll(gp_state_exact(Kp, y, 0.1, base_jitter=0.0))
                fm = nll(gp_state_exact(Km, y, 0.1, base_jitter=0.0))
                # symmetric perturbation moves both entries; halve off-diagonals
                d = (fp - fm) / (2 * step)
                numeric[i, j] = numeric[j, i] = d / (2.0 if i != j else 1.0)
        assert rel_err(S, numeric) < 1e-5


class TestNllGradRff:
    def test_zero_targets_specialization(self):
        rng = np.random.default_rng(3)
        R = rng.normal(size=(5, 3))
        state = gp_state_exact(R @ R.T, np.zeros(5), 0.1)
        A = R @ R.T + 0.1 * np.eye(5)
        np.testing.assert_allclose(nll_grad_rff(state, R), np.linalg.inv(A) @ R, atol=1e-9)

    def test_rank_one_chain(self):
        rng = np.random.default_rng(4)
        R = rng.normal(size=(4, 1))
        y = rng.normal(size=4)
        state = gp_state_exact(R @ R.T, y, 0.1)
        S = nll_grad_kernel(state)
        np.testing.assert_allclose(nll_grad_rff(state, R), 2.0 * S @ R, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        R = rng.normal(size=(4, 3))
        y = rng.normal(size=4)
        analytic = nll_grad_rff(gp_state_exact(R @ R.T, y, 0.1, base_jitter=0.0), R)
        step = 1e-6
        numeric = np.zeros_like(R)
        for i in range(4):
            for j in range(3):
                Rp, Rm = R.copy(), R.copy()
                Rp[i, j] += step
                Rm[i, j] -= step
                numeric[i, j] = (
                    nll(gp_state_exact(Rp @ Rp.T, y, 0.1, base_jitter=0.0))
                    - nll(gp_state_exact(Rm @ Rm.T, y, 0.1, base_jitter=0.0))
                ) / (2 * step)
        assert rel_err(analytic, numeric) < 1e-6


class TestPosterior:
    def test_prior_recovered_far_from_data(self):
        rng = np.random.default_rng(6)
        K, _ = random_kernel(4, rng)
        state = gp_state_exact(K, rng.normal(size=4), 0.1)
        p = posterior(state, np.zeros(4), k_ss=0.5)
        assert p.mean == 0.0
        np.testing.assert_allclose(p.variance, 0.5, rtol=1e-14)

    def test_scalar_algebra(self):
        a, s2, y1 = 0.5, 0.1, -0.8
        state = gp_state_exact(np.array([[a]]), np.array([y1]), s2)
        p = posterior(state, np.array([a]), a)
        np.testing.assert_allclose(p.mean, a * y1 / (a + s2), rtol=1e-12)
        np.testing.assert_allclose(p.variance, a * s2 / (a + s2), rtol=1e-10)

    def test_noiseless_limit_interpolates(self):
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(5, 2))
        K = empirical_kernel_exact(SPEC, [Z])
        y = rng.normal(size=5)
        state = gp_state_exact(K, y, noise_var=1e-8)
        k_star, k_ss = cross_kernel(SPEC, [Z], [Z[2:3]])
        p = posterior(state, k_star, k_ss)
        assert abs(p.mean - y[2]) < 1e-3

    def test_variance_bounded_by_prior(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            K, embeddings = random_kernel(5, rng, m=int(rng.integers(1, 4)))
            state = gp_state_exact(K, rng.normal(size=5), 0.1)
            query = [rng.normal(size=(1, 2)) for _ in embeddings]
            k_star, k_ss = cross_kernel(SPEC, embeddings, query)
            p = posterior(state, k_star, k_ss)
            assert 0.0 <= p.variance <= k_ss + 1e-12

    def test_monotone_information(self):
        # conditioning on one more point never increases posterior variance
        rng = np.random.default_rng(9)
        for trial in range(10):
            Z = rng.normal(size=(6, 2))
            q = rng.normal(size=(1, 2))
            k_star_full, k_ss = cross_kernel(SPEC, [Z], [q])
            for n_small in (3, 4, 5):
                K_small = empirical_kernel_exact(SPEC, [Z[:n_small]])
                K_big = empirical_kernel_exact(SPEC, [Z[: n_small + 1]])
                v_small = posterior(
                    gp_state_exact(K_small, np.zeros(n_small), 0.0), k_star_full[:n_small], k_ss
                ).variance
                v_big = posterior(
                    gp_state_exact(K_big, np.zeros(n_small + 1), 0.0),
                    k_star_full[: n_small + 1],
                    k_ss,
                ).variance
                assert v_big <= v_small + 1e-10

    def test_batch_matches_single(self):
        rng = np.random.default_rng(10)
        K, embeddings = random_kernel(5, rng)
        y = rng.normal(size=5)
        state = gp_state_exact(K, y, 0.1)
        queries = [rng.normal(size=(3, 2)) for _ in embeddings]
        from dpkl.kernels import cross_kernel_batch

        K_star, k_ss = cross_kernel_batch(SPEC, embeddings, queries)
        means, variances = posterior_batch(state, K_star, k_ss)
        for i in range(3):
            single = [Z[i : i + 1] for Z in queries]
            ks, kss = cross_kernel(SPEC, embeddings, single)
            p = posterior(state, ks, kss)
            np.testing.assert_allclose(means[i], p.mean, atol=1e-12)
            np.testing.assert_allclose(variances[i], p.variance, atol=1e-12)

    def test_k_star_length_checked(self):
        state = gp_state_exact(np.eye(3), np.zeros(3), 0.1)
        with pytest.raises(DimensionMismatch):
            posterior(state, np.zeros(4), 0.5)

    def test_inconsistent_inputs_raise(self):
        state = gp_state_exact(np.eye(2) * 0.5, np.zeros(2), 0.0)
        with pytest.raises(InternalConsistencyError):
            posterior(state, np.array([0.5, 0.5]), k_ss=0.0)

    def test_batch_clamps_as_max_with_zero(self):
        # k_ss of the identity state gives each variance directly: cancellation
        # noise clamps to +0.0, while -0.0 and NaN pass through as max(v, 0) does
        state = gp_state_exact(np.eye(2), np.zeros(2), 0.0)
        _, v = posterior_batch(state, np.zeros((4, 2)), np.array([-1e-9, -0.0, np.nan, 0.5]))
        assert [math.copysign(1.0, x) for x in v[:2]] == [1.0, -1.0]
        assert v[0] == 0.0 and np.isnan(v[2]) and v[3] == 0.5

    def test_batch_names_the_first_variance_below_tolerance(self):
        state = gp_state_exact(np.eye(2), np.zeros(2), 0.0)
        with pytest.raises(InternalConsistencyError, match=r"-2\.000e-06"):
            posterior_batch(state, np.zeros((3, 2)), np.array([0.5, -2e-6, -3e-6]))


class TestVarianceRegularizer:
    def test_coincident_points_fully_explained(self):
        rng = np.random.default_rng(11)
        Z = rng.normal(size=(4, 2))
        K = empirical_kernel_exact(SPEC, [Z])
        state = gp_state_exact(K, np.zeros(4), noise_var=0.0)
        cross = [cross_kernel(SPEC, [Z], [Z[i : i + 1]]) for i in range(4)]
        assert variance_regularizer(state, cross) < 1e-6

    def test_far_points_give_prior_variance(self):
        rng = np.random.default_rng(12)
        Z = rng.normal(size=(4, 2))
        state = gp_state_exact(empirical_kernel_exact(SPEC, [Z]), np.zeros(4), 0.1)
        far = [cross_kernel(SPEC, [Z], [np.full((1, 2), 60.0 + i)]) for i in range(3)]
        np.testing.assert_allclose(variance_regularizer(state, far), 3 * 0.5, rtol=1e-10)

    def test_equals_projection_residual_per_point(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            embeddings = [rng.normal(size=(5, 2)) for _ in range(2)]
            K = empirical_kernel_exact(SPEC, embeddings)
            state = gp_state_exact(K, rng.normal(size=5), noise_var=0.0, base_jitter=0.0)
            query = [rng.normal(size=(1, 2)) for _ in embeddings]
            k_star, k_ss = cross_kernel(SPEC, embeddings, query)
            reg = variance_regularizer(state, [(k_star, k_ss)])
            oracle = projection_residual_oracle(K, k_star, k_ss)
            np.testing.assert_allclose(reg, oracle, atol=1e-10)

    def test_empty_set_rejected(self):
        state = gp_state_exact(np.eye(2), np.zeros(2), 0.1)
        with pytest.raises(EmptyUnlabeledSet):
            variance_regularizer(state, [])


class TestProjectionResidualOracle:
    def test_training_point_in_span(self):
        rng = np.random.default_rng(14)
        Z = rng.normal(size=(4, 2))
        K = empirical_kernel_exact(SPEC, [Z])
        k_star, k_ss = cross_kernel(SPEC, [Z], [Z[0:1]])
        assert abs(projection_residual_oracle(K, k_star, k_ss)) < 1e-8

    def test_orthogonal_embeddings(self):
        K = 0.5 * np.eye(3)
        np.testing.assert_allclose(
            projection_residual_oracle(K, np.zeros(3), 0.5), 0.5, rtol=1e-14
        )

    def test_singular_gram_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            projection_residual_oracle(0.5 * np.ones((3, 3)), np.zeros(3), 0.5)
