import numpy as np
import pytest
from helpers import det_cofactor, inv_chol

from dpkl.errors import DimensionMismatch, NotPositiveDefinite
from dpkl.linalg import CholFactor, cholesky, logdet_chol, solve_chol


def random_spd(n, rng, scale=1.0):
    B = rng.normal(size=(n, n))
    return B @ B.T + scale * np.eye(n)


class TestCholesky:
    def test_identity_needs_no_jitter(self):
        f = cholesky(np.eye(3), base_jitter=1e-8)
        np.testing.assert_array_equal(f.L, np.eye(3))
        assert f.jitter_used == 0.0

    def test_reconstruction(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        f = cholesky(a)
        np.testing.assert_allclose(f.L @ f.L.T, a, atol=1e-12)
        assert np.all(np.diag(f.L) > 0)

    def test_rank_deficient_forces_jitter(self):
        f = cholesky(np.ones((2, 2)), base_jitter=1e-8)
        assert f.jitter_used > 0.0
        target = np.ones((2, 2)) + f.jitter_used * np.eye(2)
        rel = np.linalg.norm(f.L @ f.L.T - target) / np.linalg.norm(target)
        assert rel < 1e-8

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(-np.eye(3), base_jitter=1e-8)

    def test_zero_base_jitter_is_single_attempt(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.ones((2, 2)), base_jitter=0.0)

    def test_no_jitter_when_well_conditioned(self):
        # diagonally dominant matrices with min eigenvalue above 1e-6
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(2, 8)
            a = rng.normal(size=(n, n))
            a = 0.5 * (a + a.T)
            np.fill_diagonal(a, np.abs(a).sum(axis=1) + 1.0)
            assert np.linalg.eigvalsh(a).min() > 1e-6
            assert cholesky(a).jitter_used == 0.0

    def test_asymmetric_rejected(self):
        with pytest.raises(DimensionMismatch):
            cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSolve:
    def test_identity(self):
        f = cholesky(np.eye(3))
        np.testing.assert_array_equal(solve_chol(f, np.array([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_diagonal(self):
        f = cholesky(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(solve_chol(f, np.array([4.0, 9.0])), [1.0, 1.0])

    def test_residual_oracle(self):
        rng = np.random.default_rng(1)
        a = random_spd(5, rng)
        b = rng.normal(size=5)
        x = solve_chol(cholesky(a), b)
        assert np.max(np.abs(a @ x - b)) < 1e-10

    def test_matrix_rhs(self):
        rng = np.random.default_rng(2)
        a = random_spd(4, rng)
        B = rng.normal(size=(4, 3))
        X = solve_chol(cholesky(a), B)
        np.testing.assert_allclose(a @ X, B, atol=1e-10)

    def test_dimension_mismatch(self):
        f = cholesky(np.eye(3))
        with pytest.raises(DimensionMismatch):
            solve_chol(f, np.ones(4))

    def test_reconstruction_property(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = rng.integers(1, 9)
            a = random_spd(n, rng)
            b = rng.normal(size=n)
            x = solve_chol(cholesky(a), b)
            assert np.max(np.abs(a @ x - b)) < 1e-9 * max(np.max(np.abs(b)), 1.0)


class TestLogdet:
    def test_identity_is_zero(self):
        assert logdet_chol(cholesky(np.eye(5))) == 0.0

    def test_diagonal(self):
        f = cholesky(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(logdet_chol(f), np.log(36.0), rtol=1e-14)

    def test_against_cofactor_determinant(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = random_spd(4, rng)
            f = cholesky(a)
            jittered = a + f.jitter_used * np.eye(4)
            np.testing.assert_allclose(
                logdet_chol(f), np.log(det_cofactor(jittered)), rtol=1e-10
            )

    def test_monotone_in_jitter(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_spd(4, rng, scale=0.1)
            base = logdet_chol(cholesky(a))
            for eps in (1e-6, 1e-3, 1e-1):
                assert logdet_chol(cholesky(a + eps * np.eye(4))) >= base


def test_inv_chol_matches_inverse():
    rng = np.random.default_rng(6)
    a = random_spd(5, rng)
    np.testing.assert_allclose(inv_chol(cholesky(a)), np.linalg.inv(a), atol=1e-9)


def test_factor_records_dimension():
    f = cholesky(np.eye(4))
    assert isinstance(f, CholFactor)
    assert f.n == 4
