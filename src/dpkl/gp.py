"""GP marginal likelihood, its kernel gradient, and batched posterior prediction.

A GpState freezes what prediction needs: the Cholesky factor of
K + sigma^2 I and the solve vector alpha. ``gp_state_exact`` is the one
builder for both kernel routes: the rff route hands it R R^T, and the state
keeps nothing of R. States are immutable once built; posterior queries may
share one state freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InternalConsistencyError

# Posterior variance more negative than this is a genuine inconsistency, not
# floating-point cancellation.
_VARIANCE_SLACK = -1e-8


@dataclass(frozen=True)
class GpState:
    """Assembled GP over n training points.

    chol factors K + sigma^2 I, where K is the dense kernel or, on the rff
    route, R R^T with R the feature factor.
    """

    chol: linalg.CholFactor
    alpha: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.y.shape[0]


def gp_state_exact(
    K: np.ndarray, y: np.ndarray, noise_var: float = 0.1, base_jitter: float = linalg.BASE_JITTER
) -> GpState:
    """Build a state from a dense kernel matrix: the distributional kernel, or
    R R^T on the rff route.

    noise_var may be 0 for oracle checks on strictly positive-definite kernels.
    linalg.cholesky checks and symmetrizes K + sigma^2 I.
    """
    if noise_var < 0:
        raise ValueError("noise_var must be >= 0")
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if K.shape != (y.shape[0], y.shape[0]):
        raise DimensionMismatch(f"kernel shape {K.shape} != ({y.shape[0]}, {y.shape[0]})")
    f = linalg.cholesky(K + noise_var * np.eye(y.shape[0]), base_jitter)
    return GpState(chol=f, alpha=linalg.solve_chol(f, y), y=y)


def nll(state: GpState) -> float:
    """Negative log marginal likelihood, constant term excluded.

    0.5 * y^T alpha + 0.5 * logdet(K + sigma^2 I); the (n/2) log 2pi constant
    is omitted everywhere, consistently.
    """
    return float(0.5 * state.y @ state.alpha + 0.5 * linalg.logdet_chol(state.chol))


def nll_grad_kernel(state: GpState) -> np.ndarray:
    """d nll / d K = 0.5 ((K + sigma^2 I)^{-1} - alpha alpha^T), symmetric."""
    Ainv = linalg.solve_chol(state.chol, np.eye(state.n))
    S = 0.5 * (Ainv - np.outer(state.alpha, state.alpha))
    return 0.5 * (S + S.T)


def posterior_batch(
    state: GpState, K_star: np.ndarray, k_ss: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized posterior over rows of K_star (n_q, n); returns (means, variances)."""
    K_star = np.asarray(K_star, dtype=np.float64)
    k_ss = np.asarray(k_ss, dtype=np.float64).reshape(-1)
    if K_star.ndim != 2 or K_star.shape[1] != state.n or K_star.shape[0] != k_ss.shape[0]:
        raise DimensionMismatch("K_star/k_ss shapes inconsistent with the state")
    means = K_star @ state.alpha
    B = linalg.solve_chol(state.chol, K_star.T)  # (n, n_q)
    v = k_ss - np.sum(K_star.T * B, axis=0)
    below = np.flatnonzero(v < _VARIANCE_SLACK)
    if below.size:
        raise InternalConsistencyError(f"posterior variance {v[below[0]]:.3e} below tolerance")
    # max(v, 0) entry for entry: -0.0 and NaN pass through as they are
    return means, np.where(v < 0.0, 0.0, v)
