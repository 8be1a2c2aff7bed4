"""Dense symmetric linear algebra for the GP: jittered Cholesky, solves, logdet.

Everything runs in float64 on plain numpy arrays. Matrices stay small
(n of a few hundred), so direct O(n^3) factorizations are used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DimensionMismatch, NotPositiveDefinite

# Jitter ladder: 0, then base * 10**k for k = 0..6; BASE_JITTER is the first
# rung for training and prediction alike.
BASE_JITTER = 1e-8
_JITTER_POWERS = 7


def check_symmetric(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Validate that ``a`` is square and symmetric to within ``tol``.

    Returns the exactly symmetrized matrix (a + a.T)/2 so downstream code
    never sees asymmetry from accumulated round-off.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatch("matrix must have dimension >= 1")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > tol * scale:
        raise DimensionMismatch("matrix is not symmetric within tolerance")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class CholFactor:
    """Lower-triangular Cholesky factor of a (possibly jittered) SPD matrix."""

    L: np.ndarray
    jitter_used: float = 0.0

    @property
    def n(self) -> int:
        return self.L.shape[0]


def cholesky(a: np.ndarray, base_jitter: float = BASE_JITTER) -> CholFactor:
    """Factor ``a + jitter*I = L L^T``, escalating jitter until it succeeds.

    Jitter attempts are 0, then base_jitter * 10**k for k = 0..6. The smallest
    working value is recorded in the returned factor. With base_jitter == 0
    only the bare factorization is attempted.

    Raises NotPositiveDefinite if every attempt fails, which signals a
    degenerate kernel (e.g. duplicated inputs with zero noise).
    """
    a = check_symmetric(a)
    if base_jitter < 0:
        raise ValueError("base_jitter must be >= 0")
    jitters = [0.0]
    if base_jitter > 0:
        jitters += [base_jitter * 10.0**k for k in range(_JITTER_POWERS)]
    eye = np.eye(a.shape[0])
    for jitter in jitters:
        try:
            L = np.linalg.cholesky(a + jitter * eye)
        except np.linalg.LinAlgError:
            continue
        return CholFactor(L=L, jitter_used=jitter)
    raise NotPositiveDefinite(
        f"matrix of dim {a.shape[0]} not factorizable even with jitter "
        f"{jitters[-1]:.3e}"
    )


def solve_chol(f: CholFactor, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b via two triangular solves.

    ``b`` may be a vector of length n or a matrix with n rows.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != f.n:
        raise DimensionMismatch(f"rhs has leading dim {b.shape[0]}, factor has n={f.n}")
    # inputs come from our own factorization; skip scipy's finiteness scan
    y = solve_triangular(f.L, b, lower=True, check_finite=False)
    return solve_triangular(f.L.T, y, lower=False, check_finite=False)


def logdet_chol(f: CholFactor) -> float:
    """log det of the factored matrix: 2 * sum(log diag(L))."""
    return float(2.0 * np.sum(np.log(np.diag(f.L))))
