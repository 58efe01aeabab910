"""Symmetric positive-definite linear algebra helpers.

Every covariance step in the package (the lower-bound map, the Riccati
map g_T and the batched Monte Carlo paths) is one call of ``info_update``,
so the same two numerical policies apply everywhere. Products A X A^T,
inverses and ``LinearSystem.info_sum`` are symmetrized where they are
formed; a sum of exactly symmetric arrays is exact and is left alone.
Inversions raise ``SingularMatrix`` on a failed Cholesky, never regularizing.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

# Relative singular-value cutoff used by every rank test in the package.
RANK_TOL = 1e-10

# Eigenvalues of A with modulus above 1.0 minus this float-noise margin
# count as "not stable" for the PBH detectability test.
UNIT_CIRCLE_MARGIN = 1e-9


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return (M + M^T)/2, batched over leading axes."""
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def spd_inverse(M: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive-definite matrix (or stack of them).

    Raises SingularMatrix if the Cholesky factorization fails, i.e. the
    input is not numerically positive definite.
    """
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(
            "matrix is not positive definite within floating-point tolerance"
        ) from exc
    return symmetrize(np.linalg.inv(M))


def cholesky_or_none(M: np.ndarray):
    """Cholesky factor of M, or None when M is not positive definite."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None


def matrix_rank(M: np.ndarray) -> int:
    """Rank by SVD with a cutoff relative to the largest singular value."""
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > RANK_TOL * s[0]))


def pbh_observable(A: np.ndarray, C: np.ndarray, min_modulus: float) -> bool:
    """PBH test: every eigenvalue lambda of A with |lambda| >= min_modulus
    must be observable through C, i.e. rank [lambda*I - A; C] = n.

    min_modulus 0 tests observability of (C, A), 1 - UNIT_CIRCLE_MARGIN
    detectability. Robust to exactly-zero rows in C, which is why it is
    preferred over a Gramian test for schedules with p_i = 0.
    """
    n = A.shape[0]
    eigs = np.linalg.eigvals(A)
    for lam in eigs:
        if abs(lam) < min_modulus:
            continue
        stacked = np.vstack([lam * np.eye(n) - A, C.astype(complex)])
        if matrix_rank(stacked) < n:
            return False
    return True


def info_update(
    A: np.ndarray, Q: np.ndarray, X: np.ndarray, info_sum: np.ndarray
) -> np.ndarray:
    """One information-form covariance step:

        [(A X A^T + Q)^{-1} + info_sum]^{-1}

    where info_sum is the accumulated C_i^T C_i / r_i contribution of the
    reporting sensors. Works on a single matrix or a stack of X's (with a
    matching stack of info_sum's).
    """
    Z = spd_inverse(symmetrize(A @ X @ A.T) + Q)
    return spd_inverse(Z + info_sum)
