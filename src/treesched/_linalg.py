"""Symmetric positive-definite linear algebra helpers.

A covariance step is a prediction M = A X A^T + Q followed by a measurement
update, and the package has one form of each: ``predict`` and
``covariance_update``. The update inverts only the innovation covariance of
the observation rows it is given, so rows scaled by sqrt(p_i) give the
lower-bound map with fractional sensor weights, and a Monte Carlo step with
no report is the prediction alone. Products A X A^T, C X C^T, inverses and
``LinearSystem.info_sum`` are symmetrized where they are formed; a sum of
exactly symmetric arrays is exact and is left alone. Inversions raise
``SingularMatrix`` on a failed Cholesky, never regularizing.
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
    return 0.5 * (M + M.swapaxes(-1, -2))


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


def pbh_observable(A: np.ndarray, eigs: np.ndarray, C: np.ndarray, min_modulus: float) -> bool:
    """PBH test: every eigenvalue lambda of A (given as ``eigs``) with
    |lambda| >= min_modulus must be observable through C, i.e.
    rank [lambda*I - A; C] = n.

    min_modulus 0 tests observability of (C, A), 1 - UNIT_CIRCLE_MARGIN
    detectability. Robust to exactly-zero rows in C, which is why it is
    preferred over a Gramian test for schedules with p_i = 0.
    """
    n = A.shape[0]
    for lam in eigs:
        if abs(lam) < min_modulus:
            continue
        stacked = np.vstack([lam * np.eye(n) - A, C.astype(complex)])
        if matrix_rank(stacked) < n:
            return False
    return True


def predict(A: np.ndarray, Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The prediction sym(A X A^T) + Q of a covariance X or of a stack of them."""
    return symmetrize(A @ X @ A.T) + Q


def covariance_update(M: np.ndarray, C: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One covariance-form measurement update of the predicted covariance M:

        M - M C^T S^{-1} C M,   S = C M C^T + diag(r),

    for observation rows C (q x n) with independent noise variances r. It
    equals the information form [M^{-1} + C^T diag(r)^{-1} C]^{-1} with one
    q x q inversion instead of two n x n ones. Works on a single M or a
    stack of them, with one C for all or a matching stack of row sets;
    raises SingularMatrix when S is not positive definite.
    """
    MC = M @ C.swapaxes(-1, -2)
    S = symmetrize(C @ MC) + np.diag(r)
    return symmetrize(M - MC @ spd_inverse(S) @ MC.swapaxes(-1, -2))
