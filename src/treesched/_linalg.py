"""Symmetric positive-definite linear algebra helpers.

Every covariance step in the package (the lower-bound map, the Riccati
map g_T and the batched Monte Carlo paths) is one call of ``info_update``,
so the same two numerical policies apply everywhere: results of an
inversion are symmetrized to control floating-point drift, and inversions
go through a Cholesky factorization that raises ``SingularMatrix`` instead
of silently regularizing.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

# Relative singular-value cutoff used by every rank test in the package.
RANK_TOL = 1e-10

# Eigenvalues of A with modulus above this count as "not stable" for the
# PBH detectability test (1.0 minus a float-noise margin).
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


def matrix_rank(M: np.ndarray, tol: float = RANK_TOL) -> int:
    """Rank by SVD with a cutoff relative to the largest singular value."""
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def observability_matrix(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Stack [C; CA; ...; CA^(n-1)]."""
    n = A.shape[0]
    blocks = []
    Ak = np.eye(n)
    for _ in range(n):
        blocks.append(C @ Ak)
        Ak = Ak @ A
    return np.vstack(blocks)


def is_observable(A: np.ndarray, C: np.ndarray, tol: float = RANK_TOL) -> bool:
    n = A.shape[0]
    return matrix_rank(observability_matrix(A, C), tol) == n


def pbh_detectable(A: np.ndarray, C: np.ndarray, tol: float = RANK_TOL) -> bool:
    """PBH test: every eigenvalue of A on or outside the unit circle must be
    observable through C, i.e. rank [lambda*I - A; C] = n.

    Robust to exactly-zero rows in C, which is why it is preferred over a
    Gramian test for schedules with p_i = 0.
    """
    n = A.shape[0]
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape[0] == 0:
        C = C.reshape(0, n)
    eigs = np.linalg.eigvals(A)
    for lam in eigs:
        if abs(lam) < 1.0 - UNIT_CIRCLE_MARGIN:
            continue
        stacked = np.vstack([lam * np.eye(n) - A, C.astype(complex)])
        if matrix_rank(stacked, tol) < n:
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
    return spd_inverse(symmetrize(Z + info_sum))
