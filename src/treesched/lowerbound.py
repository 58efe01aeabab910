"""Deterministic lower bound on the expected error covariance.

Replacing the random per-sensor selection indicators by their means p_i
gives the recursion

    L(X, p) = [(A X A^T + Q)^{-1} + sum_i p_i C_i^T C_i / r_i]^{-1},

whose iterates bound E[P_k] from below for any schedule with marginals p.
The map is convex in p, concave and monotone in X, and for a detectable
weighted pair (C_p, A) with C_p stacking sqrt(p_i) C_i the iteration has a
unique fixed point independent of the starting covariance.
"""

from __future__ import annotations

import numpy as np

from ._linalg import UNIT_CIRCLE_MARGIN, info_update, pbh_observable, symmetrize
from .errors import DimensionMismatch, Diverged, InvalidInput, MaxIterations
from .model import LinearSystem, as_marginals

FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 10**5


def as_covariance(sys: LinearSystem, X) -> np.ndarray:
    """X as a float array; DimensionMismatch unless (n, n), InvalidInput unless finite."""
    X = np.asarray(X, dtype=float)
    if X.shape != (sys.n, sys.n):
        raise DimensionMismatch(f"covariance must be {sys.n}x{sys.n}, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidInput("covariance has non-finite entries")
    return X


def L_step(sys: LinearSystem, X: np.ndarray, p) -> np.ndarray:
    """One application of the mean-selection covariance map."""
    p = as_marginals(p, sys.m)
    return info_update(sys.A, sys.Q, as_covariance(sys, X), sys.info_sum(p))


def detectable_schedule(sys: LinearSystem, p) -> bool:
    """PBH detectability of the mean-weighted pair (C_p, A), C_p with rows sqrt(p_i) C_i."""
    p = as_marginals(p, sys.m)
    return pbh_observable(sys.A, np.sqrt(p)[:, None] * sys.C, 1.0 - UNIT_CIRCLE_MARGIN)


def L_infinity(sys: LinearSystem, X0: np.ndarray, p) -> np.ndarray:
    """Iterate L(., p) from X0 to its fixed point.

    Detectability of (C_p, A) is checked first; an undetectable schedule
    raises Diverged without iterating. Convergence is declared when the
    Frobenius change falls below FIXED_POINT_TOL * (1 + ||L||_F); hitting
    the cap of FIXED_POINT_MAX_ITER iterations raises MaxIterations
    (near-marginal detectability).
    """
    p = as_marginals(p, sys.m)
    if not detectable_schedule(sys, p):
        raise Diverged("(C_p, A) is not detectable; the iteration has no bounded limit")
    info_sum = sys.info_sum(p)
    L = symmetrize(as_covariance(sys, X0))
    for _ in range(FIXED_POINT_MAX_ITER):
        L_next = info_update(sys.A, sys.Q, L, info_sum)
        gap = np.linalg.norm(L_next - L, "fro")
        L = L_next
        if gap <= FIXED_POINT_TOL * (1.0 + np.linalg.norm(L, "fro")):
            return L
    raise MaxIterations(
        f"no fixed point within {FIXED_POINT_MAX_ITER} iterations at tolerance {FIXED_POINT_TOL:g}"
    )


def bound_sequence(sys: LinearSystem, p_seq) -> list:
    """The lower-bound iterates L_0 = Sigma0, L_k = L(L_{k-1}, p_k).

    Accepts a (possibly time-varying) sequence of marginal schedules and
    returns [L_0, L_1, ..., L_K].
    """
    out = [np.array(sys.Sigma0, dtype=float)]
    for p in p_seq:
        out.append(L_step(sys, out[-1], p))
    return out
