"""Deterministic lower bound on the expected error covariance.

Replacing the random per-sensor selection indicators by their means p_i
gives the recursion

    L(X, p) = [(A X A^T + Q)^{-1} + sum_i p_i C_i^T C_i / r_i]^{-1},

whose iterates bound E[P_k] from below for any schedule with marginals p.
It is the Kalman filter's Riccati step for the weighted rows C_p, which
stack sqrt(p_i) C_i, so it runs as the covariance-form update that Monte
Carlo runs: one prediction, then one m x m innovation inverse. The map is
convex in p, concave and monotone in X, and for a detectable pair (C_p, A)
the iteration has a unique fixed point independent of the starting
covariance.
"""

from __future__ import annotations

import numpy as np

from ._linalg import UNIT_CIRCLE_MARGIN, covariance_update, pbh_observable, predict, symmetrize
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
    rows = np.sqrt(as_marginals(p, sys.m))[:, None] * sys.C
    return covariance_update(predict(sys.A, sys.Q, as_covariance(sys, X)), rows, sys.r)


def detectable_schedule(sys: LinearSystem, p) -> bool:
    """PBH detectability of the mean-weighted pair (C_p, A), C_p with rows sqrt(p_i) C_i."""
    p = as_marginals(p, sys.m)
    return pbh_observable(sys.A, sys.eigvals, np.sqrt(p)[:, None] * sys.C, 1.0 - UNIT_CIRCLE_MARGIN)


def L_infinity(sys: LinearSystem, X0: np.ndarray, p) -> np.ndarray:
    """Iterate L(., p) from X0 to its fixed point, for one schedule or a stack.

    p of shape (m,) gives the (n, n) fixed point; a stack of shape (B, m)
    gives (B, n, n), every row checked as ``as_marginals`` checks one
    schedule. Detectability of each (C_p, A) is checked first; an
    undetectable row raises Diverged without iterating. Every row starts
    from X0 and leaves the stack when its Frobenius change falls below
    FIXED_POINT_TOL * (1 + ||L||_F), so a row's fixed point has the bits it
    has when iterated alone. Hitting the cap of FIXED_POINT_MAX_ITER
    iterations raises MaxIterations (near-marginal detectability).
    """
    stacked = np.ndim(p) == 2
    rows = [as_marginals(w, sys.m) for w in (p if stacked else [p])]
    if not all(detectable_schedule(sys, w) for w in rows):
        raise Diverged("(C_p, A) is not detectable; the iteration has no bounded limit")
    C = np.sqrt(np.reshape(rows, (-1, sys.m)))[:, :, None] * sys.C  # (B, m, n) weighted rows
    L = np.repeat(symmetrize(as_covariance(sys, X0))[None], len(rows), axis=0)
    out = np.empty_like(L)
    live = np.arange(len(rows))  # the rows of out that L and C still iterate
    for _ in range(FIXED_POINT_MAX_ITER):
        L_next = covariance_update(predict(sys.A, sys.Q, L), C, sys.r)
        step = np.linalg.norm(L_next - L, axis=(1, 2))
        done = step <= FIXED_POINT_TOL * (1.0 + np.linalg.norm(L_next, axis=(1, 2)))
        if done.any():
            out[live[done]] = L_next[done]
            live, L_next, C = live[~done], L_next[~done], C[~done]
        if not live.size:
            return out if stacked else out[0]
        L = L_next
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
