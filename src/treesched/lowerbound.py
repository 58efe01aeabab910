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


def _frobenius(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a stack, with the bits of np.linalg.norm(M[b], "fro")."""
    rows = M.reshape(len(M), 1, M.shape[-1] * M.shape[-2])
    return np.sqrt(rows @ np.swapaxes(rows, -1, -2))[:, 0, 0]


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
    # one info_sum per row: a (B, m) tensordot need not give the (m,) bits
    info = np.array([sys.info_sum(w) for w in rows]).reshape(-1, sys.n, sys.n)
    L = np.repeat(symmetrize(as_covariance(sys, X0))[None], len(rows), axis=0)
    out = np.empty_like(L)
    live = np.arange(len(rows))  # the rows of out that L and info still iterate
    for _ in range(FIXED_POINT_MAX_ITER):
        L_next = info_update(sys.A, sys.Q, L, info)
        done = _frobenius(L_next - L) <= FIXED_POINT_TOL * (1.0 + _frobenius(L_next))
        if done.any():
            out[live[done]] = L_next[done]
            live, L_next, info = live[~done], L_next[~done], info[~done]
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
