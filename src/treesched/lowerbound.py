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

``L_infinity`` finds that fixed point for one schedule by iterating the
map from a given start, the reference method. ``_doubling`` solves the same
Riccati equation for a stack of schedules by structure-preserving doubling,
which needs no start and converges quadratically; the exhaustive baseline
runs its candidates through it.
"""

from __future__ import annotations

import numpy as np

from ._linalg import UNIT_CIRCLE_MARGIN, covariance_update, pbh_observable, predict, symmetrize
from .errors import DimensionMismatch, Diverged, InvalidInput, MaxIterations, SingularMatrix
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
    """PBH detectability of the mean-weighted pair (C_p, A), C_p with rows sqrt(p_i) C_i.

    p must already be checked marginals of shape (m,), as ``as_marginals``
    or ``indicator`` return; it is not checked again here.
    """
    return pbh_observable(sys.A, sys.eigvals, np.sqrt(p)[:, None] * sys.C, 1.0 - UNIT_CIRCLE_MARGIN)


def L_infinity(sys: LinearSystem, X0: np.ndarray, p) -> np.ndarray:
    """Iterate L(., p) from X0 to the fixed point of one schedule p of shape (m,).

    A stack of schedules raises DimensionMismatch (``_doubling`` solves
    stacks), and an undetectable (C_p, A) raises Diverged before any step.
    The loop stops when a step moves L by at most FIXED_POINT_TOL *
    (1 + ||L||_F). That bounds the step, not the distance to the limit:
    slowly contracting schedules stop up to 1.4e-8 relative from it (random
    156 of the baseline winner test), where ``_doubling`` lands within
    2.2e-13. A non-finite step raises Diverged at once, and the cap of
    FIXED_POINT_MAX_ITER iterations raises MaxIterations.
    """
    p = as_marginals(p, sys.m)
    if not detectable_schedule(sys, p):
        raise Diverged("(C_p, A) is not detectable; the iteration has no bounded limit")
    C = np.sqrt(p)[:, None] * sys.C
    L = symmetrize(as_covariance(sys, X0))
    for k in range(FIXED_POINT_MAX_ITER):
        L_next = covariance_update(predict(sys.A, sys.Q, L), C, sys.r)
        step = np.linalg.norm(L_next - L)
        if not np.isfinite(step):
            raise Diverged(f"iteration {k + 1} left the floating-point range")
        if step <= FIXED_POINT_TOL * (1.0 + np.linalg.norm(L_next)):
            return L_next
        L = L_next
    raise MaxIterations(
        f"no fixed point within {FIXED_POINT_MAX_ITER} iterations at tolerance {FIXED_POINT_TOL:g}"
    )


def _doubling(sys: LinearSystem, p: np.ndarray) -> np.ndarray:
    """The fixed points of L(., p) for a (B, m) stack whose rows are checked and
    detectable, by structure-preserving doubling (Chu, Fan & Lin, 2005).

    The predicted covariance M = A L A^T + Q of a fixed point L solves

        M = A M (I + G M)^{-1} A^T + Q,   G = C_p^T R^{-1} C_p.

    From A_0 = A^T, G_0 = G and H_0 = Q, with W = I + G_k H_k,

        A_{k+1} = A_k W^{-1} A_k,
        G_{k+1} = G_k + A_k W^{-1} G_k A_k^T,
        H_{k+1} = H_k + A_k^T H_k W^{-1} A_k,

    and H_k is the 2^k-th iterate of the prediction map from 0: it converges
    quadratically, in about ten steps where the iteration takes hundreds.
    A row leaves the stack when a step moves its H by at most
    FIXED_POINT_TOL * (1 + ||H||_F), and its fixed point is the measurement
    update of its H. W is not symmetric, so W^{-1} is applied with
    ``np.linalg.solve``. The cap of FIXED_POINT_MAX_ITER.bit_length() steps
    covers as many iterates as the plain iteration's cap and raises
    MaxIterations; a non-finite W or H raises Diverged, and a singular W
    raises SingularMatrix.
    """
    C = np.sqrt(p)[:, :, None] * sys.C  # (B, m, n) weighted rows
    G = symmetrize((C.swapaxes(1, 2) / sys.r) @ C)
    H = np.repeat(sys.Q[None], len(p), axis=0)
    A = np.repeat(sys.A.T[None], len(p), axis=0)
    out = np.empty_like(H)
    live = np.arange(len(p))  # the rows of out that A, G, H and C still hold
    for k in range(FIXED_POINT_MAX_ITER.bit_length()):
        W = np.eye(sys.n) + G @ H
        if not np.all(np.isfinite(W)):
            raise Diverged(f"doubling step {k + 1} left the floating-point range")
        try:
            WA, WG = np.split(np.linalg.solve(W, np.concatenate([A, G], axis=2)), 2, axis=2)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix(f"doubling step {k + 1}: I + G H is singular") from exc
        H_next = symmetrize(H + A.swapaxes(1, 2) @ H @ WA)
        if not np.all(np.isfinite(H_next)):
            raise Diverged(f"doubling step {k + 1} left the floating-point range")
        step = np.linalg.norm(H_next - H, axis=(1, 2))
        done = step <= FIXED_POINT_TOL * (1.0 + np.linalg.norm(H_next, axis=(1, 2)))
        if done.any():
            out[live[done]] = covariance_update(H_next[done], C[done], sys.r)
            keep = ~done
            live, H_next, C, A, G, WA, WG = (x[keep] for x in (live, H_next, C, A, G, WA, WG))
        if not live.size:
            return out
        G = symmetrize(G + A @ WG @ A.swapaxes(1, 2))
        A = A @ WA
        H = H_next
    raise MaxIterations(
        f"doubling did not converge within {FIXED_POINT_MAX_ITER.bit_length()} steps "
        f"at tolerance {FIXED_POINT_TOL:g}"
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
