"""Greedy minimization of the asymptotic covariance lower bound.

The algorithm starts from the uniform budget-exhausting schedule, takes
the fixed point of the mean-selection map as its first bound matrix, and
then repeatedly solves the descent-constrained one-step subproblem

    minimize    trace( L(L_prev, p) )
    subject to  L(L_prev, p) <= L_prev   (matrix order),   p feasible,

which is convex: the objective is trace(M(p)^{-1}) with M(p) affine in p,
and the matrix constraint is M(p) >= L_prev^{-1}, also affine. The bound
traces are nonincreasing by construction, so the scheme converges; it is
greedy and makes no global-optimality claim.

The subproblem is solved with a log-det barrier on the descent constraint
(weight decreased geometrically from 1e-2 to 1e-8) and a nonmonotone
spectral projected-gradient method over the marginal polytope. First-order
stationarity is certified by the unit-step projected-gradient residual.
When the descent constraint pins the feasible region to a sliver around
the starting point — which happens whenever the rank-one information
increments of the sensors span enough directions, e.g. independent rows
with m <= n — the solver reports a stall instead: the iterate then already
sits within floating-point width of the subproblem optimum, and the
barrier Hessian is too ill-conditioned for a meaningful residual.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ._linalg import cholesky_or_none, predict, spd_inverse, symmetrize
from .errors import Diverged, InitialDiverged, InvalidInput, SolverStalled
from .lowerbound import L_infinity, L_step, as_covariance
from .model import LinearSystem, validate_system
from .polytope import FeasibleSet, contains, project

MU_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
BARRIER_EPS = 1e-12
PG_TOL = 1e-7
MAX_INNER = 400
DESCENT_SLACK = 1e-8  # allowed lambda_max(L_k - L_{k-1})
MAX_OUTER = 200
OUTER_TOL = 1e-8  # relative per-step trace decrease that ends the greedy loop


def initial_schedule(fs: FeasibleSet) -> np.ndarray:
    """Uniform schedule spending the whole budget, clamped into [0, 1]."""
    total = float(fs.tree.cost.sum())
    value = min(1.0, fs.budget / total)
    return np.full(fs.m, value)


@dataclass(frozen=True)
class GreedyIterate:
    """One greedy step and how the descent subproblem behind it ended.

    status is "start" for iterates[0] (the uniform schedule, which no
    subproblem produced), else "certified" or "stalled"; pg_residual is the
    last projected-gradient residual, iterations the inner iterations.
    """

    p: np.ndarray
    L: np.ndarray
    trace: float
    status: str = "start"
    pg_residual: float = float("nan")
    iterations: int = 0


def solve_descent_subproblem(
    sys: LinearSystem,
    fs: FeasibleSet,
    L_prev: np.ndarray,
    p_start: np.ndarray,
) -> GreedyIterate:
    """One greedy step: best feasible p that does not worsen the bound.

    ``p_start`` must satisfy the descent constraint at L_prev (the previous
    iterate always does), else InvalidInput. Each barrier stage ends
    certified (residual at or below its tolerance), stalled (pinned, or no
    nonmonotone Armijo step down to t = 1e-14 with the residual above it) or
    at MAX_INNER iterations, which raises SolverStalled on the final stage.
    """
    n, m = sys.n, sys.m
    L_prev = symmetrize(as_covariance(sys, L_prev))
    W = spd_inverse(predict(sys.A, sys.Q, L_prev))
    Linv_prev = spd_inverse(L_prev)
    Ct = sys.C.T  # (n, m)
    eye = np.eye(n)

    p0 = project(fs, np.asarray(p_start, dtype=float))

    def M_of(p):
        return W + sys.info_sum(p)

    # Inflate the barrier slack just enough to make the start strictly
    # feasible despite inversion round-off; 1e-12 in well-scaled problems.
    S0 = M_of(p0) - Linv_prev
    lam_min = float(np.linalg.eigvalsh(S0).min())
    if -lam_min > 1e-6 * max(1.0, float(np.linalg.norm(S0, "fro"))):
        raise InvalidInput("p_start violates the descent constraint")
    eps = BARRIER_EPS + max(0.0, -lam_min)

    def evaluate(p, mu):
        M = M_of(p)
        S = M - Linv_prev + eps * eye
        cS = cholesky_or_none(S)
        cM = cholesky_or_none(M)
        if cS is None or cM is None:
            return np.inf, None
        Minv = symmetrize(np.linalg.inv(M))
        logdet = 2.0 * float(np.sum(np.log(np.diag(cS))))
        return float(np.trace(Minv)) - mu * logdet, (Minv, S)

    def gradient(mu, cache):
        Minv, S = cache
        V = Minv @ Ct
        g = -np.einsum("ji,ji->i", V, V) / sys.r
        U = np.linalg.solve(S, Ct)
        g = g - mu * np.einsum("ji,ji->i", U, Ct) / sys.r
        return g

    p = p0
    pg_res = np.inf
    total_iters = 0
    for stage, mu in enumerate(MU_SCHEDULE):
        tol = PG_TOL if stage == len(MU_SCHEDULE) - 1 else max(PG_TOL, mu * 1e-2)
        f, cache = evaluate(p, mu)
        if cache is None:
            # Round-off pushed the iterate out of the barrier domain; with a
            # feasible start this can only be a hair's width.
            status = "stalled"
            break
        g = gradient(mu, cache)
        gnorm = float(np.abs(g).max())
        lam = min(1.0, np.sqrt(m) / max(gnorm, 1e-12))
        hist = deque([f], maxlen=10)
        stage_start = p.copy()
        status = "maxiter"
        for it in range(MAX_INNER):
            total_iters += 1
            if it % 5 == 0 or it == MAX_INNER - 1:
                pg_res = float(np.linalg.norm(p - project(fs, p - g)))
                if pg_res <= tol:
                    status = "certified"
                    break
                if it >= 15 and float(np.abs(p - stage_start).max()) <= 1e-9:
                    # The descent constraint has pinned the iterate; the
                    # whole reachable sliver is narrower than float noise.
                    status = "stalled"
                    break
            d = project(fs, p - lam * g) - p
            gd = float(g @ d)
            # Nonmonotone Armijo search against the largest of the last 10
            # values; without a step the residual decides how the stage ends.
            t, fref = 1.0, max(hist)
            while gd < 0.0 and t >= 1e-14:
                pn = p + t * d
                fn, cn = evaluate(pn, mu)
                if fn <= fref + 1e-4 * t * gd:
                    break
                t *= 0.5
            else:
                pg_res = float(np.linalg.norm(p - project(fs, p - g)))
                status = "certified" if pg_res <= tol else "stalled"
                break
            gn = gradient(mu, cn)
            s = pn - p
            y = gn - g
            sy = float(s @ y)
            lam = min(max(float(s @ s) / sy, 1e-12), 1e12) if sy > 0 else 1e6
            p, g = pn, gn
            hist.append(fn)
        if status == "stalled" and float(np.abs(p - stage_start).max()) <= 1e-9:
            # Pinned at this barrier weight; smaller weights cannot widen
            # the sliver, so stop burning stages.
            break

    if status == "maxiter":
        raise SolverStalled(
            f"projected-gradient stationarity {pg_res:g} not reached within "
            f"{MAX_INNER} iterations on the final barrier stage"
        )
    L_k = L_step(sys, L_prev, p)
    return GreedyIterate(
        p=p,
        L=L_k,
        trace=float(np.trace(L_k)),
        status=status,
        pg_residual=pg_res,
        iterations=total_iters,
    )


@dataclass(frozen=True)
class GreedyTrace:
    """Full record of one greedy run.

    iterates[0] holds the initial schedule and bound; p_star is the final
    schedule, L_inf the fixed point of the mean map at p_star (computed
    from Sigma0), and fixed_point_gap the relative trace difference between
    that fixed point and the limit of the descent iterates.
    """

    iterates: tuple
    p_star: np.ndarray
    L_inf: np.ndarray
    converged: bool
    fixed_point_gap: float

    @property
    def trace_L_inf(self) -> float:
        return float(np.trace(self.L_inf))


def greedy_optimize(sys: LinearSystem, fs: FeasibleSet) -> GreedyTrace:
    """Run the full greedy scheme and cross-check its limit.

    Stops when the per-step trace decrease falls below OUTER_TOL relative, or
    when the schedule itself stops moving (the remaining steps then iterate
    the mean map at fixed p, whose limit is computed directly). Raises
    InitialDiverged when even the uniform starting schedule cannot
    stabilize the estimator, i.e. the budget is too small.
    """
    validate_system(sys)
    p = initial_schedule(fs)
    try:
        L = L_infinity(sys, np.eye(sys.n), p)
    except Diverged as exc:
        raise InitialDiverged(
            "the uniform initial schedule is undetectable; increase the budget"
        ) from exc
    iterates = [GreedyIterate(p=p, L=L, trace=float(np.trace(L)))]
    converged = False
    prev_dp = np.inf
    for _ in range(MAX_OUTER):
        step = solve_descent_subproblem(sys, fs, L, p)
        if not contains(fs, step.p):
            raise SolverStalled("subproblem returned an infeasible schedule")
        worst = float(np.linalg.eigvalsh(step.L - L).max())
        if worst > DESCENT_SLACK:
            raise SolverStalled(
                f"descent constraint violated by {worst:g} (limit {DESCENT_SLACK:g})"
            )
        decrease = iterates[-1].trace - step.trace
        dp = float(np.abs(step.p - p).max())
        p, L = step.p, step.L
        iterates.append(step)
        if decrease <= OUTER_TOL * max(step.trace, 1e-300):
            converged = True
            break
        if dp <= 1e-10 and prev_dp <= 1e-10:
            # The schedule has stopped moving; the remaining outer steps
            # would only iterate the mean map at fixed p.
            converged = True
            break
        prev_dp = dp

    p_star = p
    L_tail = L_infinity(sys, L, p_star)  # limit of the descent iterates
    L_inf = L_infinity(sys, sys.Sigma0, p_star)
    gap = abs(np.trace(L_inf) - np.trace(L_tail)) / max(abs(np.trace(L_tail)), 1e-300)
    if gap > 1e-6:
        raise SolverStalled(
            f"fixed point from Sigma0 disagrees with the iterate limit "
            f"(relative gap {gap:g})"
        )
    return GreedyTrace(
        iterates=tuple(iterates),
        p_star=p_star,
        L_inf=L_inf,
        converged=converged,
        fixed_point_gap=float(gap),
    )
