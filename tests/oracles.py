"""Independent oracles the tests check the library against.

Everything here deliberately avoids the code paths under test: fixed
points come from the scalar quadratic, expectations from propagating a
discretized value distribution, optima from brute-force grid search,
spanning trees from exhaustive edge-subset enumeration, and baseline rows
from one single-schedule ``L_infinity`` call per candidate instead of the
stacked blocks of ``best_deterministic``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from treesched.baseline import enumerate_subtrees
from treesched.errors import Diverged
from treesched.lowerbound import L_infinity
from treesched.model import indicator, tree_energy
from treesched.properties import random_system, random_tree


def scalar_fixed_point(a: float, q: float, c: float, r: float, s: float) -> float:
    """Fixed point of x -> 1 / (1/(a^2 x + q) + s c^2 / r) for s > 0.

    Clearing denominators gives the quadratic
        (s c^2 / r) a^2 x^2 + (1 + s c^2 q / r - a^2) x - q = 0,
    whose positive root is the fixed point.
    """
    w = s * c * c / r
    if w == 0.0:
        if abs(a) >= 1.0:
            raise ValueError("no bounded fixed point without sensing")
        return q / (1.0 - a * a)
    A2 = a * a
    bcoef = 1.0 + w * q - A2
    disc = bcoef * bcoef + 4.0 * w * A2 * q
    return (-bcoef + math.sqrt(disc)) / (2.0 * w * A2)


def grid_chain_expected_traces(
    maps,
    probs,
    x0: float,
    steps: int,
    lo: float = 0.0,
    hi: float = 80.0,
    points: int = 40001,
) -> np.ndarray:
    """Expected value of a random scalar recursion, by discretizing the
    distribution of the state onto a uniform grid.

    Each step applies every branch map to all grid values and deposits the
    branch-weighted mass onto the two neighboring grid points by linear
    interpolation; values leaving the grid are clamped to its edges (choose
    ``hi`` so the escaping tail mass is negligible). Returns the expected
    value after each of the ``steps`` steps.
    """
    xs = np.linspace(lo, hi, points)
    h = xs[1] - xs[0]

    def deposit(target: np.ndarray, values: np.ndarray, mass: np.ndarray) -> None:
        pos = np.clip((values - lo) / h, 0.0, points - 1.0)
        idx = np.minimum(pos.astype(np.intp), points - 2)
        frac = pos - idx
        np.add.at(target, idx, mass * (1.0 - frac))
        np.add.at(target, idx + 1, mass * frac)

    mass = np.zeros(points)
    deposit(mass, np.array([x0]), np.array([1.0]))
    out = np.empty(steps)
    for k in range(steps):
        new = np.zeros(points)
        for f, pr in zip(maps, probs):
            deposit(new, f(xs), mass * pr)
        mass = new
        out[k] = float(mass @ xs)
    return out


def _feasible_mask(tree, cost, budget, P: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rows of P inside the marginal polytope."""
    ok = np.ones(P.shape[0], dtype=bool)
    ok &= P @ cost <= budget + tol
    for i in range(1, tree.m + 1):
        j = tree.parent_of(i)
        if j != 0:
            ok &= P[:, i - 1] <= P[:, j - 1] + tol
    return ok


def grid_search_subproblem(
    sys,
    fs,
    L_prev: np.ndarray,
    p_start: np.ndarray,
    resolution: float = 1e-3,
    descent_slack: float = 1e-9,
):
    """Brute-force minimum of trace(L(L_prev, p)) over the feasible grid,
    keeping only points that do not worsen the bound in the matrix order.

    The starting point is always admitted as a candidate (it is feasible by
    construction, and for near-degenerate instances it can be the only
    feasible point at any grid resolution). Returns (best_trace, best_p).

    Supports m <= 3; the m == 3 path requires a scalar state.
    """
    m = fs.m
    cost = fs.tree.cost.astype(float)
    W = np.linalg.inv(sys.A @ L_prev @ sys.A.T + sys.Q)
    W = 0.5 * (W + W.T)
    Linv = np.linalg.inv(L_prev)
    Linv = 0.5 * (Linv + Linv.T)
    info = sys.info
    axis = np.arange(0.0, 1.0 + resolution / 2, resolution)

    def eval_points(P: np.ndarray) -> tuple:
        """(traces, descent_ok) for candidate rows of P."""
        Ms = W[None] + np.tensordot(P, info, axes=1)
        eig_desc = np.linalg.eigvalsh(Ms - Linv[None])
        ok = eig_desc[:, 0] >= -descent_slack
        eig = np.linalg.eigvalsh(Ms)
        traces = (1.0 / eig).sum(axis=1)
        return traces, ok

    best_trace, best_p = None, None

    def consider(P: np.ndarray) -> None:
        nonlocal best_trace, best_p
        if P.shape[0] == 0:
            return
        traces, ok = eval_points(P)
        traces = np.where(ok, traces, np.inf)
        j = int(np.argmin(traces))
        if np.isfinite(traces[j]) and (best_trace is None or traces[j] < best_trace):
            best_trace = float(traces[j])
            best_p = P[j].copy()

    if m == 1:
        P = axis[:, None]
        P = P[_feasible_mask(fs.tree, cost, fs.budget, P)]
        for chunk in np.array_split(P, max(1, len(P) // 50000)):
            consider(chunk)
    elif m == 2:
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        P = np.column_stack([g1.ravel(), g2.ravel()])
        P = P[_feasible_mask(fs.tree, cost, fs.budget, P)]
        for chunk in np.array_split(P, max(1, len(P) // 50000)):
            consider(chunk)
    elif m == 3:
        if sys.n != 1:
            raise ValueError("the m == 3 grid oracle needs a scalar state")
        # scalar state: trace(M^-1) = 1/(w + s) is decreasing in the scalar
        # information s(p), and the descent filter is s(p) >= s_prev, so the
        # grid optimum maximizes s over the polytope (descent checked after).
        u = info[:, 0, 0]
        w = float(W[0, 0])
        linv = float(Linv[0, 0])
        g2, g3 = np.meshgrid(axis, axis, indexing="ij")
        g2 = g2.ravel()
        g3 = g3.ravel()
        base_s = u[1] * g2 + u[2] * g3
        base_cost = cost[1] * g2 + cost[2] * g3
        pairs = []
        for i in range(1, 4):
            j = fs.tree.parent_of(i)
            if j != 0:
                pairs.append((i - 1, j - 1))
        base_mask = np.ones(g2.shape[0], dtype=bool)
        for child, par in pairs:
            if child != 0 and par != 0:
                cols = (None, g2, g3)
                base_mask &= cols[child] <= cols[par] + 1e-12
        best_s = None
        best_vec = None
        for p1 in axis:
            mask = base_mask & (base_cost <= fs.budget - cost[0] * p1 + 1e-12)
            for child, par in pairs:
                if child == 0:
                    cols = (None, g2, g3)
                    mask &= p1 <= cols[par] + 1e-12
                elif par == 0:
                    cols = (None, g2, g3)
                    mask &= cols[child] <= p1 + 1e-12
            if not mask.any():
                continue
            s_here = np.where(mask, base_s, -np.inf)
            j = int(np.argmax(s_here))
            s_tot = float(base_s[j]) + u[0] * p1
            if best_s is None or s_tot > best_s:
                best_s = s_tot
                best_vec = np.array([p1, g2[j], g3[j]])
        if best_s is not None and w + best_s >= linv - descent_slack:
            best_trace = 1.0 / (w + best_s)
            best_p = best_vec
    else:
        raise ValueError("grid oracle supports m <= 3")

    # the feasible start itself
    P0 = np.asarray(p_start, dtype=float)[None, :]
    traces, ok = eval_points(P0)
    if ok[0] and (best_trace is None or traces[0] < best_trace):
        best_trace, best_p = float(traces[0]), P0[0].copy()
    return best_trace, best_p


def grid_search_projection(fs, q: np.ndarray, resolution: float = 1e-3):
    """Closest grid point of the polytope to q (m <= 2)."""
    m = fs.m
    cost = fs.tree.cost.astype(float)
    axis = np.arange(0.0, 1.0 + resolution / 2, resolution)
    if m == 1:
        P = axis[:, None]
    elif m == 2:
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        P = np.column_stack([g1.ravel(), g2.ravel()])
    else:
        raise ValueError("projection grid oracle supports m <= 2")
    P = P[_feasible_mask(fs.tree, cost, fs.budget, P)]
    d2 = ((P - np.asarray(q, dtype=float)[None, :]) ** 2).sum(axis=1)
    j = int(np.argmin(d2))
    return P[j], math.sqrt(float(d2[j]))


def minimum_spanning_weight_bruteforce(points: np.ndarray, offset: float) -> float:
    """Minimum spanning tree weight of the complete geometric graph by
    enumerating all edge subsets of size V-1 (V <= 6)."""
    V = points.shape[0]
    if V > 6:
        raise ValueError("brute force limited to 6 nodes")
    edges = []
    for a, b in itertools.combinations(range(V), 2):
        d2 = float(((points[a] - points[b]) ** 2).sum())
        edges.append((a, b, offset + d2))
    best = math.inf
    for subset in itertools.combinations(edges, V - 1):
        parent = list(range(V))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for a, b, _ in subset:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            best = min(best, sum(w for _, _, w in subset))
    return best


def kalman_observable(A: np.ndarray, C: np.ndarray) -> bool:
    """Observability of (C, A) by the rank of [C; CA; ...; CA^(n-1)], singular
    values cut at 1e-10 relative to the largest."""
    n = A.shape[0]
    blocks = [C @ np.linalg.matrix_power(A, k) for k in range(n)]
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return s[0] > 0.0 and int(np.sum(s > 1e-10 * s[0])) == n


def criterion2_instance(k: int):
    """(system, tree, budget) of instance k of acceptance criterion 2, drawn
    from default_rng(2024) exactly as the criterion draws it."""
    rng = np.random.default_rng(2024)
    for _ in range(k + 1):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(1, 17))
        sys = random_system(rng, n, m)
        tree = random_tree(rng, m)
        budget = float(rng.uniform(0.2, 0.9)) * float(tree.cost.sum())
    return sys, tree, budget


def per_candidate_rows(sys, tree, budget) -> tuple:
    """``best_deterministic``'s candidate rows, one ``L_infinity`` call per
    affordable subtree; an undetectable one gets trace None."""
    rows = []
    for members in enumerate_subtrees(tree, budget):
        try:
            tr = float(np.trace(L_infinity(sys, sys.Sigma0, indicator(members, sys.m))))
        except Diverged:
            tr = None
        rows.append((tuple(sorted(members)), tree_energy(tree, members), tr))
    return tuple(rows)
