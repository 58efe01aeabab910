"""The feasible set of marginal selection probabilities.

A marginal vector p is realizable by some distribution over transmission
subtrees within an expected-energy budget E_d exactly when

    0 <= p_i <= 1,    sum_i c_i p_i <= E_d,    p_i <= p_{parent(i)}

(the last family only for sensors whose parent is another sensor). The set
is a polytope; Euclidean projection onto it is computed exactly by
dualizing the single budget constraint:

    p(lam) = proj_B(q - lam * c),      B = box  ∩  ordering cone,

where proj_B is an exact isotonic regression on the forest of sensor
branches, computed by merging violating blocks from the leaves up, followed
by a clamp into [0, 1] (clamping commutes with isotonic projection under
uniform bounds). The budget usage c @ p(lam) is nonincreasing and
continuous in lam, so the optimal multiplier is found by a safeguarded
regula falsi; because projections are nonexpansive, a multiplier bracket
of width w certifies the answer to within w * ||c||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidBudget
from .model import SensorTree

KKT_TOL = 1e-8
_MEMBERSHIP_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """Marginal schedules realizable on ``tree`` within expected energy ``budget``.

    A zero budget is allowed and collapses the set to {0}; an infinite one
    leaves only the box and the ordering. A negative or NaN budget raises
    InvalidBudget.
    """

    tree: SensorTree
    budget: float

    def __post_init__(self):
        if not self.budget >= 0.0:  # also rejects NaN
            raise InvalidBudget(f"energy budget must be nonnegative, got {self.budget!r}")

    @property
    def m(self) -> int:
        return self.tree.m


def ordering_violation(tree: SensorTree, p: np.ndarray) -> float:
    """Largest amount by which a child marginal exceeds its parent's."""
    worst = 0.0
    for i in range(1, tree.m + 1):
        j = tree.parent_of(i)
        if j != 0:
            worst = max(worst, float(p[i - 1] - p[j - 1]))
    return worst


def contains(fs: FeasibleSet, p, tol: float = _MEMBERSHIP_SLACK) -> bool:
    """Membership test with slack ``tol`` on every constraint."""
    p = np.asarray(p, dtype=float)
    if not feasibility_of_marginals(fs.tree, p, tol):
        return False
    return float(fs.tree.cost @ p) <= fs.budget + tol


def feasibility_of_marginals(tree: SensorTree, p, tol: float = _MEMBERSHIP_SLACK) -> bool:
    """True iff some tree distribution realizes p: box plus parent ordering.

    This is the marginal-realizability condition; the energy budget plays
    no role here.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (tree.m,):
        return False
    if p.size == 0:
        return True
    if p.min() < -tol or p.max() > 1.0 + tol:
        return False
    return ordering_violation(tree, p) <= tol


def isotonic_tree_project(tree: SensorTree, q) -> np.ndarray:
    """Exact L2 projection onto the cone {x : x_i <= x_parent(i)}.

    Pool-adjacent-violators on the tree (Pardalos & Xue, 1999): sensors are
    visited deepest first, each opening a block of its own; while the block
    hanging directly below it with the largest mean exceeds its own mean,
    that block is merged in and its own hanging blocks hang below the
    merged one. Every sensor then takes the mean of its block.
    """
    m = tree.m
    total = [0.0] + [float(x) for x in np.asarray(q, dtype=float)]
    size = [1] * (m + 1)
    below = [list(tree.children_of(v)) for v in range(m + 1)]
    merged = [False] * (m + 1)
    order = sorted(range(1, m + 1), key=tree.depth_of)
    for v in reversed(order):
        hanging = below[v]
        while hanging:
            b = max(hanging, key=lambda u: total[u] / size[u])
            if total[b] / size[b] <= total[v] / size[v]:
                break
            hanging.remove(b)
            hanging.extend(below[b])
            total[v] += total[b]
            size[v] += size[b]
            merged[b] = True

    x = np.empty(m)
    for v in order:
        x[v - 1] = x[tree.parent_of(v) - 1] if merged[v] else total[v] / size[v]
    return x


def project(fs: FeasibleSet, q) -> np.ndarray:
    """Euclidean projection of q onto the feasible set (unique by strict convexity).

    Returns a point that satisfies every constraint exactly (the ordering
    and box are enforced by construction, the budget by the multiplier
    bracket) and lies within KKT_TOL of the true projection.
    """
    q = np.asarray(q, dtype=float)
    m = fs.m
    if q.shape != (m,):
        raise ValueError(f"expected a vector of length {m}")
    if m == 0:
        return q.copy()

    c = fs.tree.cost.astype(float)
    c_norm = float(np.linalg.norm(c))

    def p_of(lam: float) -> np.ndarray:
        return np.clip(isotonic_tree_project(fs.tree, q - lam * c), 0.0, 1.0)

    p0 = p_of(0.0)
    g0 = float(c @ p0) - fs.budget
    if g0 <= 0.0:
        return p0

    lam_lo, g_lo = 0.0, g0
    lam_hi = 1.0
    for _ in range(200):
        g_hi = float(c @ p_of(lam_hi)) - fs.budget
        if g_hi <= 0.0:
            break
        lam_lo, g_lo = lam_hi, g_hi
        lam_hi *= 4.0
    else:
        raise RuntimeError("could not bracket the budget multiplier")

    # Illinois-damped regula falsi on the monotone piecewise-linear usage gap.
    side = 0
    for _ in range(200):
        if (lam_hi - lam_lo) * c_norm <= 0.25 * KKT_TOL:
            break
        denom = g_hi - g_lo
        lam = 0.5 * (lam_lo + lam_hi) if denom == 0.0 else lam_hi - g_hi * (lam_hi - lam_lo) / denom
        if not (lam_lo < lam < lam_hi):
            lam = 0.5 * (lam_lo + lam_hi)
        g = float(c @ p_of(lam)) - fs.budget
        if g > 0.0:
            lam_lo, g_lo = lam, g
            if side == -1:
                g_hi *= 0.5
            side = -1
        else:
            lam_hi, g_hi = lam, g
            if side == 1:
                g_lo *= 0.5
            side = 1
    return p_of(lam_hi)
