"""The feasible set of marginal selection probabilities.

A marginal vector p is realizable by some distribution over transmission
subtrees within an expected-energy budget E_d exactly when

    0 <= p_i <= 1,    sum_i c_i p_i <= E_d,    p_i <= p_{parent(i)}

(the last family only for sensors whose parent is another sensor). The set
is a polytope; Euclidean projection onto it dualizes the budget constraint:

    p(lam) = proj_B(q - lam * c),      B = box  ∩  ordering cone,

where proj_B is an exact isotonic regression on the forest of sensor
branches, computed by merging violating blocks from the leaves up, followed
by a clamp into [0, 1] (clamping commutes with isotonic projection under
uniform bounds). As c > 0, p(lam) is entrywise nonincreasing in lam. So
when the budget gaps g = c @ p - E_d at the two ends of a multiplier bracket
are g_lo > 0 >= g_hi, the projection lies between the two end points, and
their interpolant at g = 0 lies within (g_lo - g_hi) / min(c) of it in l1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidBudget, InvalidInput, SolverStalled
from .model import MARGINAL_TOL, SensorTree

KKT_TOL = 1e-8


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
    """Largest amount by which a child marginal exceeds its parent's, floor 0.0 (finite p)."""
    inner = tree.parent > 0
    return max(0.0, float(np.max(p[inner] - p[tree.parent[inner] - 1], initial=0.0)))


def contains(fs: FeasibleSet, p, tol: float = MARGINAL_TOL) -> bool:
    """Membership test with slack ``tol`` on every constraint."""
    p = np.asarray(p, dtype=float)
    if not feasibility_of_marginals(fs.tree, p, tol):
        return False
    return float(fs.tree.cost @ p) <= fs.budget + tol


def feasibility_of_marginals(tree: SensorTree, p, tol: float = MARGINAL_TOL) -> bool:
    """True iff some tree distribution realizes p: box plus parent ordering.

    This is the marginal-realizability condition; the energy budget plays
    no role here.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (tree.m,):
        return False
    if not (p.min() >= -tol and p.max() <= 1.0 + tol):  # also rejects NaN
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
    for v in reversed(tree.root_first):
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
    for v in tree.root_first:
        x[v - 1] = x[tree.parent_of(v) - 1] if merged[v] else total[v] / size[v]
    return x


def project(fs: FeasibleSet, q) -> np.ndarray:
    """Euclidean projection of q onto the feasible set (unique by strict convexity).

    Where the budget binds, this is the interpolant at g = 0 of a multiplier
    bracket's end points (module docstring), once the end gaps put it within
    KKT_TOL of the projection or no double lies strictly between the two
    multipliers. It meets the box and the ordering exactly and spends the
    budget to rounding. A q of the wrong length raises DimensionMismatch, a
    non-finite one InvalidInput; SolverStalled means that max(q / c)
    overflows or that 200 steps reached neither stop.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (fs.m,):
        raise DimensionMismatch(f"expected a vector of length {fs.m}, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise InvalidInput("the point to project must be finite")

    c = fs.tree.cost.astype(float)

    def p_of(lam: float) -> np.ndarray:
        return np.clip(isotonic_tree_project(fs.tree, q - lam * c), 0.0, 1.0)

    p_lo = p_of(0.0)
    g_lo = float(c @ p_lo) - fs.budget
    if g_lo <= 0.0:
        return p_lo

    # p(lam) is 1 up to min((q - 1) / c) and 0 from max(q / c) on. Overflow is
    # harmless: q / c = inf is reported, and lam * c = inf gives p = 0 as it should.
    with np.errstate(over="ignore"):
        lam_lo, lam_hi = max(0.0, float(np.min((q - 1.0) / c))), float(np.max(q / c))
        if not np.isfinite(lam_hi):
            raise SolverStalled(f"the budget multiplier bracket overflows (max q/c = {lam_hi:g})")
        p_hi, g_hi = np.zeros_like(q), -fs.budget
        # Illinois regula falsi on damped gaps f; bisect after a step that did not halve.
        f_lo, f_hi, side, halved = g_lo, g_hi, 0, True
        for _ in range(200):
            if g_hi == 0.0 or g_lo - g_hi <= KKT_TOL * c.min():
                break
            width = lam_hi - lam_lo
            lam = lam_hi - width * (f_hi / (f_hi - f_lo))
            if not (halved and lam_lo < lam < lam_hi):
                lam = lam_lo + 0.5 * width
                if not lam_lo < lam < lam_hi:
                    break  # adjacent doubles: the end gaps bound the error
            p = p_of(lam)
            g = float(c @ p) - fs.budget
            if g > 0.0:
                f_hi *= 0.5 if side == -1 else 1.0
                lam_lo, p_lo, g_lo, f_lo, side = lam, p, g, g, -1
            else:
                f_lo *= 0.5 if side == 1 else 1.0
                lam_hi, p_hi, g_hi, f_hi, side = lam, p, g, g, 1
            halved = lam_hi - lam_lo <= 0.5 * width
        else:
            raise SolverStalled("the budget multiplier search reached no stop within 200 steps")
    t = g_lo / (g_lo - g_hi)
    return (1.0 - t) * p_lo + t * p_hi
