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

p(lam) is also piecewise linear. While the pooled blocks stay the same, a
block B's mean falls at rate sum_B c / |B| as lam grows, and the clamp cuts
it at 1 and 0. So the blocks of one PAV pass predict g exactly up to the
next merge or split, and ``project`` steps to that prediction's root. When
the same blocks pool at both ends of the bracket and no clamp changes in
between, p is affine on it, and the interpolant is the projection itself:
no double needs to lie at the multiplier.
"""

from __future__ import annotations

import math
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


def _pool(tree: SensorTree, y: np.ndarray) -> tuple:
    """Pool adjacent violators on the tree (Pardalos & Xue, 1999).

    Sensors are visited deepest first, each opening a block of its own;
    while the block hanging directly below it with the largest mean exceeds
    its own mean, that block is merged in and its own hanging blocks hang
    below the merged one. Returns three lists indexed by node 0..m: each
    sensor's value (the mean of its block), the size of the block that each
    block top heads, and the top of each sensor's block.
    """
    m = tree.m
    total = [0.0] + y.tolist()
    mean = total.copy()
    size = [1] * (m + 1)
    below = [list(c) for c in tree._children]
    merged = [False] * (m + 1)
    for v in reversed(tree.root_first):
        hanging = below[v]
        while hanging:
            b = max(hanging, key=mean.__getitem__)
            if mean[b] <= mean[v]:
                break
            hanging.remove(b)
            hanging.extend(below[b])
            total[v] += total[b]
            size[v] += size[b]
            mean[v] = total[v] / size[v]
            merged[b] = True

    top = list(range(m + 1))
    parent = [0] + tree.parent.tolist()
    for v in tree.root_first:
        if merged[v]:
            mean[v] = mean[parent[v]]
            top[v] = top[parent[v]]
    return mean, size, top


def isotonic_tree_project(tree: SensorTree, q) -> np.ndarray:
    """Exact L2 projection onto the cone {x : x_i <= x_parent(i)}: each
    sensor takes the mean of its block in ``_pool``."""
    return np.array(_pool(tree, np.asarray(q, dtype=float))[0][1:])


class _Probe:
    """p(lam) and its budget gap g, with the PAV blocks behind them (if pooled)."""

    __slots__ = ("lam", "p", "g", "mean", "size", "top")

    def __init__(self, lam: float, p: np.ndarray, g: float, pooled=(None, None, None)):
        self.lam, self.p, self.g = lam, p, g
        self.mean, self.size, self.top = pooled

    def same_piece(self, other: "_Probe") -> bool:
        """True if p is affine between this probe and ``other`` (at a larger lam).

        That holds when each block with a positive mean here is a block of
        ``other`` with the same members and its mean crosses neither 0 nor 1
        in between. The optimality conditions of a fixed partition are linear
        in lam, so those blocks then pool correctly on the whole interval, and
        every other sensor stays at 0 because p is nonincreasing in lam.
        """
        mine, theirs = self.mean, other.mean
        for v, (t, w) in enumerate(zip(self.top, other.top)):
            if mine[v] > 0.0:
                if w != t or theirs[v] < 0.0 or theirs[v] < 1.0 < mine[v]:
                    return False
            elif v and mine[w] > 0.0:
                return False
        return True


def _probe(fs: FeasibleSet, q: np.ndarray, lam: float) -> _Probe:
    pooled = _pool(fs.tree, q - lam * fs.tree.cost)
    p = np.clip(np.array(pooled[0][1:]), 0.0, 1.0)
    return _Probe(lam, p, float(fs.tree.cost @ p) - fs.budget, pooled)


def _walk(pt: _Probe, cost: list, scale: float, gap: float, reach: float):
    """Multiplier distance from ``pt`` over which g, as pt's blocks predict it,
    falls by ``gap`` (walking right) or rises by -gap (walking left); None
    past ``reach``.

    Holding the blocks fixed, block B's mean falls at rate r_B = sum_B c / |B|
    as lam grows, and while it lies inside [0, 1] it adds sum_B c * r_B to
    |dg/dlam|. Walking the points where means enter or leave [0, 1] makes the
    prediction exact piecewise-linear arithmetic. Slopes are divided by
    ``scale`` so that squared costs cannot overflow.
    """
    right = gap > 0.0
    csum = [0.0] * len(pt.top)
    for v, t in enumerate(pt.top):
        csum[t] += cost[v]
    slope, events = 0.0, []
    for v, t in enumerate(pt.top):
        r = csum[v] / pt.size[v]
        if t != v or not r:  # not a block top (node 0 carries no cost), or too cheap to move
            continue
        x = pt.mean[v]
        w = csum[v] / scale * r
        if not right:
            x = 1.0 - x  # walking left the mean rises; mirror it to fall
        if x > 1.0:
            events += (((x - 1.0) / r, w), (x / r, -w))
        elif x > 0.0:
            slope += w
            events.append((x / r, -w))
    gap = abs(gap) / scale
    u = 0.0
    for at, dw in sorted(events):
        if at > reach or slope * (at - u) >= gap:
            break
        gap -= slope * (at - u)
        u, slope = at, slope + dw
    if slope <= 0.0 or u + gap / slope > reach:
        return None
    return u + gap / slope


def project(fs: FeasibleSet, q) -> np.ndarray:
    """Euclidean projection of q onto the feasible set (unique by strict convexity).

    Where the budget binds, a multiplier bracket lam_lo < lam_hi with gaps
    g_lo > 0 >= g_hi closes in on the root of g, one PAV pass per probe.
    Each probe aims past the root that the latest probe's blocks predict
    (``_walk``), by a quarter of the stop tolerance in g and four ulps in
    lam, so once those blocks hold it lands just across the root, beyond
    the rounding noise of g. It bisects instead when the prediction has no
    root in the bracket, or when three probes in a row (two, once a
    bisection has fallen above the root) landed on the same side of it.
    The answer is the interpolant of the two end points at g = 0, returned
    when
      * p is affine on the bracket (``_Probe.same_piece``): the interpolant
        is then p_lo + (dp/dlam) * g_lo / (-dg/dlam), the projection itself,
        read in p-space so that no double need lie at the multiplier;
      * g_lo - g_hi <= KKT_TOL * min(c): it lies within KKT_TOL of the
        projection in l1;
      * no double lies strictly between the two multipliers: its l1 error is
        bounded by (g_lo - g_hi) / min(c).
    A probe that spends the budget exactly (g = 0) is the projection itself.
    The answer meets the box and the ordering exactly and spends the budget
    to rounding. A q of the wrong length raises DimensionMismatch, a
    non-finite one InvalidInput; SolverStalled means that max(q / c)
    overflows or that 200 probes reached no stop.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (fs.m,):
        raise DimensionMismatch(f"expected a vector of length {fs.m}, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise InvalidInput("the point to project must be finite")

    c = fs.tree.cost
    lo = _probe(fs, q, 0.0)
    if lo.g <= 0.0:
        return lo.p

    # p(lam) is 0 from max(q / c) on. Overflow is harmless: q / c = inf is
    # reported, and lam * c = inf gives p = 0 as it should.
    with np.errstate(over="ignore"):
        lam_hi = float(np.max(q / c))
    if not np.isfinite(lam_hi):
        raise SolverStalled(f"the budget multiplier bracket overflows (max q/c = {lam_hi:g})")
    hi = _Probe(lam_hi, np.zeros_like(q), -fs.budget)
    cost, scale, tol = [0.0] + c.tolist(), float(c.max()), KKT_TOL * float(c.min())
    # streak counts the probes in a row that landed on one side of the root.
    latest, streak, deep = lo, 0, False
    with np.errstate(over="ignore"):
        for _ in range(200):
            if hi.g == 0.0 or lo.g - hi.g <= tol or (hi.top is not None and lo.same_piece(hi)):
                break
            gap = latest.g + (0.25 * tol if latest.g > 0.0 else -0.25 * tol)
            step = None
            if streak < (2 if deep else 3):
                step = _walk(latest, cost, scale, gap, hi.lam - latest.lam if gap > 0.0 else latest.lam - lo.lam)
            bisect = step is None
            if bisect:
                # Bisect the exponent while the ends lie orders of magnitude apart,
                # from lam_lo = 0 once a bisection has fallen above the root.
                a = max(lo.lam, 5e-324) if deep else lo.lam
                lam = math.sqrt(a) * math.sqrt(hi.lam) if 0.0 < 4.0 * a < hi.lam else 0.5 * (lo.lam + hi.lam)
            else:
                step += 4.0 * math.ulp(latest.lam + step)
                lam = latest.lam + step if gap > 0.0 else latest.lam - step
                lam = min(max(lam, math.nextafter(lo.lam, math.inf)), math.nextafter(hi.lam, -math.inf))
            if not lo.lam < lam < hi.lam:
                break  # adjacent doubles: the end gaps bound the error
            probe = _probe(fs, q, lam)
            streak = 0 if bisect else streak + 1 if (probe.g > 0.0) == (latest.g > 0.0) else 1
            deep = probe.g <= 0.0 if bisect else deep
            latest = probe
            if probe.g > 0.0:
                lo = probe
            else:
                hi = probe
        else:
            raise SolverStalled("the budget multiplier search reached no stop within 200 probes")
    # Both weights are computed directly: 1 - t would lose a weight below 1e-16.
    span = lo.g - hi.g
    return np.minimum(-hi.g / span * lo.p + lo.g / span * hi.p, 1.0)
