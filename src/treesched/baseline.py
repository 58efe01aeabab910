"""Exhaustive search over fixed deterministic schedules.

A deterministic schedule repeats one transmission tree forever, so the
search space is the set of parent-closed sensor subsets whose energy fits
the per-round budget. Each candidate's steady-state covariance solves a
discrete algebraic Riccati equation. ``lowerbound._doubling`` solves each
block of detectable candidates in about ten doubling steps, where the
one-schedule reference iteration ``L_infinity`` takes a few hundred per
candidate. The best tree minimizes the fixed-point trace. Intended as a
desk-scale comparison target, hence the hard cap on the enumeration size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Diverged, InvalidBudget, TooManyTrees
from .lowerbound import L_infinity, _doubling, detectable_schedule  # noqa: F401 (traced by perfbench)
from .model import LinearSystem, SensorTree, _energy, check_sensor_counts, indicator

MAX_TREES = 10**6

# Candidates per doubling run: enough to amortize numpy's per-call cost,
# few enough that the stack adds no visible memory.
_BLOCK = 32


def count_subtrees(tree: SensorTree) -> int:
    """Number of parent-closed subsets (including the empty one).

    Computed leaves first by the product rule: once a sensor is included,
    each child branch is either left out or one of its own choices, so the
    sensor multiplies its parent's count by one plus its own.
    """
    count = [1] * (tree.m + 1)
    for i in reversed(tree.root_first):
        count[tree.parent_of(i)] *= 1 + count[i]
    return count[0]


def enumerate_subtrees(tree: SensorTree, budget: float = math.inf) -> list:
    """All valid member sets with energy within budget, smallest first.

    Raises InvalidBudget for a negative or NaN budget, and TooManyTrees when
    the unconstrained count exceeds MAX_TREES.
    """
    if not budget >= 0.0:  # also rejects NaN
        raise InvalidBudget(f"energy budget must be nonnegative, got {budget!r}")
    if count_subtrees(tree) > MAX_TREES:
        raise TooManyTrees(f"tree admits more than {MAX_TREES} transmission subtrees")

    # Root first, each sensor joins every set so far that holds its parent
    # (or hangs off the fusion center), so each closed set is built once.
    # Positive costs make budget pruning safe.
    sets = [(frozenset(), 0.0)]
    for i in tree.root_first:
        parent, cost = tree.parent_of(i), tree.cost_of(i)
        sets += [
            (mem | {i}, en + cost)
            for mem, en in sets
            if (parent == 0 or parent in mem) and en + cost <= budget
        ]
    return sorted((mem for mem, _ in sets), key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class DeterministicResult:
    members: frozenset
    energy: float
    trace: float
    candidates: tuple  # (sorted member tuple, energy, trace or None) per candidate


def best_deterministic(sys: LinearSystem, tree: SensorTree, budget: float) -> DeterministicResult:
    """Best single repeated tree within budget, by asymptotic covariance trace.

    Candidates whose (C_T, A) is undetectable are skipped (their recursion
    diverges); ties break toward lower energy, then lexicographic members.
    Raises Diverged when no affordable candidate is detectable, and
    DimensionMismatch when the tree and the system count different sensors.
    """
    check_sensor_counts(sys, tree)
    candidates = enumerate_subtrees(tree, budget)
    rows = []
    for start in range(0, len(candidates), _BLOCK):
        block = candidates[start : start + _BLOCK]
        weights = [indicator(members, sys.m) for members in block]
        detectable = [detectable_schedule(sys, w) for w in weights]
        stack = np.reshape([w for w, ok in zip(weights, detectable) if ok], (-1, sys.m))
        traces = iter([float(np.trace(P)) for P in _doubling(sys, stack)])
        rows.extend(
            (tuple(sorted(members)), _energy(tree, members), next(traces) if ok else None)
            for members, ok in zip(block, detectable)
        )
    ranked = [(tr, energy, members) for members, energy, tr in rows if tr is not None]
    if not ranked:
        raise Diverged("no affordable transmission tree is detectable")
    tr, energy, members = min(ranked)
    return DeterministicResult(
        members=frozenset(members), energy=energy, trace=tr, candidates=tuple(rows)
    )
