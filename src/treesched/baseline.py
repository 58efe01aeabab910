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
from .model import LinearSystem, SensorTree, indicator, tree_energy

MAX_TREES = 10**6

# Candidates per doubling run: enough to amortize numpy's per-call cost,
# few enough that the stack adds no visible memory.
_BLOCK = 32


def count_subtrees(tree: SensorTree) -> int:
    """Number of parent-closed subsets (including the empty one).

    Computed by the product rule: a node's branch contributes one more than
    the product of its children's counts once the node itself is included.
    """

    def rooted(node: int) -> int:
        total = 1
        for c in tree.children_of(node):
            total *= 1 + rooted(c)
        return total

    return math.prod(1 + rooted(c) for c in tree.children_of(0))


def enumerate_subtrees(tree: SensorTree, budget: float = math.inf) -> list:
    """All valid member sets with energy within budget, smallest first.

    Raises InvalidBudget for a negative or NaN budget, and TooManyTrees when
    the unconstrained count exceeds MAX_TREES.
    """
    if not budget >= 0.0:  # also rejects NaN
        raise InvalidBudget(f"energy budget must be nonnegative, got {budget!r}")
    if count_subtrees(tree) > MAX_TREES:
        raise TooManyTrees(
            f"tree admits more than {MAX_TREES} transmission subtrees"
        )

    def options(node: int) -> list:
        # All (members, energy) choices for the branch at `node`, given that
        # `node` itself is selected; the fusion center (node 0) is always
        # selected and costs nothing. Positive costs make budget pruning safe.
        if node == 0:
            out = [(frozenset(), 0.0)]
        else:
            out = [(frozenset([node]), tree.cost_of(node))]
        for c in tree.children_of(node):
            child_opts = options(c)
            grown = []
            for mem, en in out:
                grown.append((mem, en))
                for cm, ce in child_opts:
                    if en + ce <= budget:
                        grown.append((mem | cm, en + ce))
            out = grown
        return out

    members = [mem for mem, en in options(0) if en <= budget]
    return sorted(members, key=lambda s: (len(s), sorted(s)))


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
    Raises Diverged when no affordable candidate is detectable.
    """
    candidates = enumerate_subtrees(tree, budget)
    rows = []
    for start in range(0, len(candidates), _BLOCK):
        block = candidates[start : start + _BLOCK]
        weights = [indicator(members, sys.m) for members in block]
        detectable = [detectable_schedule(sys, w) for w in weights]
        stack = np.reshape([w for w, ok in zip(weights, detectable) if ok], (-1, sys.m))
        traces = iter([float(np.trace(P)) for P in _doubling(sys, stack)])
        rows.extend(
            (tuple(sorted(members)), tree_energy(tree, members), next(traces) if ok else None)
            for members, ok in zip(block, detectable)
        )
    ranked = [(tr, energy, members) for members, energy, tr in rows if tr is not None]
    if not ranked:
        raise Diverged("no affordable transmission tree is detectable")
    tr, energy, members = min(ranked)
    return DeterministicResult(
        members=frozenset(members), energy=energy, trace=tr, candidates=tuple(rows)
    )
