"""Turn marginal probabilities into a distribution over nested subtrees.

Sorting the marginals in descending order and cutting at each distinct
level yields a chain of nested member sets; giving each set the gap
between consecutive sorted values produces a distribution whose marginals
are exactly the input. The construction needs the parent-ordering
condition (child never above parent), which also guarantees every prefix
of the sort is a valid transmission subtree. Ties are broken in the tree's
root-first order (by depth, then index), which keeps prefixes
parent-closed.
"""

from __future__ import annotations

import numpy as np

from .errors import OrderingViolated
from .model import MARGINAL_TOL, SensorTree, TreeDistribution, as_marginals, indicator
from .polytope import ordering_violation


def realizable_marginals(tree: SensorTree, p) -> np.ndarray:
    """p checked by as_marginals and made exactly realizable: OrderingViolated
    when some child marginal exceeds its parent's by more than MARGINAL_TOL
    (such p are not realizable by any distribution); a smaller excess is
    clamped to the parent's value, root first."""
    p = as_marginals(p, tree.m)
    viol = ordering_violation(tree, p)
    if viol > MARGINAL_TOL:
        raise OrderingViolated(
            f"child marginal exceeds its parent's by {viol:g}; not realizable"
        )
    eff = np.array(p)
    for i in tree.root_first:
        j = tree.parent_of(i)
        if j != 0:
            eff[i - 1] = min(eff[i - 1], eff[j - 1])
    return eff


def decompose(tree: SensorTree, p) -> TreeDistribution:
    """Build the nested-support distribution realizing marginals p.

    Raises OrderingViolated for unrealizable p (see realizable_marginals).
    Zero-mass sets are dropped, so the support has at most m + 1 trees.
    """
    p = realizable_marginals(tree, p)
    order = sorted(tree.root_first, key=lambda i: -p[i - 1])
    levels = [p[i - 1] for i in order]

    pairs = []
    if 1.0 - levels[0] > 0.0:
        pairs.append((frozenset(), 1.0 - levels[0]))
    members: set = set()
    for j, i in enumerate(order):
        members.add(i)
        nxt = levels[j + 1] if j + 1 < len(levels) else 0.0
        mass = levels[j] - nxt
        if mass > 0.0:
            pairs.append((frozenset(members), mass))
    return TreeDistribution.from_pairs(pairs)


def marginals_of(dist: TreeDistribution, m: int) -> np.ndarray:
    """Per-sensor selection probabilities: p_i = sum of probs of trees containing i."""
    p = np.zeros(m)
    for members, prob in dist:
        p += prob * indicator(members, m)
    return p
