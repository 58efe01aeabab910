"""Exhaustive deterministic-schedule search."""

import itertools
import math

import numpy as np
import pytest

from oracles import criterion2_instance, per_candidate_rows, tight_fixed_points
from treesched.baseline import (
    best_deterministic,
    count_subtrees,
    enumerate_subtrees,
)
from treesched.errors import Diverged, TooManyTrees
from treesched.lowerbound import L_infinity, detectable_schedule
from treesched.model import SensorTree, indicator, is_valid_subtree, tree_energy
from treesched.properties import check_baseline_matches_direct_iteration, random_system, random_tree


class TestEnumerate:
    def test_chain_of_two(self):
        tree = SensorTree(parent=[0, 1], cost=[1.0, 1.0])
        assert enumerate_subtrees(tree) == [frozenset(), frozenset({1}), frozenset({1, 2})]

    def test_star_of_two(self):
        tree = SensorTree(parent=[0, 0], cost=[1.0, 1.0])
        assert len(enumerate_subtrees(tree)) == 4

    def test_budget_filter(self):
        tree = SensorTree(parent=[0, 0], cost=[1.0, 5.0])
        assert enumerate_subtrees(tree, budget=2.0) == [frozenset(), frozenset({1})]

    def test_count_formula_matches_enumeration(self, rng):
        for _ in range(30):
            tree = random_tree(rng, int(rng.integers(1, 11)))
            assert count_subtrees(tree) == len(enumerate_subtrees(tree))

    def test_all_enumerated_sets_valid_and_within_budget(self, rng):
        # The enumeration against a sweep over all 2^m subsets, in its order.
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(1, 11)))
            closed = [
                frozenset(c)
                for k in range(tree.m + 1)
                for c in itertools.combinations(range(1, tree.m + 1), k)
                if is_valid_subtree(tree, c)
            ]
            share = float(rng.uniform(0.3, 1.0)) * float(tree.cost.sum())
            for budget in (0.0, share, math.inf):
                expected = [s for s in closed if tree_energy(tree, s) <= budget]
                assert enumerate_subtrees(tree, budget) == sorted(expected, key=lambda s: (len(s), sorted(s)))

    def test_deep_chain(self):
        # A chain deeper than the interpreter's default recursion limit.
        chain = SensorTree(parent=list(range(1500)), cost=[1.0] * 1500)
        assert count_subtrees(chain) == 1501
        assert enumerate_subtrees(chain, 3.0) == [
            frozenset(),
            frozenset({1}),
            frozenset({1, 2}),
            frozenset({1, 2, 3}),
        ]

    def test_too_many_trees_guard(self):
        tree = SensorTree(parent=[0] * 24, cost=[1.0] * 24)  # 2^24 subsets
        with pytest.raises(TooManyTrees):
            enumerate_subtrees(tree)


class TestBestDeterministic:
    def test_scalar_demo(self, scalar_system, scalar_tree):
        result = best_deterministic(scalar_system, scalar_tree, budget=1.0)
        assert result.members == frozenset({1})
        assert result.trace == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-8)

    def test_zero_budget_unstable_system_diverges(self, scalar_system, scalar_tree):
        with pytest.raises(Diverged):
            best_deterministic(scalar_system, scalar_tree, budget=0.0)

    def test_m2_matches_per_candidate_fixed_points(self, rng):
        from treesched.properties import random_system

        sys = random_system(rng, 2, 2)
        tree = random_tree(rng, 2)
        budget = float(tree.cost.sum())
        result = best_deterministic(sys, tree, budget)
        # oracle: fixed point of each candidate from the scalarized recursion
        best = None
        for members in enumerate_subtrees(tree, budget):
            w = np.zeros(2)
            for i in members:
                w[i - 1] = 1.0
            X = np.array(sys.Sigma0)
            diverged = False
            for _ in range(30000):
                pred = sys.A @ X @ sys.A.T + sys.Q
                Xn = np.linalg.inv(np.linalg.inv(pred) + (sys.C.T * (w / sys.r)) @ sys.C)
                if np.linalg.norm(Xn - X, "fro") <= 1e-13 * (1 + np.linalg.norm(X, "fro")):
                    X = Xn
                    break
                X = Xn
                if np.trace(X) > 1e10:
                    diverged = True
                    break
            if not diverged and (best is None or np.trace(X) < best):
                best = float(np.trace(X))
        assert best is not None
        assert result.trace == pytest.approx(best, rel=1e-6)

    def test_property_version(self):
        check_baseline_matches_direct_iteration(seed=5)

    # Criterion-2 instance 8 has 157 detectable candidates (4 blocks of 32
    # and one of 29); instance 9 has 161 and one undetectable candidate.
    @pytest.mark.parametrize("k, undetectable", [(8, 0), (9, 1)])
    def test_blocks_give_per_candidate_rows(self, k, undetectable):
        sys, tree, budget = criterion2_instance(k)
        result = best_deterministic(sys, tree, budget)
        expected = per_candidate_rows(sys, tree, budget)
        assert result.candidates == expected
        assert sum(tr is None for _, _, tr in expected) == undetectable
        tr, energy, members = min((tr, e, mem) for mem, e, tr in expected if tr is not None)
        assert (result.trace, result.energy, result.members) == (tr, energy, frozenset(members))


def winner_instances():
    """The criterion-2 family, then 300 random trees (rng 12345, n, m <= 5,
    budget a uniform(0.2, 0.9) share of the total cost)."""
    for k in range(20):
        yield f"criterion-2 {k}", *criterion2_instance(k)
    rng = np.random.default_rng(12345)
    for k in range(300):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        sys, tree = random_system(rng, n, m), random_tree(rng, m)
        yield f"random {k}", sys, tree, float(rng.uniform(0.2, 0.9)) * float(tree.cost.sum())


def iterated_ranking(sys, tree, budget) -> list:
    """(trace, energy, members) of every detectable affordable tree, best
    first by best_deterministic's rule, with traces from one L_infinity call
    from Sigma0 per candidate."""
    candidates = [c for c in enumerate_subtrees(tree, budget) if detectable_schedule(sys, indicator(c, sys.m))]
    traces = [np.trace(L_infinity(sys, sys.Sigma0, indicator(c, sys.m))) for c in candidates]
    return sorted((float(tr), tree_energy(tree, c), tuple(sorted(c))) for tr, c in zip(traces, candidates))


def test_doubling_picks_the_iterated_winner():
    """best_deterministic solves by doubling; an exhaustive L_infinity sweep
    picks the same tree. The sweep's traces are up to 1.4e-8 relative off a
    1e-14-stop reference on these trees (random 156), doubling's up to 2.2e-13,
    so a runner-up within 1e-7 of the winner could flip the tie-break: such a
    near tie fails here by name rather than being absorbed. The closest
    runner-up measured is 7.8e-5 relative (random 228)."""
    undetectable = 0
    for label, sys, tree, budget in winner_instances():
        ranking = iterated_ranking(sys, tree, budget)
        if not ranking:
            undetectable += 1
            with pytest.raises(Diverged):
                best_deterministic(sys, tree, budget)
            continue
        result = best_deterministic(sys, tree, budget)
        tr, energy, members = ranking[0]
        assert (result.energy, result.members) == (energy, frozenset(members)), label
        reference = np.trace(tight_fixed_points(sys, indicator(members, sys.m)[None])[0])
        assert result.trace == pytest.approx(reference, rel=1e-11), label
        if len(ranking) > 1:
            gap = (ranking[1][0] - tr) / tr
            assert gap > 1e-7, f"{label}: runner-up {ranking[1][2]} within {gap:g} of winner {members}"
    assert undetectable == 6
