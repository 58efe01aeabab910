"""Exhaustive deterministic-schedule search."""

import math

import numpy as np
import pytest

from oracles import criterion2_instance, per_candidate_rows
from treesched.baseline import (
    best_deterministic,
    count_subtrees,
    enumerate_subtrees,
)
from treesched.errors import Diverged, TooManyTrees
from treesched.model import SensorTree, is_valid_subtree, tree_energy
from treesched.properties import check_baseline_matches_direct_iteration, random_tree


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
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(1, 10)))
            budget = float(rng.uniform(0.3, 1.0)) * float(tree.cost.sum())
            for members in enumerate_subtrees(tree, budget):
                assert is_valid_subtree(tree, members)
                assert tree_energy(tree, members) <= budget + 1e-12

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
                Xn = np.linalg.inv(np.linalg.inv(pred) + sys.info_sum(w))
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
