"""Marginals -> nested subtree distribution, and back."""

import numpy as np
import pytest

from treesched.decompose import decompose, marginals_of
from treesched.errors import OrderingViolated
from treesched.model import TreeDistribution, is_valid_subtree, tree_energy
from treesched.properties import (
    check_decompose_round_trip,
    check_energy_identity,
    random_feasible_marginals,
    random_tree,
)


class TestDecompose:
    def test_chain_example_with_tied_levels(self, chain3_tree):
        dist = decompose(chain3_tree, [0.8, 0.5, 0.5])
        table = {members: prob for members, prob in dist}
        assert table[frozenset()] == pytest.approx(0.2, abs=1e-15)
        assert table[frozenset({1})] == pytest.approx(0.3, abs=1e-15)
        assert table[frozenset({1, 2, 3})] == pytest.approx(0.5, abs=1e-15)
        assert len(table) == 3  # the zero-mass {1, 2} level is dropped

    def test_all_ones_gives_full_tree(self, chain3_tree):
        dist = decompose(chain3_tree, [1.0, 1.0, 1.0])
        assert len(dist) == 1
        members, prob = next(iter(dist))
        assert members == frozenset({1, 2, 3}) and prob == 1.0

    def test_all_zeros_gives_empty_tree(self, chain3_tree):
        dist = decompose(chain3_tree, [0.0, 0.0, 0.0])
        assert len(dist) == 1
        members, prob = next(iter(dist))
        assert members == frozenset() and prob == 1.0

    def test_rejects_child_above_parent(self, chain3_tree):
        with pytest.raises(OrderingViolated):
            decompose(chain3_tree, [0.5, 0.8, 0.1])

    def test_support_is_nested_and_valid(self, rng):
        for _ in range(50):
            tree = random_tree(rng, int(rng.integers(1, 12)))
            p = random_feasible_marginals(rng, tree)
            dist = decompose(tree, p)
            assert len(dist) <= tree.m + 1
            prev = None
            for members, prob in dist:
                assert prob > 0.0
                assert is_valid_subtree(tree, members)
                assert prev is None or prev < members or prev == members
                prev = members

    def test_equal_marginals_decompose_to_all_or_nothing(self, rng):
        tree = random_tree(rng, 8)
        dist = decompose(tree, np.full(8, 0.3))
        table = {members: prob for members, prob in dist}
        assert table == {
            frozenset(): pytest.approx(0.7),
            frozenset(range(1, 9)): pytest.approx(0.3),
        }

    def test_energy_identity_against_marginals(self, rng):
        for _ in range(30):
            tree = random_tree(rng, int(rng.integers(1, 10)))
            p = random_feasible_marginals(rng, tree)
            dist = decompose(tree, p)
            expected = sum(prob * tree_energy(tree, members) for members, prob in dist)
            assert expected == pytest.approx(float(tree.cost @ p), abs=1e-12)


class TestMarginalsOf:
    def test_full_tree(self):
        dist = TreeDistribution.from_pairs([(frozenset({1, 2, 3}), 1.0)])
        assert marginals_of(dist, 3).tolist() == [1.0, 1.0, 1.0]

    def test_half_and_half(self):
        dist = TreeDistribution.from_pairs([(frozenset(), 0.5), (frozenset({1}), 0.5)])
        assert marginals_of(dist, 3).tolist() == [0.5, 0.0, 0.0]

    def test_round_trip_exact_for_random_feasible(self, rng):
        for _ in range(100):
            tree = random_tree(rng, int(rng.integers(1, 14)))
            p = random_feasible_marginals(rng, tree)
            back = marginals_of(decompose(tree, p), tree.m)
            assert np.abs(back - p).max() <= 1e-12

    def test_property_suite_versions(self):
        check_decompose_round_trip(samples=60, seed=1)
        check_energy_identity(samples=60, seed=2)
