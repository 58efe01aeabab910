"""Domain types: validation, subtree logic, energy, model file round trips."""

import numpy as np
import pytest

from treesched.errors import (
    DimensionMismatch,
    InvalidInput,
    InvalidSubtree,
    NonPositiveNoise,
    NotObservable,
)
from treesched.model import (
    LinearSystem,
    SensorTree,
    TreeDistribution,
    as_marginals,
    indicator,
    is_valid_subtree,
    load_model,
    save_model,
    tree_energy,
    validate_system,
)


class TestValidateSystem:
    def test_identity_system_ok(self):
        sys = LinearSystem(A=np.eye(2), Q=np.eye(2), C=np.eye(2), r=[1.0, 1.0], Sigma0=np.eye(2))
        validate_system(sys)

    def test_single_row_under_identity_dynamics_not_observable(self):
        sys = LinearSystem(A=np.eye(2), Q=np.eye(2), C=[[1.0, 0.0]], r=[1.0], Sigma0=np.eye(2))
        with pytest.raises(NotObservable):
            validate_system(sys)

    def test_zero_measurement_noise_rejected(self):
        sys = LinearSystem(
            A=np.eye(2), Q=np.eye(2), C=np.eye(2), r=[1.0, 0.0], Sigma0=np.eye(2)
        )
        with pytest.raises(NonPositiveNoise):
            validate_system(sys)

    def test_indefinite_process_noise_rejected(self):
        sys = LinearSystem(
            A=np.eye(2), Q=[[1.0, 0.0], [0.0, -0.5]], C=np.eye(2), r=[1.0, 1.0], Sigma0=np.eye(2)
        )
        with pytest.raises(NonPositiveNoise):
            validate_system(sys)

    def test_shape_mismatch_raises_at_construction(self):
        with pytest.raises(DimensionMismatch):
            LinearSystem(A=np.eye(2), Q=np.eye(3), C=np.eye(2), r=[1.0, 1.0], Sigma0=np.eye(2))
        with pytest.raises(DimensionMismatch):
            LinearSystem(A=np.eye(2), Q=np.eye(2), C=np.eye(2), r=[1.0], Sigma0=np.eye(2))

    def test_arrays_frozen(self):
        sys = LinearSystem(A=np.eye(2), Q=np.eye(2), C=np.eye(2), r=[1.0, 1.0], Sigma0=np.eye(2))
        with pytest.raises(ValueError):
            sys.A[0, 0] = 5.0
        with pytest.raises(ValueError):
            sys.info[0, 0, 0] = 5.0

    @pytest.mark.parametrize("name", ["A", "Q", "C", "r", "Sigma0"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, name, bad):
        arrays = dict(A=np.eye(2), Q=np.eye(2), C=np.eye(2), r=np.ones(2), Sigma0=np.eye(2))
        arrays[name].flat[0] = bad
        with pytest.raises(InvalidInput, match=f"^{name} "):
            LinearSystem(**arrays)


class TestSensorTree:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            SensorTree(parent=[2, 1], cost=[1.0, 1.0])

    def test_children_and_depth(self, chain3_tree):
        assert chain3_tree.children_of(0) == (1,)
        assert chain3_tree.children_of(1) == (2,)
        assert chain3_tree.depth_of(3) == 3

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(ValueError):
            SensorTree(parent=[0], cost=[0.0])


class TestSubtrees:
    def test_skipping_a_relay_is_invalid(self):
        tree = SensorTree(parent=[0, 1], cost=[1.0, 2.0])
        assert not is_valid_subtree(tree, {2})
        assert is_valid_subtree(tree, {1})
        assert is_valid_subtree(tree, set())

    def test_chain_energy(self):
        tree = SensorTree(parent=[0, 1], cost=[1.0, 2.0])
        assert tree_energy(tree, {1, 2}) == 3.0
        assert tree_energy(tree, set()) == 0.0

    def test_star_single_leaf_energy(self):
        tree = SensorTree(parent=[0, 0, 0], cost=[1.0, 1.0, 5.0])
        assert tree_energy(tree, {3}) == 5.0

    def test_energy_rejects_invalid(self):
        tree = SensorTree(parent=[0, 1], cost=[1.0, 2.0])
        with pytest.raises(InvalidSubtree):
            tree_energy(tree, {2})

    def test_energy_additive_over_union_and_intersection(self, rng):
        from treesched.properties import random_tree, random_valid_subtree

        for _ in range(50):
            tree = random_tree(rng, int(rng.integers(1, 9)))
            S = random_valid_subtree(rng, tree)
            T = random_valid_subtree(rng, tree)
            lhs = tree_energy(tree, S | T) + tree_energy(tree, S & T)
            rhs = tree_energy(tree, S) + tree_energy(tree, T)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestMarginals:
    def test_range_validated(self):
        with pytest.raises(ValueError):
            as_marginals([1.5], 1)
        with pytest.raises(DimensionMismatch):
            as_marginals([0.5, 0.5], 1)
        out = as_marginals([0.25, 1.0], 2)
        assert out.tolist() == [0.25, 1.0]
        for bad in (np.nan, np.inf, -np.inf, 1.5, -0.5):
            with pytest.raises(InvalidInput):
                as_marginals([0.5, bad], 2)


class TestIndicator:
    def test_weights_of_member_set(self):
        assert indicator(frozenset({3, 1}), 4).tolist() == [1.0, 0.0, 1.0, 0.0]
        assert indicator([], 2).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("members", [[0], [1, 3]])
    def test_out_of_range_rejected(self, members):
        with pytest.raises(InvalidSubtree):
            indicator(members, 2)


class TestTreeDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TreeDistribution((frozenset(), frozenset({1})), np.array([0.5, 0.6]))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            TreeDistribution((frozenset(), frozenset({1})), np.array([-0.1, 1.1]))


class TestModelFiles:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        # adversarial doubles: tiny, huge, non-representable decimals
        specials = np.array([0.1, 1 / 3, 1e-308, 1.7976931348623157e308, -2.5e-17])
        A = rng.standard_normal((3, 3))
        A[0, :3] = specials[:3]
        Q = np.eye(3) * specials[0]
        C = rng.standard_normal((2, 3))
        C[1, 2] = specials[1]
        sys = LinearSystem(A=A, Q=Q, C=C, r=[0.1, 1 / 3], Sigma0=np.eye(3) * (1 / 3))
        tree = SensorTree(parent=[0, 1], cost=[0.1, 1 / 3])
        path = tmp_path / "model.json"
        save_model(path, sys, tree)
        sys2, tree2 = load_model(path)
        for a, b in [
            (sys.A, sys2.A),
            (sys.Q, sys2.Q),
            (sys.C, sys2.C),
            (sys.r, sys2.r),
            (sys.Sigma0, sys2.Sigma0),
            (tree.cost, tree2.cost),
        ]:
            assert np.array_equal(a, b)
        assert np.array_equal(tree.parent, tree2.parent)

    def test_mismatched_tree_rejected(self, tmp_path):
        sys = LinearSystem(A=np.eye(1), Q=np.eye(1), C=[[1.0]], r=[1.0], Sigma0=np.eye(1))
        tree = SensorTree(parent=[0, 0], cost=[1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            save_model(tmp_path / "bad.json", sys, tree)
