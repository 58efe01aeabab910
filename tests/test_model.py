"""Domain types: validation, subtree logic, energy, model file round trips."""

import numpy as np
import pytest

from oracles import kalman_observable
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
    model_from_dict,
    model_to_dict,
    save_model,
    tree_energy,
    validate_system,
)
from treesched.properties import random_system, random_tree


class TestValidateSystem:
    def test_identity_system_ok(self):
        sys = LinearSystem(A=np.eye(2), Q=np.eye(2), C=np.eye(2), r=[1.0, 1.0], Sigma0=np.eye(2))
        validate_system(sys)

    def test_zero_mode_unobservable(self):
        # A nilpotent mode no row sees: detectable, yet not observable.
        sys = LinearSystem(A=[[0.0, 0.0], [0.0, 0.5]], Q=np.eye(2), C=[[0.0, 1.0]], r=[1.0], Sigma0=np.eye(2))
        with pytest.raises(NotObservable):
            validate_system(sys)

    def test_agrees_with_kalman_rank(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n, m = (int(k) for k in rng.integers(1, 9, size=2))
            sys = random_system(rng, n, m)
            C = sys.C * (rng.random((m, 1)) < 0.5)  # zero rows make some pairs unobservable
            case = LinearSystem(A=sys.A, Q=sys.Q, C=C, r=sys.r, Sigma0=sys.Sigma0)
            try:
                validate_system(case)
                observable = True
            except NotObservable:
                observable = False
            assert observable == kalman_observable(case.A, case.C)

    def test_single_row_under_identity_dynamics_not_observable(self):
        sys = LinearSystem(A=np.eye(2), Q=np.eye(2), C=[[1.0, 0.0]], r=[1.0], Sigma0=np.eye(2))
        with pytest.raises(NotObservable):
            validate_system(sys)

    def test_zero_measurement_noise_rejected(self):
        with pytest.raises(NonPositiveNoise):
            LinearSystem(A=np.eye(2), Q=np.eye(2), C=np.eye(2), r=[1.0, 0.0], Sigma0=np.eye(2))

    def test_indefinite_process_noise_rejected(self):
        with pytest.raises(NonPositiveNoise):
            LinearSystem(
                A=np.eye(2), Q=[[1.0, 0.0], [0.0, -0.5]], C=np.eye(2), r=[1.0, 1.0], Sigma0=np.eye(2)
            )

    @pytest.mark.parametrize(
        "name, value",
        [
            pytest.param("Sigma0", [[1.0, 0.0], [0.0, 0.0]], id="Sigma0-singular"),
            pytest.param("Q", [[1.0, 0.5], [0.0, 1.0]], id="Q-asymmetric"),
        ],
    )
    def test_noise_checked_at_construction(self, name, value):
        arrays = dict(A=np.eye(2), Q=np.eye(2), C=np.eye(2), r=np.ones(2), Sigma0=np.eye(2))
        arrays[name] = value
        with pytest.raises(NonPositiveNoise, match=f"^{name} "):
            LinearSystem(**arrays)

    def test_shape_mismatch_raises_at_construction(self):
        with pytest.raises(DimensionMismatch):
            LinearSystem(A=np.eye(2), Q=np.eye(3), C=np.eye(2), r=[1.0, 1.0], Sigma0=np.eye(2))
        with pytest.raises(DimensionMismatch):
            LinearSystem(A=np.eye(2), Q=np.eye(2), C=np.eye(2), r=[1.0], Sigma0=np.eye(2))
        with pytest.raises(DimensionMismatch):
            LinearSystem(A=[[0.5]], Q=[[1.0]], C=[[1.0, 2.0]], r=[1.0], Sigma0=[[1.0]])

    def test_system_without_sensors_rejected(self):
        with pytest.raises(DimensionMismatch, match="m >= 1"):
            LinearSystem(A=[[0.5]], Q=[[1.0]], C=np.zeros((0, 1)), r=[], Sigma0=[[1.0]])

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

    def test_empty_network_rejected(self):
        with pytest.raises(InvalidInput, match="at least one sensor"):
            SensorTree(parent=[], cost=[])

    def test_parent_out_of_range_rejected(self):
        with pytest.raises(InvalidInput, match="parent indices"):
            SensorTree(parent=[2], cost=[1.0])

    def test_children_and_depth(self, chain3_tree):
        assert chain3_tree.children_of(0) == (1,)
        assert chain3_tree.children_of(1) == (2,)
        assert chain3_tree.depth_of(3) == 3

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(ValueError):
            SensorTree(parent=[0], cost=[0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cost_rejected(self, bad):
        with pytest.raises(InvalidInput, match="edge costs"):
            SensorTree(parent=[0, 1], cost=[1.0, bad])

    def test_root_first_order(self, rng):
        assert SensorTree(parent=[0, 3, 0], cost=[1.0, 1.0, 1.0]).root_first == (1, 3, 2)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(1, 12)))
            rank = {i: k for k, i in enumerate(tree.root_first)}
            assert sorted(rank) == list(range(1, tree.m + 1))
            assert all(tree.parent_of(i) == 0 or rank[tree.parent_of(i)] < rank[i] for i in rank)


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
        with pytest.raises(DimensionMismatch):
            as_marginals([[0.5]], 1)
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

    def test_empty_support_rejected(self):
        with pytest.raises(InvalidInput, match="at least one support tree"):
            TreeDistribution((), [])

    def test_nan_probability_rejected(self):
        with pytest.raises(InvalidInput):
            TreeDistribution((frozenset(), frozenset({1})), np.array([np.nan, 1.0]))


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

    def test_declared_dimension_disagreement_rejected(self):
        sys = LinearSystem(A=np.eye(1), Q=np.eye(1), C=[[1.0]], r=[1.0], Sigma0=np.eye(1))
        doc = model_to_dict(sys, SensorTree(parent=[0], cost=[1.0]))
        doc["n"] = 2
        with pytest.raises(DimensionMismatch, match="declared n/m"):
            model_from_dict(doc)

    def test_mismatched_tree_rejected(self, tmp_path):
        sys = LinearSystem(A=np.eye(1), Q=np.eye(1), C=[[1.0]], r=[1.0], Sigma0=np.eye(1))
        tree = SensorTree(parent=[0, 0], cost=[1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            save_model(tmp_path / "bad.json", sys, tree)
