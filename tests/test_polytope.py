"""Feasible marginal polytope: membership, projection, realizability."""

import numpy as np
import pytest

from oracles import grid_search_projection, reference_isotonic_tree_project, reference_projection
from treesched import polytope
from treesched.errors import DimensionMismatch, InvalidInput, SolverStalled
from treesched.model import SensorTree
from treesched.polytope import (
    KKT_TOL,
    FeasibleSet,
    contains,
    feasibility_of_marginals,
    isotonic_tree_project,
    ordering_violation,
    project,
)
from treesched.properties import (
    check_polytope_convex,
    check_projection_properties,
    random_feasible_marginals,
    random_tree,
)


@pytest.fixture
def chain2_fs():
    return FeasibleSet(SensorTree(parent=[0, 1], cost=[1.0, 1.0]), 1.5)


@pytest.fixture
def pav_passes(monkeypatch):
    """Counts tree-PAV passes into the last entry; append 0 before each call."""
    pool, passes = polytope._pool, []

    def counted(tree, y):
        passes[-1] += 1
        return pool(tree, y)

    monkeypatch.setattr(polytope, "_pool", counted)
    return passes


@pytest.fixture(scope="module")
def scaled_points():
    """300 random trees (rng 12345), each with one point at scales 1, 1e3, 1e9 and 1e10."""
    rng = np.random.default_rng(12345)
    cases = []
    for _ in range(300):
        m = int(rng.integers(1, 13))
        tree = random_tree(rng, m)
        fs = FeasibleSet(tree, float(rng.uniform(0.1, 0.9)) * float(tree.cost.sum()))
        q = rng.uniform(-2, 3, m)
        cases += [(fs, scale * q) for scale in (1.0, 1e3, 1e9, 1e10)]
    return cases


class TestContains:
    def test_spec_triplet(self, chain2_fs):
        assert contains(chain2_fs, [0.9, 0.5])
        assert not contains(chain2_fs, [0.5, 0.9])  # child above parent
        assert not contains(chain2_fs, [1.0, 0.8])  # energy 1.8 > 1.5

    def test_boundary_slack(self, chain2_fs):
        assert contains(chain2_fs, [1.0, 0.5])  # exactly on budget
        assert contains(chain2_fs, [0.75, 0.75 + 5e-13])  # within slack


class TestProject:
    def test_identity_on_members(self, chain2_fs, rng):
        for _ in range(20):
            q = np.sort(rng.uniform(0, 0.7, 2))[::-1]
            if contains(chain2_fs, q):
                assert np.allclose(project(chain2_fs, q), q, atol=1e-12)

    def test_budget_face(self, chain2_fs):
        assert np.allclose(project(chain2_fs, [2.0, 2.0]), [0.75, 0.75], atol=1e-9)

    def test_box_clamp(self, chain2_fs):
        assert np.allclose(project(chain2_fs, [-1.0, -1.0]), [0.0, 0.0], atol=1e-12)

    def test_matches_grid_oracle(self, chain2_fs, rng):
        for _ in range(5):
            q = rng.uniform(-0.5, 2.5, 2)
            p = project(chain2_fs, q)
            grid_p, grid_d = grid_search_projection(chain2_fs, q, resolution=1e-3)
            assert np.linalg.norm(p - q) <= grid_d + 1e-12
            assert np.linalg.norm(p - grid_p) <= 2e-3

    def test_non_finite_point_rejected(self, chain2_fs):
        with pytest.raises(InvalidInput):
            project(chain2_fs, [np.nan, 0.5])

    def test_wrong_length_rejected(self, chain2_fs):
        with pytest.raises(DimensionMismatch):
            project(chain2_fs, [0.5, 0.5, 0.5])

    def test_huge_coordinate_projects_exactly(self):
        # The bracket is read off q / c, so no search has to grow it to 1e300.
        fs = FeasibleSet(SensorTree(parent=[0], cost=[1.0]), 0.5)
        assert project(fs, [1e300]).tolist() == [0.5]

    def test_budget_spent_for_huge_inputs(self):
        rng = np.random.default_rng(0)
        tree = random_tree(rng, 12)
        fs = FeasibleSet(tree, 0.4 * float(tree.cost.sum()))
        p = project(fs, rng.uniform(-2, 2, 12) * 1e9)
        assert abs(float(tree.cost @ p) - fs.budget) <= KKT_TOL * float(tree.cost.min())

    def test_overflowing_bracket_raises(self):
        fs = FeasibleSet(SensorTree(parent=[0], cost=[1e-310]), 1e-311)
        with pytest.raises(SolverStalled, match="overflows"):
            project(fs, [1.0])

    def test_extreme_cost_ratio_projects(self):
        # Costs 600 orders apart: the multiplier sits near 1e-300 in a bracket
        # reaching 1e300. The first probe past the root keeps both blocks, so
        # p is affine on the bracket and the answer is the projection itself:
        # sensor 2 spends what sensor 1 leaves of the budget.
        fs = FeasibleSet(SensorTree(parent=[0, 1], cost=[1e-300, 1e300]), 0.5)
        p = project(fs, [1.0, 1.0])
        assert p[0] == 1.0
        assert p[1] == pytest.approx((0.5 - 1e-300) / 1e300, rel=1e-15)

    def test_extreme_cost_spreads_finish(self, pav_passes):
        # Costs 10**U(-30, 30) and 10**U(-150, 150) against points near 1e15:
        # the first prediction can overshoot by a hundred orders of magnitude,
        # and the exponent bisection brings the bracket back. These 400 trees
        # take at most 30 passes, far inside the 200-pass cap.
        rng = np.random.default_rng(0)
        for k in range(400):
            m = int(rng.integers(1, 13))
            parent = [0] + [int(rng.integers(0, i)) for i in range(1, m)]
            spread = (30, 150)[k % 2]
            tree = SensorTree(parent=parent, cost=10.0 ** rng.uniform(-spread, spread, m))
            fs = FeasibleSet(tree, float(rng.uniform(0.1, 0.9)) * float(tree.cost.sum()))
            q = rng.uniform(-2, 3, m) * 1e15
            pav_passes.append(0)
            p = project(fs, q)
            assert p.min() >= 0.0 and p.max() <= 1.0 and ordering_violation(tree, p) == 0.0, k
            if float(tree.cost @ np.clip(reference_isotonic_tree_project(tree, q), 0.0, 1.0)) > fs.budget:
                assert abs(float(tree.cost @ p) - fs.budget) <= 1e-15 * float(tree.cost.sum()), k
        assert max(pav_passes) <= 30, np.bincount(pav_passes)

    def test_matches_bisection_oracle(self, scaled_points):
        for k, (fs, q) in enumerate(scaled_points):
            tree, c = fs.tree, fs.tree.cost
            p = project(fs, q)
            assert p.min() >= 0.0 and p.max() <= 1.0 and ordering_violation(tree, p) == 0.0, k
            assert np.abs(p - reference_projection(fs, q)).sum() <= KKT_TOL, k
            if float(c @ np.clip(reference_isotonic_tree_project(tree, q), 0.0, 1.0)) > fs.budget:
                assert abs(float(c @ p) - fs.budget) <= KKT_TOL * float(c.min()), k

    def test_pav_passes_per_projection(self, scaled_points, pav_passes):
        # A binding case takes 3 passes: lam = 0, a probe just past the root
        # that lam = 0's blocks predict, and one back across the root on the
        # root's own piece. It takes a 4th when the blocks change between
        # lam = 0 and the root (72 of these 1,200 inputs).
        for fs, q in scaled_points:
            pav_passes.append(0)
            project(fs, q)
        assert max(pav_passes) <= 4, np.bincount(pav_passes)

    def test_zero_budget_collapses_to_origin(self, rng):
        tree = random_tree(rng, 5)
        fs = FeasibleSet(tree, 0.0)
        p = project(fs, rng.uniform(0, 1, 5))
        assert np.allclose(p, 0.0, atol=1e-12)

    def test_idempotent_nonexpansive(self):
        check_projection_properties(samples=40, seed=3)

    def test_leaves_tree_untouched(self, rng):
        tree = SensorTree(parent=[0, 1, 2, 2, 0], cost=[1.0, 2.0, 1.0, 3.0, 1.0])
        before = dict(vars(tree))
        project(FeasibleSet(tree, 2.0), rng.uniform(-1, 2, 5))
        assert vars(tree).keys() == before.keys()
        assert all(vars(tree)[k] is v for k, v in before.items())

    def test_output_feasible_even_for_huge_inputs(self, rng):
        for scale in (1e3, 1e9, 1e15):
            tree = random_tree(rng, 12)
            fs = FeasibleSet(tree, 0.4 * float(tree.cost.sum()))
            p = project(fs, rng.uniform(-2, 2, 12) * scale)
            assert contains(fs, p)


class TestIsotonic:
    def test_bit_identical_to_reference(self):
        rng = np.random.default_rng(12345)
        for k in range(300):
            m = int(rng.integers(1, 16))
            tree = random_tree(rng, m)
            # two draws in three tie: integers, and tenths whose sums round
            q = (rng.uniform(-3, 3, m), rng.integers(-3, 4, m).astype(float), rng.integers(-30, 31, m) / 10)[k % 3]
            for x in (q, 1e10 * q):
                assert np.array_equal(isotonic_tree_project(tree, x), reference_isotonic_tree_project(tree, x)), k

    def test_feasible_input_unchanged(self, rng):
        for _ in range(30):
            tree = random_tree(rng, int(rng.integers(1, 9)))
            p = random_feasible_marginals(rng, tree)
            x = isotonic_tree_project(tree, p)
            assert np.abs(x - p).max() <= 1e-12

    def test_chain_matches_pool_adjacent_violators(self):
        # chain order: values must be nonincreasing along 1 <- 2 <- 3
        tree = SensorTree(parent=[0, 1, 2], cost=[1.0, 1.0, 1.0])
        x = isotonic_tree_project(tree, [1.0, 3.0, 2.0])
        assert np.allclose(x, [2.0, 2.0, 2.0], atol=1e-12)
        x2 = isotonic_tree_project(tree, [0.0, 5.0, 1.0])
        assert np.allclose(x2, [2.5, 2.5, 1.0], atol=1e-12)

    def test_output_always_ordered(self, rng):
        for _ in range(50):
            tree = random_tree(rng, int(rng.integers(2, 12)))
            x = isotonic_tree_project(tree, rng.uniform(-5, 5, tree.m))
            assert ordering_violation(tree, x) <= 1e-12

    def test_matches_constrained_qp_solver(self, rng):
        minimize = pytest.importorskip("scipy.optimize").minimize
        for k in range(60):
            m = int(rng.integers(1, 9))
            tree = random_tree(rng, m)
            # the second half has integer values, so many ties
            q = rng.uniform(-3, 3, m) if k < 30 else rng.integers(-2, 3, m).astype(float)
            x = isotonic_tree_project(tree, q)
            cons = []
            for i in range(1, m + 1):
                j = tree.parent_of(i)
                if j != 0:
                    cons.append(
                        {"type": "ineq", "fun": (lambda p, i=i, j=j: p[j - 1] - p[i - 1])}
                    )
            res = minimize(
                lambda p: ((p - q) ** 2).sum(),
                np.zeros(m),
                constraints=cons,
                method="SLSQP",
                options={"maxiter": 500, "ftol": 1e-14},
            )
            assert ((x - q) ** 2).sum() <= ((res.x - q) ** 2).sum() + 1e-7
            assert np.allclose(x, res.x, atol=5e-4)


class TestRealizability:
    def test_forward_direction(self):
        from treesched.decompose import decompose

        tree = SensorTree(parent=[0, 1], cost=[1.0, 1.0])
        assert feasibility_of_marginals(tree, [0.8, 0.5])
        assert len(decompose(tree, [0.8, 0.5])) >= 1

    def test_converse_direction(self):
        from treesched.decompose import decompose
        from treesched.errors import OrderingViolated

        tree = SensorTree(parent=[0, 1], cost=[1.0, 1.0])
        assert not feasibility_of_marginals(tree, [0.5, 0.8])
        with pytest.raises(OrderingViolated):
            decompose(tree, [0.5, 0.8])

    def test_all_ones_realized_by_full_tree(self, rng):
        from treesched.decompose import decompose

        tree = random_tree(rng, 6)
        assert feasibility_of_marginals(tree, np.ones(6))
        dist = decompose(tree, np.ones(6))
        assert len(dist) == 1
        members, prob = next(iter(dist))
        assert members == frozenset(range(1, 7)) and prob == 1.0

    def test_set_is_convex(self):
        check_polytope_convex(samples=100, seed=4)
