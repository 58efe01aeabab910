"""Greedy descent optimizer: initialization, subproblem, full runs."""

import math

import numpy as np
import pytest

from oracles import grid_search_subproblem, scalar_fixed_point
from treesched.errors import InitialDiverged, InvalidInput
from treesched.lowerbound import L_infinity, L_step
from treesched.model import LinearSystem, SensorTree
from treesched.polytope import FeasibleSet, contains
from treesched.properties import check_greedy_invariants, random_system, random_tree
from treesched.testbed import DiffusionConfig, random_instance
from treesched.scheduler import (
    greedy_optimize,
    initial_schedule,
    solve_descent_subproblem,
)

GOLDEN_FP = (math.sqrt(5.0) - 1.0) / 2.0


class TestInitialSchedule:
    def test_uniform_budget_split(self):
        fs = FeasibleSet(SensorTree(parent=[0, 0, 0], cost=[1.0, 1.0, 1.0]), 1.5)
        assert initial_schedule(fs).tolist() == [0.5, 0.5, 0.5]

    def test_clamped_when_budget_exceeds_total(self):
        fs = FeasibleSet(SensorTree(parent=[0, 0], cost=[1.0, 1.0]), 5.0)
        assert initial_schedule(fs).tolist() == [1.0, 1.0]

    def test_always_feasible(self, rng):
        for _ in range(30):
            tree = random_tree(rng, int(rng.integers(1, 12)))
            fs = FeasibleSet(tree, float(rng.uniform(0.0, 2.0)) * float(tree.cost.sum()))
            assert contains(fs, initial_schedule(fs))


class TestSubproblem:
    def test_single_sensor_full_budget_saturates(self, scalar_system, scalar_tree):
        fs = FeasibleSet(scalar_tree, 1.0)
        L0 = L_infinity(scalar_system, np.eye(1), initial_schedule(fs))
        res = solve_descent_subproblem(scalar_system, fs, L0, initial_schedule(fs))
        assert res.p[0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_budget_gives_prediction_step(self):
        sys = LinearSystem(A=[[0.5]], Q=[[1.0]], C=[[1.0]], r=[1.0], Sigma0=[[1.0]])
        tree = SensorTree(parent=[0], cost=[1.0])
        fs = FeasibleSet(tree, 0.0)
        L0 = L_infinity(sys, np.eye(1), initial_schedule(fs))
        res = solve_descent_subproblem(sys, fs, L0, initial_schedule(fs))
        assert res.p[0] == 0.0
        assert res.L[0, 0] == pytest.approx(L_step(sys, L0, [0.0])[0, 0], abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_grid_oracle_m2(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        sys = random_system(rng, n, 2)
        tree = random_tree(rng, 2)
        fs = FeasibleSet(tree, float(rng.uniform(0.4, 0.9)) * float(tree.cost.sum()))
        p0 = initial_schedule(fs)
        L0 = L_infinity(sys, np.eye(n), p0)
        res = solve_descent_subproblem(sys, fs, L0, p0)
        oracle_trace, _ = grid_search_subproblem(sys, fs, L0, p0, resolution=1e-3)
        assert res.trace <= oracle_trace + 1e-3
        assert res.trace >= oracle_trace - 1e-3

    def test_descent_violating_start_rejected(self, scalar_system, scalar_tree):
        fs = FeasibleSet(scalar_tree, 1.0)
        L_full = L_infinity(scalar_system, np.eye(1), [1.0])
        with pytest.raises(InvalidInput, match="descent constraint"):
            solve_descent_subproblem(scalar_system, fs, L_full, [0.0])

    def test_matches_grid_oracle_m3_scalar(self):
        rng = np.random.default_rng(11)
        sys = random_system(rng, 1, 3)
        tree = random_tree(rng, 3)
        fs = FeasibleSet(tree, 0.6 * float(tree.cost.sum()))
        p0 = initial_schedule(fs)
        L0 = L_infinity(sys, np.eye(1), p0)
        res = solve_descent_subproblem(sys, fs, L0, p0)
        oracle_trace, _ = grid_search_subproblem(sys, fs, L0, p0, resolution=1e-3)
        assert abs(res.trace - oracle_trace) <= 1e-3


class TestGreedyOptimize:
    def test_scalar_demo_reaches_quadratic_fixed_point(self, scalar_system, scalar_tree):
        gt = greedy_optimize(scalar_system, FeasibleSet(scalar_tree, 1.0))
        assert gt.p_star[0] == pytest.approx(1.0, abs=1e-9)
        assert gt.trace_L_inf == pytest.approx(GOLDEN_FP, abs=1e-8)
        assert gt.converged

    def test_scalar_demo_certified(self, scalar_system, scalar_tree):
        its = greedy_optimize(scalar_system, FeasibleSet(scalar_tree, 1.0)).iterates
        assert [it.status for it in its] == ["start", "certified"]
        assert its[1].pg_residual <= 1e-7
        assert its[1].iterations > 0

    def test_paper_instance_stalls(self):
        # Seed 2103's first subproblem is pinned at the uniform start.
        inst = random_instance(DiffusionConfig(seed=2103))
        gt = greedy_optimize(inst.system, FeasibleSet(inst.tree, DiffusionConfig().budget))
        assert [it.status for it in gt.iterates] == ["start", "stalled"]
        assert gt.iterates[1].pg_residual > 1e-7

    def test_every_step_certified_or_stalled(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            sys = random_system(rng, int(rng.integers(1, 5)), 4)
            tree = random_tree(rng, 4)
            gt = greedy_optimize(sys, FeasibleSet(tree, 0.6 * float(tree.cost.sum())))
            assert gt.iterates[0].status == "start"
            assert {it.status for it in gt.iterates[1:]} <= {"certified", "stalled"}

    def test_useless_sensor_gets_no_budget(self):
        sys = LinearSystem(
            A=[[0.9, 0.0], [0.0, 1.1]],
            Q=np.eye(2),
            C=[[1.0, 1.0], [0.0, 0.0]],
            r=[1.0, 1.0],
            Sigma0=np.eye(2),
        )
        tree = SensorTree(parent=[0, 0], cost=[1.0, 1.0])
        gt = greedy_optimize(sys, FeasibleSet(tree, 0.8))
        assert gt.p_star[0] == pytest.approx(0.8, abs=1e-6)
        assert gt.p_star[1] == pytest.approx(0.0, abs=1e-6)

    def test_insufficient_budget_raises_initial_diverged(self, scalar_system, scalar_tree):
        with pytest.raises(InitialDiverged):
            greedy_optimize(scalar_system, FeasibleSet(scalar_tree, 0.0))

    def test_stable_system_accepts_zero_budget(self):
        sys = LinearSystem(A=[[0.5]], Q=[[1.0]], C=[[1.0]], r=[1.0], Sigma0=[[1.0]])
        tree = SensorTree(parent=[0], cost=[1.0])
        gt = greedy_optimize(sys, FeasibleSet(tree, 0.0))
        assert gt.p_star[0] == 0.0
        assert gt.trace_L_inf == pytest.approx(1.0 / 0.75, abs=1e-8)

    def test_invariants_on_random_instances(self):
        check_greedy_invariants(samples=4, seed=12)

    def test_limit_independent_of_bound_start(self, rng):
        sys = random_system(rng, 3, 4)
        tree = random_tree(rng, 4)
        gt = greedy_optimize(sys, FeasibleSet(tree, 0.5 * float(tree.cost.sum())))
        lo = L_infinity(sys, np.zeros((3, 3)), gt.p_star)
        hi = L_infinity(sys, 100.0 * np.eye(3), gt.p_star)
        assert np.trace(lo) == pytest.approx(np.trace(hi), rel=1e-6)
        assert gt.fixed_point_gap <= 1e-6

    def test_fractional_budget_scalar_matches_oracle(self, scalar_system, scalar_tree):
        gt = greedy_optimize(scalar_system, FeasibleSet(scalar_tree, 0.4))
        assert gt.p_star[0] == pytest.approx(0.4, abs=1e-8)
        assert gt.trace_L_inf == pytest.approx(scalar_fixed_point(1, 1, 1, 1, 0.4), abs=1e-7)
