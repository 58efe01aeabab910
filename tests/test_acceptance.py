"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. The heavyweight benchmark study (criteria 9 and 10) runs
once in a shared fixture.
"""

import json
import math

import numpy as np
import pytest

from oracles import grid_search_subproblem
from treesched.cli import main
from treesched.decompose import decompose, marginals_of
from treesched.errors import OrderingViolated
from treesched.lowerbound import L_infinity, bound_sequence
from treesched.model import LinearSystem, SensorTree, tree_energy
from treesched.polytope import FeasibleSet, contains
from treesched.properties import (
    check_bound_concave_monotone_in_X,
    check_map_concave_in_X,
    check_map_monotone_in_X,
    check_trace_convex_in_p,
    check_inverse_convex_prediction_concave,
    random_distribution,
    random_feasible_marginals,
    random_system,
    random_tree,
)
from treesched.protocol import simulate_run
from treesched.riccati import asymptotic_expected_trace, expected_trace_curve, sample_path
from treesched.scheduler import greedy_optimize, initial_schedule, solve_descent_subproblem
from treesched.testbed import DiffusionConfig, random_instance


def scalar_demo():
    sys = LinearSystem(A=[[1.0]], Q=[[1.0]], C=[[1.0]], r=[1.0], Sigma0=[[1.0]])
    tree = SensorTree(parent=[0], cost=[1.0])
    return sys, tree


@pytest.fixture(scope="module")
def experiment_run(tmp_path_factory):
    """The 100-trial benchmark study; shared by criteria 9 and 10."""
    root = tmp_path_factory.mktemp("experiment")
    cfg = {
        "trials": 100,
        "seed": 2100,
        "mc_trials": 1000,
        "burn_in": 80,
        "horizon": 160,
        "rounds": 2000,
        "path_steps": 200,
        "path_mc_trials": 10000,
        "diffusion": {
            "side_length": 3.0,
            "diffusion_rate": 0.1,
            "grid_spacing": 1.0,
            "time_step": 1.0,
            "sensor_count": 16,
            "process_noise": 1.0,
            "measurement_noise": 1.0,
            "initial_variance": 4.0,
            "budget": 6.0,
            "cost_offset": 1.0,
        },
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = root / "out"
    out_dir.mkdir()
    # Two workers; outputs are identical for every --jobs value.
    code = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out_dir), "--jobs", "2"])
    return code, out_dir


def test_criterion_01_bound_below_monte_carlo_mean():
    """E trace(P_k) from >= 2000 paths stays above trace(L_k) - 3 SE, k <= 50."""
    cases = []
    sys1, tree1 = scalar_demo()
    cases.append((sys1, tree1, np.array([0.6])))
    inst = random_instance(DiffusionConfig(seed=77))
    rng = np.random.default_rng(4)
    cases.append((inst.system, inst.tree, random_feasible_marginals(rng, inst.tree)))
    for sys, tree, p in cases:
        dist = decompose(tree, p)
        mean, se = expected_trace_curve(sys, tree, dist, steps=50, trials=2000, seed=55)
        bounds = bound_sequence(sys, [p] * 50)
        for k in range(50):
            floor = np.trace(bounds[k + 1]) - 3.0 * se[k]
            assert mean[k] >= floor, f"step {k + 1}: MC mean {mean[k]:g} < {floor:g}"
    print("ACCEPTANCE 1 PASS: bound stays below the Monte Carlo mean")


def test_criterion_02_greedy_descent_invariants():
    """20 random instances (n <= 16, m <= 16): monotone traces, matrix descent."""
    rng = np.random.default_rng(2024)
    for k in range(20):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(1, 17))
        sys = random_system(rng, n, m)
        tree = random_tree(rng, m)
        fs = FeasibleSet(tree, float(rng.uniform(0.2, 0.9)) * float(tree.cost.sum()))
        gt = greedy_optimize(sys, fs)
        traces = [it.trace for it in gt.iterates]
        # the 1e-8 matrix-descent slack bounds any trace drift by n * 1e-8
        for a, b in zip(traces, traces[1:]):
            assert b <= a + n * 1e-8, f"instance {k}: trace increased"
        for prev, cur in zip(gt.iterates, gt.iterates[1:]):
            worst = float(np.linalg.eigvalsh(cur.L - prev.L).max())
            assert worst <= 1e-8, f"instance {k}: lambda_max(dL) = {worst:g}"
        for it in gt.iterates:
            assert contains(fs, it.p), f"instance {k}: infeasible iterate"
    print("ACCEPTANCE 2 PASS: greedy descent invariants on 20 instances")


def test_criterion_03_fixed_point_independent_of_start():
    """L_infinity from 0 and from 100 I agree to 1e-8 relative Frobenius."""
    rng = np.random.default_rng(31)
    for k in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 9))
        sys = random_system(rng, n, m)
        p = rng.uniform(0.2, 1.0, m)
        lo = L_infinity(sys, np.zeros((n, n)), p)
        hi = L_infinity(sys, 100.0 * np.eye(n), p)
        gap = np.linalg.norm(lo - hi, "fro") / np.linalg.norm(lo, "fro")
        assert gap <= 1e-8, f"instance {k}: relative gap {gap:g}"
    print("ACCEPTANCE 3 PASS: fixed point independent of the start")


def test_criterion_04_subproblem_matches_grid_search():
    """10 random m <= 3 instances vs the 1e-3 grid oracle, within 1e-3."""
    rng = np.random.default_rng(92)
    layouts = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (1, 3), (1, 3)]
    for k, (n, m) in enumerate(layouts):
        sys = random_system(rng, n, m)
        tree = random_tree(rng, m)
        fs = FeasibleSet(tree, float(rng.uniform(0.4, 0.9)) * float(tree.cost.sum()))
        p0 = initial_schedule(fs)
        L0 = L_infinity(sys, np.eye(n), p0)
        res = solve_descent_subproblem(sys, fs, L0, p0)
        oracle_trace, _ = grid_search_subproblem(sys, fs, L0, p0, resolution=1e-3)
        assert abs(res.trace - oracle_trace) <= 1e-3, (
            f"instance {k} (n={n}, m={m}): solver {res.trace:.6f} vs grid {oracle_trace:.6f}"
        )
    print("ACCEPTANCE 4 PASS: subproblem matches the grid oracle")


def test_criterion_05_energy_identity():
    """|sum_T pi_T E(T) - sum_i c_i p_i| <= 1e-12 on 100 random distributions."""
    rng = np.random.default_rng(5)
    for k in range(100):
        tree = random_tree(rng, int(rng.integers(1, 13)))
        dist = random_distribution(rng, tree, support=int(rng.integers(1, 9)))
        lhs = sum(prob * tree_energy(tree, members) for members, prob in dist)
        rhs = float(tree.cost @ marginals_of(dist, tree.m))
        assert abs(lhs - rhs) <= 1e-12, f"distribution {k}: off by {lhs - rhs:g}"
    print("ACCEPTANCE 5 PASS: expected energy is linear in the marginals")


def test_criterion_06_decompose_round_trip_and_rejection():
    """100 feasible p recompose exactly; 100 infeasible p are rejected."""
    rng = np.random.default_rng(6)
    feasible = 0
    while feasible < 100:
        tree = random_tree(rng, int(rng.integers(1, 13)))
        p = random_feasible_marginals(rng, tree)
        back = marginals_of(decompose(tree, p), tree.m)
        assert np.abs(back - p).max() <= 1e-12
        feasible += 1
    rejected = 0
    while rejected < 100:
        m = int(rng.integers(2, 13))
        tree = random_tree(rng, m)
        deep = [i for i in range(1, m + 1) if tree.parent_of(i) != 0]
        if not deep:
            continue
        p = random_feasible_marginals(rng, tree)
        i = int(rng.choice(deep))
        parent = tree.parent_of(i)
        p[i - 1] = min(1.0, p[parent - 1] + float(rng.uniform(0.01, 0.5)))
        if p[i - 1] <= p[parent - 1] + 1e-9:
            continue
        with pytest.raises(OrderingViolated):
            decompose(tree, p)
        rejected += 1
    print("ACCEPTANCE 6 PASS: decomposition round trip and rejection")


def test_criterion_07_protocol_fidelity():
    """1e5 rounds: frequencies and energy within 3 sigma, no coordination."""
    rng = np.random.default_rng(7)
    tree = random_tree(rng, 8)
    p = random_feasible_marginals(rng, tree)
    N = 10**5
    run = simulate_run(tree, p, seed=708, rounds=N)
    assert run.rounds == N  # every round passed the all-node agreement check
    assert run.control_messages == 0
    for i in range(8):
        sigma = math.sqrt(p[i] * (1 - p[i]) / N)
        err = abs(run.empirical_marginals[i] - p[i])
        assert err <= max(3 * sigma, 1e-12), f"sensor {i + 1}: {err:g} > 3 sigma"
    dist = decompose(tree, p)
    expected_energy = float(tree.cost @ p)
    second_moment = sum(prob * tree_energy(tree, members) ** 2 for members, prob in dist)
    sigma_e = math.sqrt(max(second_moment - expected_energy**2, 0.0) / N)
    assert abs(run.mean_energy - expected_energy) <= max(3 * sigma_e, 1e-12)
    print("ACCEPTANCE 7 PASS: protocol fidelity at 1e5 rounds")


def test_criterion_08_sample_path_ergodicity():
    """Time-averaged trace of one long path <= asymptotic estimate * 1.02."""
    sys1, tree1 = scalar_demo()
    gt1 = greedy_optimize(sys1, FeasibleSet(tree1, 1.0))
    dist1 = decompose(tree1, gt1.p_star)
    est1 = asymptotic_expected_trace(sys1, tree1, dist1, burn_in=100, horizon=300, trials=1000, seed=80)
    path1 = sample_path(sys1, tree1, dist1, seed=81, steps=10**5)
    assert path1.time_average() <= est1 * 1.02

    inst = random_instance(DiffusionConfig(seed=88))
    gt2 = greedy_optimize(inst.system, FeasibleSet(inst.tree, 6.0))
    dist2 = decompose(inst.tree, gt2.p_star)
    est2 = asymptotic_expected_trace(
        inst.system, inst.tree, dist2, burn_in=100, horizon=250, trials=1500, seed=82
    )
    path2 = sample_path(inst.system, inst.tree, dist2, seed=83, steps=10**5)
    assert path2.time_average() <= est2 * 1.02
    print("ACCEPTANCE 8 PASS: sample-path time averages within 2% of the estimate")


@pytest.mark.slow
def test_criterion_09_stochastic_beats_deterministic(experiment_run):
    """>= 95 of 100 benchmark trials give ratio >= 1.0."""
    code, out_dir = experiment_run
    assert code == 0
    lines = (out_dir / "ratios.csv").read_text().strip().splitlines()[1:]
    ratios = [float(line.split(",")[1]) for line in lines]
    assert len(ratios) == 100
    wins = sum(1 for r in ratios if r >= 1.0)
    assert wins >= 95, f"only {wins}/100 trials had ratio >= 1"
    print(f"ACCEPTANCE 9 PASS: {wins}/100 ratios >= 1, mean {np.mean(ratios):.3f}")


@pytest.mark.slow
def test_criterion_10_trace_evolution_shape(experiment_run):
    """MC mean converges (<1% drift over the last 20 steps) below the
    deterministic steady state."""
    _, out_dir = experiment_run
    lines = (out_dir / "trace_path.csv").read_text().strip().splitlines()[1:]
    det = np.array([float(line.split(",")[1]) for line in lines])
    mc = np.array([float(line.split(",")[3]) for line in lines])
    tail = mc[-20:]
    assert np.abs(tail - mc[-1]).max() / mc[-1] < 0.01, "MC mean has not converged"
    det_steady = det[-20:].mean()
    assert mc[-1] < det_steady, f"MC mean {mc[-1]:g} not below deterministic {det_steady:g}"
    print("ACCEPTANCE 10 PASS: trace evolution has the expected shape")


def test_criterion_11_convexity_spot_checks():
    """1000 sampled inequalities per property, zero violations past 1e-10."""
    check_trace_convex_in_p(samples=1000, seed=111, slack=1e-10)
    check_map_monotone_in_X(samples=1000, seed=112)
    check_map_concave_in_X(samples=1000, seed=113)
    check_bound_concave_monotone_in_X(samples=1000, seed=114)
    check_inverse_convex_prediction_concave(samples=1000, seed=115)
    print("ACCEPTANCE 11 PASS: convexity and monotonicity spot checks")
