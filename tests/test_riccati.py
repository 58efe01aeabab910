"""Riccati map, sample paths, and Monte Carlo estimates vs independent oracles."""

import math

import numpy as np
import pytest

from oracles import grid_chain_expected_traces, scalar_fixed_point
from treesched.errors import Diverged, InvalidInput, InvalidSubtree
from treesched.model import LinearSystem, SensorTree, TreeDistribution
from treesched.properties import random_system, random_tree
from treesched.riccati import (
    _propagate,
    asymptotic_expected_trace,
    expected_P,
    expected_trace_curve,
    g_T,
    sample_path,
)

GOLDEN_FP = (math.sqrt(5.0) - 1.0) / 2.0  # fixed point of x -> (x+1)/(x+2)


def mixed_dist():
    return TreeDistribution.from_pairs([(frozenset(), 0.5), (frozenset({1}), 0.5)])


def unstable_case():
    """Detectable support, but reporting 10% of the time cannot hold A = 2."""
    sys = LinearSystem(A=[[2.0]], Q=[[1.0]], C=[[1.0]], r=[1.0], Sigma0=[[1.0]])
    return sys, TreeDistribution.from_pairs([(frozenset(), 0.9), (frozenset({1}), 0.1)])


def scalar_maps():
    return [lambda x: x + 1.0, lambda x: (x + 1.0) / (x + 2.0)]


def multi_sensor_case(seed, n, m):
    """A random system and tree whose support is the empty tree, a partial
    tree (the first half of the sensors by depth) and the full tree."""
    rng = np.random.default_rng(seed)
    sys, tree = random_system(rng, n, m), random_tree(rng, m)
    partial = frozenset(tree.root_first[: (m + 1) // 2])
    full = frozenset(range(1, m + 1))
    dist = TreeDistribution.from_pairs([(frozenset(), 0.4), (partial, 0.3), (full, 0.3)])
    return sys, tree, dist


class TestGT:
    def test_scalar_with_sensor(self, scalar_system):
        assert g_T(scalar_system, [[1.0]], {1})[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_scalar_prediction_only(self, scalar_system):
        assert g_T(scalar_system, [[1.0]], frozenset())[0, 0] == pytest.approx(2.0, abs=1e-15)

    def test_iterating_reaches_quadratic_fixed_point(self, scalar_system):
        X = np.array([[1.0]])
        for _ in range(200):
            X = g_T(scalar_system, X, {1})
        assert X[0, 0] == pytest.approx(GOLDEN_FP, abs=1e-12)
        assert X[0, 0] == pytest.approx(scalar_fixed_point(1, 1, 1, 1, 1.0), abs=1e-12)

    def test_bad_sensor_index_rejected(self, scalar_system):
        with pytest.raises(InvalidSubtree):
            g_T(scalar_system, [[1.0]], {2})

    def test_sample_path_rejects_invalid_support(self, scalar_system):
        tree = SensorTree(parent=[0, 1], cost=[1.0, 1.0])
        sys2 = LinearSystem(
            A=np.eye(2), Q=np.eye(2), C=np.eye(2), r=[1.0, 1.0], Sigma0=np.eye(2)
        )
        dist = TreeDistribution.from_pairs([(frozenset({2}), 1.0)])  # skips its relay
        with pytest.raises(InvalidSubtree):
            sample_path(sys2, tree, dist, seed=0, steps=5)


class TestSamplePath:
    def test_degenerate_dist_equals_deterministic_iteration(self, scalar_system, scalar_tree):
        dist = TreeDistribution.from_pairs([(frozenset({1}), 1.0)])
        sp = sample_path(scalar_system, scalar_tree, dist, seed=5, steps=60)
        X = np.array([[1.0]])
        expected = []
        for _ in range(60):
            X = g_T(scalar_system, X, {1})
            expected.append(X[0, 0])
        assert np.allclose(sp.traces, expected, atol=1e-14)

    def test_never_transmitting_grows_linearly(self, scalar_system, scalar_tree):
        dist = TreeDistribution.from_pairs([(frozenset(), 1.0)])
        sp = sample_path(scalar_system, scalar_tree, dist, seed=5, steps=25)
        assert np.allclose(sp.traces, 1.0 + np.arange(1, 26), atol=1e-12)

    def test_seed_reproducible_bit_exact(self, scalar_system, scalar_tree):
        a = sample_path(scalar_system, scalar_tree, mixed_dist(), seed=77, steps=500)
        b = sample_path(scalar_system, scalar_tree, mixed_dist(), seed=77, steps=500)
        assert np.array_equal(a.traces, b.traces)
        assert np.array_equal(a.tree_index, b.tree_index)

    def test_time_average_matches_markov_grid_oracle(self, scalar_system, scalar_tree):
        steps = 10**4
        sp = sample_path(scalar_system, scalar_tree, mixed_dist(), seed=11, steps=steps)
        # stationary mean from the grid oracle (expectations settle quickly)
        oracle = grid_chain_expected_traces(scalar_maps(), [0.5, 0.5], 1.0, 400)
        stationary = oracle[-50:].mean()
        # batch-means standard error of the time average of a correlated path
        batches = sp.traces.reshape(20, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(len(batches))
        assert abs(sp.time_average() - stationary) <= 3.0 * se


class TestExpectedP:
    def test_degenerate_dist_zero_stderr(self, scalar_system, scalar_tree):
        dist = TreeDistribution.from_pairs([(frozenset({1}), 1.0)])
        mean, se = expected_P(scalar_system, scalar_tree, dist, step=30, trials=8, seed=0)
        assert se[0, 0] == 0.0
        X = np.array([[1.0]])
        for _ in range(30):
            X = g_T(scalar_system, X, {1})
        assert mean[0, 0] == pytest.approx(X[0, 0], abs=1e-14)

    def test_mean_matches_grid_oracle_at_step_50(self, scalar_system, scalar_tree):
        oracle = grid_chain_expected_traces(scalar_maps(), [0.5, 0.5], 1.0, 50)
        # frozen value guards the oracle itself against accidental drift
        assert oracle[-1] == pytest.approx(1.7012726, abs=1e-4)
        mean, se = expected_P(scalar_system, scalar_tree, mixed_dist(), step=50, trials=10**4, seed=123)
        assert abs(mean[0, 0] - oracle[-1]) <= 3.0 * max(se[0, 0], 1e-12)

    def test_no_observations_grows_monotonically(self, scalar_system, scalar_tree):
        dist = TreeDistribution.from_pairs([(frozenset(), 1.0)])
        mean, se = expected_trace_curve(scalar_system, scalar_tree, dist, steps=20, trials=4, seed=0)
        assert np.all(np.diff(mean) > 0)
        assert np.all(se == 0.0)


class TestAsymptoticExpectedTrace:
    def test_degenerate_full_tree_hits_fixed_point(self, scalar_system, scalar_tree):
        dist = TreeDistribution.from_pairs([(frozenset({1}), 1.0)])
        est = asymptotic_expected_trace(
            scalar_system, scalar_tree, dist, burn_in=100, horizon=200, trials=4, seed=0
        )
        assert est == pytest.approx(GOLDEN_FP, abs=1e-9)

    def test_undetectable_support_diverges_immediately(self, scalar_system, scalar_tree):
        dist = TreeDistribution.from_pairs([(frozenset(), 1.0)])
        with pytest.raises(Diverged):
            asymptotic_expected_trace(
                scalar_system, scalar_tree, dist, burn_in=10, horizon=50, trials=4, seed=0
            )

    def test_runtime_divergence_raises(self, scalar_tree):
        sys, dist = unstable_case()
        with pytest.raises(Diverged, match="at step 11;"):
            asymptotic_expected_trace(sys, scalar_tree, dist, burn_in=10, horizon=50, trials=50, seed=0)

    def test_mixed_dist_matches_grid_oracle(self, scalar_system, scalar_tree):
        oracle = grid_chain_expected_traces(scalar_maps(), [0.5, 0.5], 1.0, 400)
        stationary = oracle[-50:].mean()
        est = asymptotic_expected_trace(
            scalar_system, scalar_tree, mixed_dist(), burn_in=150, horizon=400, trials=3000, seed=9
        )
        assert est == pytest.approx(stationary, rel=0.02)


@pytest.mark.parametrize("trials", [0, -1])
def test_asymptotic_needs_a_trial(scalar_system, scalar_tree, trials):
    with pytest.raises(InvalidInput):
        asymptotic_expected_trace(scalar_system, scalar_tree, mixed_dist(), 1, 5, trials, seed=0)


def test_expected_trace_curve_needs_two_trials(scalar_system, scalar_tree):
    with pytest.raises(InvalidInput):
        expected_trace_curve(scalar_system, scalar_tree, mixed_dist(), 5, trials=1, seed=0)


@pytest.mark.parametrize("steps, seed", [(-1, 0), (5, -1)])
def test_negative_steps_or_seed_rejected(scalar_system, scalar_tree, steps, seed):
    with pytest.raises(InvalidInput):
        sample_path(scalar_system, scalar_tree, mixed_dist(), seed=seed, steps=steps)
    with pytest.raises(InvalidInput):
        expected_trace_curve(scalar_system, scalar_tree, mixed_dist(), steps, trials=2, seed=seed)


def test_every_estimator_stops_a_diverging_schedule(scalar_tree):
    sys, dist = unstable_case()
    with pytest.raises(Diverged, match="exceeded 1e\\+06 at step"):
        sample_path(sys, scalar_tree, dist, seed=0, steps=2000)
    with pytest.raises(Diverged, match="at step 11;"):
        expected_P(sys, scalar_tree, dist, step=2000, trials=50, seed=0)
    with pytest.raises(Diverged, match="at step 11;"):
        expected_trace_curve(sys, scalar_tree, dist, steps=2000, trials=50, seed=0)


class TestPropagationKernel:
    @pytest.mark.parametrize("seed, n, m", [(1, 3, 5), (2, 4, 2), (3, 2, 6)])
    @pytest.mark.parametrize("trials", [None, 6])
    def test_matches_g_T_along_the_draws(self, seed, n, m, trials):
        """The Monte Carlo kernel, which updates with the drawn tree's own
        rows, is g_T, which updates with all m rows at 0/1 weights, along the
        draws of each path, step by step, to rounding."""
        sys, tree, dist = multi_sensor_case(seed, n, m)
        draws, traces, P = _propagate(sys, tree, dist, 30, seed, trials)
        assert set(draws.ravel().tolist()) == {0, 1, 2}
        for t in range(draws.shape[0]):
            X = np.array(sys.Sigma0)
            for k, j in enumerate(draws[t]):
                X = g_T(sys, X, dist.trees[j])
                assert traces[t, k] == pytest.approx(np.trace(X), rel=1e-12)
            np.testing.assert_allclose(P[t], X, rtol=1e-12, atol=1e-12 * np.abs(X).max())

    def test_batch_prefix_is_bit_identical(self):
        """Trial t's path depends on (seed, t) alone: the first 13 paths of a
        200-path batch are the 13-path batch, bit for bit."""
        sys, tree, dist = multi_sensor_case(4, 5, 7)
        big = _propagate(sys, tree, dist, 40, 11, 200)
        small = _propagate(sys, tree, dist, 40, 11, 13)
        for a, b in zip(big, small):
            assert np.array_equal(a[:13], b)
