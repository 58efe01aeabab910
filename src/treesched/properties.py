"""Numeric property suite: the structural facts the optimizer relies on.

Each check draws randomized instances from a seeded generator and raises
AssertionError with a counterexample description on failure. The CLI
``selftest`` command runs every check at its default size; the test suite
reuses the same functions, some at larger sample counts.
"""

from __future__ import annotations

import numpy as np

from ._linalg import spd_inverse, symmetrize
from .baseline import best_deterministic, enumerate_subtrees
from .decompose import decompose, marginals_of
from .errors import OrderingViolated
from .lowerbound import L_infinity, L_step, _doubling, bound_sequence, detectable_schedule
from .model import (
    LinearSystem,
    SensorTree,
    TreeDistribution,
    is_valid_subtree,
    tree_energy,
)
from .polytope import KKT_TOL, FeasibleSet, contains, isotonic_tree_project, project
from .protocol import shared_draw, simulate_run
from .riccati import expected_trace_curve, g_T, sample_path
from .scheduler import greedy_optimize

EIG_SLACK = 1e-10


# ---------------------------------------------------------------------------
# Randomized instance helpers
# ---------------------------------------------------------------------------


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    B = rng.standard_normal((n, n))
    return scale * (B @ B.T) / n + 0.1 * scale * np.eye(n)


def random_system(rng: np.random.Generator, n: int, m: int) -> LinearSystem:
    B = rng.standard_normal((n, n))
    radius = float(np.max(np.abs(np.linalg.eigvals(B))))
    A = B * (rng.uniform(0.5, 1.05) / max(radius, 1e-9))
    C = rng.standard_normal((m, n))
    return LinearSystem(
        A=A,
        Q=random_psd(rng, n),
        C=C,
        r=rng.uniform(0.5, 2.0, m),
        Sigma0=random_psd(rng, n),
    )


def random_tree(rng: np.random.Generator, m: int) -> SensorTree:
    parent = [0] + [int(rng.integers(0, i)) for i in range(1, m)]
    return SensorTree(parent=parent, cost=rng.uniform(0.5, 2.0, m))


def random_feasible_marginals(rng: np.random.Generator, tree: SensorTree) -> np.ndarray:
    """Ordering-feasible marginals: each child draws below its parent."""
    p = np.empty(tree.m)
    for i in tree.root_first:
        j = tree.parent_of(i)
        cap = 1.0 if j == 0 else p[j - 1]
        p[i - 1] = rng.uniform(0.0, cap)
    return p


def random_valid_subtree(rng: np.random.Generator, tree: SensorTree) -> frozenset:
    """Random member set, closed under the parent map by construction."""
    members = set()
    for i in range(1, tree.m + 1):
        if rng.random() < 0.5:
            node = i
            while node != 0 and node not in members:
                members.add(node)
                node = tree.parent_of(node)
    return frozenset(members)


def random_distribution(rng: np.random.Generator, tree: SensorTree, support: int = 5) -> TreeDistribution:
    trees = [random_valid_subtree(rng, tree) for _ in range(support)]
    raw = rng.uniform(0.1, 1.0, support)
    return TreeDistribution(tuple(trees), raw / raw.sum())


def _psd_greater(X: np.ndarray, Y: np.ndarray, slack: float = EIG_SLACK) -> bool:
    """X >= Y in the semidefinite order, with eigenvalue slack."""
    scale = max(1.0, float(np.abs(X).max()), float(np.abs(Y).max()))
    return float(np.linalg.eigvalsh(symmetrize(X - Y)).min()) >= -slack * scale


# ---------------------------------------------------------------------------
# Covariance-map structure
# ---------------------------------------------------------------------------


def check_map_monotone_in_X(samples: int = 100, seed: int = 10) -> None:
    """X <= Y implies g_T(X) <= g_T(Y)."""
    rng = np.random.default_rng(seed)
    for k in range(samples):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        sys = random_system(rng, n, m)
        T = frozenset(int(i) + 1 for i in np.flatnonzero(rng.random(m) < 0.6))
        X = random_psd(rng, n)
        Y = X + random_psd(rng, n, scale=float(rng.uniform(0.1, 2.0)))
        assert _psd_greater(g_T(sys, Y, T), g_T(sys, X, T)), f"monotonicity failed (sample {k})"


def check_map_concave_in_X(samples: int = 100, seed: int = 11) -> None:
    """g_T(a X + (1-a) Y) >= a g_T(X) + (1-a) g_T(Y)."""
    rng = np.random.default_rng(seed)
    for k in range(samples):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        sys = random_system(rng, n, m)
        T = frozenset(int(i) + 1 for i in np.flatnonzero(rng.random(m) < 0.6))
        X, Y = random_psd(rng, n), random_psd(rng, n)
        a = float(rng.uniform(0.05, 0.95))
        lhs = g_T(sys, a * X + (1 - a) * Y, T)
        rhs = a * g_T(sys, X, T) + (1 - a) * g_T(sys, Y, T)
        assert _psd_greater(lhs, rhs), f"concavity failed (sample {k})"


def check_more_sensors_help(samples: int = 100, seed: int = 12) -> None:
    """T subset of T' implies g_T'(X) <= g_T(X)."""
    rng = np.random.default_rng(seed)
    for k in range(samples):
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        sys = random_system(rng, n, m)
        small = set(int(i) + 1 for i in np.flatnonzero(rng.random(m) < 0.4))
        extra = set(int(i) + 1 for i in np.flatnonzero(rng.random(m) < 0.4))
        big = small | extra
        X = random_psd(rng, n)
        assert _psd_greater(g_T(sys, X, small), g_T(sys, X, big)), f"extra sensor hurt (sample {k})"


def check_trace_convex_in_p(samples: int = 1000, seed: int = 13, slack: float = 1e-10) -> None:
    """trace L(X, .) is convex on the marginal box."""
    rng = np.random.default_rng(seed)
    for k in range(samples):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        sys = random_system(rng, n, m)
        X = random_psd(rng, n)
        p, q = rng.uniform(0, 1, m), rng.uniform(0, 1, m)
        a = float(rng.uniform(0.0, 1.0))
        lhs = np.trace(L_step(sys, X, a * p + (1 - a) * q))
        rhs = a * np.trace(L_step(sys, X, p)) + (1 - a) * np.trace(L_step(sys, X, q))
        assert lhs <= rhs + slack * max(1.0, abs(rhs)), f"trace convexity failed by {lhs - rhs:g} (sample {k})"


def check_bound_concave_monotone_in_X(samples: int = 500, seed: int = 14) -> None:
    """L(., p) is concave and monotone increasing."""
    rng = np.random.default_rng(seed)
    for k in range(samples):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        sys = random_system(rng, n, m)
        p = rng.uniform(0, 1, m)
        X, Y = random_psd(rng, n), random_psd(rng, n)
        a = float(rng.uniform(0.05, 0.95))
        lhs = L_step(sys, a * X + (1 - a) * Y, p)
        rhs = a * L_step(sys, X, p) + (1 - a) * L_step(sys, Y, p)
        assert _psd_greater(lhs, rhs), f"L concavity failed (sample {k})"
        Z = X + random_psd(rng, n, scale=float(rng.uniform(0.1, 2.0)))
        assert _psd_greater(L_step(sys, Z, p), L_step(sys, X, p)), f"L monotonicity failed (sample {k})"


def check_inverse_convex_prediction_concave(samples: int = 1000, seed: int = 15, slack: float = 1e-10) -> None:
    """trace of the matrix inverse is convex on segments of PD matrices, and
    the information-prediction map Z -> (A Z^{-1} A' + Q)^{-1} is concave and
    monotone increasing."""
    rng = np.random.default_rng(seed)
    for k in range(samples):
        n = int(rng.integers(1, 5))
        X, Y = random_psd(rng, n), random_psd(rng, n)
        a = float(rng.uniform(0.0, 1.0))
        mid = np.trace(spd_inverse(a * X + (1 - a) * Y))
        ends = a * np.trace(spd_inverse(X)) + (1 - a) * np.trace(spd_inverse(Y))
        assert mid <= ends + slack * max(1.0, abs(ends)), f"inverse-trace convexity failed (sample {k})"

        A = rng.standard_normal((n, n))
        Q = random_psd(rng, n)

        def h(Z):
            return spd_inverse(A @ spd_inverse(Z) @ A.T + Q)

        lhs = h(a * X + (1 - a) * Y)
        rhs = a * h(X) + (1 - a) * h(Y)
        assert _psd_greater(lhs, rhs), f"prediction concavity failed (sample {k})"
        Z2 = X + random_psd(rng, n, scale=float(rng.uniform(0.1, 2.0)))
        assert _psd_greater(h(Z2), h(X)), f"prediction monotonicity failed (sample {k})"


def check_fixed_point_start_independent(samples: int = 10, seed: int = 16) -> None:
    """Detectable schedules reach the same limit from 0 and from 100 I."""
    rng = np.random.default_rng(seed)
    for k in range(samples):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        sys = random_system(rng, n, m)
        p = rng.uniform(0.2, 1.0, m)
        lo = L_infinity(sys, np.zeros((n, n)), p)
        hi = L_infinity(sys, 100.0 * np.eye(n), p)
        gap = np.linalg.norm(lo - hi, "fro") / max(np.linalg.norm(lo, "fro"), 1e-300)
        assert gap <= 1e-8, f"fixed point start-dependent, rel gap {gap:g} (sample {k})"


def check_doubling_matches_iteration(samples: int = 10, seed: int = 28) -> None:
    """Doubling reaches the plain iteration's fixed point on stacks of random
    detectable schedules, within the iteration's own 1e-8 stop error."""
    rng = np.random.default_rng(seed)
    for k in range(samples):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        sys = random_system(rng, n, m)
        P = rng.uniform(0.0, 1.0, (4, m))
        P = P[[detectable_schedule(sys, p) for p in P]]
        for b, (got, p) in enumerate(zip(_doubling(sys, P), P)):
            want = L_infinity(sys, sys.Sigma0, p)
            gap = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert gap <= 1e-8, f"doubling off the iteration by {gap:g} (sample {k}, row {b})"


def check_sample_path_reproducible(seed: int = 17) -> None:
    rng = np.random.default_rng(seed)
    sys = random_system(rng, 3, 3)
    tree = random_tree(rng, 3)
    dist = random_distribution(rng, tree)
    a = sample_path(sys, tree, dist, seed=99, steps=200)
    b = sample_path(sys, tree, dist, seed=99, steps=200)
    assert np.array_equal(a.traces, b.traces) and np.array_equal(a.tree_index, b.tree_index), (
        "identical seeds gave different sample paths"
    )


# ---------------------------------------------------------------------------
# Polytope, decomposition, energy
# ---------------------------------------------------------------------------


def check_polytope_convex(samples: int = 200, seed: int = 20) -> None:
    rng = np.random.default_rng(seed)
    for k in range(samples):
        m = int(rng.integers(1, 8))
        tree = random_tree(rng, m)
        fs = FeasibleSet(tree, float(rng.uniform(0.2, 1.0)) * float(tree.cost.sum()))
        p = project(fs, rng.uniform(-1, 2, m))
        q = project(fs, rng.uniform(-1, 2, m))
        a = float(rng.uniform(0, 1))
        assert contains(fs, a * p + (1 - a) * q, tol=1e-9), f"convex combination left the set (sample {k})"


def check_projection_properties(samples: int = 60, seed: int = 21) -> None:
    """Idempotence and nonexpansiveness of the projection, and a binding budget
    spent within KKT_TOL * min(c), also for the input scaled by 1e9."""
    rng = np.random.default_rng(seed)
    for k in range(samples):
        m = int(rng.integers(1, 10))
        tree = random_tree(rng, m)
        fs = FeasibleSet(tree, float(rng.uniform(0.2, 1.0)) * float(tree.cost.sum()))
        q1, q2 = rng.uniform(-2, 3, m), rng.uniform(-2, 3, m)
        p1, p2 = project(fs, q1), project(fs, q2)
        assert contains(fs, p1) and contains(fs, p2), f"projection output infeasible (sample {k})"
        again = project(fs, p1)
        assert np.linalg.norm(again - p1) <= 1e-7, f"projection not idempotent (sample {k})"
        assert (
            np.linalg.norm(p1 - p2) <= np.linalg.norm(q1 - q2) + 1e-7
        ), f"projection expansive (sample {k})"
        for q, p in ((q1, p1), (1e9 * q1, project(fs, 1e9 * q1))):
            if float(tree.cost @ np.clip(isotonic_tree_project(tree, q), 0.0, 1.0)) > fs.budget:
                gap = abs(float(tree.cost @ p) - fs.budget)
                assert gap <= KKT_TOL * float(tree.cost.min()), f"binding budget missed by {gap:g} (sample {k})"


def check_energy_identity(samples: int = 100, seed: int = 22) -> None:
    """Expected tree energy equals the cost-weighted marginals exactly."""
    rng = np.random.default_rng(seed)
    for k in range(samples):
        m = int(rng.integers(1, 10))
        tree = random_tree(rng, m)
        dist = random_distribution(rng, tree, support=int(rng.integers(1, 8)))
        lhs = sum(prob * tree_energy(tree, members) for members, prob in dist)
        p = marginals_of(dist, m)
        rhs = float(tree.cost @ p)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), f"energy identity off by {lhs - rhs:g} (sample {k})"


def check_decompose_round_trip(samples: int = 100, seed: int = 23) -> None:
    """Feasible marginals decompose exactly; infeasible ones are rejected."""
    rng = np.random.default_rng(seed)
    accepted = rejected = 0
    for k in range(samples):
        m = int(rng.integers(1, 10))
        tree = random_tree(rng, m)
        p = random_feasible_marginals(rng, tree)
        dist = decompose(tree, p)
        back = marginals_of(dist, m)
        assert np.abs(back - p).max() <= 1e-12, f"round trip off by {np.abs(back - p).max():g} (sample {k})"
        prev = None
        for members, _ in dist:
            assert is_valid_subtree(tree, members), f"invalid support tree (sample {k})"
            assert prev is None or prev <= members, f"support not nested (sample {k})"
            prev = members
        accepted += 1
        # make an ordering violation somewhere (needs a sensor-parent edge)
        deep = [i for i in range(1, m + 1) if tree.parent_of(i) != 0]
        if deep:
            bad = np.array(p)
            i = int(rng.choice(deep))
            bad[i - 1] = min(1.0, bad[tree.parent_of(i) - 1] + float(rng.uniform(0.01, 0.5)))
            if bad[i - 1] > bad[tree.parent_of(i) - 1] + 1e-9:
                try:
                    decompose(tree, bad)
                    raise AssertionError(f"infeasible marginals accepted (sample {k})")
                except OrderingViolated:
                    rejected += 1
    assert accepted == samples and rejected > 0


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


def check_shared_draw() -> None:
    """Golden first draw, determinism across replicas, and a sane mean."""
    alpha, state = shared_draw(0)
    assert abs(alpha - 0.8833108082136426) < 1e-18, f"golden draw changed: {alpha!r}"
    a2, _ = shared_draw(state)
    assert abs(a2 - 0.43152799704850997) < 1e-18, f"second golden draw changed: {a2!r}"
    s1 = s2 = 12345
    for _ in range(10000):
        x1, s1 = shared_draw(s1)
        x2, s2 = shared_draw(s2)
        assert x1 == x2
    total, s = 0.0, 0
    for _ in range(10**6):
        x, s = shared_draw(s)
        total += x
    mean = total / 10**6
    assert abs(mean - 0.5) <= 0.002, f"mean of 1e6 draws off: {mean}"


def check_protocol_matches_decomposition(rounds: int = 20000, seed: int = 24) -> None:
    """Empirical tree frequencies match the nested decomposition (chi-square),
    per-sensor frequencies match p within 3 binomial errors, and the run
    carries zero coordination messages."""
    rng = np.random.default_rng(seed)
    m = 7
    tree = random_tree(rng, m)
    p = random_feasible_marginals(rng, tree)
    dist = decompose(tree, p)
    run = simulate_run(tree, p, seed=4242, rounds=rounds)
    assert run.control_messages == 0
    for i in range(m):
        sigma = np.sqrt(p[i] * (1 - p[i]) / rounds)
        err = abs(run.empirical_marginals[i] - p[i])
        assert err <= max(3 * sigma, 1e-12), f"sensor {i + 1} frequency off by {err:g}"
    support = {members: prob for members, prob in dist}
    assert set(run.tree_counts) <= set(support), "observed a tree outside the decomposition support"
    chi2 = 0.0
    dof = 0
    for members, prob in support.items():
        expected = prob * rounds
        if expected < 5.0:
            continue
        observed = run.tree_counts.get(members, 0)
        chi2 += (observed - expected) ** 2 / expected
        dof += 1
    dof = max(dof - 1, 1)
    limit = dof + 3.0 * np.sqrt(2.0 * dof)
    assert chi2 <= limit, f"chi-square {chi2:.2f} above {limit:.2f}"
    expected_energy = float(tree.cost @ p)
    second = sum(prob * tree_energy(tree, members) ** 2 for members, prob in dist)
    sigma_e = np.sqrt(max(second - expected_energy**2, 0.0) / rounds)
    assert abs(run.mean_energy - expected_energy) <= max(3 * sigma_e, 1e-12)


# ---------------------------------------------------------------------------
# Bound vs Monte Carlo, scheduler, baseline
# ---------------------------------------------------------------------------


def check_expected_covariance_dominates_bound(
    steps: int = 30, trials: int = 600, samples: int = 3, seed: int = 25
) -> None:
    """Monte Carlo mean trace never drops 3 errors below the bound trace."""
    rng = np.random.default_rng(seed)
    for k in range(samples):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        sys = random_system(rng, n, m)
        tree = random_tree(rng, m)
        p = random_feasible_marginals(rng, tree)
        dist = decompose(tree, p)
        mean, se = expected_trace_curve(sys, tree, dist, steps, trials, seed=seed + k)
        bounds = bound_sequence(sys, [p] * steps)
        for step in range(steps):
            lower = np.trace(bounds[step + 1]) - 3.0 * se[step]
            assert mean[step] >= lower - 1e-9, (
                f"MC mean {mean[step]:g} below bound {lower:g} at step {step + 1} (sample {k})"
            )


def check_greedy_invariants(samples: int = 3, seed: int = 26) -> None:
    """Monotone bound traces, feasible schedules, matrix-level descent."""
    rng = np.random.default_rng(seed)
    for k in range(samples):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        sys = random_system(rng, n, m)
        tree = random_tree(rng, m)
        fs = FeasibleSet(tree, float(rng.uniform(0.3, 0.9)) * float(tree.cost.sum()))
        gt = greedy_optimize(sys, fs)
        traces = [it.trace for it in gt.iterates]
        # the 1e-8 matrix-descent slack bounds trace drift by n * 1e-8
        for a, b in zip(traces, traces[1:]):
            assert b <= a + n * 1e-8, f"trace increased (sample {k})"
        for it in gt.iterates:
            assert contains(fs, it.p), f"iterate left the polytope (sample {k})"
        for prev, cur in zip(gt.iterates, gt.iterates[1:]):
            worst = float(np.linalg.eigvalsh(cur.L - prev.L).max())
            assert worst <= 1e-8, f"matrix descent violated by {worst:g} (sample {k})"
        assert gt.fixed_point_gap <= 1e-6


def check_baseline_matches_direct_iteration(seed: int = 27) -> None:
    """Exhaustive search agrees with directly iterating each candidate map."""
    rng = np.random.default_rng(seed)
    sys = random_system(rng, 2, 3)
    tree = random_tree(rng, 3)
    budget = 0.8 * float(tree.cost.sum())
    result = best_deterministic(sys, tree, budget)
    best = None
    for members in enumerate_subtrees(tree, budget):
        X = np.array(sys.Sigma0)
        w = np.zeros(3)
        for i in members:
            w[i - 1] = 1.0
        ok = True
        for _ in range(20000):
            Xn = L_step(sys, X, w)
            done = np.linalg.norm(Xn - X, "fro") <= 1e-12 * (1 + np.linalg.norm(X, "fro"))
            X = Xn
            if done:
                break
            if np.trace(X) > 1e9:
                ok = False
                break
        if ok and (best is None or np.trace(X) < best[0]):
            best = (float(np.trace(X)), members)
    assert best is not None
    assert abs(result.trace - best[0]) <= 1e-6 * max(1.0, best[0]), (
        f"exhaustive search trace {result.trace:g} vs direct {best[0]:g}"
    )


CHECKS = (
    ("shared-draw-golden-values", check_shared_draw),
    ("map-monotone-in-X", check_map_monotone_in_X),
    ("map-concave-in-X", check_map_concave_in_X),
    ("more-sensors-help", check_more_sensors_help),
    ("trace-convex-in-p", check_trace_convex_in_p),
    ("bound-concave-monotone-in-X", check_bound_concave_monotone_in_X),
    ("inverse-convex-prediction-concave", check_inverse_convex_prediction_concave),
    ("fixed-point-start-independent", check_fixed_point_start_independent),
    ("doubling-matches-iteration", check_doubling_matches_iteration),
    ("sample-path-reproducible", check_sample_path_reproducible),
    ("polytope-convex", check_polytope_convex),
    ("projection-idempotent-nonexpansive", check_projection_properties),
    ("tree-energy-identity", check_energy_identity),
    ("decompose-round-trip", check_decompose_round_trip),
    ("protocol-matches-decomposition", check_protocol_matches_decomposition),
    ("expected-covariance-dominates-bound", check_expected_covariance_dominates_bound),
    ("greedy-invariants", check_greedy_invariants),
    ("baseline-matches-direct-iteration", check_baseline_matches_direct_iteration),
)


def run_all() -> list:
    """Run every check; returns a list of (name, error-or-None)."""
    results = []
    for name, fn in CHECKS:
        try:
            fn()
            results.append((name, None))
            print(f"PASS {name}")
        except AssertionError as exc:
            results.append((name, str(exc)))
            print(f"FAIL {name}: {exc}")
    return results
