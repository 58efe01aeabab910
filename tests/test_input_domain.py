"""Input domain: NaN, +-inf and wrong shapes sent to any public array
argument raise a named SchedulingError; membership predicates answer False;
seeds, lengths and trial counts of the seeded samplers are integers or
InvalidInput."""

import math

import numpy as np
import pytest

from treesched import (
    FeasibleSet,
    L_infinity,
    L_step,
    LinearSystem,
    SensorTree,
    TreeDistribution,
    as_marginals,
    asymptotic_expected_trace,
    best_deterministic,
    bound_sequence,
    contains,
    decompose,
    expected_P,
    expected_trace_curve,
    feasibility_of_marginals,
    g_T,
    greedy_optimize,
    project,
    sample_path,
    simulate_run,
    solve_descent_subproblem,
)
from treesched.errors import DimensionMismatch, InvalidInput, SchedulingError

ARRAYS = dict(A=0.9 * np.eye(2), Q=np.eye(2), C=np.eye(2), r=np.ones(2), Sigma0=np.eye(2))
SYSTEM = LinearSystem(**ARRAYS)
TREE = SensorTree(parent=[0, 1], cost=[1.0, 1.0])
FS = FeasibleSet(TREE, 1.0)
P = np.array([0.5, 0.5])
L_UNIFORM = L_infinity(SYSTEM, np.eye(2), P)

# (argument, call with the argument, a valid value)
CASES = [
    *((f"LinearSystem.{k}", lambda v, k=k: LinearSystem(**{**ARRAYS, k: v}), ARRAYS[k]) for k in ARRAYS),
    ("SensorTree.parent", lambda v: SensorTree(parent=v, cost=[1.0, 1.0]), [0, 1]),
    ("SensorTree.cost", lambda v: SensorTree(parent=[0, 1], cost=v), [1.0, 1.0]),
    ("TreeDistribution.probs", lambda v: TreeDistribution((frozenset(), frozenset({1})), v), P),
    ("as_marginals", lambda v: as_marginals(v, 2), P),
    ("L_step.X", lambda v: L_step(SYSTEM, v, P), np.eye(2)),
    ("L_step.p", lambda v: L_step(SYSTEM, np.eye(2), v), P),
    ("L_infinity.X0", lambda v: L_infinity(SYSTEM, v, P), np.eye(2)),
    ("L_infinity.p", lambda v: L_infinity(SYSTEM, np.eye(2), v), P),
    ("bound_sequence.p_seq", lambda v: bound_sequence(SYSTEM, [v]), P),
    ("g_T.X", lambda v: g_T(SYSTEM, v, {1}), np.eye(2)),
    ("project.q", lambda v: project(FS, v), P),
    ("decompose.p", lambda v: decompose(TREE, v), P),
    ("simulate_run.p", lambda v: simulate_run(TREE, v, seed=0, rounds=3), P),
    ("solve_descent_subproblem.L_prev", lambda v: solve_descent_subproblem(SYSTEM, FS, v, P), L_UNIFORM),
    ("solve_descent_subproblem.p_start", lambda v: solve_descent_subproblem(SYSTEM, FS, L_UNIFORM, v), P),
]


def bad_values(valid):
    """NaN, +inf and -inf in the first entry, then one row too many."""
    valid = np.asarray(valid, dtype=float)
    for bad in (math.nan, math.inf, -math.inf):
        out = valid.copy()
        out.flat[0] = bad
        yield repr(bad), out
    yield "extra row", np.concatenate([valid, valid[:1]])


def test_public_array_arguments_raise_named_errors():
    failures = []
    for name, call, valid in CASES:
        call(valid)
        for label, bad in bad_values(valid):
            try:
                call(bad)
            except SchedulingError:
                continue
            except Exception as exc:
                failures.append(f"{name} {label}: {type(exc).__name__}: {exc}")
            else:
                failures.append(f"{name} {label}: accepted")
    assert not failures, "\n".join(failures)


def test_L_infinity_rejects_a_stack():
    for stack in (np.array([P, [1.0, 0.25], P]), np.zeros((0, 2)), np.full((3, 1), 0.5)):
        with pytest.raises(DimensionMismatch):
            L_infinity(SYSTEM, np.eye(2), stack)


def test_membership_predicates_answer_false():
    assert feasibility_of_marginals(TREE, P) and contains(FS, P)
    for label, bad in bad_values(P):
        assert not feasibility_of_marginals(TREE, bad), label
        assert not contains(FS, bad), label


DIST = TreeDistribution((frozenset(), frozenset({1, 2})), [0.5, 0.5])

WINDOW = dict(burn_in=1, horizon=4, trials=3, seed=0)

# (argument, call with the argument): seeds, round, step and trial counts of the seeded samplers
INTEGER_ARGUMENTS = [
    ("simulate_run.seed", lambda v: simulate_run(TREE, P, seed=v, rounds=3)),
    ("simulate_run.rounds", lambda v: simulate_run(TREE, P, seed=1, rounds=v)),
    ("sample_path.seed", lambda v: sample_path(SYSTEM, TREE, DIST, seed=v, steps=3)),
    ("sample_path.steps", lambda v: sample_path(SYSTEM, TREE, DIST, seed=1, steps=v)),
    ("expected_trace_curve.trials", lambda v: expected_trace_curve(SYSTEM, TREE, DIST, steps=3, trials=v, seed=0)),
    ("expected_P.trials", lambda v: expected_P(SYSTEM, TREE, DIST, step=3, trials=v, seed=0)),
    *(
        (f"asymptotic_expected_trace.{k}", lambda v, k=k: asymptotic_expected_trace(SYSTEM, TREE, DIST, **{**WINDOW, k: v}))
        for k in ("burn_in", "horizon", "trials")
    ),
]


@pytest.mark.parametrize("name, call", INTEGER_ARGUMENTS, ids=[name for name, _ in INTEGER_ARGUMENTS])
@pytest.mark.parametrize("bad", [1.5, 2.5, np.float64(2.5), True, np.True_, "five", None], ids=repr)
def test_seed_and_length_must_be_integers(name, call, bad):
    """A fractional or boolean seed is not silently truncated to another
    seed, and a non-number is an InvalidInput rather than a TypeError."""
    with pytest.raises(InvalidInput, match="must be an integer"):
        call(bad)


def test_integral_seed_and_length_read_as_integers():
    """Integral floats and decimal strings pass, as they do in DiffusionConfig."""
    run = simulate_run(TREE, P, seed=1.0, rounds="5")
    assert run.rounds == 5 and run.tree_counts == simulate_run(TREE, P, seed=1, rounds=5).tree_counts
    path = sample_path(SYSTEM, TREE, DIST, seed="1", steps=4.0)
    assert np.array_equal(path.traces, sample_path(SYSTEM, TREE, DIST, seed=1, steps=4).traces)


def test_integral_trial_counts_read_as_integers():
    """"5" and 5.0 trials give the run of 5 trials; so do burn-in and horizon."""
    curve = expected_trace_curve(SYSTEM, TREE, DIST, steps=3, trials=5, seed=0)
    for trials in ("5", 5.0, np.int64(5)):
        got = expected_trace_curve(SYSTEM, TREE, DIST, steps=3, trials=trials, seed=0)
        assert all(np.array_equal(a, b) for a, b in zip(got, curve))
    level = asymptotic_expected_trace(SYSTEM, TREE, DIST, burn_in=1, horizon=4, trials=5, seed=0)
    assert asymptotic_expected_trace(SYSTEM, TREE, DIST, burn_in="1", horizon=4.0, trials="5", seed=0) == level


# Entry points that take the system and the tree: (name, call on a tree, its full-support
# distribution and a feasible set), each fed a tree with one sensor fewer or more than SYSTEM.
SENSOR_COUNT_CALLS = [
    ("best_deterministic", lambda tree, dist, fs: best_deterministic(SYSTEM, tree, 1.0)),
    ("sample_path", lambda tree, dist, fs: sample_path(SYSTEM, tree, dist, seed=0, steps=3)),
    ("expected_P", lambda tree, dist, fs: expected_P(SYSTEM, tree, dist, step=3, trials=2, seed=0)),
    ("expected_trace_curve", lambda tree, dist, fs: expected_trace_curve(SYSTEM, tree, dist, steps=3, trials=2, seed=0)),
    ("asymptotic_expected_trace", lambda tree, dist, fs: asymptotic_expected_trace(SYSTEM, tree, dist, **WINDOW)),
    ("greedy_optimize", lambda tree, dist, fs: greedy_optimize(SYSTEM, fs)),
    (
        "solve_descent_subproblem",
        lambda tree, dist, fs: solve_descent_subproblem(SYSTEM, fs, L_UNIFORM, np.full(tree.m, 0.5)),
    ),
]


@pytest.mark.parametrize("m", [SYSTEM.m - 1, SYSTEM.m + 1])
@pytest.mark.parametrize("name, call", SENSOR_COUNT_CALLS, ids=[name for name, _ in SENSOR_COUNT_CALLS])
def test_tree_and_system_sensor_counts_must_agree(name, call, m):
    """A chain of m sensors against the 2-sensor system is refused up front,
    neither run with the extra rows of C unread nor failing on a later index."""
    chain = SensorTree(parent=list(range(m)), cost=np.ones(m))
    dist = TreeDistribution((frozenset(), frozenset(range(1, m + 1))), [0.5, 0.5])
    with pytest.raises(DimensionMismatch, match=f"^tree has {m} sensors but the system has {SYSTEM.m}$"):
        call(chain, dist, FeasibleSet(chain, 1.0))
