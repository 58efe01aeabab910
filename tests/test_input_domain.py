"""Input domain: NaN, +-inf and wrong shapes sent to any public array
argument raise a named SchedulingError; membership predicates answer False."""

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
    bound_sequence,
    contains,
    decompose,
    feasibility_of_marginals,
    g_T,
    project,
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
    ("LinearSystem.info_sum", SYSTEM.info_sum, P),
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


STACK = np.array([P, [1.0, 0.25], P])


@pytest.mark.parametrize("row", range(len(STACK)))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5, 1.5])
def test_L_infinity_stack_checks_every_row(bad, row):
    rows = STACK.copy()
    rows[row, 1] = bad
    with pytest.raises(InvalidInput):
        L_infinity(SYSTEM, np.eye(2), rows)


def test_L_infinity_stack_width_is_m():
    assert L_infinity(SYSTEM, np.eye(2), STACK).shape == (3, 2, 2)
    for wrong_m in (1, 3):
        with pytest.raises(DimensionMismatch):
            L_infinity(SYSTEM, np.eye(2), np.full((3, wrong_m), 0.5))


def test_membership_predicates_answer_false():
    assert feasibility_of_marginals(TREE, P) and contains(FS, P)
    for label, bad in bad_values(P):
        assert not feasibility_of_marginals(TREE, bad), label
        assert not contains(FS, bad), label
