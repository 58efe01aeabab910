"""Stochastic sensor-selection scheduling for Kalman filtering on tree networks.

The package models a linear process observed by a tree-topology wireless
sensor network, optimizes per-sensor transmission probabilities under an
expected-energy budget via a convex descent scheme, converts the marginals
into a distribution over transmission subtrees, and simulates both the
resulting random covariance recursion and a coordination-free shared-seed
selection protocol.
"""

from .errors import (
    AgreementViolation,
    DimensionMismatch,
    Diverged,
    InitialDiverged,
    InvalidBudget,
    InvalidInput,
    InvalidSubtree,
    MaxIterations,
    NonPositiveNoise,
    NotObservable,
    OrderingViolated,
    OutOfRegion,
    SchedulingError,
    SingularMatrix,
    SolverStalled,
    TooManyTrees,
    UnstableDiscretization,
)
from .model import (
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
from .riccati import (
    asymptotic_expected_trace,
    expected_P,
    expected_trace_curve,
    g_T,
    sample_path,
)
from .lowerbound import L_infinity, L_step, bound_sequence
from .polytope import FeasibleSet, contains, feasibility_of_marginals, project
from .decompose import decompose, marginals_of
from .scheduler import (
    GreedyTrace,
    greedy_optimize,
    initial_schedule,
    solve_descent_subproblem,
)
from .protocol import NodeState, RoundOutcome, shared_draw, simulate_round, simulate_run
from .baseline import best_deterministic, enumerate_subtrees
from .testbed import DiffusionConfig, random_instance

__version__ = "0.1.0"

__all__ = [
    "AgreementViolation",
    "DimensionMismatch",
    "Diverged",
    "DiffusionConfig",
    "FeasibleSet",
    "GreedyTrace",
    "InitialDiverged",
    "InvalidBudget",
    "InvalidInput",
    "InvalidSubtree",
    "LinearSystem",
    "MaxIterations",
    "NodeState",
    "NonPositiveNoise",
    "NotObservable",
    "OrderingViolated",
    "OutOfRegion",
    "RoundOutcome",
    "SchedulingError",
    "SensorTree",
    "SingularMatrix",
    "SolverStalled",
    "TooManyTrees",
    "TreeDistribution",
    "UnstableDiscretization",
    "L_infinity",
    "L_step",
    "as_marginals",
    "asymptotic_expected_trace",
    "best_deterministic",
    "bound_sequence",
    "contains",
    "decompose",
    "enumerate_subtrees",
    "expected_P",
    "expected_trace_curve",
    "feasibility_of_marginals",
    "g_T",
    "greedy_optimize",
    "indicator",
    "initial_schedule",
    "is_valid_subtree",
    "load_model",
    "marginals_of",
    "project",
    "random_instance",
    "sample_path",
    "save_model",
    "shared_draw",
    "simulate_round",
    "simulate_run",
    "solve_descent_subproblem",
    "tree_energy",
    "validate_system",
]
