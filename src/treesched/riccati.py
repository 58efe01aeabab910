"""Riccati machinery for randomly selected transmission trees.

The one-step map for a reporting tree T is

    g_T(X) = [(A X A^T + Q)^{-1} + sum_{i in T} C_i^T C_i / r_i]^{-1},

i.e. one covariance prediction followed by the information-form update of
the sensors that reached the fusion center. When T is drawn at random each
step the error covariance P_k becomes a random matrix; this module provides
the map itself, single sample paths, and batched Monte Carlo estimates of
E[P_k] and of the asymptotic expected trace.

Monte Carlo trials are seeded per trial from (seed, trial_index), so the
output is fixed by the seed and the trial count alone, never by how the
trials are batched or scheduled.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._linalg import info_update
from ._linalg import spd_inverse  # noqa: F401  (perfbench/tracing.py patches it here)
from .errors import Diverged, InvalidSubtree
from .lowerbound import L_step, detectable_schedule
from .model import LinearSystem, SensorTree, TreeDistribution, indicator, is_valid_subtree

DIVERGENCE_FACTOR = 1e6  # running mean above this multiple of trace(Sigma0) flags divergence


def g_T(sys: LinearSystem, X: np.ndarray, T) -> np.ndarray:
    """Apply the prediction-plus-update map of transmission tree T to X: the
    mean-selection map L_step at T's 0/1 sensor weights."""
    return L_step(sys, X, indicator(T, sys.m))


def _support_info(sys: LinearSystem, tree: SensorTree, dist: TreeDistribution) -> np.ndarray:
    """Stacked information sums, one (n, n) slab per support tree."""
    slabs = np.zeros((len(dist), sys.n, sys.n))
    for j, (members, _) in enumerate(dist):
        if not is_valid_subtree(tree, members):
            raise InvalidSubtree(f"support tree {sorted(members)} is not valid")
        slabs[j] = sys.info_sum(indicator(members, sys.m))
    return slabs


def _draw_indices(dist: TreeDistribution, rng: np.random.Generator, steps: int) -> np.ndarray:
    cum = np.cumsum(dist.probs)
    idx = np.searchsorted(cum, rng.random(steps), side="right")
    return np.minimum(idx, len(dist) - 1)


@dataclass(frozen=True)
class SamplePath:
    """One realization of the random covariance recursion.

    traces[k-1] is trace(P_k); tree_index[k-1] the support index of the
    tree selected at step k. P_0 = Sigma0 is not included.
    """

    traces: np.ndarray
    tree_index: np.ndarray
    final_P: np.ndarray

    @property
    def steps(self) -> int:
        return self.traces.shape[0]

    def time_average(self) -> float:
        return float(self.traces.mean())


def sample_path(
    sys: LinearSystem,
    tree: SensorTree,
    dist: TreeDistribution,
    seed: int,
    steps: int,
) -> SamplePath:
    """Simulate one path of P_k, drawing a tree independently each step."""
    slabs = _support_info(sys, tree, dist)
    idx = _draw_indices(dist, np.random.default_rng(seed), steps)
    traces, P = _batched_paths(sys, slabs, idx[None, :], keep_final=True)
    return SamplePath(traces=traces[0], tree_index=idx, final_P=P[0])


def write_sample_path_csv(path, sample: SamplePath) -> None:
    """Columns: step, trace_P, selected_tree_id."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "trace_P", "selected_tree_id"])
        for k in range(sample.steps):
            writer.writerow([k + 1, repr(float(sample.traces[k])), int(sample.tree_index[k])])


def _batched_paths(
    sys: LinearSystem,
    slabs: np.ndarray,
    draws: np.ndarray,
    *,
    keep_final: bool = False,
    divergence_limit: float | None = None,
):
    """Propagate one path per row of `draws`, the support index of each step.

    Returns (traces, P) with traces of the shape of `draws`, (trials, steps);
    P is the final covariance stack when keep_final is set, else None.
    """
    trials, steps = draws.shape
    P = np.broadcast_to(sys.Sigma0, (trials, sys.n, sys.n)).copy()
    traces = np.empty((trials, steps))
    diag = np.arange(sys.n)
    for k in range(steps):
        P = info_update(sys.A, sys.Q, P, slabs[draws[:, k]])
        traces[:, k] = P[:, diag, diag].sum(axis=1)
        if divergence_limit is not None and traces[:, k].mean() > divergence_limit:
            raise Diverged(
                f"mean trace exceeded {divergence_limit:g} at step {k + 1}; "
                "the schedule does not stabilize the estimator"
            )
    return traces, (P if keep_final else None)


def _monte_carlo(
    sys: LinearSystem,
    tree: SensorTree,
    dist: TreeDistribution,
    steps: int,
    trials: int,
    seed: int,
    **kwargs,
):
    """Propagate `trials` paths of `steps` steps, trial t drawing its trees
    from default_rng([seed, t]); keyword options go to _batched_paths."""
    slabs = _support_info(sys, tree, dist)
    draws = np.empty((trials, steps), dtype=np.intp)
    for t in range(trials):
        draws[t] = _draw_indices(dist, np.random.default_rng([seed, t]), steps)
    return _batched_paths(sys, slabs, draws, **kwargs)


def expected_P(
    sys: LinearSystem,
    tree: SensorTree,
    dist: TreeDistribution,
    step: int,
    trials: int,
    seed: int,
):
    """Monte Carlo estimate of E[P_k] at k = step.

    Returns (mean, stderr), both (n, n): the elementwise sample mean over
    independent paths and its elementwise standard error.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2 to estimate a standard error")
    _, P = _monte_carlo(sys, tree, dist, step, trials, seed, keep_final=True)
    mean = P.mean(axis=0)
    stderr = P.std(axis=0, ddof=1) / np.sqrt(trials)
    return mean, stderr


def expected_trace_curve(
    sys: LinearSystem,
    tree: SensorTree,
    dist: TreeDistribution,
    steps: int,
    trials: int,
    seed: int,
):
    """Per-step Monte Carlo mean of trace(P_k) and its standard error.

    Returns (mean, stderr), both shape (steps,), for k = 1..steps.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2 to estimate a standard error")
    traces, _ = _monte_carlo(sys, tree, dist, steps, trials, seed)
    mean = traces.mean(axis=0)
    stderr = traces.std(axis=0, ddof=1) / np.sqrt(trials)
    return mean, stderr


def asymptotic_expected_trace(
    sys: LinearSystem,
    tree: SensorTree,
    dist: TreeDistribution,
    burn_in: int,
    horizon: int,
    trials: int,
    seed: int,
) -> float:
    """Estimate the limiting expected trace of P_k under a fixed schedule.

    Averages the Monte Carlo per-step means over steps in (burn_in, horizon].
    Raises Diverged up front when no support tree with positive probability
    makes (C_T, A) detectable, and at runtime when the running mean grows
    beyond DIVERGENCE_FACTOR * trace(Sigma0) (a detectable support tree is
    necessary but not sufficient for stability).
    """
    if not (0 <= burn_in < horizon):
        raise ValueError("need 0 <= burn_in < horizon")
    if not any(
        prob > 0.0 and detectable_schedule(sys, indicator(members, sys.m)) for members, prob in dist
    ):
        raise Diverged("no support tree with positive probability is detectable")
    limit = DIVERGENCE_FACTOR * float(np.trace(sys.Sigma0))
    traces, _ = _monte_carlo(sys, tree, dist, horizon, trials, seed, divergence_limit=limit)
    window = traces[:, burn_in:].mean(axis=0)
    return float(window.mean())
