"""Riccati machinery for randomly selected transmission trees.

The one-step map for a reporting tree T is

    g_T(X) = [(A X A^T + Q)^{-1} + sum_{i in T} C_i^T C_i / r_i]^{-1},

i.e. one covariance prediction followed by the measurement update of the
sensors that reached the fusion center. When T is drawn at random each
step the error covariance P_k becomes a random matrix; this module provides
the map itself, single sample paths, and batched Monte Carlo estimates of
E[P_k] and of the asymptotic expected trace.

Every step runs in covariance form (``_linalg.covariance_update``): predict
M = A X A^T + Q, then update M - M C_T^T (C_T M C_T^T + R_T)^{-1} C_T M
with T's observation rows C_T and noise variances R_T. ``g_T`` is the
lower-bound step at T's 0/1 weights. Sample paths and Monte Carlo keep
only T's own rows: an empty T is the prediction alone and costs no
inversion, and any other T costs one |T| x |T| inversion, done once per
drawn tree for the stack of paths that drew it.

Monte Carlo trials are seeded per trial from (seed, trial_index), so the
output is fixed by the seed and the trial count alone, never by how the
trials are batched or scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import covariance_update
from ._linalg import spd_inverse  # noqa: F401  (perfbench/tracing.py patches it here)
from .errors import Diverged, InvalidInput, InvalidSubtree
from .lowerbound import L_step, detectable_schedule
from .model import LinearSystem, SensorTree, TreeDistribution, as_integer, indicator, is_valid_subtree

DIVERGENCE_FACTOR = 1e6  # running mean above this multiple of trace(Sigma0) flags divergence


def g_T(sys: LinearSystem, X: np.ndarray, T) -> np.ndarray:
    """Apply the prediction-plus-update map of transmission tree T to X: the
    mean-selection map L_step at T's 0/1 sensor weights."""
    return L_step(sys, X, indicator(T, sys.m))


@dataclass(frozen=True)
class SamplePath:
    """One realization of the random covariance recursion.

    traces[k-1] is trace(P_k); tree_index[k-1] the support index of the
    tree selected at step k. P_0 = Sigma0 is not included.
    """

    traces: np.ndarray
    tree_index: np.ndarray
    final_P: np.ndarray

    def time_average(self) -> float:
        """Mean of trace(P_k) over the path; InvalidInput for a path of 0 steps."""
        if not self.traces.size:
            raise InvalidInput("a sample path of 0 steps has no time average")
        return float(self.traces.mean())


def sample_path(
    sys: LinearSystem,
    tree: SensorTree,
    dist: TreeDistribution,
    seed: int,
    steps: int,
) -> SamplePath:
    """Simulate one path of P_k, drawing a tree independently each step.

    A ``steps`` or ``seed`` that is not an integer (``model.as_integer``) or
    is negative raises InvalidInput, and a trace above DIVERGENCE_FACTOR *
    trace(Sigma0) raises Diverged.
    """
    draws, traces, P = _propagate(sys, tree, dist, steps, seed, trials=None)
    return SamplePath(traces=traces[0], tree_index=draws[0], final_P=P[0])


def _propagate(
    sys: LinearSystem,
    tree: SensorTree,
    dist: TreeDistribution,
    steps: int,
    seed: int,
    trials: int | None,
):
    """Propagate random covariance paths of `steps` steps under `dist`.

    With ``trials`` None this is the one sample path, drawing its trees from
    default_rng(seed); otherwise trial t draws from default_rng([seed, t]).
    Returns (draws, traces, P): the support index and trace of each path
    and step, both (paths, steps), and the final covariance stack. Raises
    InvalidInput for a ``steps`` or ``seed`` that is not an integer or is
    negative, or for more draws than numpy can shape, and Diverged once the
    mean trace over the paths exceeds DIVERGENCE_FACTOR * trace(Sigma0).
    """
    steps, seed = as_integer(steps, "steps"), as_integer(seed, "seed")
    if steps < 0 or seed < 0:
        raise InvalidInput(f"steps and seed must be >= 0, got steps={steps}, seed={seed}")
    rows = []  # observation rows and noise variances of each support tree
    for members, _ in dist:
        if not is_valid_subtree(tree, members):
            raise InvalidSubtree(f"support tree {sorted(members)} is not valid")
        idx = np.flatnonzero(indicator(members, sys.m))
        rows.append((sys.C[idx], sys.r[idx]))
    n_paths = 1 if trials is None else trials
    try:
        draws = np.empty((n_paths, steps), dtype=np.intp)
    except ValueError as exc:  # numpy refuses the shape, e.g. "array is too big"
        raise InvalidInput(f"cannot hold {n_paths} paths of {steps} steps: {exc}") from None
    cum = np.cumsum(dist.probs)
    for t in range(n_paths):
        rng = np.random.default_rng(seed if trials is None else [seed, t])
        draws[t] = np.searchsorted(cum, rng.random(steps), side="right")
    np.minimum(draws, len(dist) - 1, out=draws)

    limit = DIVERGENCE_FACTOR * float(np.trace(sys.Sigma0))
    P = np.broadcast_to(sys.Sigma0, (n_paths, sys.n, sys.n)).copy()
    M = np.empty_like(P)
    traces = np.empty(draws.shape)
    diag = np.arange(sys.n)
    for k in range(steps):
        # Predict every path, M = sym(A P A^T) + Q: the whole step for the empty tree.
        # In these buffers on purpose: _linalg.predict gives the same bits but is slower here.
        np.matmul(sys.A, P, out=M)
        np.matmul(M, sys.A.T, out=P)
        np.add(P, np.swapaxes(P, 1, 2), out=M)
        M *= 0.5
        M += sys.Q
        P, M = M, P
        # Update the paths of each reporting tree drawn at this step.
        for j in np.flatnonzero(np.bincount(draws[:, k], minlength=len(dist))):
            C_T, r_T = rows[j]
            if len(r_T):
                paths = draws[:, k] == j
                P[paths] = covariance_update(P[paths], C_T, r_T)
        traces[:, k] = P[:, diag, diag].sum(axis=1)
        if traces[:, k].sum() > n_paths * limit:
            raise Diverged(
                f"mean trace exceeded {limit:g} at step {k + 1}; "
                "the schedule does not stabilize the estimator"
            )
    return draws, traces, P


def _mean_and_stderr(
    sys: LinearSystem,
    tree: SensorTree,
    dist: TreeDistribution,
    steps: int,
    trials: int,
    seed: int,
):
    """Monte Carlo (mean, stderr) pairs of the per-step traces and of the final P;
    InvalidInput for a ``trials`` that is not an integer or is below 2."""
    trials = as_integer(trials, "trials")
    if trials < 2:
        raise InvalidInput("trials must be >= 2 to estimate a standard error")
    _, traces, P = _propagate(sys, tree, dist, steps, seed, trials)
    return [(x.mean(axis=0), x.std(axis=0, ddof=1) / np.sqrt(trials)) for x in (traces, P)]


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
    return _mean_and_stderr(sys, tree, dist, step, trials, seed)[1]


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
    return _mean_and_stderr(sys, tree, dist, steps, trials, seed)[0]


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
    ``burn_in``, ``horizon`` and ``trials`` are read as integers
    (``model.as_integer``); InvalidInput unless 0 <= burn_in < horizon and
    trials >= 1. Raises Diverged up front when no support tree with
    positive probability makes (C_T, A) detectable, and at runtime when the
    mean trace grows beyond DIVERGENCE_FACTOR * trace(Sigma0) (a detectable
    support tree is necessary but not sufficient for stability).
    """
    burn_in, horizon = as_integer(burn_in, "burn_in"), as_integer(horizon, "horizon")
    trials = as_integer(trials, "trials")
    if not (0 <= burn_in < horizon) or trials < 1:
        raise InvalidInput("need 0 <= burn_in < horizon and trials >= 1")
    if not any(
        prob > 0.0 and detectable_schedule(sys, indicator(members, sys.m)) for members, prob in dist
    ):
        raise Diverged("no support tree with positive probability is detectable")
    _, traces, _ = _propagate(sys, tree, dist, horizon, seed, trials)
    window = traces[:, burn_in:].mean(axis=0)
    return float(window.mean())
