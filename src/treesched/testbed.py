"""Diffusion-monitoring benchmark generator.

A square region holds a heat-diffusion process, discretized on a uniform
grid with the explicit five-point scheme and zero-flux (reflecting)
boundaries, so the state matrix has unit row sums. Sensors are dropped
uniformly at random; each measures the bilinear interpolation of the four
grid values around it (scaled by the cell area). The communication
topology is the minimum spanning tree of the complete geometric graph over
the fusion center (at the origin) and the sensors, with edge weight
``cost_offset + distance**2``, oriented toward the fusion center.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidInput, NotObservable, OutOfRegion, UnstableDiscretization
from .model import LinearSystem, SensorTree, validate_system

MAX_ATTEMPTS = 100  # placements tried before giving up on an observable instance


@dataclass(frozen=True)
class DiffusionConfig:
    side_length: float = 3.0
    diffusion_rate: float = 0.1  # m^2/s
    grid_spacing: float = 1.0
    time_step: float = 1.0
    sensor_count: int = 16
    process_noise: float = 1.0
    measurement_noise: float = 1.0
    initial_variance: float = 4.0
    budget: float = 6.0
    cost_offset: float = 1.0
    seed: int = 0

    def __post_init__(self):
        ratio = self.side_length / self.grid_spacing
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise InvalidInput("side_length must be a positive integer multiple of grid_spacing")
        stability = self.diffusion_rate * self.time_step / self.grid_spacing**2
        if stability > 0.25:
            raise UnstableDiscretization(
                f"alpha*dt/h^2 = {stability:g} exceeds the explicit-scheme bound 0.25"
            )
        if self.sensor_count < 1:
            raise InvalidInput("need at least one sensor")

    @property
    def grid_side(self) -> int:
        """Grid points per axis."""
        return int(round(self.side_length / self.grid_spacing)) + 1

    @property
    def n(self) -> int:
        return self.grid_side**2


def build_dynamics(cfg: DiffusionConfig):
    """State matrices (A, Q, Sigma0) of the discretized diffusion.

    A = I + gamma * Lap with gamma = alpha*dt/h^2 and Lap the grid-graph
    Laplacian (so missing neighbors at the boundary simply drop out — the
    zero-flux convention). Rows of A sum to one: total heat is conserved in
    the noise-free dynamics.
    """
    N = cfg.grid_side
    n = cfg.n
    gamma = cfg.diffusion_rate * cfg.time_step / cfg.grid_spacing**2
    A = np.eye(n)
    for i in range(N):
        for j in range(N):
            idx = i * N + j
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < N and 0 <= nj < N:
                    A[idx, ni * N + nj] += gamma
                    A[idx, idx] -= gamma
    Q = cfg.process_noise * np.eye(n)
    Sigma0 = cfg.initial_variance * np.eye(n)
    return A, Q, Sigma0


def build_observation(cfg: DiffusionConfig, positions) -> np.ndarray:
    """Observation rows for sensors at the given (x1, x2) positions.

    The row of a sensor in cell [i, j] puts bilinear weights on the four
    cell corners, divided by the cell area h^2; rows therefore sum to
    1/h^2, and a sensor exactly on a grid point reads that point alone.
    """
    N = cfg.grid_side
    h = cfg.grid_spacing
    positions = np.asarray(positions, dtype=float)
    C = np.zeros((positions.shape[0], cfg.n))
    for s, (a1, a2) in enumerate(positions):
        if not (0.0 <= a1 <= cfg.side_length and 0.0 <= a2 <= cfg.side_length):
            raise OutOfRegion(f"sensor {s + 1} at ({a1}, {a2}) is outside the region")
        i = min(int(math.floor(a1 / h)), N - 2)
        j = min(int(math.floor(a2 / h)), N - 2)
        d1 = a1 / h - i
        d2 = a2 / h - j
        w = h**2
        C[s, i * N + j] += (1 - d1) * (1 - d2) / w
        C[s, (i + 1) * N + j] += d1 * (1 - d2) / w
        C[s, i * N + (j + 1)] += (1 - d1) * d2 / w
        C[s, (i + 1) * N + (j + 1)] += d1 * d2 / w
    return C


def build_topology(cfg: DiffusionConfig, positions) -> SensorTree:
    """Minimum spanning tree over fusion center + sensors, rooted at the center.

    Edge weight is cost_offset + squared Euclidean distance; Prim's
    algorithm grown from the fusion center orients every edge toward it,
    so the neighbor that attaches a node is its parent.
    """
    positions = np.asarray(positions, dtype=float)
    m = positions.shape[0]
    pts = np.vstack([[0.0, 0.0], positions])
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    weight = cfg.cost_offset + d2

    in_tree = np.zeros(m + 1, dtype=bool)
    in_tree[0] = True
    best_w = weight[0].copy()
    best_to = np.zeros(m + 1, dtype=int)
    parent = np.zeros(m, dtype=int)
    cost = np.zeros(m)
    for _ in range(m):
        cand = np.where(~in_tree, best_w, np.inf)
        v = int(np.argmin(cand))
        parent[v - 1] = int(best_to[v])
        cost[v - 1] = float(best_w[v])
        in_tree[v] = True
        better = weight[v] < best_w
        best_w = np.where(better, weight[v], best_w)
        best_to = np.where(better, v, best_to)
    return SensorTree(parent=parent, cost=cost)


@dataclass(frozen=True)
class DiffusionInstance:
    system: LinearSystem
    tree: SensorTree
    positions: np.ndarray
    attempts: int


def sample_positions(cfg: DiffusionConfig, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.0, cfg.side_length, size=(cfg.sensor_count, 2))


def random_instance(cfg: DiffusionConfig) -> DiffusionInstance:
    """Generate one observable benchmark instance.

    Degenerate placements (unobservable C, possible when many sensors share
    a cell) are rejected and resampled with a fresh sub-seed.
    """
    A, Q, Sigma0 = build_dynamics(cfg)
    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng([cfg.seed, attempt])
        positions = sample_positions(cfg, rng)
        C = build_observation(cfg, positions)
        sys = LinearSystem(
            A=A, Q=Q, C=C, r=cfg.measurement_noise * np.ones(cfg.sensor_count), Sigma0=Sigma0
        )
        try:
            validate_system(sys)
        except NotObservable:
            continue
        tree = build_topology(cfg, positions)
        return DiffusionInstance(system=sys, tree=tree, positions=positions, attempts=attempt + 1)
    raise NotObservable(
        f"no observable placement found in {MAX_ATTEMPTS} attempts"
    )


def write_positions_csv(path, positions) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sensor", "x1", "x2"])
        for i, (x1, x2) in enumerate(np.asarray(positions, dtype=float), start=1):
            writer.writerow([i, repr(float(x1)), repr(float(x2))])


def config_from_dict(doc: dict) -> DiffusionConfig:
    known = {f.name for f in fields(DiffusionConfig)}
    return DiffusionConfig(**{k: v for k, v in doc.items() if k in known})
