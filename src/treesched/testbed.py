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

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    InvalidBudget,
    InvalidInput,
    NonPositiveNoise,
    NotObservable,
    OutOfRegion,
    UnstableDiscretization,
)
from .model import LinearSystem, SensorTree, as_integer, validate_system

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
        parse = {"int": as_integer, "float": _finite}
        for f in fields(self):
            object.__setattr__(self, f.name, parse[f.type](getattr(self, f.name), f.name))
        ratio = self.side_length / self.grid_spacing if self.grid_spacing > 0.0 else 0.0
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise InvalidInput("need grid_spacing > 0 and side_length a positive integer multiple of it")
        stability = self.diffusion_rate * self.time_step / self.grid_spacing**2
        if not 0.0 <= stability <= 0.25:
            raise UnstableDiscretization(
                f"alpha*dt/h^2 = {stability:g} lies outside the explicit-scheme range [0, 0.25]"
            )
        if self.sensor_count < 1:
            raise InvalidInput("need at least one sensor")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")
        if self.budget < 0.0:
            raise InvalidBudget(f"energy budget must be nonnegative, got {self.budget!r}")
        if self.cost_offset < 0.0:  # else an edge weight cost_offset + distance**2 can be <= 0
            raise InvalidInput(f"cost_offset must be >= 0, got {self.cost_offset!r}")
        for name in ("process_noise", "measurement_noise", "initial_variance"):
            if getattr(self, name) <= 0.0:
                raise NonPositiveNoise(f"{name} must be > 0, got {getattr(self, name)!r}")

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


def random_instance(cfg: DiffusionConfig) -> DiffusionInstance:
    """Generate one observable benchmark instance.

    Degenerate placements (unobservable C, possible when many sensors share
    a cell) are rejected and resampled with a fresh sub-seed.
    """
    A, Q, Sigma0 = build_dynamics(cfg)
    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng([cfg.seed, attempt])
        positions = rng.uniform(0.0, cfg.side_length, size=(cfg.sensor_count, 2))
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


def _finite(value, name: str) -> float:
    try:
        if not isinstance(value, (bool, np.bool_)) and math.isfinite(out := float(value)):
            return out
    except (TypeError, ValueError):
        pass
    raise InvalidInput(f"{name} must be a finite number, got {value!r}")


def config_from_dict(doc: dict) -> DiffusionConfig:
    """A DiffusionConfig from a JSON object; unknown keys are ignored."""
    if not isinstance(doc, dict):
        raise InvalidInput(f"a diffusion config must be a JSON object, got {type(doc).__name__}")
    return DiffusionConfig(**{f.name: doc[f.name] for f in fields(DiffusionConfig) if f.name in doc})
