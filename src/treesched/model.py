"""Domain types: linear system, sensor tree, subtrees, schedules, distributions.

Conventions used throughout the package:

* sensors are numbered 1..m, m >= 1, and the fusion center is node 0;
* a transmission subtree is represented by its member set (a frozenset of
  sensor indices, never containing 0), valid when closed under the parent
  map so every member has a live relay path to the fusion center;
* a marginal schedule is a plain length-m float vector with entries in
  [0, 1] (see ``as_marginals``).

All types are immutable after construction (arrays are marked read-only),
so instances can be shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ._linalg import pbh_observable, symmetrize
from .errors import (
    DimensionMismatch,
    InvalidInput,
    InvalidSubtree,
    NonPositiveNoise,
    NotObservable,
)

_SYM_TOL = 1e-10
MARGINAL_TOL = 1e-12  # slack on each marginal constraint: the [0, 1] box and child <= parent


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _numbers(name: str, values) -> np.ndarray:
    """``values`` as a float array; InvalidInput naming ``name`` if it is not one or holds a bool."""
    try:
        if not any(isinstance(v, (bool, np.bool_)) for v in np.array(values, dtype=object).flat):
            return np.array(values, dtype=float)
    except (TypeError, ValueError):
        pass
    raise InvalidInput(f"{name} must be a (nested) list of numbers")


def as_marginals(p, m: int) -> np.ndarray:
    """Validate and normalize a marginal-probability vector.

    Accepts any 1-D array-like of length m (else DimensionMismatch); entries
    must be finite and lie in [0, 1] up to MARGINAL_TOL (else InvalidInput),
    and are clipped exactly into the box.
    Returns a read-only float array.
    """
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"marginals must be a 1-D vector, got shape {arr.shape}")
    if arr.shape[0] != m:
        raise DimensionMismatch(f"expected {m} marginals, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("marginals must be finite numbers")
    if arr.min() < -MARGINAL_TOL or arr.max() > 1.0 + MARGINAL_TOL:
        raise InvalidInput(f"marginals must lie in [0, 1], got range [{arr.min()}, {arr.max()}]")
    return _frozen_array(np.clip(arr, 0.0, 1.0))


def as_integer(value, name: str) -> int:
    """``value`` as an int; ints, integral floats and decimal strings pass, else InvalidInput (bools too)."""
    try:
        if not isinstance(value, (bool, np.bool_)) and (not isinstance(value, float) or value.is_integer()):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidInput(f"{name} must be an integer, got {value!r}")


def indicator(members: Iterable[int], m: int) -> np.ndarray:
    """The 0/1 sensor weights of a member set: entry i-1 is 1.0 iff i is a member.

    Raises InvalidSubtree for an index outside 1..m.
    """
    idx = np.fromiter(members, dtype=int)
    if np.any((idx < 1) | (idx > m)):
        raise InvalidSubtree(f"sensor indices out of range 1..{m}: {sorted(set(idx.tolist()))}")
    weights = np.zeros(m)
    weights[idx - 1] = 1.0
    return weights


def _check_spd(name: str, M: np.ndarray):
    if not np.all(np.abs(M - M.T) <= _SYM_TOL * max(1.0, np.abs(M).max())):
        raise NonPositiveNoise(f"{name} is not symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    if eigs.min() <= 0.0:
        raise NonPositiveNoise(f"{name} must be positive definite, min eigenvalue {eigs.min()}")


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Discrete-time model x_{k+1} = A x_k + w_k, y_{k,i} = C_i x_k + v_{k,i}.

    Q is the process-noise covariance, r the per-sensor measurement-noise
    variances (R is diagonal), Sigma0 the initial state covariance. Row i
    of C is the observation row of sensor i; its information contribution
    is the rank-one matrix C_i^T C_i / r_i, and ``info`` stacks these
    increments, shape (m, n, n); ``eigvals`` holds the eigenvalues of A for
    the PBH tests. Both are computed once, read-only. Non-finite entries
    raise InvalidInput, and a Q or Sigma0 not symmetric PD or an r_i <= 0
    raises NonPositiveNoise.
    """

    A: np.ndarray
    Q: np.ndarray
    C: np.ndarray
    r: np.ndarray
    Sigma0: np.ndarray
    info: np.ndarray = field(init=False, repr=False)
    eigvals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = _frozen_array(_numbers("A", self.A))
        Q = _frozen_array(_numbers("Q", self.Q))
        C = _frozen_array(np.atleast_2d(_numbers("C", self.C)))
        r = _frozen_array(np.atleast_1d(_numbers("r", self.r)))
        S = _frozen_array(_numbers("Sigma0", self.Sigma0))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if Q.shape != (n, n):
            raise DimensionMismatch(f"Q must be {n}x{n}, got {Q.shape}")
        if S.shape != (n, n):
            raise DimensionMismatch(f"Sigma0 must be {n}x{n}, got {S.shape}")
        if C.ndim != 2 or C.shape[0] == 0 or C.shape[1] != n:
            raise DimensionMismatch(f"C must be m x {n} with m >= 1, got shape {C.shape}")
        if r.shape != (C.shape[0],):
            raise DimensionMismatch(
                f"r must have one entry per sensor ({C.shape[0]}), got shape {r.shape}"
            )
        for name, val in (("A", A), ("Q", Q), ("C", C), ("r", r), ("Sigma0", S)):
            if not np.all(np.isfinite(val)):
                raise InvalidInput(f"{name} has non-finite entries")
            object.__setattr__(self, name, val)
        _check_spd("Q", Q)
        _check_spd("Sigma0", S)
        if np.any(r <= 0.0):
            raise NonPositiveNoise(f"r must be > 0 (measurement-noise variances), got min {r.min()}")
        scaled = C / np.sqrt(r)[:, None]
        object.__setattr__(self, "info", _frozen_array(np.einsum("ij,ik->ijk", scaled, scaled)))
        object.__setattr__(self, "eigvals", _frozen_array(np.linalg.eigvals(A), dtype=None))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    def info_sum(self, weights) -> np.ndarray:
        """Weighted information matrix sum_i w_i C_i^T C_i / r_i, exactly symmetric."""
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.m,):
            raise DimensionMismatch(f"weights must have shape ({self.m},), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise InvalidInput("weights must be finite")
        return symmetrize(np.tensordot(w, self.info, axes=1))


def validate_system(sys: LinearSystem) -> None:
    """Raise NotObservable unless the PBH rank test passes at every eigenvalue
    of A, singular values cut at 1e-10 relative (LinearSystem checks the
    rest when built)."""
    if not pbh_observable(sys.A, sys.eigvals, sys.C, 0.0):
        raise NotObservable("(C, A) is not observable")


@dataclass(frozen=True, eq=False)
class SensorTree:
    """Rooted communication tree over nodes {0, 1, ..., m}.

    ``parent[i-1]`` is the unique out-neighbor of sensor i (0 means the
    fusion center); ``cost[i-1]`` is the energy spent when sensor i
    transmits one packet over its outgoing edge. ``root_first`` lists the
    sensors by depth, ties by index, so every parent precedes its children.
    """

    parent: np.ndarray
    cost: np.ndarray
    root_first: tuple = field(init=False, repr=False)

    def __post_init__(self):
        entries = np.atleast_1d(self.parent).tolist()
        if not entries:
            raise InvalidInput("a sensor tree needs at least one sensor")
        parent = _frozen_array([as_integer(v, "parent entry") for v in entries], dtype=int)
        cost = _frozen_array(np.atleast_1d(_numbers("cost", self.cost)))
        m = parent.shape[0]
        if cost.shape != (m,):
            raise DimensionMismatch(f"cost must have shape ({m},), got {cost.shape}")
        if parent.min() < 0 or parent.max() > m:
            raise InvalidInput("parent indices must lie in {0, ..., m}")
        if not np.all(np.isfinite(cost) & (cost > 0.0)):
            raise InvalidInput("edge costs must be positive and finite")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "cost", cost)

        depth = np.zeros(m + 1, dtype=int)
        for i in range(1, m + 1):
            node, hops = i, 0
            while node != 0:
                node = int(parent[node - 1])
                hops += 1
                if hops > m:
                    raise InvalidInput(f"sensor {i} has no path to the fusion center (cycle)")
            depth[i] = hops
        children: list[list[int]] = [[] for _ in range(m + 1)]
        for i in range(1, m + 1):
            children[int(parent[i - 1])].append(i)
        object.__setattr__(self, "_depth", _frozen_array(depth, dtype=int))
        object.__setattr__(self, "_children", tuple(tuple(c) for c in children))
        order = sorted(range(1, m + 1), key=lambda i: depth[i])
        object.__setattr__(self, "root_first", tuple(order))

    @property
    def m(self) -> int:
        return self.parent.shape[0]

    def parent_of(self, i: int) -> int:
        return int(self.parent[i - 1])

    def children_of(self, node: int) -> tuple:
        return self._children[node]

    def depth_of(self, i: int) -> int:
        """Hop count from node i to the fusion center."""
        return int(self._depth[i])

    def cost_of(self, i: int) -> float:
        return float(self.cost[i - 1])


def is_valid_subtree(tree: SensorTree, members: Iterable[int]) -> bool:
    """True iff the member set is closed under the parent map.

    Every member whose parent is not the fusion center must have its parent
    in the set, so the selected nodes form a transmission tree rooted at 0.
    """
    mem = frozenset(members)
    if not all(1 <= i <= tree.m for i in mem):
        return False
    return all(tree.parent_of(i) == 0 or tree.parent_of(i) in mem for i in mem)


def tree_energy(tree: SensorTree, members: Iterable[int]) -> float:
    """Total transmission energy of a round in which ``members`` report."""
    mem = frozenset(members)
    if not is_valid_subtree(tree, mem):
        raise InvalidSubtree(f"{sorted(mem)} is not closed under the parent map")
    return float(sum(tree.cost_of(i) for i in mem))


@dataclass(frozen=True, eq=False)
class TreeDistribution:
    """Sparse probability distribution over transmission subtrees."""

    trees: tuple
    probs: np.ndarray

    def __post_init__(self):
        trees = tuple(frozenset(t) for t in self.trees)
        probs = _frozen_array(np.atleast_1d(_numbers("probs", self.probs)))
        if probs.shape != (len(trees),):
            raise DimensionMismatch("one probability per tree required")
        if probs.size == 0:
            raise InvalidInput("distribution must have at least one support tree")
        if not np.all(probs >= 0.0):  # also rejects NaN
            raise InvalidInput(f"probabilities must be >= 0, got min {probs.min()}")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise InvalidInput(f"probabilities must sum to 1, got {probs.sum()!r}")
        object.__setattr__(self, "trees", trees)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_pairs(cls, pairs: Sequence) -> "TreeDistribution":
        trees = [t for t, _ in pairs]
        probs = [p for _, p in pairs]
        return cls(tuple(trees), np.asarray(probs, dtype=float))

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self):
        return iter(zip(self.trees, self.probs))


# ---------------------------------------------------------------------------
# Model files. JSON round-trips every finite double bit-exactly because the
# serializer emits shortest-round-trip decimal representations.
# ---------------------------------------------------------------------------


def model_to_dict(sys: LinearSystem, tree: SensorTree) -> dict:
    if tree.m != sys.m:
        raise DimensionMismatch(f"tree has {tree.m} sensors but the system has {sys.m}")
    return {
        "n": sys.n,
        "m": sys.m,
        "A": sys.A.tolist(),
        "Q": sys.Q.tolist(),
        "C": sys.C.tolist(),
        "r": sys.r.tolist(),
        "Sigma0": sys.Sigma0.tolist(),
        "parent": tree.parent.tolist(),
        "cost": tree.cost.tolist(),
    }


def model_from_dict(doc: dict) -> tuple:
    if not isinstance(doc, dict):
        raise InvalidInput(f"a model must be a JSON object, got {type(doc).__name__}")
    missing = [k for k in ("A", "Q", "C", "r", "Sigma0", "parent", "cost") if k not in doc]
    if missing:
        raise InvalidInput(f"model lacks field(s) {', '.join(missing)}")
    sys = LinearSystem(
        A=doc["A"], Q=doc["Q"], C=doc["C"], r=doc["r"], Sigma0=doc["Sigma0"]
    )
    tree = SensorTree(parent=doc["parent"], cost=doc["cost"])
    if sys.n != doc.get("n", sys.n) or sys.m != doc.get("m", sys.m):
        raise DimensionMismatch("declared n/m disagree with matrix shapes")
    if tree.m != sys.m:
        raise DimensionMismatch(
            f"tree has {tree.m} sensors but the system has {sys.m}"
        )
    return sys, tree


def save_model(path, sys: LinearSystem, tree: SensorTree) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(sys, tree), fh, indent=1)
        fh.write("\n")


def load_model(path) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return model_from_dict(doc)
