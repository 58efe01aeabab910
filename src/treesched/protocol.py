"""Coordination-free transmission-tree selection over a shared PRNG.

Every node carries the same deterministic generator state, so each round
all nodes draw one common uniform alpha. A node transmits when alpha is at
or below its own selection probability, and an internal node knows which
children will report by comparing alpha against their stored
probabilities — no coordination traffic at all. When child probabilities
never exceed their parents', the transmitting set each round is exactly
{i : alpha <= p_i}, a valid subtree, and over many rounds the induced
distribution over subtrees is the nested decomposition of the marginals.

The generator is splitmix64: state advances by 0x9E3779B97F4A7C15 and the
output finalizer is shift-xor-multiply with 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB; alpha takes the top 53 bits. Integer-only arithmetic,
bit-exact on every platform. From seed 0 the first alpha is
0.8833108082136426.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import realizable_marginals
from .errors import AgreementViolation, InvalidInput
from .model import SensorTree, as_marginals, indicator, tree_energy

_MASK64 = (1 << 64) - 1


def shared_draw(state: int) -> tuple:
    """Advance the shared generator once; returns (alpha in [0, 1), next_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return (z >> 11) * 2.0**-53, state


@dataclass
class NodeState:
    """What one sensor knows: its own probability, its children's, and the PRNG."""

    id: int
    parent: int
    children: tuple
    p_self: float
    p_children: tuple
    prng_state: int


@dataclass(frozen=True)
class RoundOutcome:
    alpha: float
    selected: frozenset
    transmissions: tuple  # (sender, receiver, merged payload sensor count)
    energy: float


def build_nodes(tree: SensorTree, p, seed: int) -> list:
    """One NodeState per sensor, all initialized with the same seed."""
    p = as_marginals(p, tree.m)
    nodes = []
    for i in range(1, tree.m + 1):
        children = tree.children_of(i)
        nodes.append(
            NodeState(
                id=i,
                parent=tree.parent_of(i),
                children=children,
                p_self=float(p[i - 1]),
                p_children=tuple(float(p[c - 1]) for c in children),
                prng_state=int(seed),
            )
        )
    return nodes


def node_decide(node: NodeState, alpha: float) -> tuple:
    """A node's local rule given the shared alpha.

    Returns (transmit, expected_inbound). A leaf transmits iff
    alpha <= p_self. An internal node expects packets from each child j with
    alpha <= p_j; it transmits when it expects at least one packet (merge
    and forward) or, failing that, when alpha <= p_self.
    """
    expected = tuple(
        c for c, pc in zip(node.children, node.p_children) if alpha <= pc
    )
    transmit = bool(expected) or alpha <= node.p_self
    return transmit, expected


def simulate_round(tree: SensorTree, nodes: list) -> RoundOutcome:
    """Run one selection round: one shared draw from the nodes' common state.

    Nodes entering with different PRNG states raise AgreementViolation;
    otherwise every node takes the advanced state. Nodes then run their rule
    leaves first (root-first order reversed; ``nodes[i - 1]`` is sensor i).
    Each internal node's expected inbound set is checked against what
    actually arrived; a mismatch — possible only when nodes hold
    inconsistent probabilities — raises AgreementViolation, as does a
    transmitting set other than {i : alpha <= p_i}.
    """
    states = {node.prng_state for node in nodes}
    if len(states) > 1:
        raise AgreementViolation("nodes entered the round with different PRNG states")
    alpha, state = shared_draw(nodes[0].prng_state)
    for node in nodes:
        node.prng_state = state

    transmitted: dict = {}  # id -> merged payload sensor count
    transmissions = []
    for i in reversed(tree.root_first):
        node = nodes[i - 1]
        transmit, expected = node_decide(node, alpha)
        actual = tuple(c for c in node.children if c in transmitted)
        if actual != expected:
            raise AgreementViolation(
                f"node {node.id} expected packets from {sorted(expected)} "
                f"but received from {sorted(actual)}"
            )
        if transmit:
            payload = 1 + sum(transmitted[c] for c in actual)
            transmitted[node.id] = payload
            transmissions.append((node.id, node.parent, payload))

    selected = frozenset(transmitted)
    threshold_set = frozenset(node.id for node in nodes if alpha <= node.p_self)
    if selected != threshold_set:
        raise AgreementViolation(
            f"transmitting set {sorted(selected)} disagrees with the "
            f"threshold rule {sorted(threshold_set)}"
        )
    energy = tree_energy(tree, selected)
    return RoundOutcome(
        alpha=alpha,
        selected=selected,
        transmissions=tuple(transmissions),
        energy=energy,
    )


@dataclass(frozen=True)
class RunSummary:
    rounds: int
    empirical_marginals: np.ndarray
    mean_energy: float
    tree_counts: dict
    control_messages: int  # always 0: the protocol has no coordination messages
    total_packets: int


def simulate_run(
    tree: SensorTree,
    p,
    seed: int,
    rounds: int,
    *,
    on_round=None,
) -> RunSummary:
    """Simulate many rounds; returns empirical marginals and energy stats.

    With ordering-feasible p the per-sensor selection frequencies converge
    to p and the mean energy to sum_i c_i p_i. An optional
    ``on_round(k, outcome)`` is called after each round with its number k,
    counting from 1, and its RoundOutcome. A negative round count, or a
    seed outside the generator's 64-bit state [0, 2**64), raises
    InvalidInput, and marginals with a child above its parent raise
    OrderingViolated before any round runs.
    """
    if rounds < 0 or not 0 <= seed <= _MASK64:
        raise InvalidInput(f"need rounds >= 0 and 0 <= seed < 2**64, got rounds={rounds}, seed={seed}")
    nodes = build_nodes(tree, realizable_marginals(tree, p), seed)
    energy_sum = 0.0
    tree_counts: dict = {}
    for k in range(1, rounds + 1):
        outcome = simulate_round(tree, nodes)
        energy_sum += outcome.energy
        tree_counts[outcome.selected] = tree_counts.get(outcome.selected, 0) + 1
        if on_round is not None:
            on_round(k, outcome)
    counts = sum((n * indicator(s, tree.m) for s, n in tree_counts.items()), np.zeros(tree.m))
    return RunSummary(
        rounds=rounds,
        empirical_marginals=counts / max(rounds, 1),
        mean_energy=energy_sum / max(rounds, 1),
        tree_counts=tree_counts,
        control_messages=0,
        total_packets=sum(len(s) * n for s, n in tree_counts.items()),  # one packet per sender
    )
