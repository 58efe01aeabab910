"""Shared-seed selection protocol: generator, node rules, round outcomes."""

import numpy as np
import pytest

from oracles import per_round_outcomes
from treesched.decompose import decompose, marginals_of
from treesched.errors import AgreementViolation, InvalidInput, OrderingViolated
from treesched.model import SensorTree, indicator, tree_energy
from treesched.properties import (
    check_protocol_matches_decomposition,
    check_shared_draw,
    random_feasible_marginals,
    random_tree,
)
from treesched.protocol import (
    NodeState,
    build_nodes,
    node_decide,
    shared_draw,
    simulate_round,
    simulate_run,
)

# First two outputs of the generator from seed 0, pinned once and for all.
GOLDEN_ALPHA_1 = 0.8833108082136426
GOLDEN_ALPHA_2 = 0.43152799704850997


class TestSharedDraw:
    def test_golden_values_from_seed_zero(self):
        a1, s1 = shared_draw(0)
        a2, _ = shared_draw(s1)
        assert a1 == GOLDEN_ALPHA_1
        assert a2 == GOLDEN_ALPHA_2

    def test_replicas_stay_identical(self):
        s1 = s2 = 987654321
        for _ in range(10**6):
            a1, s1 = shared_draw(s1)
            a2, s2 = shared_draw(s2)
            assert a1 == a2
        assert s1 == s2

    def test_range_and_mean(self):
        s, total = 0, 0.0
        lo, hi = 1.0, 0.0
        for _ in range(10**6):
            a, s = shared_draw(s)
            total += a
            lo, hi = min(lo, a), max(hi, a)
        assert 0.0 <= lo and hi < 1.0
        assert abs(total / 10**6 - 0.5) <= 0.002

    def test_full_check(self):
        check_shared_draw()


class TestNodeDecide:
    def test_leaf_transmits_below_threshold(self):
        node = NodeState(id=1, parent=0, children=(), p_self=0.8, p_children=(), prng_state=0)
        transmit, inbound = node_decide(node, 0.4)
        assert transmit and inbound == ()

    def test_internal_expects_child_packet(self):
        node = NodeState(
            id=1, parent=0, children=(2, 3), p_self=0.8, p_children=(0.5, 0.3), prng_state=0
        )
        transmit, inbound = node_decide(node, 0.4)
        assert transmit and inbound == (2,)

    def test_internal_silent_when_all_above(self):
        node = NodeState(id=1, parent=0, children=(2,), p_self=0.3, p_children=(0.2,), prng_state=0)
        transmit, inbound = node_decide(node, 0.4)
        assert not transmit and inbound == ()


class TestSimulateRound:
    def chain(self):
        return SensorTree(parent=[0, 1, 2], cost=[1.0, 1.0, 1.0])

    def round_with_alpha(self, p, alpha_target):
        """Scan seeds until the first draw is near the target, then run a round."""
        tree = self.chain()
        seed = 0
        while True:
            alpha, _ = shared_draw(seed)
            if abs(alpha - alpha_target) < 0.05:
                break
            seed += 1
        nodes = build_nodes(tree, p, seed)
        return simulate_round(tree, nodes), alpha

    def test_middle_threshold_selects_prefix(self):
        outcome, alpha = self.round_with_alpha([0.8, 0.5, 0.3], 0.4)
        assert outcome.selected == {1, 2}
        assert outcome.transmissions == ((2, 1, 1), (1, 0, 2))
        assert outcome.energy == tree_energy(self.chain(), outcome.selected)

    def test_high_alpha_selects_nobody(self):
        outcome, _ = self.round_with_alpha([0.8, 0.5, 0.3], 0.9)
        assert outcome.selected == frozenset()
        assert outcome.energy == 0.0
        assert outcome.transmissions == ()

    def test_low_alpha_selects_everybody(self):
        outcome, _ = self.round_with_alpha([0.8, 0.5, 0.3], 0.1)
        assert outcome.selected == {1, 2, 3}
        # merged payload grows toward the fusion center
        assert outcome.transmissions[-1] == (1, 0, 3)

    def test_inconsistent_probabilities_raise_agreement_violation(self):
        tree = self.chain()
        nodes = build_nodes(tree, [0.8, 0.5, 0.3], seed=0)
        # fault injection: node 1 believes its child reports far more often
        nodes[0].p_children = (0.99,)
        with pytest.raises(AgreementViolation):
            for _ in range(200):
                simulate_round(tree, nodes)

    def test_transmitting_set_checked_against_threshold_rule(self):
        # Sensor 2 above its parent: sensor 1 relays for it without being selected.
        tree = SensorTree(parent=[0, 1], cost=[1.0, 1.0])
        assert 0.3 < shared_draw(1)[0] <= 0.8
        nodes = build_nodes(tree, [0.3, 0.8], seed=1)
        with pytest.raises(
            AgreementViolation,
            match=r"transmitting set \[1, 2\] disagrees with the threshold rule \[2\]",
        ):
            simulate_round(tree, nodes)

    def test_desynchronized_generator_detected(self):
        tree = self.chain()
        nodes = build_nodes(tree, [0.8, 0.5, 0.3], seed=0)
        nodes[2].prng_state = 12345
        with pytest.raises(AgreementViolation):
            simulate_round(tree, nodes)


class TestSimulateRun:
    def test_all_ones_always_full_tree(self, rng):
        tree = random_tree(rng, 5)
        run = simulate_run(tree, np.ones(5), seed=3, rounds=2000)
        assert run.empirical_marginals.tolist() == [1.0] * 5
        assert run.mean_energy == pytest.approx(float(tree.cost.sum()), abs=1e-12)
        assert set(run.tree_counts) == {frozenset(range(1, 6))}

    def test_all_zeros_never_transmits(self, rng):
        tree = random_tree(rng, 5)
        run = simulate_run(tree, np.zeros(5), seed=3, rounds=2000)
        assert run.total_packets == 0
        assert run.mean_energy == 0.0

    def test_frequencies_match_marginals_within_3_sigma(self, rng):
        tree = random_tree(rng, 8)
        p = random_feasible_marginals(rng, tree)
        N = 10**5
        run = simulate_run(tree, p, seed=31, rounds=N)
        assert run.control_messages == 0
        for i in range(8):
            sigma = np.sqrt(p[i] * (1 - p[i]) / N)
            assert abs(run.empirical_marginals[i] - p[i]) <= max(3 * sigma, 1e-12)

    def test_induced_tree_distribution_is_the_nested_decomposition(self):
        check_protocol_matches_decomposition(rounds=30000, seed=7)

    def test_on_round_sees_every_round(self, rng):
        tree = random_tree(rng, 4)
        p = random_feasible_marginals(rng, tree)
        seen = []
        run = simulate_run(tree, p, seed=5, rounds=50, on_round=lambda k, outcome: seen.append((k, outcome)))
        assert [k for k, _ in seen] == list(range(1, 51))
        counts = sum(indicator(outcome.selected, 4) for _, outcome in seen)
        assert np.array_equal(counts / 50, run.empirical_marginals)
        assert run.total_packets == sum(len(outcome.transmissions) for _, outcome in seen)

    def test_marginals_of_observed_trees_equals_input_in_expectation(self, rng):
        tree = random_tree(rng, 6)
        p = random_feasible_marginals(rng, tree)
        run = simulate_run(tree, p, seed=17, rounds=40000)
        dist = decompose(tree, p)
        assert set(run.tree_counts) <= {members for members, _ in dist}
        assert np.abs(marginals_of(dist, 6) - p).max() <= 1e-12

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInput):
            simulate_run(SensorTree(parent=[0], cost=[1.0]), [0.5], seed=-1, rounds=5)

    def test_seed_beyond_64_bits_rejected(self):
        """The generator state has 64 bits: 2**64 - 1 runs, and 2**64 would
        alias seed 0, so it is rejected."""
        tree = SensorTree(parent=[0], cost=[1.0])
        assert simulate_run(tree, [0.5], seed=2**64 - 1, rounds=5).rounds == 5
        with pytest.raises(InvalidInput):
            simulate_run(tree, [0.5], seed=2**64, rounds=5)

    def test_unrealizable_marginals_rejected_before_any_round(self):
        tree = SensorTree(parent=[0, 1], cost=[1.0, 1.0])
        seen = []
        with pytest.raises(OrderingViolated):
            simulate_run(tree, [0.5, 0.6], seed=0, rounds=5, on_round=lambda k, outcome: seen.append(k))
        assert seen == []
        # within decompose's tolerance the run goes ahead and draws decompose's
        # trees, also when seed 0's first alpha = a falls between the marginals
        a = shared_draw(0)[0]
        for p in ([0.5, 0.5 + 1e-13], [a - 1e-13, a]):
            run = simulate_run(tree, p, seed=0, rounds=50)
            assert run.rounds == 50
            assert set(run.tree_counts) <= set(decompose(tree, p).trees)


class TestRoundForRound:
    """simulate_run's outcomes, round by round, against the per-round node walk."""

    def check(self, tree, p, seed, rounds):
        seen = []
        run = simulate_run(tree, p, seed, rounds, on_round=lambda k, outcome: seen.append(outcome))
        expected = per_round_outcomes(tree, p, seed, rounds)
        assert seen == expected
        tree_counts: dict = {}
        energy_sum = 0.0
        for outcome in expected:
            tree_counts[outcome.selected] = tree_counts.get(outcome.selected, 0) + 1
            energy_sum += outcome.energy
        counts = sum((n * indicator(s, tree.m) for s, n in tree_counts.items()), np.zeros(tree.m))
        assert run.rounds == rounds
        assert run.tree_counts == tree_counts
        assert list(run.tree_counts) == list(tree_counts)  # first-seen order too
        assert np.array_equal(run.empirical_marginals, counts / max(rounds, 1))
        assert run.mean_energy == energy_sum / max(rounds, 1)
        assert run.total_packets == sum(len(outcome.transmissions) for outcome in expected)
        assert run.control_messages == 0
        return expected

    @pytest.mark.parametrize("case", range(8))
    def test_random_trees_with_tied_levels(self, case):
        rng = np.random.default_rng(700 + case)
        tree = random_tree(rng, int(rng.integers(6, 12)))
        # rounding is monotone, so ordering survives; 5 levels for 6+ sensors tie
        p = np.round(random_feasible_marginals(rng, tree) * 4) / 4
        assert len(set(p.tolist())) < tree.m
        self.check(tree, p, seed=int(rng.integers(2**63)), rounds=600)

    @pytest.mark.parametrize("case", range(4))
    def test_exact_zero_and_one_entries(self, case):
        rng = np.random.default_rng(800 + case)
        tree = random_tree(rng, 7)
        p = random_feasible_marginals(rng, tree)
        p = np.where(p > 0.6, 1.0, np.where(p < 0.25, 0.0, p))  # monotone as well
        assert 0.0 in p or 1.0 in p
        self.check(tree, p, seed=case, rounds=400)

    @pytest.mark.parametrize("level", [0.0, 0.37, 1.0])
    def test_one_distinct_level(self, level, rng):
        tree = random_tree(rng, 6)
        self.check(tree, np.full(6, level), seed=11, rounds=300)

    @pytest.mark.parametrize("boundary_round", [1, 6])
    def test_alpha_exactly_on_an_entry(self, boundary_round):
        """Round ``boundary_round`` draws exactly an entry a of p, and a is
        selected there (alpha <= p_i), but not in the later rounds drawn
        just above it. Whether a's round is the first or a later one to
        land in its interval, the outcomes must not mix the two."""
        tree = SensorTree(parent=[0, 1, 2, 3], cost=[1.0, 2.0, 3.0, 4.0])
        seed = 3
        state = seed
        for _ in range(boundary_round):
            a, state = shared_draw(state)
        p = [1.0, min(1.0, a + 0.3), a, a / 2]
        outcomes = self.check(tree, p, seed, rounds=400)
        assert outcomes[boundary_round - 1].alpha == a
        assert 3 in outcomes[boundary_round - 1].selected
        above = [o for o in outcomes if a < o.alpha <= min(1.0, a + 0.3)]
        assert above and all(o.selected == {1, 2} for o in above)
