"""Diffusion benchmark generator: dynamics, observation rows, topology."""

import numpy as np
import pytest

from oracles import minimum_spanning_weight_bruteforce
from treesched.errors import (
    InvalidBudget,
    InvalidInput,
    NonPositiveNoise,
    NotObservable,
    OutOfRegion,
    UnstableDiscretization,
)
from treesched.model import validate_system
from treesched.testbed import (
    DiffusionConfig,
    build_dynamics,
    build_observation,
    build_topology,
    random_instance,
)


class TestConfig:
    def test_benchmark_dimensions(self):
        cfg = DiffusionConfig()
        assert cfg.grid_side == 4
        assert cfg.n == 16

    def test_unstable_step_rejected(self):
        with pytest.raises(UnstableDiscretization):
            DiffusionConfig(diffusion_rate=1.0, time_step=1.0, grid_spacing=1.0)

    def test_non_divisible_side_rejected(self):
        with pytest.raises(ValueError):
            DiffusionConfig(side_length=3.5, grid_spacing=1.0)

    @pytest.mark.parametrize(
        "field, value", [("sensor_count", 2.5), ("seed", 1.5), ("sensor_count", True)]
    )
    def test_integer_fields_checked_at_construction(self, field, value):
        with pytest.raises(InvalidInput, match=field):
            DiffusionConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("budget", -1.0, InvalidBudget),
            ("process_noise", -1.0, NonPositiveNoise),
            ("measurement_noise", 0.0, NonPositiveNoise),
            ("initial_variance", -4.0, NonPositiveNoise),
            ("cost_offset", float("nan"), InvalidInput),
            ("cost_offset", -50.0, InvalidInput),
        ],
    )
    def test_domain_checked_at_construction(self, field, value, error):
        with pytest.raises(error, match=field):
            DiffusionConfig(**{field: value})

    def test_fields_parsed_at_construction(self):
        cfg = DiffusionConfig(sensor_count="4", budget=6)
        assert (cfg.sensor_count, cfg.budget) == (4, 6.0)
        assert type(cfg.budget) is float


class TestDynamics:
    def test_benchmark_coupling(self):
        A, Q, Sigma0 = build_dynamics(DiffusionConfig())
        assert A.shape == (16, 16)
        off = A[~np.eye(16, dtype=bool)]
        nonzero = off[off != 0.0]
        assert np.allclose(nonzero, 0.1)
        assert np.allclose(Q, np.eye(16))
        assert np.allclose(Sigma0, 4.0 * np.eye(16))

    def test_rows_sum_to_one_heat_conserved(self):
        A, _, _ = build_dynamics(DiffusionConfig())
        assert np.abs(A.sum(axis=1) - 1.0).max() <= 1e-14

    def test_zero_diffusion_gives_identity(self):
        A, _, _ = build_dynamics(DiffusionConfig(diffusion_rate=0.0))
        assert np.array_equal(A, np.eye(16))


class TestObservation:
    def test_cell_center_weights(self):
        cfg = DiffusionConfig()
        C = build_observation(cfg, [(0.5, 0.5)])
        N = cfg.grid_side
        expected = {0: 0.25, N: 0.25, 1: 0.25, N + 1: 0.25}
        nz = {int(i): float(C[0, i]) for i in np.flatnonzero(C[0])}
        assert nz == expected

    def test_grid_point_reads_single_state(self):
        cfg = DiffusionConfig()
        C = build_observation(cfg, [(1.0, 1.0)])
        N = cfg.grid_side
        assert C[0, N + 1] == 1.0
        assert np.count_nonzero(C[0]) == 1

    def test_rows_sum_to_inverse_cell_area(self, rng):
        cfg = DiffusionConfig()
        pos = rng.uniform(0, 3, size=(16, 2))
        C = build_observation(cfg, pos)
        assert np.abs(C.sum(axis=1) - 1.0).max() <= 1e-12

    def test_far_corner_position_handled(self):
        cfg = DiffusionConfig()
        C = build_observation(cfg, [(3.0, 3.0)])
        assert C[0, -1] == 1.0

    def test_outside_region_rejected(self):
        with pytest.raises(OutOfRegion):
            build_observation(DiffusionConfig(), [(3.5, 1.0)])


class TestTopology:
    def test_two_collinear_sensors_form_chain(self):
        cfg = DiffusionConfig(cost_offset=1.0)
        tree = build_topology(cfg, [(1.0, 0.0), (2.0, 0.0)])
        assert tree.parent.tolist() == [0, 1]
        assert tree.cost.tolist() == [2.0, 2.0]

    def test_single_sensor_cost(self):
        cfg = DiffusionConfig(cost_offset=1.0)
        tree = build_topology(cfg, [(1.5, 2.0)])
        assert tree.parent.tolist() == [0]
        assert tree.cost[0] == pytest.approx(1.0 + 1.5**2 + 2.0**2)

    def test_total_weight_matches_bruteforce(self, rng):
        cfg = DiffusionConfig(cost_offset=1.0)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            positions = rng.uniform(0, 3, size=(k, 2))
            tree = build_topology(cfg, positions)
            pts = np.vstack([[0.0, 0.0], positions])
            best = minimum_spanning_weight_bruteforce(pts, cfg.cost_offset)
            assert float(tree.cost.sum()) == pytest.approx(best, abs=1e-10)


class TestRandomInstance:
    def test_benchmark_instance_valid(self):
        inst = random_instance(DiffusionConfig(seed=5))
        validate_system(inst.system)
        assert inst.system.n == 16
        assert inst.system.m == 16
        assert np.allclose(inst.system.r, 1.0)

    def test_observability_rate_across_placements(self):
        # placements are resampled on failure; nearly all should pass directly
        attempts = [random_instance(DiffusionConfig(seed=s)).attempts for s in range(40)]
        first_try = sum(1 for a in attempts if a == 1)
        assert first_try >= 38  # >= 95%

    def test_one_sensor_never_observable(self):
        # One output row cannot observe a 16-state diffusion; every placement fails.
        with pytest.raises(NotObservable, match="no observable placement"):
            random_instance(DiffusionConfig(sensor_count=1))
