"""Mean-selection covariance bound: one-step map, fixed points, sequences."""

import math

import numpy as np
import pytest

from oracles import criterion2_instance, criterion3_instances, scalar_fixed_point, tight_fixed_points
from treesched import lowerbound
from treesched._linalg import covariance_update, predict, symmetrize
from treesched.baseline import enumerate_subtrees
from treesched.errors import Diverged, MaxIterations
from treesched.lowerbound import L_infinity, L_step, _doubling, bound_sequence, detectable_schedule
from treesched.model import LinearSystem, indicator
from treesched.properties import (
    check_bound_concave_monotone_in_X,
    check_doubling_matches_iteration,
    check_expected_covariance_dominates_bound,
    check_fixed_point_start_independent,
    check_inverse_convex_prediction_concave,
    check_trace_convex_in_p,
    random_system,
)

GOLDEN_FP = (math.sqrt(5.0) - 1.0) / 2.0


class TestLStep:
    def test_full_weight_matches_full_tree_map(self, scalar_system):
        assert L_step(scalar_system, [[1.0]], [1.0])[0, 0] == pytest.approx(2 / 3, abs=1e-15)

    def test_zero_weight_is_pure_prediction(self, scalar_system):
        assert L_step(scalar_system, [[1.0]], [0.0])[0, 0] == pytest.approx(2.0, abs=1e-15)

    def test_half_weight(self, scalar_system):
        assert L_step(scalar_system, [[1.0]], [0.5])[0, 0] == pytest.approx(1.0, abs=1e-15)


class TestLInfinity:
    def test_scalar_fixed_point(self, scalar_system):
        fp = L_infinity(scalar_system, [[1.0]], [1.0])
        assert fp[0, 0] == pytest.approx(GOLDEN_FP, abs=1e-9)

    def test_fractional_weight_matches_quadratic_oracle(self, scalar_system):
        for s in (0.25, 0.5, 0.9):
            fp = L_infinity(scalar_system, [[2.0]], [s])
            assert fp[0, 0] == pytest.approx(scalar_fixed_point(1, 1, 1, 1, s), abs=1e-8)

    def test_unit_eigenvalue_without_sensing_diverges(self, scalar_system):
        assert not detectable_schedule(scalar_system, [0.0])
        with pytest.raises(Diverged):
            L_infinity(scalar_system, [[1.0]], [0.0])

    def test_stable_mode_needs_no_sensing(self):
        sys = LinearSystem(A=[[0.5]], Q=[[1.0]], C=[[1.0]], r=[1.0], Sigma0=[[1.0]])
        fp = L_infinity(sys, [[7.0]], [0.0])
        assert fp[0, 0] == pytest.approx(1.0 / (1.0 - 0.25), abs=1e-9)

    def test_iteration_cap_raises(self, scalar_system, monkeypatch):
        monkeypatch.setattr("treesched.lowerbound.FIXED_POINT_MAX_ITER", 3)
        with pytest.raises(MaxIterations):
            L_infinity(scalar_system, [[50.0]], [1.0])

    def test_overflow_raises_diverged(self):
        # A huge unstable mode seen through a tiny C overflows the first
        # prediction; the iteration stops there instead of running to its cap.
        # numpy's overflow warnings are silenced as in TestDoubling's test.
        sys = LinearSystem(A=[[1e200]], Q=[[1.0]], C=[[1e-200]], r=[1.0], Sigma0=[[1.0]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Diverged, match="floating-point range"):
            L_infinity(sys, sys.Sigma0, [1.0])

    def test_limit_independent_of_start_random_4x4(self, rng):
        for k in range(20):
            sys = random_system(rng, 4, int(rng.integers(1, 5)))
            p = rng.uniform(0.2, 1.0, sys.m)
            lo = L_infinity(sys, np.zeros((4, 4)), p)
            hi = L_infinity(sys, 100.0 * np.eye(4), p)
            gap = np.linalg.norm(lo - hi, "fro") / np.linalg.norm(lo, "fro")
            assert gap <= 1e-8, f"instance {k}: relative gap {gap:g}"


def plain_iteration(sys, X0, p):
    """The fixed-point loop written out apart from L_infinity, to pin its bits."""
    C = np.sqrt(p)[:, None] * sys.C
    L = symmetrize(np.asarray(X0, dtype=float))
    for _ in range(lowerbound.FIXED_POINT_MAX_ITER):
        L_next = covariance_update(predict(sys.A, sys.Q, L), C, sys.r)
        gap = np.linalg.norm(L_next - L, "fro")
        L = L_next
        if gap <= lowerbound.FIXED_POINT_TOL * (1.0 + np.linalg.norm(L, "fro")):
            return L
    raise AssertionError("plain iteration did not converge")


def information_step(sys, X, p):
    """The textbook information form of the mean map, apart from the package's
    kernels: inv(inv(A X A^T + Q) + sum_i p_i c_i^T c_i / r_i)."""
    info = sum(w * np.outer(c, c) / r for w, c, r in zip(p, sys.C, sys.r))
    return np.linalg.inv(np.linalg.inv(sys.A @ X @ sys.A.T + sys.Q) + info)


class TestInformationFormOracle:
    @staticmethod
    def weights(rng, m):
        """Fractional weights with at least one exact 0 and one exact 1 when m >= 2."""
        p = rng.uniform(0.0, 1.0, m)
        p[rng.permutation(m)[:2]] = [0.0, 1.0][:m]
        return p

    def test_L_step_matches_information_form(self, rng):
        for k in range(60):
            n, m = (int(v) for v in rng.integers(1, 9, 2))
            sys = random_system(rng, n, m)
            p = self.weights(rng, m)
            for X in (sys.Sigma0, np.zeros((n, n)), 10.0 * np.eye(n)):
                got, want = L_step(sys, X, p), information_step(sys, np.asarray(X), p)
                err = np.linalg.norm(got - want) / np.linalg.norm(want)
                assert err <= 1e-12, f"instance {k} (n={n}, m={m}): relative error {err:g}"

    def test_fixed_point_of_information_form(self, rng):
        checked = 0
        while checked < 30:
            n, m = (int(v) for v in rng.integers(1, 9, 2))
            sys = random_system(rng, n, m)
            p = self.weights(rng, m)
            if not detectable_schedule(sys, p):
                continue
            L = L_infinity(sys, sys.Sigma0, p)
            err = np.linalg.norm(information_step(sys, L, p) - L) / np.linalg.norm(L)
            assert err <= 1e-9, f"n={n}, m={m}: fixed-point residual {err:g}"
            checked += 1


class TestLInfinityStack:
    STARTS = ("Sigma0", "zero", "100I")

    @staticmethod
    def start(sys, which):
        return {"Sigma0": sys.Sigma0, "zero": np.zeros((sys.n, sys.n)), "100I": 100.0 * np.eye(sys.n)}[which]

    @staticmethod
    def schedules(rng, sys, rows):
        """Detectable rows with weights scaled from 0.01 to 1, so that they
        need very different numbers of steps."""
        P = rng.uniform(0.0, 1.0, (rows, sys.m)) * np.geomspace(0.01, 1.0, rows)[:, None]
        return P[[detectable_schedule(sys, w) for w in P]]

    @pytest.mark.parametrize("which", STARTS)
    def test_single_schedule_equals_plain_iteration(self, rng, which):
        for k in range(6):
            sys = random_system(rng, int(rng.integers(1, 9)), int(rng.integers(1, 5)))
            X0 = self.start(sys, which)
            for w in self.schedules(rng, sys, 4):
                assert np.array_equal(L_infinity(sys, X0, w), plain_iteration(sys, X0, w)), f"instance {k}"


def relative_gaps(got, want):
    """Per-row relative Frobenius distance of two (B, n, n) stacks."""
    return np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))


class TestDoubling:
    def test_matches_iteration_from_zero_and_100I_on_criterion3(self):
        # L_infinity stops when a step moves L by 1e-10 relative, so it sits
        # further than that from its limit on slowly contracting rows. The
        # bound is criterion 3's on the gap between these two starts, 1e-8
        # relative Frobenius. Measured worst here: 4.3e-10.
        for k, (sys, p) in enumerate(criterion3_instances()):
            got = _doubling(sys, p[None])
            for X0 in (np.zeros((sys.n, sys.n)), 100.0 * np.eye(sys.n)):
                gap = relative_gaps(got, L_infinity(sys, X0, p)[None])[0]
                assert gap <= 1e-8, f"instance {k}: relative gap {gap:g}"

    def test_matches_tight_reference_on_criterion2_family(self):
        # Every detectable affordable tree of the 20 instances (7,249 rows)
        # against an information-form iteration stopped at 1e-14. Measured
        # worst: 8.4e-13 relative; the 1e-10-stop iteration is 6e-9 off.
        for k in range(20):
            sys, tree, budget = criterion2_instance(k)
            weights = [indicator(members, sys.m) for members in enumerate_subtrees(tree, budget)]
            P = np.reshape([w for w in weights if detectable_schedule(sys, w)], (-1, sys.m))
            gap = relative_gaps(_doubling(sys, P), tight_fixed_points(sys, P)).max()
            assert gap <= 1e-11, f"instance {k}: relative gap {gap:g}"

    def test_stack_rows_equal_single_calls(self, rng, monkeypatch):
        sizes = []

        def recording_update(M, C, r):
            sizes.append(len(M))
            return covariance_update(M, C, r)

        for k in range(6):
            sys = random_system(rng, 4, int(rng.integers(1, 5)))
            P = TestLInfinityStack.schedules(rng, sys, 16)
            monkeypatch.setattr(lowerbound, "covariance_update", recording_update)
            sizes.clear()
            stack = _doubling(sys, P)
            monkeypatch.undo()
            assert len(sizes) >= 2, f"instance {k}: every row left the stack at one step"
            for b in range(len(P)):
                assert np.array_equal(stack[b], _doubling(sys, P[b : b + 1])[0]), f"instance {k} row {b}"

    def test_scalar_fixed_points(self, scalar_system):
        got = _doubling(scalar_system, np.array([[1.0], [0.5], [0.25]]))
        want = [scalar_fixed_point(1, 1, 1, 1, s) for s in (1.0, 0.5, 0.25)]
        assert got[:, 0, 0] == pytest.approx(want, rel=1e-13)

    def test_step_cap_raises(self, scalar_system, monkeypatch):
        # The cap is FIXED_POINT_MAX_ITER.bit_length() steps: H_k is the
        # 2^k-th iterate, so the default 17 steps cover the plain cap of 10^5.
        assert lowerbound.FIXED_POINT_MAX_ITER.bit_length() == 17
        monkeypatch.setattr("treesched.lowerbound.FIXED_POINT_MAX_ITER", 3)
        with pytest.raises(MaxIterations):
            _doubling(scalar_system, np.array([[1.0]]))
        with pytest.raises(MaxIterations):
            _doubling(scalar_system, np.array([[1.0], [0.5]]))

    @pytest.mark.parametrize("field", ["A", "C"])
    def test_overflow_raises_diverged(self, field):
        # A huge A overflows H at the first step, a huge C overflows G and so W.
        # numpy's overflow warnings are silenced here so that the named error,
        # not the warning that pytest turns into an exception, is what is tested.
        arrays = dict(A=[[1.0]], Q=[[1.0]], C=[[1.0]], r=[1.0], Sigma0=[[1.0]])
        sys = LinearSystem(**{**arrays, field: [[1e200]]})
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Diverged, match="floating-point range"):
            _doubling(sys, np.array([[1.0]]))

    def test_property_version(self):
        check_doubling_matches_iteration(samples=20, seed=29)


class TestBoundSequence:
    def test_constant_full_weight_converges_monotonically(self, scalar_system):
        seq = bound_sequence(scalar_system, [[1.0]] * 80)
        traces = [float(L[0, 0]) for L in seq]
        assert traces[0] == 1.0
        assert all(b <= a + 1e-15 for a, b in zip(traces[1:], traces[2:]))
        assert traces[-1] == pytest.approx(GOLDEN_FP, abs=1e-9)

    def test_alternating_schedule_matches_hand_composition(self, scalar_system):
        seq = bound_sequence(scalar_system, [[0.0], [1.0]])
        # L1 = (1*1*1 + 1) = 2 with no information; L2 = ((2+1)^-1 + 1)^-1 = 3/4
        assert seq[1][0, 0] == pytest.approx(2.0, abs=1e-15)
        assert seq[2][0, 0] == pytest.approx(0.75, abs=1e-15)

    def test_empty_schedule_returns_initial_only(self, scalar_system):
        seq = bound_sequence(scalar_system, [])
        assert len(seq) == 1
        assert seq[0][0, 0] == 1.0


class TestStructuralProperties:
    def test_trace_convex_in_p(self):
        check_trace_convex_in_p(samples=300, seed=5)

    def test_concave_monotone_in_X(self):
        check_bound_concave_monotone_in_X(samples=200, seed=6)

    def test_inverse_trace_convex_and_prediction_concave(self):
        check_inverse_convex_prediction_concave(samples=300, seed=7)

    def test_fixed_point_start_independent(self):
        check_fixed_point_start_independent(samples=6, seed=8)

    def test_monte_carlo_mean_dominates_bound(self):
        check_expected_covariance_dominates_bound(steps=50, trials=700, samples=3, seed=9)
