"""Cross-ratios, developing curves, projective lifts, the cross-ratio estimator."""

import math

import numpy as np
import pytest

from virasoro import (
    LINE,
    TORUS,
    CircleDiffeo,
    MobiusElement,
    ProjectivePoint,
    cartan_schwarzian_estimate,
    compose,
    cross_ratio,
    develop,
    mobius_lift,
    random_diffeo,
    random_mobius,
    schwarzian_universal,
)
from conftest import sup_gap, traced_peak_mb

TWO_PI = 2.0 * np.pi


class TestCrossRatio:
    def test_integer_example_exact(self):
        assert cross_ratio(1.0, 2.0, 3.0, 4.0) == 4.0 / 3.0

    def test_coincidence_patterns(self):
        assert cross_ratio(1.0, 2.0, 1.0, 4.0) == 0.0
        assert cross_ratio(1.0, 2.0, 3.0, 2.0) == 0.0
        assert cross_ratio(5.0, 2.0, 3.0, 5.0) in (math.inf, -math.inf)

    def test_point_at_infinity(self):
        # With z2 = inf the ratio degenerates to (z1 - z3)/(z1 - z4).
        assert abs(cross_ratio(1.0, math.inf, 3.0, 4.0) - (1.0 - 3.0) / (1.0 - 4.0)) < 1e-15

    def test_three_coincident_rejected(self):
        with pytest.raises(ValueError):
            cross_ratio(1.0, 1.0, 1.0, 2.0)

    def test_mobius_invariance(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(200):
            z = np.sort(rng.uniform(-3.0, 3.0, 4))
            if np.min(np.diff(z)) < 1e-2:
                continue
            m = random_mobius(rng)
            before = cross_ratio(*z)
            after = cross_ratio(*(m.act_affine(t) for t in z))
            worst = max(worst, abs(after - before) / (1.0 + abs(before)))
        assert worst < 1e-12


class TestDevelopingCurves:
    def test_torus_base_points(self):
        assert develop(TORUS, 0.0).affine == 0.0
        # cos(pi/2) rounds to ~6e-17 rather than exact zero, so the developed
        # point sits at the chart pole only up to rounding.
        top = develop(TORUS, np.pi)
        assert abs(top.x) < 1e-15 and abs(top.y - 1.0) < 1e-15
        assert abs(top.affine) > 1e15

    def test_line_base_points(self):
        assert abs(develop(LINE, np.pi / 4.0).affine - 1.0) < 1e-15
        assert develop(LINE, 0.0).affine == 0.0

    def test_torus_chart_value(self):
        for theta in (0.3, 1.2, 2.5):
            assert abs(develop(TORUS, theta).affine - 2.0 * math.tan(theta / 2.0)) < 1e-12

    def test_line_double_cover(self):
        # The line curve closes after a half turn up to projective sign.
        p = develop(LINE, 0.7)
        q = develop(LINE, 0.7 + np.pi)
        assert abs(p.x - q.x) < 1e-12 and abs(p.y - q.y) < 1e-12

    def test_point_normalization(self):
        p = ProjectivePoint(-2.0, -4.0)
        assert p.x > 0.0
        assert abs(p.x**2 + p.y**2 - 1.0) < 1e-15
        assert abs(p.affine - 2.0) < 1e-14

    def test_point_rejects_zero(self):
        with pytest.raises(ValueError):
            ProjectivePoint(0.0, 0.0)


class TestMobiusLift:
    def test_identity_lifts_to_identity(self):
        for structure in (TORUS, LINE):
            lift = mobius_lift(MobiusElement.identity(), structure)
            assert sup_gap(lift.eval, lambda t: t) < 1e-12

    def test_conjugated_rotation_is_rigid(self):
        # In the factor-2 torus chart the rigid rotations are the conjugates
        # D R(a/2) D^{-1} with D = diag(sqrt 2, 1/sqrt 2); the induced circle
        # map is the rotation by -a for this action convention.
        s2 = math.sqrt(2.0)
        d_mat = MobiusElement(np.array([[s2, 0.0], [0.0, 1.0 / s2]]))
        a = 0.7
        m = d_mat.compose(MobiusElement.rotation(a / 2.0)).compose(d_mat.inverse())
        lift = mobius_lift(m, TORUS)
        theta = np.linspace(0.0, TWO_PI, 33)
        assert np.max(np.abs(lift.displacement(theta) + a)) < 1e-10

    def test_scaling_fixed_points_and_multiplier(self):
        lift = mobius_lift(MobiusElement.scaling(0.4), TORUS)
        assert abs(lift.eval(0.0)) < 1e-12
        assert abs(lift.eval(np.pi) - np.pi) < 1e-12
        assert abs(lift.derivative(0.0, 1) - math.exp(0.8)) < 1e-10

    def test_equivariance_with_point_action(self, rng):
        for structure in (TORUS, LINE):
            for _ in range(6):
                m = random_mobius(rng)
                lift = mobius_lift(m, structure)
                theta = np.linspace(0.0, TWO_PI, 41)[:-1] + 0.003
                x, y = m.act_point(*structure.curve(theta))
                gap = structure.angle_of(x, y) - lift.eval(theta)
                gap -= structure.deck * np.round(gap / structure.deck)
                assert np.max(np.abs(gap)) < 1e-9

    def test_homomorphism(self, rng):
        m1 = random_mobius(rng)
        m2 = random_mobius(rng)
        joint = mobius_lift(m1.compose(m2), TORUS)
        split = compose(mobius_lift(m1, TORUS), mobius_lift(m2, TORUS))
        assert sup_gap(joint.eval, split.eval) < 1e-8

    def test_lift_kernel_of_universal_schwarzian(self, rng):
        for structure in (TORUS, LINE):
            m = random_mobius(rng)
            s = schwarzian_universal(mobius_lift(m, structure), structure)
            assert s.max_abs() < 1e-9

    def test_strongly_hyperbolic_lift_memory_ceiling(self):
        # 9432 modes. A dense slope table on the 8 * 9432 validation nodes
        # would take about 5.7 GB; the FFT scan keeps the peak in megabytes.
        lift, peak_mb = traced_peak_mb(mobius_lift, MobiusElement.scaling(3.0), TORUS)
        assert lift.modes == 9432
        assert peak_mb < 32.0

    def test_compose_of_large_lifts_fails_before_sampling(self):
        # 2 * 9432 modes would start re-projection at 75488 nodes, past the
        # 8192-node cap; a dense cos table there alone would be 5.7 GB.
        lift = mobius_lift(MobiusElement.scaling(3.0), TORUS)

        def attempt():
            with pytest.raises(ArithmeticError, match="cap"):
                compose(lift, lift)

        _, peak_mb = traced_peak_mb(attempt)
        assert peak_mb < 1.0

    def test_compose_refusal_at_cap_memory_ceiling(self):
        # Two 880-mode LINE lifts re-project from 7072 nodes, just below the
        # 8192-node cap, and refuse there. Their evaluations at those nodes
        # hold baby steps and giant-step sums of about 32 * 7072 * 30 bytes
        # each, where a dense cos/sin table pair takes 100 MB.
        first = mobius_lift(MobiusElement.scaling(1.5), LINE)
        second = mobius_lift(MobiusElement.rotation(0.7).compose(MobiusElement.scaling(1.5)), LINE)
        assert first.modes == second.modes == 880

        def attempt():
            with pytest.raises(ArithmeticError, match="did not resolve"):
                compose(first, second)

        _, peak_mb = traced_peak_mb(attempt)
        assert peak_mb < 24.0


class TestCartanEstimator:
    def test_identity_estimate_vanishes(self):
        for structure in (TORUS, LINE):
            est = cartan_schwarzian_estimate(
                CircleDiffeo.identity(), structure, 0.9, 0.01
            )
            assert abs(est) < 1e-8

    def test_lift_estimate_vanishes(self, rng):
        m = random_mobius(rng, spread=0.25)
        lift = mobius_lift(m, TORUS)
        est = cartan_schwarzian_estimate(lift, TORUS, 1.7, 0.01)
        assert abs(est) < 1e-6

    def test_matches_universal_schwarzian(self, two_mode):
        for structure in (TORUS, LINE):
            target = float(schwarzian_universal(two_mode, structure).eval(0.8))
            est = cartan_schwarzian_estimate(two_mode, structure, 0.8, 1e-3)
            assert abs(est - target) < 1e-4 * (1.0 + abs(target))

    def test_second_order_convergence(self, two_mode):
        theta = 1.3
        target = float(schwarzian_universal(two_mode, TORUS).eval(theta))
        errs = [
            abs(cartan_schwarzian_estimate(two_mode, TORUS, theta, eps) - target)
            for eps in (0.02, 0.01, 0.005)
        ]
        rates = [errs[i] / errs[i + 1] for i in range(2)]
        assert min(rates) > 3.0  # clean eps^2 decay gives 4

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            cartan_schwarzian_estimate(CircleDiffeo.identity(), TORUS, 0.0, 0.0)

    def test_near_pole_angle_still_works(self, two_mode):
        # theta = pi puts the plain torus chart at its pole; the estimator
        # must rotate the chart rather than fail.
        target = float(schwarzian_universal(two_mode, TORUS).eval(np.pi))
        est = cartan_schwarzian_estimate(two_mode, TORUS, float(np.pi), 1e-3)
        assert abs(est - target) < 1e-4 * (1.0 + abs(target))


class TestStructureTable:
    def test_chart_constants(self):
        assert TORUS.chart_schwarzian == 0.5
        assert LINE.chart_schwarzian == 2.0
        assert TORUS.deck == TWO_PI
        assert abs(LINE.deck - np.pi) < 1e-15

    def test_angle_of_round_trip(self):
        theta = np.linspace(0.0, TWO_PI, 37)[:-1] + 0.001
        for structure in (TORUS, LINE):
            x, y = structure.curve(theta)
            back = structure.angle_of(x, y)
            gap = back - theta
            gap -= structure.deck * np.round(gap / structure.deck)
            assert np.max(np.abs(gap)) < 1e-12
