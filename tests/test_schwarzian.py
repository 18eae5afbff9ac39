"""Schwarzian cocycles: classical, modified, chart-corrected, and their kin."""

import math

import numpy as np
import pytest

from virasoro import (
    LINE,
    TORUS,
    CircleDiffeo,
    MobiusElement,
    VectorFieldS1,
    cocycle_A,
    cocycle_E,
    compose,
    flow,
    ghys_zero_count,
    infinitesimal_schwarzian,
    mobius_lift,
    osculating_mobius,
    random_diffeo,
    random_mobius,
    schwarzian_classical,
    schwarzian_from_triple,
    schwarzian_modified,
    schwarzian_universal,
)
from conftest import sup_gap, traced_peak_mb

TWO_PI = 2.0 * np.pi


class TestClassical:
    def test_identity_and_rotation_vanish(self):
        assert schwarzian_classical(CircleDiffeo.identity()).max_abs() < 1e-14
        assert schwarzian_classical(CircleDiffeo.rotation(1.1)).max_abs() < 1e-14

    def test_wobble_value_at_zero(self, wobble):
        # phi''' / phi' at 0 is -0.3/1.3; the squared term vanishes there.
        got = float(schwarzian_classical(wobble).eval(0.0))
        assert abs(got + 0.3 / 1.3) < 1e-12

    def test_explicit_value_at_half_pi(self, wobble):
        # At pi/2: phi' = 1, phi'' = -0.3, phi''' = 0, so S = -(3/2)(0.3)^2.
        got = float(schwarzian_classical(wobble).eval(np.pi / 2.0))
        assert abs(got + 1.5 * 0.09) < 1e-12

    def test_cocycle_identity(self, rng):
        for _ in range(4):
            d1 = random_diffeo(rng)
            d2 = random_diffeo(rng)
            joint = schwarzian_classical(compose(d1, d2), 512)
            split = schwarzian_classical(d1, 512).pullback(d2) + schwarzian_classical(
                d2, 512
            )
            assert sup_gap(joint.eval, split.eval) < 1e-8

    def test_triple_route_agrees(self, two_mode):
        direct = schwarzian_classical(two_mode, 512)
        rebuilt = schwarzian_from_triple(two_mode, 512)
        assert sup_gap(direct.eval, rebuilt.eval) < 1e-10


class TestModifiedAndUniversal:
    def test_universal_on_torus_is_modified(self, two_mode):
        a = schwarzian_modified(two_mode)
        b = schwarzian_universal(two_mode, TORUS)
        assert sup_gap(a.eval, b.eval) < 1e-12

    def test_wobble_modified_at_zero(self, wobble):
        # Classical part -0.3/1.3 plus (1.3^2 - 1)/2.
        expect = -0.3 / 1.3 + 0.5 * (1.3**2 - 1.0)
        got = float(schwarzian_modified(wobble).eval(0.0))
        assert abs(got - expect) < 1e-12

    def test_rotation_in_modified_kernel(self):
        assert schwarzian_modified(CircleDiffeo.rotation(0.9)).max_abs() < 1e-13

    def test_lifts_span_the_kernel(self, rng):
        for structure in (TORUS, LINE):
            for _ in range(5):
                lift = mobius_lift(random_mobius(rng), structure)
                assert schwarzian_universal(lift, structure).max_abs() < 1e-9

    def test_kernel_is_exact_on_lifts_only(self, two_mode):
        assert schwarzian_modified(two_mode).max_abs() > 1e-2

    def test_cocycle_identity_universal(self, rng):
        for structure in (TORUS, LINE):
            d1 = random_diffeo(rng)
            d2 = random_diffeo(rng)
            joint = schwarzian_universal(compose(d1, d2), structure, 512)
            split = schwarzian_universal(d1, structure, 512).pullback(
                d2
            ) + schwarzian_universal(d2, structure, 512)
            assert sup_gap(joint.eval, split.eval) < 1e-8

    def test_line_constant_differs(self, wobble):
        got = float(schwarzian_universal(wobble, LINE).eval(0.0))
        expect = -0.3 / 1.3 + 2.0 * (1.3**2 - 1.0)
        assert abs(got - expect) < 1e-12


class TestLogSlopeCocycles:
    def test_E_of_wobble(self, wobble):
        assert abs(float(cocycle_E(wobble).eval(0.0)) - math.log(1.3)) < 1e-12

    def test_E_additivity(self, rng):
        d1 = random_diffeo(rng)
        d2 = random_diffeo(rng)
        joint = cocycle_E(compose(d1, d2), 512)
        split = lambda t: cocycle_E(d1, 512).eval(d2.eval(t)) + cocycle_E(d2, 512).eval(t)
        assert sup_gap(joint.eval, split) < 1e-9

    def test_A_is_log_derivative(self, two_mode):
        theta = np.linspace(0.1, 6.2, 30)
        got = cocycle_A(two_mode).eval(theta)
        expect = two_mode.derivative(theta, 2) / two_mode.derivative(theta, 1)
        assert np.max(np.abs(got - expect)) < 1e-11

    def test_A_vanishes_on_rotations(self):
        assert cocycle_A(CircleDiffeo.rotation(2.0)).max_abs() < 1e-14


class TestInfinitesimal:
    def test_constant_field_in_kernel(self):
        assert infinitesimal_schwarzian(VectorFieldS1(3.0), TORUS).max_abs() < 1e-13

    def test_sine_field_in_torus_kernel(self):
        xi = VectorFieldS1(0.0, (), (1.0,))
        assert infinitesimal_schwarzian(xi, TORUS).max_abs() < 1e-12

    def test_sin2_oracle(self):
        xi = VectorFieldS1(0.0, (), (0.0, 1.0))
        out = infinitesimal_schwarzian(xi, TORUS)
        # (sin 2t)''' + (sin 2t)' = -8 cos 2t + 2 cos 2t.
        assert sup_gap(out.eval, lambda t: -6.0 * np.cos(2.0 * t)) < 1e-11

    def test_uniform_density_variant(self):
        xi = VectorFieldS1(0.0, (), (1.0,))
        out = infinitesimal_schwarzian(xi, None)
        assert sup_gap(out.eval, lambda t: -np.cos(t)) < 1e-12

    def test_matches_flow_linearization(self):
        xi = VectorFieldS1(0.0, (), (0.0, 1.0))
        eps = 1e-4
        q = schwarzian_modified(flow(xi, eps))
        lin = infinitesimal_schwarzian(xi, TORUS)
        theta = np.linspace(0.0, TWO_PI, 24, endpoint=False)
        gap = q.eval(theta) / eps - lin.eval(theta)
        assert np.max(np.abs(gap)) < 1e-2  # O(eps) remainder

    def test_linearization_converges(self):
        xi = VectorFieldS1(0.0, (0.3,), (0.0, 0.4))
        lin = infinitesimal_schwarzian(xi, TORUS)
        theta = np.linspace(0.0, TWO_PI, 16, endpoint=False)
        errs = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            q = schwarzian_modified(flow(xi, eps))
            errs.append(np.max(np.abs(q.eval(theta) / eps - lin.eval(theta))))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 2e-2


class TestOsculating:
    def test_identity_osculates_identity(self):
        m = osculating_mobius(CircleDiffeo.identity(), TORUS, 0.7)
        assert m.distance(MobiusElement.identity()) < 1e-9

    def test_lift_recovers_its_element(self, rng):
        for structure in (TORUS, LINE):
            m = random_mobius(rng, spread=0.3)
            lift = mobius_lift(m, structure)
            got = osculating_mobius(lift, structure, 1.1)
            # Projective elements are defined up to sign; distance handles it.
            assert got.distance(m) < 1e-6

    def test_third_order_mismatch_is_schwarzian(self, two_mode):
        theta0 = 0.6
        m = osculating_mobius(two_mode, TORUS, theta0)
        lift = mobius_lift(m, TORUS)
        # Jet agreement through second order.
        for order in (1, 2):
            assert abs(
                lift.derivative(theta0, order) - two_mode.derivative(theta0, order)
            ) < 1e-5
        gap = lift.eval(theta0) - two_mode.eval(theta0)
        gap -= TWO_PI * round(gap / TWO_PI)
        assert abs(gap) < 1e-8


class TestGhysCount:
    def test_generic_diffeo_has_at_least_four(self):
        d = CircleDiffeo(0.0, (), (0.0, 0.2))
        report = ghys_zero_count(d)
        assert not report.identically_zero
        assert report.count >= 4

    def test_lift_flagged_identically_zero(self, rng):
        lift = mobius_lift(random_mobius(rng), TORUS)
        report = ghys_zero_count(lift)
        assert report.identically_zero
        assert report.count is None
        assert report.locations.size == 0

    def test_locations_stable_under_refinement(self):
        d = flow(VectorFieldS1(0.0, (), (0.0, 0.0, 1.0)), 0.1)
        r1 = ghys_zero_count(d, grid=256)
        r2 = ghys_zero_count(d, grid=512)
        assert r1.count == r2.count
        assert np.max(np.abs(np.sort(r1.locations) - np.sort(r2.locations))) < 1e-6

    def test_minimum_over_random_draws(self):
        rng = np.random.default_rng(99)
        counts = []
        for _ in range(30):
            report = ghys_zero_count(random_diffeo(rng))
            assert not report.identically_zero
            counts.append(report.count)
        assert min(counts) >= 4

    def test_fine_grid_memory_ceiling(self):
        # The sign scan at 4 * 8192 nodes is one inverse FFT: O(N) memory,
        # where a dense interpolant table would need 2 * 32768 * 4095 doubles.
        d = CircleDiffeo(0.0, (), (0.0, 0.2))
        report, peak_mb = traced_peak_mb(ghys_zero_count, d, 8192)
        assert report.count >= 4
        assert peak_mb < 16.0
