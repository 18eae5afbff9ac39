"""Spectral grid, interpolation, differentiation, quadrature, extrapolation."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from virasoro import (
    PeriodicSamples,
    circle_grid,
    circle_integral,
    count_sign_changes,
    richardson_limit,
    spectral_derivative,
)
from virasoro.circle import _trig_eval
from virasoro.numerics import trig_eval_uniform

TWO_PI = 2.0 * np.pi


def test_circle_grid_uniform_open():
    g = circle_grid(8)
    assert g[0] == 0.0
    assert np.allclose(np.diff(g), np.pi / 4.0)
    assert g[-1] < TWO_PI


class TestTrigEvalUniform:
    @given(
        grid=st.integers(min_value=3, max_value=4096),
        top=st.floats(min_value=0.0, max_value=1.0),
        order=st.integers(min_value=0, max_value=3),
        half_step=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(grid=4096, top=1.0, order=3, half_step=True, seed=1)
    @example(grid=4096, top=0.15, order=1, half_step=False, seed=2)
    @example(grid=4095, top=1.0, order=2, half_step=True, seed=3)
    @example(grid=2048, top=0.5, order=0, half_step=True, seed=4)
    def test_matches_dense_kernel(self, grid, top, order, half_step, seed):
        # Modes 1 .. M with M anywhere from 1 to the largest below grid / 2.
        modes = 1 + int(top * ((grid - 1) // 2 - 1))
        a, b = np.random.default_rng(seed).standard_normal((2, modes))
        offset = np.pi / grid if half_step else 0.0
        dense = _trig_eval(circle_grid(grid) + offset, a, b, order)
        fast = trig_eval_uniform(a, b, grid, order, offset)
        n = np.arange(1, modes + 1, dtype=float)
        bound = 1e-12 * (1.0 + np.sum(n**order * (np.abs(a) + np.abs(b))))
        assert np.max(np.abs(fast - dense)) <= bound

    @pytest.mark.parametrize("grid", [4096, 4095, 1000])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("half_step", [False, True])
    def test_single_top_mode_exact(self, grid, order, half_step):
        # One mode just below grid / 2, against angles reduced in integers.
        # The dense kernel is no reference here: rounding of n * theta moves
        # its values by up to about 3e-12 * k^order for k near 2048.
        k = (grid - 1) // 2
        a = np.zeros(k)
        b = np.zeros(k)
        a[-1], b[-1] = 0.7, -0.4
        j = np.arange(grid)
        step = k * (2 * j + int(half_step)) % (2 * grid)
        ang = np.pi * step / grid + order * np.pi / 2.0
        exact = k**order * (0.7 * np.cos(ang) - 0.4 * np.sin(ang))
        fast = trig_eval_uniform(a, b, grid, order, np.pi / grid if half_step else 0.0)
        assert np.max(np.abs(fast - exact)) <= 1e-12 * (1.0 + 1.1 * k**order)

    @pytest.mark.parametrize("grid", [8, 9, 4096, 4095])
    def test_rejects_modes_that_alias(self, grid):
        lowest_bad = (grid + 1) // 2
        ok = np.ones(lowest_bad - 1)
        assert trig_eval_uniform(ok, ok, grid).shape == (grid,)
        for modes in (lowest_bad, grid):
            with pytest.raises(ValueError):
                trig_eval_uniform(np.ones(modes), np.zeros(modes), grid)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            trig_eval_uniform(np.ones(2), np.ones(2), 16, 4)


class TestPeriodicSamples:
    def test_rejects_odd_small_nonfinite(self):
        with pytest.raises(ValueError):
            PeriodicSamples(np.zeros(7))
        with pytest.raises(ValueError):
            PeriodicSamples(np.zeros(6))
        with pytest.raises(ValueError):
            PeriodicSamples([0.0] * 7 + [np.nan])
        with pytest.raises(ValueError):
            PeriodicSamples(np.zeros((4, 4)))

    def test_values_read_only(self):
        s = PeriodicSamples(np.zeros(8))
        with pytest.raises(ValueError):
            s.values[0] = 1.0

    def test_interpolation_exact_for_bandlimited(self):
        g = circle_grid(32)
        s = PeriodicSamples(np.cos(3.0 * g) - 0.5 * np.sin(5.0 * g))
        probe = np.linspace(0.1, 6.1, 40)
        exact = np.cos(3.0 * probe) - 0.5 * np.sin(5.0 * probe)
        assert np.max(np.abs(s.interpolate(probe) - exact)) < 1e-12

    def test_interpolation_matches_nodes(self):
        g = circle_grid(16)
        v = np.exp(np.sin(g))
        s = PeriodicSamples(v)
        assert np.max(np.abs(s.interpolate(g) - v)) < 1e-13

    def test_scalar_in_scalar_out(self):
        s = PeriodicSamples(np.cos(circle_grid(16)))
        out = s.interpolate(0.3)
        assert isinstance(out, float)
        assert abs(out - np.cos(0.3)) < 1e-13


class TestSpectralDerivative:
    def test_first_derivative_of_cos(self):
        g = circle_grid(64)
        d = spectral_derivative(PeriodicSamples(np.cos(g)), 1)
        assert np.max(np.abs(d.values + np.sin(g))) < 1e-13

    def test_third_derivative_of_sin2(self):
        g = circle_grid(64)
        d = spectral_derivative(PeriodicSamples(np.sin(2.0 * g)), 3)
        # Rounding noise in the top bins is amplified by k^3; 5e-11 covers it.
        assert np.max(np.abs(d.values + 8.0 * np.cos(2.0 * g))) < 5e-11

    def test_smooth_nonpolynomial(self):
        g = circle_grid(256)
        d = spectral_derivative(PeriodicSamples(np.exp(np.sin(g))), 1)
        exact = np.cos(g) * np.exp(np.sin(g))
        assert np.max(np.abs(d.values - exact)) < 1e-11

    def test_order_validation(self):
        s = PeriodicSamples(np.zeros(8))
        with pytest.raises(ValueError):
            spectral_derivative(s, 0)
        with pytest.raises(ValueError):
            spectral_derivative(s, 4)

    @given(st.integers(min_value=1, max_value=3))
    def test_derivative_of_constant_vanishes(self, order):
        s = PeriodicSamples(np.full(16, 2.5))
        assert np.max(np.abs(spectral_derivative(s, order).values)) < 1e-14


class TestCircleIntegral:
    def test_constant(self):
        assert abs(circle_integral(PeriodicSamples(np.ones(8))) - TWO_PI) < 1e-15

    def test_cos_squared(self):
        g = circle_grid(64)
        assert abs(circle_integral(PeriodicSamples(np.cos(g) ** 2)) - np.pi) < 1e-13

    def test_pure_harmonic_integrates_to_zero(self):
        g = circle_grid(32)
        assert abs(circle_integral(PeriodicSamples(np.sin(5.0 * g)))) < 1e-14


class TestRichardson:
    def test_even_power_limit(self):
        res = richardson_limit(lambda e: np.cos(e), eps0=0.3, levels=5)
        assert abs(res.value - 1.0) < 1e-12
        assert res.converged
        assert res.error_estimate < 1e-8

    def test_quadratic_model_recovered(self):
        # f(eps) = 2 + 5 eps^2 - eps^4 has exact limit 2.
        res = richardson_limit(lambda e: 2.0 + 5.0 * e**2 - e**4, eps0=0.2, levels=4)
        assert abs(res.value - 2.0) < 1e-13

    def test_table_shape(self):
        res = richardson_limit(lambda e: 1.0 + e**2, eps0=0.1, levels=4)
        assert len(res.table) == 4
        assert len(res.table[-1]) == 4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            richardson_limit(lambda e: e, eps0=0.1, levels=2)
        with pytest.raises(ValueError):
            richardson_limit(lambda e: e, eps0=0.0)

    def test_divergence_flagged(self):
        res = richardson_limit(lambda e: 1.0 / e, eps0=0.4, levels=6)
        assert not res.converged


class TestSignChanges:
    def test_sin_two_theta(self):
        s = PeriodicSamples(np.sin(2.0 * circle_grid(64)))
        count, locations = count_sign_changes(s)
        assert count == 4
        expected = np.array([0.0, np.pi / 2.0, np.pi, 3.0 * np.pi / 2.0])
        gaps = np.abs(np.sort(locations) - expected)
        gaps = np.minimum(gaps, TWO_PI - gaps)
        assert np.max(gaps) < 1e-8

    def test_no_changes_for_positive_function(self):
        s = PeriodicSamples(2.0 + np.cos(circle_grid(32)))
        count, locations = count_sign_changes(s)
        assert count == 0
        assert locations.size == 0

    def test_shifted_harmonic(self):
        s = PeriodicSamples(np.sin(3.0 * circle_grid(96) + 0.4))
        count, _ = count_sign_changes(s)
        assert count == 6

    def test_nyquist_alternation_exceeds_aliasing_bound(self):
        # cos(8 theta) sampled on 16 nodes crosses zero 16 times > N / 2.
        with pytest.raises(ValueError):
            count_sign_changes(PeriodicSamples(np.cos(np.pi * np.arange(16))))

    @given(
        grid=st.sampled_from([64, 256, 1024]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_dense_loop_scan(self, grid, seed):
        # Band-limited to grid / 4, so at most grid / 2 crossings.
        rng = np.random.default_rng(seed)
        modes = int(rng.integers(1, grid // 4 + 1))
        a, b = rng.standard_normal((2, modes))
        s = PeriodicSamples(0.3 * rng.standard_normal() + _trig_eval(circle_grid(grid), a, b))
        count, locations = count_sign_changes(s)
        reference = _loop_sign_changes(s)
        assert count == reference.size
        assert np.max(np.abs(locations - reference), initial=0.0) <= 1e-12


def _loop_sign_changes(samples, snap=1e-12):
    """Reference scan: the dense interpolant on the four-fold grid and a
    per-index bracket loop, polished like ``count_sign_changes``."""
    theta = circle_grid(4 * samples.size)
    u = samples.interpolate(theta)
    scale = float(np.max(np.abs(samples.values)))
    sign = np.where(np.abs(u) <= snap * scale, 0, np.sign(u)).astype(int)
    idx = np.nonzero(sign)[0]
    locations = []
    for pos in range(idx.size):
        a = idx[pos]
        b = idx[(pos + 1) % idx.size]
        if sign[a] == sign[b]:
            continue
        hi = theta[b] if b > a else theta[b] + TWO_PI
        locations.append(brentq(samples.interpolate, theta[a], hi, xtol=1e-12) % TWO_PI)
    return np.array(sorted(locations))
