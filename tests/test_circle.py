"""Circle diffeomorphisms, vector fields, flows, brackets, projective elements."""

import hashlib
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from virasoro import (
    LINE,
    CircleDiffeo,
    MobiusElement,
    VectorFieldS1,
    bracket,
    circle,
    compose,
    flow,
    inverse,
    mobius_lift,
    random_diffeo,
    random_mobius,
    random_vector_field,
)
from virasoro.circle import _PROJECT_CAP, _RESIDUAL_TOL, MIN_SLOPE, _project_periodic
from virasoro.numerics import TrigSeries, circle_grid, trig_eval_uniform
from conftest import counting_kernel, sup_gap, traced_peak_mb

TWO_PI = 2.0 * np.pi


class TestCircleDiffeo:
    def test_identity_and_rotation(self):
        ident = CircleDiffeo.identity()
        rot = CircleDiffeo.rotation(0.5)
        theta = np.linspace(0.0, TWO_PI, 17)
        assert np.allclose(ident.eval(theta), theta)
        assert np.allclose(rot.eval(theta), theta + 0.5)
        assert np.allclose(rot.derivative(theta, 1), 1.0)

    def test_wobble_jet_at_zero(self, wobble):
        assert wobble.eval(0.0) == 0.0
        assert abs(wobble.derivative(0.0, 1) - 1.3) < 1e-15
        assert abs(wobble.derivative(0.0, 2)) < 1e-15
        assert abs(wobble.derivative(0.0, 3) + 0.3) < 1e-15

    def test_derivatives_take_any_sequence_of_orders(self, wobble, two_mode):
        # Order 0 is the lift itself, shift and theta included; a list of
        # orders reads as the tuple, and an order outside 0-3 is refused.
        assert wobble.derivatives(0.0, [0, 1]) == [0.0, 1.3]
        theta = np.linspace(-2.0, 9.0, 23)
        phi, slope, curv = two_mode.derivatives(theta, [0, 1, 2])
        assert np.array_equal([phi, slope, curv], two_mode.derivatives(theta, (0, 1, 2)))
        assert np.max(np.abs(phi - two_mode.eval(theta))) < 1e-14
        assert np.max(np.abs(slope - two_mode.derivative(theta, 1))) < 1e-14
        assert np.max(np.abs(curv - two_mode.derivative(theta, 2))) < 1e-14
        with pytest.raises(ValueError):
            two_mode.derivatives(theta, [1, 4])

    def test_equivariance_under_full_turn(self, two_mode):
        theta = np.linspace(-2.0, 9.0, 23)
        gap = two_mode.eval(theta + TWO_PI) - two_mode.eval(theta) - TWO_PI
        assert np.max(np.abs(gap)) < 1e-12

    def test_displacement_periodic(self, two_mode):
        theta = np.linspace(0.0, TWO_PI, 11)
        gap = two_mode.displacement(theta + TWO_PI) - two_mode.displacement(theta)
        assert np.max(np.abs(gap)) < 1e-12

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            CircleDiffeo(0.0, (), (1.1,))
        with pytest.raises(ValueError):
            CircleDiffeo(0.0, (0.8,), (0.8,))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CircleDiffeo(np.nan)
        with pytest.raises(ValueError):
            CircleDiffeo(0.0, (np.inf,), ())

    def test_slope_margin_constant(self):
        # Slope of theta + b sin(theta) dips to 1 - b; just inside is fine.
        CircleDiffeo(0.0, (), (0.999,))
        with pytest.raises(ValueError):
            CircleDiffeo(0.0, (), (1.0,))


class TestScatteredMatchesUniform:
    @given(
        modes=st.integers(min_value=0, max_value=3000),
        order=st.integers(min_value=0, max_value=3),
        half_step=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(modes=2446, order=3, half_step=True, seed=1)
    @example(modes=15, order=1, half_step=False, seed=2)
    @example(modes=16, order=2, half_step=True, seed=3)
    @example(modes=0, order=0, half_step=False, seed=4)
    def test_eval_and_derivative_on_uniform_grids(self, modes, order, half_step, seed):
        # The scattered-point kernel against one inverse FFT of the same
        # coefficients on 2M + 2 .. 2M + 17 uniform nodes, within the oracle
        # bound of both: C eps sum (n + 1) n^k (|a_n| + |b_n|) with C = 4.
        # The difference reached C = 3.0 over 3000 draws, nearly all of it
        # the FFT route's, since the kernel alone stays under 1/2
        # (TestTrigEval); order 0 adds the rounding of theta + shift.
        rng = np.random.default_rng(seed)
        n = np.arange(1.0, modes + 1.0)
        a, b = rng.standard_normal((2, modes))
        scale = 0.5 / max(1.0, float(np.sum(n * (np.abs(a) + np.abs(b)))))
        d = CircleDiffeo(float(rng.uniform(-np.pi, np.pi)), scale * a, scale * b)
        grid = 2 * modes + int(rng.integers(2, 18))
        offset = np.pi / grid if half_step else 0.0
        theta = circle_grid(grid) + offset
        fft = trig_eval_uniform(d.cos, d.sin, grid, order, offset)
        eps = np.finfo(float).eps
        bound = 4.0 * eps * float(np.sum((n + 1.0) * n**order * (np.abs(d.cos) + np.abs(d.sin))))
        if order == 0:
            got = d.eval(theta) - (theta + d.shift)
            bound += 2.0 * eps * (TWO_PI + abs(d.shift))
        else:
            got = d.derivative(theta, order) - (1.0 if order == 1 else 0.0)
            bound += eps
        assert np.max(np.abs(got - fft)) <= bound


class TestSlopePolish:
    """``min_slope`` against a 64-fold refined FFT scan of ``phi'``."""

    @given(
        modes=st.integers(min_value=1, max_value=2446),
        decay=st.floats(min_value=0.0, max_value=2.0),
        depth=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(modes=2446, decay=0.0, depth=0.95, seed=1)
    @example(modes=1, decay=0.0, depth=0.5, seed=2)
    # The lowest node sits 114 nodes away from the true minimum, which is
    # 3.7e-3 lower: a polish next to the lowest node alone misses it.
    @example(modes=20, decay=0.0, depth=0.9, seed=72)
    def test_min_slope_against_refined_scan(self, modes, decay, depth, seed):
        rng = np.random.default_rng(seed)
        k = np.arange(1.0, modes + 1.0)
        a, b = rng.standard_normal((2, modes)) / k ** (1.0 + decay)
        peak = np.max(np.abs(trig_eval_uniform(a, b, 32 * max(modes, 32), 1)))
        a, b = a * depth / peak, b * depth / peak
        d = CircleDiffeo(0.0, a, b)
        n = 1 << (8 * max(modes, 32) - 1).bit_length()
        assert d.min_slope <= 1.0 + np.min(trig_eval_uniform(a, b, n, 1))
        refined = 1.0 + np.min(trig_eval_uniform(a, b, 64 * n, 1))
        assert d.min_slope <= refined + 1e-12
        # The refined scan sits above the true minimum by at most
        # sup|phi'''| (h/2)^2 / 2 for its node spacing h.
        gap = 0.5 * (k**3 @ (np.abs(a) + np.abs(b))) * (np.pi / (64 * n)) ** 2
        assert d.min_slope >= refined - gap - 1e-12

    def test_constant_slope_needs_no_polish(self):
        assert CircleDiffeo(0.3, (0.0, 0.0), (0.0,)).min_slope == 1.0


class TestSlopePolishNoise:
    """The polish stops where ``phi''`` is below its rounding bound."""

    @pytest.mark.parametrize(
        "m",
        [
            MobiusElement.scaling(2.0),
            # Without the stop its two solves took 8 and 28 iterations.
            MobiusElement.rotation(2.486105)
            .compose(MobiusElement.scaling(2.0))
            .compose(MobiusElement.rotation(-0.7)),
        ],
    )
    def test_line_lift_minima_take_few_iterations(self, m, monkeypatch):
        # On the 2446-mode LINE s = 2 lift, phi'' near both minima of phi' is
        # rounding noise of about 5e-12 while phi''' is 0.037: bisecting on
        # its sign took 8 iterations at 3 pi / 2 where the other took 2.
        solves = []
        solve = circle.solve_bracketed

        def counting(fdf, lo, *args):
            calls = []

            def counted(x):
                calls.append(x)
                return fdf(x)

            root = solve(counted, lo, *args)
            solves.append((len(lo), len(calls)))
            return root

        monkeypatch.setattr(circle, "solve_bracketed", counting)
        d = mobius_lift(m, LINE)
        assert d.modes == 2446
        # The constructor certifies this lift from its node scan; the first
        # read of min_slope runs the polish: one solve of both minima.
        d.min_slope
        ((brackets, calls),) = solves
        assert brackets == 2
        assert calls <= 4
        # The bounds of TestSlopePolish, unchanged.
        a, b = d.cos, d.sin
        k = np.arange(1.0, d.modes + 1.0)
        n = 1 << (8 * d.modes - 1).bit_length()
        assert d.min_slope <= 1.0 + np.min(trig_eval_uniform(a, b, n, 1))
        refined = 1.0 + np.min(trig_eval_uniform(a, b, 64 * n, 1))
        assert d.min_slope <= refined + 1e-12
        gap = 0.5 * (k**3 @ (np.abs(a) + np.abs(b))) * (np.pi / (64 * n)) ** 2
        assert d.min_slope >= refined - gap - 1e-12


def counting_solves(monkeypatch) -> list:
    """The brackets of every ``solve_bracketed`` call made in ``circle``: the
    slope polish and the second stage of ``inverse``."""
    brackets = []
    solve = circle.solve_bracketed

    def counting(fdf, lo, hi, *args):
        brackets.append((lo, hi))
        return solve(fdf, lo, hi, *args)

    monkeypatch.setattr(circle, "solve_bracketed", counting)
    return brackets


class TestSlopeCertificate:
    """The constructor skips the polish when its node scan certifies the
    slope, and accepts or rejects every lift as the polished minimum does."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_diffeo(np.random.default_rng(3)),
            lambda: mobius_lift(MobiusElement.scaling(2.0), LINE),
        ],
        ids=["random_diffeo", "line_lift"],
    )
    def test_far_from_floor_polishes_on_first_read(self, build, monkeypatch):
        brackets = counting_solves(monkeypatch)
        d = build()
        assert brackets == []
        first = d.min_slope
        polished = len(brackets)
        assert polished >= 1
        # The second read is the cached float; it polishes nothing.
        assert d.min_slope is first
        assert len(brackets) == polished
        assert first == circle._slope_floor(d.series, circle._slope_scan(d.series))

    def test_one_mode_certificate_boundary(self, monkeypatch):
        # theta + b sin(theta) on 256 nodes: node minimum 1 - b, reach about
        # 7.6e-5 b, so the scan certifies b = 0.9999 and not b = 0.99995,
        # which the polish accepts at 5e-5.
        brackets = counting_solves(monkeypatch)
        CircleDiffeo(0.0, (), (0.9999,))
        assert brackets == []
        d = CircleDiffeo(0.0, (), (0.99995,))
        assert len(brackets) == 1
        assert abs(d.min_slope - 5e-5) < 1e-12
        assert len(brackets) == 1

    def test_mode_sum_certifies_without_a_third_derivative_scan(self, monkeypatch):
        # sum k^3 (|a_k| + |b_k|) bounds sup|phi'''|: every lift is built
        # from the scan of phi' alone, and one the bound cannot certify is
        # polished once. Each random_diffeo also scans the phi' of its raw
        # draw once before it builds the lift.
        brackets = counting_solves(monkeypatch)
        orders = []
        scan = circle.trig_eval_uniform

        def counting(cos_c, sin_c, n, order=0, offset=0.0):
            orders.append(order)
            return scan(cos_c, sin_c, n, order, offset)

        monkeypatch.setattr(circle, "trig_eval_uniform", counting)
        rng = np.random.default_rng(9)
        for _ in range(40):
            random_diffeo(rng, max_degree=int(rng.integers(2, 21)))
        mobius_lift(MobiusElement.scaling(2.0), LINE)
        assert orders == [1] * 81
        assert brackets == []
        del orders[:]
        CircleDiffeo(0.0, (), (0.99995,))
        assert orders == [1]
        assert len(brackets) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bernstein_band_is_decided_by_one_polish(self, seed, monkeypatch):
        # A k^-3 spectrum of 40 modes: Bernstein's inequality bounds
        # sup|phi'''| by its node maximum over 1 - pi M / n, well below the
        # mode sum. phi' = 1 + t g scales the node minimum to 1 - t (1 - lo)
        # and both reaches by t. The first scaling puts the floor midway
        # between the two certificates' lower bounds, which only Bernstein's
        # clears; the second puts the polished minimum 1e-9 below the floor.
        rng = np.random.default_rng(seed)
        k = np.arange(1.0, 41.0)
        a, b = rng.standard_normal((2, 40)) / k**3
        n, _, lo, reach = circle._slope_scan(TrigSeries(0.0, a, b))
        sup3 = np.max(np.abs(trig_eval_uniform(a, b, n, 3))) / (1.0 - np.pi * 40 / n)
        bernstein = 0.5 * sup3 * (np.pi / n) ** 2
        assert bernstein < 0.5 * reach
        brackets = counting_solves(monkeypatch)
        t = (1.0 - MIN_SLOPE) / (1.0 - lo + 0.5 * (reach + bernstein))
        series = TrigSeries(0.0, t * a, t * b)
        _, _, node, band = scan = circle._slope_scan(series)
        assert node - band < MIN_SLOPE < node - t * bernstein - 1e-9
        eager = circle._slope_floor(series, scan)
        del brackets[:]
        d = CircleDiffeo(0.0, t * a, t * b)
        assert len(brackets) == 1
        assert d.min_slope == eager >= MIN_SLOPE
        t *= (1.0 - MIN_SLOPE + 1e-9) / (1.0 - eager)
        series = TrigSeries(0.0, t * a, t * b)
        scan = circle._slope_scan(series)
        eager = circle._slope_floor(series, scan)
        assert MIN_SLOPE - 2e-9 < eager < MIN_SLOPE <= scan[2]
        del brackets[:]
        with pytest.raises(ValueError, match="slope"):
            CircleDiffeo(0.0, t * a, t * b)
        assert len(brackets) == 1

    @settings(max_examples=60)
    @given(
        modes=st.integers(min_value=1, max_value=2446),
        decay=st.floats(min_value=0.0, max_value=2.0),
        regime=st.sampled_from(["node", "certificate", "inside"]),
        offset=st.floats(min_value=-1.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(modes=2446, decay=0.0, regime="node", offset=0.0, seed=1)
    @example(modes=2446, decay=0.0, regime="certificate", offset=0.0, seed=1)
    @example(modes=1, decay=0.0, regime="certificate", offset=-0.5, seed=2)
    def test_decides_as_the_polish(self, modes, decay, regime, offset, seed):
        # phi' = 1 + t g scales the node minimum to 1 - t (1 - lo) and the
        # reach to t reach. "node" puts the node minimum, "certificate" the
        # node minimum less the reach, within 1e-5 of MIN_SLOPE; "inside"
        # puts the node minimum between 0.01 and 0.89.
        rng = np.random.default_rng(seed)
        k = np.arange(1.0, modes + 1.0)
        a, b = rng.standard_normal((2, modes)) / k ** (1.0 + decay)
        _, _, lo, reach = circle._slope_scan(TrigSeries(0.0, a, b))
        target = MIN_SLOPE + 1e-5 * offset
        if regime == "node":
            t = (1.0 - target) / (1.0 - lo)
        elif regime == "certificate":
            t = (1.0 - target) / (1.0 - lo + reach)
        else:
            t = (0.55 - 0.44 * offset) / (1.0 - lo)
        a, b = t * a, t * b
        series = TrigSeries(0.0, a, b)
        eager = circle._slope_floor(series, circle._slope_scan(series))
        if eager < MIN_SLOPE:
            with pytest.raises(ValueError, match="slope"):
                CircleDiffeo(0.0, a, b)
        else:
            d = CircleDiffeo(0.0, a, b)
            assert d.min_slope == eager
            assert d.min_slope >= MIN_SLOPE


class TestProjectionSampling:
    """``_project_periodic`` samples each node once: one call on
    ``circle_grid(2 k0)``, then one call on the half-step nodes of each
    further resolution, and the fit at ``K`` is that of the values sampled
    on ``circle_grid(K)``."""

    @staticmethod
    def _recorded(fn):
        calls = []

        def wrapped(theta):
            values = fn(theta)
            calls.append((np.array(theta), np.array(values)))
            return values

        return wrapped, calls

    @given(
        r=st.floats(min_value=0.0, max_value=0.9),
        psi=st.floats(min_value=-np.pi, max_value=np.pi),
        k0=st.integers(min_value=1, max_value=1000),
    )
    @example(r=0.9, psi=0.3, k0=16)
    @example(r=0.0, psi=0.0, k0=64)
    def test_fit_comes_from_one_call_on_its_grid(self, r, psi, k0):
        # log|1 - r e^(i(theta - psi))|^2 has the spectrum -2 r^n / n, so a
        # larger r needs more doublings from a small start. The last term
        # depends on the size of the call, as the values of inverse (Newton
        # until the worst node converges) and flow (Picard sweeps until the
        # whole call settles) depend on the nodes sampled together, so the
        # fit must be read from the values each node's own call returned.
        def target(theta):
            smooth = np.log1p(r * r - 2.0 * r * np.cos(theta - psi)) + 0.2 * np.sin(3.0 * theta)
            return smooth + 1e-15 * theta.size * np.cos(theta)

        fn, calls = self._recorded(target)
        mean, a, b = _project_periodic(fn, k0)
        theta = np.concatenate([t for t, _ in calls])
        values = np.concatenate([v for _, v in calls])
        # Every node once, and together the calls sampled circle_grid(2 K).
        order = np.argsort(theta)
        assert np.array_equal(theta[order], circle_grid(theta.size))
        big = theta.size // 2
        start = calls[0][0].size // 2
        assert [t.size for t, _ in calls] == [2 * start] + [2 * start * 2**i for i in range(len(calls) - 1)]
        assert max(t.size for t, _ in calls) <= max(2 * start, big)
        # The fit at K is that of the values on circle_grid(K), the even nodes.
        c = np.fft.rfft(values[order][0::2]) / big
        m = a.size
        assert mean == c[0].real
        assert np.array_equal(a, 2.0 * c[1 : m + 1].real)
        assert np.array_equal(b, -2.0 * c[1 : m + 1].imag)

    def test_two_level_path_samples_each_angle_once(self):
        # Mode 25 of a 64-node fit lies in its top third, so the level that
        # passes is not at the floor and takes one safety doubling.
        fn, calls = self._recorded(lambda t: np.sin(3.0 * t) + 0.5 * np.cos(t) + 1e-9 * np.sin(25.0 * t))
        _, a, b = _project_periodic(fn, 64)
        # One call holds the 64-grid and its probe (the grid at 128); one probes 128.
        assert [t.size for t, _ in calls] == [128, 128]
        assert np.array_equal(np.sort(np.concatenate([t for t, _ in calls])), circle_grid(256))
        assert abs(b[2] - 1.0) < 1e-15 and abs(a[0] - 0.5) < 1e-15 and abs(b[24] - 1e-9) < 1e-15

    def test_floor_level_returns_from_the_first_call(self):
        fn, calls = self._recorded(lambda t: np.sin(3.0 * t) + 0.5 * np.cos(t))
        _, a, b = _project_periodic(fn, 64)
        assert [t.size for t, _ in calls] == [128]
        assert a.size == b.size == 3
        assert abs(b[2] - 1.0) < 1e-15 and abs(a[0] - 0.5) < 1e-15

    @pytest.mark.parametrize("k0", [32, 64, 200])
    @pytest.mark.parametrize(
        "amp, mode",
        # Past k0 / 2 a mode aliases on the k0-grid: into its top third up
        # to about 5 k0 / 6, below it from there on.
        [(1e-10, lambda k0: k0 // 2 + 3), (1e-12, lambda k0: k0 - 5)],
        ids=["aliased-into-the-top-third", "aliased-below-the-top-third"],
    )
    def test_content_above_the_floor_takes_the_doubling(self, k0, amp, mode):
        # Either target passes the spectrum test at k0, and the half-step
        # probe sees the alias at about twice its amplitude: above the
        # residual tolerance at 1e-10, and at 1e-12 between that tolerance
        # and the floor bound, with the kept band inside the lower two
        # thirds. Returning at k0 would keep the mode at its alias.
        n = mode(k0)

        def target(t):
            return np.sin(t) + amp * np.cos(n * t)

        fn, calls = self._recorded(target)
        mean, a, b = _project_periodic(fn, k0)
        assert [t.size for t, _ in calls] == [2 * k0, 2 * k0]
        theta = np.random.default_rng(k0).uniform(0.0, TWO_PI, 64)
        assert np.max(np.abs(mean + TrigSeries(0.0, a, b).at(theta) - target(theta))) < 1e-14
        assert abs(a[n - 1] - amp) < 1e-15

    def test_state_rows_come_back_at_the_new_nodes(self):
        # A target that returns state rows gets, from its second call on,
        # the trigonometric interpolant of its rows on the current grid at
        # the half-step nodes; its first call gets none, and no call's nodes
        # were sampled before.
        priors = []

        def rows(theta):
            return np.stack((np.cos(theta), 0.3 * np.sin(3.0 * theta)))

        def target(theta, prior=None):
            priors.append((theta, prior, rows(theta)))
            return np.log1p(0.81 - 1.8 * np.cos(theta)), priors[-1][2]

        _project_periodic(target, 16)
        assert len(priors) >= 3 and priors[0][1] is None
        for i, (theta, prior, _) in enumerate(priors[1:], start=1):
            seen = np.concatenate([t for t, _, _ in priors[:i]])
            assert not np.isin(theta, seen).any()
            order = np.argsort(seen)
            held = np.concatenate([r for _, _, r in priors[:i]], axis=1)[:, order]
            assert np.array_equal(prior, circle._half_step(held))
            assert np.max(np.abs(prior - rows(theta))) < 1e-14

    def test_half_step_keeps_the_phase_formula_bits(self):
        rng = np.random.default_rng(6)
        for k in (16, 64, 132, 4096):
            rows = rng.standard_normal((3, k))
            spec = np.fft.rfft(rows)
            spec[..., -1] = 0.0
            spec *= np.exp(1j * np.pi / k * np.arange(k // 2 + 1))
            assert np.array_equal(circle._half_step(rows), np.fft.irfft(spec, k))

    def test_compose_samples_each_node_once(self, wobble, two_mode):
        # The composition is resolved at the floor on its first level: one
        # evaluation of inner, on 2 k0 nodes.
        sizes = []

        class Recording(CircleDiffeo):
            __slots__ = ()

            def eval(self, theta):
                sizes.append(np.size(theta))
                return CircleDiffeo.eval(self, theta)

        inner = Recording(two_mode.shift, two_mode.cos, two_mode.sin)
        c = compose(wobble, inner)
        k0 = 4 * (wobble.modes + inner.modes + 8)
        assert sizes == [2 * k0]
        theta = np.random.default_rng(3).uniform(0.0, TWO_PI, 64)
        assert np.max(np.abs(c.eval(theta) - wobble.eval(two_mode.eval(theta)))) < 1e-14


class TestProjectionCap:
    def test_start_above_cap_raises_before_sampling(self):
        calls = []

        def fn(theta):
            calls.append(theta.size)
            return np.zeros_like(theta)

        with pytest.raises(ArithmeticError, match="cap"):
            _project_periodic(fn, 20000)
        assert calls == []

    def test_start_at_cap_samples_once(self):
        calls = []

        def fn(theta):
            calls.append(theta.size)
            return np.sin(theta)

        _, _, b = _project_periodic(fn, _PROJECT_CAP)
        assert calls == [_PROJECT_CAP, _PROJECT_CAP]
        assert abs(b[0] - 1.0) < 1e-12


class TestComposeInverse:
    def test_identity_is_neutral(self, two_mode):
        left = compose(CircleDiffeo.identity(), two_mode)
        right = compose(two_mode, CircleDiffeo.identity())
        assert sup_gap(left.eval, two_mode.eval) < 1e-12
        assert sup_gap(right.eval, two_mode.eval) < 1e-12

    def test_rotations_add(self):
        r = compose(CircleDiffeo.rotation(0.4), CircleDiffeo.rotation(-1.1))
        assert abs(r.shift + 0.7) < 1e-12
        assert r.modes == 0

    def test_round_trip_through_inverse(self, two_mode):
        ident = compose(two_mode, inverse(two_mode))
        assert sup_gap(ident.eval, lambda t: t) < 1e-9
        ident2 = compose(inverse(two_mode), two_mode)
        assert sup_gap(ident2.eval, lambda t: t) < 1e-9

    def test_inverse_of_rotation(self):
        inv = inverse(CircleDiffeo.rotation(0.8))
        assert abs(inv.shift + 0.8) < 1e-12
        assert inv.modes == 0

    def test_associativity(self, rng):
        d1 = random_diffeo(rng)
        d2 = random_diffeo(rng)
        d3 = random_diffeo(rng)
        left = compose(compose(d1, d2), d3)
        right = compose(d1, compose(d2, d3))
        assert sup_gap(left.eval, right.eval) < 1e-8

    def test_chain_rule(self, wobble, two_mode):
        c = compose(wobble, two_mode)
        theta = np.linspace(0.1, 6.1, 25)
        expect = wobble.derivative(two_mode.eval(theta), 1) * two_mode.derivative(theta, 1)
        assert np.max(np.abs(c.derivative(theta, 1) - expect)) < 1e-9

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    # Draws on which the clipped Newton iteration 2-cycles.
    @example(140)
    @example(437)
    def test_random_round_trip(self, seed):
        d = random_diffeo(np.random.default_rng(seed))
        assert sup_gap(compose(d, inverse(d)).eval, lambda t: t) < 1e-9

    @pytest.mark.parametrize("seed", range(60))
    def test_inverse_then_compose_is_the_identity(self, seed):
        # The fit's floor reads the periodic part, so the inverse keeps the
        # modes that cancel d's and the composition drops its residue.
        d = random_diffeo(np.random.default_rng(seed))
        ident = compose(d, inverse(d))
        assert ident.modes == 0
        assert sup_gap(ident.eval, lambda t: t) < 4.0 * np.spacing(TWO_PI)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=-np.pi, max_value=np.pi))
    def test_rotation_keeps_the_modes(self, seed, angle):
        # 2-40 modes of amplitude n^-2.5, far above the rounding floor, so a
        # mode more would be noise the floor admitted.
        rng = np.random.default_rng(seed)
        n = np.arange(1.0, rng.integers(2, 41) + 1.0)
        a, b = rng.standard_normal((2, n.size)) / n**2.5
        lo = 1.0 + float(np.min(trig_eval_uniform(a, b, 4096, 1)))
        if lo < 0.2:
            a, b = (0.8 / (1.0 - lo)) * np.array([a, b])
        d = CircleDiffeo(float(rng.uniform(-np.pi, np.pi)), a, b)
        r = CircleDiffeo.rotation(angle)
        assert compose(d, r).modes == d.modes == compose(r, d).modes


class TestInverseStages:
    @pytest.mark.parametrize("seed", [140, 437])
    def test_two_cycle_draws_reach_the_bracketed_stage(self, seed, monkeypatch):
        # The @example draws of test_random_round_trip are there for the
        # bracketed second stage; they must still need it.
        d = random_diffeo(np.random.default_rng(seed))
        brackets = counting_solves(monkeypatch)
        inv = inverse(d)
        monkeypatch.undo()
        # Its brackets are [t - shift - reach, t - shift + reach].
        reach = np.sum(np.abs(d.cos) + np.abs(d.sin))
        assert any(np.allclose(hi - lo, 2.0 * reach) for lo, hi in brackets)
        assert sup_gap(compose(d, inv).eval, lambda t: t) < 1e-9


class TestSupDerivative:
    @pytest.mark.parametrize("modes", [1, 2, 3, 7, 8, 40, 256, 2048, 3000])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("const", [0.0, 0.7])
    def test_matches_the_scattered_kernel_on_the_grid(self, modes, order, const):
        # The grid is 4096 nodes below 2048 modes and the next power of two
        # above 2 M + 1 from there up. The decay keeps every mode's share of
        # the derivative comparable.
        rng = np.random.default_rng(modes + 10 * order)
        decay = 1.0 / np.arange(1.0, modes + 1.0) ** (order + 1)
        xi = VectorFieldS1(const, decay * rng.standard_normal(modes), decay * rng.standard_normal(modes))
        theta = circle_grid(max(4096, 1 << (2 * modes + 1).bit_length()))
        ref = float(np.max(np.abs(xi.eval(theta) if order == 0 else xi.derivative(theta, order))))
        assert abs(xi.sup_derivative(order) - ref) <= 1e-13 * (1.0 + ref)

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError, match="order"):
            VectorFieldS1(0.0, (1.0,)).sup_derivative(4)

    def test_top_mode_at_half_the_old_grid_is_seen(self):
        # cos 2048 theta sits on the Nyquist bin of 4096 nodes, where its
        # odd derivatives vanish at every node; the stiffness guard of
        # flow must still see max|xi'| = 2048.
        xi = VectorFieldS1(0.0, np.eye(2048)[-1])
        assert xi.sup_derivative(1) == 2048.0
        with pytest.raises(ValueError, match="flow time too long"):
            flow(xi, 3e-3)


class CountingField(VectorFieldS1):
    """A vector field that records the number of angles of each evaluation."""

    def __init__(self, xi):
        super().__init__(xi.const, xi.cos, xi.sin)
        self.sizes = []

    def eval(self, theta):
        self.sizes.append(np.size(theta))
        return super().eval(theta)


def field_with_slope(rng, modes: int, slope: float) -> VectorFieldS1:
    """Random field with ``modes`` modes rescaled to ``max|xi'| = slope``."""
    decay = 0.5 ** np.arange(modes)
    a, b = decay * rng.standard_normal(modes), decay * rng.standard_normal(modes)
    k = slope / VectorFieldS1(0.0, a, b).sup_derivative(1)
    return VectorFieldS1(float(rng.uniform(-1.0, 1.0)), k * a, k * b)


def dop853(xi, s, theta):
    """The flow of ``xi`` at ``theta`` by scipy's 8th-order integrator."""
    return solve_ivp(
        lambda t, y: xi.eval(y), (0.0, s), theta, method="DOP853", rtol=2.3e-14, atol=1e-15
    ).y[:, -1]


def assert_matches_dop853(seed, modes, s):
    rng = np.random.default_rng(seed)
    xi = field_with_slope(rng, modes, 1.0)
    theta = rng.uniform(0.0, TWO_PI, 8)
    assert np.max(np.abs(flow(xi, s).eval(theta) - dop853(xi, s, theta))) < 1e-11


def variational_dop853(xi, s, theta):
    """``phi``, ``phi'``, ``phi''`` and ``phi'''`` of the flow of ``xi`` at
    ``theta``: scipy's 8th-order integrator on the variational system
    ``phi_s = xi(phi)``, ``phi'_s = xi'(phi) phi'``, ``phi''_s = xi''(phi)
    phi'^2 + xi'(phi) phi''``, ``phi'''_s = xi'''(phi) phi'^3 + 3 xi''(phi)
    phi' phi'' + xi'(phi) phi'''``."""
    n = theta.size

    def rhs(t, y):
        phi, p1, p2, p3 = y.reshape(4, n)
        x0, x1, x2, x3 = xi.series.jet(phi, (0, 1, 2, 3))
        return np.concatenate((x0, x1 * p1, x2 * p1**2 + x1 * p2, x3 * p1**3 + 3.0 * x2 * p1 * p2 + x1 * p3))

    y0 = np.concatenate((theta, np.ones(n), np.zeros(2 * n)))
    return solve_ivp(rhs, (0.0, s), y0, method="DOP853", rtol=1e-13, atol=1e-15).y[:, -1].reshape(4, n)


def drifting_field(const):
    """A field whose constant term carries the angles past its modes many
    times over in unit time."""
    return VectorFieldS1(const, (0.5,), (0.7,))


class TestFlow:
    def test_zero_time_is_identity(self):
        xi = VectorFieldS1(0.3, (0.1,), (0.2,))
        f = flow(xi, 0.0)
        assert sup_gap(f.eval, lambda t: t) < 1e-12

    def test_constant_field_rotates(self):
        f = flow(VectorFieldS1(1.0), 0.7)
        assert abs(f.shift - 0.7) < 1e-10
        assert f.modes == 0 or max(np.max(np.abs(f.cos)), np.max(np.abs(f.sin))) < 1e-12

    def test_sine_field_closed_form(self):
        # d theta/ds = sin theta integrates to tan(theta/2) = e^s tan(theta0/2).
        f = flow(VectorFieldS1(0.0, (), (1.0,)), 0.35)
        theta0 = np.array([0.4, 1.1, 2.0, 3.0, 4.5, 5.9])
        lhs = np.tan(f.eval(theta0) / 2.0)
        rhs = np.exp(0.35) * np.tan(theta0 / 2.0)
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-10

    def test_semigroup(self, rng):
        xi = random_vector_field(rng)
        a = flow(xi, 0.12)
        b = flow(xi, 0.3)
        both = flow(xi, 0.42)
        assert sup_gap(compose(a, b).eval, both.eval) < 1e-8

    def test_reverse_time_inverts(self, rng):
        xi = random_vector_field(rng)
        fwd = flow(xi, 0.25)
        back = flow(xi, -0.25)
        assert sup_gap(compose(fwd, back).eval, lambda t: t) < 1e-9

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.05, max_value=4.9),
        st.sampled_from((-1.0, 1.0)),
    )
    # Next to the stiffness guard.
    @example(3, 4, 4.9, -1.0)
    def test_matches_dop853(self, seed, modes, size, sign):
        assert_matches_dop853(seed, modes, sign * size)

    @pytest.mark.parametrize("size", [1.0, -1.5, 3.0])
    def test_long_flows_match_dop853(self, rng, size):
        # |s| max|xi'| = |size|: two, three and six segments.
        for modes in (1, 2, 4):
            xi = field_with_slope(rng, modes, 1.0)
            theta = rng.uniform(0.0, TWO_PI, 8)
            assert np.max(np.abs(flow(xi, size).eval(theta) - dop853(xi, size, theta))) < 1e-11

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=8, max_value=40),
        st.floats(min_value=0.05, max_value=1.5),
        st.sampled_from((-1.0, 1.0)),
    )
    def test_matches_dop853_many_modes(self, seed, modes, size, sign):
        # From TRIG_TABLE_MIN_MODES modes up the field sums baby steps.
        assert_matches_dop853(seed, modes, sign * size)

    @pytest.mark.parametrize("const", [30.0, 300.0])
    def test_drifting_field_matches_dop853(self, const):
        # max|xi'| is below 1, so the flow starts on two segments; the field
        # seen along a trajectory oscillates up to const / (2 pi) times, and
        # only the resolution check doubles the segments until it is resolved.
        xi = drifting_field(const)
        theta = np.random.default_rng(0).uniform(0.0, TWO_PI, 8)
        ref = dop853(xi, 1.0, theta)
        got = flow(xi, 1.0).eval(theta)
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-11

    # Bounds about 10x the worst of the committed draws: 1.9e-10 at 0.3 and
    # 3.3e-8 at 2.0.
    @pytest.mark.parametrize("reach, bound", [(0.3, 2e-9), (2.0, 3e-7)])
    def test_schwarzian_matches_the_variational_reference(self, reach, bound):
        # The paper's objects are Schwarzians, so phi''' is the accuracy that
        # counts: 8 fields, flown by |s| max|xi'| = reach in alternating
        # directions, against the variational system at 16 angles.
        rng = np.random.default_rng(0)
        worst = 0.0
        for i in range(8):
            xi = random_vector_field(rng, 8)
            theta = rng.uniform(0.0, TWO_PI, 16)
            s = (-1.0) ** i * reach / xi.sup_derivative(1)
            _, p1, p2, p3 = variational_dop853(xi, s, theta)
            ref = p3 / p1 - 1.5 * (p2 / p1) ** 2
            q1, q2, q3 = flow(xi, s).derivatives(theta, (1, 2, 3))
            got = q3 / q1 - 1.5 * (q2 / q1) ** 2
            worst = max(worst, np.max(np.abs(got - ref)) / (1.0 + np.max(np.abs(ref))))
        assert worst <= bound

    def test_segment_limit_raises_quickly(self, monkeypatch):
        # const 300 needs 64 segments.
        monkeypatch.setattr(circle, "_FLOW_MAX_SEGMENTS", 8)
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="segments"):
            flow(drifting_field(300.0), 1.0)
        assert time.perf_counter() - start < 1.0

    def test_wide_field_evaluations_stay_under_the_cap(self):
        # 256 modes: the re-projection calls take 2 * 4 (256 + 8) nodes and
        # more, so a sweep's 21 time rows go to the field in blocks.
        xi = CountingField(field_with_slope(np.random.default_rng(3), 256, 1.0))
        xi.eval(np.zeros(3))  # builds the kernel coefficients outside the trace
        got, peak_mb = traced_peak_mb(flow, xi, 1e-3)
        assert max(xi.sizes) <= _PROJECT_CAP
        # 4.3 MB traced; one sweep evaluated whole would take 47.6 MB.
        assert peak_mb < 6.0
        theta = np.random.default_rng(4).uniform(0.0, TWO_PI, 8)
        assert np.max(np.abs(got.eval(theta) - dop853(xi, 1e-3, theta))) < 1e-11


def target_calls(monkeypatch) -> list:
    """``(kernel calls, output, prior)`` of every call of a re-projection
    target in ``circle``; the kernel calls count ``TrigSeries.jet``."""
    jets = counting_kernel(monkeypatch)
    calls = []
    project = circle._project_periodic

    def recording(fn, k0):
        def target(theta, prior=None):
            start = len(jets)
            out = fn(theta) if prior is None else fn(theta, prior)
            calls.append((len(jets) - start, out, prior))
            return out

        return project(target, k0)

    monkeypatch.setattr(circle, "_project_periodic", recording)
    return calls


class TestWarmStart:
    """Each call of ``inverse``'s and ``flow``'s targets after the first
    starts from the solution the earlier calls hold."""

    @pytest.mark.parametrize("s", [0.3, -0.3])
    def test_second_flow_call_takes_few_sweeps(self, s, monkeypatch):
        rng = np.random.default_rng(11)
        xi = field_with_slope(rng, 3, 1.5)
        theta = rng.uniform(0.0, TWO_PI, 8)
        calls = target_calls(monkeypatch)
        got = flow(xi, s)
        monkeypatch.undo()
        # |s| max|xi'| = 0.45 takes one segment, and a call on 128 nodes
        # evaluates its time rows in one block: one kernel call a sweep.
        # The cold first call takes its Taylor jet and about 10 sweeps.
        assert len(calls) >= 2 and calls[1][0] <= 2
        assert np.max(np.abs(got.eval(theta) - dop853(xi, s, theta))) < 1e-11

    def test_inverse_from_a_resolved_level_takes_few_newton_steps(self, monkeypatch):
        # One kernel call on the lift per Newton step. A start within the
        # residual tolerance of the solution is the interpolant of a level
        # that passed its residual test at these nodes.
        for seed in (*range(12), 140, 437):
            d = random_diffeo(np.random.default_rng(seed))
            calls = target_calls(monkeypatch)
            inv = inverse(d)
            monkeypatch.undo()
            steps = [
                n
                for n, (u, _), prior in calls
                if prior is not None
                and np.max(np.abs(u - prior)) <= _RESIDUAL_TOL * max(1.0, np.max(np.abs(u)))
            ]
            assert steps and max(steps) <= 3, seed
            assert sup_gap(compose(d, inv).eval, lambda t: t) < 1e-9

    def test_repeated_calls_are_bit_identical(self, rng):
        d, xi = random_diffeo(rng), random_vector_field(rng)
        first = inverse(d), flow(xi, 0.3)
        flow(random_vector_field(rng), -0.2)
        inverse(random_diffeo(rng))
        again = inverse(d), flow(xi, 0.3)
        for a, b in zip(first, again):
            assert a.shift == b.shift
            assert np.array_equal(a.cos, b.cos) and np.array_equal(a.sin, b.sin)


class TestFlowColdStart:
    """The first call of ``flow``'s target starts from a Taylor polynomial
    at a time degree sized to the segment."""

    @pytest.mark.parametrize("modes", [1, 3, 8, 40])
    def test_short_step_takes_two_sweeps(self, modes, monkeypatch):
        xi = field_with_slope(np.random.default_rng(modes), modes, 1.0)
        calls = target_calls(monkeypatch)
        flow(xi, 1e-3)
        monkeypatch.undo()
        # Up to 40 modes a sweep's time rows go to the field in one block:
        # the call is one Taylor jet and one kernel call per sweep. From the
        # constant start it took 4 to 5 sweeps.
        assert calls[0][0] <= 3

    # Kernel angles of the same flows, sup_derivative's included, as the
    # parent of the Taylor start (commit 196fd8b) counted them.
    @pytest.mark.parametrize(
        "modes, size, before",
        [(1, 1e-3, 20224), (3, 0.45, 41728), (40, 0.45, 116992), (256, 1e-3, 536320), (256, 0.45, 1733824)],
    )
    def test_kernel_angles_at_most_the_constant_start(self, modes, size, before, monkeypatch):
        xi = field_with_slope(np.random.default_rng(0), modes, 1.0)
        sizes = counting_kernel(monkeypatch)
        flow(xi, size)
        assert sum(sizes) <= before

    @pytest.mark.parametrize("forced", [False, True])
    def test_missed_degree_retries_at_full_degree_before_more_segments(self, forced, monkeypatch):
        # Unforced, this field's Taylor terms size the degree at 16, which
        # misses the resolution test; forced, the sizing returns degree 4.
        xi = field_with_slope(np.random.default_rng(1), 16, 1.0)
        sized = []
        size_degree = circle._flow_degree

        def spy(*args):
            sized.append(4 if forced else size_degree(*args))
            return sized[-1]

        monkeypatch.setattr(circle, "_flow_degree", spy)
        calls = target_calls(monkeypatch)
        got = flow(xi, -0.45)
        monkeypatch.undo()
        # One segment throughout: the cold call kept it at full degree. The
        # rows are (segments, degree + 1, nodes).
        assert sized[0] < circle._FLOW_DEGREE
        assert calls[0][1][1].shape[:2] == (1, circle._FLOW_DEGREE + 1)
        theta = np.random.default_rng(2).uniform(0.0, TWO_PI, 8)
        assert np.max(np.abs(got.eval(theta) - dop853(xi, -0.45, theta))) < 1e-11

    def test_missed_degree_retries_every_segment_at_full_degree(self, monkeypatch):
        # |s| max|xi'| = 1.2 takes three segments; the sizing returns degree
        # 4, which misses on the first segment, and the whole call is
        # retried cold at full degree without sizing again.
        xi = field_with_slope(np.random.default_rng(3), 4, 1.0)
        sized = []

        def spy(*args):
            sized.append(4)
            return 4

        monkeypatch.setattr(circle, "_flow_degree", spy)
        calls = target_calls(monkeypatch)
        got = flow(xi, 1.2)
        monkeypatch.undo()
        y, rows = calls[0][1]
        assert rows.shape == (3, circle._FLOW_DEGREE + 1, y.size)
        assert len(sized) == 1
        theta = np.random.default_rng(4).uniform(0.0, TWO_PI, 8)
        assert np.max(np.abs(got.eval(theta) - dop853(xi, 1.2, theta))) < 1e-11


class TestStackedFlows:
    """Flows of one field at a pair of times ``+-s``, as ``d_alpha_check``
    takes them at ``s = 1e-3`` and ``5e-4``: one ``flow`` call each."""

    # |s| max|xi'| from the d_alpha_check step to several segments;
    # (1, 2.5) and (256, 1e-3) keep no warm rows (past _PROJECT_CAP values).
    @pytest.mark.parametrize(
        "modes, size",
        [(m, z) for m in (1, 3, 8, 20) for z in (1e-3, 0.05, 0.45, 1.5)] + [(1, 2.5), (40, 1e-3), (256, 1e-3)],
    )
    def test_pair_matches_solo_flows(self, modes, size):
        # Each member matches the trajectories of its nodes integrated one
        # by one, and the two undo each other.
        rng = np.random.default_rng(modes)
        xi = field_with_slope(rng, modes, 1.0)
        theta = rng.uniform(0.0, TWO_PI, 8)
        fwd, back = flow(xi, size), flow(xi, -size)
        assert np.max(np.abs(fwd.eval(theta) - dop853(xi, size, theta))) < 1e-11
        assert np.max(np.abs(back.eval(theta) - dop853(xi, -size, theta))) < 1e-11
        assert np.max(np.abs(fwd.eval(back.eval(theta)) - theta)) < 1e-11

    def test_zero_times_and_the_guard(self):
        xi = field_with_slope(np.random.default_rng(5), 3, 1.0)
        ident = flow(xi, 0.0)
        assert ident.shift == 0.0 and ident.modes == 0
        # max|xi'| = 1: the guard rejects |s| >= 5 before integrating.
        with pytest.raises(ValueError, match="too long"):
            flow(xi, 5.0)
        with pytest.raises(ValueError, match="too long"):
            flow(xi, -5.0)


class TestBracket:
    def test_rotation_with_sine(self):
        out = bracket(VectorFieldS1(1.0), VectorFieldS1(0.0, (), (1.0,)))
        assert sup_gap(out.eval, np.cos) < 1e-12

    def test_sine_with_cosine(self):
        out = bracket(VectorFieldS1(0.0, (), (1.0,)), VectorFieldS1(0.0, (1.0,), ()))
        assert sup_gap(out.eval, lambda t: -np.ones_like(t)) < 1e-12

    def test_antisymmetry(self, rng):
        x = random_vector_field(rng)
        y = random_vector_field(rng)
        lhs = bracket(x, y)
        rhs = bracket(y, x)
        assert sup_gap(lhs.eval, lambda t: -rhs.eval(t)) < 1e-11

    def test_jacobi(self, rng):
        x = random_vector_field(rng)
        y = random_vector_field(rng)
        z = random_vector_field(rng)
        terms = (
            bracket(x, bracket(y, z)),
            bracket(y, bracket(z, x)),
            bracket(z, bracket(x, y)),
        )
        total = lambda t: sum(term.eval(t) for term in terms)
        assert sup_gap(total, lambda t: np.zeros_like(t)) < 1e-9

    def test_commutator_of_flows(self, rng):
        # [X, Y] drives the second-order defect of the flow commutator.
        x = random_vector_field(rng, max_degree=2, amplitude=0.3)
        y = random_vector_field(rng, max_degree=2, amplitude=0.3)
        s = 1e-3
        loop = compose(
            compose(flow(x, s), flow(y, s)),
            compose(flow(x, -s), flow(y, -s)),
        )
        theta = np.linspace(0.2, 6.0, 9)
        measured = (loop.eval(theta) - theta) / s**2
        expect = bracket(y, x).eval(theta)
        assert np.max(np.abs(measured - expect)) < 5e-3


def gaussian_field(rng, modes):
    return VectorFieldS1(float(rng.standard_normal()), *rng.standard_normal((2, modes)))


def adaptive_bracket(x, y):
    """The bracket through the adaptive re-projection from its first
    resolution ``2 (m1 + m2 + 4)``: the reference of ``bracket``'s bits."""

    def fn(theta):
        return x.eval(theta) * y.derivative(theta) - y.eval(theta) * x.derivative(theta)

    return VectorFieldS1(*_project_periodic(fn, 2 * (x.modes + y.modes + 4)))


class TestBracketTransform:
    """``bracket`` is one exact transform: the bracket of fields of ``m1``
    and ``m2`` modes has degree at most ``m1 + m2``, and it is sampled on
    ``n = max(16, 2 (m1 + m2 + 4))`` nodes."""

    @pytest.mark.parametrize("m1, m2", [(0, 0), (1, 1), (3, 2), (8, 1), (20, 15), (40, 40)])
    def test_one_pass_and_no_adaptive_fit(self, m1, m2, monkeypatch):
        def forbidden(*args):
            raise AssertionError("bracket must not re-project adaptively")

        rng = np.random.default_rng(m1 + 100 * m2)
        x, y = gaussian_field(rng, m1), gaussian_field(rng, m2)
        monkeypatch.setattr(circle, "_project_periodic", forbidden)
        sizes = counting_kernel(monkeypatch)
        bracket(x, y)
        assert sizes == [max(16, 2 * (m1 + m2 + 4))]

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(40, 39, 0)
    def test_matches_the_pointwise_formula(self, m1, m2, seed):
        # Worst 3.5e-14 over 3000 draws of 1-40 modes each.
        rng = np.random.default_rng(seed)
        x, y = gaussian_field(rng, m1), gaussian_field(rng, m2)
        theta = rng.uniform(0.0, TWO_PI, 257)
        exact = x.eval(theta) * y.derivative(theta) - y.eval(theta) * x.derivative(theta)
        got = bracket(x, y).eval(theta)
        assert np.max(np.abs(got - exact)) <= 1e-13 * (1.0 + np.max(np.abs(exact)))

    @pytest.mark.parametrize("m1, m2", [(m1, m2) for m1 in range(8) for m2 in range(8 - m1)] + [(4, 4)])
    def test_bits_of_the_adaptive_first_level(self, m1, m2):
        # The adaptive fit returns at its first level, these nodes, when the
        # kept band ends below its trailing third: for m1 + m2 <= 5, and for
        # m1 = m2 <= 4, whose top mode cancels (so for every pair of default
        # random_vector_field draws). The others take its safety doubling,
        # and the two fits differ in their last bits.
        rng = np.random.default_rng(10 * m1 + m2)
        for _ in range(20):
            x, y = gaussian_field(rng, m1), gaussian_field(rng, m2)
            got, ref = bracket(x, y), adaptive_bracket(x, y)
            if m1 + m2 <= 5 or m1 == m2:
                assert got.const == ref.const
                assert np.array_equal(got.cos, ref.cos) and np.array_equal(got.sin, ref.sin)
            else:
                assert got.modes == ref.modes
                gap = np.abs(np.hstack([got.const - ref.const, got.cos - ref.cos, got.sin - ref.sin]))
                assert np.max(gap) <= 1e-14 * (1.0 + np.max(np.abs(ref.cos) + np.abs(ref.sin)))

    def test_refused_above_the_cap_before_any_pass(self, monkeypatch):
        half = _PROJECT_CAP // 4
        x, y = VectorFieldS1(0.0, np.ones(half)), VectorFieldS1(0.0, (), np.ones(half))
        sizes = counting_kernel(monkeypatch)
        with pytest.raises(ArithmeticError, match="above the cap"):
            bracket(x, y)
        assert sizes == []


class TestMobiusElement:
    def test_unit_determinant_normalization(self):
        m = MobiusElement(np.array([[2.0, 0.0], [0.0, 2.0]]))
        assert abs(np.linalg.det(m.matrix) - 1.0) < 1e-14

    def test_sign_canonicalized(self):
        m1 = MobiusElement(np.array([[1.0, 0.3], [0.2, 1.06]]))
        m2 = MobiusElement(-np.array([[1.0, 0.3], [0.2, 1.06]]))
        assert np.allclose(m1.matrix, m2.matrix)

    def test_entries_past_the_square_root_of_the_float_range(self):
        # The determinant is taken after an exact scaling by a power of two,
        # so it neither overflows nor underflows.
        for scale in (1e200, 1e-200):
            assert np.array_equal(MobiusElement([[scale, 0.0], [0.0, scale]]).matrix, np.eye(2))
        s = math.sqrt(0.5)
        m = MobiusElement([[1e160, 1e160], [-1e160, 1e160]])
        assert np.max(np.abs(m.matrix - np.array([[s, s], [-s, s]]))) <= math.ulp(s)

    def test_entries_spanning_more_than_the_float_range(self):
        # Each entry keeps its own exponent: the determinant comes from the
        # entries' frexp mantissas and every entry is divided unscaled, so
        # neither a far smaller entry nor a determinant far below the
        # largest entry's square loses bits (values within 1 ulp of exact).
        m = MobiusElement([[1.0, 5e-324], [0.0, 1e-300]])
        assert (m.a, m.b, m.c, m.d) == (1e150, 4.940656458412465e-174, 0.0, 1e-150)
        m = MobiusElement([[1e300, 1e-300], [0.0, 1e-10]])
        assert (m.a, m.b, m.c, m.d) == (1e155, 0.0, 0.0, 1e-155)
        # A normalized entry past the float range is refused.
        with pytest.raises(ValueError, match="^matrix normalized to determinant one leaves the float range$"):
            MobiusElement([[1e308, 0.0], [0.0, 1e-320]])

    def test_rejects_singular(self):
        # The message reports the input's determinant, not the scaled one.
        for matrix, shown in [
            ([[1.0, 2.0], [2.0, 4.0]], "0.000e+00"),
            ([[1e100, 0.0], [0.0, -3e100]], "-3.000e+200"),
            ([[0.0, 1e200], [1e200, 0.0]], "-inf"),
            ([[1e-200, 0.0], [0.0, -1e-200]], "-0.000e+00"),
            # Singular with entries whose products overflow.
            ([[1e200, 1e200], [1e200, 1e200]], "0.000e+00"),
            ([[0.0, 0.0], [0.0, 0.0]], "0.000e+00"),
        ]:
            with pytest.raises(ValueError, match=f"^matrix determinant must be positive, got {re.escape(shown)}$"):
                MobiusElement(matrix)

    def test_affine_action(self):
        m = MobiusElement(np.array([[2.0, 1.0], [0.0, 0.5]]))
        assert abs(m.act_affine(1.0) - (2.0 * 1.0 + 1.0) / 0.5) < 1e-12

    def test_compose_matches_matrix_product(self, rng):
        m1 = random_mobius(rng)
        m2 = random_mobius(rng)
        t = 0.37
        assert abs(m1.compose(m2).act_affine(t) - m1.act_affine(m2.act_affine(t))) < 1e-10

    def test_inverse(self, rng):
        m = random_mobius(rng)
        assert m.compose(m.inverse()).distance(MobiusElement.identity()) < 1e-12

    def test_point_action_matches_affine_chart(self, rng):
        m = random_mobius(rng)
        t = -0.83
        x, y = m.act_point(1.0, t)
        assert abs(y / x - m.act_affine(t)) < 1e-10


class TestRandomGenerators:
    def test_diffeo_slope_floor(self):
        for seed in range(40):
            d = random_diffeo(np.random.default_rng(seed))
            theta = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
            assert float(np.min(d.derivative(theta, 1))) > 0.15

    def test_determinism(self):
        d1 = random_diffeo(np.random.default_rng(7))
        d2 = random_diffeo(np.random.default_rng(7))
        assert d1.shift == d2.shift
        assert np.array_equal(d1.cos, d2.cos)
        assert np.array_equal(d1.sin, d2.sin)

    def test_draws_keep_the_slope_margin(self, monkeypatch):
        # The 2048-node minimum of phi' is at least min_slope = 0.2; a draw
        # whose raw minimum dips below is rescaled onto 0.2, up to rounding.
        raw = []
        scan = circle.trig_eval_uniform

        def recording(cos_c, sin_c, n, order=0, offset=0.0):
            out = scan(cos_c, sin_c, n, order, offset)
            raw.append(1.0 + float(np.min(out)))
            return out

        monkeypatch.setattr(circle, "trig_eval_uniform", recording)
        rescaled = 0
        for seed in range(600):
            del raw[:]
            d = random_diffeo(np.random.default_rng(seed))
            lo = 1.0 + float(np.min(scan(d.cos, d.sin, 2048, 1)))
            assert lo >= 0.2 - 1e-15
            # The first scan is random_diffeo's own, of the raw draw.
            if raw[0] < 0.2:
                rescaled += 1
                assert abs(lo - 0.2) <= 1e-15
        assert rescaled == 154

    def test_seeded_draws_unchanged(self):
        # Seeded draws, and with them test inputs and benchmark items, keep
        # their coefficients: a change that moves any of them re-pins this
        # digest on purpose.
        digest = hashlib.sha256()
        for seed in range(600):
            d = random_diffeo(np.random.default_rng(seed))
            digest.update(np.array([d.shift]).tobytes() + d.cos.tobytes() + d.sin.tobytes())
        assert digest.hexdigest() == (
            "bc5a297e692e0b63280c8c29a18f83d4346c8d6412bc513ea0eeb7078e4c912e"
        )

    def test_mobius_unit_det(self, rng):
        for _ in range(10):
            m = random_mobius(rng)
            assert abs(np.linalg.det(m.matrix) - 1.0) < 1e-12
