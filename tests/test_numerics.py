"""Spectral grid, interpolation, differentiation, quadrature, extrapolation,
the bracketed root solver and sign-change counting."""

import math
import tracemalloc
from unittest import mock

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
    random_diffeo,
    richardson_limit,
    schwarzian_modified,
    spectral_derivative,
)
from virasoro import numerics
from virasoro.numerics import SOLVE_MAX_ITER, solve_bracketed, trig_eval_uniform
from conftest import (
    counting_kernel,
    needs_long_double,
    same_bits,
    scattered_angles,
    traced_peak_mb,
    trig_oracle,
)

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
        dense = numerics.TrigSeries(0.0, a, b).at(circle_grid(grid) + offset, order)
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

    @pytest.mark.parametrize("seed", range(3))
    def test_cached_tables_keep_the_formula_bits(self, seed):
        # The powers k^order and the factors e^(i k offset) come from cached
        # tables; the values stay those of the formula built per call.
        rng = np.random.default_rng(seed)
        for i in range(100):
            m = int(rng.integers(1, 300))
            n = 2 * m + 1 + int(rng.integers(0, 1200))
            order = int(rng.integers(0, 4))
            offset = (0.0, np.pi / n, float(rng.uniform(-1.0, 1.0)))[i % 3]
            a, b = rng.standard_normal((2, m))
            k = np.arange(1, m + 1, dtype=float)
            spec = np.zeros(n // 2 + 1, dtype=complex)
            coef = (0.5 * n * 1j**order) * k**order * (a - 1j * b)
            spec[1 : m + 1] = coef * np.exp(1j * offset * k) if offset else coef
            assert np.array_equal(trig_eval_uniform(a, b, n, order, offset), np.fft.irfft(spec, n))
        assert not numerics.shift_phase(n, offset).flags.writeable
        assert not numerics._mode_powers(order, 512).flags.writeable

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


def _dense_reference(theta, cos_c, sin_c, order=0):
    """The dense scattered-point formula the exponential kernel replaced:
    one cosine and one sine table of ``n theta + order pi / 2``."""
    theta = np.asarray(theta, dtype=float)
    if cos_c.size == 0:
        return np.zeros_like(theta)
    n = np.arange(1, cos_c.size + 1, dtype=float)
    ang = theta[..., None] * n
    if order == 0:
        return np.cos(ang) @ cos_c + np.sin(ang) @ sin_c
    ang += order * (np.pi / 2.0)
    weight = n**order
    return np.cos(ang) @ (weight * cos_c) + np.sin(ang) @ (weight * sin_c)


@needs_long_double
class TestTrigEval:
    @given(
        modes=st.one_of(
            st.integers(min_value=1, max_value=numerics.TRIG_TABLE_MIN_MODES + 8),
            st.integers(min_value=1, max_value=3000),
        ),
        order=st.integers(min_value=0, max_value=3),
        shape=st.sampled_from([(), (1,), (33,), (4, 9)]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(modes=numerics.TRIG_TABLE_MIN_MODES - 1, order=3, shape=(33,), seed=1)
    @example(modes=numerics.TRIG_TABLE_MIN_MODES, order=3, shape=(33,), seed=1)
    @example(modes=3000, order=3, shape=(4, 9), seed=2)
    @example(modes=2446, order=0, shape=(), seed=3)
    def test_matches_long_double_oracle(self, modes, order, shape, seed):
        # Bound C eps sum (n + 1) n^k (|a_n| + |b_n|) with C = 1/2. No angle
        # n theta is rounded, so the error does not grow with |theta|: over
        # 4000 Gaussian draws (M = 1 .. 3000, orders 0 .. 3, 1 to 300 angles
        # in [-4 pi, 4 pi]) C reached 0.44, at M = 1. The dense cos/sin
        # formula this kernel replaced reached 4.2 over 600 such draws.
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, modes))
        theta = scattered_angles(rng, shape)
        if shape == ():
            theta = float(theta)
        got = numerics.TrigSeries(0.0, a, b).at(theta, order)
        assert np.shape(got) == np.shape(theta)
        n = np.arange(1.0, modes + 1.0)
        bound = 0.5 * np.finfo(float).eps * np.sum((n + 1.0) * n**order * (np.abs(a) + np.abs(b)))
        assert np.max(np.abs(got - trig_oracle(theta, a, b, order))) <= bound

    @pytest.mark.parametrize("modes", [16, 60, 150, 300, 2446])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_no_worse_than_dense(self, modes, order):
        rng = np.random.default_rng(modes)
        a, b = rng.standard_normal((2, modes))
        theta = scattered_angles(rng, 256)
        exact = trig_oracle(theta, a, b, order)
        table = np.max(np.abs(numerics.TrigSeries(0.0, a, b).at(theta, order) - exact))
        dense = np.max(np.abs(_dense_reference(theta, a, b, order) - exact))
        assert table <= dense

    @pytest.mark.parametrize("modes", range(16))
    def test_small_series_no_worse_than_dense(self, modes):
        # Below 16 modes, where the dense formula ran before, worst case over
        # the orders: it rounds n theta, the powers of e^(i theta) do not.
        rng = np.random.default_rng(modes)
        a, b = rng.standard_normal((2, modes))
        theta = scattered_angles(rng, 512)
        series = numerics.TrigSeries(0.0, a, b)
        horner = dense = 0.0
        for order in range(4):
            exact = trig_oracle(theta, a, b, order)
            horner = max(horner, np.max(np.abs(series.at(theta, order) - exact)))
            dense = max(dense, np.max(np.abs(_dense_reference(theta, a, b, order) - exact)))
        assert horner <= dense

    @pytest.mark.parametrize("modes", [3, 8, 15, 64, 300])
    @pytest.mark.parametrize("rows, size", [(2, 4), (3, 132), (2, 1280), (2, 1), (3, 5), (2, 131)])
    def test_blas_canary_stacked_rows_round_as_their_own_calls(self, modes, rows, size):
        # TrigSeries promises that a value's bits depend only on the
        # series, the orders and the angle: the kernel pads every call to a
        # multiple of _KERNEL_WIDTH angles. That the padding is enough is a
        # property of numpy's elementwise loops (the Horner path, below
        # TRIG_TABLE_MIN_MODES modes) and of the BLAS complex matrix product
        # (the baby-step path), measured with numpy 2.4.6 and OpenBLAS
        # 0.3.31 on AVX-512. This is the test that fails first under a
        # build where it does not hold: stacked arrays, slices and single
        # angles against the whole call, at sizes of every residue mod 4, on
        # one row and on two.
        rng = np.random.default_rng(modes + size)
        series = numerics.TrigSeries(0.3, *rng.standard_normal((2, modes)))
        theta = scattered_angles(rng, (rows, size))
        flat = theta.ravel()
        for orders in ((0, 1), (2,)):
            stacked = series.jet(theta, orders)
            for r in range(rows):
                assert np.array_equal(stacked[:, r], series.jet(theta[r], orders))
            whole = series.jet(flat, orders)
            for _ in range(4):
                i, j = sorted(rng.integers(0, flat.size + 1, 2).tolist())
                assert np.array_equal(series.jet(flat[i:j], orders), whole[:, i:j])
            for k in range(min(flat.size, 64)):
                assert np.array_equal(series.jet(flat[k], orders), whole[:, k])
                assert np.array_equal(series.jet(flat[k : k + 1], orders), whole[:, k : k + 1])

    @pytest.mark.parametrize("modes", [0, 3, 15, 16, 300])
    @pytest.mark.parametrize("size", [1, 16, 17, 300])
    def test_jet_rows_match_single_orders(self, modes, size):
        # Several orders from one exponential per angle: each row is the
        # single-order value up to the rounding of the complex products
        # (numpy may round a broadcast product differently), so the two
        # differ by at most the sum of their oracle bounds (C = 1/2 each).
        rng = np.random.default_rng(modes + size)
        series = numerics.TrigSeries(0.7, *rng.standard_normal((2, modes)))
        theta = scattered_angles(rng, size)
        jet = series.jet(theta, (3, 0, 1, 2))
        assert jet.shape == (4, size)
        assert np.array_equal(series.jet(theta, [3, 0, 1, 2]), jet)
        n = np.arange(1.0, modes + 1.0)
        weight = np.abs(series.cos) + np.abs(series.sin)
        for row, order in zip(jet, (3, 0, 1, 2)):
            bound = np.finfo(float).eps * (np.sum((n + 1.0) * n**order * weight) + (order == 0))
            assert np.max(np.abs(row - series.at(theta, order))) <= bound
        bare = numerics.TrigSeries(0.0, series.cos, series.sin)
        assert np.array_equal(series.at(theta), 0.7 + bare.at(theta))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            numerics.TrigSeries(0.0, np.ones(20), np.ones(20)).jet(0.3, (4,))

    def test_series_tables_are_read_only_copies(self):
        # The series keeps its own read-only tables: the caller's arrays are
        # neither shared nor frozen, and the shorter table is zero-extended.
        a = np.array([0.5, -0.25, 0.125])
        b = np.array([2.0])
        series = numerics.TrigSeries(0.1, a, b)
        assert not np.shares_memory(series.cos, a) and not np.shares_memory(series.sin, b)
        assert a.flags.writeable and b.flags.writeable
        assert not series.cos.flags.writeable and not series.sin.flags.writeable
        a[0] = 9.0
        assert np.array_equal(series.cos, [0.5, -0.25, 0.125])
        assert np.array_equal(series.sin, [2.0, 0.0, 0.0])
        assert np.array_equal(numerics.TrigSeries(0.0, [1], (0.5, 1.5)).cos, [1.0, 0.0])
        assert np.array_equal(numerics.TrigSeries(0.0, 0.5).cos, [0.5])
        assert numerics.TrigSeries(0.0, (), ()).modes == 0
        for bad in ((np.nan, a, b), (0.0, [1.0, np.inf], b), (0.0, a, [-np.inf])):
            with pytest.raises(ValueError):
                numerics.TrigSeries(*bad)

    def test_memory_ceiling(self):
        # About 32 P sqrt(M) bytes, 12.4 MB (12.5 MB traced); one dense
        # cosine table at this size is 160 MB.
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2, 2446))
        theta = rng.uniform(0.0, TWO_PI, 8192)
        values, peak_mb = traced_peak_mb(numerics.TrigSeries(0.0, a, b).at, theta, 1)
        assert values.shape == (8192,)
        assert peak_mb < 16.0

    @pytest.mark.parametrize("modes", [3, 2446])
    def test_held_result_keeps_only_itself(self, modes):
        # A result that viewed the complex Horner sums would keep them alive:
        # 6.1 MB of giant-step sums for 2446 modes at 8192 angles.
        rng = np.random.default_rng(8)
        series = numerics.TrigSeries(0.0, *rng.standard_normal((2, modes)))
        theta = circle_grid(8192)
        series.at(theta[:4])
        tracemalloc.start()
        try:
            held = series.at(theta)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 1.25 * held.nbytes


def _random_member(rng, modes):
    const = float(rng.standard_normal()) if rng.random() < 0.5 else 0.0
    decay = 0.8 ** np.arange(modes)
    series = numerics.TrigSeries(const, *(decay * rng.standard_normal((2, modes))))
    orders = tuple(int(k) for k in rng.permutation(4)[: rng.integers(1, 4)])
    return series, orders


class TestGridJet:
    """A pass on a grid's cached exponentials, with the bits of ``jet`` on
    the grid's angles."""

    # Horner (2-4 modes) and baby steps (12 modes, B = 4), on grids of
    # every residue mod 4 that the kernel pads.
    @pytest.mark.parametrize("n", [8, 66, 130, 256, 2048])
    @pytest.mark.parametrize("max_degree", [4, 12])
    def test_bits_of_the_jet_on_the_grid(self, n, max_degree):
        rng = np.random.default_rng(n + max_degree)
        for _ in range(6):
            modes = int(rng.integers(2, 5)) if max_degree == 4 else max_degree
            series, _ = _random_member(rng, modes)
            for orders in ((0,), (1, 2, 3), (0, 1, 2, 3), (3, 0)):
                got = series.grid_jet(n, orders)
                assert same_bits(got, series.jet(circle_grid(n), orders))

    def test_one_pass_of_the_grid(self, monkeypatch):
        series = numerics.TrigSeries(0.5, [0.1, 0.2], [0.3])
        sizes = counting_kernel(monkeypatch)
        series.grid_jet(130, (0, 1))
        assert sizes == [130]

    def test_cached_table_is_read_only_and_bounded(self):
        z = numerics.grid_exponentials(66)
        assert z is numerics.grid_exponentials(66)
        assert not z.flags.writeable
        table = np.exp(1j * np.concatenate((circle_grid(66), np.zeros(2))))
        assert same_bits(z.view(float), table.view(float))
        with pytest.raises(ValueError):
            z[0] = 0.0
        assert numerics._cached_grid_exponentials.cache_info().maxsize == 16
        # 16 grids of at most 8192 angles: at most 2 MB.
        assert numerics.grid_exponentials(8192).nbytes == 2**21 // 16
        big = numerics.grid_exponentials(8196)
        assert big is not numerics.grid_exponentials(8196) and big.size == 8196


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

    def test_f_called_once_on_every_step(self):
        calls = []

        def f(steps):
            calls.append(np.array(steps, copy=True))
            return 1.0 + steps**2

        richardson_limit(f, eps0=0.3, levels=6)
        assert len(calls) == 1
        assert np.array_equal(calls[0], 0.3 / 2 ** np.arange(6))
        assert calls[0].tolist() == [0.3 / 2.0**j for j in range(6)]

    def test_tableau_matches_per_step_calls(self):
        # The tableau of the batched call equals one built from per-step
        # scalar calls, entry for entry.
        def g(e):
            return math.exp(e) * math.cos(3.0 * e) + e

        res = richardson_limit(lambda steps: [g(e) for e in steps], eps0=0.2, levels=5)
        rows = []
        for j in range(5):
            row = [g(0.2 / 2.0**j)]
            for m in range(1, j + 1):
                w = 4.0**m
                row.append((w * row[m - 1] - rows[j - 1][m - 1]) / (w - 1.0))
            rows.append(row)
        assert [r.tolist() for r in res.table] == rows
        assert res.value == rows[-1][-1]

    def test_bits_of_the_numpy_scalar_tableau(self):
        # The Python-float tableau takes the IEEE operations of a tableau of
        # numpy scalars, so every entry, the estimate and the flag keep
        # their bits; the table stays a tuple of float arrays.
        rng = np.random.default_rng(17)
        for i in range(3000):
            levels = int(rng.integers(3, 8))
            kind = i % 4
            if kind == 0:
                values = rng.standard_normal(levels) * 10.0 ** rng.integers(-300, 300)
            elif kind == 1:
                values = 1.0 + rng.standard_normal() * 0.5 ** (2 * np.arange(levels))
            elif kind == 2:
                values = np.full(levels, rng.standard_normal())
            else:
                values = rng.choice([0.0, -0.0, 1.0, 1e-300, -2.5], levels)
            got = richardson_limit(lambda steps: values, 0.1, levels)
            rows = []
            for j in range(levels):
                row = np.empty(j + 1)
                row[0] = values[j]
                for m in range(1, j + 1):
                    w = 4.0**m
                    row[m] = (w * row[m - 1] - rows[j - 1][m - 1]) / (w - 1.0)
                rows.append(row)
            diffs = np.abs(np.diff(np.array([r[-1] for r in rows])))
            assert all(type(r) is np.ndarray and r.dtype == float for r in got.table)
            assert all(same_bits(a, b) for a, b in zip(got.table, rows))
            assert same_bits(np.array([got.value, got.error_estimate]), np.array([rows[-1][-1], diffs[-1]]))
            assert got.converged == (not (diffs[-2] > 0.0 and diffs[-1] / diffs[-2] > 1.0))

    def test_wrong_number_of_values_rejected(self):
        with pytest.raises(ValueError, match="5 values"):
            richardson_limit(lambda steps: steps[:-1], eps0=0.1, levels=5)
        with pytest.raises(ValueError, match="5 values"):
            richardson_limit(lambda steps: 1.0, eps0=0.1, levels=5)


def _counted(fdf):
    """``fdf`` with a call counter in ``.calls``."""

    def wrapped(x):
        wrapped.calls += 1
        return fdf(x)

    wrapped.calls = 0
    return wrapped


# Scalar test functions of the solver, as (f, f') at x for a root r.
_KINDS = {
    "newton": lambda x, r: (x - r, 1.0),
    "flat": lambda x, r: (x - r, 0.0),  # no slope: bisection only
    "wrong-sign": lambda x, r: (x - r, -1.0),  # every Newton step leaves
    # A jump without slope; zero at r only, so a root at an end still
    # leaves its bracket a sign change once the test replaces that zero.
    "jump": lambda x, r: (float(np.sign(x - r)), 0.0),
    "ninefold": lambda x, r: ((x - r) ** 9, 9.0 * (x - r) ** 8),
}


def _per_bracket(kinds, roots):
    """``fdf`` of a solve whose bracket ``j`` holds a root ``roots[j]`` of
    ``_KINDS[kinds[j]]``, each evaluated at its own entry of the iterates."""

    def fdf(x):
        f, df = zip(*(_KINDS[k](xj, r) for k, xj, r in zip(kinds, x.tolist(), roots)))
        return np.array(f), np.array(df)

    return fdf


def _never(x):
    raise AssertionError("no evaluation needed")


def _solve_every_iteration(fdf, lo, hi, f_lo, f_hi, ftol):
    """``solve_bracketed`` as it compacted its arrays on every iteration,
    without the width check: the reference for its bookkeeping."""
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float, ndmin=1) for v in (lo, hi, f_lo, f_hi))
    at_lo = np.abs(f_lo) <= ftol
    root = np.where(at_lo, lo, hi)
    live = np.flatnonzero(~at_lo & (np.abs(f_hi) > ftol))
    lo, hi, f_lo, f_hi = (v[live] for v in (lo, hi, f_lo, f_hi))
    last = hi - lo
    bisect_from = SOLVE_MAX_ITER - np.ceil(np.log2(np.maximum(last, 1e-12) / 1e-12))
    neg_lo = f_lo < 0.0
    x = lo + last * f_lo / (f_lo - f_hi)
    for it in range(SOLVE_MAX_ITER):
        if not live.size:
            return root
        root[live] = x
        f, df = (np.asarray(v, dtype=float)[live] for v in fdf(root.copy()))
        below = (f < 0.0) == neg_lo
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        step = np.divide(f, df, out=np.full_like(f, np.inf), where=df != 0.0)
        nxt = x - step
        newton = (it + 1 < bisect_from) & (lo <= nxt) & (nxt <= hi) & (np.abs(step) <= 0.5 * last)
        nxt = np.where(newton, nxt, 0.5 * (lo + hi))
        hit = np.abs(f) <= ftol
        done = hit | (newton & (np.abs(step) <= 1e-12)) | (hi - lo <= 2e-12)
        root[live[done]] = np.where(hit, x, nxt)[done]
        last, x = np.abs(nxt - x), nxt
        live, lo, hi, x, last, neg_lo, bisect_from = (
            v[~done] for v in (live, lo, hi, x, last, neg_lo, bisect_from)
        )
    root[live] = 0.5 * (lo + hi)
    return root


class TestSolveBracketed:
    """One call solves an array of brackets, each on its own terms."""

    def test_simple_root_in_few_steps(self):
        fdf = _counted(lambda x: (np.cos(x), -np.sin(x)))
        lo = np.array([1.0, 4.0, 7.5])
        roots = solve_bracketed(fdf, lo, lo + 1.0, np.cos(lo), np.cos(lo + 1.0))
        assert np.max(np.abs(roots - np.pi * np.array([0.5, 1.5, 2.5]))) <= 1e-15
        assert fdf.calls <= 4

    def test_root_at_bracket_end(self):
        roots = solve_bracketed(_never, [0.5, 0.5], [1.0, 1.0], [0.0, -2.0], [2.0, 0.0])
        assert roots.tolist() == [0.5, 1.0]

    def test_exact_hit_ends_the_solve(self):
        # The secant start of a linear function is its root.
        fdf = _counted(lambda x: (x - np.array([0.75, 2.25]), np.ones(2)))
        roots = solve_bracketed(fdf, [0.5, 2.0], [1.0, 2.5], [-0.25, -0.25], [0.25, 0.25])
        assert roots.tolist() == [0.75, 2.25]
        assert fdf.calls == 1

    def test_newton_step_onto_a_bracket_end_is_taken(self):
        # From the secant start 0.25 a step of -5e-32 rounds to zero, so the
        # next iterate is 0.25 again, now the bracket's lower end. It lies in
        # the bracket, ends included, and is returned, not the midpoint 0.625.
        fdf = _counted(lambda x: (x - 0.3, np.full_like(x, 1e30)))
        assert solve_bracketed(fdf, [0.0], [1.0], [-1.0], [3.0]).tolist() == [0.25]
        assert fdf.calls == 1

    def test_rejects_bad_brackets(self):
        # One bad bracket among good ones refuses the call before any
        # evaluation.
        lo, hi, f_lo, f_hi = [0.0, 0.0], [1.0, 1.0], [-1.0, 1.0], [1.0, 2.0]
        with pytest.raises(ValueError, match="opposite sign"):
            solve_bracketed(_never, lo, hi, f_lo, f_hi)
        with pytest.raises(ValueError, match="opposite sign"):
            solve_bracketed(_never, [0.0, 1.0], [1.0, 0.0], [-1.0, -1.0], [1.0, 1.0])
        # Bisection alone would need 64 halvings to bring 1e7 below 1e-12.
        with pytest.raises(ValueError, match="iterations"):
            solve_bracketed(_never, [0.0, 0.0], [1.0, 1e7], [-1.0, -1.0], [1.0, 1.0])

    def test_ftol_stops_on_noise(self):
        # Near the root f is noise of size 1e-9 whose sign flips every 1e-9:
        # on sign alone the solve bisects down to SOLVE_XTOL.
        r = np.array([0.7, 0.8])

        def f(x):
            return x - r + 1e-9 * np.sin(3e9 * x)

        lo, hi = np.full(2, 0.5), np.ones(2)
        plain = _counted(lambda x: (f(x), np.ones(2)))
        solve_bracketed(plain, lo, hi, f(lo), f(hi))
        stopped = _counted(lambda x: (f(x), np.ones(2)))
        roots = solve_bracketed(stopped, lo, hi, f(lo), f(hi), ftol=2e-9)
        assert np.all(np.abs(f(roots)) <= 2e-9) and np.all(np.abs(roots - r) <= 3e-9)
        assert stopped.calls <= 2 < plain.calls

    def test_ftol_accepts_a_bracket_end(self):
        roots = solve_bracketed(
            _never, [0.5, 0.5], [1.0, 1.0], [-1e-13, -2.0], [2.0, 1e-13], ftol=1e-12
        )
        assert roots.tolist() == [0.5, 1.0]

    def test_empty_call_evaluates_nothing(self):
        assert solve_bracketed(_never, [], [], [], []).size == 0

    @given(
        brackets=st.lists(
            st.tuples(
                st.floats(min_value=1e-9, max_value=TWO_PI),
                st.floats(min_value=0.0, max_value=1.0),
                st.sampled_from(sorted(_KINDS)),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @example(brackets=[(TWO_PI, 1e-3, "jump")])
    @example(brackets=[(TWO_PI, 0.999, "ninefold")])
    @example(brackets=[(TWO_PI, 1e-3, "jump"), (1.0, 0.3, "newton"), (TWO_PI, 0.999, "ninefold")])
    def test_iteration_bound_never_exceeded(self, brackets):
        # Bracket j is [1 + j, 1 + j + width] with its root at the fraction
        # `where` of it. The call ends within SOLVE_MAX_ITER evaluations,
        # and each root is the one a call on its bracket alone returns.
        width, where, kinds = (np.array(v) for v in zip(*brackets))
        lo = 1.0 + np.arange(width.size)
        hi = lo + width
        r = (lo + where * width).tolist()
        fdf = _counted(_per_bracket(kinds, r))
        f_lo, f_hi = fdf(lo)[0], fdf(hi)[0]
        f_lo[f_lo == 0.0], f_hi[f_hi == 0.0] = -1.0, 1.0
        fdf.calls = 0
        roots = solve_bracketed(fdf, lo, hi, f_lo, f_hi)
        assert fdf.calls <= SOLVE_MAX_ITER
        # Newton stops on a step below 1e-12, which a ninefold root shrinks
        # by 8/9 per iteration only.
        tol = np.where(kinds == "ninefold", 1e-11, 1e-12)
        assert np.all(np.abs(roots - r) <= tol)
        alone_calls = []
        for j in range(width.size):
            alone = _counted(_per_bracket(kinds[j : j + 1], r[j : j + 1]))
            root = solve_bracketed(alone, lo[j], hi[j], f_lo[j], f_hi[j])
            assert root.tolist() == [roots[j]]
            alone_calls.append(alone.calls)
        assert fdf.calls == max(alone_calls)

    @pytest.mark.parametrize("ftol", [0.0, 1e-9])
    @pytest.mark.parametrize("seed", range(6))
    def test_bits_of_the_compacting_loop(self, ftol, seed):
        # The solver shrinks its arrays only when a bracket closes; the
        # roots and the calls are those of the loop that shrank them every
        # iteration (kept here as the reference).
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            kinds = rng.choice(sorted(_KINDS), n)
            width = rng.uniform(1e-9, TWO_PI, n) ** rng.choice([1.0, 2.0], n)
            lo = 1.0 + 7.0 * np.arange(n)
            hi = lo + width
            r = (lo + rng.uniform(0.0, 1.0, n) * width).tolist()
            fdf = _counted(_per_bracket(kinds, r))
            f_lo, f_hi = fdf(lo)[0], fdf(hi)[0]
            f_lo[f_lo == 0.0], f_hi[f_hi == 0.0] = -1.0, 1.0
            ref = _counted(_per_bracket(kinds, r))
            want = _solve_every_iteration(ref, lo, hi, f_lo, f_hi, ftol)
            fdf.calls = 0
            got = solve_bracketed(fdf, lo, hi, f_lo, f_hi, ftol)
            assert got.tolist() == want.tolist()
            assert fdf.calls == ref.calls

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
        s = PeriodicSamples(
            0.3 * rng.standard_normal() + numerics.TrigSeries(0.0, a, b).at(circle_grid(grid))
        )
        count, locations = count_sign_changes(s)
        reference = _loop_sign_changes(s)
        assert count == reference.size
        assert np.max(np.abs(locations - reference), initial=0.0) <= 1e-12

    @given(
        grid=st.integers(min_value=128, max_value=2048).map(lambda h: 2 * h),
        modes=st.integers(min_value=1, max_value=128),
        decay=st.floats(min_value=0.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(grid=4096, modes=128, decay=0.0, seed=1)
    @example(grid=256, modes=1, decay=0.0, seed=2)
    def test_polish_matches_brentq(self, grid, modes, decay, seed):
        # Every bracket the scan hands to the solver, polished again by
        # brentq. Band-limited to grid / 4, so at most grid / 2 crossings.
        modes = min(modes, grid // 4)
        rng = np.random.default_rng(seed)
        k = np.arange(1.0, modes + 1.0)
        a, b = rng.standard_normal((2, modes)) / k**decay
        s = PeriodicSamples(0.3 * rng.standard_normal() + trig_eval_uniform(a, b, grid))
        solves = []
        with mock.patch.object(numerics, "solve_bracketed", _recorded_solve(solves)):
            count, locations = count_sign_changes(s)
        # One call polishes every bracket, in no more iterations than
        # brentq takes on the slowest of them.
        ((lo, hi, roots, calls),) = solves
        assert count == roots.size
        theirs = 0
        for lo_j, hi_j, root in zip(lo, hi, roots):
            ref, info = brentq(s.interpolate, lo_j, hi_j, xtol=1e-12, full_output=True)
            assert abs(root - ref) <= 1e-12
            theirs = max(theirs, info.function_calls)
        assert calls <= min(theirs, SOLVE_MAX_ITER)
        assert np.array_equal(locations, np.sort(roots % TWO_PI))

    @pytest.mark.parametrize("grid", [256, 2048])
    def test_polish_on_the_modes_above_the_floor(self, grid, monkeypatch):
        # A geometric spectrum (ratio 1/2) reaches the per-mode floor near
        # mode 47, far below the Nyquist mode. The polish evaluates only
        # the interpolant whose signs set the brackets, noise modes
        # included, and its roots stay within 1e-12 of the reference loop's.
        theta = circle_grid(grid)
        s = PeriodicSamples(1.0 / (1.25 - np.cos(theta - 0.3)) - 1.4 + 0.8 * np.sin(5.0 * theta))
        series = s._series()
        floor = numerics.noise_floor(float(np.max(np.abs(s.values))))
        assert numerics.significant_modes(series.cos, series.sin, floor) < 64
        seen = []
        jet = numerics.TrigSeries.jet

        def spy(self, theta, orders):
            seen.append(self)
            return jet(self, theta, orders)

        monkeypatch.setattr(numerics.TrigSeries, "jet", spy)
        count, locations = count_sign_changes(s)
        assert seen and all(polished is series for polished in seen)
        monkeypatch.undo()
        reference = _loop_sign_changes(s)
        assert count == reference.size == 6
        assert np.max(np.abs(locations - reference)) <= 1e-12

    def test_roots_on_snapped_nodes(self):
        # The zeros of sin(2 theta) are nodes of the four-fold grid; they snap
        # to zero and sit in the middle of their two-interval brackets.
        s = PeriodicSamples(np.sin(2.0 * circle_grid(64)))
        count, locations = count_sign_changes(s)
        assert count == 4
        gaps = np.abs(locations - np.arange(4) * (np.pi / 2.0))
        assert np.max(np.minimum(gaps, TWO_PI - gaps)) <= 1e-15

    def test_snapped_plateau(self):
        # sin^9 stays below the snap threshold on three fine nodes around 0
        # and pi; its zeros there are ninefold, so the interpolant's sign is
        # rounding noise across the plateau and any point of it will do.
        theta = circle_grid(64)
        h = TWO_PI / 256
        solves = []
        with mock.patch.object(numerics, "solve_bracketed", _recorded_solve(solves)):
            count, locations = count_sign_changes(PeriodicSamples(np.sin(theta) ** 9))
        assert count == 2
        ((_, _, roots, calls),) = solves
        assert roots.size == 2 and calls <= SOLVE_MAX_ITER
        nearest = np.round(locations / np.pi)
        assert sorted(nearest % 2) == [0.0, 1.0]
        assert np.max(np.abs(locations - np.pi * nearest)) < 2.0 * h
        # An even power touches zero on its plateaus without crossing.
        count, _ = count_sign_changes(PeriodicSamples(np.sin(theta) ** 10))
        assert count == 0

    def test_bits_of_the_sign_table_route(self):
        # 400 modified Schwarzians of random diffeos on even grids from 256
        # to 2048, sin^9 (snapped plateaus and a bracket that wraps past
        # 2 pi) and sin(theta + h/2) (a crossing between the last node and
        # node 0): the same counts, the same brackets handed to the solver
        # and the same locations as the sign-table route, bit for bit.
        rng = np.random.default_rng(23)
        grids = [int(2 * rng.integers(128, 1025)) for _ in range(400)]
        draws = [schwarzian_modified(random_diffeo(rng), grid).samples for grid in grids]
        theta = circle_grid(64)
        edge = [np.sin(theta) ** 9, np.sin(theta + TWO_PI / 512)]
        draws += [PeriodicSamples(v) for v in edge]
        wrapped = snapped = 0
        for s in draws:
            ours, theirs = [], []
            with mock.patch.object(numerics, "solve_bracketed", _recorded_solve(ours)):
                count, locations = count_sign_changes(s)
            ref_count, ref_locations = _sign_table_changes(s, _recorded_solve(theirs))
            assert count == ref_count
            assert locations.tobytes() == ref_locations.tobytes()
            ((lo, hi, roots, _),) = ours
            assert [v.tobytes() for v in (lo, hi, roots)] == [v.tobytes() for v in theirs[0][:3]]
            wrapped += bool(np.any(hi >= TWO_PI))
            series = s._series()
            u = series.const + trig_eval_uniform(series.cos, series.sin, 4 * s.size)
            snapped += bool(np.any((u != 0.0) & (np.abs(u) <= 1e-12 * np.max(np.abs(s.values)))))
        assert wrapped >= 2 and snapped >= 1


def _recorded_solve(solves):
    """``solve_bracketed`` that appends ``(lo, hi, roots, fdf calls)`` of
    each call to ``solves``."""

    def recording(fdf, lo, hi, *args):
        counted = _counted(fdf)
        roots = solve_bracketed(counted, lo, hi, *args)
        solves.append((lo, hi, roots, counted.calls))
        return roots

    return recording


def _sign_table_changes(samples, solve):
    """Reference scan: ``count_sign_changes`` with a sign table over every
    node of the four-fold grid and its brackets read from
    ``circle_grid``, polishing through ``solve``."""
    scale = float(np.max(np.abs(samples.values)))
    fine_n = 4 * samples.size
    theta = circle_grid(fine_n)
    series = samples._series()
    u = series.const + trig_eval_uniform(series.cos, series.sin, fine_n)
    sign = np.where(np.abs(u) <= 1e-12 * scale, 0, np.sign(u)).astype(int)
    idx = np.nonzero(sign)[0]
    nxt = np.roll(idx, -1)
    cross = sign[idx] != sign[nxt]
    a, b = idx[cross], nxt[cross]
    hi = np.where(b > a, theta[b], theta[b] + TWO_PI)
    roots = solve(lambda x: series.jet(x, (0, 1)), theta[a], hi, u[a], u[b])
    return a.size, np.sort(roots % TWO_PI)


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
