"""Null metrics on the doubled circle, curvature, embedding, diagonal limits."""

import math

import numpy as np
import pytest

from virasoro import (
    LINE,
    TORUS,
    CircleDiffeo,
    NullMetric,
    SpacetimePoint,
    VectorFieldS1,
    conformal_factor,
    diagonal_restriction,
    embed,
    flat_cocycle,
    flow,
    gaussian_curvature,
    general_metric,
    hessian_check,
    mobius_lift,
    random_diffeo,
    random_mobius,
    richardson_limit,
    schwarzian_modified,
)
from virasoro.hyperboloid import _CURVATURE_STEP, _DIAGONAL_GUARD, HESSIAN_TOL
from virasoro.numerics import TRIG_TABLE_MIN_MODES, circle_grid
from conftest import counting_kernel

TWO_PI = 2.0 * np.pi


def off_diagonal_pairs(n, seed=3, margin=0.3):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        t1, t2 = rng.uniform(0.0, TWO_PI, 2)
        if abs(math.sin(0.5 * (t1 - t2))) > margin:
            out.append((t1, t2))
    return out


class TestMetricEval:
    def test_curved_reference_value(self):
        assert abs(NullMetric.curved(1.0).coefficient(0.0, np.pi) - 1.0) < 1e-15

    def test_curved_scales_linearly(self):
        for t1, t2 in off_diagonal_pairs(10):
            base = NullMetric.curved(1.0).coefficient(t1, t2)
            assert abs(NullMetric.curved(-2.5).coefficient(t1, t2) + 2.5 * base) < 1e-12

    def test_flat_is_one(self):
        assert NullMetric.flat().coefficient(0.3, 2.0) == 1.0

    def test_symmetry(self):
        g = NullMetric.curved(2.0)
        for t1, t2 in off_diagonal_pairs(10):
            assert abs(g.coefficient(t1, t2) - g.coefficient(t2, t1)) < 1e-12

    def test_diagonal_guard(self):
        with pytest.raises(ValueError):
            NullMetric.curved(1.0).coefficient(1.0, 1.0)
        with pytest.raises(ValueError):
            NullMetric.curved(1.0).coefficient(1.0, 1.0 + 1e-12)
        # A full period apart is on the diagonal of the torus too.
        with pytest.raises(ValueError):
            NullMetric.curved(1.0).coefficient(0.0, TWO_PI)

    def test_a_nan_angle_hides_no_diagonal_point(self):
        # Each guard tests every pair: a NaN angle neither raises alone nor
        # hides a pair on the diagonal in the same batch.
        nan = math.nan
        g = NullMetric.curved(1.0)
        assert np.isnan(g.coefficient([nan, 1.0], [0.0, 2.0])[0])
        checks = [
            (g.coefficient, "metric evaluated too close"),
            (lambda th1, th2: conformal_factor(CircleDiffeo.identity(), th1, th2), "conformal factor"),
            (lambda th1, th2: general_metric(TORUS, th1, th2), "developed points coincide"),
            (lambda th1, th2: embed(th1, th2, 1.0), "embedding evaluated too close"),
        ]
        for evaluate, message in checks:
            with pytest.raises(ValueError, match=message):
                evaluate([nan, 0.5], [0.0, 0.5])

    def test_zero_parameter_rejected(self):
        for c in (0.0, math.nan, math.inf, -math.inf, None):
            with pytest.raises(ValueError, match="^curved metric needs a nonzero finite parameter$"):
                NullMetric.curved(c)

    def test_pullback_needs_a_metric_and_a_diffeo(self):
        g, d = NullMetric.curved(1.0), CircleDiffeo.rotation(0.8)
        for base, by in [(lambda t1, t2: 1.0, d), (g, VectorFieldS1(0.1, [0.05], [0.02])), (g, g)]:
            with pytest.raises(ValueError, match="^pullback metric needs a base metric and a diffeomorphism$"):
                NullMetric.pullback(base, by)

    def test_repr(self):
        inner = NullMetric.pullback(NullMetric.curved(2.5), CircleDiffeo.rotation(0.8))
        assert repr(NullMetric.curved(1e-7)) == "NullMetric.curved(1e-07)"
        assert repr(NullMetric.flat()) == "NullMetric.flat()"
        assert repr(NullMetric.pullback(inner, CircleDiffeo(0.1, [0.05], [0.02]))) == (
            "NullMetric.pullback(NullMetric.pullback(NullMetric.curved(2.5), "
            "CircleDiffeo(shift=0.8, modes=0)), CircleDiffeo(shift=0.1, modes=1))"
        )

    def test_pullback_by_rotation_is_invariance(self):
        g = NullMetric.curved(1.0)
        pulled = NullMetric.pullback(g, CircleDiffeo.rotation(0.8))
        for t1, t2 in off_diagonal_pairs(10):
            assert abs(pulled.coefficient(t1, t2) - g.coefficient(t1, t2)) < 1e-12

    def test_pullback_definition(self, two_mode):
        g = NullMetric.curved(1.5)
        pulled = NullMetric.pullback(g, two_mode)
        for t1, t2 in off_diagonal_pairs(8):
            expect = (
                g.coefficient(two_mode.eval(t1), two_mode.eval(t2))
                * two_mode.derivative(t1, 1)
                * two_mode.derivative(t2, 1)
            )
            assert abs(pulled.coefficient(t1, t2) - expect) < 1e-11

    @pytest.mark.parametrize("max_degree", [4, 20])
    @pytest.mark.parametrize("size", [2, 7, 64, 255])
    def test_pullback_bit_identical_on_arrays(self, max_degree, size):
        # base(phi(th1), phi(th2)) phi'(th1) phi'(th2) from one kernel call
        # on both angle arrays stacked, against one call per value and
        # array, on both summation paths of the kernel and at sizes that are
        # not multiples of 4: a kernel value's bits depend only on the
        # series, the orders and the angle (TrigSeries; the BLAS canary in
        # test_numerics watches the build).
        rng = np.random.default_rng(size + max_degree)
        for _ in range(4):
            d = random_diffeo(rng, max_degree=max_degree)
            inner = NullMetric.pullback(NullMetric.curved(1.5), random_diffeo(rng))
            th1 = rng.uniform(0.0, TWO_PI, size)
            th2 = th1 + rng.uniform(0.3, TWO_PI - 0.3, size)
            for base in (NullMetric.curved(-0.7), NullMetric.flat(), inner):
                expect = (
                    base.coefficient(d.eval(th1), d.eval(th2))
                    * d.derivative(th1, 1)
                    * d.derivative(th2, 1)
                )
                got = NullMetric.pullback(base, d).coefficient(th1, th2)
                assert np.array_equal(got, expect)


def _nine_call_curvature(metric, th1, th2):
    """The cross stencil of ``gaussian_curvature`` with one ``coefficient``
    call per point, in the order the batched version combines them."""

    def logf(a, b):
        return np.log(np.abs(metric.coefficient(a, b)))

    def mixed(h):
        return (
            logf(th1 + h, th2 + h)
            - logf(th1 + h, th2 - h)
            - logf(th1 - h, th2 + h)
            + logf(th1 - h, th2 - h)
        ) / (4.0 * h * h)

    m = (4.0 * mixed(_CURVATURE_STEP / 2.0) - mixed(_CURVATURE_STEP)) / 3.0
    return -2.0 * m / metric.coefficient(th1, th2)


class TestCurvature:
    @pytest.mark.parametrize("max_degree", [4, 20])
    def test_bit_identical_to_nine_call_stencil(self, max_degree):
        # Array angles of any count on both summation paths of the kernel
        # (below and from TRIG_TABLE_MIN_MODES modes): one call on 9 P
        # angles gives each value the bits of a call on P (see TrigSeries;
        # the BLAS canary in test_numerics watches the build).
        rng = np.random.default_rng(max_degree)
        baby = 0
        for _ in range(6):
            d = random_diffeo(rng, max_degree=max_degree)
            baby += d.modes >= TRIG_TABLE_MIN_MODES
            pulled = NullMetric.pullback(NullMetric.curved(2.0), d)
            for size in (1, 2, 5, 7, 33, 130):
                th1 = rng.uniform(0.0, TWO_PI, size)
                th2 = th1 + rng.uniform(0.4, TWO_PI - 0.4, size)
                for metric in (NullMetric.curved(2.0), NullMetric.flat(), pulled):
                    got = gaussian_curvature(metric, th1, th2)
                    assert np.array_equal(got, _nine_call_curvature(metric, th1, th2))
        assert (baby > 0) == (max_degree > 4)

    @pytest.mark.parametrize("max_degree", [4, 12])
    def test_scalar_pair_close_to_nine_call_stencil(self, max_degree):
        # A scalar pair is one 9-angle call, where the stencil makes nine
        # scalar calls. The kernel values agree bit for bit, but numpy's
        # elementwise sin and log can round a 1-element call apart from a
        # 9-element one: 4 of 1000 pairs moved for the curved metric, which
        # uses no kernel, and 3 to 5 of 1000 for pullbacks. One rounding of a coefficient moves the
        # stencil by about 1e-16 / (h/2)^2 = 4e-10 at h = 1e-3, so the
        # check is closeness, not bit identity.
        rng = np.random.default_rng(max_degree)
        maps = [random_diffeo(rng, max_degree=max_degree) for _ in range(3)]
        metrics = [NullMetric.curved(-1.5)] + [NullMetric.pullback(NullMetric.curved(2.0), d) for d in maps]
        for metric in metrics:
            for t1, t2 in off_diagonal_pairs(12, margin=0.5):
                got = gaussian_curvature(metric, t1, t2)
                assert np.ndim(got) == 0
                assert abs(got - _nine_call_curvature(metric, t1, t2)) <= 1e-8

    def test_constant_curvature_both_signs(self):
        for c in (1.0, -1.0, 2.0, 0.5, -2.0):
            g = NullMetric.curved(c)
            for t1, t2 in off_diagonal_pairs(8, seed=int(10 * abs(c))):
                assert abs(gaussian_curvature(g, t1, t2) - 1.0 / c) < 1e-6

    def test_flat_curvature_zero(self):
        g = NullMetric.flat()
        for t1, t2 in off_diagonal_pairs(8):
            assert abs(gaussian_curvature(g, t1, t2)) < 1e-8

    def test_pullback_preserves_curvature(self, two_mode):
        g = NullMetric.pullback(NullMetric.curved(2.0), two_mode)
        for t1, t2 in off_diagonal_pairs(6, margin=0.5):
            assert abs(gaussian_curvature(g, t1, t2) - 0.5) < 1e-5


class TestEmbedding:
    def test_equatorial_point(self):
        p = embed(np.pi / 2.0, -np.pi / 2.0, 1.0)
        assert abs(p.x - 0.0) < 1e-12
        assert abs(p.y - 1.0) < 1e-12
        assert abs(p.t - 0.0) < 1e-12

    def test_quadric_residual(self):
        for t1, t2 in off_diagonal_pairs(20):
            p = embed(t1, t2, 2.5)
            assert abs(p.quadric_residual()) < 1e-10

    def test_needs_positive_parameter(self):
        with pytest.raises(ValueError):
            embed(0.0, np.pi, -1.0)

    def test_pushforward_metric(self):
        # Finite differences of the embedding against the ambient form
        # dx^2 + dy^2 - dt^2: both null components vanish and the cross
        # component carries the full coefficient (F d theta1 d theta2 reads as
        # the symmetric product, so the tensor entry is F/2).
        c = 1.7
        h = 1e-5

        def coords(t1, t2):
            p = embed(t1, t2, c)
            return np.array([p.x, p.y, p.t])

        def minkowski(u, v):
            return u[0] * v[0] + u[1] * v[1] - u[2] * v[2]

        for t1, t2 in off_diagonal_pairs(10, margin=0.4):
            d1 = (coords(t1 + h, t2) - coords(t1 - h, t2)) / (2.0 * h)
            d2 = (coords(t1, t2 + h) - coords(t1, t2 - h)) / (2.0 * h)
            expect = NullMetric.curved(c).coefficient(t1, t2)
            scale = 1.0 + abs(expect)
            assert abs(minkowski(d1, d1)) < 1e-4 * scale
            assert abs(minkowski(d2, d2)) < 1e-4 * scale
            assert abs(2.0 * minkowski(d1, d2) - expect) < 1e-5 * scale

    def test_invalid_point_rejected(self):
        with pytest.raises(ValueError):
            SpacetimePoint(1.0, 1.0, 1.0, 5.0)


class TestEmbeddingArrays:
    """The array form of ``embed`` against the scalar ``SpacetimePoint`` form."""

    def test_bit_identical_to_scalar_on_grid(self):
        theta = circle_grid(256)
        th1, th2 = (a.ravel() for a in np.meshgrid(theta, theta, indexing="ij"))
        keep = np.abs(np.sin(0.5 * (th1 - th2))) > _DIAGONAL_GUARD
        th1, th2 = th1[keep], th2[keep]
        for c in (1.0, 2.5):
            x, y, t = embed(th1, th2, c)
            points = [embed(a, b, c) for a, b in zip(th1.tolist(), th2.tolist())]
            assert x.tolist() == [p.x for p in points]
            assert y.tolist() == [p.y for p in points]
            assert t.tolist() == [p.t for p in points]

    def test_broadcasts_a_scalar_row_angle(self):
        theta = circle_grid(64)[1:]
        x, y, t = embed(0.0, theta, 1.0)
        assert x.shape == y.shape == t.shape == theta.shape
        assert t.tolist() == [embed(0.0, b, 1.0).t for b in theta.tolist()]

    @pytest.mark.parametrize("c", [0.0, -1.0, float("nan")])
    def test_needs_positive_parameter(self, c):
        theta = circle_grid(64)[1:]
        with pytest.raises(ValueError, match="positive quadric parameter"):
            embed(0.0, np.pi, c)
        with pytest.raises(ValueError, match="positive quadric parameter"):
            embed(0.0, theta, c)

    def test_rejects_overflowing_quadric_residual(self):
        # sqrt(c)/sin(pi/512) squared overflows: the residual is nan, not small.
        theta = circle_grid(256)[1:]
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match="does not lie on the quadric"
        ):
            embed(0.0, theta, 1e305)
        # The scalar form and a point built directly take the same check.
        with pytest.raises(ValueError, match="does not lie on the quadric"):
            embed(0.0, float(theta[0]), 1e305)
        with pytest.raises(ValueError, match="does not lie on the quadric"):
            SpacetimePoint(1e200, 0.0, 0.0, 1.0)

    def test_rejects_points_within_the_diagonal_guard(self):
        near = np.array([1.0, 0.5 * _DIAGONAL_GUARD, 2.0])
        with pytest.raises(ValueError, match="too close to the diagonal"):
            embed(0.0, 0.5 * _DIAGONAL_GUARD, 1.0)
        with pytest.raises(ValueError, match="too close to the diagonal"):
            embed(0.0, near, 1.0)


class TestConformalFactor:
    def test_identity_gives_one(self):
        for t1, t2 in off_diagonal_pairs(10):
            assert abs(conformal_factor(CircleDiffeo.identity(), t1, t2) - 1.0) < 1e-14

    def test_rotation_gives_one(self):
        d = CircleDiffeo.rotation(1.3)
        for t1, t2 in off_diagonal_pairs(10):
            assert abs(conformal_factor(d, t1, t2) - 1.0) < 1e-12

    def test_lifts_give_one(self, rng):
        for _ in range(5):
            lift = mobius_lift(random_mobius(rng), TORUS)
            for t1, t2 in off_diagonal_pairs(6):
                assert abs(conformal_factor(lift, t1, t2) - 1.0) < 1e-9

    def test_multiplicative_cocycle(self, rng):
        d1 = random_diffeo(rng)
        d2 = random_diffeo(rng)
        joint = compose_pair = None
        from virasoro import compose

        c = compose(d1, d2)
        for t1, t2 in off_diagonal_pairs(8, margin=0.5):
            if abs(math.sin(0.5 * (d2.eval(t1) - d2.eval(t2)))) < 0.05:
                continue
            lhs = conformal_factor(c, t1, t2)
            rhs = conformal_factor(d1, d2.eval(t1), d2.eval(t2)) * conformal_factor(
                d2, t1, t2
            )
            assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(rhs))

    def test_matches_metric_ratio(self, two_mode):
        g = NullMetric.curved(1.0)
        pulled = NullMetric.pullback(g, two_mode)
        for t1, t2 in off_diagonal_pairs(8, margin=0.5):
            ratio = pulled.coefficient(t1, t2) / g.coefficient(t1, t2)
            assert abs(conformal_factor(two_mode, t1, t2) - ratio) < 1e-10


class TestDiagonalRestriction:
    def test_identity_limit_zero(self):
        res = diagonal_restriction(CircleDiffeo.identity(), 1.0, 0.7)
        assert abs(res.value) < 1e-10

    def test_matches_schwarzian_coefficient(self):
        d = flow(VectorFieldS1(0.0, (), (0.0, 1.0)), 0.05)
        q = schwarzian_modified(d)
        for theta in np.linspace(0.0, TWO_PI, 8, endpoint=False):
            res = diagonal_restriction(d, 1.0, theta)
            assert abs(res.value - float(q.eval(theta))) < 1e-5

    def test_linear_in_c(self):
        d = flow(VectorFieldS1(0.0, (), (0.0, 1.0)), 0.05)
        for theta in (0.4, 2.2, 4.9):
            one = diagonal_restriction(d, 1.0, theta).value
            three = diagonal_restriction(d, 3.0, theta).value
            assert abs(three - 3.0 * one) < 1e-8 * (1.0 + abs(three))

    def test_negative_c(self, two_mode):
        theta = 1.1
        q = float(schwarzian_modified(two_mode).eval(theta))
        res = diagonal_restriction(two_mode, -1.0, theta)
        assert abs(res.value + q) < 1e-5


class TestHessian:
    def test_identity(self):
        h, s, residual, passed = hessian_check(CircleDiffeo.identity(), 1.0)
        assert abs(h) < 1e-9 and abs(s) < 1e-13 and passed

    def test_lift_stays_flat(self, rng):
        lift = mobius_lift(random_mobius(rng, spread=0.3), TORUS)
        h, s, residual, passed = hessian_check(lift, 0.8)
        assert abs(h) < 1e-7 and abs(s) < 1e-9 and passed

    def test_second_mode_wobble(self):
        d = CircleDiffeo(0.0, (), (0.0, 0.2))
        for theta in np.linspace(0.0, TWO_PI, 16, endpoint=False):
            h, s, residual, passed = hessian_check(d, theta)
            assert passed, (theta, residual)
            assert residual < 1e-5


def _single_angle_levels(g, eps0=0.1, levels=5):
    """Richardson limit of ``g`` with one scalar call per level."""
    values = [g(eps0 / 2.0**j) for j in range(levels)]
    return richardson_limit(lambda steps: values, eps0, levels)


class TestSingleAngleLevels:
    # hessian_check and diagonal_restriction evaluate all levels in one
    # conformal_factor call, and each level keeps the bits of a scalar call
    # at its own angle pair: a kernel value's bits depend only on the
    # series, the orders and the angle (see TrigSeries).
    @pytest.mark.parametrize("max_degree", [4, 12])
    def test_bit_identical_to_scalar_reference(self, max_degree):
        rng = np.random.default_rng(3 + max_degree)
        for _ in range(4):
            d = random_diffeo(rng, max_degree=max_degree)
            for theta in rng.uniform(0.0, TWO_PI, 8).tolist():

                def hess(e):
                    return (conformal_factor(d, theta + e, theta - e) - 1.0) / (2.0 * e) ** 2

                def diag(e):
                    return 1.5 * (conformal_factor(d, theta + e, theta - e) - 1.0) * (0.8 / math.sin(e) ** 2)

                assert hessian_check(d, theta)[0] == 2.0 * _single_angle_levels(hess).value
                got = diagonal_restriction(d, 0.8, theta)
                ref = _single_angle_levels(diag)
                assert got.value == ref.value
                assert [r.tolist() for r in got.table] == [r.tolist() for r in ref.table]

    @pytest.mark.parametrize("max_degree", [4, 12])
    def test_bits_of_the_multi_pass_route(self, max_degree):
        # phi and phi' from one pass, and S_mod(theta) from one 1-angle jet,
        # give the bits of phi and phi' in a pass each and of the
        # modified Schwarzian's table read at theta.
        def conformal(d, th1, th2):
            pair = np.stack(np.broadcast_arrays(th1, th2))
            phi1, phi2 = d.eval(pair)
            s_img = np.sin(0.5 * (phi1 - phi2))
            slope1, slope2 = d.derivative(pair, 1)
            return slope1 * slope2 * np.sin(0.5 * (th1 - th2)) ** 2 / s_img**2

        rng = np.random.default_rng(40 + max_degree)
        for _ in range(4):
            d = random_diffeo(rng, max_degree=max_degree)
            th1, th2 = rng.uniform(0.0, TWO_PI, (2, 3, 5))
            assert np.array_equal(conformal_factor(d, th1, th2), conformal(d, th1, th2))
            for theta in rng.uniform(0.0, TWO_PI, 4).tolist():

                def hess(steps):
                    return (conformal(d, theta + steps, theta - steps) - 1.0) / (2.0 * steps) ** 2

                def diag(steps):
                    f = conformal(d, theta + steps, theta - steps)
                    return 1.5 * (f - 1.0) * (0.8 / np.array([math.sin(e) ** 2 for e in steps.tolist()]))

                h = 2.0 * richardson_limit(hess).value
                s = float(schwarzian_modified(d).eval(theta)) / 3.0
                assert hessian_check(d, theta) == (h, s, abs(h - s), abs(h - s) <= HESSIAN_TOL)
                got, ref = diagonal_restriction(d, 0.8, theta), richardson_limit(diag)
                assert (got.value, got.error_estimate, got.converged) == (ref.value, ref.error_estimate, ref.converged)
                assert [r.tolist() for r in got.table] == [r.tolist() for r in ref.table]

    def test_kernel_calls(self, monkeypatch):
        d = random_diffeo(np.random.default_rng(9), max_degree=12)
        pulled = NullMetric.pullback(NullMetric.curved(1.5), d)
        sizes = counting_kernel(monkeypatch)
        # One pass of phi and phi' on the stacked angle pairs of all five
        # levels; then the Schwarzian's value at theta, without its table.
        hessian_check(d, 0.7)
        assert sizes == [10, 1]
        del sizes[:]
        diagonal_restriction(d, 0.8, 0.7)
        assert sizes == [10]
        # A pullback evaluates both angle arrays in one call.
        del sizes[:]
        pulled.coefficient(np.array([0.1, 0.2, 0.3]), np.array([2.0, 3.0, 4.5]))
        assert sizes == [6]


class TestFlatCocycle:
    def test_rotation_vanishes(self):
        theta = np.linspace(0.0, TWO_PI, 9)
        assert np.max(np.abs(flat_cocycle(CircleDiffeo.rotation(0.7), theta))) < 1e-14

    def test_wobble_value(self, wobble):
        assert abs(flat_cocycle(wobble, 0.0) - (1.3**2 - 1.0)) < 1e-13


class TestGeneralMetric:
    def test_torus_matches_curved_one(self):
        g = NullMetric.curved(1.0)
        for t1, t2 in off_diagonal_pairs(12):
            assert abs(general_metric(TORUS, t1, t2) - g.coefficient(t1, t2)) < 1e-10

    def test_reference_point(self):
        assert abs(general_metric(TORUS, 0.0, np.pi) - 1.0) < 1e-12

    def test_symmetric(self):
        for structure in (TORUS, LINE):
            for t1, t2 in off_diagonal_pairs(6):
                a = general_metric(structure, t1, t2)
                b = general_metric(structure, t2, t1)
                assert abs(a - b) < 1e-10 * (1.0 + abs(a))

    def test_mobius_invariance(self, rng):
        for structure in (TORUS, LINE):
            m = random_mobius(rng, spread=0.3)
            lift = mobius_lift(m, structure)
            for t1, t2 in off_diagonal_pairs(6, margin=0.5):
                u1, u2 = lift.eval(t1), lift.eval(t2)
                if abs(math.sin(0.5 * (u1 - u2))) < 0.05:
                    continue
                pulled = (
                    general_metric(structure, u1, u2)
                    * lift.derivative(t1, 1)
                    * lift.derivative(t2, 1)
                )
                base = general_metric(structure, t1, t2)
                assert abs(pulled - base) < 1e-9 * (1.0 + abs(base))
