"""Cross-ratios, developing curves, projective lifts, the cross-ratio estimator."""

import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from virasoro import (
    LINE,
    TORUS,
    CircleDiffeo,
    MobiusElement,
    ProjectivePoint,
    ProjectiveStructure,
    cartan_schwarzian_estimate,
    compose,
    cross_ratio,
    develop,
    mobius_lift,
    random_mobius,
    schwarzian_universal,
)
from virasoro.projective import _ROTATIONS, STRUCTURES
from conftest import needs_long_double, sup_gap, traced_peak_mb

TWO_PI = 2.0 * np.pi


def _exact_cross_ratio(z):
    """Numerator and denominator of the exact cross-ratio as integers.

    A finite point is scaled to the integer ``z * 2**1074``, a dilation that
    keeps the cross-ratio; the point at infinity is the pair ``(0, 1)``.
    """
    def integer(v):
        n, d = v.as_integer_ratio()
        return n * (2**1074 // d)

    scaled = [None if math.isinf(v) else integer(v) for v in z]

    def det(i, j):
        # y_i x_j - x_i y_j of the pairs (1, Z) and (0, 1).
        if scaled[i] is None or scaled[j] is None:
            return (scaled[i] is None) - (scaled[j] is None)
        return scaled[i] - scaled[j]

    return det(0, 2) * det(1, 3), det(0, 3) * det(1, 2)


def _ulps_from_exact(got, num, den):
    """Distance of ``got`` from ``num / den``, in units in the last place of
    the float nearest to it."""
    return abs(Fraction(got) - Fraction(num, den)) / Fraction(math.ulp(num / den))


def _normal(v):
    return sys.float_info.min <= abs(v) < math.inf


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
        inf = math.inf
        for z in [
            (1.0, 1.0, 1.0, 2.0),
            (1.0, 1.0, 2.0, 1.0),
            (1.0, 2.0, 1.0, 1.0),
            (2.0, 1.0, 1.0, 1.0),
            (inf, inf, -inf, 0.5),
            (0.5, inf, inf, inf),
            (-inf, 0.5, inf, inf),
            (3.0, 3.0, 3.0, 3.0),
            (inf, inf, inf, inf),
            # One difference overflows, so the products of the factors are
            # NaN; the factors still show the three coincident points.
            (1e308, 1e308, 1e308, -1e308),
        ]:
            with pytest.raises(ValueError, match="three distinct"):
                cross_ratio(*z)

    @pytest.mark.parametrize("slot", range(4))
    def test_nan_point_is_refused(self, slot):
        z = [1.0, 2.0, 3.0, math.inf]
        z[slot] = math.nan
        with pytest.raises(ValueError, match="^cross-ratio points must be real or [+]-inf, got nan$"):
            cross_ratio(*z)

    def test_two_coincident_pairs_are_finite(self):
        assert math.isfinite(cross_ratio(1.0, 1.0, 2.0, 2.0))
        assert math.isfinite(cross_ratio(math.inf, math.inf, 2.0, 2.0))

    def test_finite_points_take_the_determinant_bits(self):
        # For finite points the homogeneous determinants y_i x_j - x_i y_j
        # with x = 1 are the affine differences z_i - z_j bit for bit, so
        # the one determinant path gives the affine formula's bits, on
        # spread and nearly coincident points, numpy scalars included.
        rng = np.random.default_rng(11)
        for scale in (1.0, 1e-9, 1e8):
            for z in rng.standard_normal((300, 4)) * scale:
                det = [[z[i] * 1.0 - 1.0 * z[j] for j in range(4)] for i in range(4)]
                assert cross_ratio(*z) == det[0][2] * det[1][3] / (det[0][3] * det[1][2])
                assert cross_ratio(*z) == (z[0] - z[2]) * (z[1] - z[3]) / ((z[0] - z[3]) * (z[1] - z[2]))

    def test_overflowing_products_divide_the_factors_pairwise(self):
        # Each has a determinant product past the float range while every
        # factor is finite; multiplying first gave NaN, 0.0 or inf.
        for z, exact in [
            ((1e308, -1e308, 0.0, 1.0), 1.0),
            ((0.0, 0.0, 2.0, 1e308), 1.0),
            ((0.0, 1.0, -1.0, 1e308), 0.5),
            ((0.0, 1.0, 2.0, 1e308), 2.0),
            ((0.0, 2.0, 1e308, 1e-200), -2e200),
        ]:
            assert cross_ratio(*z) == exact
        # A value truly past the float range stays a signed infinity.
        assert cross_ratio(1e-300, 1e300, -1e300, 0.0) == math.inf

    def test_underflowing_denominator_takes_the_homogeneous_path(self):
        # Distinct points whose determinant products underflow; multiplying
        # first gave -inf and an error. -1.9999999999999996e200 is the
        # formula's own rounding, 1.15 ulp from the exact value (the nearest
        # float to which is -2e200).
        assert cross_ratio(0.0, 1e-200, 2e-200, 3e-200) == 4.0 / 3.0
        assert cross_ratio(0.0, 1e-100, 2e-100, 1e-300) == -1.9999999999999996e200
        z = (0.0, 1e-100, 2e-100, 1e-300)
        assert _ulps_from_exact(cross_ratio(*z), *_exact_cross_ratio(z)) <= 4
        # A denominator factor that is exactly zero gives a signed infinity,
        # also where the numerator product would underflow to zero.
        assert cross_ratio(0.0, 1.0, 2.0, 0.0) == -math.inf
        assert cross_ratio(0.0, 1e-200, 2e-200, 0.0) == -math.inf

    def test_one_exponent_rule_at_the_float_range(self):
        # A zero numerator factor gives the signed zero however small the
        # denominator; a difference that overflows is formed from the halves.
        zero = cross_ratio(0.0, 1e-200, 0.0, 1e-300)
        assert zero == 0.0 and math.copysign(1.0, zero) == -1.0
        assert cross_ratio(0.0, 1e308, -1e308, math.inf) == 0.5
        assert cross_ratio(0.0, 1e-200, 2e-200, 0.0) == -math.inf

    def test_range_sweep_against_exact_values(self):
        # Every 4-tuple of a 14-value grid spanning the float range, and
        # seeded draws that include zeros, infinities and near-max points,
        # against the exact rational value.
        grid = (0.0, 1.0, -1.0, 2.0, 3.0, 1e-300, -1e-300, 1e-200, 2e-200, 1e-100, 1e200, 1e308, -1e308, math.inf)
        rng = np.random.default_rng(29)
        kind = rng.random((4000, 4))
        draws = np.where(
            kind < 0.15,
            rng.choice([-1.0, 1.0], (4000, 4)) * sys.float_info.max * rng.uniform(0.5, 1.0, (4000, 4)),
            rng.choice([-1.0, 1.0], (4000, 4)) * 10.0 ** rng.uniform(-320.0, 308.25, (4000, 4)),
        )
        draws[kind > 0.95] = 0.0
        draws[(kind > 0.9) & (kind <= 0.95)] = math.inf
        configs = list(itertools.product(grid, repeat=4)) + [tuple(z) for z in draws.tolist()]
        for z in configs:
            if max(Counter(abs(v) if math.isinf(v) else v for v in z).values()) >= 3:
                with pytest.raises(ValueError, match="three distinct"):
                    cross_ratio(*z)
                continue
            got = cross_ratio(*z)
            num, den = _exact_cross_ratio(z)
            if num == 0 or den == 0:
                # A zero numerator factor, or a zero denominator factor.
                assert got == (0.0 if num == 0 else math.inf if num > 0 else -math.inf), z
                continue
            assert math.copysign(1.0, got) == (-1.0 if (num < 0) != (den < 0) else 1.0), z
            try:
                num / den
            except OverflowError:
                assert math.isinf(got), z
                continue
            assert _ulps_from_exact(got, num, den) <= 4, z
            if not any(map(math.isinf, z)):
                a, b, c, d = z
                factors = (a - c, b - d, a - d, b - c)
                products = (factors[0] * factors[1], factors[2] * factors[3])
                if all(map(_normal, factors + products)) and _normal(products[0] / products[1]):
                    assert got == products[0] / products[1], z

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


def _per_name_curve(name, theta, order):
    # The developing curves as written out per structure before they became
    # one curve in the wrapping number.
    half = np.pi / 2.0
    if name == "torus":
        x = 0.5**order * np.cos(theta / 2.0 + order * half)
        y = 2.0 * 0.5**order * np.sin(theta / 2.0 + order * half)
    else:
        x = np.cos(theta + order * half)
        y = np.sin(theta + order * half)
    return x, y


def _per_name_angle(name, x, y):
    if name == "torus":
        return 2.0 * (np.arctan2(y, 2.0 * x) % np.pi)
    return np.arctan2(y, x) % np.pi


class TestWrappingCurve:
    """Both structures are ``(cos(w theta), sin(w theta)/w)``, ``w = wraps/2``."""

    @pytest.mark.parametrize("structure", [TORUS, LINE], ids=["torus", "line"])
    def test_matches_the_per_name_formulas_bit_for_bit(self, structure):
        rng = np.random.default_rng(15)
        theta = np.concatenate([rng.uniform(-40.0, 40.0, 20000), [0.0, -0.0, np.pi, TWO_PI]])
        for order in range(4):
            x, y = structure.curve(theta, order)
            ref_x, ref_y = _per_name_curve(structure.name, theta, order)
            assert x.tobytes() == ref_x.tobytes()
            assert y.tobytes() == ref_y.tobytes()
        x, y = rng.normal(size=(2, 20000))
        assert structure.angle_of(x, y).tobytes() == _per_name_angle(structure.name, x, y).tobytes()

    def test_registry(self):
        assert STRUCTURES == {"torus": TORUS, "line": LINE}
        assert [(s.wraps, s.chart_schwarzian) for s in STRUCTURES.values()] == [(1, 0.5), (2, 2.0)]
        with pytest.raises(ValueError, match="unknown projective structure"):
            ProjectiveStructure("plane")


def _disk_parameter(m, structure):
    # The disk automorphism's alpha = rho e^(i psi), formed as mobius_lift
    # forms it.
    s = 2.0 / structure.wraps
    cayley = np.array([[-1.0, 1j * s], [1.0, 1j * s]], dtype=complex)
    w_mat = cayley @ m.matrix.astype(complex) @ np.linalg.inv(cayley)
    return -w_mat[0, 1] / w_mat[0, 0]


def _rotated_scaling(structure, s, b1, b2):
    # rotation(b1) . scaling(s) . rotation(b2) with circle rotations of the
    # structure, so that the mode count depends on s alone.
    def rotation(beta):
        if structure.wraps == 2:
            return MobiusElement.rotation(-beta)
        c, sn = math.cos(0.5 * beta), math.sin(0.5 * beta)
        return MobiusElement(np.array([[c, 2.0 * sn], [-0.5 * sn, c]]))

    return rotation(b1).compose(MobiusElement.scaling(s)).compose(rotation(b2))


class TestLiftPhases:
    @needs_long_double
    @pytest.mark.parametrize("structure", [TORUS, LINE], ids=["torus", "line"])
    def test_phases_match_long_double(self, structure):
        # Coefficient n is radial_n * (-sin(n psi), cos(n psi)). Rounding
        # n * psi in double is off by up to 2.3e-13 at n = 1223; n psi is
        # exact in the 64-bit mantissa of the long double reference.
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(6):
            m = _rotated_scaling(structure, 2.0, *rng.uniform(-math.pi, math.pi, 2))
            alpha = _disk_parameter(m, structure)
            lift = mobius_lift(m, structure)
            n = np.arange(1, lift.modes // structure.wraps + 1, dtype=float)
            radial = (2.0 / structure.wraps) * abs(alpha) ** n / n
            phase = n.astype(np.longdouble) * np.longdouble(math.atan2(alpha.imag, alpha.real))
            step = structure.wraps
            worst = max(
                worst,
                float(np.max(np.abs(lift.cos[step - 1 :: step] / radial + np.sin(phase)))),
                float(np.max(np.abs(lift.sin[step - 1 :: step] / radial - np.cos(phase)))),
            )
        assert worst < 1e-15

    @pytest.mark.parametrize(
        "structure, scalings",
        [(TORUS, (0.5, 1.5, 2.0)), (LINE, (0.5, 1.0, 1.5))],
        ids=["torus", "line"],
    )
    def test_rotated_lifts_sit_in_the_kernel(self, structure, scalings):
        # LINE at scaling(2) is left out: it reaches about 1.5e-9, where the
        # double evaluation of its 2446 modes is divided by min phi' = 0.018.
        rng = np.random.default_rng(7)
        for s in scalings:
            for _ in range(10):
                m = _rotated_scaling(structure, s, *rng.uniform(-math.pi, math.pi, 2))
                kernel = schwarzian_universal(mobius_lift(m, structure), structure).max_abs()
                assert kernel <= 1e-9, (s, kernel)


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

    def test_rejects_non_finite_theta(self, two_mode):
        # No eps can keep such a stencil off the chart pole.
        for theta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^theta must be finite$"):
                cartan_schwarzian_estimate(two_mode, TORUS, theta, 1e-3)

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

    def test_chart_schwarzian_matches_the_closed_form(self):
        # t'''/t' - 1.5 (t''/t')^2 from the chart derivatives, at 80 angles
        # less those near the chart pole, where the formula cancels.
        for structure in STRUCTURES.values():
            theta = np.linspace(0.0, TWO_PI, 81)[:-1] + 0.017
            x, y = structure.curve(theta)
            theta = theta[np.abs(x) / np.hypot(x, y) >= 0.35]
            _, t1, t2, t3 = structure.chart_derivs(theta)
            s = t3 / t1 - 1.5 * (t2 / t1) ** 2
            assert np.max(np.abs(s - structure.chart_schwarzian)) <= 1e-12

    def test_chart_is_the_value_of_chart_derivs(self):
        rng = np.random.default_rng(4)
        for structure in STRUCTURES.values():
            for rho in _ROTATIONS:
                theta = rng.uniform(-10.0, 10.0, 64)
                assert np.array_equal(structure.chart(theta, rho), structure.chart_derivs(theta, rho)[0])
                assert structure.chart(theta[0], rho) == structure.chart_derivs(theta[0], rho)[0]

    def test_angle_of_round_trip(self):
        theta = np.linspace(0.0, TWO_PI, 37)[:-1] + 0.001
        for structure in (TORUS, LINE):
            x, y = structure.curve(theta)
            back = structure.angle_of(x, y)
            gap = back - theta
            gap -= structure.deck * np.round(gap / structure.deck)
            assert np.max(np.abs(gap)) < 1e-12
