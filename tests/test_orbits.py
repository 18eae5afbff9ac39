"""Dual pairings, coadjoint actions, cocycles, symplectic forms, the group law."""

import numpy as np
import pytest

from virasoro import (
    LINE,
    TORUS,
    CircleDiffeo,
    OrbitPoint,
    QuadraticDifferential,
    VectorFieldS1,
    VirasoroElement,
    alpha_eval,
    bott_thurston,
    bott_thurston_direct,
    bracket,
    coadjoint_affine,
    cocycle_A,
    cocycle_E,
    coadjoint_linear,
    compose,
    contact_form_eval,
    d_alpha_check,
    flow,
    gelfand_fuchs,
    mobius_lift,
    momentum_map,
    omega_0,
    omega_0_spectral,
    omega_c_algebraic,
    omega_c_geometric,
    pairing,
    random_diffeo,
    random_mobius,
    random_vector_field,
    schwarzian_modified,
    schwarzian_universal,
    virasoro_inverse,
    virasoro_multiply,
)
from virasoro import checks, circle, orbits
from virasoro.numerics import (
    DEFAULT_GRID,
    TRIG_TABLE_MIN_MODES,
    PeriodicSamples,
    circle_grid,
    circle_integral,
    richardson_limit,
)
from virasoro.schwarzian import _universal
from conftest import counting_kernel, sup_gap

TWO_PI = 2.0 * np.pi


def harmonic_field(n, kind):
    coeff = np.zeros(n)
    coeff[-1] = 1.0
    if kind == "cos":
        return VectorFieldS1(0.0, coeff, np.zeros(n))
    return VectorFieldS1(0.0, np.zeros(n), coeff)


class TestPairing:
    def test_zero_differential(self):
        q = QuadraticDifferential.constant(0.0)
        assert pairing(q, VectorFieldS1(1.0, (0.5,), (0.5,))) == 0.0

    def test_matched_harmonics(self):
        q = QuadraticDifferential.from_function(lambda t: np.cos(2.0 * t))
        assert abs(pairing(q, harmonic_field(2, "cos")) - np.pi) < 1e-12

    def test_orthogonal_harmonics(self):
        q = QuadraticDifferential.from_function(lambda t: np.cos(2.0 * t))
        assert abs(pairing(q, harmonic_field(3, "sin"))) < 1e-13

    def test_bilinear(self, rng):
        q = QuadraticDifferential.from_function(lambda t: np.cos(t) + 0.3)
        x = random_vector_field(rng)
        y = random_vector_field(rng)
        combo = VectorFieldS1(
            2.0 * x.const + y.const,
            2.0 * np.pad(x.cos, (0, max(0, y.cos.size - x.cos.size)))
            + np.pad(y.cos, (0, max(0, x.cos.size - y.cos.size))),
            2.0 * np.pad(x.sin, (0, max(0, y.sin.size - x.sin.size)))
            + np.pad(y.sin, (0, max(0, x.sin.size - y.sin.size))),
        )
        lhs = pairing(q, combo)
        rhs = 2.0 * pairing(q, x) + pairing(q, y)
        assert abs(lhs - rhs) < 1e-11

    @pytest.mark.parametrize("grid", [None, 256, 512])
    def test_reads_q_on_its_own_grid_from_its_samples(self, two_mode, grid, monkeypatch):
        # On its own grid q gives its samples, with the bits of evaluating
        # it there: the one kernel pass is xi's. On a finer grid q takes a
        # pass too.
        q = schwarzian_modified(two_mode, 256)
        xi = VectorFieldS1(0.2, (0.1, -0.3), (0.4,))
        n = max(grid or 0, 256)
        theta = circle_grid(n)
        want = circle_integral(PeriodicSamples(q.eval(theta) * xi.eval(theta)))
        sizes = counting_kernel(monkeypatch)
        assert pairing(q, xi, grid) == want
        assert sizes == ([n] if n == 256 else [n, n])


class TestCoadjoint:
    def test_identity_acts_trivially(self, two_mode):
        q = schwarzian_modified(two_mode)
        out = coadjoint_linear(CircleDiffeo.identity(), q)
        assert sup_gap(out.eval, q.eval) < 1e-12

    def test_rotation_fixes_constant(self):
        q = QuadraticDifferential.constant(1.0)
        out = coadjoint_linear(CircleDiffeo.rotation(0.9), q)
        assert sup_gap(out.eval, lambda t: np.ones_like(t)) < 1e-12

    def test_anti_homomorphism(self, rng):
        q = QuadraticDifferential.from_function(lambda t: 1.0 + 0.5 * np.sin(t))
        d1 = random_diffeo(rng)
        d2 = random_diffeo(rng)
        joint = coadjoint_linear(compose(d1, d2), q)
        split = coadjoint_linear(d2, coadjoint_linear(d1, q))
        assert sup_gap(joint.eval, split.eval) < 1e-9

    def test_affine_reduces_at_zero_charge(self, rng, two_mode):
        q = QuadraticDifferential.from_function(lambda t: np.cos(t))
        a = coadjoint_affine(two_mode, q, 0.0)
        b = coadjoint_linear(two_mode, q)
        assert sup_gap(a.eval, b.eval) < 1e-12

    def test_lift_isotropy_at_origin(self, rng):
        zero = QuadraticDifferential.constant(0.0)
        for _ in range(4):
            lift = mobius_lift(random_mobius(rng), TORUS)
            out = coadjoint_affine(lift, zero, 1.0)
            assert out.max_abs() < 1e-9

    @pytest.mark.parametrize("n", [130, 256])
    @pytest.mark.parametrize("max_degree", [4, 12])
    def test_affine_bits_of_the_multi_pass_route(self, n, max_degree, monkeypatch):
        # One pass of orders 0-3 of d on the grid gives the bits of the
        # pullback's eval and derivative calls and of the Schwarzian's table.
        rng = np.random.default_rng(n + max_degree)
        probes = rng.uniform(-1.0, 7.0, 9)
        for structure in (TORUS, LINE):
            d, d2 = random_diffeo(rng, max_degree=max_degree), random_diffeo(rng, max_degree=max_degree)
            q = schwarzian_modified(d2, n)

            def pulled(theta):
                return q.eval(d.eval(theta)) * d.derivative(theta, 1) ** 2

            rows = d.series.jet(circle_grid(n), (1, 2, 3))
            table = _universal(rows, structure.chart_schwarzian)
            s = schwarzian_universal(d, structure, n)
            got = coadjoint_affine(d, q, 1.5, structure)
            assert np.array_equal(got.samples.values, pulled(circle_grid(n)) + 1.5 * table)
            assert np.array_equal(got.eval(probes), pulled(probes) + 1.5 * s.eval(probes))
            assert got.eval(0.3) == pulled(0.3) + 1.5 * s.eval(0.3)
        sizes = counting_kernel(monkeypatch)
        coadjoint_affine(d, q, 1.5, structure)
        # d's orders 0-3 on the grid, then q at the image angles.
        assert sizes == [n, n]

    def test_affine_anti_action(self, rng):
        q = QuadraticDifferential.from_function(lambda t: 0.4 * np.cos(t))
        c = 1.3
        d1 = random_diffeo(rng)
        d2 = random_diffeo(rng)
        joint = coadjoint_affine(compose(d1, d2), q, c)
        split = coadjoint_affine(d2, coadjoint_affine(d1, q, c), c)
        assert sup_gap(joint.eval, split.eval) < 1e-8


class TestGelfandFuchs:
    def test_frequency_table(self):
        for n in range(1, 9):
            got = gelfand_fuchs(harmonic_field(n, "sin"), harmonic_field(n, "cos"))
            assert abs(got - (n**3 - n) * np.pi) < 1e-8, n

    def test_skew(self, rng):
        x = random_vector_field(rng)
        y = random_vector_field(rng)
        assert abs(gelfand_fuchs(x, y) + gelfand_fuchs(y, x)) < 1e-10
        assert abs(gelfand_fuchs(x, x)) < 1e-12

    def test_rotation_field_degenerate(self, rng):
        x = random_vector_field(rng)
        assert abs(gelfand_fuchs(VectorFieldS1(1.0), x)) < 1e-12

    def test_sl2_kernel(self, sl2_fields):
        for a in sl2_fields:
            for b in sl2_fields:
                assert abs(gelfand_fuchs(a, b)) < 1e-10

    def test_cocycle_identity(self, rng):
        x = random_vector_field(rng, max_degree=2)
        y = random_vector_field(rng, max_degree=2)
        z = random_vector_field(rng, max_degree=2)
        total = (
            gelfand_fuchs(bracket(x, y), z)
            + gelfand_fuchs(bracket(y, z), x)
            + gelfand_fuchs(bracket(z, x), y)
        )
        assert abs(total) < 1e-9

    def test_uniform_density_variant(self):
        # Without the chart correction the n = 1 pair no longer degenerates.
        got = gelfand_fuchs(harmonic_field(1, "sin"), harmonic_field(1, "cos"), None)
        assert abs(got - np.pi) < 1e-10


class TestOmegaC:
    def test_identity_reduces_to_gf(self, rng):
        x = random_vector_field(rng)
        y = random_vector_field(rng)
        lhs = omega_c_algebraic(CircleDiffeo.identity(), x, y, 2.0)
        assert abs(lhs - 2.0 * gelfand_fuchs(x, y)) < 1e-10

    def test_six_pi_example(self):
        got = omega_c_algebraic(
            CircleDiffeo.identity(), harmonic_field(2, "sin"), harmonic_field(2, "cos"), 1.0
        )
        assert abs(got - 6.0 * np.pi) < 1e-10

    def test_antisymmetry(self, rng, two_mode):
        x = random_vector_field(rng)
        assert abs(omega_c_algebraic(two_mode, x, x, 1.5)) < 1e-10

    def test_c_linearity(self, rng, two_mode):
        x = random_vector_field(rng)
        y = random_vector_field(rng)
        one = omega_c_algebraic(two_mode, x, y, 1.0)
        two = omega_c_algebraic(two_mode, x, y, 2.0)
        assert abs(two - 2.0 * one) < 1e-8 * (1.0 + abs(two))

    def test_geometric_identity_degenerate_pair(self):
        x = harmonic_field(1, "sin")
        got = omega_c_geometric(CircleDiffeo.identity(), x, x, 1.0)
        assert abs(got) < 1e-6

    def test_two_path_agreement(self):
        rng = np.random.default_rng(17)
        for c in (1.0, -2.0):
            d = random_diffeo(rng, max_degree=3, amplitude=0.15)
            x = random_vector_field(rng, max_degree=2, amplitude=0.4)
            y = random_vector_field(rng, max_degree=2, amplitude=0.4)
            alg = omega_c_algebraic(d, x, y, c)
            geo = omega_c_geometric(d, x, y, c)
            assert abs(geo - alg) <= 1e-3 * (1.0 + abs(alg))

    def test_closed_form_two_path_residual(self):
        # The draws of test_two_path_agreement and of acceptance criterion
        # 07: the closed-form Lie derivative leaves at most 1.5e-9 (the
        # ±h flow pair left up to 1.9e-6). The check's bound stays 1e-3.
        def tuple_at(rng, c):
            d = random_diffeo(rng, max_degree=3, amplitude=0.15)
            x = random_vector_field(rng, max_degree=2, amplitude=0.4)
            y = random_vector_field(rng, max_degree=2, amplitude=0.4)
            return d, x, y, c

        rng = np.random.default_rng(17)
        tuples = [tuple_at(rng, c) for c in (1.0, -2.0)]
        rng = np.random.default_rng(7)
        tuples += [tuple_at(rng, float(rng.choice((1.0, -1.0, 2.0, -0.5)))) for _ in range(20)]
        for t in tuples:
            assert checks.symplectic_two_path(*t, 256, 0.1, 5) < 1e-7


def _curved_pulled_back(c, maps, a, b):
    """``c / sin^2`` of the half difference pulled back by ``maps``
    (innermost first), with one ``eval`` or ``derivative`` call per value."""
    if not maps:
        return c / np.sin(0.5 * (a - b)) ** 2
    *inner, m = maps
    return _curved_pulled_back(c, inner, m.eval(a), m.eval(b)) * m.derivative(a, 1) * m.derivative(b, 1)


def _omega_c_geometric_per_level(d, xi1, xi2, c, grid=256):
    """``omega_c_geometric`` evaluated one Richardson level at a time, with
    the closed-form Lie derivative written out from one ``eval`` or
    ``derivative`` call per value."""
    theta = circle_grid(grid)

    def integral_at(eps):
        a = theta + eps
        b = theta - eps
        sa, sb = d.derivative(a, 1), d.derivative(b, 1)
        cot = 1.0 / np.tan(0.5 * (d.eval(a) - d.eval(b)))
        log_lie = (
            xi2.eval(a) * (d.derivative(a, 2) / sa - cot * sa)
            + xi2.eval(b) * (d.derivative(b, 2) / sb + cot * sb)
            + xi2.derivative(a)
            + xi2.derivative(b)
        )
        integrand = 0.5 * _curved_pulled_back(c, (d,), a, b) * log_lie * (xi1.eval(a) + xi1.eval(b))
        return circle_integral(PeriodicSamples(integrand))

    return 1.5 * richardson_limit(lambda steps: [integral_at(e) for e in steps], 0.1, 5).value


def _omega_c_geometric_flow_route(d, xi1, xi2, c, grid=256, h=1e-3):
    """``omega_c_geometric`` by the flow route, one Richardson level at a
    time: the Lie derivative as the centered difference of the metric
    pulled back by ``flow(xi2, +-h)``."""
    fp, fm = flow(xi2, +h), flow(xi2, -h)
    theta = circle_grid(grid)

    def integral_at(eps):
        a = theta + eps
        b = theta - eps
        lie = (_curved_pulled_back(c, (d, fp), a, b) - _curved_pulled_back(c, (d, fm), a, b)) / (2.0 * h)
        integrand = 0.5 * lie * (xi1.eval(a) + xi1.eval(b))
        return circle_integral(PeriodicSamples(integrand))

    return 1.5 * richardson_limit(lambda steps: [integral_at(e) for e in steps], 0.1, 5).value


def _level_draws():
    """Degrees 8 to 20 put most inputs on the kernel's baby-step path."""
    rng = np.random.default_rng(41)
    for degree in (3, 8, 12, 16, 20, 20):
        d = random_diffeo(rng, max_degree=degree)
        x1 = random_vector_field(rng, max_degree=degree)
        x2 = random_vector_field(rng, max_degree=degree, amplitude=0.2)
        yield d, x1, x2


class TestOmegaCGeometricLevels:
    def test_bit_identical_to_per_level_reference(self):
        # The library evaluates d, xi2 and xi1 on 2 * 5 * 256 angles in one
        # kernel call where the reference evaluates each on 256: a kernel
        # value's bits depend only on the series, the orders and the angle
        # (see TrigSeries; the BLAS canary in test_numerics watches the
        # build).
        baby = 0
        for d, x1, x2 in _level_draws():
            baby += max(d.modes, x1.modes, x2.modes) >= TRIG_TABLE_MIN_MODES
            for c in (1.0, -2.0):
                assert omega_c_geometric(d, x1, x2, c) == _omega_c_geometric_per_level(d, x1, x2, c)
        assert baby >= 4

    def test_matches_flow_reference(self):
        # The flow route at h = 1e-3 sits on its noise floor, not its h^2
        # error: it differs from the closed form by at most 7.4e-7 of
        # 1 + |value| on these draws, and halving h there no longer shrinks
        # the difference. The closed form is 1e-10 from omega_c_algebraic.
        baby = 0
        for d, x1, x2 in _level_draws():
            baby += max(d.modes, x1.modes, x2.modes) >= TRIG_TABLE_MIN_MODES
            for c in (1.0, -2.0):
                got = omega_c_geometric(d, x1, x2, c)
                ref = _omega_c_geometric_flow_route(d, x1, x2, c)
                assert abs(got - ref) <= 1.5e-6 * (1.0 + abs(got))
        assert baby >= 4

    def test_flow_reference_converges_at_second_order(self):
        # Where the centered difference's h^2 error dominates (h from 4e-3
        # up), halving h cuts the flow route's distance from the closed form
        # by about 4: measured 3.8 to 4.2 on these draws.
        for d, x1, x2 in _level_draws():
            got = omega_c_geometric(d, x1, x2, 1.0)
            coarse, fine = (abs(got - _omega_c_geometric_flow_route(d, x1, x2, 1.0, h=h)) for h in (8e-3, 4e-3))
            assert 3.0 <= coarse / fine <= 5.0

    @pytest.mark.parametrize("grid", [64, 66], ids=["stacked", "per-array"])
    def test_kernel_calls_besides_the_flows(self, grid, monkeypatch):
        # There are no flows: d, xi2 and xi1 take one pass on both angle
        # arrays of all five levels, on grids divisible by 4 and of 2 mod 4
        # alike. The ids name the routes the flow pair once took on these
        # grids: one pass of both arrays, or one pass per array.
        rng = np.random.default_rng(5)
        d, x1, x2 = random_diffeo(rng), random_vector_field(rng), random_vector_field(rng)

        def forbidden(*args):
            raise AssertionError("omega_c_geometric must not flow or re-project")

        for module in (circle, orbits):
            monkeypatch.setattr(module, "flow", forbidden)
        monkeypatch.setattr(circle, "_project_periodic", forbidden)
        jets = counting_kernel(monkeypatch)
        omega_c_geometric(d, x1, x2, 1.0, grid=grid)
        assert jets == [2 * 5 * grid]


class TestOmegaZero:
    def test_reference_value(self):
        got = omega_0(
            CircleDiffeo.identity(), harmonic_field(1, "sin"), harmonic_field(1, "cos")
        )
        assert abs(got + TWO_PI) < 1e-12

    def test_degenerate_pair(self, rng, two_mode):
        x = random_vector_field(rng)
        assert abs(omega_0(two_mode, x, x)) < 1e-12

    def test_rotation_matches_identity(self, rng):
        x = random_vector_field(rng)
        y = random_vector_field(rng)
        a = omega_0(CircleDiffeo.identity(), x, y)
        b = omega_0(CircleDiffeo.rotation(1.2), x, y)
        assert abs(a - b) < 1e-10

    def test_two_path_against_coadjoint(self, rng):
        # omega_0 through the flat momentum map must equal the pairing of the
        # pulled-back unit differential with the bracket.
        for _ in range(5):
            d = random_diffeo(rng)
            x = random_vector_field(rng)
            y = random_vector_field(rng)
            direct = omega_0(d, x, y)
            q = coadjoint_linear(d, QuadraticDifferential.constant(1.0))
            other = pairing(q, bracket(x, y))
            assert abs(direct - other) < 1e-9 * (1.0 + abs(direct))


class TestOmegaZeroSpectral:
    def test_closed_forms(self):
        # phi = theta + e sin(theta) has phi'^2 = 1 + 2 e cos + e^2 cos^2, and
        # [1, sin] = cos, so omega_0 = 2 pi e.
        e = 0.3
        d = CircleDiffeo(0.0, (), (e,))
        got = omega_0_spectral(d, VectorFieldS1(1.0), harmonic_field(1, "sin"))
        assert abs(got - TWO_PI * e) < 1e-14
        ident = CircleDiffeo.identity()
        got = omega_0_spectral(ident, harmonic_field(1, "sin"), harmonic_field(1, "cos"))
        assert abs(got + TWO_PI) < 1e-14

    def test_matches_grid_route_on_many_modes(self, rng):
        # A 4-fold composition carries tens of modes. While phi'^2 [x, y]
        # stays below mode 256, the rectangle rule on 512 nodes is exact.
        d = random_diffeo(rng)
        for _ in range(3):
            d = compose(d, random_diffeo(rng))
        x = random_vector_field(rng)
        y = random_vector_field(rng)
        assert d.modes >= 16 and 2 * d.modes + x.modes + y.modes < 256
        assert abs(omega_0(d, x, y, 512) - omega_0_spectral(d, x, y)) < 1e-12


class TestMomentumMap:
    def test_identity_charged(self):
        p = momentum_map(CircleDiffeo.identity(), 1.0)
        assert p.charge == 1.0
        assert p.q.max_abs() < 1e-13

    def test_identity_flat(self):
        p = momentum_map(CircleDiffeo.identity(), 0.0)
        assert p.charge == 0.0
        assert sup_gap(p.q.eval, lambda t: np.ones_like(t)) < 1e-13

    def test_charged_value_is_scaled_schwarzian(self, two_mode):
        p = momentum_map(two_mode, 2.5)
        q = schwarzian_modified(two_mode)
        assert sup_gap(p.q.eval, lambda t: 2.5 * q.eval(t)) < 1e-11

    def test_flat_value_is_squared_slope(self, two_mode):
        p = momentum_map(two_mode, 0.0)
        assert sup_gap(p.q.eval, lambda t: two_mode.derivative(t, 1) ** 2) < 1e-11

    def test_equivariance_charged(self, rng):
        c = 1.0
        for _ in range(4):
            d1 = random_diffeo(rng)
            d2 = random_diffeo(rng)
            joint = momentum_map(compose(d1, d2), c)
            split = coadjoint_affine(d2, momentum_map(d1, c).q, c)
            assert sup_gap(joint.q.eval, split.eval) < 1e-8

    def test_equivariance_flat(self, rng):
        for _ in range(4):
            d1 = random_diffeo(rng)
            d2 = random_diffeo(rng)
            joint = momentum_map(compose(d1, d2), 0.0)
            split = coadjoint_linear(d2, momentum_map(d1, 0.0).q)
            assert sup_gap(joint.q.eval, split.eval) < 1e-8


class TestAlphaForm:
    def test_identity_and_rotation_vanish(self, rng):
        x = random_vector_field(rng)
        assert alpha_eval(CircleDiffeo.identity(), x) == 0.0 or abs(
            alpha_eval(CircleDiffeo.identity(), x)
        ) < 1e-14
        assert abs(alpha_eval(CircleDiffeo.rotation(0.8), x)) < 1e-14

    def test_resolution_refinement(self, wobble):
        x = VectorFieldS1(1.0)
        coarse = alpha_eval(wobble, x, grid=256)
        fine = alpha_eval(wobble, x, grid=512)
        assert abs(coarse - fine) < 1e-10

    def test_exterior_derivative_at_identity(self, rng):
        x = random_vector_field(rng, max_degree=2, amplitude=0.4)
        y = random_vector_field(rng, max_degree=2, amplitude=0.4)
        left, right, residual, passed = d_alpha_check(CircleDiffeo.identity(), x, y)
        assert passed
        # At the identity the closed form collapses to the uniform cocycle.
        assert abs(right - gelfand_fuchs(x, y, None)) < 1e-10

    def test_exterior_derivative_degenerate(self, two_mode, rng):
        x = random_vector_field(rng, max_degree=2, amplitude=0.4)
        left, right, residual, passed = d_alpha_check(two_mode, x, x)
        assert abs(left) < 1e-6 and abs(right) < 1e-10

    def test_exterior_derivative_generic(self, rng):
        d = random_diffeo(rng, max_degree=3, amplitude=0.15)
        x = random_vector_field(rng, max_degree=2, amplitude=0.4)
        y = random_vector_field(rng, max_degree=2, amplitude=0.4)
        left, right, residual, passed = d_alpha_check(d, x, y)
        assert passed, (left, right, residual)

    def test_flow_fault_fails_the_check(self, rng, monkeypatch):
        # s 1e-8 on cosine mode 2 of every flow(xi, s) moves the residual to
        # 1.7e-8 of 1 + |right|, against a bound of 1e-11. A fault that does
        # not depend on s cancels in a centred difference.
        d = random_diffeo(rng, max_degree=3, amplitude=0.15)
        x = random_vector_field(rng, max_degree=2, amplitude=0.4)
        y = random_vector_field(rng, max_degree=2, amplitude=0.4)
        assert d_alpha_check(d, x, y)[3]
        flow_fn = orbits.flow

        def faulty(xi, s):
            phi = flow_fn(xi, s)
            cos = np.zeros(max(phi.cos.size, 2))
            cos[: phi.cos.size] = phi.cos
            cos[1] += s * 1e-8
            return CircleDiffeo(phi.shift, cos, phi.sin)

        monkeypatch.setattr(orbits, "flow", faulty)
        left, right, residual, passed = d_alpha_check(d, x, y)
        assert not passed, (left, right, residual)

    @staticmethod
    def _recorded_check(d, x, y, grid, monkeypatch):
        """Run ``d_alpha_check`` and record, in call order, its flows as
        ``(xi, s, result, re-projections during the call)``, its ``_alpha``
        calls as ``(args, result)``, and its ``compose`` calls."""
        flows, alphas, projections, composes = [], [], [], []
        flow_fn, alpha_fn, project, compose_fn = orbits.flow, orbits._alpha, circle._project_periodic, orbits.compose

        def recording_flow(xi, s):
            start = len(projections)
            result = flow_fn(xi, s)
            flows.append((xi, s, result, len(projections) - start))
            return result

        def recording_alpha(*args):
            alphas.append((args, alpha_fn(*args)))
            return alphas[-1][1]

        def recording_project(*args):
            projections.append(args[1])
            return project(*args)

        def recording_compose(*args):
            composes.append(args)
            return compose_fn(*args)

        monkeypatch.setattr(orbits, "flow", recording_flow)
        monkeypatch.setattr(orbits, "_alpha", recording_alpha)
        monkeypatch.setattr(circle, "_project_periodic", recording_project)
        monkeypatch.setattr(orbits, "compose", recording_compose)
        d_alpha_check(d, x, y, grid)
        return flows, alphas, projections, composes

    @staticmethod
    def _reprojected_transport(x, psi):
        """``x`` transported by ``psi``, ``x(psi) / psi'``, re-projected."""
        return VectorFieldS1(
            *circle._project_periodic(
                lambda t: x.eval(psi.eval(t)) / psi.derivative(t, 1), max(64, 4 * (psi.modes + x.modes + 8))
            )
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_transported_field_in_closed_form(self, seed, monkeypatch):
        # The xi1 side of each step reads xi1 transported by psi = flow(xi2,
        # +-h) in closed form; the reference re-projects xi1(psi) / psi' and
        # reads it on the grid with the same coefficient a (worst 1.7e-14
        # apart over 240 draws at grids 64-256, alpha 3e-3 to 0.2). Only the
        # 8 flows re-project, one fit each: not a composition (none is
        # formed), not the bracket, not the field.
        rng = np.random.default_rng(seed)
        d = random_diffeo(rng, max_degree=3, amplitude=0.15)
        x, y = random_vector_field(rng, max_degree=3), random_vector_field(rng, max_degree=3)
        flows, alphas, projections, composes = self._recorded_check(d, x, y, 128, monkeypatch)
        assert len(projections) == 8
        assert [made for *_, made in flows] == [1] * 8
        assert composes == []
        # Per step: flows of x at +-h, then of y; alphas q+, q-, p+, p-.
        transported = [(psi, args, got) for (xi, _, psi, _), (args, got) in zip(flows, alphas) if xi is y]
        assert len(transported) == 4
        for psi, args, got in transported:
            field = self._reprojected_transport(x, psi)
            ref = orbits._alpha(args[0], *field.series.grid_jet(128, (0, 1)))
            assert abs(got - ref) <= 1e-13 * (1.0 + abs(ref))

    @pytest.mark.parametrize("grid", [64, 128, 256])
    @pytest.mark.parametrize("seed", range(3))
    def test_chain_rule_matches_the_composition_route(self, grid, seed, monkeypatch):
        # Each alpha of the check, read at d o phi by the chain rule, against
        # the route it replaced: alpha_eval of the re-projected composition
        # d o phi, with xi1's side transported by a re-projected field. The
        # flows are at +-1e-3 and +-5e-4. Worst measured gap 3.2e-14 of
        # 1 + |ref| over seeds 0-199 at grids 64, 128 and 256 (the
        # transported field alone: 5.8e-15); the chain rule reads only the
        # given series, so the rest is the compositions' fit.
        rng = np.random.default_rng(seed)
        d = random_diffeo(rng, max_degree=3, amplitude=0.15)
        x, y = random_vector_field(rng, max_degree=3), random_vector_field(rng, max_degree=3)
        flows, alphas, _, _ = self._recorded_check(d, x, y, grid, monkeypatch)
        assert len(alphas) == 8 and {s > 0 for _, s, _, _ in flows} == {True, False}
        for (xi, _, phi, _), (_, got) in zip(flows, alphas):
            field = y if xi is x else self._reprojected_transport(x, phi)
            ref = alpha_eval(compose(d, phi), field, grid)
            assert abs(got - ref) <= 3e-13 * (1.0 + abs(ref))


class TestBottThurston:
    def test_right_identity(self, rng):
        for _ in range(5):
            d = random_diffeo(rng)
            assert abs(bott_thurston(d, CircleDiffeo.identity())) < 1e-10

    def test_left_identity(self, rng):
        for _ in range(5):
            d = random_diffeo(rng)
            assert abs(bott_thurston(CircleDiffeo.identity(), d)) < 1e-10

    def test_rotations_flat(self):
        a = CircleDiffeo.rotation(0.4)
        b = CircleDiffeo.rotation(-1.7)
        assert abs(bott_thurston(a, b)) < 1e-12

    def test_group_two_cocycle(self, rng):
        for _ in range(6):
            d1 = random_diffeo(rng)
            d2 = random_diffeo(rng)
            d3 = random_diffeo(rng)
            lhs = bott_thurston(d1, d2) + bott_thurston(compose(d1, d2), d3)
            rhs = bott_thurston(d2, d3) + bott_thurston(d1, compose(d2, d3))
            assert abs(lhs - rhs) < 1e-8

    def test_dual_route(self, rng):
        for _ in range(4):
            d1 = random_diffeo(rng)
            d2 = random_diffeo(rng)
            a = bott_thurston(d1, d2)
            b = bott_thurston_direct(d1, d2)
            assert abs(a - b) < 1e-7


class TestSlopeCocycleRoute:
    """``bott_thurston`` and ``alpha_eval`` read the slope cocycles ``E``
    and ``A`` from ``schwarzian``: the same bits as the formulas written
    out with ``derivatives`` and ``jet``."""

    @pytest.mark.parametrize("grid", [66, 130, 256])
    @pytest.mark.parametrize("max_degree", [4, 12])
    def test_bits_of_the_inline_formulas(self, grid, max_degree):
        rng = np.random.default_rng(grid + max_degree)
        theta = circle_grid(grid)
        for _ in range(3):
            d1, d2, xi = random_diffeo(rng, max_degree), random_diffeo(rng, max_degree), random_vector_field(rng)
            p1, p2 = d2.derivatives(theta, (1, 2))
            log_slope = np.log(compose(d1, d2).derivative(theta, 1))
            assert np.array_equal(cocycle_E(compose(d1, d2), grid).samples.values, log_slope)
            assert np.array_equal(cocycle_A(d2, grid).samples.values, p2 / p1)
            ref = -0.5 * circle_integral(PeriodicSamples(log_slope * (p2 / p1)))
            assert bott_thurston(d1, d2, grid) == ref
            v, dv = xi.series.jet(theta, (0, 1))
            a = p2 / p1
            ref = 0.5 * circle_integral(PeriodicSamples(a * (v * a + dv)))
            assert alpha_eval(d2, xi, grid) == ref


class TestOneProduct:
    """The group law composes each pair once (``orbits._product``) and reads
    ``B`` from that composition; the inverse's central term is ``-a``."""

    @staticmethod
    def spy_compose(monkeypatch) -> list:
        calls = []

        def spy(outer, inner):
            calls.append((outer, inner))
            return circle.compose(outer, inner)

        for module in (orbits, checks):
            monkeypatch.setattr(module, "compose", spy)
        return calls

    def test_compose_calls(self, monkeypatch):
        from virasoro import cli

        calls = self.spy_compose(monkeypatch)
        cli._SUITES["bott-thurston"](cli.RunConfig(seed=0))
        assert len(calls) == 38
        calls.clear()
        d1, d2 = random_diffeo(np.random.default_rng(1)), random_diffeo(np.random.default_rng(2))
        virasoro_multiply(VirasoroElement(d1, 0.5), VirasoroElement(d2, 0.25))
        assert calls == [(d1, d2)]

    @pytest.mark.parametrize("grid", [66, 130, 256])
    @pytest.mark.parametrize("max_degree", [4, 12])
    def test_bits_of_the_composing_formulas(self, grid, max_degree):
        # The formulas that composed each pair beside ``bott_thurston``.
        def b(d1, d2, grid):
            vals = cocycle_E(compose(d1, d2), grid).samples.values * cocycle_A(d2, grid).samples.values
            return -0.5 * circle_integral(PeriodicSamples(vals))

        rng = np.random.default_rng(7 * grid + max_degree)
        for _ in range(3):
            d1, d2, d3 = (random_diffeo(rng, max_degree) for _ in range(3))
            assert bott_thurston(d1, d2, grid) == b(d1, d2, grid)
            lhs = b(d1, d2, grid) + b(compose(d1, d2), d3, grid)
            rhs = b(d2, d3, grid) + b(d1, compose(d2, d3), grid)
            assert checks.two_cocycle_identity(d1, d2, d3, grid) == abs(lhs - rhs)
            e = virasoro_multiply(VirasoroElement(d1, 0.3), VirasoroElement(d2, -0.7))
            comp = compose(d1, d2)
            assert e.central == 0.3 + -0.7 + b(d1, d2, DEFAULT_GRID)
            assert e.diffeo.shift == comp.shift
            assert np.array_equal(e.diffeo.cos, comp.cos) and np.array_equal(e.diffeo.sin, comp.sin)

    def test_inverse_central_term_without_composition(self, monkeypatch):
        # compose(d, inverse(d)) of this draw needs 11620 nodes, above the cap.
        d = random_diffeo(np.random.default_rng(21), min_slope=0.05)
        calls = self.spy_compose(monkeypatch)
        e = virasoro_inverse(VirasoroElement(d, 0.8))
        assert calls == [] and e.central == -0.8
        assert sup_gap(lambda t: d.eval(e.diffeo.eval(t)), lambda t: t) < 1e-12


class TestVirasoroGroup:
    def test_two_sided_identity(self, rng):
        e = VirasoroElement(CircleDiffeo.identity(), 0.0)
        v = VirasoroElement(random_diffeo(rng), 0.35)
        left = virasoro_multiply(e, v)
        right = virasoro_multiply(v, e)
        assert abs(left.central - v.central) < 1e-10
        assert abs(right.central - v.central) < 1e-10
        assert sup_gap(left.diffeo.eval, v.diffeo.eval) < 1e-10

    def test_central_extension_adds(self):
        a = VirasoroElement(CircleDiffeo.identity(), 1.25)
        b = VirasoroElement(CircleDiffeo.identity(), -0.5)
        assert abs(virasoro_multiply(a, b).central - 0.75) < 1e-12

    def test_associativity(self, rng):
        for _ in range(3):
            v1 = VirasoroElement(random_diffeo(rng), 0.1)
            v2 = VirasoroElement(random_diffeo(rng), -0.2)
            v3 = VirasoroElement(random_diffeo(rng), 0.3)
            left = virasoro_multiply(virasoro_multiply(v1, v2), v3)
            right = virasoro_multiply(v1, virasoro_multiply(v2, v3))
            assert abs(left.central - right.central) < 1e-7
            assert sup_gap(left.diffeo.eval, right.diffeo.eval) < 1e-7

    def test_central_elements_commute(self, rng):
        center = VirasoroElement(CircleDiffeo.identity(), 2.0)
        v = VirasoroElement(random_diffeo(rng), 0.4)
        ab = virasoro_multiply(center, v)
        ba = virasoro_multiply(v, center)
        assert abs(ab.central - ba.central) < 1e-10
        assert sup_gap(ab.diffeo.eval, ba.diffeo.eval) < 1e-9

    def test_inverse(self, rng):
        v = VirasoroElement(random_diffeo(rng), 0.8)
        w = virasoro_multiply(v, virasoro_inverse(v))
        assert abs(w.central) < 1e-9
        assert sup_gap(w.diffeo.eval, lambda t: t) < 1e-8


class TestContactForm:
    def test_pure_central_direction(self, two_mode):
        v = VirasoroElement(two_mode, 0.0)
        assert contact_form_eval(v, VectorFieldS1(0.0), 1.0) == 1.0

    def test_identity_base_point(self, rng):
        v = VirasoroElement(CircleDiffeo.identity(), 0.0)
        x = random_vector_field(rng)
        assert abs(contact_form_eval(v, x, 0.0)) < 1e-13

    def test_invariance_under_translation(self, rng):
        # Translating by a fixed element on the inner-composition side leaves
        # the form unchanged once the tangent is pushed through the group law:
        # the generator transports by conjugation and the central speed picks
        # up the derivative of the cocycle term, here taken by centered
        # differences. (Tangents are trivialized by inner composition with
        # flows, so the invariant translation is the one acting on that side.)
        h = 1e-4
        fixed = VirasoroElement(random_diffeo(rng, amplitude=0.15), 0.3)
        base = VirasoroElement(random_diffeo(rng, amplitude=0.15), -0.2)
        x = random_vector_field(rng, max_degree=2, amplitude=0.4)
        dt = 0.7

        before = contact_form_eval(base, x, dt)

        moved_p = VirasoroElement(compose(base.diffeo, flow(x, +h)), base.central + h * dt)
        moved_m = VirasoroElement(compose(base.diffeo, flow(x, -h)), base.central - h * dt)
        out_p = virasoro_multiply(moved_p, fixed)
        out_m = virasoro_multiply(moved_m, fixed)

        psi = fixed.diffeo
        pushed_field = VectorFieldS1(
            *circle._project_periodic(
                lambda t: x.eval(psi.eval(t)) / psi.derivative(t, 1), max(64, 4 * (psi.modes + x.modes + 8))
            )
        )
        dt_pushed = (out_p.central - out_m.central) / (2.0 * h)
        after = contact_form_eval(
            virasoro_multiply(base, fixed), pushed_field, dt_pushed
        )
        assert abs(after - before) < 1e-6 * (1.0 + abs(before))


class TestOrbitPoint:
    def test_fields(self, two_mode):
        p = momentum_map(two_mode, 1.5)
        assert isinstance(p, OrbitPoint)
        assert p.charge == 1.5
        assert p.q.samples.size >= 8
