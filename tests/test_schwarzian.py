"""Schwarzian cocycles: classical, modified, chart-corrected, and their kin."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from virasoro import (
    LINE,
    TORUS,
    CircleDiffeo,
    MobiusElement,
    OneForm,
    PeriodicFunction,
    QuadraticDifferential,
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
from virasoro import numerics
from virasoro.numerics import PeriodicSamples, circle_grid
from conftest import counting_kernel, sup_gap, traced_peak_mb

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

    def test_reads_the_two_jet_in_one_pass(self, two_mode, monkeypatch):
        # phi, phi' and phi'' at theta0 come from one derivatives call.
        sizes = counting_kernel(monkeypatch)
        osculating_mobius(two_mode, LINE, 0.6)
        assert sizes == [1]

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


class TestSamplesOnlyField:
    def test_sum_memory_ceiling(self, two_mode):
        # A field without an evaluator is interpolated on the sum's grid:
        # 2048 angles x 1024 modes, baby steps and giant-step sums of about
        # 2 MB where a dense cos/sin table pair takes 34 MB.
        q = schwarzian_modified(two_mode, 2048)
        raw = QuadraticDifferential(PeriodicSamples(q.samples.values))
        total, peak_mb = traced_peak_mb(raw.__add__, q)
        assert np.max(np.abs(total.samples.values - 2.0 * q.samples.values)) < 1e-14
        assert peak_mb < 8.0


def _trig_leaf(c0, terms):
    """Band-limited leaf ``c0 + sum c_k cos(k theta + p_k)``, ``k <= 8``."""

    def fn(theta):
        out = np.full(np.shape(theta), c0)
        for k, (c, p) in enumerate(terms, start=1):
            out = out + c * np.cos(k * np.asarray(theta) + p)
        return out

    return fn


def _weighted_sum(terms, theta):
    """``sum w f(theta)`` over ``(w, f)`` terms, left to right, each
    product taken (``1.0 v`` is ``v`` bit for bit)."""
    total = None
    for w, fn in terms:
        value = w * fn(theta)
        total = value if total is None else total + value
    return total


def _reference_terms(node):
    """The ``(weight, leaf evaluator)`` terms of a tree in build order: a
    sum's right operand weighted by its sign, a scaling multiplying every
    weight below it."""
    kind = node[0]
    if kind == "leaf":
        _, fn, grid, analytic = node
        return [(1.0, fn if analytic else PeriodicSamples(fn(circle_grid(grid))).interpolate)]
    if kind == "scale":
        return [(node[1] * w, fn) for w, fn in _reference_terms(node[2])]
    _, sign, left, right = node
    return _reference_terms(left) + [(sign * w, fn) for w, fn in _reference_terms(right)]


def _reference_eval(node, theta):
    return _weighted_sum(_reference_terms(node), theta)


def _reference_grid(node):
    kind = node[0]
    if kind == "leaf":
        return node[2]
    if kind == "scale":
        return _reference_grid(node[2])
    return max(_reference_grid(node[2]), _reference_grid(node[3]))


def _reference_samples(node):
    """Samples on the node's grid: an operand on that grid gives its own
    samples, one on a coarser grid its recursive evaluation there."""
    if node[0] == "leaf":
        _, fn, grid, _ = node
        return fn(circle_grid(grid))
    n = _reference_grid(node)

    def on_grid(sub):
        return _reference_samples(sub) if _reference_grid(sub) == n else _reference_eval(sub, circle_grid(n))

    if node[0] == "scale":
        return node[1] * on_grid(node[2])
    _, sign, left, right = node
    return on_grid(left) + sign * on_grid(right)


def _build(node):
    kind = node[0]
    if kind == "leaf":
        _, fn, grid, analytic = node
        if analytic:
            return QuadraticDifferential.from_function(fn, grid)
        return QuadraticDifferential(PeriodicSamples(fn(circle_grid(grid))))
    if kind == "scale":
        s, inner = node[1], _build(node[2])
        return -inner if s == -1.0 else s * inner
    _, sign, left, right = node
    return _build(left) + _build(right) if sign > 0 else _build(left) - _build(right)


_leaves = st.tuples(
    st.just("leaf"),
    st.tuples(
        st.floats(min_value=-2.0, max_value=2.0),
        st.lists(
            st.tuples(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-3.0, max_value=3.0)),
            max_size=8,
        ),
    ).map(lambda c: _trig_leaf(c[0], c[1])),
    st.sampled_from([64, 128, 256]),
    st.booleans(),
)
_trees = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.tuples(st.just("add"), st.sampled_from([1.0, -1.0]), sub, sub),
        st.tuples(
            st.just("scale"),
            st.one_of(st.just(-1.0), st.floats(min_value=-3.0, max_value=3.0)),
            sub,
        ),
    ),
    max_leaves=12,
)


class TestNonFiniteAngles:
    """A density field refuses a non-finite angle before any kernel work."""

    @pytest.mark.parametrize("theta", [math.inf, np.array([0.3, math.nan])], ids=["inf", "nan-in-array"])
    @pytest.mark.parametrize("kind", ["jet", "pullback", "sum"])
    def test_refused_without_warnings(self, theta, kind, two_mode, monkeypatch):
        field = schwarzian_universal(two_mode, TORUS)
        if kind == "pullback":
            field = field.pullback(two_mode)
        elif kind == "sum":
            field = field + schwarzian_modified(two_mode)
        sizes = counting_kernel(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="angles must be finite"):
                field.eval(theta)
        assert sizes == []


class TestDensityArithmetic:
    """Sums, differences and scalings read the operands' cached samples and
    evaluate as the weighted sum of their leaves, in build order."""

    @given(tree=_trees, seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_recursive_reference(self, tree, seed):
        field = _build(tree)
        ref = _reference_samples(tree)
        assert field.samples.size == _reference_grid(tree)
        assert np.array_equal(field.samples.values, ref)
        theta = np.random.default_rng(seed).uniform(0.0, TWO_PI, 16)
        assert np.array_equal(field.eval(theta), _reference_eval(tree, theta))

    @pytest.mark.parametrize("leaf", ["jet", "pullback", "samples"])
    def test_scaled_and_right_nested_sums_evaluate_leaf_by_leaf(self, leaf):
        # 0.3*(a+b) evaluates as 0.3a + 0.3b and a-(b+c) as (a-b)-c; the
        # samples keep the rounding of the expression tree.
        rng = np.random.default_rng(30)
        g = _small_diffeo(rng, 3)

        def make():
            q = schwarzian_modified(_small_diffeo(rng, 4), 128)
            if leaf == "pullback":
                return q.pullback(g)
            return QuadraticDifferential(PeriodicSamples(q.samples.values)) if leaf == "samples" else q

        a, b, c = make(), make(), make()
        theta = rng.uniform(0.0, TWO_PI, 256)
        va, vb, vc = a.eval(theta), b.eval(theta), c.eval(theta)
        scaled, nested = 0.3 * (a + b), a - (b + c)
        assert np.array_equal(scaled.eval(theta), 0.3 * va + 0.3 * vb)
        assert np.array_equal(nested.eval(theta), va - vb - vc)
        sa, sb, sc = a.samples.values, b.samples.values, c.samples.values
        assert np.array_equal(scaled.samples.values, 0.3 * (sa + sb))
        assert np.array_equal(nested.samples.values, sa - (sb + sc))

    def test_scalar_eval_stays_scalar(self, wobble):
        q = 2.0 * schwarzian_classical(wobble) - schwarzian_modified(wobble)
        got = q.eval(0.0)
        assert isinstance(got, float)
        assert abs(got - (-0.3 / 1.3 - 0.5 * (1.3**2 - 1.0))) < 1e-12

    def test_deep_sum_evaluates_each_leaf_once(self):
        # A left chain of 498 terms raised RecursionError after quadratic
        # re-sampling when every sum nested the closures of its operands.
        calls = []

        def leaf(j):
            def fn(theta):
                calls.append(j)
                return np.cos(theta) + 1e-3 * j

            return fn

        terms = [QuadraticDifferential.from_function(leaf(j), 64) for j in range(2000)]
        assert calls == list(range(2000))
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        assert calls == list(range(2000))  # construction re-evaluates nothing
        theta = np.linspace(0.0, TWO_PI, 7)
        got = total.eval(theta)
        assert calls[2000:] == list(range(2000))  # one call per leaf
        expect = 2000.0 * np.cos(theta) + 1e-3 * (1999 * 2000 / 2)
        assert np.max(np.abs(got - expect)) < 1e-9
        grid = circle_grid(64)
        assert np.max(np.abs(total.samples.values - (2000.0 * np.cos(grid) + 1999.0))) < 1e-9

    def test_samples_only_operand_gives_its_samples(self, two_mode):
        # A field given by samples alone is read on its own grid from its
        # samples, not from its interpolant there.
        n = 128
        a = schwarzian_modified(two_mode, n)
        b = QuadraticDifferential(PeriodicSamples(np.sin(3.0 * circle_grid(n)) ** 3 + 0.1))
        assert np.array_equal(b.values_on(n), b.samples.values)
        for x, y in ((a, b), (b, a), (b, b)):
            assert np.array_equal((x + y).samples.values, x.samples.values + y.samples.values)
            assert np.array_equal((x - y).samples.values, x.samples.values - y.samples.values)
        assert np.array_equal((2.5 * b).samples.values, 2.5 * b.samples.values)
        # On a finer grid the interpolant is evaluated there.
        fine = a + QuadraticDifferential.constant(0.0, 2 * n)
        assert np.array_equal((b + fine).samples.values, b.eval(circle_grid(2 * n)) + fine.samples.values)

    @pytest.mark.parametrize("n", [66, 130, 256])
    def test_pullback_bits_of_the_two_pass_route(self, n, monkeypatch):
        # phi and phi' from one pass (on the grid's cached exponentials for
        # the samples) give the bits of an eval and a derivative call.
        rng = np.random.default_rng(n)
        probes = rng.uniform(-1.0, 7.0, (2, 3))
        for max_degree in (4, 12):
            d, d2 = random_diffeo(rng, max_degree=max_degree), random_diffeo(rng, max_degree=max_degree)
            fields = (
                schwarzian_modified(d2, n),
                OneForm.from_function(lambda t: 1.0 + 0.5 * np.sin(t) ** 3, n),
                PeriodicFunction(np.cos(circle_grid(n)) ** 2),
            )
            for q in fields:

                def fn(theta, q=q):
                    return q.eval(d.eval(theta)) * d.derivative(theta, 1) ** q.weight

                got = q.pullback(d)
                assert np.array_equal(got.samples.values, fn(circle_grid(n)))
                assert np.array_equal(got.eval(probes), fn(probes))
                assert got.eval(0.3) == fn(0.3)
        sizes = counting_kernel(monkeypatch)
        fields[0].pullback(d)
        # phi and phi' on the grid, then the Schwarzian at the images.
        assert sizes == [n, n]

    def test_universal_schwarzian_reads_the_slope_once(self, two_mode, monkeypatch):
        sizes = counting_kernel(monkeypatch)
        q = schwarzian_universal(two_mode, LINE, 64)
        got = q.eval(np.linspace(0.0, 1.0, 5))
        # One kernel pass of orders 1-3 for the samples and one per eval:
        # the slope serves the classical part and the chart term.
        assert sizes == [64, 5]
        for theta, values in ((circle_grid(64), q.samples.values), (np.linspace(0.0, 1.0, 5), got)):
            p1, p2, p3 = two_mode.derivatives(theta, (1, 2, 3))
            k = LINE.chart_schwarzian
            assert np.array_equal(values, p3 / p1 - 1.5 * (p2 / p1) ** 2 + k * (p1**2 - 1.0))


def _small_diffeo(rng, modes):
    """A lift of ``modes`` modes, slope within 0.3 of 1; no modes is a rotation."""
    n = np.arange(1.0, modes + 1.0)
    scale = 0.3 / max(1.0, float(np.sum(n / n**3)))
    return CircleDiffeo(float(rng.uniform(-1.0, 1.0)), *(scale * rng.uniform(-1.0, 1.0, (2, modes)) / n**3))


def _per_leaf(kind, d):
    """A jet leaf's value from its own ``CircleDiffeo`` derivatives, one
    kernel call per leaf: the evaluation that stacking must keep."""
    if kind in ("classical", "torus", "line"):
        k = {"classical": None, "torus": TORUS.chart_schwarzian, "line": LINE.chart_schwarzian}[kind]

        def fn(theta):
            p1, p2, p3 = d.derivatives(theta, (1, 2, 3))
            out = p3 / p1 - 1.5 * (p2 / p1) ** 2
            return out if k is None else out + k * (p1**2 - 1.0)

    elif kind == "E":

        def fn(theta):
            return np.log(d.derivative(theta, 1))

    else:

        def fn(theta):
            p1, p2 = d.derivatives(theta, (1, 2))
            return p2 / p1

    return fn


_FAMILIES = {
    "quadratic": (QuadraticDifferential, ("classical", "torus", "line")),
    "one-form": (OneForm, ("A",)),
    "function": (PeriodicFunction, ("E",)),
}


def _jet_field(kind, d, grid):
    if kind == "classical":
        return schwarzian_classical(d, grid)
    if kind in ("torus", "line"):
        return schwarzian_universal(d, TORUS if kind == "torus" else LINE, grid)
    return (cocycle_E if kind == "E" else cocycle_A)(d, grid)


def _random_program(rng, family, terms):
    """A field of ``terms`` leaves (jet leaves of lifts of 0 to 20 modes on
    grids 64 to 256, some pulled back, some kept as samples only) joined by
    sums, differences and scalings, with its per-leaf reference: ``(field,
    evaluate(theta), grid, samples)``. The reference evaluation sums each
    leaf's value times its accumulated weight, in build order. A field
    given by samples alone keeps them as they are and evaluates by its
    interpolant. An operand on the result's grid contributes its samples,
    one on a coarser grid its reference evaluation there."""
    cls, kinds = _FAMILIES[family]
    nodes = []
    for _ in range(terms):
        kind = kinds[rng.integers(len(kinds))]
        d = _small_diffeo(rng, int(rng.choice([0, 2, 3, 4, 7, 9, 12, 20])))
        grid = int(rng.choice([64, 128, 256]))
        field, ref = _jet_field(kind, d, grid), _per_leaf(kind, d)
        roll, samples = rng.random(), None
        if roll < 0.15:
            g = _small_diffeo(rng, 3)

            def ref(theta, inner=ref, g=g, w=cls.weight):
                return inner(g.eval(theta)) * g.derivative(theta, 1) ** w

            field = field.pullback(g)
        elif roll < 0.3:
            samples = values = ref(circle_grid(grid))
            field = cls(PeriodicSamples(values))

            def ref(theta, values=values):
                return PeriodicSamples(values).interpolate(theta)

        nodes.append((field, [(1.0, ref)], grid, ref(circle_grid(grid)) if samples is None else samples))
    while len(nodes) > 1:
        i = int(rng.integers(len(nodes) - 1))
        (a, ta, ga, sa), (b, tb, gb, sb) = nodes[i], nodes.pop(i + 1)
        sign = float(rng.choice([1.0, -1.0]))
        field, grid = (a + b if sign > 0 else a - b), max(ga, gb)
        on_a = sa if ga == grid else _weighted_sum(ta, circle_grid(grid))
        on_b = sb if gb == grid else _weighted_sum(tb, circle_grid(grid))
        nodes[i] = (field, ta + [(sign * w, f) for w, f in tb], grid, on_a + sign * on_b)
        if rng.random() < 0.3:
            s = float(rng.choice([-1.0, 0.5, -2.75]))
            field, weighted = (-field if s == -1.0 else s * field), nodes[i][1]
            nodes[i] = (field, [(s * w, f) for w, f in weighted], grid, s * nodes[i][3])
    field, weighted, grid, samples = nodes[0]
    return field, lambda theta: _weighted_sum(weighted, theta), grid, samples


class TestStackedPrograms:
    """A field's jet leaves are evaluated in one kernel pass, with the bits
    of one kernel call per leaf."""

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    @pytest.mark.parametrize("terms", [1, 2, 5, 8, 16, 31])
    def test_matches_per_leaf_evaluation(self, family, terms):
        rng = np.random.default_rng(terms * 7 + len(family))
        for _ in range(3):
            field, ref, grid, samples = _random_program(rng, family, terms)
            assert field.samples.size == grid
            assert np.array_equal(field.samples.values, samples)
            for shape in [(), (1,), (2,), (7,), (3, 4), (256,)]:
                theta = rng.uniform(-TWO_PI, 2.0 * TWO_PI, shape)
                theta = float(theta) if shape == () else theta
                got, want = field.eval(theta), ref(theta)
                # A scalar angle gives a Python float in every family.
                assert type(got) is (float if shape == () else type(want))
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_scalar_sum_takes_one_pass(self, monkeypatch):
        # A scalar angle takes the stacked pass too: one kernel pass of 1
        # angle for 31 leaves, with the bits of one evaluation per leaf.
        rng = np.random.default_rng(17)
        diffeos = [_small_diffeo(rng, int(m)) for m in rng.choice([2, 4, 7, 9, 20], 31)]
        total = schwarzian_modified(diffeos[0])
        for d in diffeos[1:]:
            total = total + schwarzian_modified(d)
        theta = float(rng.uniform(0.0, TWO_PI))
        sizes = counting_kernel(monkeypatch)
        got = total.eval(theta)
        assert sizes == [1]
        assert type(got) is float
        want = _per_leaf("torus", diffeos[0])(theta)
        for d in diffeos[1:]:
            want = want + _per_leaf("torus", d)(theta)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_deep_sum_takes_one_pass_with_one_product_per_layout(self, monkeypatch):
        # 31 terms of lifts with 2-7 modes (one Horner layout, padded to
        # 7), 9 modes (baby size 3) and 20 modes (baby size 5).
        rng = np.random.default_rng(31)
        terms = [schwarzian_modified(_small_diffeo(rng, int(m))) for m in rng.choice([2, 4, 7, 9, 20], 31)]
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        sizes = counting_kernel(monkeypatch)
        products = []
        power_sums = numerics._power_sums
        monkeypatch.setattr(numerics, "_power_sums", lambda z, c: products.append(c.shape) or power_sums(z, c))
        theta = rng.uniform(0.0, TWO_PI, 256)
        got = total.eval(theta)
        assert sizes == [256]
        assert sorted(shape[2] for shape in products) == [1, 3, 5]
        # The stacked rows of all 31 leaves, one combine for all of them.
        assert sum(shape[1] for shape in products) == 3 * 31
        monkeypatch.undo()
        want = terms[0].eval(theta)
        for t in terms[1:]:
            want = want + t.eval(theta)
        assert np.array_equal(got, want)
