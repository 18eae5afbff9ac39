"""Acceptance gate: one test per release criterion, at the pinned tolerance.

Every test prints a ``[PASS]``/``[FAIL]`` line with the measured value before
asserting, so a full run reads as a checklist. Tolerances here are contract
values; do not loosen them to make a failing build green.
"""

import math
import time

import numpy as np

from virasoro import (
    LINE,
    TORUS,
    CircleDiffeo,
    NullMetric,
    VectorFieldS1,
    VirasoroElement,
    bott_thurston,
    cartan_schwarzian_estimate,
    coadjoint_affine,
    coadjoint_linear,
    compose,
    conformal_factor,
    embed,
    flat_cocycle,
    gaussian_curvature,
    gelfand_fuchs,
    ghys_zero_count,
    hessian_check,
    mobius_lift,
    momentum_map,
    omega_0,
    omega_0_spectral,
    omega_c_algebraic,
    omega_c_geometric,
    random_diffeo,
    random_mobius,
    random_vector_field,
    schwarzian_universal,
    virasoro_multiply,
)

TWO_PI = 2.0 * np.pi


def _report(name: str, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {name}: {detail}")


def _off_diagonal(rng, count, margin=0.2):
    th1 = rng.uniform(0.0, TWO_PI, count)
    gap = rng.uniform(2.0 * margin, TWO_PI - 2.0 * margin, count)
    return th1, np.mod(th1 + gap, TWO_PI)


def _harmonic(n, kind):
    coeff = np.zeros(n)
    coeff[-1] = 1.0
    if kind == "cos":
        return VectorFieldS1(0.0, coeff, np.zeros(n))
    return VectorFieldS1(0.0, np.zeros(n), coeff)


def test_criterion_01_constant_curvature():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst_curved = 0.0
    for c in (1.0, -1.0, 2.0, -2.0, 0.5):
        th1, th2 = _off_diagonal(rng, 200)
        k = gaussian_curvature(NullMetric.curved(c), th1, th2)
        worst_curved = max(worst_curved, float(np.max(np.abs(k - 1.0 / c))))
    th1, th2 = _off_diagonal(rng, 200)
    worst_flat = float(np.max(np.abs(gaussian_curvature(NullMetric.flat(), th1, th2))))
    elapsed = time.perf_counter() - start
    ok = worst_curved <= 1e-6 and worst_flat <= 1e-8 and elapsed < 5.0
    _report(
        "curvature K=1/c",
        ok,
        f"curved sup {worst_curved:.3e} (tol 1e-6), flat sup {worst_flat:.3e} "
        f"(tol 1e-8), {elapsed:.2f}s (< 5s)",
    )
    assert worst_curved <= 1e-6
    assert worst_flat <= 1e-8
    assert elapsed < 5.0


def test_criterion_02_isometry_kernels():
    rng = np.random.default_rng(2)
    worst_schwarzian = 0.0
    worst_conformal = 0.0
    pairs = _off_diagonal(rng, 12, margin=0.3)
    for i in range(100):
        structure = TORUS if i % 2 == 0 else LINE
        lift = mobius_lift(random_mobius(rng), structure)
        worst_schwarzian = max(
            worst_schwarzian, schwarzian_universal(lift, structure, 512).max_abs()
        )
        if structure is TORUS:
            f = conformal_factor(lift, pairs[0], pairs[1])
            worst_conformal = max(worst_conformal, float(np.max(np.abs(f - 1.0))))
    theta = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    worst_rotation = max(
        float(np.max(np.abs(flat_cocycle(CircleDiffeo.rotation(b), theta))))
        for b in rng.uniform(-np.pi, np.pi, 20)
    )
    ok = worst_schwarzian <= 1e-9 and worst_rotation <= 1e-12 and worst_conformal <= 1e-9
    _report(
        "isometry kernels",
        ok,
        f"lift Schwarzian sup {worst_schwarzian:.3e} (tol 1e-9), rotation flat "
        f"cocycle {worst_rotation:.3e} (tol 1e-12), lift conformal factor "
        f"{worst_conformal:.3e} (tol 1e-9)",
    )
    assert worst_schwarzian <= 1e-9
    assert worst_rotation <= 1e-12
    assert worst_conformal <= 1e-9


def test_criterion_03_schwarzian_cocycle():
    rng = np.random.default_rng(3)
    theta = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    worst = 0.0
    for i in range(100):
        structure = TORUS if i % 2 == 0 else LINE
        d1 = random_diffeo(rng)
        d2 = random_diffeo(rng)
        joint = schwarzian_universal(compose(d1, d2), structure, 512)
        split = schwarzian_universal(d1, structure, 512).pullback(
            d2
        ) + schwarzian_universal(d2, structure, 512)
        worst = max(worst, float(np.max(np.abs(joint.eval(theta) - split.eval(theta)))))
    ok = worst <= 1e-8
    _report("schwarzian 1-cocycle", ok, f"sup residual {worst:.3e} over 100 pairs (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_04_transverse_hessian():
    rng = np.random.default_rng(4)
    worst = 0.0
    angles = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    for _ in range(10):
        d = random_diffeo(rng)
        for theta in angles:
            _, _, residual, _ = hessian_check(d, theta)
            worst = max(worst, residual)
    ok = worst <= 1e-5
    _report(
        "transverse hessian = S/3",
        ok,
        f"worst residual {worst:.3e} at 16 angles x 10 diffeos (tol 1e-5)",
    )
    assert worst <= 1e-5


def test_criterion_05_diagonal_restriction():
    from virasoro import diagonal_restriction, schwarzian_modified

    rng = np.random.default_rng(5)
    worst = 0.0
    for c in (1.0, -1.0, 2.0):
        d = random_diffeo(rng)
        q = schwarzian_modified(d)
        for theta in np.linspace(0.0, TWO_PI, 8, endpoint=False):
            res = diagonal_restriction(d, c, theta)
            worst = max(worst, abs(res.value - c * float(q.eval(theta))))
    ok = worst <= 1e-5
    _report(
        "diagonal restriction = c*S",
        ok,
        f"worst gap {worst:.3e} for c in {{1,-1,2}} (tol 1e-5)",
    )
    assert worst <= 1e-5


def test_criterion_06_gelfand_fuchs_table():
    worst_table = 0.0
    for n in range(1, 9):
        got = gelfand_fuchs(_harmonic(n, "sin"), _harmonic(n, "cos"))
        worst_table = max(worst_table, abs(got - (n**3 - n) * np.pi))
    span = (
        VectorFieldS1(1.0),
        VectorFieldS1(0.0, (1.0,), ()),
        VectorFieldS1(0.0, (), (1.0,)),
    )
    worst_span = max(
        abs(gelfand_fuchs(a, b)) for a in span for b in span
    )
    ok = worst_table <= 1e-8 and worst_span <= 1e-10
    _report(
        "gelfand-fuchs values",
        ok,
        f"(n^3-n)pi gap {worst_table:.3e} (tol 1e-8), sl2 span {worst_span:.3e} "
        f"(tol 1e-10)",
    )
    assert worst_table <= 1e-8
    assert worst_span <= 1e-10


def test_criterion_07_symplectic_two_path():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        c = float(rng.choice((1.0, -1.0, 2.0, -0.5)))
        d = random_diffeo(rng, max_degree=3, amplitude=0.15)
        xi1 = random_vector_field(rng, max_degree=2, amplitude=0.4)
        xi2 = random_vector_field(rng, max_degree=2, amplitude=0.4)
        alg = omega_c_algebraic(d, xi1, xi2, c)
        geo = omega_c_geometric(d, xi1, xi2, c)
        worst = max(worst, abs(geo - alg) / (1.0 + abs(alg)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 120.0
    _report(
        "symplectic two-path",
        ok,
        f"worst relative gap {worst:.3e} on 20 tuples (tol 1e-3), {elapsed:.1f}s (< 120s)",
    )
    assert worst <= 1e-3
    assert elapsed < 120.0


def test_criterion_08_flat_orbit():
    rng = np.random.default_rng(8)
    worst_two_path = 0.0
    worst_equivariance = 0.0
    theta = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    for _ in range(20):
        d = random_diffeo(rng)
        xi1 = random_vector_field(rng)
        xi2 = random_vector_field(rng)
        direct = omega_0(d, xi1, xi2)
        spectral = omega_0_spectral(d, xi1, xi2)
        worst_two_path = max(worst_two_path, abs(direct - spectral))
    for _ in range(10):
        d1 = random_diffeo(rng)
        d2 = random_diffeo(rng)
        joint = momentum_map(compose(d1, d2), 0.0)
        split = coadjoint_linear(d2, momentum_map(d1, 0.0).q)
        worst_equivariance = max(
            worst_equivariance,
            float(np.max(np.abs(joint.q.eval(theta) - split.eval(theta)))),
        )
        joint_c = momentum_map(compose(d1, d2), 1.0)
        split_c = coadjoint_affine(d2, momentum_map(d1, 1.0).q, 1.0)
        worst_equivariance = max(
            worst_equivariance,
            float(np.max(np.abs(joint_c.q.eval(theta) - split_c.eval(theta)))),
        )
    ok = worst_two_path <= 1e-9 and worst_equivariance <= 1e-8
    _report(
        "flat orbit",
        ok,
        f"omega_0 two-path {worst_two_path:.3e} (tol 1e-9), momentum equivariance "
        f"{worst_equivariance:.3e} (tol 1e-8)",
    )
    assert worst_two_path <= 1e-9
    assert worst_equivariance <= 1e-8


def test_criterion_09_bott_thurston():
    rng = np.random.default_rng(9)
    ident = CircleDiffeo.identity()
    worst_identity = 0.0
    for _ in range(10):
        d = random_diffeo(rng)
        worst_identity = max(
            worst_identity,
            abs(bott_thurston(d, ident)),
            abs(bott_thurston(ident, d)),
        )
    worst_cocycle = 0.0
    for _ in range(50):
        d1, d2, d3 = (random_diffeo(rng) for _ in range(3))
        lhs = bott_thurston(d1, d2) + bott_thurston(compose(d1, d2), d3)
        rhs = bott_thurston(d2, d3) + bott_thurston(d1, compose(d2, d3))
        worst_cocycle = max(worst_cocycle, abs(lhs - rhs))
    worst_assoc = 0.0
    for _ in range(5):
        v1 = VirasoroElement(random_diffeo(rng), 0.2)
        v2 = VirasoroElement(random_diffeo(rng), -0.1)
        v3 = VirasoroElement(random_diffeo(rng), 0.4)
        left = virasoro_multiply(virasoro_multiply(v1, v2), v3)
        right = virasoro_multiply(v1, virasoro_multiply(v2, v3))
        worst_assoc = max(worst_assoc, abs(left.central - right.central))
    ok = worst_identity <= 1e-10 and worst_cocycle <= 1e-8 and worst_assoc <= 1e-7
    _report(
        "bott-thurston",
        ok,
        f"identity pairs {worst_identity:.3e} (tol 1e-10), 2-cocycle "
        f"{worst_cocycle:.3e} on 50 triples (tol 1e-8), associativity "
        f"{worst_assoc:.3e} (tol 1e-7)",
    )
    assert worst_identity <= 1e-10
    assert worst_cocycle <= 1e-8
    assert worst_assoc <= 1e-7


def test_criterion_10_cartan_estimator_order():
    d = CircleDiffeo(0.1, (0.05, -0.02), (0.2, 0.03))
    orders = {}
    for structure in (TORUS, LINE):
        theta = 0.8
        target = float(schwarzian_universal(d, structure).eval(theta))
        eps_list = (0.02, 0.01, 0.005, 0.0025)
        errors = [
            abs(cartan_schwarzian_estimate(d, structure, theta, eps) - target)
            for eps in eps_list
        ]
        slope = float(
            np.polyfit(np.log(eps_list), np.log(np.maximum(errors, 1e-300)), 1)[0]
        )
        orders[structure.name] = slope
    ok = all(v >= 1.0 for v in orders.values())
    _report(
        "cartan estimator order",
        ok,
        f"empirical order torus {orders['torus']:.2f}, line {orders['line']:.2f} (>= 1)",
    )
    assert orders["torus"] >= 1.0
    assert orders["line"] >= 1.0


def test_criterion_11_ghys_count():
    rng = np.random.default_rng(11)
    lowest = None
    for _ in range(100):
        report = ghys_zero_count(random_diffeo(rng))
        assert not report.identically_zero
        lowest = report.count if lowest is None else min(lowest, report.count)
    ok = lowest is not None and lowest >= 4
    _report("ghys zero count", ok, f"minimum count {lowest} over 100 draws (>= 4)")
    assert lowest >= 4


def test_criterion_12_embedding_consistency():
    rng = np.random.default_rng(12)
    c = 1.7
    h = 1e-5
    worst_residual = 0.0
    worst_metric = 0.0

    def coords(t1, t2):
        p = embed(t1, t2, c)
        return np.array([p.x, p.y, p.t])

    th1, th2 = _off_diagonal(rng, 50, margin=0.3)
    for t1, t2 in zip(th1, th2):
        worst_residual = max(worst_residual, abs(embed(t1, t2, c).quadric_residual()))
        d1 = (coords(t1 + h, t2) - coords(t1 - h, t2)) / (2.0 * h)
        d2 = (coords(t1, t2 + h) - coords(t1, t2 - h)) / (2.0 * h)
        cross = 2.0 * (d1[0] * d2[0] + d1[1] * d2[1] - d1[2] * d2[2])
        expect = NullMetric.curved(c).coefficient(t1, t2)
        worst_metric = max(worst_metric, abs(cross - expect) / abs(expect))
    ok = worst_residual <= 1e-10 and worst_metric <= 1e-6
    _report(
        "embedding consistency",
        ok,
        f"quadric residual {worst_residual:.3e} (tol 1e-10), pushforward relative "
        f"gap {worst_metric:.3e} at 50 points (tol 1e-6)",
    )
    assert worst_residual <= 1e-10
    assert worst_metric <= 1e-6
