"""Acceptance gate: one test per release criterion, at the pinned tolerance.

The named checks that ``virasoro verify`` also runs, their residual
functions and their bounds live in ``virasoro.checks``; the tests draw their
own inputs and judge the worst residual with ``checks.report``. Checks that
only these tests run (rotation, conformal factor, diagonal restriction,
equivariance, associativity, Cartan order, embedding and the timings) keep
their bounds here.

Every test prints a ``[PASS]``/``[FAIL]`` line with the measured values
before asserting, so a full run reads as a checklist. Tolerances here are
contract values; do not loosen them to make a failing build green.
"""

import operator
import time

import numpy as np

from virasoro import (
    DEFAULT_GRID,
    LINE,
    TORUS,
    CircleDiffeo,
    NullMetric,
    VirasoroElement,
    cartan_schwarzian_estimate,
    checks,
    coadjoint_affine,
    coadjoint_linear,
    compose,
    conformal_factor,
    embed,
    flat_cocycle,
    mobius_lift,
    momentum_map,
    random_diffeo,
    random_mobius,
    random_vector_field,
    schwarzian_universal,
    virasoro_multiply,
)
from virasoro.checks import report

TWO_PI = 2.0 * np.pi

_COMPARE = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}


def _own(name: str, value: float, bound: float, comparison: str = "<=") -> dict:
    """A verdict, shaped as ``checks.report``'s, on a check only these tests run."""
    passed = _COMPARE[comparison](value, bound)
    return dict(name=name, value=float(value), bound=bound, comparison=comparison, passed=passed)


def _gate(title: str, verdicts) -> None:
    """Print the criterion's ``[PASS]``/``[FAIL]`` line, then assert each verdict."""
    detail = ", ".join(
        f"{v['name']} {v['value']:.3e} ({v['comparison']} {v['bound']:g})" for v in verdicts
    )
    print(f"[{'PASS' if all(v['passed'] for v in verdicts) else 'FAIL'}] {title}: {detail}")
    for v in verdicts:
        assert v["passed"], v


def _off_diagonal(rng, count, margin=0.2):
    th1 = rng.uniform(0.0, TWO_PI, count)
    gap = rng.uniform(2.0 * margin, TWO_PI - 2.0 * margin, count)
    return th1, np.mod(th1 + gap, TWO_PI)


def test_criterion_01_constant_curvature():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst_curved = 0.0
    for c in (1.0, -1.0, 2.0, -2.0, 0.5):
        th1, th2 = _off_diagonal(rng, 200)
        worst_curved = max(worst_curved, checks.curvature(NullMetric.curved(c), th1, th2, 1.0 / c))
    th1, th2 = _off_diagonal(rng, 200)
    worst_flat = checks.curvature(NullMetric.flat(), th1, th2, 0.0)
    elapsed = time.perf_counter() - start
    _gate(
        "curvature K=1/c",
        [
            report("curved-curvature[K=1/c]", worst_curved),
            report("flat-curvature[K=0]", worst_flat),
            _own("seconds", elapsed, 5.0, "<"),
        ],
    )


def test_criterion_02_isometry_kernels():
    rng = np.random.default_rng(2)
    worst_schwarzian = 0.0
    worst_conformal = 0.0
    pairs = _off_diagonal(rng, 12, margin=0.3)
    for i in range(100):
        structure = TORUS if i % 2 == 0 else LINE
        lift = mobius_lift(random_mobius(rng), structure)
        worst_schwarzian = max(worst_schwarzian, checks.projective_kernel(lift, structure, 512))
        if structure is TORUS:
            f = conformal_factor(lift, pairs[0], pairs[1])
            worst_conformal = max(worst_conformal, float(np.max(np.abs(f - 1.0))))
    theta = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    worst_rotation = max(
        float(np.max(np.abs(flat_cocycle(CircleDiffeo.rotation(b), theta))))
        for b in rng.uniform(-np.pi, np.pi, 20)
    )
    _gate(
        "isometry kernels",
        [
            report("kernel-of-projective-lifts", worst_schwarzian),
            _own("rotation flat cocycle", worst_rotation, 1e-12),
            _own("lift conformal factor", worst_conformal, 1e-9),
        ],
    )


def test_criterion_03_schwarzian_cocycle():
    rng = np.random.default_rng(3)
    worst = {TORUS.name: 0.0, LINE.name: 0.0}
    for i in range(100):
        structure = TORUS if i % 2 == 0 else LINE
        d1 = random_diffeo(rng)
        d2 = random_diffeo(rng)
        residual = checks.universal_cocycle(d1, d2, structure, 512)
        worst[structure.name] = max(worst[structure.name], residual)
    _gate(
        "schwarzian 1-cocycle over 100 pairs",
        [report(f"universal-cocycle[{name}]", value) for name, value in worst.items()],
    )


def test_criterion_04_transverse_hessian():
    rng = np.random.default_rng(4)
    worst = 0.0
    angles = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    for _ in range(10):
        d = random_diffeo(rng)
        for theta in angles:
            worst = max(worst, checks.transverse_hessian(d, theta, 0.1, 5))
    _gate(
        "transverse hessian = S/3 at 16 angles x 10 diffeos",
        [report("transverse-hessian[(1/3)S]", worst)],
    )


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
    _gate("diagonal restriction = c*S for c in {1,-1,2}", [_own("worst gap", worst, 1e-5)])


def test_criterion_06_gelfand_fuchs_table():
    worst_table = max(checks.gelfand_fuchs_mode(n, DEFAULT_GRID) for n in range(1, 9))
    span = checks.SL2_SPAN
    worst_span = max(checks.gelfand_fuchs_sl2(a, b, DEFAULT_GRID) for a in span for b in span)
    _gate(
        "gelfand-fuchs values",
        [
            report("gelfand-fuchs[(n^3-n)pi]", worst_table),
            report("gelfand-fuchs-sl2-kernel", worst_span),
        ],
    )


def test_criterion_07_symplectic_two_path():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        c = float(rng.choice((1.0, -1.0, 2.0, -0.5)))
        d = random_diffeo(rng, max_degree=3, amplitude=0.15)
        xi1 = random_vector_field(rng, max_degree=2, amplitude=0.4)
        xi2 = random_vector_field(rng, max_degree=2, amplitude=0.4)
        worst = max(worst, checks.symplectic_two_path(d, xi1, xi2, c, DEFAULT_GRID, 0.1, 5))
    elapsed = time.perf_counter() - start
    _gate(
        "symplectic two-path on 20 tuples",
        [report("symplectic-two-path", worst), _own("seconds", elapsed, 120.0, "<")],
    )


def test_criterion_08_flat_orbit():
    rng = np.random.default_rng(8)
    worst_two_path = 0.0
    worst_equivariance = 0.0
    theta = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    for _ in range(20):
        d = random_diffeo(rng)
        xi1 = random_vector_field(rng)
        xi2 = random_vector_field(rng)
        worst_two_path = max(worst_two_path, checks.flat_orbit_two_path(d, xi1, xi2, DEFAULT_GRID))
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
    _gate(
        "flat orbit",
        [
            report("flat-orbit-two-path", worst_two_path),
            _own("momentum equivariance", worst_equivariance, 1e-8),
        ],
    )


def test_criterion_09_bott_thurston():
    rng = np.random.default_rng(9)
    worst_identity = max(
        checks.identity_pairs(random_diffeo(rng), DEFAULT_GRID) for _ in range(10)
    )
    worst_cocycle = 0.0
    for _ in range(50):
        d1, d2, d3 = (random_diffeo(rng) for _ in range(3))
        worst_cocycle = max(worst_cocycle, checks.two_cocycle_identity(d1, d2, d3, DEFAULT_GRID))
    worst_assoc = 0.0
    for _ in range(5):
        v1 = VirasoroElement(random_diffeo(rng), 0.2)
        v2 = VirasoroElement(random_diffeo(rng), -0.1)
        v3 = VirasoroElement(random_diffeo(rng), 0.4)
        left = virasoro_multiply(virasoro_multiply(v1, v2), v3)
        right = virasoro_multiply(v1, virasoro_multiply(v2, v3))
        worst_assoc = max(worst_assoc, abs(left.central - right.central))
    _gate(
        "bott-thurston, 2-cocycle on 50 triples",
        [
            report("identity-pairs", worst_identity),
            report("two-cocycle-identity", worst_cocycle),
            _own("associativity", worst_assoc, 1e-7),
        ],
    )


def test_criterion_10_cartan_estimator_order():
    d = CircleDiffeo(0.1, (0.05, -0.02), (0.2, 0.03))
    verdicts = []
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
        verdicts.append(_own(f"empirical order {structure.name}", slope, 1.0, ">="))
    _gate("cartan estimator order", verdicts)


def test_criterion_11_ghys_count():
    rng = np.random.default_rng(11)
    counts = [checks.schwarzian_zero_count(random_diffeo(rng), DEFAULT_GRID) for _ in range(100)]
    assert None not in counts
    _gate("ghys zero count over 100 draws", [report("schwarzian-zero-count", min(counts))])


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
    _gate(
        "embedding consistency at 50 points",
        [
            _own("quadric residual", worst_residual, 1e-10),
            _own("pushforward relative gap", worst_metric, 1e-6),
        ],
    )
