"""Dual-space machinery of the centrally extended circle diffeomorphism group.

Pairings between quadratic differentials and vector fields, linear and affine
coadjoint actions, the Gelfand-Fuchs cocycle, the orbit symplectic form in
both its geometric (metric Lie derivative) and algebraic (cocycle)
readings, momentum maps, the Bott-Thurston group cocycle, and the contact
one-form of the extended group.

Conventions: tangent vectors to the diffeomorphism group are right
translated, so they are plain vector fields; the coadjoint action is an
anti-action, ``Coad(d1 o d2) = Coad(d2) o Coad(d1)``; the contact and
Bott-Thurston quantities use the uniform density on the circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import CircleDiffeo, VectorFieldS1, bracket, compose, flow, inverse
from .hyperboloid import NullMetric, _off_diagonal
from .numerics import (
    DEFAULT_GRID,
    TWO_PI,
    PeriodicSamples,
    _finite,
    circle_grid,
    circle_integral,
    richardson_limit,
)
from .projective import ProjectiveStructure, TORUS
from .schwarzian import (
    QuadraticDifferential,
    _universal_leaf,
    cocycle_A,
    cocycle_E,
    infinitesimal_schwarzian,
    schwarzian_classical,
    schwarzian_modified,
    schwarzian_universal,
)

# Flow time of the centered differences in ``d_alpha_check``.
_FD_STEP = 1e-3


def pairing(q: QuadraticDifferential, xi: VectorFieldS1, grid: int | None = None) -> float:
    """Dual pairing ``oint u(theta) xi(theta) d theta``."""
    n = max(grid or 0, q.samples.size, DEFAULT_GRID)
    return circle_integral(PeriodicSamples(q.values_on(n) * xi.eval(circle_grid(n))))


def coadjoint_linear(d: CircleDiffeo, q: QuadraticDifferential) -> QuadraticDifferential:
    """Linear coadjoint action: the pullback ``u(d theta) d'(theta)^2``."""
    return q.pullback(d)


def coadjoint_affine(
    d: CircleDiffeo,
    q: QuadraticDifferential,
    c: float,
    structure: ProjectiveStructure = TORUS,
) -> QuadraticDifferential:
    """Affine coadjoint action ``q -> pullback(q) + c * universal_schwarzian(d)``.

    Anti-action in the diffeomorphism: applying ``d1 o d2`` equals applying
    ``d1`` first, then ``d2``. At ``c = 0`` it reduces to the linear action.

    Cost: one kernel pass of ``d``'s orders 0--3 on the grid's cached
    exponentials serves the pullback's ``phi``, ``phi'`` and the
    Schwarzian's rows, and one evaluation of ``q`` at the image angles
    (one pass for a Schwarzian); the samples are those of the pullback plus
    ``c`` times ``schwarzian_universal``, bit for bit.
    """
    c = _finite("c", c)
    if c == 0.0:
        return q.pullback(d)
    n = q.samples.size
    rows = d.series.grid_jet(n, (0, 1, 2, 3))
    return q._pullback(d, rows[:2])._plus_scaled_jet(_universal_leaf(d, structure), rows[1:], c)


def gelfand_fuchs(
    xi1: VectorFieldS1,
    xi2: VectorFieldS1,
    structure: ProjectiveStructure | None = TORUS,
    grid: int = DEFAULT_GRID,
) -> float:
    """Gelfand-Fuchs cocycle ``-oint s(xi1) xi2 d theta``.

    ``s`` is the infinitesimal Schwarzian of the structure (``xi''' + xi'``
    on the torus, giving ``(n^3 - n) pi`` on same-frequency sine/cosine
    pairs); ``structure=None`` selects the uniform-density version ``xi'''``.
    """
    return -pairing(infinitesimal_schwarzian(xi1, structure, grid), xi2, grid)


def omega_c_algebraic(
    d: CircleDiffeo,
    xi1: VectorFieldS1,
    xi2: VectorFieldS1,
    c: float,
    structure: ProjectiveStructure = TORUS,
    grid: int = DEFAULT_GRID,
) -> float:
    """Orbit symplectic form from cocycle data.

    ``c * ( <universal_schwarzian(d), [xi1, xi2]> + GF(xi1, xi2) )``.
    """
    c = _finite("c", c)
    br = bracket(xi1, xi2)
    return c * (
        pairing(schwarzian_universal(d, structure, grid), br, grid)
        + gelfand_fuchs(xi1, xi2, structure, grid)
    )


def omega_c_geometric(
    d: CircleDiffeo,
    xi1: VectorFieldS1,
    xi2: VectorFieldS1,
    c: float,
    grid: int = DEFAULT_GRID,
    eps0: float = 0.1,
    levels: int = 5,
) -> float:
    """Orbit symplectic form from the metric geometry.

    Evaluates ``(3/2) oint_diag i_{xi1} L_{xi2} g`` for the pulled-back
    curved metric ``g``: the diagonal restriction comes from Richardson
    extrapolation of the symmetric family ``(theta + eps, theta - eps)``,
    and the integral from the rectangle rule. Must agree with the
    algebraic route on the torus structure.

    The Lie derivative is in closed form. The pulled-back coefficient is
    ``G = c d'(a) d'(b) / sin^2 u`` with ``u = (d(a) - d(b)) / 2``, so

        L_xi G = G [xi(a) (d''(a)/d'(a) - cot(u) d'(a))
                    + xi(b) (d''(b)/d'(b) + cot(u) d'(b)) + xi'(a) + xi'(b)].

    Cost: one ``jet`` each of ``d`` (orders 0--2), ``xi2`` (orders 0--1)
    and ``xi1`` on the stacked angle arrays ``theta + eps`` and ``theta -
    eps`` of all levels; no flow and no re-projection.
    """
    curved = NullMetric.curved(c)
    theta = circle_grid(grid)

    def integrals(eps):
        a = theta + eps[:, None]
        b = theta - eps[:, None]
        _off_diagonal(a, b)
        ab = np.stack((a, b))
        p, p1, p2 = d.series.jet(ab, (0, 1, 2))
        v, dv = xi2.series.jet(ab, (0, 1))
        x = xi1.series.at(ab)
        q, slope = ab + p, 1.0 + p1
        cot = 1.0 / np.tan(0.5 * (q[0] - q[1]))
        coef = curved._coefficient(q[0], q[1]) * slope[0] * slope[1]
        # L_xi2 G / G, from the bracket of the closed form above.
        log_lie = (
            v[0] * (p2[0] / slope[0] - cot * slope[0])
            + v[1] * (p2[1] / slope[1] + cot * slope[1])
            + dv[0]
            + dv[1]
        )
        integrand = 0.5 * coef * log_lie * (x[0] + x[1])
        return [circle_integral(PeriodicSamples(row)) for row in integrand]

    return 1.5 * richardson_limit(integrals, eps0, levels).value


def omega_0(
    d: CircleDiffeo,
    xi1: VectorFieldS1,
    xi2: VectorFieldS1,
    grid: int = DEFAULT_GRID,
) -> float:
    """Symplectic form of the flat orbit, ``<pullback of d theta^2, [xi1, xi2]>``."""
    return pairing(coadjoint_linear(d, QuadraticDifferential.constant(1.0, grid)), bracket(xi1, xi2), grid)


def _exp_coefficients(const: float, cos_c, sin_c) -> np.ndarray:
    """Coefficients ``f_n``, ``n = -M .. M``, of ``f = sum_n f_n e^(i n theta)``."""
    half = 0.5 * (np.asarray(cos_c, dtype=float) - 1j * np.asarray(sin_c, dtype=float))
    return np.concatenate([np.conj(half[::-1]), [const], half])


def _derivative_coefficients(f: np.ndarray) -> np.ndarray:
    m = f.size // 2
    return 1j * np.arange(-m, m + 1) * f


def omega_0_spectral(d: CircleDiffeo, xi1: VectorFieldS1, xi2: VectorFieldS1) -> float:
    """``omega_0`` without a grid: ``oint phi'^2 [xi1, xi2] d theta`` by Parseval.

    ``phi'^2`` and ``[xi1, xi2] = xi1 xi2' - xi2 xi1'`` are band-limited, so
    their exponential coefficients are exact convolutions of the input
    coefficients, and the integral is ``2 pi sum_n u_n v_(-n)``. Nothing is
    sampled, pulled back or re-projected, so it checks ``omega_0`` by a
    route that shares none of its steps.
    """
    slope = _derivative_coefficients(_exp_coefficients(0.0, d.cos, d.sin))
    slope[slope.size // 2] = 1.0
    x1 = _exp_coefficients(xi1.const, xi1.cos, xi1.sin)
    x2 = _exp_coefficients(xi2.const, xi2.cos, xi2.sin)
    br = np.convolve(x1, _derivative_coefficients(x2)) - np.convolve(x2, _derivative_coefficients(x1))
    u = np.convolve(slope, slope)
    return TWO_PI * float(np.convolve(u, br)[(u.size + br.size) // 2 - 1].real)


@dataclass(frozen=True)
class OrbitPoint:
    """Point of a coadjoint orbit: a quadratic differential plus a charge."""

    q: QuadraticDifferential
    charge: float


def momentum_map(d: CircleDiffeo, c: float, grid: int = DEFAULT_GRID) -> OrbitPoint:
    """Momentum of a diffeomorphism on the curvature-``c`` orbit.

    Nonzero ``c``: ``(c * modified_schwarzian(d), charge c)``, the diagonal
    restriction of ``(3/2)(pullback(g_c) - g_c)``. ``c = 0``: the flat orbit
    point ``(phi'^2 d theta^2, charge 0)``.
    """
    c = _finite("c", c)
    if c == 0.0:
        return OrbitPoint(coadjoint_linear(d, QuadraticDifferential.constant(1.0, grid)), 0.0)
    return OrbitPoint(c * schwarzian_modified(d, grid), c)


# -- group-level structures (uniform density convention) ---------------------


def alpha_eval(d: CircleDiffeo, xi: VectorFieldS1, grid: int = DEFAULT_GRID) -> float:
    """Contact one-form of the slope cocycle at ``d`` on a right-translated field.

    ``(1/2) oint a (xi a + xi') d theta`` with ``a = phi''/phi'`` the
    coefficient of the affine cocycle ``A`` (``cocycle_A``).
    """
    return _alpha(cocycle_A(d, grid).samples.values, *xi.series.grid_jet(grid, (0, 1)))


def _alpha(a, v, dv) -> float:
    """``alpha_eval`` from samples on one grid: the coefficient ``a`` of the
    affine cocycle, and the field's values ``v`` and slopes ``dv``."""
    return 0.5 * circle_integral(PeriodicSamples(a * (v * a + dv)))


def d_alpha_check(
    d: CircleDiffeo,
    xi1: VectorFieldS1,
    xi2: VectorFieldS1,
    grid: int = DEFAULT_GRID,
):
    """Exterior derivative of the contact one-form against its closed form.

    The left side differentiates ``alpha`` numerically on the two-parameter
    family ``(s1, s2) -> d o flow(xi1, s1) o flow(xi2, s2)`` with centered
    differences at steps ``h`` and ``h / 2``, combined by Richardson's rule
    ``(4 L(h/2) - L(h)) / 3`` to cancel their ``O(h^2)`` error; the right
    side is ``<classical_schwarzian(d), [xi1, xi2]> + GF_uniform(xi1,
    xi2)``. Returns ``(left, right, residual, passed)``, passed when the
    residual is at most ``1e-11 (1 + |right|)``. Measured ``residual / (1 +
    |right|)``: worst 9.3e-13 over seeds 0--39 of the tests' draws. On
    default ``(random_diffeo, random_vector_field, random_vector_field)``
    draws, two per seed over seeds 0--149, median 1.0e-13 and worst
    3.65e-11, so ``passed`` is False at seeds 7, 28 and 90.

    Each moved point ``d o phi``, ``phi`` a flow, is read on the grid by the
    chain rule from one jet of ``phi`` (orders 0--2) and one of ``d`` at
    ``phi`` (orders 1, 2): ``A(d o phi) = A(d)(phi) phi' + phi''/phi'``, so
    no composition is formed and a call re-projects only its 8 flows. At
    ``d o psi``, ``psi = flow(xi2, s2)``, ``xi1`` transports to ``X =
    xi1(psi) / psi'``, read with ``X' = xi1'(psi) - xi1(psi) psi'' / psi'^2``
    from the same jet of ``psi`` and one of ``xi1``.
    """
    theta = circle_grid(grid)
    v2, dv2 = xi2.series.grid_jet(grid, (0, 1))

    def moved(phi):
        """``phi``'s jet on the grid and the chain rule's ``A(d o phi)``."""
        p, p1, p2 = phi.derivatives(theta, (0, 1, 2))
        d1, d2 = d.derivatives(p, (1, 2))
        return p, p1, p2, d2 / d1 * p1 + p2 / p1

    def transported(p, p1, p2, a):
        x, dx = xi1.series.jet(p, (0, 1))
        return _alpha(a, x / p1, dx - x * p2 / (p1 * p1))

    def left_at(h):
        q = [_alpha(moved(flow(xi1, s))[3], v2, dv2) for s in (h, -h)]
        p = [transported(*moved(flow(xi2, s))) for s in (h, -h)]
        return (q[0] - q[1]) / (2.0 * h) - (p[0] - p[1]) / (2.0 * h)

    coarse = left_at(_FD_STEP)
    left = (4.0 * left_at(_FD_STEP / 2.0) - coarse) / 3.0
    right = pairing(schwarzian_classical(d, grid), bracket(xi1, xi2), grid) + gelfand_fuchs(
        xi1, xi2, None, grid
    )
    residual = abs(left - right)
    passed = residual <= 1e-11 * (1.0 + abs(right))
    return left, right, residual, passed


def _product(d1: CircleDiffeo, d2: CircleDiffeo, grid: int) -> tuple:
    """``(d1 o d2, B(d1, d2))``: the composition, formed once, and the
    Bott-Thurston cocycle ``B = -(1/2) oint E(d1 o d2) A(d2)`` read from it."""
    comp = compose(d1, d2)
    vals = cocycle_E(comp, grid).samples.values * cocycle_A(d2, grid).samples.values
    return comp, -0.5 * circle_integral(PeriodicSamples(vals))


def bott_thurston(d1: CircleDiffeo, d2: CircleDiffeo, grid: int = DEFAULT_GRID) -> float:
    """Bott-Thurston group cocycle.

    ``-(1/2) oint E(d1 o d2) A(d2)``, with ``E = log phi'`` and ``A =
    (phi''/phi') d theta`` the slope cocycles (``cocycle_E``,
    ``cocycle_A``) and the composed slope taken from the re-projected
    composition. It is the second value of the group law's one product
    (``_product``), which also serves ``virasoro_multiply`` and the
    two-cocycle check.
    """
    return _product(d1, d2, grid)[1]


def bott_thurston_direct(d1: CircleDiffeo, d2: CircleDiffeo, grid: int = 4 * DEFAULT_GRID) -> float:
    """Independent quadrature of the defining integral via the chain rule.

    Avoids the composed object entirely: ``log((d1 o d2)') = log d1'(d2) +
    log d2'`` pointwise, integrated at higher resolution.
    """
    theta = circle_grid(grid)
    p1, p2 = d2.derivatives(theta, (1, 2))
    log_slope = np.log(d1.derivative(d2.eval(theta), 1) * p1)
    a2 = p2 / p1
    return -0.5 * circle_integral(PeriodicSamples(log_slope * a2))


@dataclass(frozen=True)
class VirasoroElement:
    """Element of the centrally extended group: a diffeomorphism and a
    central coordinate, refused at construction when not finite."""

    diffeo: CircleDiffeo
    central: float

    def __post_init__(self):
        object.__setattr__(self, "central", _finite("central", self.central))


def virasoro_multiply(e1: VirasoroElement, e2: VirasoroElement) -> VirasoroElement:
    """Group law twisted by the Bott-Thurston cocycle:
    ``(phi, a)(psi, b) = (phi o psi, a + b + B(phi, psi))``, the composition
    and ``B`` from one ``compose`` (``_product``)."""
    comp, b = _product(e1.diffeo, e2.diffeo, DEFAULT_GRID)
    return VirasoroElement(comp, e1.central + e2.central + b)


def virasoro_inverse(e: VirasoroElement) -> VirasoroElement:
    """``(phi, a)^-1 = (phi^-1, -a)``.

    The group law gives the central term ``-a - B(phi, phi^-1)``, and
    ``B(phi, phi^-1)`` is identically 0: its integrand carries
    ``E(phi o phi^-1) = E(id) = log 1 = 0``. So no composition and no
    cocycle is formed.
    """
    return VirasoroElement(inverse(e.diffeo), -e.central)


def contact_form_eval(
    e: VirasoroElement, xi: VectorFieldS1, tau: float, grid: int = DEFAULT_GRID
) -> float:
    """Contact one-form of the extended group on the tangent ``(xi, tau)``."""
    tau = _finite("tau", tau)
    return alpha_eval(e.diffeo, xi, grid) + tau
