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

from .circle import CircleDiffeo, VectorFieldS1, bracket, compose, flow, inverse, _project_periodic
from .hyperboloid import NullMetric, _off_diagonal
from .numerics import (
    DEFAULT_GRID,
    TWO_PI,
    PeriodicSamples,
    TrigStack,
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
    if c == 0.0:
        return q.pullback(d)
    n = q.samples.size
    rows = d.series.grid_jet(n, (0, 1, 2, 3))
    return q._pullback(d, rows[:2])._plus_scaled_jet(_universal_leaf(d, structure), rows[1:], float(c))


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
    br = bracket(xi1, xi2)
    return float(c) * (
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

    Cost: one ``TrigStack`` pass of ``d`` (orders 0--2), ``xi2`` (orders
    0--1) and ``xi1`` on the stacked angle arrays ``theta + eps`` and
    ``theta - eps`` of all levels; no flow and no re-projection.
    """
    curved = NullMetric.curved(c)
    fields = TrigStack(((d.series, (0, 1, 2)), (xi2.series, (0, 1)), (xi1.series, (0,))))
    theta = circle_grid(grid)

    def integrals(eps):
        a = theta + eps[:, None]
        b = theta - eps[:, None]
        _off_diagonal(a, b)
        ab = np.stack((a, b))
        (p, p1, p2), (v, dv), (x,) = fields.jets(ab)
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
    c = float(c)
    if c == 0.0:
        return OrbitPoint(coadjoint_linear(d, QuadraticDifferential.constant(1.0, grid)), 0.0)
    return OrbitPoint(c * schwarzian_modified(d, grid), c)


# -- group-level structures (uniform density convention) ---------------------


def alpha_eval(d: CircleDiffeo, xi: VectorFieldS1, grid: int = DEFAULT_GRID) -> float:
    """Contact one-form of the slope cocycle at ``d`` on a right-translated field.

    ``(1/2) oint a (xi a + xi') d theta`` with ``a = phi''/phi'`` the
    coefficient of the affine cocycle ``A`` (``cocycle_A``).
    """
    a = cocycle_A(d, grid).samples.values
    v, dv = xi.series.grid_jet(grid, (0, 1))
    return 0.5 * circle_integral(PeriodicSamples(a * (v * a + dv)))


def _transport_field(psi: CircleDiffeo, xi: VectorFieldS1) -> VectorFieldS1:
    """Field generating ``psi^{-1} o flow(xi, s) o psi``: ``xi(psi theta)/psi'``."""

    def fn(theta):
        return xi.eval(psi.eval(theta)) / psi.derivative(theta, 1)

    const, a, b = _project_periodic(fn, max(64, 4 * (psi.modes + xi.modes + 8)))
    return VectorFieldS1(const, a, b)


def d_alpha_check(
    d: CircleDiffeo,
    xi1: VectorFieldS1,
    xi2: VectorFieldS1,
    grid: int = DEFAULT_GRID,
):
    """Exterior derivative of the contact one-form against its closed form.

    The left side differentiates ``alpha`` numerically on the two-parameter
    family ``(s1, s2) -> d o flow(xi1, s1) o flow(xi2, s2)`` with centered
    differences; the right side is
    ``<classical_schwarzian(d), [xi1, xi2]> + GF_uniform(xi1, xi2)``. Returns
    ``(left, right, residual, passed, unstable)`` where ``unstable`` flags a
    left side that moved by more than 10 percent under step halving.
    """

    def left_at(h):
        phi_p, phi_m = flow(xi1, +h), flow(xi1, -h)
        psi_p, psi_m = flow(xi2, +h), flow(xi2, -h)
        q_plus = alpha_eval(compose(d, phi_p), xi2, grid)
        q_minus = alpha_eval(compose(d, phi_m), xi2, grid)
        p_plus = alpha_eval(compose(d, psi_p), _transport_field(psi_p, xi1), grid)
        p_minus = alpha_eval(compose(d, psi_m), _transport_field(psi_m, xi1), grid)
        return (q_plus - q_minus) / (2.0 * h) - (p_plus - p_minus) / (2.0 * h)

    left = left_at(_FD_STEP)
    left_half = left_at(_FD_STEP / 2.0)
    unstable = abs(left_half - left) > 0.1 * max(abs(left), 1e-12)
    right = pairing(schwarzian_classical(d, grid), bracket(xi1, xi2), grid) + gelfand_fuchs(
        xi1, xi2, None, grid
    )
    residual = abs(left - right)
    passed = residual <= 1e-4 * (1.0 + abs(right))
    return left, right, residual, passed, unstable


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
    """Element of the centrally extended group: a diffeomorphism and a central coordinate."""

    diffeo: CircleDiffeo
    central: float


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
    return alpha_eval(e.diffeo, xi, grid) + float(tau)
