"""The named checks of ``virasoro verify`` and of the acceptance gate.

Each check has one pinned bound in ``BOUNDS`` and one residual function,
which measures the identity the check names on one drawn input. The ``verify``
suites and the acceptance tests draw the inputs, take the worst residual over
them (the lowest count, for ``schwarzian-zero-count``) and judge it with
``report``. The bounds are a contract: a failing check is mended in the
program, never by loosening its bound.
"""

from __future__ import annotations

import numpy as np

from .circle import CircleDiffeo, VectorFieldS1, compose, inverse
from .hyperboloid import HESSIAN_TOL, gaussian_curvature, hessian_check
from .numerics import circle_grid
from .orbits import _product, bott_thurston, bott_thurston_direct, gelfand_fuchs, omega_0
from .orbits import omega_0_spectral, omega_c_algebraic, omega_c_geometric
from .projective import TORUS
from .schwarzian import ghys_zero_count, schwarzian_universal

# name -> (bound, comparison): a value passes when ``value <comparison> bound``.
BOUNDS = {
    "universal-cocycle[torus]": (1e-8, "<="),
    "universal-cocycle[line]": (1e-8, "<="),
    "kernel-of-projective-lifts": (1e-9, "<="),
    "curved-curvature[K=1/c]": (1e-6, "<="),
    "flat-curvature[K=0]": (1e-8, "<="),
    "pullback-curvature[K=1/c]": (1e-5, "<="),
    "transverse-hessian[(1/3)S]": (HESSIAN_TOL, "<="),
    "gelfand-fuchs[(n^3-n)pi]": (1e-8, "<="),
    "gelfand-fuchs-sl2-kernel": (1e-10, "<="),
    "flat-orbit-two-path": (1e-9, "<="),
    "symplectic-two-path": (1e-3, "<="),
    "identity-pairs": (1e-10, "<="),
    "two-cocycle-identity": (1e-8, "<="),
    "chain-rule-route": (1e-7, "<="),
    "inverse-round-trip": (1e-12, "<="),
    "schwarzian-zero-count": (4.0, ">="),
}

# The sl(2) span: the fields 1, cos and sin, on which Gelfand-Fuchs vanishes.
SL2_SPAN = (VectorFieldS1(1.0), VectorFieldS1(0.0, (1.0,), ()), VectorFieldS1(0.0, (), (1.0,)))


def report(name: str, value: float) -> dict:
    """The verdict on ``value`` for the check ``name``, as ``verify`` prints it."""
    bound, comparison = BOUNDS[name]
    value = float(value)
    passed = bool(value <= bound if comparison == "<=" else value >= bound)
    return dict(name=name, value=value, bound=bound, comparison=comparison, passed=passed)


def universal_cocycle(d1, d2, structure, grid: int, theta) -> float:
    """``max |S(d1 o d2) - (S(d1) . d2 + S(d2))|`` at ``theta``, ``S`` the
    ``schwarzian_universal`` of ``structure``."""
    joint = schwarzian_universal(compose(d1, d2), structure, grid)
    split = schwarzian_universal(d1, structure, grid).pullback(d2)
    split = split + schwarzian_universal(d2, structure, grid)
    return float(np.max(np.abs(joint.eval(theta) - split.eval(theta))))


def projective_kernel(lift: CircleDiffeo, structure, grid: int) -> float:
    """``max |S(lift)|``: the projective lifts of ``structure`` are its kernel."""
    return schwarzian_universal(lift, structure, grid).max_abs()


def curvature(metric, th1, th2, expected: float) -> float:
    """``max |K - expected|`` of the metric's Gaussian curvature at the pairs."""
    return float(np.max(np.abs(gaussian_curvature(metric, th1, th2) - expected)))


def transverse_hessian(d: CircleDiffeo, theta: float, eps0: float, levels: int) -> float:
    """``|Hessian across the diagonal - S(d)/3|`` at ``theta`` (``hessian_check``)."""
    return hessian_check(d, theta, eps0, levels)[2]


def gelfand_fuchs_mode(n: int, grid: int) -> float:
    """``|GF(sin n theta, cos n theta) - (n^3 - n) pi|`` on the torus."""
    harmonic = np.eye(n)[-1]
    sin_n = VectorFieldS1(0.0, np.zeros(n), harmonic)
    cos_n = VectorFieldS1(0.0, harmonic, np.zeros(n))
    return abs(gelfand_fuchs(sin_n, cos_n, TORUS, grid) - (n**3 - n) * np.pi)


def gelfand_fuchs_sl2(xi1: VectorFieldS1, xi2: VectorFieldS1, grid: int) -> float:
    """``|GF(xi1, xi2)|`` on the torus, zero on ``SL2_SPAN``."""
    return abs(gelfand_fuchs(xi1, xi2, TORUS, grid))


def flat_orbit_two_path(d, xi1, xi2, grid: int) -> float:
    """``|omega_0 - omega_0_spectral|``: quadrature against exact Parseval."""
    return abs(omega_0(d, xi1, xi2, grid) - omega_0_spectral(d, xi1, xi2))


def symplectic_two_path(d, xi1, xi2, c: float, grid: int, eps0: float, levels: int) -> float:
    """``|geometric - algebraic| / (1 + |algebraic|)`` of the orbit form at charge ``c``."""
    alg = omega_c_algebraic(d, xi1, xi2, c, TORUS, grid)
    geo = omega_c_geometric(d, xi1, xi2, c, grid, eps0=eps0, levels=levels)
    return abs(geo - alg) / (1.0 + abs(alg))


def identity_pairs(d: CircleDiffeo, grid: int) -> float:
    """``max(|B(d, id)|, |B(id, d)|)`` of the Bott-Thurston cocycle ``B``."""
    ident = CircleDiffeo.identity()
    return max(abs(bott_thurston(d, ident, grid)), abs(bott_thurston(ident, d, grid)))


def two_cocycle_identity(d1, d2, d3, grid: int) -> float:
    """``|B(d1, d2) + B(d1 o d2, d3) - B(d2, d3) - B(d1, d2 o d3)|``."""
    d12, b12 = _product(d1, d2, grid)
    d23, b23 = _product(d2, d3, grid)
    return abs(b12 + bott_thurston(d12, d3, grid) - (b23 + bott_thurston(d1, d23, grid)))


def chain_rule_route(d1, d2, grid: int) -> float:
    """``|B(d1, d2) - bott_thurston_direct(d1, d2)|``: composed slope against chain rule."""
    return abs(bott_thurston(d1, d2, grid) - bott_thurston_direct(d1, d2))


def inverse_round_trip(d: CircleDiffeo, grid: int) -> float:
    """``max |phi(phi^-1(theta)) - theta|`` of ``inverse`` on ``circle_grid(grid)``."""
    theta = circle_grid(grid)
    return float(np.max(np.abs(d.eval(inverse(d).eval(theta)) - theta)))


def schwarzian_zero_count(d: CircleDiffeo, grid: int):
    """Sign changes of the modified Schwarzian (Ghys: at least four), None if it is zero."""
    return ghys_zero_count(d, grid).count
