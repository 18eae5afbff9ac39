"""Projective structures on the circle, cross-ratios, and Mobius lifts.

A structure is given by a developing curve ``theta -> (x(theta), y(theta))``
into homogeneous coordinates, with affine chart value ``t = y / x``. Both
supported curves have unit Wronskian ``x y' - x' y = 1``, which gives exact
closed forms for the chart derivatives and the chart Schwarzian
``S = -2 x'' / x``. Cross-ratios are computed from 2x2 determinants of
homogeneous pairs, so points at infinity need no special casing, and from
the determinants' mantissas and exponents apart, so no intermediate leaves
the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import CircleDiffeo, MobiusElement
from .numerics import TWO_PI, _finite

_ROTATIONS = (0.0, np.pi / 4.0, np.pi / 2.0, 3.0 * np.pi / 4.0)


# How often each named structure's developing curve wraps the projective line.
_WRAPS = {"torus": 1, "line": 2}


class ProjectiveStructure:
    """Projective structure on the circle ('torus' or 'line').

    Both develop by ``(cos(w theta), sin(w theta) / w)`` with ``w = wraps/2``:
    affine chart ``tan(w theta) / w`` and chart Schwarzian ``2 w^2``. The
    torus structure (``w = 1/2``, chart Schwarzian 1/2) wraps the projective
    line once; the line structure (``w = 1``, chart Schwarzian 2) wraps it
    twice.
    """

    __slots__ = ("name", "chart_schwarzian", "wraps")

    def __init__(self, name: str) -> None:
        if name not in _WRAPS:
            raise ValueError(f"unknown projective structure {name!r}")
        self.name = name
        self.wraps = _WRAPS[name]
        self.chart_schwarzian = 0.5 * self.wraps**2

    # -- developing curve -------------------------------------------------

    def curve(self, theta, order: int = 0):
        """Component ``(x, y)`` of the developing curve or a derivative.

        The curve is a pure cosine/sine pair, so a derivative only shifts the
        phase and scales by ``w``. Every factor is a power of two.
        """
        w = 0.5 * self.wraps
        phase = w * np.asarray(theta, dtype=float) + order * (np.pi / 2.0)
        return w**order * np.cos(phase), (w**order / w) * np.sin(phase)

    def angle_of(self, x, y):
        """Angle in ``[0, deck)`` whose developed ray matches ``(x, y)``.

        ``deck`` is ``2 pi / wraps``: the line curve covers the projective
        line twice.
        """
        w = 0.5 * self.wraps
        return (np.arctan2(y, x / w) % np.pi) / w

    @property
    def deck(self) -> float:
        """Period of the angle ambiguity of ``angle_of``."""
        return TWO_PI / self.wraps

    # -- affine charts ----------------------------------------------------

    def _rotated(self, theta, rotation: float, order: int = 0):
        """``curve(theta, order)`` in the homogeneous pair rotated by ``rotation``."""
        cr, sr = np.cos(rotation), np.sin(rotation)
        x, y = self.curve(theta, order)
        return cr * x - sr * y, sr * x + cr * y

    def chart_derivs(self, theta, rotation: float = 0.0):
        """Affine chart value and derivatives in a rotated chart.

        Returns ``(t, t', t'', t''')`` as functions of theta for the chart
        obtained by rotating the homogeneous pair by ``rotation``, ``t`` as
        ``chart`` forms it. With unit Wronskian: ``t' = 1/x^2``, ``t'' =
        -2 x'/x^3``, ``t''' = (6 x'^2 - 2 x x'')/x^4``.
        """
        x, y = self._rotated(theta, rotation)
        xd, xdd = (self._rotated(theta, rotation, order)[0] for order in (1, 2))
        return y / x, 1.0 / x**2, -2.0 * xd / x**3, (6.0 * xd**2 - 2.0 * x * xdd) / x**4

    def chart(self, theta, rotation: float = 0.0):
        """Affine chart value ``t = y / x`` in the chart rotated by ``rotation``."""
        x, y = self._rotated(theta, rotation)
        return y / x

    def __repr__(self) -> str:  # pragma: no cover
        return f"ProjectiveStructure({self.name!r})"


STRUCTURES = {name: ProjectiveStructure(name) for name in _WRAPS}
TORUS = STRUCTURES["torus"]
LINE = STRUCTURES["line"]


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of the projective line as a normalized homogeneous pair.

    Stored with ``x^2 + y^2 = 1`` and the first nonzero coordinate positive,
    so equal points have equal coordinates. The affine value is ``y / x``
    with ``x = 0`` mapping to infinity.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        r = math.hypot(self.x, self.y)
        if r == 0.0 or not math.isfinite(r):
            raise ValueError("homogeneous pair must be nonzero and finite")
        x, y = self.x / r, self.y / r
        if x < 0.0 or (x == 0.0 and y < 0.0):
            x, y = -x, -y
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def affine(self) -> float:
        if self.x == 0.0:
            return math.inf
        return self.y / self.x


def develop(structure: ProjectiveStructure, theta: float) -> ProjectivePoint:
    """Developed point of an angle, as a normalized projective point."""
    x, y = structure.curve(float(theta))
    return ProjectivePoint(float(x), float(y))


def _homogeneous(z) -> tuple:
    z = float(z)
    if math.isnan(z):
        raise ValueError("cross-ratio points must be real or +-inf, got nan")
    return (0.0, 1.0) if math.isinf(z) else (1.0, z)


def _split_determinant(p, q) -> tuple:
    """``math.frexp`` of the determinant ``y_p x_q - x_p y_q`` of two
    homogeneous pairs; one that overflows is formed from the halved
    products, with its exponent raised by one."""
    a, b = p[1] * q[0], p[0] * q[1]
    if math.isinf(a - b):
        m, e = math.frexp(0.5 * a - 0.5 * b)
        return m, e + 1
    return math.frexp(a - b)


def cross_ratio(z1, z2, z3, z4) -> float:
    """Cross-ratio ``(z1 - z3)(z2 - z4) / ((z1 - z4)(z2 - z3))``.

    Arguments are finite reals or ``+-inf`` (the point at infinity). The
    four factors are homogeneous 2x2 determinants, the affine differences
    bit for bit when the points are finite. Each is split by ``frexp``; the
    mantissas are multiplied and divided and the exponent sum applied once
    by ``ldexp``, so no intermediate over- or underflows, and wherever the
    factors, products and quotient are normal the result has the affine
    formula's bits. The result lies within 4 ulp of the exact value, or is
    its signed zero or infinity where that value is out of range; a zero
    denominator factor gives a signed infinity. Only configurations with
    three coincident points are rejected.
    """
    h = [_homogeneous(z) for z in (z1, z2, z3, z4)]
    # The determinants y_i x_j - x_i y_j of the four pairs in the formula.
    (m02, e02), (m13, e13), (m03, e03), (m12, e12) = (
        _split_determinant(h[i], h[j]) for i, j in ((0, 2), (1, 3), (0, 3), (1, 2))
    )
    # Nonzero mantissas lie in [1/2, 1), so a product vanishes only with a
    # factor: three points coincide exactly when both products vanish.
    num, den = m02 * m13, m03 * m12
    if den == 0.0:
        if num == 0.0:
            raise ValueError("cross-ratio needs at least three distinct points")
        return math.copysign(math.inf, num)
    q = num / den
    try:
        return math.ldexp(q, e02 + e13 - e03 - e12)
    except OverflowError:
        return math.copysign(math.inf, q)


def _good_rotation(structure: ProjectiveStructure, angles) -> float:
    """Pick a chart rotation that keeps the given angles off the chart pole.

    Scores each candidate by the smallest normalized ``|x|`` component over
    the developed angles and returns the best one. With candidates spaced
    pi/4 apart the winning score is bounded away from zero for any input.
    """
    x, y = structure.curve(np.asarray(angles, dtype=float))
    r = np.hypot(x, y)
    best, best_score = 0.0, -1.0
    for rho in _ROTATIONS:
        xr = np.cos(rho) * x - np.sin(rho) * y
        score = float(np.min(np.abs(xr) / r))
        if score > best_score:
            best, best_score = rho, score
    return best


# Series terms of a lift are cut once they cannot move third derivatives by
# more than roughly this amount; the cap rejects near-degenerate elements.
_LIFT_TAIL_TOL = 1e-18
_LIFT_TERM_CAP = 16384


def mobius_lift(m: MobiusElement, structure: ProjectiveStructure = TORUS) -> CircleDiffeo:
    """Circle diffeomorphism induced by a projective transformation.

    The affine chart maps to the unit circle by a Cayley transform, under
    which the fractional-linear action becomes a disk automorphism
    ``w -> lam (w - alpha)/(1 - conj(alpha) w)``. Its boundary argument has
    the explicit series ``arg lam + 2 sum rho^n sin(n(u - psi))/n`` with
    ``alpha = rho e^(i psi)``, so the Fourier lift is written down exactly
    instead of being fit by sampling; the term in ``u = wraps * theta`` of
    harmonic ``n`` is mode ``wraps * n`` of the lift. The phases ``n psi``
    are formed without rounding ``n * psi``. The deck-covering ambiguity is
    fixed by placing the mean displacement in ``(-deck/2, deck/2]``, which is
    the principal branch of ``arg lam``.
    """
    # The chart value s tan(wraps theta / 2) with s = 2/wraps equals
    # -i s (w - 1)/(w + 1) on w = e^(i wraps theta), inverted by the rows below.
    s = 2.0 / structure.wraps
    cayley = np.array([[-1.0, 1j * s], [1.0, 1j * s]], dtype=complex)
    w_mat = cayley @ m.matrix.astype(complex) @ np.linalg.inv(cayley)
    if abs(w_mat[0, 0]) <= abs(w_mat[0, 1]):
        raise ArithmeticError("projective element does not act on the disk")
    alpha = -w_mat[0, 1] / w_mat[0, 0]
    rho = abs(alpha)
    if rho >= 1.0:
        raise ArithmeticError("projective element does not act on the disk")
    w_one = (w_mat[0, 0] + w_mat[0, 1]) / (w_mat[1, 0] + w_mat[1, 1])
    lam = w_one * (1.0 - np.conj(alpha)) / (1.0 - alpha)
    shift = math.atan2(lam.imag, lam.real) / structure.wraps

    terms = 0
    if rho > 0.0:
        # rho^n / n below the tail tolerance contributes nothing detectable.
        budget = _LIFT_TAIL_TOL * (1.0 - rho)
        terms = int(np.ceil(math.log(budget) / math.log(rho)))
        terms = max(terms, 1)
        if terms * structure.wraps > _LIFT_TERM_CAP:
            raise ArithmeticError(
                f"lift of a near-degenerate projective element needs more than "
                f"{_LIFT_TERM_CAP} modes"
            )
    n = np.arange(1, terms + 1, dtype=float)
    psi = math.atan2(alpha.imag, alpha.real)
    # n psi = n hi - n lo with hi = psi + lo of 24 bits, so n hi is exact for
    # n < 2^29, joined by the addition theorem: rounding n psi would cost
    # n |psi| eps. Subtracting n lo keeps the sign of psi = -0.0.
    hi = float(np.float32(psi))
    cos_hi, sin_hi = np.cos(n * hi), np.sin(n * hi)
    cos_lo, sin_lo = np.cos(n * (hi - psi)), np.sin(n * (hi - psi))
    radial = (2.0 / structure.wraps) * rho**n / n
    # Harmonics sit at multiples of the wrapping number; other slots vanish.
    cos_c, sin_c = np.zeros(structure.wraps * terms), np.zeros(structure.wraps * terms)
    cos_c[structure.wraps - 1 :: structure.wraps] = -radial * (sin_hi * cos_lo - cos_hi * sin_lo)
    sin_c[structure.wraps - 1 :: structure.wraps] = radial * (cos_hi * cos_lo + sin_hi * sin_lo)
    lift = CircleDiffeo(shift, cos_c, sin_c)

    probe = np.linspace(0.0, TWO_PI, 49)[:-1] + 0.013
    xm, ym = m.act_point(*structure.curve(probe))
    gap = structure.angle_of(xm, ym) - lift.eval(probe)
    gap -= structure.deck * np.round(gap / structure.deck)
    if np.max(np.abs(gap)) > 1e-9:
        raise ArithmeticError("projective lift failed its residual check")
    return lift


def cartan_schwarzian_estimate(
    d: CircleDiffeo,
    structure: ProjectiveStructure,
    theta: float,
    eps: float,
) -> float:
    """Finite cross-ratio estimate of the chart-corrected Schwarzian at ``theta``.

    Develops the symmetric stencil ``theta + eps * (1, -1, 2, -2)`` and its
    image under ``d``, forms the ratio of image to source cross-ratios, and
    normalizes by the developed-chart spread:

        6 * (CR(images)/CR(sources) - 1) / ((t1 - t2)(t3 - t4))

    evaluated in a deterministically rotated chart that keeps the stencil off
    the chart pole, then scaled by the squared chart derivative so the result
    converges (second order in ``eps``, by symmetry) to the coefficient of
    the universal Schwarzian of ``d`` at ``theta``.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    theta = _finite("theta", theta)
    offs = np.array([1.0, -1.0, 2.0, -2.0]) * eps
    src = theta + offs
    img = d.eval(src)
    rho = _good_rotation(structure, [theta, d.eval(theta)])
    t = structure.chart(src, rho)
    tau = structure.chart(img, rho)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(tau))):
        raise ValueError("stencil hits the chart pole; reduce eps")
    ratio = cross_ratio(*tau.tolist()) / cross_ratio(*t.tolist()) - 1.0
    denom = (t[0] - t[1]) * (t[2] - t[3])
    chart_value = 6.0 * ratio / denom
    dchart = structure.chart_derivs(theta, rho)[1]
    return float(chart_value * dchart**2)
