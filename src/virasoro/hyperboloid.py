"""Lorentz metrics on the torus minus its diagonal, and the hyperboloid chart.

A metric here is a coefficient ``F(theta1, theta2)`` of ``F d theta1
d theta2``. The curved family ``F = c / sin^2((theta1 - theta2)/2)`` is the
pullback of the ambient quadratic form of the hyperboloid ``x^2 + y^2 - t^2
= c`` under the double-angle embedding; its Gaussian curvature is ``1/c``.
The diagonal limits of conformal-factor expressions recover Schwarzian data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import CircleDiffeo
from .numerics import ExtrapolationResult, _finite, richardson_limit
from .projective import TORUS, ProjectiveStructure
from .schwarzian import _universal_leaf

_DIAGONAL_GUARD = 1e-8
# Relative bound on ``x^2 + y^2 - t^2 - c`` of a point on the quadric.
_QUADRIC_TOL = 1e-10
_CURVATURE_STEP = 1e-3
# The residual bound of ``hessian_check``; ``checks.BOUNDS`` reads it.
HESSIAN_TOL = 1e-5


def _half_sine(th1, th2):
    return np.sin(0.5 * (np.asarray(th1, float) - np.asarray(th2, float)))


def _near_diagonal(s):
    """Where ``|s|``, a half-difference sine or a determinant of developed
    points, is within the diagonal guard; a NaN entry is not."""
    return np.abs(s) <= _DIAGONAL_GUARD


def _off_diagonal(th1, th2) -> None:
    """Reject angle pairs too close to the diagonal for a metric coefficient."""
    if np.any(_near_diagonal(_half_sine(th1, th2))):
        raise ValueError("metric evaluated too close to the diagonal")


class NullMetric:
    """Metric coefficient ``F(theta1, theta2)`` of ``F d theta1 d theta2``.

    Built only by its three constructors, each of which checks its own
    arguments and keeps its coefficient rule as a closure: ``curved(c)``
    (``F = c / sin^2`` of the half difference), ``flat()`` (``F = 1``), and
    ``pullback(base, phi)``, the base metric pulled back by the diagonal
    action of a circle diffeomorphism, ``F(phi theta1, phi theta2)
    phi'(theta1) phi'(theta2)``. A pullback evaluates ``phi`` and ``phi'``
    on both angle arrays, stacked, in one ``derivatives`` call, so a metric
    pulled back ``k`` times costs ``k`` kernel calls per evaluation.
    """

    __slots__ = ("_coefficient", "_repr")

    def __init__(self, coefficient, text) -> None:
        # ``coefficient(th1, th2)`` evaluates F without the diagonal check;
        # ``text()`` gives the repr.
        self._coefficient = coefficient
        self._repr = text

    @classmethod
    def curved(cls, c: float) -> "NullMetric":
        if c is None or c == 0.0 or not math.isfinite(c):
            raise ValueError("curved metric needs a nonzero finite parameter")
        c = float(c)
        return cls(lambda th1, th2: c / _half_sine(th1, th2) ** 2, lambda: f"NullMetric.curved({c:.6g})")

    @classmethod
    def flat(cls) -> "NullMetric":
        def coefficient(th1, th2):
            return np.ones(np.broadcast(np.asarray(th1), np.asarray(th2)).shape)

        return cls(coefficient, lambda: "NullMetric.flat()")

    @classmethod
    def pullback(cls, base: "NullMetric", d: CircleDiffeo) -> "NullMetric":
        if not (isinstance(base, NullMetric) and isinstance(d, CircleDiffeo)):
            raise ValueError("pullback metric needs a base metric and a diffeomorphism")

        def coefficient(th1, th2):
            (p1, p2), (s1, s2) = d.derivatives(np.array(np.broadcast_arrays(th1, th2)), (0, 1))
            return base._coefficient(p1, p2) * s1 * s2

        return cls(coefficient, lambda: f"NullMetric.pullback({base!r}, {d!r})")

    def coefficient(self, th1, th2):
        """Evaluate ``F``; points too close to the diagonal are rejected."""
        _off_diagonal(th1, th2)
        return self._coefficient(th1, th2)

    def __repr__(self) -> str:
        return self._repr()


def gaussian_curvature(metric: NullMetric, th1, th2):
    """Gaussian curvature ``K = -(2/F) d^2 log|F| / d theta1 d theta2``.

    The mixed partial uses the centered cross stencil at ``_CURVATURE_STEP``
    and half of it, combined by one Richardson step, so the truncation error
    is fourth order. The centre and the eight stencil points are evaluated
    in one ``coefficient`` call, on a leading axis of nine. Points should
    keep a margin of at least 0.05 from the diagonal.
    """
    th1, th2 = np.broadcast_arrays(np.asarray(th1, float), np.asarray(th2, float))
    h, half = _CURVATURE_STEP, _CURVATURE_STEP / 2.0
    shape = (9,) + (1,) * th1.ndim
    u = np.array([0.0, half, half, -half, -half, h, h, -h, -h]).reshape(shape)
    v = np.array([0.0, half, -half, half, -half, h, -h, h, -h]).reshape(shape)
    coef = metric.coefficient(th1 + u, th2 + v)
    logf = np.log(np.abs(coef[1:]))

    def mixed(k, step):
        pp, pm, mp, mm = logf[4 * k : 4 * k + 4]
        return (pp - pm - mp + mm) / (4.0 * step * step)

    m = (4.0 * mixed(0, half) - mixed(1, h)) / 3.0
    return -2.0 * m / coef[0]


def _check_on_quadric(x, y, t, c) -> None:
    """Reject coordinates, floats or arrays, unless all are finite and every
    point lies on ``x^2 + y^2 - t^2 = c`` to ``_QUADRIC_TOL`` relative."""
    if not (np.all(np.isfinite(x) & np.isfinite(y) & np.isfinite(t)) and math.isfinite(c)):
        raise ValueError("coordinates must be finite")
    # Negated so that a residual that overflows to nan is rejected too.
    if not np.all(np.abs(x * x + y * y - t * t - c) <= _QUADRIC_TOL * max(1.0, abs(c))):
        raise ValueError("point does not lie on the quadric")


@dataclass(frozen=True)
class SpacetimePoint:
    """Point of the quadric ``x^2 + y^2 - t^2 = c`` in Minkowski 3-space."""

    x: float
    y: float
    t: float
    c: float

    def __post_init__(self) -> None:
        _check_on_quadric(self.x, self.y, self.t, self.c)

    def quadric_residual(self) -> float:
        return self.x**2 + self.y**2 - self.t**2 - self.c


def embed(th1, th2, c: float):
    """Hyperboloid point for an off-diagonal angle pair (``c > 0``).

    With ``theta = (th1 + th2)/2`` and ``phi = (th1 - th2)/2`` the point is
    ``rho (sin theta, cos theta, cos phi / 1)`` scaled by
    ``rho = sqrt(c) / sin(phi)``; the pulled-back ambient form is exactly the
    curved metric coefficient.

    Two scalar angles give a ``SpacetimePoint``. Arrays (broadcast against
    each other) give the coordinate arrays ``(x, y, t)``, in O(n) time and
    about a dozen float64 arrays of n entries at peak. Both run the same
    array arithmetic, scalars as 0-d arrays, so each array entry equals the
    scalar call at its angles bit for bit. Every point is checked as a
    ``SpacetimePoint`` is, and one failing point raises the same
    ``ValueError`` for the whole call.
    """
    if not c > 0:
        raise ValueError("embedding needs a positive quadric parameter")
    th1, th2 = np.asarray(th1, float), np.asarray(th2, float)
    half_sum = 0.5 * (th1 + th2)
    half_diff = 0.5 * (th1 - th2)
    s = np.sin(half_diff)
    if np.any(_near_diagonal(s)):
        raise ValueError("embedding evaluated too close to the diagonal")
    rho = math.sqrt(c) / s
    x, y, t = rho * np.sin(half_sum), rho * np.cos(half_sum), rho * np.cos(half_diff)
    if np.ndim(x) == 0:
        return SpacetimePoint(x=float(x), y=float(y), t=float(t), c=float(c))
    _check_on_quadric(x, y, t, c)
    return x, y, t


def conformal_factor(d: CircleDiffeo, th1, th2):
    """Ratio of the pulled-back curved metric to the curved metric.

    ``f = phi'(th1) phi'(th2) sin^2((th1-th2)/2) / sin^2((phi th1 - phi th2)/2)``,
    independent of the curvature parameter. Extends smoothly to the diagonal
    with value 1; evaluation this close to the diagonal is rejected.
    ``phi`` and ``phi'`` take one ``derivatives`` call, one kernel pass, on
    both arrays.
    """
    pair = np.array(np.broadcast_arrays(th1, th2))
    s = _half_sine(th1, th2)
    phi, slope = d.derivatives(pair, (0, 1))
    s_img = _half_sine(*phi)
    if np.any(_near_diagonal(s)) or np.any(_near_diagonal(s_img)):
        raise ValueError("conformal factor evaluated too close to the diagonal")
    return slope[0] * slope[1] * s**2 / s_img**2


def diagonal_restriction(
    d: CircleDiffeo,
    c: float,
    theta: float,
    eps0: float = 0.1,
    levels: int = 5,
) -> ExtrapolationResult:
    """Diagonal limit of ``(3/2) (f - 1) F_c`` along ``(theta+eps, theta-eps)``.

    Extrapolates the symmetric off-diagonal family with Richardson; the limit
    is ``c`` times the modified-Schwarzian coefficient at ``theta``. All
    levels take one ``conformal_factor`` call: one kernel pass of 10 angles.
    """
    theta, c = _finite("theta", theta), _finite("c", c)

    def g(steps):
        f = conformal_factor(d, theta + steps, theta - steps)
        big_f = c / np.array([math.sin(e) ** 2 for e in steps.tolist()])
        return 1.5 * (f - 1.0) * big_f

    return richardson_limit(g, eps0, levels)


def hessian_check(
    d: CircleDiffeo,
    theta: float,
    eps0: float = 0.1,
    levels: int = 5,
):
    """Transverse Hessian of the conformal factor against the Schwarzian.

    Extracts the coefficient of ``(th1 - th2)^2 / 2`` in ``f - 1`` across the
    diagonal and compares with one third of the modified-Schwarzian
    coefficient. Returns ``(hessian_value, schwarzian_value, residual,
    passed)``, passed when the residual is at most ``HESSIAN_TOL``. All
    levels take one ``conformal_factor`` call, and the Schwarzian value is
    the modified Schwarzian's ``combine`` of one ``jet`` at ``theta``,
    without its table: two kernel passes, of 10 angles and of 1.
    """
    theta = _finite("theta", theta)

    def g(steps):
        return (conformal_factor(d, theta + steps, theta - steps) - 1.0) / (2.0 * steps) ** 2

    hessian_value = 2.0 * richardson_limit(g, eps0, levels).value
    series, orders, combine, consts = _universal_leaf(d, TORUS)
    schwarzian_value = float(combine(series.jet(theta, orders), *consts)) / 3.0
    residual = abs(hessian_value - schwarzian_value)
    return hessian_value, schwarzian_value, residual, residual <= HESSIAN_TOL


def flat_cocycle(d: CircleDiffeo, theta):
    """Diagonal cocycle of the flat metric, ``phi'(theta)^2 - 1``."""
    return d.derivative(theta, 1) ** 2 - 1.0


def general_metric(structure: ProjectiveStructure, th1, th2):
    """Metric induced by a developing curve, ``4 W1 W2 / det(P1, P2)^2``.

    Both supported curves have unit Wronskian, so this is ``4 / det^2`` with
    ``det`` the homogeneous 2x2 determinant of the developed pair; for the
    torus structure it collapses to the curved coefficient with ``c = 1``.
    Developed points must be distinct.
    """
    x1, y1 = structure.curve(np.asarray(th1, float))
    x2, y2 = structure.curve(np.asarray(th2, float))
    det = y1 * x2 - x1 * y2
    if np.any(_near_diagonal(det)):
        raise ValueError("developed points coincide; the induced metric is singular there")
    return 4.0 / det**2
