"""Schwarzian cocycles of circle diffeomorphisms.

The classical Schwarzian derivative, its chart-corrected (universal) variant
for a projective structure, the modified variant (the torus case), the
log-derivative and affine cocycles it is built from, the infinitesimal
Schwarzian, osculating projective elements, and the sign-change count of the
modified Schwarzian.

Coefficient fields carry grid samples plus their exact evaluator, a
weighted sum of leaves: a tuple of ``(weight, leaf)`` terms. A leaf is a
jet leaf or a callable of the angle: a pullback, a function, or the
trigonometric interpolant of a field given by its samples alone.
``values_on(n)`` reads a field on ``circle_grid(n)``: its samples on its
own grid, else its evaluator there. Sums and differences concatenate the
operands' terms, the right operand's weights times ``+-1``, and scalings
multiply every weight; the samples come from the operands' ``values_on``
the result's grid. So every leaf is evaluated once at construction, and a
field of ``D`` terms evaluates in ``O(D)`` steps without recursion.

The Schwarzians and the cocycles ``A`` and ``E`` of a lift are jet leaves:
a series, its orders and an elementwise combine of the rows. At any
angles, a scalar angle included, a field evaluates all its jet leaves in
one ``TrigStack`` pass, built for that evaluation, and leaves that share
a combine and its constants run it once on their stacked rows, with the
bits of one kernel call per leaf. The value is ``w v`` summed over the
terms from left to right in the order they were built,
with no product at a unit weight; a scalar angle gives a Python float.
So a sum whose right operands are single leaves, each scaled at most
once, rounds as its expression tree; a scaled sum rounds as the sum of
its scaled leaves (``0.3*(a+b)`` as ``0.3a + 0.3b``), and a sum on the
right is flattened (``a-(b+c)`` as ``(a-b)-c``).

A jet leaf's samples and a pullback's ``phi`` and ``phi'`` come from one
kernel pass on the grid's cached exponentials (``TrigSeries.grid_jet``),
bit for bit the pass on ``circle_grid(grid)``: a Schwarzian table is one
pass of orders 1--3 and no exponential, a pullback one pass of orders 0
and 1 and one evaluation of the field at the image angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import CircleDiffeo, MobiusElement, VectorFieldS1
from .numerics import (
    DEFAULT_GRID,
    PeriodicSamples,
    TrigStack,
    _as_shape,
    _finite,
    circle_grid,
    count_sign_changes,
    spectral_derivative,
)
from .projective import ProjectiveStructure, TORUS, _good_rotation


# A jet leaf is ``(series, orders, combine, consts)``: its value is
# ``combine(rows, *consts)`` of the rows ``series.jet(theta, orders)``, and
# ``combine`` works elementwise, so it also takes the rows of several leaves
# stacked along a new axis.


def _jet_values(terms, theta):
    """The values of the jet leaves among ``terms`` at the angle array
    ``theta``, by position among those leaves, from one ``TrigStack`` pass:
    leaves that share ``(orders, combine, consts)`` sit on adjacent rows
    and run one ``combine``. An empty list for terms without jet leaves."""
    runs: dict = {}
    jets = [leaf for _, leaf in terms if not callable(leaf)]
    for j, leaf in enumerate(jets):
        runs.setdefault(leaf[1:], []).append((j, leaf[0]))
    if not runs:
        return []
    rows = TrigStack((series, key[0]) for key, run in runs.items() for _, series in run).rows(theta)
    row = 0
    for (orders, combine, consts), run in runs.items():
        # Row j of each order's table is the run's j-th leaf's.
        block = rows[row : row + len(run) * len(orders)].reshape((len(run), len(orders)) + theta.shape)
        for (j, _), value in zip(run, combine(block.swapaxes(0, 1), *consts)):
            jets[j] = value
        row += len(run) * len(orders)
    return jets


class _DensityField:
    """Sampled coefficient of a field of weight ``w`` (transforms with phi'^w).

    ``evaluator`` is the exact analytic coefficient when there is one; a
    field without it has the interpolant of its samples as its one leaf.
    Sums, differences and scalings build their samples from the operands'
    ``values_on`` and their terms from the operands' terms (see the module
    docstring): no leaf is evaluated again and nothing nests.
    """

    weight = 0

    __slots__ = ("samples", "_terms")

    def __init__(self, samples, evaluator=None) -> None:
        if not isinstance(samples, PeriodicSamples):
            samples = PeriodicSamples(samples)
        self.samples = samples
        self._terms = ((1.0, samples.interpolate if evaluator is None else evaluator),)

    @classmethod
    def from_function(cls, fn, grid: int = DEFAULT_GRID):
        return cls(PeriodicSamples(fn(circle_grid(grid))), fn)

    @classmethod
    def _from_jet(cls, leaf, grid: int):
        """The field of one jet leaf, sampled on ``circle_grid(grid)``: its
        ``combine`` of the rows ``series.grid_jet(grid, orders)``, one
        kernel pass on the grid's cached exponentials."""
        series, orders, combine, consts = leaf
        out = cls(combine(series.grid_jet(grid, orders), *consts))
        out._terms = ((1.0, leaf),)
        return out

    @classmethod
    def constant(cls, value: float, grid: int = DEFAULT_GRID):
        v = float(value)
        return cls.from_function(lambda th: np.full(np.shape(th), v), grid)

    def eval(self, theta):
        """The coefficient at ``theta``: a float for a scalar angle, else an
        array of the angles' shape. The jet leaves take one stacked pass at
        any angles, a scalar one included; the weighted values are summed
        in term order, and ``1.0 v`` is ``v`` bit for bit. A non-finite
        angle raises ``ValueError`` before any leaf is evaluated."""
        if not np.isfinite(theta).all():
            raise ValueError("angles must be finite")
        jets = iter(_jet_values(self._terms, np.asarray(theta, dtype=float)))
        total = None
        for w, leaf in self._terms:
            value = leaf(theta) if callable(leaf) else next(jets)
            value = value if w == 1.0 else w * value
            total = value if total is None else total + value
        return _as_shape(total)

    def pullback(self, d: CircleDiffeo):
        """Pull the field back by a diffeomorphism: ``u(d theta) d'(theta)^w``.
        The samples take ``phi`` and ``phi'`` from one kernel pass on the
        grid's cached exponentials, an evaluation from one ``derivatives``
        call, and both then evaluate the field at the image angles."""
        return self._pullback(d, d.series.grid_jet(self.samples.size, (0, 1)))

    def _pullback(self, d: CircleDiffeo, rows):
        """The pullback by ``d`` from the rows of orders 0 and 1 of its
        displacement on the field's grid."""
        w = self.weight

        def fn(theta):
            phi, slope = d.derivatives(theta, (0, 1))
            return self.eval(phi) * slope**w

        # phi and phi' as ``CircleDiffeo.derivatives`` forms them.
        phi, slope = rows[0] + circle_grid(self.samples.size), rows[1] + 1.0
        return type(self)(self.eval(phi) * slope**w, fn)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.samples.values)))

    def values_on(self, n: int):
        """Values on ``circle_grid(n)``: the samples on the field's own grid,
        else the field evaluated on that grid."""
        if self.samples.size == n:
            return self.samples.values
        return self.eval(circle_grid(n))

    def _derived(self, values, terms):
        out = type(self)(values)
        out._terms = terms
        return out

    def _plus_scaled_jet(self, leaf, rows, s: float):
        """``self + s * field`` for the field of the jet ``leaf``, bit for
        bit, without building that field or its scaling: ``rows`` are the
        leaf's rows on this field's grid, and this field's samples are its
        values there (as a pullback's are)."""
        _, _, combine, consts = leaf
        values = self.samples.values + s * combine(rows, *consts)
        return self._derived(values, self._terms + ((s, leaf),))

    def _binary(self, other, sign: float):
        if type(other) is not type(self):
            return NotImplemented
        n = max(self.samples.size, other.samples.size)
        a, b = self.values_on(n), other.values_on(n)
        if sign == 1.0:
            values, right = a + b, other._terms
        else:
            values, right = a - b, tuple((-w, leaf) for w, leaf in other._terms)
        return self._derived(values, self._terms + right)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, scalar):
        s = float(scalar)
        return self._derived(s * self.samples.values, tuple((s * w, leaf) for w, leaf in self._terms))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(n={self.samples.size}, max={self.max_abs():.3g})"


class PeriodicFunction(_DensityField):
    """Plain periodic function (weight 0)."""

    weight = 0


class OneForm(_DensityField):
    """Coefficient ``a(theta)`` of a one-form ``a d theta`` (weight 1)."""

    weight = 1


class QuadraticDifferential(_DensityField):
    """Coefficient ``u(theta)`` of ``u d theta^2`` (weight 2)."""

    weight = 2


def _classical_coefficient(p1, p2, p3):
    """Classical Schwarzian from the derivatives ``phi'``, ``phi''``, ``phi'''``."""
    return p3 / p1 - 1.5 * (p2 / p1) ** 2


# Combines of the jet leaves, from the rows of a lift's displacement, so
# that ``phi' = rows[0] + 1``: each rounds as the ``CircleDiffeo``
# derivatives it stands for.
def _classical(rows):
    return _classical_coefficient(rows[0] + 1.0, rows[1], rows[2])


def _universal(rows, k):
    # One slope table serves the classical part and the chart term.
    p1 = rows[0] + 1.0
    return _classical_coefficient(p1, rows[1], rows[2]) + k * (p1**2 - 1.0)


def _affine(rows):
    return rows[1] / (rows[0] + 1.0)


def _log_slope(rows):
    return np.log(rows[0] + 1.0)


def schwarzian_classical(d: CircleDiffeo, grid: int = DEFAULT_GRID) -> QuadraticDifferential:
    """Classical Schwarzian derivative ``phi'''/phi' - (3/2)(phi''/phi')^2``."""
    return QuadraticDifferential._from_jet((d.series, (1, 2, 3), _classical, ()), grid)


def _universal_leaf(d: CircleDiffeo, structure: ProjectiveStructure):
    """The jet leaf of the chart-corrected Schwarzian of ``d``."""
    return (d.series, (1, 2, 3), _universal, (structure.chart_schwarzian,))


def schwarzian_universal(
    d: CircleDiffeo, structure: ProjectiveStructure, grid: int = DEFAULT_GRID
) -> QuadraticDifferential:
    """Chart-corrected Schwarzian for a projective structure.

    Adds ``k (phi'^2 - 1)`` to the classical coefficient, where ``k`` is the
    constant chart Schwarzian of the structure. Vanishes exactly on lifts of
    projective transformations and satisfies the same cocycle identity as the
    classical Schwarzian.
    """
    return QuadraticDifferential._from_jet(_universal_leaf(d, structure), grid)


def schwarzian_modified(d: CircleDiffeo, grid: int = DEFAULT_GRID) -> QuadraticDifferential:
    """Modified Schwarzian: the chart-corrected variant for the torus structure."""
    return schwarzian_universal(d, TORUS, grid)


def cocycle_E(d: CircleDiffeo, grid: int = DEFAULT_GRID) -> PeriodicFunction:
    """Logarithmic slope cocycle ``E = log phi'``."""
    return PeriodicFunction._from_jet((d.series, (1,), _log_slope, ()), grid)


def cocycle_A(d: CircleDiffeo, grid: int = DEFAULT_GRID) -> OneForm:
    """Affine cocycle ``A = (phi''/phi') d theta`` (the differential of E)."""
    return OneForm._from_jet((d.series, (1, 2), _affine, ()), grid)


def schwarzian_from_triple(d: CircleDiffeo, grid: int = DEFAULT_GRID) -> QuadraticDifferential:
    """Schwarzian rebuilt from the affine cocycle, ``a' - a^2/2`` with ``a = phi''/phi'``.

    The derivative is taken spectrally from the sampled one-form, giving an
    independent route that must agree with ``schwarzian_classical``.
    """
    a = cocycle_A(d, grid)
    a_prime = spectral_derivative(a.samples, 1)
    values = a_prime.values - 0.5 * a.samples.values**2
    return QuadraticDifferential(PeriodicSamples(values))


def infinitesimal_schwarzian(
    xi: VectorFieldS1,
    structure: ProjectiveStructure | None = TORUS,
    grid: int = DEFAULT_GRID,
) -> QuadraticDifferential:
    """Linearization of the Schwarzian cocycle along a vector field.

    For a structure with chart Schwarzian ``k`` this is
    ``(xi''' + 2 k xi') d theta^2`` (torus: ``xi''' + xi'``); with
    ``structure=None`` it is the uniform-density linearization ``xi'''``.
    """
    k = 0.0 if structure is None else structure.chart_schwarzian

    def fn(theta):
        return xi.derivative(theta, 3) + 2.0 * k * xi.derivative(theta, 1)

    return QuadraticDifferential.from_function(fn, grid)


def osculating_mobius(
    d: CircleDiffeo, structure: ProjectiveStructure, theta0: float
) -> MobiusElement:
    """Projective element matching the developed 2-jet of ``d`` at ``theta0``.

    Reads ``d`` through the developing chart (rotated off the pole), matches
    value, first, and second derivative of the induced map of the affine
    line, and conjugates the resulting matrix back to the standard chart.
    ``phi``, ``phi'`` and ``phi''`` at ``theta0`` come from one
    ``derivatives`` call, one kernel pass of ``d``. The third-order
    mismatch that remains is the universal Schwarzian.
    """
    theta0 = _finite("theta0", theta0)
    phi, p1, p2 = d.derivatives(theta0, (0, 1, 2))
    rho = _good_rotation(structure, [theta0, phi])
    t, dt, ddt, _ = structure.chart_derivs(theta0, rho)
    tau, s1, s2, _ = structure.chart_derivs(phi, rho)
    # Parametric derivatives of the induced chart map h(t(theta)) = tau(theta).
    dtau = s1 * p1
    ddtau = s2 * p1**2 + s1 * p2
    v = tau
    p = dtau / dt
    q = (ddtau * dt - dtau * ddt) / dt**3
    # Mobius map with 2-jet (v, p, q) at t: shift to t, slope p with curvature
    # q, then shift by v.
    jet = np.array([[p, 0.0], [-q / (2.0 * p), 1.0]])
    to_t = np.array([[1.0, -t], [0.0, 1.0]])
    add_v = np.array([[1.0, v], [0.0, 1.0]])
    local = add_v @ jet @ to_t
    cr, sr = np.cos(rho), np.sin(rho)
    rot = np.array([[cr, sr], [-sr, cr]])
    rot_inv = np.array([[cr, -sr], [sr, cr]])
    return MobiusElement(rot_inv @ local @ rot)


@dataclass(frozen=True)
class GhysReport:
    """Sign-change report for the modified Schwarzian of a diffeomorphism.

    ``identically_zero`` marks coefficients below the zero floor everywhere
    (projective lifts); ``count`` is then None instead of a finite number.
    """

    identically_zero: bool
    count: int | None
    locations: np.ndarray


def ghys_zero_count(d: CircleDiffeo, grid: int = DEFAULT_GRID) -> GhysReport:
    """Count sign changes of the modified Schwarzian around the circle.

    Generic diffeomorphisms give at least four; inputs whose coefficient
    stays below ``1e-11`` in absolute value are tagged identically zero.
    """
    q = schwarzian_modified(d, grid)
    if q.max_abs() < 1e-11:
        return GhysReport(True, None, np.empty(0))
    count, locations = count_sign_changes(q.samples)
    return GhysReport(False, count, locations)
