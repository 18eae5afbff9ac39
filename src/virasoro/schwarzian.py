"""Schwarzian cocycles of circle diffeomorphisms.

The classical Schwarzian derivative, its chart-corrected (universal) variant
for a projective structure, the modified variant (the torus case), the
log-derivative and affine cocycles it is built from, the infinitesimal
Schwarzian, osculating projective elements, and the sign-change count of the
modified Schwarzian.

Coefficient fields carry grid samples plus an evaluation program: a flat
tuple of steps over the analytic leaf evaluators the field was built from,
or none for a field given by its samples alone, which evaluates by
trigonometric interpolation. Sums, differences and scalings take their
samples from the operands' cached samples (an operand on another grid, or
without a program, is evaluated on the result's grid) and concatenate the
operands' programs, so every leaf is evaluated once at construction and a
field of ``D`` terms evaluates in ``O(D)`` steps without recursion.

The Schwarzians and the cocycles ``A`` and ``E`` of a lift are jet leaves:
a series, its orders and an elementwise combine of the rows. On 2 angles
or more a program evaluates all its jet leaves in one ``TrigStack`` pass,
built on first use and kept with the field, and leaves that share a
combine and its constants run it once on their stacked rows; a sum of 31
Schwarzians evaluates in about half the time of one kernel call per leaf.
Pullbacks, constants and fields given by samples stay leaves of their
own. Samples and values are bit-identical to evaluating the expression
tree recursively, operand by operand, one kernel call per leaf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import CircleDiffeo, MobiusElement, VectorFieldS1
from .numerics import (
    DEFAULT_GRID,
    PeriodicSamples,
    TrigStack,
    circle_grid,
    count_sign_changes,
    spectral_derivative,
)
from .projective import ProjectiveStructure, TORUS, _good_rotation


# Steps of an evaluation program, run on a stack of value arrays: ``(_LEAF,
# fn)`` pushes ``fn(theta)``, ``(_JET, leaf)`` pushes a jet leaf's value,
# ``(_SCALE, s)`` multiplies the top by ``s``, and ``(_ADD, sign)`` pops the
# top and adds ``sign`` times it to the new top. A jet leaf is ``(series,
# orders, combine, consts)``: its value is ``combine(rows, *consts)`` of the
# rows ``series.jet(theta, orders)``, and ``combine`` works elementwise, so
# it also takes the rows of several leaves stacked along a new axis.
_LEAF, _JET, _SCALE, _ADD = range(4)


def _jet_alone(leaf, theta):
    """A jet leaf's value from its own kernel call; a scalar angle gives
    Python floats to ``combine``, as a ``CircleDiffeo`` method would."""
    series, orders, combine, consts = leaf
    rows = series.jet(theta, orders)
    return combine([float(r) for r in rows] if rows.ndim == 1 else rows, *consts)


def _run(program, theta, jets=None):
    """Evaluate a program at ``theta``, in the order of its expression tree.
    ``jets`` holds the jet leaves' values in program order; without it each
    jet leaf is evaluated on its own."""
    stack = []
    leaves = iter(() if jets is None else jets)
    for op, arg in program:
        if op == _LEAF:
            stack.append(arg(theta))
        elif op == _JET:
            stack.append(_jet_alone(arg, theta) if jets is None else next(leaves))
        elif op == _SCALE:
            stack[-1] = arg * stack[-1]
        else:
            # The sign is +-1: x + 1.0 y and x + (-1.0) y round as x + y and x - y.
            top = stack.pop()
            stack[-1] = stack[-1] + top if arg > 0.0 else stack[-1] - top
    return stack[0]


def _stacked_plan(program):
    """The stacked evaluation of a program's jet leaves: one ``TrigStack``
    of their series, leaves that share ``(orders, combine, consts)`` on
    adjacent rows, and for each such set ``(first row, count, orders,
    combine, consts, positions among the jet leaves)``."""
    runs: dict = {}
    j = 0
    for op, arg in program:
        if op == _JET:
            runs.setdefault(arg[1:], []).append((j, arg[0]))
            j += 1
    members, blocks, row = [], [], 0
    for (orders, combine, consts), run in runs.items():
        members.extend((series, orders) for _, series in run)
        blocks.append((row, len(run), orders, combine, consts, [j for j, _ in run]))
        row += len(run) * len(orders)
    return TrigStack(members), blocks


def _stacked_jets(plan, theta):
    """The values of a program's jet leaves at the angles ``theta`` (2 or
    more), in program order, from one pass of the plan's stack; None for a
    program without jet leaves."""
    stack, blocks = plan
    if not blocks:
        return None
    rows = stack.rows(theta.ravel())
    jets = [None] * sum(block[1] for block in blocks)
    for row, count, orders, combine, consts, leaves in blocks:
        # Row j of each order's (count, P) table is the j-th leaf's.
        block = rows[row : row + count * len(orders)].reshape(count, len(orders), -1)
        values = combine(block.swapaxes(0, 1), *consts).reshape((count,) + theta.shape)
        for j, value in zip(leaves, values):
            jets[j] = value
    return jets


class _DensityField:
    """Sampled coefficient of a field of weight ``w`` (transforms with phi'^w).

    ``evaluator`` is the exact analytic coefficient when there is one; a
    field without it evaluates by interpolating its samples. Sums,
    differences and scalings build their samples from the operands' samples
    and their program from the operands' programs (see the module
    docstring): no leaf is evaluated again and nothing nests.
    """

    weight = 0

    __slots__ = ("samples", "_program", "_plan")

    def __init__(self, samples, evaluator=None) -> None:
        if not isinstance(samples, PeriodicSamples):
            samples = PeriodicSamples(samples)
        self.samples = samples
        self._program = None if evaluator is None else ((_LEAF, evaluator),)
        self._plan = None

    @classmethod
    def from_function(cls, fn, grid: int = DEFAULT_GRID):
        return cls(PeriodicSamples(fn(circle_grid(grid))), fn)

    @classmethod
    def _from_jet(cls, leaf, grid: int):
        """The field of one jet leaf, sampled on ``circle_grid(grid)``."""
        out = cls(_jet_alone(leaf, circle_grid(grid)))
        out._program = ((_JET, leaf),)
        return out

    @classmethod
    def constant(cls, value: float, grid: int = DEFAULT_GRID):
        v = float(value)
        return cls.from_function(lambda th: np.full(np.shape(th), v), grid)

    def eval(self, theta):
        if self._program is None:
            return self.samples.interpolate(theta)
        th = np.asarray(theta, dtype=float)
        if th.size < 2 or len(self._program) == 1:
            # One leaf is a stack of one; one angle stacks no leaves.
            return _run(self._program, theta)
        if self._plan is None:
            self._plan = _stacked_plan(self._program)
        return _run(self._program, theta, _stacked_jets(self._plan, th))

    def pullback(self, d: CircleDiffeo):
        """Pull the field back by a diffeomorphism: ``u(d theta) d'(theta)^w``."""
        w = self.weight

        def fn(theta):
            return self.eval(d.eval(theta)) * d.derivative(theta, 1) ** w

        return type(self).from_function(fn, self.samples.size)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.samples.values)))

    def _steps(self):
        if self._program is None:
            return ((_LEAF, self.samples.interpolate),)
        return self._program

    def _values_on(self, n: int):
        """Values on ``circle_grid(n)``: the cached samples when they are that
        evaluation, else the program (or the interpolant) run on that grid."""
        if self._program is not None and self.samples.size == n:
            return self.samples.values
        return self.eval(circle_grid(n))

    def _derived(self, values, program):
        out = type(self)(values)
        out._program = program
        return out

    def _binary(self, other, sign: float):
        n = max(self.samples.size, other.samples.size)
        a, b = self._values_on(n), other._values_on(n)
        values = a + b if sign == 1.0 else a - b
        return self._derived(values, self._steps() + other._steps() + ((_ADD, sign),))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._binary(other, 1.0)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._binary(other, -1.0)

    def __mul__(self, scalar):
        s = float(scalar)
        values = s * self._values_on(self.samples.size)
        return self._derived(values, self._steps() + ((_SCALE, s),))

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


def schwarzian_universal(
    d: CircleDiffeo, structure: ProjectiveStructure, grid: int = DEFAULT_GRID
) -> QuadraticDifferential:
    """Chart-corrected Schwarzian for a projective structure.

    Adds ``k (phi'^2 - 1)`` to the classical coefficient, where ``k`` is the
    constant chart Schwarzian of the structure. Vanishes exactly on lifts of
    projective transformations and satisfies the same cocycle identity as the
    classical Schwarzian.
    """
    leaf = (d.series, (1, 2, 3), _universal, (structure.chart_schwarzian,))
    return QuadraticDifferential._from_jet(leaf, grid)


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
    The third-order mismatch that remains is the universal Schwarzian.
    """
    theta0 = float(theta0)
    rho = _good_rotation(structure, [theta0, d.eval(theta0)])
    t, dt, ddt, _ = structure.chart_derivs(theta0, rho)
    phi = d.eval(theta0)
    p1, p2 = d.derivatives(theta0, (1, 2))
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
