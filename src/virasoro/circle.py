"""Circle diffeomorphisms with finite Fourier lifts, vector fields, and
projective matrices.

A diffeomorphism of the circle is stored through its lift

    phi(theta) = theta + shift + sum_n (a_n cos(n theta) + b_n sin(n theta)),

orientation preserving exactly when ``phi' > 0``. Composition, inversion and
vector-field flows leave the finite Fourier class, so results are re-projected
by sampling and discrete Fourier transform; a trailing-energy check plus an
interpolation-residual check guard the truncation, doubling the resolution
until both pass. Coefficients at the rounding floor are discarded so that
high-order derivatives of the stored series stay noise free.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar

from .numerics import TWO_PI, circle_grid, trig_eval_uniform

# Lifts whose minimum slope falls below this are rejected as degenerate.
MIN_SLOPE = 1e-6

_PROJECT_CAP = 8192
_RESIDUAL_TOL = 1e-10
_TAIL_ENERGY_TOL = 1e-12
# Per-mode amplitude floor, in units of eps * scale: coefficients below it are
# rounding noise and would pollute third derivatives by n^3 * noise if kept.
_NOISE_FLOOR_EPS = 16.0


def _trig_eval(theta: np.ndarray, cos_c: np.ndarray, sin_c: np.ndarray, order: int = 0):
    """Evaluate ``sum a_n cos(n theta) + b_n sin(n theta)`` or a derivative.

    Uses ``d^k cos(n theta) = n^k cos(n theta + k pi/2)`` so every order is a
    plain trigonometric sum. Dense: O(points x modes) time and memory.
    Scattered angles and the value tables that returned coefficients are
    sampled from stay on this kernel, so those coefficients do not move with
    another kernel's rounding; uniform-grid scans that only feed a decision
    use ``trig_eval_uniform``.
    """
    if cos_c.size == 0:
        return np.zeros_like(theta)
    n = np.arange(1, cos_c.size + 1, dtype=float)
    ang = np.multiply.outer(theta, n) + order * (np.pi / 2.0)
    weight = n**order
    return np.cos(ang) @ (weight * cos_c) + np.sin(ang) @ (weight * sin_c)


def _as_shape(theta, values):
    if np.isscalar(theta) or np.asarray(theta).ndim == 0:
        return float(values[0])
    return values


def _project_periodic(fn, k0: int, cap: int = _PROJECT_CAP):
    """Fit a smooth periodic function with a finite Fourier series.

    ``fn`` maps an array of angles to periodic values. Coefficients below the
    rounding floor are dropped; the resolution doubles until the trailing
    third of the raw spectrum is negligible, the kept band fits inside the
    leading two thirds, and the interpolation residual on the half-step grid
    is below the tolerance. Returns ``(mean, cos, sin)``.

    Per resolution ``k`` the fit costs one FFT and the residual probe one
    inverse FFT (``trig_eval_uniform`` at offset ``pi / k``): O(k log k) time
    and O(k) memory beyond the calls to ``fn``. The values of ``fn`` that the
    coefficients come from stay on the dense kernel (see ``_trig_eval``).
    """
    k = max(16, int(k0))
    if k % 2:
        k += 1
    settled = False
    while True:
        theta = circle_grid(k)
        v = np.asarray(fn(theta), dtype=float)
        c = np.fft.rfft(v) / k
        mean = c[0].real
        a = 2.0 * c[1:-1].real
        b = -2.0 * c[1:-1].imag
        amp2 = a * a + b * b
        nyq = c[-1].real
        scale = max(1.0, float(np.max(np.abs(v))))
        noise_floor = _NOISE_FLOOR_EPS * np.finfo(float).eps * scale
        keep = np.nonzero(np.abs(a) + np.abs(b) > noise_floor)[0]
        m = int(keep[-1]) + 1 if keep.size else 0
        a_t, b_t = a[:m], b[:m]
        total = mean * mean + 0.5 * np.sum(amp2) + nyq * nyq
        cut = (k // 2) * 2 // 3
        tail = 0.5 * np.sum(amp2[cut - 1 :]) + nyq * nyq
        # Resolved when the trailing third is relatively negligible, or sits
        # at the rounding floor outright (near-identity compositions land
        # there, where a relative test on noise can never pass).
        spectrum_ok = tail <= max(_TAIL_ENERGY_TOL * total, noise_floor**2)
        probe = theta + np.pi / k
        fit = mean + trig_eval_uniform(a_t, b_t, k, offset=np.pi / k)
        resid = np.max(np.abs(np.asarray(fn(probe), float) - fit))
        residual_ok = resid <= _RESIDUAL_TOL * scale
        if spectrum_ok and residual_ok:
            if settled or 2 * k > cap:
                return float(mean), a_t, b_t
            # One safety doubling: re-measuring every kept coefficient at twice
            # the resolution pushes aliasing contamination to the floor.
            settled = True
        elif 2 * k > cap:
            raise ArithmeticError(
                f"Fourier projection did not resolve the target below {cap} nodes "
                f"(residual {resid:.3e})"
            )
        else:
            settled = False
        k *= 2


class CircleDiffeo:
    """Orientation-preserving circle diffeomorphism as a Fourier lift.

    Parameters
    ----------
    shift:
        Constant part of the displacement ``phi(theta) - theta``.
    cos, sin:
        Coefficient tables ``a_n``, ``b_n`` for ``n = 1 ..``; unequal lengths
        are zero-padded.

    The constructor verifies ``phi' > 0`` on ``8 * max(modes, 32)`` nodes plus
    a polished interior minimum and rejects lifts whose minimum slope is below
    ``MIN_SLOPE``. The node scan is one inverse FFT, so validation takes
    O(M log M) time and O(M) memory for ``M`` modes; the polish evaluates
    the series at single angles with the dense kernel.
    """

    __slots__ = ("shift", "cos", "sin", "min_slope")

    def __init__(self, shift: float = 0.0, cos=(), sin=()) -> None:
        a = np.atleast_1d(np.asarray(cos, dtype=float))
        b = np.atleast_1d(np.asarray(sin, dtype=float))
        m = max(a.size, b.size)
        a = np.pad(a, (0, m - a.size))
        b = np.pad(b, (0, m - b.size))
        if not (np.isfinite(shift) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("lift coefficients must be finite")
        a.flags.writeable = False
        b.flags.writeable = False
        self.shift = float(shift)
        self.cos = a
        self.sin = b
        self.min_slope = self._validate()

    def _validate(self) -> float:
        n = 8 * max(self.modes, 32)
        theta = circle_grid(n)
        slopes = 1.0 + trig_eval_uniform(self.cos, self.sin, n, 1)
        i = int(np.argmin(slopes))
        lo = float(slopes[i])
        if self.modes:
            h = TWO_PI / n
            res = minimize_scalar(
                lambda t: self.derivative(float(t), 1),
                bounds=(theta[i] - h, theta[i] + h),
                method="bounded",
            )
            lo = min(lo, float(res.fun))
        if lo < MIN_SLOPE:
            raise ValueError(
                f"lift slope reaches {lo:.3e}; not an orientation-preserving diffeomorphism"
            )
        return lo

    @property
    def modes(self) -> int:
        return self.cos.size

    @classmethod
    def identity(cls) -> "CircleDiffeo":
        return cls(0.0)

    @classmethod
    def rotation(cls, angle: float) -> "CircleDiffeo":
        return cls(float(angle))

    def eval(self, theta):
        """Lift value ``phi(theta)``; accepts scalars or arrays."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        return _as_shape(theta, th + self.shift + _trig_eval(th, self.cos, self.sin))

    def derivative(self, theta, order: int = 1):
        """Analytic lift derivative of order 1, 2 or 3 (term by term)."""
        if order not in (1, 2, 3):
            raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        base = 1.0 if order == 1 else 0.0
        return _as_shape(theta, base + _trig_eval(th, self.cos, self.sin, order))

    def displacement(self, theta):
        """Periodic part ``phi(theta) - theta``."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        return _as_shape(theta, self.shift + _trig_eval(th, self.cos, self.sin))

    def __repr__(self) -> str:  # pragma: no cover
        return f"CircleDiffeo(shift={self.shift:.6g}, modes={self.modes})"


class VectorFieldS1:
    """Smooth vector field ``xi(theta) d/dtheta`` with finite Fourier data."""

    __slots__ = ("const", "cos", "sin")

    def __init__(self, const: float = 0.0, cos=(), sin=()) -> None:
        a = np.atleast_1d(np.asarray(cos, dtype=float))
        b = np.atleast_1d(np.asarray(sin, dtype=float))
        m = max(a.size, b.size)
        a = np.pad(a, (0, m - a.size))
        b = np.pad(b, (0, m - b.size))
        if not (np.isfinite(const) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("field coefficients must be finite")
        a.flags.writeable = False
        b.flags.writeable = False
        self.const = float(const)
        self.cos = a
        self.sin = b

    @property
    def modes(self) -> int:
        return self.cos.size

    def eval(self, theta):
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        return _as_shape(theta, self.const + _trig_eval(th, self.cos, self.sin))

    def derivative(self, theta, order: int = 1):
        if order not in (1, 2, 3):
            raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        return _as_shape(theta, _trig_eval(th, self.cos, self.sin, order))

    def sup_derivative(self, order: int = 1, n: int = 4096) -> float:
        """Dense-grid bound for ``max |xi^(order)|`` (order 0 = the field)."""
        theta = circle_grid(n)
        vals = self.eval(theta) if order == 0 else self.derivative(theta, order)
        return float(np.max(np.abs(vals)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"VectorFieldS1(const={self.const:.6g}, modes={self.modes})"


class MobiusElement:
    """Fractional-linear transformation with positive determinant.

    The matrix is normalized to determinant one and a canonical overall sign
    (first nonzero entry positive), so elements are compared as points of the
    projective group. ``act_affine`` applies ``t -> (a t + b) / (c t + d)``;
    ``act_point`` applies the equivalent pole-free map on homogeneous pairs
    ``(x, y)`` with ``t = y / x``.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=float)
        if m.shape != (2, 2) or not np.all(np.isfinite(m)):
            raise ValueError("matrix must be a finite 2x2 array")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det <= 0:
            raise ValueError(f"matrix determinant must be positive, got {det:.3e}")
        m = m / np.sqrt(det)
        flat = m.ravel()
        first = flat[np.nonzero(flat)[0][0]]
        if first < 0:
            m = -m
        m.flags.writeable = False
        self.matrix = m

    @property
    def a(self) -> float:
        return float(self.matrix[0, 0])

    @property
    def b(self) -> float:
        return float(self.matrix[0, 1])

    @property
    def c(self) -> float:
        return float(self.matrix[1, 0])

    @property
    def d(self) -> float:
        return float(self.matrix[1, 1])

    @classmethod
    def identity(cls) -> "MobiusElement":
        return cls(np.eye(2))

    @classmethod
    def rotation(cls, beta: float) -> "MobiusElement":
        cb, sb = np.cos(beta), np.sin(beta)
        return cls([[cb, -sb], [sb, cb]])

    @classmethod
    def scaling(cls, s: float) -> "MobiusElement":
        return cls([[np.exp(s), 0.0], [0.0, np.exp(-s)]])

    def compose(self, other: "MobiusElement") -> "MobiusElement":
        return MobiusElement(self.matrix @ other.matrix)

    def inverse(self) -> "MobiusElement":
        a, b, c, d = self.a, self.b, self.c, self.d
        return MobiusElement([[d, -b], [-c, a]])

    def act_affine(self, t):
        t = np.asarray(t, dtype=float)
        return (self.a * t + self.b) / (self.c * t + self.d)

    def act_point(self, x, y):
        """Homogeneous action on ``(x, y)`` with affine value ``t = y/x``."""
        return self.c * y + self.d * x, self.a * y + self.b * x

    def distance(self, other: "MobiusElement") -> float:
        return float(np.max(np.abs(self.matrix - other.matrix)))

    def __repr__(self) -> str:  # pragma: no cover
        a, b, c, d = self.a, self.b, self.c, self.d
        return f"MobiusElement([[{a:.6g}, {b:.6g}], [{c:.6g}, {d:.6g}]])"


def compose(outer: CircleDiffeo, inner: CircleDiffeo) -> CircleDiffeo:
    """Composition ``outer o inner`` re-projected onto the Fourier lift.

    Samples ``outer(inner(theta)) - theta`` at ``4 (M1 + M2 + 8)`` nodes and
    escalates resolution under the spectral-overflow and residual checks.
    """
    k0 = 4 * (outer.modes + inner.modes + 8)

    def fn(theta):
        return outer.eval(inner.eval(theta)) - theta

    shift, a, b = _project_periodic(fn, k0)
    return CircleDiffeo(shift, a, b)


def inverse(d: CircleDiffeo) -> CircleDiffeo:
    """Inverse diffeomorphism via per-node Newton solves.

    Iterates to a 1e-13 sup-norm residual and then polishes once more, so the
    remaining error sits at rounding level and cannot seed spurious Fourier
    modes in the re-projection.
    """

    def solve(targets):
        targets = np.asarray(targets, dtype=float)
        x = targets - d.shift
        for _ in range(100):
            r = d.eval(x) - targets
            x = x - np.clip(r / d.derivative(x, 1), -3.0, 3.0)
            if np.max(np.abs(r)) <= 1e-13:
                return x
        raise ArithmeticError("inversion Newton iteration did not converge in 100 steps")

    def fn(theta):
        return solve(theta) - theta

    shift, a, b = _project_periodic(fn, max(64, 4 * (d.modes + 8)))
    return CircleDiffeo(shift, a, b)


def flow(xi: VectorFieldS1, s: float, max_doublings: int = 16) -> CircleDiffeo:
    """Time-``s`` flow of a vector field as a circle diffeomorphism.

    Classical RK4 with step doubling until the whole-map change is at most
    1e-12 in sup norm. Rejected up front when ``|s| * max|xi'| >= 5``, where
    trajectories can collapse toward stagnation points faster than the
    Fourier lift can represent.
    """
    sup1 = xi.sup_derivative(1)
    if abs(s) * sup1 >= 5.0:
        raise ValueError(f"flow time too long for stable integration (|s| max|xi'| = {abs(s) * sup1:.3g})")
    if s == 0.0:
        return CircleDiffeo.identity()

    def advance(theta0, nsteps):
        h = s / nsteps
        x = theta0.astype(float).copy()
        for _ in range(nsteps):
            k1 = xi.eval(x)
            k2 = xi.eval(x + 0.5 * h * k1)
            k3 = xi.eval(x + 0.5 * h * k2)
            k4 = xi.eval(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return x

    n0 = max(8, int(np.ceil(8.0 * abs(s) * (1.0 + sup1))))

    def fn(theta):
        n = n0
        prev = advance(theta, n)
        for _ in range(max_doublings):
            n *= 2
            cur = advance(theta, n)
            if np.max(np.abs(cur - prev)) <= 1e-12:
                return cur - theta
            prev = cur
        raise ArithmeticError("flow step size underflow; the field is too stiff")

    shift, a, b = _project_periodic(fn, max(64, 4 * (xi.modes + 8)))
    return CircleDiffeo(shift, a, b)


def bracket(xi1: VectorFieldS1, xi2: VectorFieldS1) -> VectorFieldS1:
    """Lie bracket ``[xi1, xi2] = (xi1 xi2' - xi2 xi1') d/dtheta``.

    The product of two trigonometric polynomials is band-limited, so the
    re-projection at ``2 (m1 + m2 + 4)`` nodes is exact.
    """

    def fn(theta):
        return xi1.eval(theta) * xi2.derivative(theta, 1) - xi2.eval(theta) * xi1.derivative(theta, 1)

    const, a, b = _project_periodic(fn, 2 * (xi1.modes + xi2.modes + 4))
    return VectorFieldS1(const, a, b)


def random_diffeo(
    rng: np.random.Generator,
    max_degree: int = 4,
    amplitude: float = 0.25,
    min_slope: float = 0.2,
) -> CircleDiffeo:
    """Draw a random diffeomorphism with guaranteed slope margin.

    Gaussian Fourier coefficients with geometric decay; if the resulting lift
    slope dips below ``min_slope`` the periodic part is rescaled so the
    minimum lands exactly on it. Deterministic for a seeded generator.
    """
    m = int(rng.integers(2, max_degree + 1))
    decay = 0.5 ** np.arange(m)
    a = amplitude * decay * rng.standard_normal(m)
    b = amplitude * decay * rng.standard_normal(m)
    shift = float(rng.uniform(-np.pi, np.pi))
    theta = circle_grid(2048)
    lo = 1.0 + float(np.min(_trig_eval(theta, a, b, 1)))
    if lo < min_slope:
        scale = (1.0 - min_slope) / (1.0 - lo)
        a, b = scale * a, scale * b
    return CircleDiffeo(shift, a, b)


def random_vector_field(
    rng: np.random.Generator, max_degree: int = 3, amplitude: float = 0.5
) -> VectorFieldS1:
    """Draw a random band-limited vector field with geometric coefficient decay."""
    m = int(rng.integers(1, max_degree + 1))
    decay = 0.5 ** np.arange(m)
    return VectorFieldS1(
        const=float(amplitude * rng.standard_normal()),
        cos=amplitude * decay * rng.standard_normal(m),
        sin=amplitude * decay * rng.standard_normal(m),
    )


def random_mobius(rng: np.random.Generator, spread: float = 0.4) -> MobiusElement:
    """Draw a random projective element as rotation * scaling * rotation."""
    left = MobiusElement.rotation(float(rng.uniform(-np.pi, np.pi)))
    right = MobiusElement.rotation(float(rng.uniform(-np.pi, np.pi)))
    mid = MobiusElement.scaling(float(spread * rng.standard_normal()))
    return left.compose(mid).compose(right)
