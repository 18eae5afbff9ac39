"""Circle diffeomorphisms with finite Fourier lifts, vector fields, and
projective matrices.

A diffeomorphism of the circle is stored through its lift

    phi(theta) = theta + shift + sum_n (a_n cos(n theta) + b_n sin(n theta)),

orientation preserving exactly when ``phi' > 0``. Composition, inversion and
vector-field flows leave the finite Fourier class, so results are re-projected
by sampling and discrete Fourier transform; a trailing-energy check plus an
interpolation-residual check guard the truncation, doubling the resolution
until both pass. Coefficients at the rounding floor, which scales with the
periodic part of the sampled values (their constant term is excluded), are
discarded so that high-order derivatives of the stored series stay noise
free.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .numerics import EPS, TWO_PI, TrigSeries, _as_shape, _finite, circle_grid, noise_floor
from .numerics import _NOISE_FLOOR_EPS, shift_phase, significant_modes, solve_bracketed, split_spectrum
from .numerics import trig_eval_uniform

# Lifts whose minimum slope falls below this are rejected as degenerate.
MIN_SLOPE = 1e-6

_PROJECT_CAP = 8192
# Chebyshev--Picard integration in ``flow``: the highest degree of the series
# in time per segment, the sweeps a segment may take, and the segment count
# past which it gives up.
_FLOW_DEGREE = 20
_FLOW_MAX_SWEEPS = 64
_FLOW_MAX_SEGMENTS = 4096
# Sup-norm residual at which the per-node Newton solves of ``inverse`` stop,
# and the iteration bound after which its first, unbracketed stage hands its
# nodes on.
_INVERSE_TOL = 1e-13
_INVERSE_MAX_ITER = 16
_RESIDUAL_TOL = 1e-10
_TAIL_ENERGY_TOL = 1e-12


def _project_periodic(fn, k0: int):
    """Fit a smooth periodic function with a finite Fourier series: the
    results of ``compose``, ``inverse`` and ``flow``, which leave the finite
    Fourier class (a ``bracket`` does not).

    ``fn`` maps an array of angles to periodic values, optionally with
    state (below). Coefficients below the rounding floor (``noise_floor``
    of the scale ``max(1, max|v - mean|)`` of the values' periodic part,
    as ``_fit`` sets it) are dropped; the resolution doubles until the
    trailing third of the raw spectrum is negligible, the kept band fits
    inside the leading two thirds, and the interpolation residual on the
    half-step grid is below the tolerance. A level that passes returns at
    once when its fit is already at the rounding floor: its kept band ends
    below the trailing third (every mode there is under the per-mode floor)
    and its half-step residual is at most ``_NOISE_FLOOR_EPS`` floors. The
    half-step probe then bounds the aliasing that a doubling would
    re-measure by rounding alone (the trapezoidal rule's exponential
    convergence; Trefethen and Weideman, SIAM Review 2014). Any other
    passing level takes one safety doubling, which re-measures every kept
    coefficient at twice the resolution. Returns ``(mean, cos, sin)``.

    One call of ``fn`` per resolution, and no node is sampled twice. The
    ``k``-grid and its half-step probe are the even and odd nodes of
    ``circle_grid(2k)``, so the starting resolution ``k0`` makes one call,
    ``fn(circle_grid(2 k0))``; each further resolution ``k`` makes one call
    on its ``k`` half-step nodes ``circle_grid(2k)[1::2]``, which the next
    fit interleaves with the current grid. A fit at the floor on the first
    level takes that one call on ``2 k0`` nodes; a safety doubling adds one
    call on ``2 k0`` more. Memory ceiling: no call exceeds ``2 k0`` or the
    resolution returned, which the fit itself needs. A start with ``2 k0``
    above the cap ``_PROJECT_CAP`` samples ``circle_grid(k0)`` and then its
    half-step nodes: two ``k0``-node calls.

    A target may hand its solution to its next call. If a call returns a
    pair ``(values, state)``, with the last axis of the array ``state``
    running over the call's nodes, the next call is ``fn(theta, prior)``
    with ``prior`` the trigonometric interpolant of the state rows on the
    current grid at its half-step nodes (``_half_step``, one ``rfft`` and
    one ``irfft`` along the node axis). The first call, and any call whose
    grid lacks rows because an earlier call returned plain values or a
    ``None`` state, is ``fn(theta)``. ``inverse`` and ``flow`` start their
    iterations there; ``compose`` and plain functions return values alone.
    The state lives only as long as this function runs.

    Per resolution ``k`` the fit costs one FFT and the residual
    probe one inverse FFT (``trig_eval_uniform`` at offset ``pi / k``, whose
    phase factors ``_half_step`` shares): O(k log k) time and O(k) memory
    beyond the calls to ``fn``, plus one FFT pair per state row and call.
    The calls to ``fn`` in ``compose``, ``inverse`` and ``flow`` evaluate
    series at scattered points with the kernel of ``TrigSeries``: one
    complex exponential per node, O(nodes x modes) flops and, from
    ``TRIG_TABLE_MIN_MODES`` modes up, about ``32 nodes sqrt(modes)``
    bytes. A starting resolution above the cap raises
    ``ArithmeticError`` before ``fn`` is called.
    """
    k = max(16, int(k0))
    if k % 2:
        k += 1
    if k > _PROJECT_CAP:
        raise ArithmeticError(
            f"Fourier projection needs {k} nodes, above the cap of {_PROJECT_CAP}"
        )

    def sample(theta, prior=None):
        out = fn(theta) if prior is None else fn(theta, prior)
        values, state = out if isinstance(out, tuple) else (out, None)
        return np.asarray(values, dtype=float), state

    # v, sv: the values and state rows on circle_grid(k); half, shalf: the
    # same on its half-step nodes once sampled. A missing state is None.
    if 2 * k > _PROJECT_CAP:
        (v, sv), half = sample(circle_grid(k)), None
    else:
        w, sw = sample(circle_grid(2 * k))
        v, half = w[0::2], w[1::2]
        sv, shalf = (None, None) if sw is None else (sw[..., 0::2], sw[..., 1::2])
    settled = False
    while True:
        mean, a, b, scale, ok, quiet = _fit(v, k)
        if half is None:
            half, shalf = sample(circle_grid(2 * k)[1::2], None if sv is None else _half_step(sv))
        resid = np.abs(half - (mean + trig_eval_uniform(a, b, k, offset=np.pi / k))).max()
        if ok and resid <= _RESIDUAL_TOL * scale:
            # At the floor a doubling would re-measure the same coefficients.
            floor = quiet and resid <= _NOISE_FLOOR_EPS * noise_floor(scale)
            if settled or floor or 2 * k > _PROJECT_CAP:
                return float(mean), a, b
            settled = True
        elif 2 * k > _PROJECT_CAP:
            raise ArithmeticError(
                f"Fourier projection did not resolve the target below {_PROJECT_CAP} nodes "
                f"(residual {resid:.3e})"
            )
        else:
            settled = False
        v, sv, half = _interleave(v, half), _interleave(sv, shalf), None
        k *= 2


def _fit(v, k: int):
    """The fit of values ``v`` on ``circle_grid(k)`` by ``_project_periodic``
    and ``bracket``: ``(mean, cos, sin, scale, spectrum_ok, quiet)``, with
    the coefficients above the rounding floor, whether the spectrum passes
    its test, and whether the kept band ends below the trailing third. The
    scale is that of the periodic part, ``max(1, max|v - mean|)``: the
    per-mode floor, the tail floor, the residual tolerance and the floor
    exit read it, so a large constant term (a shift up to pi) does not cut
    real high modes, which the Schwarzian weighs by ``n^3``."""
    mean, a, b, nyq = split_spectrum(np.fft.rfft(v) / k)
    amp2 = a * a + b * b
    scale = max(1.0, float(np.abs(v - mean).max()))
    floor = noise_floor(scale)
    m = significant_modes(a, b, floor)
    total = mean * mean + 0.5 * amp2.sum() + nyq * nyq
    cut = (k // 2) * 2 // 3
    tail = 0.5 * amp2[cut - 1 :].sum() + nyq * nyq
    # Resolved when the trailing third is relatively negligible, or sits at
    # the rounding floor outright (near-identity compositions land there,
    # where a relative test on noise can never pass).
    return mean, a[:m], b[:m], scale, tail <= max(_TAIL_ENERGY_TOL * total, floor**2), m < cut


def _interleave(even, odd):
    """The rows whose nodes alternate ``even`` and ``odd`` along the last
    axis, or ``None`` when either is ``None``."""
    if even is None or odd is None:
        return None
    out = np.empty(even.shape[:-1] + (2 * even.shape[-1],))
    out[..., 0::2], out[..., 1::2] = even, odd
    return out


def _half_step(rows):
    """The trigonometric interpolant of ``rows``, given along the last axis
    on ``circle_grid(k)``, at ``circle_grid(k) + pi / k``: one ``rfft`` and
    one ``irfft``, without the Nyquist term, as ``trig_eval_uniform``."""
    k = rows.shape[-1]
    spec = np.fft.rfft(rows)
    spec[..., -1] = 0.0
    spec *= shift_phase(k, np.pi / k)
    return np.fft.irfft(spec, k)


@functools.cache
def _picard_matrices(n: int):
    """The Chebyshev--Lobatto nodes ``t_j = -cos(pi j / n)`` of degree
    ``n``, run from ``-1`` to ``1``. Returns the nodes as a column; the
    matrix ``q`` that maps values at the nodes to the integrals from ``-1``
    of their interpolant at the nodes; and the inverse Vandermonde matrix
    ``T_k(t_j)^-1``, whose rows give the interpolant's Chebyshev
    coefficients. With ``u_j = pi (n - j) / n`` the
    basis is ``T_k(t_j) = cos(k u_j)``, and ``int_{-1}^t T_k`` is ``t + 1``,
    ``(t^2 - 1) / 2`` and, from ``k = 2``, ``T_(k+1) / (2 (k+1)) - T_(k-1)
    / (2 (k-1)) - (-1)^k / (k^2 - 1)``."""
    k = np.arange(n + 1.0)
    u = np.pi * (n - k)[:, None] / n
    vander = np.cos(u * k)
    t = vander[:, 1:2]
    m = k[2:]
    integral = np.hstack(
        (
            t + 1.0,
            0.5 * (t * t - 1.0),
            np.cos(u * (m + 1.0)) / (2.0 * (m + 1.0))
            - np.cos(u * (m - 1.0)) / (2.0 * (m - 1.0))
            - (-1.0) ** m / (m * m - 1.0),
        )
    )
    inv = np.linalg.inv(vander)
    return t, integral @ inv, inv


def _flow_degree(f, t2, t3, h: float) -> int:
    """The time degree of a cold ``flow`` call, from the Taylor terms ``y' =
    f``, ``y'' = t2`` and ``y''' = t3`` of its first segment at the nodes,
    and the segment length ``h``. With ``c1 = max|f|``, ``c2 = max|t2| /
    2``, ``c3 = max|t3| / 6`` and ``r = max(c2 / c1, c3 / c2)`` the Taylor
    coefficients grow like ``c1 r^(k-1)``, and the degree-``n`` Chebyshev
    series of a segment misses about ``2 c1 r^(n-2) (h / 4)^(n-1)``. Returns
    the smallest even ``n >= 4`` that puts this at most ``1e-15``, else
    ``_FLOW_DEGREE``."""
    c1, c2, c3 = (float(np.max(np.abs(v))) / w for v, w in ((f, 1.0), (t2, 2.0), (t3, 6.0)))
    r = max(c2 / c1 if c1 else 0.0, c3 / c2 if c2 else 0.0)
    for n in range(4, _FLOW_DEGREE, 2):
        if 2.0 * c1 * r ** (n - 2) * (abs(h) / 4.0) ** (n - 1) <= 1e-15:
            return n
    return _FLOW_DEGREE


def _slope_scan(series: TrigSeries):
    """The node scan of a lift's slope ``phi' = 1 + series'``, one inverse
    FFT: the node count ``n``, ``phi'`` on ``circle_grid(n)``, its minimum
    ``lo``, ``reach`` (no local minimum of ``phi'`` lies more than that
    below its nearest node), and the ``k`` and ``|a_k| + |b_k|`` it reads."""
    # A power of two keeps the inverse FFT fast; 8 * 2446 = 16 * 1223 is slow.
    n = 1 << (8 * max(series.modes, 32) - 1).bit_length()
    slopes = 1.0 + trig_eval_uniform(series.cos, series.sin, n, 1)
    # A minimum between nodes lies within h/2 of a node that exceeds it by
    # at most sup|phi'''| (h/2)^2 / 2, and sup|phi'''| <= sum k^3 (|a_k| + |b_k|).
    k = np.arange(1.0, series.modes + 1.0)
    mass = np.abs(series.cos) + np.abs(series.sin)
    reach = 0.5 * float((k * k * k) @ mass) * (np.pi / n) ** 2
    return n, slopes, float(np.min(slopes)), reach, k, mass


def _slope_floor(series: TrigSeries, scan) -> float:
    """``CircleDiffeo.min_slope`` from the ``_slope_scan`` of ``series``: the
    smallest of the node minimum and the polished minima next to the local
    node minima within ``reach`` of it, as ``CircleDiffeo`` describes."""
    n, slopes, lo, reach, k, mass = scan
    i = np.nonzero(slopes <= lo + reach)[0]
    i = i[(slopes[i] < slopes[i - 1]) & (slopes[i] <= slopes[(i + 1) % n])]
    t = TWO_PI * (i + np.array([[-1.0], [0.0], [1.0]])) / n
    curv = series.at(t, 2)
    # Rows j and j + 1 hold the ends of the left (j = 0) or right half.
    j, col = np.where(curv[1] > 0.0, 0, 1), np.arange(i.size)
    ends = t[j, col], t[j + 1, col], curv[j, col], curv[j + 1, col]
    turn = (ends[2] <= 0.0) & (0.0 <= ends[3])
    if not np.any(turn):
        return lo
    # Rounding bound of phi'': the power e^(ikx) in each term
    # k^2 (a_k cos(kx) + b_k sin(kx)) carries about 3 k eps (the rounding
    # of e^(ix) and of k complex multiplies and adds), the weight and the
    # sum about 2 eps. A smaller |phi''| has no reliable sign; stopping
    # there moves phi' by about phi''^2 / (2 |phi'''|) only.
    ftol = EPS * float((k**2 * (2.0 + 3.0 * k)) @ mass)
    star = solve_bracketed(lambda x: series.jet(x, (2, 3)), *(v[turn] for v in ends), ftol)
    return min(lo, float(np.min(1.0 + series.at(star, 1))))


class _FourierData:
    """The ``TrigSeries`` that a diffeo lift's displacement or a vector
    field is, with its coefficient tables."""

    __slots__ = ("series",)

    @property
    def cos(self) -> np.ndarray:
        return self.series.cos

    @property
    def sin(self) -> np.ndarray:
        return self.series.sin

    @property
    def modes(self) -> int:
        return self.series.modes


class CircleDiffeo(_FourierData):
    """Orientation-preserving circle diffeomorphism as a Fourier lift.

    Parameters
    ----------
    shift:
        Constant part of the displacement ``phi(theta) - theta``.
    cos, sin:
        Coefficient tables ``a_n``, ``b_n`` for ``n = 1 ..``; unequal lengths
        are zero-padded.

    The constructor rejects, with ``ValueError``, every lift whose
    ``min_slope`` is below ``MIN_SLOPE`` and accepts every other. It scans
    ``phi'`` on ``n`` nodes, the power of two at or above ``8 * max(modes,
    32)``, with one inverse FFT. Every local minimum of ``phi'`` lies at
    most ``reach = sup|phi'''| (h/2)^2 / 2 <= (1/2) sum_k k^3 (|a_k| +
    |b_k|) (pi / n)^2`` below its nearest node (``h = 2 pi / n`` the node
    spacing). No computed value of ``phi'`` falls below ``lo - reach -
    delta``, with ``lo`` the node minimum and ``delta = eps (1 + sum_k k (2
    + 3 k + log2 n) (|a_k| + |b_k|))`` the rounding bound of the scan
    (``eps log2 n sum k (|a_k| + |b_k|)``), of ``phi'`` at a polished point
    (``eps sum k (2 + 3 k) (|a_k| + |b_k|)``, as for ``phi''`` below), of
    the added constant and of the comparison; the measured errors of both
    evaluations stay under an eighth of their terms. When ``lo - reach -
    delta >= MIN_SLOPE`` the lift is accepted without a polish; otherwise
    ``min_slope`` is computed there and decides. A construction costs one
    inverse FFT of ``n`` points plus O(M): O(M log M) time and O(M) memory
    for ``M`` modes, and no polish unless the lift is near the floor.

    ``min_slope`` is the smallest of the node minimum and the values
    ``phi'(t*)`` at polished stationary points, so it is never above the
    node scan. It is computed on first read (a fresh scan, unless the
    constructor polished) and cached, so every read gives the same bits. The
    polish finds the stationary point ``t*`` of ``phi'`` next to each local
    node minimum ``theta_i`` within ``reach`` of the lowest node (usually
    one or two nodes), each in the half of ``[theta_i - h, theta_i + h]``
    where ``phi''`` turns from negative to positive, all in one
    ``solve_bracketed`` call on ``phi''`` with derivative ``phi'''``. A
    bracket stops once ``|phi''|`` is below the rounding bound of its
    evaluation, ``eps sum_k k^2 (2 + 3 k) (|a_k| + |b_k|)``, where its sign
    is noise; high-mode lifts reach that at the first iterate. That usually
    takes 1 to 4 iterations, never more than ``SOLVE_MAX_ITER``, each
    evaluating ``phi''`` and ``phi'''`` at every bracket, O(M) per bracket.

    The displacement is a ``TrigSeries`` (``series``), which builds the
    kernel coefficients of each order once. ``eval``, ``derivative``,
    ``derivatives`` and ``displacement`` at ``P`` scattered angles go
    through its kernel (see ``TrigSeries``): one complex exponential per
    angle, O(P M) flops, and from ``TRIG_TABLE_MIN_MODES`` modes up about
    ``32 P sqrt(M)`` bytes; ``derivatives`` evaluates several orders from
    the same exponentials.
    """

    __slots__ = ("_min_slope",)

    def __init__(self, shift: float = 0.0, cos=(), sin=()) -> None:
        self.series = TrigSeries(shift, cos, sin)
        self._min_slope = None
        scan = _slope_scan(self.series)
        n, _, lo, reach, k, mass = scan
        # The rounding bound delta of the class docstring; n is a power of two.
        delta = EPS * (1.0 + float((k * (2.0 + 3.0 * k + (n.bit_length() - 1))) @ mass))
        if lo - reach - delta >= MIN_SLOPE:
            return
        self._min_slope = lo = _slope_floor(self.series, scan)
        if lo < MIN_SLOPE:
            raise ValueError(
                f"lift slope reaches {lo:.3e}; not an orientation-preserving diffeomorphism"
            )

    @property
    def min_slope(self) -> float:
        """The minimum of ``phi'``: node scan and polished stationary points,
        computed on first read and cached."""
        if self._min_slope is None:
            self._min_slope = _slope_floor(self.series, _slope_scan(self.series))
        return self._min_slope

    @property
    def shift(self) -> float:
        return self.series.const

    @classmethod
    def identity(cls) -> "CircleDiffeo":
        return cls(0.0)

    @classmethod
    def rotation(cls, angle: float) -> "CircleDiffeo":
        return cls(float(angle))

    def eval(self, theta):
        """Lift value ``phi(theta)``; accepts scalars or arrays."""
        th = np.asarray(theta, dtype=float)
        return _as_shape(th + self.series.at(th))

    def derivative(self, theta, order: int = 1):
        """Analytic lift derivative of order 1, 2 or 3 (term by term)."""
        if order not in (1, 2, 3):
            raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
        value = self.series.at(theta, order)
        return _as_shape(1.0 + value if order == 1 else value)

    def derivatives(self, theta, orders):
        """The lift ``phi`` (order 0, as ``eval``) and its ``derivative`` of
        each other order in ``orders`` at ``theta``, one array per order,
        from one exponential per angle (see ``TrigSeries.jet``)."""
        orders = tuple(orders)
        th = np.asarray(theta, dtype=float)
        values = self.series.jet(th, orders)
        if 0 in orders:
            values[orders.index(0)] += th
        if 1 in orders:
            values[orders.index(1)] += 1.0
        return [_as_shape(v) for v in values]

    def displacement(self, theta):
        """Periodic part ``phi(theta) - theta``."""
        return _as_shape(self.series.at(theta))

    def __repr__(self) -> str:  # pragma: no cover
        return f"CircleDiffeo(shift={self.shift:.6g}, modes={self.modes})"


class VectorFieldS1(_FourierData):
    """Smooth vector field ``xi(theta) d/dtheta`` with finite Fourier data."""

    __slots__ = ()

    def __init__(self, const: float = 0.0, cos=(), sin=()) -> None:
        self.series = TrigSeries(const, cos, sin)

    @property
    def const(self) -> float:
        return self.series.const

    def eval(self, theta):
        return _as_shape(self.series.at(theta))

    def derivative(self, theta, order: int = 1):
        if order not in (1, 2, 3):
            raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
        return _as_shape(self.series.at(theta, order))

    def sup_derivative(self, order: int = 1) -> float:
        """``max |xi^(order)|`` (order 0 = the field) sampled by one
        ``trig_eval_uniform`` pass on ``n`` uniform angles, ``n`` the
        smallest power of two above ``2 M + 1`` for ``M`` modes and at
        least 4096: no mode aliases, and the grid contains
        ``circle_grid(4096)``. The samples are values of the series, so the
        result is a lower bound of the true maximum (to rounding), short of
        it by at most the fraction ``(pi M / n)^2 / 2`` (Bernstein's
        inequality bounds the curvature at the maximum). ``flow``'s
        stiffness guard and its starting segment count use it at order 1."""
        n = max(4096, 1 << (2 * self.modes + 1).bit_length())
        values = trig_eval_uniform(self.cos, self.sin, n, order)
        return float(np.max(np.abs(values + self.const if order == 0 else values)))

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
        # Each entry split by frexp, as cross_ratio splits its factors: the
        # determinant is the difference of the two mantissa products at
        # their larger exponent ``top``; its square root is ``r 2^k``, ``r``
        # taken at an even exponent; each entry's mantissa is divided by
        # ``r`` before its exponent is applied. So only a product negligible
        # against the other or a normalized entry out of range leaves the
        # normal range, and where the entries, products and results are
        # normal the bits are those of ``m / sqrt(det)``.
        mant, expo = np.frexp(m)
        (ma, mb), (mc, md) = mant.tolist()
        (ea, eb), (ec, ed) = expo.tolist()
        p, q = ma * md, mb * mc
        top = max((e for x, e in ((p, ea + ed), (q, eb + ec)) if x), default=0)
        det = math.ldexp(p, ea + ed - top) - math.ldexp(q, eb + ec - top)
        if det <= 0:
            with np.errstate(over="ignore"):
                det = np.ldexp(det, top)
            raise ValueError(f"matrix determinant must be positive, got {det:.3e}")
        f, g = math.frexp(det)
        k, odd = divmod(g + top, 2)
        with np.errstate(over="ignore"):
            m = np.ldexp(mant / math.sqrt(math.ldexp(f, odd)), expo - k)
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix normalized to determinant one leaves the float range")
        if m.flat[np.flatnonzero(m)[0]] < 0:
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

    Samples ``outer(inner(theta)) - theta`` from ``k0 = 4 (M1 + M2 + 8)``
    nodes up and escalates resolution under the spectral-overflow and
    residual checks (see ``_project_periodic``). The usual fit is at the
    rounding floor on its first level and makes one call on ``2 k0``
    nodes, ``circle_grid(2 k0)``, so ``inner.eval`` and ``outer.eval`` run
    once each; a safety doubling adds one call on its ``2 k0`` half-step
    nodes, and every further doubling to ``k`` one call on ``k`` nodes. Each call costs one complex
    exponential per node and O(nodes x modes) flops in the kernel of
    ``TrigSeries``; from ``TRIG_TABLE_MIN_MODES`` modes up its memory is
    about ``32 nodes sqrt(modes)`` bytes, so a call at the 8192-node cap
    with 2446 modes peaks near 13 MB. No call is larger than ``2 k0`` or
    the resolution returned.
    """
    k0 = 4 * (outer.modes + inner.modes + 8)

    def fn(theta):
        return outer.eval(inner.eval(theta)) - theta

    shift, a, b = _project_periodic(fn, k0)
    return CircleDiffeo(shift, a, b)


def inverse(d: CircleDiffeo) -> CircleDiffeo:
    """Inverse diffeomorphism via per-node Newton solves of ``phi(x) = t``,
    each iterate taking ``phi`` and ``phi'`` from one exponential per node.

    The first stage is Newton with steps clipped to length 3, to a 1e-13
    sup-norm residual and one polish more, so the error sits at rounding
    level and seeds no spurious modes in the re-projection. The first call
    of the re-projection starts it from ``t - shift``; every later call
    starts from ``t + u``, with ``u`` the displacement the earlier calls
    solved, interpolated to the new nodes (see ``_project_periodic``), so a
    call on a resolved level takes one to three steps where a cold start
    takes five to eight. Each node is solved once: the first call solves
    the ``2 k0`` nodes of ``circle_grid(2 k0)``, each later one only the
    ``k`` half-step nodes of its resolution. It carries no bracket:
    solving every node by ``solve_bracketed`` from the start is slower.
    Near its slope floor a lift can trap it in a 2-cycle. One rule hands
    over: after ``_INVERSE_MAX_ITER`` steps without the residual bound
    (converging solves took at most 8 over 500 default ``random_diffeo``
    draws, and 13 at ``min_slope`` 0.05), the
    second stage solves every node of the call by ``solve_bracketed`` in
    ``[t - shift - reach, t - shift + reach]``, ``reach = sum_n (|a_n| +
    |b_n|)``, which holds the root as ``phi`` is increasing. An end whose
    residual has the wrong sign is within rounding of the root and is
    returned. Solves that converge in the first stage never enter the
    second.
    """

    def residual_slope(x, targets):
        phi, slope = d.derivatives(x, (0, 1))
        return phi - targets, slope

    def solve(targets, x):
        for _ in range(_INVERSE_MAX_ITER):
            r, slope = residual_slope(x, targets)
            x = x - np.clip(r / slope, -3.0, 3.0)
            if np.max(np.abs(r)) <= _INVERSE_TOL:
                return x
        reach = float(np.sum(np.abs(d.cos) + np.abs(d.sin)))
        ends = (targets - d.shift) + np.array([[-reach], [reach]])
        (r_lo, r_hi), _ = residual_slope(ends, targets)
        fdf = functools.partial(residual_slope, targets=targets)
        return solve_bracketed(fdf, *ends, np.minimum(r_lo, 0.0), np.maximum(r_hi, 0.0))

    def fn(theta, prior=None):
        u = solve(theta, theta - d.shift if prior is None else theta + prior) - theta
        return u, u

    shift, a, b = _project_periodic(fn, max(64, 4 * (d.modes + 8)))
    return CircleDiffeo(shift, a, b)


def flow(xi: VectorFieldS1, s: float) -> CircleDiffeo:
    """Time-``s`` flow of a vector field as a circle diffeomorphism.

    Rejected up front when ``s`` is not finite, and when ``|s| * max|xi'|
    >= 5``, where trajectories can collapse toward stagnation points faster
    than the Fourier lift can represent (``max|xi'|`` is
    ``sup_derivative``'s sampled estimate).

    Each call of the re-projection's target integrates the displacement
    ``y' = xi(theta + y)``, ``y(0) = 0``, at all its nodes at once by
    Picard iteration in a Chebyshev series in time (Clenshaw and Norton,
    1963): ``[0, s]`` is cut into equal segments, each carrying the
    displacement at the ``n + 1`` Chebyshev--Lobatto time nodes of a degree
    ``n`` at most ``_FLOW_DEGREE``, and a sweep replaces it by ``y_start +
    (h / 2) q xi(theta + y)``, with ``q`` the exact integration matrix of
    the interpolant (``_picard_matrices``). It starts with ``ceil(|s|
    max|xi'| / 0.5)`` segments, so that a sweep contracts by about ``h
    max|xi'| <= 0.5``.

    A segment's sweeps stop when ``max|dy|`` over the whole call is at most
    ``noise_floor(max|theta + y|)``, at least ``16 eps pi`` since the angles
    span a period; the rounding floor lets fields that drift the angles far
    settle. The converged segment must then be resolved in time: its top two
    Chebyshev coefficients must sit under the same floor. Without that check
    a fixed-degree series would silently return a wrong flow when the field
    seen along a trajectory oscillates faster than it resolves (a large
    constant term drifting past many modes). Every segment of a call runs at
    one degree. When a segment misses either test within
    ``_FLOW_MAX_SWEEPS`` sweeps, a call below ``_FLOW_DEGREE`` is retried
    cold at ``_FLOW_DEGREE`` with the same segments, and a call at
    ``_FLOW_DEGREE`` is retried cold with twice the segments and a degree
    sized anew; past ``_FLOW_MAX_SEGMENTS`` segments ``ArithmeticError`` is
    raised.

    The re-projection's first call, and every restart, starts cold: each
    segment's sweeps start from the third-order Taylor polynomial of ``y``
    at its start, ``y + tau f + tau^2 / 2 f f' + tau^3 / 6 (f'' f^2 + f'^2
    f)`` with ``f = xi(theta + y)``, from one ``jet`` of orders 0--2 on the
    ``P`` nodes. Each sweep gains about one order in ``tau``, so this saves
    the first three sweeps of a constant start. On a cold call that is not
    a retry at full degree, the first segment's Taylor terms also size the
    degree (``_flow_degree``): the smallest even ``n >= 4`` whose estimated
    truncation is at most ``1e-15``. A later call gets the converged time
    rows of the earlier calls interpolated to its nodes (see
    ``_project_periodic``), shaped ``(segments, n + 1, P)``, takes both its
    segment count and its degree from their shape, starts each segment's
    sweeps from its rows, and on a resolved level settles in one sweep. The
    rows are kept only when ``segments (n + 1) P`` is at most
    ``_PROJECT_CAP``, one evaluation block; beyond that every call starts
    cold.

    Cost: a sweep evaluates ``xi`` at ``(n + 1) P`` angles for ``P``
    nodes. With fields of 1 to 8 modes, a cold segment at ``h max|xi'| =
    0.45`` takes degree 16 to 20 and 10 sweeps; at 0.15 degree 12 to 16
    and 7 sweeps; at 0.0015 degree 6 and 2 sweeps. A re-projection at the
    rounding floor on its first level makes one cold call of ``P`` nodes;
    otherwise a warm call on ``P`` half-step nodes follows, and a flow
    takes 11, 8 and 3 sweeps: 188--232, 105--137 and 22 ``P`` kernel
    angles, Taylor jet included. ``sup_derivative`` adds one inverse FFT
    and no kernel call.
    The evaluations take whole time rows, at most ``_PROJECT_CAP`` angles
    each, so the memory beyond ``xi``'s kernel on those angles is a few
    ``(n + 1) x P`` arrays (4.7 MB traced for 256 modes, the Taylor jet's
    three orders included).

    """
    s = _finite("s", s)
    sup1 = xi.sup_derivative(1)
    if abs(s) * sup1 >= 5.0:
        raise ValueError(f"flow time too long for stable integration (|s| max|xi'| = {abs(s) * sup1:.3g})")
    if s == 0.0:
        return CircleDiffeo.identity()

    def sweep(theta, y, cur, half):
        """Picard sweeps of one segment from its time rows ``cur``, shaped
        ``(n + 1, P)``: the last rows, and whether they converged and are
        resolved in time."""
        _, q, inv = _picard_matrices(cur.shape[0] - 1)
        block = _PROJECT_CAP // theta.size
        # The angles theta + y of the rows; each sweep evaluates xi on them
        # in place and forms the next sweep's angles, whose size also sets
        # the stop floor.
        vals = theta + cur
        for _ in range(_FLOW_MAX_SWEEPS):
            for i in range(0, len(vals), block):
                vals[i : i + block] = xi.eval(vals[i : i + block])
            nxt = y + half * (q @ vals)
            vals = theta + nxt
            floor = noise_floor(float(np.abs(vals).max()))
            step = float(np.abs(nxt - cur).max())
            cur = nxt
            if step <= floor:
                return cur, bool(np.abs(inv[-2:] @ cur).max() <= floor)
        return cur, False

    def integrate(theta, segments, degree, start):
        """``(y, rows, degree)``: the displacement ``y`` at ``theta`` after
        ``segments`` segments, all at time degree ``degree`` (``None``:
        sized from the first segment), and their converged time rows
        stacked as ``(segments, degree + 1, P)`` when they fit in
        ``_PROJECT_CAP`` values (else ``None``); ``y`` is ``None`` when a
        segment misses. A segment's sweeps start from its rows of ``start``
        if given, else from its Taylor polynomial."""
        h = s / segments
        half = 0.5 * h
        rows, y = [], np.zeros((1, theta.size))
        for j in range(segments):
            if start is None:
                f, d1, d2 = xi.series.jet(theta + y, (0, 1, 2))
                t2, t3 = f * d1, f * (f * d2 + d1 * d1)
                if degree is None:
                    degree = _flow_degree(f, t2, t3, h)
                tau = half * (_picard_matrices(degree)[0] + 1.0)
                cur = y + tau * (f + tau / 2.0 * (t2 + tau / 3.0 * t3))
            else:
                cur = start[j]
            cur, ok = sweep(theta, y, cur, half)
            if not ok:
                return None, None, degree
            if segments * cur.size <= _PROJECT_CAP:
                rows.append(cur)
            y = cur[-1:]
        return y[0], np.stack(rows) if rows else None, degree

    def fn(theta, prior=None):
        segments = max(1, int(np.ceil(abs(s) * sup1 / 0.5))) if prior is None else prior.shape[0]
        degree = None if prior is None else prior.shape[1] - 1
        while segments <= _FLOW_MAX_SEGMENTS:
            y, rows, degree = integrate(theta, segments, degree, prior)
            if y is not None:
                return y, rows
            # A miss below full degree retries cold at full degree; one at
            # full degree doubles the segments and sizes the degree anew.
            full, prior = degree == _FLOW_DEGREE, None
            segments, degree = (2 * segments, None) if full else (segments, _FLOW_DEGREE)
        raise ArithmeticError(f"flow not resolved within {_FLOW_MAX_SEGMENTS} time segments")

    return CircleDiffeo(*_project_periodic(fn, max(64, 4 * (xi.modes + 8))))


def bracket(xi1: VectorFieldS1, xi2: VectorFieldS1) -> VectorFieldS1:
    """Lie bracket ``[xi1, xi2] = (xi1 xi2' - xi2 xi1') d/dtheta``.

    A trigonometric polynomial of degree at most ``m1 + m2``, so one
    ``jet`` of orders 0 and 1 per field and one transform on
    ``circle_grid(n)``, ``n = max(16, 2 (m1 + m2 + 4))``, give it exactly;
    ``_fit`` drops the coefficients below the rounding floor. Bits: those
    of ``_project_periodic(fn, n)`` when that returns at its first level
    (``m1 + m2 <= 5`` or ``m1 = m2 <= 4``), else equal but for the last
    bits. ``n`` above ``_PROJECT_CAP`` raises ``ArithmeticError`` before
    the passes.
    """
    n = max(16, 2 * (xi1.modes + xi2.modes + 4))
    if n > _PROJECT_CAP:
        raise ArithmeticError(f"Fourier projection needs {n} nodes, above the cap of {_PROJECT_CAP}")
    theta = circle_grid(n)
    (v1, d1), (v2, d2) = xi1.series.jet(theta, (0, 1)), xi2.series.jet(theta, (0, 1))
    const, a, b = _fit(v1 * d2 - v2 * d1, n)[:3]
    return VectorFieldS1(const, a, b)


def random_diffeo(
    rng: np.random.Generator,
    max_degree: int = 4,
    amplitude: float = 0.25,
    min_slope: float = 0.2,
) -> CircleDiffeo:
    """Draw a random diffeomorphism with guaranteed slope margin.

    Gaussian Fourier coefficients with geometric decay; if the minimum of
    the lift slope on 2048 uniform angles (one inverse FFT,
    ``trig_eval_uniform``) dips below ``min_slope``, the periodic part is
    rescaled so that minimum lands on it, up to rounding. Deterministic for
    a seeded generator. A ``max_degree`` below 2, or a ``min_slope`` that
    is not finite or is above 1 (every lift's slope averages 1), raises
    ``ValueError`` before ``rng`` is drawn from.
    """
    if max_degree < 2:
        raise ValueError(f"max_degree must be at least 2, got {max_degree}")
    if _finite("min_slope", min_slope) > 1.0:
        raise ValueError(f"min_slope must be at most 1, the mean of every lift's slope, got {min_slope}")
    m = int(rng.integers(2, max_degree + 1))
    decay = 0.5 ** np.arange(m)
    a = amplitude * decay * rng.standard_normal(m)
    b = amplitude * decay * rng.standard_normal(m)
    shift = float(rng.uniform(-np.pi, np.pi))
    lo = 1.0 + float(np.min(trig_eval_uniform(a, b, 2048, 1)))
    if lo < min_slope:
        scale = (1.0 - min_slope) / (1.0 - lo)
        a, b = scale * a, scale * b
    return CircleDiffeo(shift, a, b)


def random_vector_field(
    rng: np.random.Generator, max_degree: int = 3, amplitude: float = 0.5
) -> VectorFieldS1:
    """Draw a random band-limited vector field with geometric coefficient
    decay. A ``max_degree`` below 1 raises ``ValueError`` before ``rng`` is
    drawn from."""
    if max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
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
