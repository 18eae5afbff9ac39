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

import functools

import numpy as np

from .numerics import TWO_PI, TrigSeries, TrigStack, circle_grid, shift_phase, solve_bracketed
from .numerics import split_spectrum, trig_eval_uniform

# Lifts whose minimum slope falls below this are rejected as degenerate.
MIN_SLOPE = 1e-6

_PROJECT_CAP = 8192
# Chebyshev--Picard integration in ``flow``: the highest degree of the series
# in time per segment, the sweep stop tolerance (raised to the rounding floor
# of the angles), the sweeps a segment may take, and the segment count past
# which it gives up.
_FLOW_DEGREE = 20
_FLOW_TOL = 1e-14
_FLOW_MAX_SWEEPS = 64
_FLOW_MAX_SEGMENTS = 4096
# Sup-norm residual at which the per-node Newton solves of ``inverse`` stop,
# the iteration bound of its first, unbracketed stage, and the steps without
# a new smallest residual after which that stage hands its nodes on.
_INVERSE_TOL = 1e-13
_INVERSE_MAX_ITER = 100
_INVERSE_STALL = 8
_RESIDUAL_TOL = 1e-10
_TAIL_ENERGY_TOL = 1e-12
# Per-mode amplitude floor, in units of eps * scale: coefficients below it are
# rounding noise and would pollute third derivatives by n^3 * noise if kept.
_NOISE_FLOOR_EPS = 16.0


def _as_shape(values):
    """A float for a scalar angle, else the array of the angles' shape."""
    return float(values) if np.ndim(values) == 0 else values


def _project_periodic(fn, k0: int):
    """Fit a smooth periodic function with a finite Fourier series.

    ``fn`` maps an array of angles to periodic values, optionally with
    state (below). Coefficients below the rounding floor are dropped; the
    resolution doubles until the trailing third of the raw spectrum is
    negligible, the kept band fits inside the leading two thirds, and the
    interpolation residual on the half-step grid is below the tolerance.
    Returns ``(mean, cos, sin)``.

    ``fn`` may instead return a stack of rows, shaped ``(rows, nodes)``,
    that share its nodes; then the result is a list of ``(mean, cos, sin)``,
    one per row. Each row keeps its own spectrum, rounding floor, residual
    and settle tests, so it gets the fit a target returning that row alone
    would get. The rows share the path below, so where their tests would
    choose different nodes, settle at different resolutions, or pass at
    different ones, ``_Diverged`` is raised for the caller to fit them one
    by one.

    One call of ``fn`` per resolution. The ``k``-grid and its half-step probe
    are the even and odd nodes of ``circle_grid(2k)``, so the starting
    resolution ``k0`` makes one call, ``fn(circle_grid(2 k0))``, which is
    also the whole fit of resolution ``2 k0``. A further resolution ``k``
    probes with one call: on its ``k`` half-step nodes
    ``circle_grid(2k)[1::2]``, which the next fit interleaves with the
    current one, or on all of ``circle_grid(2k)`` when the next resolution
    may be the one returned (this one passed its spectrum check unsettled,
    or the next is at the cap). The returned coefficients therefore always
    come from one call on exactly ``circle_grid(K)``; that matters because
    the values of ``fn`` in ``inverse`` and ``flow`` depend on the nodes
    sampled together. The usual path, settled one doubling after the start,
    makes 2 calls on ``4 k0`` nodes and samples no angle twice; a path
    ending at ``K`` samples fewer than ``3 K`` nodes in all, where a fit
    and a probe call per resolution would take ``4 K - 2 k0``. Memory
    ceiling: no call exceeds the resolution ``K`` returned, which the fit
    itself needs. A start with ``2 k0`` above the cap ``_PROJECT_CAP`` fits
    and probes (at ``circle_grid(k0) + pi / k0``) with two ``k0``-node
    calls, and a resolution at the cap probes likewise.

    A target may hand its solution to its next call. If a call returns a
    pair ``(values, state)``, with the last axis of the array ``state``
    running over the call's nodes, the next call is ``fn(theta, prior)``
    with the state rows at its nodes: at a node sampled before, the rows
    that node's call returned; at a half-step node, their trigonometric
    interpolant (``_half_step``, one ``rfft`` and one ``irfft`` along the
    node axis). The first call, and any call whose nodes lack rows because
    an earlier call returned plain values or a ``None`` state, is
    ``fn(theta)``. ``inverse`` and ``flow`` start their iterations there;
    ``compose``, ``bracket`` and plain functions return values alone. The
    fit is still one call on ``circle_grid(K)``; only where that call's
    iterations start depends on the earlier calls, and the state lives only
    as long as this function runs.

    Per resolution ``k`` and row the fit costs one FFT and the residual
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
    single = None

    def sample(theta, prior=None):
        nonlocal single
        out = fn(theta) if prior is None else fn(theta, prior)
        values, state = out if isinstance(out, tuple) else (out, None)
        values = np.asarray(values, dtype=float)
        single = values.ndim == 1
        return values.reshape(-1, theta.size), state

    # v: fit rows on circle_grid(k); half: fn on its k half-step nodes;
    # nxt: the rows on circle_grid(2k) when one call already holds them;
    # sv, snxt: the state rows on the nodes of v and nxt, or None.
    nxt = snxt = sv = None
    if 2 * k > _PROJECT_CAP:
        v, sv = sample(circle_grid(k))
        half = None
    else:
        nxt, snxt = sample(circle_grid(2 * k))
        v, half = nxt[:, 0::2], nxt[:, 1::2]
    settled = False
    while True:
        rows = [_fit_row(row, k) for row in v]
        if half is None:
            mid = None if sv is None else _half_step(sv)
            if 2 * k > _PROJECT_CAP:
                half, _ = sample(circle_grid(k) + np.pi / k, mid)
            elif 4 * k > _PROJECT_CAP or (not settled and _same([ok for *_, ok in rows])):
                # The next resolution may be the one returned: sample all of
                # its nodes in one call, so its fit is fn(circle_grid(2k)).
                nxt, snxt = sample(circle_grid(2 * k), _interleave(sv, mid))
                half = nxt[:, 1::2]
            else:
                half, shalf = sample(circle_grid(2 * k)[1::2], mid)
                snxt = _interleave(sv, shalf)
        resid = [
            np.abs(probe - (mean + trig_eval_uniform(a, b, k, offset=np.pi / k))).max()
            for (mean, a, b, _, _), probe in zip(rows, half)
        ]
        if _same([ok and r <= _RESIDUAL_TOL * scale for (*_, scale, ok), r in zip(rows, resid)]):
            if settled or 2 * k > _PROJECT_CAP:
                fits = [(float(mean), a, b) for mean, a, b, _, _ in rows]
                return fits[0] if single else fits
            # One safety doubling: re-measuring every kept coefficient at twice
            # the resolution pushes aliasing contamination to the floor.
            settled = True
        elif 2 * k > _PROJECT_CAP:
            raise ArithmeticError(
                f"Fourier projection did not resolve the target below {_PROJECT_CAP} nodes "
                f"(residual {resid[0]:.3e})"
            )
        else:
            settled = False
        if nxt is None:
            nxt = _interleave(v, half)
        v, sv, half, nxt, snxt = nxt, snxt, None, None, None
        k *= 2


def _fit_row(v, k: int):
    """The fit of values ``v`` on ``circle_grid(k)`` by ``_project_periodic``:
    ``(mean, cos, sin, scale, spectrum_ok)``, with the coefficients above
    the rounding floor and whether the spectrum passes its test."""
    mean, a, b, nyq = split_spectrum(np.fft.rfft(v) / k)
    amp2 = a * a + b * b
    scale = max(1.0, float(np.abs(v).max()))
    noise_floor = _NOISE_FLOOR_EPS * np.finfo(float).eps * scale
    keep = np.nonzero(np.abs(a) + np.abs(b) > noise_floor)[0]
    m = int(keep[-1]) + 1 if keep.size else 0
    total = mean * mean + 0.5 * amp2.sum() + nyq * nyq
    cut = (k // 2) * 2 // 3
    tail = 0.5 * amp2[cut - 1 :].sum() + nyq * nyq
    # Resolved when the trailing third is relatively negligible, or sits at
    # the rounding floor outright (near-identity compositions land there,
    # where a relative test on noise can never pass).
    return mean, a[:m], b[:m], scale, tail <= max(_TAIL_ENERGY_TOL * total, noise_floor**2)


class _Diverged(Exception):
    """The rows of a stacked re-projection or flow took different decisions."""


def _same(values):
    """The decision every row took, from one value per row; raises
    ``_Diverged`` when the rows differ."""
    first, *rest = values
    if any(v != first for v in rest):
        raise _Diverged
    return first


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
    ``n``, run from ``-1`` to ``1``. Returns the Vandermonde matrix
    ``T_k(t_j)``, whose column 1 is the nodes; the matrix ``q`` that maps
    values at the nodes to the integrals from ``-1`` of their interpolant at
    the nodes; and the inverse Vandermonde matrix, whose rows give the
    interpolant's Chebyshev coefficients. With ``u_j = pi (n - j) / n`` the
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
    return vander, integral @ inv, inv


def _resample(rows, n: int):
    """Time rows given at the Lobatto nodes of some degree along axis
    ``-2``: their interpolant at the nodes of degree ``n``."""
    m = rows.shape[-2] - 1
    return _picard_matrices(n)[0][:, : m + 1] @ _picard_matrices(m)[2] @ rows


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


def _slope_nodes(series: TrigSeries):
    """The node count ``n`` of a lift's slope scan, ``phi' = 1 + series'``
    on ``circle_grid(n)``, and its minimum ``lo``."""
    # A power of two keeps both inverse FFTs fast; 8 * 2446 = 16 * 1223 is slow.
    n = 1 << (8 * max(series.modes, 32) - 1).bit_length()
    slopes = 1.0 + trig_eval_uniform(series.cos, series.sin, n, 1)
    return n, slopes, float(np.min(slopes))


def _slope_reach(series: TrigSeries, n: int) -> float:
    """``reach`` of the scan on ``n`` nodes: no local minimum of ``phi'``
    lies more than ``reach`` below its nearest node."""
    if not series.modes:
        return 0.0
    # A minimum between nodes lies within h/2 of a node that exceeds it by
    # at most sup|phi'''| (h/2)^2 / 2. By Bernstein's inequality sup|phi'''|
    # is at most its node maximum over 1 - pi M / n.
    sup3 = np.max(np.abs(trig_eval_uniform(series.cos, series.sin, n, 3)))
    return 0.5 * sup3 / (1.0 - np.pi * series.modes / n) * (np.pi / n) ** 2


def _slope_scan(series: TrigSeries):
    """The node scan of a lift's slope ``phi' = 1 + series'``: the node count
    ``n``, ``phi'`` on ``circle_grid(n)``, its minimum ``lo``, and ``reach``
    (``_slope_reach``)."""
    n, slopes, lo = _slope_nodes(series)
    return n, slopes, lo, _slope_reach(series, n)


def _slope_floor(series: TrigSeries, scan) -> float:
    """``CircleDiffeo.min_slope`` from the ``_slope_scan`` of ``series``: the
    smallest of the node minimum and the polished minima next to the local
    node minima within ``reach`` of it, as ``CircleDiffeo`` describes."""
    n, slopes, lo, reach = scan
    local = (slopes < np.roll(slopes, 1)) & (slopes <= np.roll(slopes, -1))
    i = np.nonzero(local & (slopes <= lo + reach))[0]
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
    k = np.arange(1.0, series.modes + 1.0)
    w = k**2 * (2.0 + 3.0 * k)
    ftol = np.finfo(float).eps * float(w @ (np.abs(series.cos) + np.abs(series.sin)))
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
    most ``reach = sup|phi'''| (h/2)^2 / 2`` below its nearest node (``h``
    the node spacing). ``sup|phi'''|`` is first bounded by ``sum_k k^3
    (|a_k| + |b_k|)``; only when that bound cannot accept the lift does a
    second inverse FFT scan ``phi'''`` and bound it by Bernstein's
    inequality from its node maximum. Both are bounds, so the first accepts
    only lifts that the second, with its polish, accepts too. No computed
    value of ``phi'`` falls below ``lo - reach - delta``, with ``lo`` the
    node minimum and ``delta = eps (1 + sum_k k (2 + 3 k + log2 n) (|a_k| +
    |b_k|))`` the rounding bound of the scan (``eps log2 n sum k (|a_k| +
    |b_k|)``), of ``phi'`` at a polished point (``eps sum k (2 + 3 k)
    (|a_k| + |b_k|)``, as for ``phi''`` below), of the added constant and
    of the comparison; the measured errors of both evaluations stay under
    an eighth of their terms. When ``lo - reach - delta >= MIN_SLOPE`` the
    lift is accepted without a polish; otherwise ``min_slope`` is computed
    there and decides. A construction costs one inverse FFT of ``n``
    points plus O(M), and a second one near the floor: O(M log M) time and
    O(M) memory for ``M`` modes, and no polish unless the lift is near the
    floor.

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
        n, slopes, lo = _slope_nodes(self.series)
        # The rounding bound delta of the class docstring; n is a power of two.
        k = np.arange(1.0, self.modes + 1.0)
        w = k * (2.0 + 3.0 * k + (n.bit_length() - 1))
        size = np.abs(self.cos) + np.abs(self.sin)
        delta = np.finfo(float).eps * (1.0 + float(w @ size))
        # sup|phi'''| <= sum k^3 (|a_k| + |b_k|) certifies most lifts
        # without the FFT of phi'''.
        if lo - 0.5 * float((k * k * k) @ size) * (np.pi / n) ** 2 - delta >= MIN_SLOPE:
            return
        reach = _slope_reach(self.series, n)
        if lo - reach - delta >= MIN_SLOPE:
            return
        self._min_slope = lo = _slope_floor(self.series, (n, slopes, lo, reach))
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
        """``max |xi^(order)|`` (order 0 = the field) sampled on 4096
        uniform angles: a lower bound of the true maximum, short of it by at
        most the fraction ``(pi M / 4096)^2 / 2`` for ``M`` modes (Bernstein's
        inequality bounds the curvature at the maximum). ``flow``'s
        stiffness guard and its starting segment count use it at order 1.

        The samples come from one inverse real FFT, as in
        ``trig_eval_uniform``, of the spectrum folded onto the 4096 nodes:
        there mode ``k`` is mode ``k mod 4096``, and a mode ``r`` past the
        Nyquist bin is the conjugate of mode ``4096 - r``. Below 2048 modes
        nothing folds; at any mode count the samples are those of the
        series, to rounding."""
        if order not in (0, 1, 2, 3):
            raise ValueError(f"derivative order must be 0, 1, 2 or 3, got {order}")
        n = 4096
        k = np.arange(1, self.modes + 1)
        coef = (0.5 * n * 1j**order) * k.astype(float) ** order * (self.cos - 1j * self.sin)
        r = k % n
        coef = np.where(r > n // 2, coef.conj(), coef)
        r = np.minimum(r, n - r)
        # irfft counts the constant and Nyquist bins once, the others twice.
        coef[(r == 0) | (r == n // 2)] *= 2.0
        spec = np.bincount(r, coef.real, n // 2 + 1) + 1j * np.bincount(r, coef.imag, n // 2 + 1)
        if order == 0:
            spec[0] += n * self.const
        return float(np.max(np.abs(np.fft.irfft(spec, n))))

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

    Samples ``outer(inner(theta)) - theta`` from ``k0 = 4 (M1 + M2 + 8)``
    nodes up and escalates resolution under the spectral-overflow and
    residual checks (see ``_project_periodic``). The usual two-level fit
    makes two calls on ``2 k0`` nodes each, ``circle_grid(2 k0)`` and its
    half-step nodes, so ``inner.eval`` and ``outer.eval`` run twice each;
    every further doubling to ``k`` adds one call on ``k`` or ``2k`` nodes.
    Each call costs one complex exponential per node and O(nodes x modes)
    flops in the kernel of ``TrigSeries``; from ``TRIG_TABLE_MIN_MODES``
    modes up its memory is about ``32 nodes sqrt(modes)`` bytes, so a call
    at the 8192-node cap with 2446 modes peaks near 13 MB. No call is
    larger than the resolution returned.
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
    takes five to eight. It carries no bracket: solving every node by
    ``solve_bracketed`` from the start made the median inverse about 1.8x
    slower (600 draws). Near its slope floor a lift can trap it in a
    2-cycle; once ``max|r|`` has not fallen below its smallest value for
    ``_INVERSE_STALL`` steps, or after ``_INVERSE_MAX_ITER`` steps, the
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
        best, stalled = np.inf, 0
        for _ in range(_INVERSE_MAX_ITER):
            r, slope = residual_slope(x, targets)
            x = x - np.clip(r / slope, -3.0, 3.0)
            worst = np.max(np.abs(r))
            if worst <= _INVERSE_TOL:
                return x
            stalled = 0 if worst < best else stalled + 1
            best = min(best, worst)
            if stalled == _INVERSE_STALL:
                break
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

    Rejected up front when ``|s| * max|xi'| >= 5``, where trajectories can
    collapse toward stagnation points faster than the Fourier lift can
    represent (``max|xi'|`` is ``sup_derivative``'s sampled estimate).

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
    ``max(_FLOW_TOL, _NOISE_FLOOR_EPS eps max|theta + y|)``; the rounding
    floor lets fields that drift the angles far settle. The converged
    segment must then be resolved in time: its top two Chebyshev
    coefficients must sit under the same floor. Without that check a
    fixed-degree series would silently return a wrong flow when the field
    seen along a trajectory oscillates faster than it resolves (a large
    constant term drifting past many modes). A segment that misses either
    test, within ``_FLOW_MAX_SWEEPS`` sweeps, below ``_FLOW_DEGREE`` goes
    on at ``_FLOW_DEGREE``, its sweeps warm from its rows interpolated in
    time (``_resample``), and so do the later segments; at ``_FLOW_DEGREE``
    it doubles the segment count and restarts cold; past
    ``_FLOW_MAX_SEGMENTS`` segments ``ArithmeticError`` is raised.

    The re-projection's first call, and every restart, starts cold: each
    segment's sweeps start from the third-order Taylor polynomial of ``y``
    at its start, ``y + tau f + tau^2 / 2 f f' + tau^3 / 6 (f'' f^2 + f'^2
    f)`` with ``f = xi(theta + y)``, from one ``jet`` of orders 0--2 on the
    ``P`` nodes. Each sweep gains about one order in ``tau``, so this saves
    the first three sweeps of a constant start. The first segment's Taylor
    terms also size the degree (``_flow_degree``): the smallest even ``n >=
    4`` whose estimated truncation is at most ``1e-15``. A later call gets
    the converged time rows of the earlier calls at its nodes (see
    ``_project_periodic``), shaped ``(1, segments, n + 1, P)``, takes both
    its segment count and its degree from their shape, starts each
    segment's sweeps from its rows, and on a resolved level settles in one
    sweep. The rows are kept only while ``segments (n + 1) P`` is at most
    ``_PROJECT_CAP``, one evaluation block; beyond that every call starts
    cold.

    Cost: a sweep evaluates ``xi`` at ``(n + 1) P`` angles for ``P``
    nodes. With fields of 1 to 8 modes, a cold segment at ``h max|xi'| =
    0.45`` takes degree 16 to 20 and 10 sweeps; at 0.15 degree 12 to 16
    and 7 sweeps; at 0.0015 degree 6 and 2 sweeps. The usual re-projection
    makes two calls of ``P`` nodes, the second warm, so a flow takes 11, 8
    and 3 sweeps: 188--232, 105--137 and 22 ``P`` kernel angles, Taylor
    jet included, where the constant start at degree 20 took 14, 11 and 6
    sweeps (294, 231 and 126 ``P``). ``sup_derivative`` adds one inverse
    FFT and no kernel call.
    The evaluations take whole time rows, at most ``_PROJECT_CAP`` angles
    each, so the memory beyond ``xi``'s kernel on those angles is a few
    ``(n + 1) x P`` arrays (4.7 MB traced for 256 modes, the Taylor jet's
    three orders included).

    ``flow`` is the one-row case of ``_flows``, which integrates several
    times of one field in one re-projection with the same bits.
    """
    return _flows(xi, (s,))[0]


def _flows(xi: VectorFieldS1, times) -> list:
    """``[flow(xi, s) for s in times]``, each flow bit for bit what ``flow``
    returns, from one re-projection for all nonzero times.

    The guard of ``flow`` applies to each time in turn. The target of the
    re-projection integrates every nonzero time at its nodes at once: the
    time rows carry a leading axis of one row per time, each sweep makes one
    evaluation of ``xi`` for all rows, and ``_project_periodic`` fits each
    row. Each row keeps its own stop and resolution tests and its own floor;
    a row whose sweeps have stopped is frozen while the others go on. The
    rows must share the segment count, the time degree, the segment
    doublings and the re-projection's path; should they ever differ
    (``_Diverged``), each time is flowed alone. A kernel call on the stack
    rounds each angle as a call on its own row would, since every row
    holds a multiple of 4 angles (see ``TrigSeries``). At ``s = +-1e-3``,
    the pair ``omega_c_geometric`` takes, the shared sweeps and fits take
    about 0.73 of the time of two ``flow`` calls.
    """
    sup1 = xi.sup_derivative(1)
    for s in times:
        if abs(s) * sup1 >= 5.0:
            raise ValueError(f"flow time too long for stable integration (|s| max|xi'| = {abs(s) * sup1:.3g})")
    moving = [s for s in times if s != 0.0]
    if not moving:
        return [CircleDiffeo.identity() for _ in times]
    eps = np.finfo(float).eps

    def sweep(theta, y, cur, half):
        """Picard sweeps of one segment from its time rows ``cur``, shaped
        ``(times, n + 1, P)``: the last rows, and whether each converged and
        is resolved in time. A row that stops is frozen; the others sweep
        on without it."""
        _, q, inv = _picard_matrices(cur.shape[1] - 1)
        block = max(1, _PROJECT_CAP // theta.size)
        count, live, frozen = len(cur), list(range(len(cur))), {}
        # The angles theta + y of the rows; each sweep evaluates xi on them
        # in place and forms the next sweep's angles, whose size also sets
        # the stop floor.
        vals = theta + cur
        for _ in range(_FLOW_MAX_SWEEPS):
            flat = vals.reshape(-1, theta.size)
            for i in range(0, len(flat), block):
                flat[i : i + block] = xi.eval(flat[i : i + block])
            nxt = y + half * (q @ vals)
            vals = theta + nxt
            top = np.abs(vals).reshape(len(cur), -1).max(axis=1).tolist()
            step = np.abs(nxt - cur).reshape(len(cur), -1).max(axis=1).tolist()
            cur = nxt
            floor = [max(_FLOW_TOL, _NOISE_FLOOR_EPS * eps * t) for t in top]
            stop = [d <= f for d, f in zip(step, floor)]
            for r in (r for r, done in enumerate(stop) if done):
                frozen[live[r]] = cur[r], bool(np.abs(inv[-2:] @ cur[r]).max() <= floor[r])
            if all(stop):
                break
            if any(stop):
                keep = [r for r, done in enumerate(stop) if not done]
                cur, vals, y, half = cur[keep], vals[keep], y[keep], half[keep]
                live = [live[r] for r in keep]
        else:
            frozen.update((i, (row, False)) for i, row in zip(live, cur))
        if len(live) < count:
            cur = np.stack([frozen[i][0] for i in range(count)])
        return cur, [frozen[i][1] for i in range(count)]

    def integrate(theta, segments, start):
        """The displacement rows at ``theta`` after ``segments`` segments,
        with the converged time rows of every segment stacked as ``(times,
        segments, degree + 1, P)`` when each time's rows fit in
        ``_PROJECT_CAP`` values (else ``None``), or ``None`` when a segment
        fails at ``_FLOW_DEGREE``. A segment's sweeps start from its rows
        of ``start`` if given, else from its Taylor polynomial."""
        h = np.array(moving) / segments
        half = (0.5 * h)[:, None, None]
        degree = None if start is None else start.shape[2] - 1
        kept = []
        y = np.zeros((h.size, 1, theta.size))
        for j in range(segments):
            if start is None:
                f, d1, d2 = xi.series.jet(theta + y, (0, 1, 2))
                t2, t3 = f * d1, f * (f * d2 + d1 * d1)
                if degree is None:
                    degree = _same([_flow_degree(*v, float(w)) for *v, w in zip(f, t2, t3, h)])
                tau = half * (_picard_matrices(degree)[0][:, 1:2] + 1.0)
                cur = y + tau * (f + tau / 2.0 * (t2 + tau / 3.0 * t3))
            else:
                cur = start[:, j]
            cur, ok = sweep(theta, y, cur, half)
            if not _same(ok) and degree < _FLOW_DEGREE:
                # The sized degree missed: go on at full degree, warm from
                # the rows at hand interpolated in time.
                degree = _FLOW_DEGREE
                cur, ok = sweep(theta, y, _resample(cur, degree), half)
                start = None if start is None else _resample(start, degree)
                kept = None if kept is None else [_resample(r, degree) for r in kept]
            if not _same(ok):
                return None
            if kept is not None and segments * cur[0].size <= _PROJECT_CAP:
                kept.append(cur)
            else:
                kept = None
            y = cur[:, -1:]
        return y[:, 0], None if kept is None else np.stack(kept, axis=1)

    def fn(theta, prior=None):
        if prior is None:
            segments = _same([max(1, int(np.ceil(abs(s) * sup1 / 0.5))) for s in moving])
        else:
            segments = prior.shape[1]
        while segments <= _FLOW_MAX_SEGMENTS:
            out = integrate(theta, segments, prior)
            if out is not None:
                return out
            segments, prior = 2 * segments, None
        raise ArithmeticError(f"flow not resolved within {_FLOW_MAX_SEGMENTS} time segments")

    try:
        fits = iter(_project_periodic(fn, max(64, 4 * (xi.modes + 8))))
    except _Diverged:
        return [_flows(xi, (s,))[0] for s in times]
    return [CircleDiffeo(*next(fits)) if s != 0.0 else CircleDiffeo.identity() for s in times]


def bracket(xi1: VectorFieldS1, xi2: VectorFieldS1) -> VectorFieldS1:
    """Lie bracket ``[xi1, xi2] = (xi1 xi2' - xi2 xi1') d/dtheta``.

    The product of two trigonometric polynomials is band-limited, so the
    re-projection at ``2 (m1 + m2 + 4)`` nodes is exact. Both fields are
    evaluated in one ``TrigStack`` pass per level.
    """

    fields = TrigStack(((xi1.series, (0, 1)), (xi2.series, (0, 1))))

    def fn(theta):
        (v1, d1), (v2, d2) = fields.jets(theta)
        return v1 * d2 - v2 * d1

    const, a, b = _project_periodic(fn, 2 * (xi1.modes + xi2.modes + 4))
    return VectorFieldS1(const, a, b)


def _dense_min_slope(a, b) -> float:
    """Minimum of the lift slope ``1 + sum n (b_n cos - a_n sin)(n theta)``
    over 2048 uniform angles, from the dense cosine/sine table the seeded
    draws of ``random_diffeo`` were first made with, so that they stay bit
    for bit what they were."""
    n = np.arange(1, len(a) + 1, dtype=float)
    cos_t, sin_t = _dense_tables(len(a))
    return 1.0 + float(np.min(cos_t @ (n * a) + sin_t @ (n * b)))


@functools.lru_cache(maxsize=16)
def _dense_tables(m: int):
    """The read-only ``cos`` and ``sin`` of ``n theta + pi / 2``, ``n = 1 ..
    m``, on 2048 uniform angles: ``_dense_min_slope``'s tables, built once
    per degree."""
    n = np.arange(1, m + 1, dtype=float)
    ang = circle_grid(2048)[:, None] * n + np.pi / 2.0
    tables = np.cos(ang), np.sin(ang)
    for t in tables:
        t.flags.writeable = False
    return tables


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
    lo = _dense_min_slope(a, b)
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
