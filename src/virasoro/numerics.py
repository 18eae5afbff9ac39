"""Grid numerics on the circle.

Periodic sample containers, uniform-grid evaluation of trigonometric
series, spectral differentiation, quadrature, Richardson extrapolation, a
root solver for arrays of brackets, and sign-change counting. Everything
here lives on the uniform grid ``theta_k = 2 pi k / N`` and is exact (to
rounding) for band-limited data resolved by that grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Shared default resolution for sampled operators.
DEFAULT_GRID = 256

# Root tolerance and iteration bound of ``solve_bracketed``: bisection alone
# needs 43 iterations to shrink a bracket of length 2 pi below 1e-12, which
# leaves 21 for Newton.
SOLVE_XTOL = 1e-12
SOLVE_MAX_ITER = 64

# Series with at least this many modes sum baby steps ``z^1 .. z^B``,
# ``B = ceil(sqrt(M))``, before the Horner recurrence (see ``TrigSeries``);
# from about 8 modes up that takes fewer numpy calls than Horner in ``z``
# at every number of angles.
TRIG_TABLE_MIN_MODES = 8

# Derivative factor ``i^k`` of ``e^(i n theta)``, without the ``n^k``.
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


def circle_grid(n: int) -> np.ndarray:
    """Return the ``n`` uniform angles ``2 pi k / n``, ``k = 0 .. n-1``."""
    return TWO_PI * np.arange(n) / n


def split_spectrum(c):
    """The real terms of a normalized half spectrum ``c = rfft(v) / N``:
    ``(const, cos, sin, nyquist)`` = ``(Re c_0, 2 Re c_n, -2 Im c_n, Re
    c_(N/2))``, ``n = 1 .. N/2 - 1``, so that ``v`` is ``const + sum cos_n
    cos(n theta) + sin_n sin(n theta) + nyquist cos(N theta / 2)``. A
    stack of spectra along the last axis gives the terms of each."""
    return c[..., 0].real, 2.0 * c[..., 1:-1].real, -2.0 * c[..., 1:-1].imag, c[..., -1].real


def _baby_size(m: int) -> int:
    """The baby step ``B`` of a series of ``m`` modes: 1 (Horner in ``z``)
    below ``TRIG_TABLE_MIN_MODES`` modes, ``ceil(sqrt(m))`` from there up."""
    return 1 if m < TRIG_TABLE_MIN_MODES else math.isqrt(m - 1) + 1


def _kernel_coefficients(cos_c, sin_c, orders) -> np.ndarray:
    """The coefficients ``(a_n - i b_n) (i n)^k`` of each order ``k`` in
    ``orders``, laid out for ``_power_sums``: shape ``(Q, K, B)`` with mode
    ``n = q B + r + 1`` of the ``j``-th order at ``[q, j, r]``, zero past
    the top mode ``M``, and ``B = _baby_size(M)``."""
    a = np.asarray(cos_c, dtype=float)
    b = np.asarray(sin_c, dtype=float)
    m = a.size
    baby_n = _baby_size(m)
    giant_n = -(-m // baby_n)
    k = np.array(orders)[:, None]
    coef = np.zeros((k.size, giant_n * baby_n), dtype=complex)
    coef[:, :m] = (a - 1j * b) * (_I_POWERS[k] * np.arange(1.0, m + 1.0) ** k)
    return np.ascontiguousarray(coef.reshape(k.size, giant_n, baby_n).transpose(1, 0, 2))


def _power_sums(z, coef) -> np.ndarray:
    """``Re sum_n c_n z^n`` for each row of the coefficients ``coef`` (laid
    out by ``_kernel_coefficients``) at the flat exponentials ``z = e^(i
    theta)``: shape ``(K, P)``. The giant-step sums are contiguous ``(K,
    P)`` blocks and ``z^B`` is broadcast once, since at a few angles numpy's
    cost per call is mostly broadcasting and strides. The result is a copy
    of the real parts, so a caller that holds it does not keep the complex
    sums alive."""
    giant_n, rows, baby_n = coef.shape
    if baby_n == 1:
        # Horner in z: z (c_1 + z (c_2 + ... + z c_M)).
        acc = coef[-1] * z
        for q in range(giant_n - 2, -1, -1):
            acc += coef[q]
            acc *= z
        return acc.real.copy()
    # Baby steps z^1 .. z^B, their sums per giant step, then Horner in z^B.
    baby = np.empty((baby_n, z.size), dtype=complex)
    baby[:] = z
    np.cumprod(baby, axis=0, out=baby)
    parts = (coef.reshape(-1, baby_n) @ baby).reshape(giant_n, rows, z.size)
    w = np.empty((rows, z.size), dtype=complex)
    w[:] = baby[-1]
    acc = parts[-1]
    for q in range(giant_n - 2, -1, -1):
        acc *= w
        acc += parts[q]
    return acc.real.copy()


def _kernel_pass(theta, kernels) -> list:
    """One pass of the evaluation kernel: ``_power_sums`` of each
    coefficient layout in ``kernels`` at the flat angles ``theta``, all
    from one exponential per angle. Every scattered evaluation of a series
    goes through here, of one series (``TrigSeries.jet``) or of several
    (``TrigStack``). An empty layout (series without modes, sorted first)
    gives zero rows."""
    z = np.exp(1j * theta) if kernels and kernels[-1].size else None
    return [_power_sums(z, c) if c.size else np.zeros((c.shape[1], theta.size)) for c in kernels]


@functools.lru_cache(maxsize=16)
def _mode_powers(order: int, size: int) -> np.ndarray:
    """``k**order`` for ``k = 1 .. size``, read-only; ``trig_eval_uniform``
    reads a prefix of the table of the power of two at or above its top
    mode, so one small table per order serves every grid."""
    out = np.arange(1, size + 1, dtype=float) ** order
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=32)
def shift_phase(n: int, offset: float) -> np.ndarray:
    """The factors ``e^(i k offset)``, ``k = 0 .. n/2``, that move a half
    spectrum on ``circle_grid(n)`` to the nodes shifted by ``offset``:
    read-only, cached per grid and offset. ``trig_eval_uniform`` and the
    half-step interpolation of ``circle._half_step`` share them. A
    ``compose``/``inverse``/``flow`` mix meets 16 to 20 grids over 8
    rounds of the group-algebra benchmark, which 8 entries missed 133 to
    146 times in 820 lookups; 32 entries miss each grid once, and hold at
    most 32 tables of 4097 factors (2 MB) at the node cap."""
    out = np.exp(1j * offset * np.arange(n // 2 + 1.0))
    out.flags.writeable = False
    return out


def trig_eval_uniform(cos_c, sin_c, n: int, order: int = 0, offset: float = 0.0) -> np.ndarray:
    """Evaluate ``sum a_k cos(k theta) + b_k sin(k theta)``, ``k = 1 .. M``, or
    its derivative of order 1 to 3, on ``theta_j = 2 pi j / n + offset``.

    One inverse real FFT of the zero-padded spectrum ``(n/2) (a_k - i b_k)
    (i k)^order e^(i k offset)``, without the phase factor at offset 0:
    O(n log n) time and O(n) memory instead of the O(n M) of a dense
    cosine/sine table. The powers ``k^order`` and the factors ``e^(i k
    offset)`` come from cached tables (``_mode_powers``, ``shift_phase``).
    Exact when the top mode ``M`` is below ``n / 2``; a top mode at or
    above ``n / 2`` would alias onto lower ones and raises ``ValueError``.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"derivative order must be 0, 1, 2 or 3, got {order}")
    a = np.asarray(cos_c, dtype=float)
    b = np.asarray(sin_c, dtype=float)
    m = a.size
    if 2 * m >= n:
        raise ValueError(f"top mode {m} is not below half the grid size {n}")
    spec = np.zeros(n // 2 + 1, dtype=complex)
    powers = _mode_powers(order, 1 << max(m - 1, 0).bit_length())[:m]
    coef = (0.5 * n * 1j**order) * powers * (a - 1j * b)
    spec[1 : m + 1] = coef * shift_phase(n, offset)[1 : m + 1] if offset else coef
    return np.fft.irfft(spec, n)


class TrigSeries:
    """Finite Fourier series ``const + sum a_n cos(n theta) + b_n sin(n theta)``,
    ``n = 1 .. M``, evaluated with its derivatives of order 1 to 3 at
    scattered angles of any shape.

    ``cos`` and ``sin`` are read-only float arrays of one length (unequal
    inputs are zero-padded); non-finite data raises ``ValueError``.

    The value is ``Re sum_n c_n z^n`` from one complex exponential ``z = e^(i
    theta)`` per angle and the kernel coefficients ``c_n = (a_n - i b_n) (i
    n)^k`` of each order ``k`` (``_kernel_coefficients``), summed by Horner's
    rule in ``z`` below ``TRIG_TABLE_MIN_MODES`` modes and in ``z^B`` over
    ``B = ceil(sqrt(M))`` baby steps from there up (``_power_sums``): O(P M)
    flops for ``P`` angles, and two vector operations per Horner step. The
    kernel coefficients are built on first use of each tuple of orders and
    kept, so repeated evaluations of one series (Newton iterates, Picard
    sweeps, table rows) pay only the kernel. Memory ceiling: the baby steps
    and the giant-step sums, about ``32 P sqrt(M)`` bytes: 12.5 MB traced at
    ``P = 8192, M = 2446`` (one dense cosine table there is 160 MB) and
    32 MB at ``M = 16384``. Below ``TRIG_TABLE_MIN_MODES`` it is O(P).

    Accuracy: no angle ``n theta`` is rounded. ``z`` is correct to about
    ``eps`` for every ``theta``, and each power ``z^n`` reached through
    ``n`` or fewer products carries about ``n eps``, whatever ``|theta|``
    is. Max-norm error against a long-double oracle with exactly reduced
    angles, 512 angles in ``[-4 pi, 4 pi]``, Gaussian coefficients, worst of
    3 draws, in units of ``eps sum (n + 1) n^order (|a_n| + |b_n|)``, orders
    0 / 1 / 2 / 3:

    ======  ==========================
    M       error
    ======  ==========================
    1       0.35 / 0.27 / 0.35 / 0.27
    3       0.36 / 0.40 / 0.28 / 0.30
    8       0.17 / 0.30 / 0.21 / 0.29
    15      0.17 / 0.16 / 0.23 / 0.21
    16      0.14 / 0.17 / 0.16 / 0.19
    150     0.06 / 0.05 / 0.06 / 0.06
    2446    0.01 / 0.01 / 0.02 / 0.02
    ======  ==========================

    Over 4000 random draws (M up to 3000, 1 to 300 angles) the worst was
    0.44, at M = 1.

    Time per call of ``at`` at order 1 in microseconds; best of 9, one BLAS
    thread on a 2-vCPU VM:

    ======  ====  ====  ====  ====  ====  =====  ======
    points  M=3   M=8   M=15  M=16  M=64  M=150  M=2446
    ======  ====  ====  ====  ====  ====  =====  ======
    1       8     13    24    17    22    31     105
    16      9     13    15    14    19    24     108
    128     11    21    29    21    30    39     202
    2048    110   205   247   241   552   901    3937
    ======  ====  ====  ====  ====  ====  =====  ======

    Single angles pay numpy's cost per call, two per Horner step (``M``
    steps below ``TRIG_TABLE_MIN_MODES``, ``ceil(M / B)`` from there up).

    The bits of a value depend on the batch, not only on the angle: a call
    on one angle can round differently from the same angle among others,
    and from ``TRIG_TABLE_MIN_MODES`` modes up the last ``P mod 4`` angles
    of a call can round differently from the rest (the edge columns of the
    BLAS complex matrix product; measured with numpy 2.4.6, OpenBLAS
    0.3.31 on AVX-512). A caller whose output must keep its bits keeps its
    batches: ``NullMetric`` evaluates each angle array in its own call, and
    ``hessian_check`` each Richardson level. Stacking arrays of at least 2
    angles each, every one a multiple of 4, keeps each angle's rounding
    (no angle moves into or out of the edge columns), so ``circle._flows``
    and ``omega_c_geometric`` stack such arrays into one call.

    Stacking series instead keeps every angle's place in the batch: a
    ``TrigStack`` evaluates several series on one angle array in one pass,
    and each gets the bits of its own ``jet`` on 2 angles or more. On fewer
    angles the rows can round differently, so there each series is
    evaluated alone. ``jet`` is the pass of one series.
    """

    __slots__ = ("const", "cos", "sin", "_coef")

    def __init__(self, const: float = 0.0, cos=(), sin=()) -> None:
        # Copies of the caller's tables, the shorter one zero-extended.
        a = np.array(cos, dtype=float, ndmin=1)
        b = np.array(sin, dtype=float, ndmin=1)
        if a.size < b.size:
            a = np.concatenate((a, np.zeros(b.size - a.size)))
        elif b.size < a.size:
            b = np.concatenate((b, np.zeros(a.size - b.size)))
        if not (np.isfinite(const) and np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("series coefficients must be finite")
        a.flags.writeable = False
        b.flags.writeable = False
        self.const = float(const)
        self.cos = a
        self.sin = b
        self._coef = {}

    @property
    def modes(self) -> int:
        return self.cos.size

    def at(self, theta, order: int = 0) -> np.ndarray:
        """The series (``order = 0``) or its derivative of order 1 to 3 at
        ``theta``, as an array of its shape."""
        return self.jet(theta, (order,))[0]

    def jet(self, theta, orders) -> np.ndarray:
        """The values of the sequence of ``orders`` at ``theta`` from one
        exponential per angle: shape ``(len(orders),) + shape(theta)``, row
        by row ``at`` up to the rounding of the complex products. A
        ``TrigStack`` of this one series, without the stacking."""
        th = np.asarray(theta, dtype=float)
        orders = tuple(orders)
        (out,) = _kernel_pass(th.ravel(), (self._kernel(orders),))
        if self.const and 0 in orders:
            out[orders.index(0)] += self.const
        return out if th.ndim == 1 else out.reshape((len(orders),) + th.shape)

    def _kernel(self, orders: tuple) -> np.ndarray:
        """The kernel coefficients of ``orders``, built on first use."""
        coef = self._coef.get(orders)
        if coef is None:
            if not all(k in (0, 1, 2, 3) for k in orders):
                raise ValueError(f"derivative orders must be 0, 1, 2 or 3, got {orders}")
            coef = self._coef[orders] = _kernel_coefficients(self.cos, self.sin, orders)
        return coef

    def __repr__(self) -> str:  # pragma: no cover
        return f"TrigSeries(const={self.const:.6g}, modes={self.modes})"


class TrigStack:
    """Several ``(series, orders)`` pairs evaluated on one angle array in one
    kernel pass: ``jets(theta)`` gives each pair the rows that
    ``series.jet(theta, orders)`` gives, bit for bit.

    The pass takes one exponential per angle. The series below
    ``TRIG_TABLE_MIN_MODES`` modes share one Horner layout, each with its
    top modes zero-padded to the largest; the others share a layout per
    baby size ``B``, each with zero giant-step blocks on top; series
    without modes share an empty one. Each layout is one ``_power_sums``
    call on its stacked rows, so ``L`` series of few modes cost about one
    series of ``L`` times the orders. The layouts are built once, here.

    Bits: stacking adds rows, not angles, so every angle keeps its place
    in the batch. A padded zero only adds exact zeros to a partial sum,
    and a row of the elementwise Horner steps or of the complex matrix
    product rounds as it would alone: over 2812 random stacks of 1 to 5
    members with 0 to 300 modes, 1 to 3 orders and 2 to 2560 angles
    (numpy 2.4.6, OpenBLAS 0.3.31 on AVX-512), no row differed from its
    ``jet`` in a bit, the sign of zero included. On one angle that does
    not hold: numpy then loops along the rows, and 62 of 233 stacks with a
    member of one order differed. So an array of fewer than 2 angles
    evaluates each series on its own.
    """

    __slots__ = ("members", "_kernels", "_at", "_consts")

    def __init__(self, members) -> None:
        self.members = tuple((series, tuple(orders)) for series, orders in members)
        layouts: dict = {}
        for i, (series, orders) in enumerate(self.members):
            coef = series._kernel(orders)
            # Keyed by (any modes, baby size): the empty layout sorts first.
            layouts.setdefault((coef.size > 0, coef.shape[2]), []).append((i, coef))
        # Each member's layout and first row there.
        self._at = at = [None] * len(self.members)
        kernels = []
        for g, ((_, baby_n), group) in enumerate(sorted(layouts.items())):
            height = max(c.shape[0] for _, c in group)
            coef = np.zeros((height, sum(c.shape[1] for _, c in group), baby_n), dtype=complex)
            row = 0
            for i, c in group:
                coef[: c.shape[0], row : row + c.shape[1]] = c
                at[i] = (g, row)
                row += c.shape[1]
            kernels.append(coef)
        self._kernels = tuple(kernels)
        self._consts = tuple(
            (*at[i], orders.index(0), series.const)
            for i, (series, orders) in enumerate(self.members)
            if series.const and 0 in orders
        )

    def _pass(self, theta) -> list:
        """The kernel pass at the flat angles ``theta``: each layout's table
        of rows, with the members' constants added to their order-0 rows."""
        sums = _kernel_pass(theta, self._kernels)
        for g, row, k, const in self._consts:
            sums[g][row + k] += const
        return sums

    def jets(self, theta) -> list:
        """``[series.jet(theta, orders) for series, orders in members]``
        from one kernel pass; the rows are views of the pass's tables."""
        th = np.asarray(theta, dtype=float)
        if th.size < 2 and len(self.members) > 1:
            return [series.jet(th, orders) for series, orders in self.members]
        sums = self._pass(th.ravel())
        return [
            sums[g][row : row + len(orders)].reshape((len(orders),) + th.shape)
            for (_, orders), (g, row) in zip(self.members, self._at)
        ]

    def rows(self, theta) -> np.ndarray:
        """Every member's rows at the flat angles ``theta``, in member
        order: shape ``(sum of len(orders), P)``. When one layout holds
        every member, that is the pass's table itself."""
        if len(self._kernels) == 1 and theta.size > 1:
            return self._pass(theta)[0]
        return np.concatenate(self.jets(theta))


class PeriodicSamples:
    """Real samples of a smooth 2-pi-periodic function on the uniform grid.

    The grid size must be even and at least 8 so spectral differentiation has
    an unambiguous Nyquist convention. Values are stored read-only; the
    discrete Fourier transform is cached after first use.

    Parameters
    ----------
    values:
        Samples ``u(theta_k)`` at ``theta_k = 2 pi k / N``.
    """

    __slots__ = ("values", "_spectrum", "_trig")

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if arr.size < 8 or arr.size % 2:
            raise ValueError(f"grid size must be even and >= 8, got {arr.size}")
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite")
        arr.flags.writeable = False
        self.values = arr
        self._spectrum = None
        self._trig = None

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def grid(self) -> np.ndarray:
        return circle_grid(self.size)

    def spectrum(self) -> np.ndarray:
        """Normalized half spectrum ``c_n = rfft(values) / N``."""
        if self._spectrum is None:
            self._spectrum = np.fft.rfft(self.values) / self.size
            self._spectrum.flags.writeable = False
        return self._spectrum

    def _series(self) -> TrigSeries:
        """The interpolant as a series of modes ``1 .. N/2``, the Nyquist
        term a cosine at mode ``N / 2``; built once from the cached spectrum."""
        if self._trig is None:
            const, a, b, nyq = split_spectrum(self.spectrum())
            self._trig = TrigSeries(float(const), np.append(a, nyq), np.append(b, 0.0))
        return self._trig

    def interpolate(self, theta):
        """Evaluate the trigonometric interpolant at arbitrary angles.

        Exact at the grid nodes, and exact everywhere when the sampled
        function is band-limited below the Nyquist mode.

        The interpolant's series (``_series``) and its kernel coefficients
        are built once per samples object. For ``P`` angles: one complex exponential each,
        O(P N) flops and about ``32 P sqrt(N / 2)`` bytes (see ``TrigSeries``).
        """
        out = self._series().at(theta)
        if out.ndim == 0:
            return float(out)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"PeriodicSamples(n={self.size})"


def spectral_derivative(samples: PeriodicSamples, order: int = 1) -> PeriodicSamples:
    """Differentiate periodic samples through the discrete Fourier transform.

    Supports orders 1 to 3. Exact for band-limited input; the Nyquist bin is
    zeroed for odd orders, where it has no real-valued representative.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
    n = samples.size
    c = np.fft.rfft(samples.values)
    k = np.arange(n // 2 + 1)
    c = c * (1j * k) ** order
    if order % 2:
        c[-1] = 0.0
    return PeriodicSamples(np.fft.irfft(c, n))


def circle_integral(samples: PeriodicSamples) -> float:
    """Integrate over one period with the rectangle rule ``(2 pi / N) sum``.

    Spectrally accurate for smooth periodic integrands and exact for
    trigonometric polynomials of degree below ``N``.
    """
    return TWO_PI * float(np.mean(samples.values))


@dataclass(frozen=True)
class ExtrapolationResult:
    """Outcome of a Richardson pass.

    ``value`` is the last diagonal entry of the triangular ``table``;
    ``error_estimate`` is the absolute difference of the last two diagonal
    entries; ``converged`` is False when the diagonal differences grew from
    one level to the next, which signals that the even-power error model does
    not fit the input.
    """

    value: float
    error_estimate: float
    table: tuple
    converged: bool


def richardson_limit(f, eps0: float = 0.1, levels: int = 5) -> ExtrapolationResult:
    """Extrapolate ``f(eps) -> f(0)`` assuming an even-power error expansion.

    ``f`` is called once, on the array of steps ``eps0 / 2**j``, ``j = 0 ..
    levels-1``, and returns one value per step (any sequence of ``levels``
    numbers), so a caller can evaluate every level in one vectorised pass.
    The standard tableau is filled with weights ``4**m``, which cancels the
    ``eps**2``, ``eps**4``, ... terms in turn.
    """
    if levels < 3:
        raise ValueError("richardson_limit needs at least 3 levels")
    if not eps0 > 0:
        raise ValueError("eps0 must be positive")
    values = np.asarray(f(eps0 / 2.0 ** np.arange(levels)), dtype=float)
    if values.shape != (levels,):
        raise ValueError(f"f must return {levels} values, one per step, got shape {values.shape}")
    rows: list[np.ndarray] = []
    for j in range(levels):
        row = np.empty(j + 1)
        row[0] = values[j]
        for m in range(1, j + 1):
            w = 4.0**m
            row[m] = (w * row[m - 1] - rows[j - 1][m - 1]) / (w - 1.0)
        rows.append(row)
    diag = np.array([r[-1] for r in rows])
    diffs = np.abs(np.diff(diag))
    converged = not (diffs[-2] > 0.0 and diffs[-1] / diffs[-2] > 1.0)
    return ExtrapolationResult(
        value=float(diag[-1]),
        error_estimate=float(diffs[-1]),
        table=tuple(rows),
        converged=converged,
    )


def solve_bracketed(fdf, lo, hi, f_lo, f_hi, ftol: float = 0.0) -> np.ndarray:
    """The roots of ``f`` in the brackets ``[lo_j, hi_j]``, one per bracket.

    ``lo``, ``hi`` and the values ``f_lo``, ``f_hi`` of ``f`` there, of
    opposite sign, are 1-D arrays of one length. Each iteration makes one
    call ``fdf(x) -> (f(x), f'(x))`` on an array of one angle per bracket:
    the iterate of each open bracket, the root of each closed one. A point
    where ``|f| <= ftol`` (an end included) is its bracket's root: a caller
    passes the rounding bound of its evaluation of ``f``, below which the
    sign of ``f`` is noise that would only steer bisections.

    Each bracket is solved as it would be alone. Newton from the secant
    point of the ends, guarded: a step that leaves the current sign-change
    bracket (its ends included) or is longer than half the previous step is
    replaced by bisection. The root is accepted once the Newton step is at
    most ``SOLVE_XTOL`` (the step is taken) or the bracket is at most ``2
    SOLVE_XTOL`` wide (its midpoint); a simple root usually takes 2 to 4
    iterations. The last ``ceil(log2((hi - lo) / SOLVE_XTOL))`` of a
    bracket's ``SOLVE_MAX_ITER`` iterations bisect only, so each closes
    within the bound. A bracket too wide for that, or one without ``lo <
    hi`` and ends of opposite sign, raises ``ValueError`` before ``fdf`` is
    called.
    """
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float, ndmin=1) for v in (lo, hi, f_lo, f_hi))
    at_lo = np.abs(f_lo) <= ftol
    root = np.where(at_lo, lo, hi)
    live = np.flatnonzero(~at_lo & (np.abs(f_hi) > ftol))
    lo, hi, f_lo, f_hi = (v[live] for v in (lo, hi, f_lo, f_hi))
    if not np.all((lo < hi) & ((f_lo < 0.0) != (f_hi < 0.0))):
        raise ValueError("the bracket needs lo < hi and ends of opposite sign")
    last = hi - lo
    bisect_from = SOLVE_MAX_ITER - np.ceil(np.log2(np.maximum(last, SOLVE_XTOL) / SOLVE_XTOL))
    if np.any(bisect_from < 1):
        w = np.max(last)
        raise ValueError(f"a bracket of width {w:.3e} needs more than {SOLVE_MAX_ITER} iterations")
    neg_lo = f_lo < 0.0
    x = lo + last * f_lo / (f_lo - f_hi)
    # No bracket has to bisect before this iteration.
    newton_until = int(np.min(bisect_from, initial=SOLVE_MAX_ITER))
    for it in range(SOLVE_MAX_ITER):
        if not live.size:
            return root
        root[live] = x
        f, df = (np.asarray(v, dtype=float) for v in fdf(root.copy()))
        if live.size < root.size:
            f, df = f[live], df[live]
        below = (f < 0.0) == neg_lo
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        # A zero slope gives an infinite or NaN step, which bisects.
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        nxt = x - step
        size = np.abs(step)
        newton = (lo <= nxt) & (nxt <= hi) & (size <= 0.5 * last)
        if it + 1 >= newton_until:
            newton &= it + 1 < bisect_from
        nxt = np.where(newton, nxt, 0.5 * (lo + hi))
        hit = np.abs(f) <= ftol
        done = hit | (newton & (size <= SOLVE_XTOL)) | (hi - lo <= 2.0 * SOLVE_XTOL)
        if done.any():
            root[live[done]] = np.where(hit, x, nxt)[done]
            if done.all():
                return root
            # Only a closing bracket shrinks the arrays.
            keep = ~done
            live, lo, hi, x, nxt, neg_lo, bisect_from = (
                v[keep] for v in (live, lo, hi, x, nxt, neg_lo, bisect_from)
            )
        last, x = np.abs(nxt - x), nxt
    root[live] = 0.5 * (lo + hi)
    return root


def count_sign_changes(samples: PeriodicSamples):
    """Count strict sign changes of the trigonometric interpolant per period.

    Scans a four-fold refined grid, treats values within ``1e-12 max|u|`` of
    zero as zero (plateaus do not count as crossings), and polishes each
    crossing inside its bracket of nonzero nodes. Returns
    ``(count, locations)`` with locations in ``[0, 2 pi)``. Identically zero
    input counts zero crossings.

    The scan evaluates the interpolant (Nyquist term as a cosine at mode
    ``N / 2``) with one zero-padded inverse FFT, ``trig_eval_uniform``, and
    selects the bracketing node pairs with array masks: O(N log N) time and
    O(N) memory. One ``solve_bracketed`` call polishes all brackets on the
    interpolant and its derivative (``TrigSeries.jet`` of the series that
    ``interpolate`` evaluates), in 2 to 4 iterations for simple roots and
    never more than ``SOLVE_MAX_ITER``, each O(N) time and O(sqrt(N))
    memory per bracket. Locations are within ``1e-12`` of the zero of
    ``interpolate``.

    Raises if the count exceeds ``N / 2``, where the interpolant can no longer
    be trusted to resolve the sampled function.
    """
    vals = samples.values
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return 0, np.empty(0)
    fine_n = 4 * samples.size
    theta = circle_grid(fine_n)
    series = samples._series()
    u = series.const + trig_eval_uniform(series.cos, series.sin, fine_n)
    sign = np.where(np.abs(u) <= 1e-12 * scale, 0, np.sign(u)).astype(int)
    idx = np.nonzero(sign)[0]
    if idx.size == 0:
        return 0, np.empty(0)
    # Each nonzero node paired with the next nonzero node, cyclically.
    nxt = np.roll(idx, -1)
    cross = sign[idx] != sign[nxt]
    a, b = idx[cross], nxt[cross]
    count = a.size
    if count > samples.size // 2:
        raise ValueError(
            f"{count} sign changes exceed the aliasing bound N/2 = {samples.size // 2}"
        )
    hi = np.where(b > a, theta[b], theta[b] + TWO_PI)
    roots = solve_bracketed(lambda x: series.jet(x, (0, 1)), theta[a], hi, u[a], u[b])
    return count, np.sort(roots % TWO_PI)
