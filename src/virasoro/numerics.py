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

# ``_kernel_pass`` pads its angles to a multiple of this many (see
# ``TrigSeries`` on bits).
_KERNEL_WIDTH = 4

# Derivative factor ``i^k`` of ``e^(i n theta)``, without the ``n^k``.
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])

# Per-mode amplitude floor, in units of eps * scale: coefficients below it are
# rounding noise and would pollute third derivatives by n^3 * noise if kept.
_NOISE_FLOOR_EPS = 16.0

# Machine epsilon of float64, the unit of every rounding bound.
EPS = float(np.finfo(float).eps)

# ``grid_exponentials`` keeps the tables of this many grids, each of at
# most this many angles (larger grids are not kept): 16 tables of 8192
# complex values hold at most 2 MB.
_GRID_CACHE_SIZE = 16
_GRID_CACHE_MAX = 8192


def circle_grid(n: int) -> np.ndarray:
    """Return the ``n`` uniform angles ``2 pi k / n``, ``k = 0 .. n-1``."""
    return TWO_PI * np.arange(n) / n


def _as_shape(values):
    """A float for a scalar angle, else the array of the angles' shape."""
    return float(values) if np.ndim(values) == 0 else values


def _finite(name: str, value) -> float:
    """``value`` as a float, or ``ValueError`` naming the parameter ``name``
    when it is not finite: refused before any kernel work."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")
    return x


def noise_floor(scale: float) -> float:
    """The per-mode amplitude floor ``_NOISE_FLOOR_EPS eps scale`` of a
    series whose values reach ``scale``."""
    return _NOISE_FLOOR_EPS * EPS * scale


def significant_modes(cos_c, sin_c, floor: float) -> int:
    """The modes up to the last whose ``|cos| + |sin|`` is above ``floor``."""
    keep = np.flatnonzero(np.abs(cos_c) + np.abs(sin_c) > floor)
    return int(keep[-1]) + 1 if keep.size else 0


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


def _exponentials(theta) -> np.ndarray:
    """``z = e^(i theta)`` of the flat angles ``theta`` padded with zeros
    (``z = 1``) to a multiple of ``_KERNEL_WIDTH``."""
    pad = -theta.size % _KERNEL_WIDTH
    if pad:
        theta = np.concatenate((theta, np.zeros(pad)))
    return np.exp(1j * theta)


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _cached_grid_exponentials(n: int) -> np.ndarray:
    z = _exponentials(circle_grid(n))
    z.flags.writeable = False
    return z


def grid_exponentials(n: int) -> np.ndarray:
    """``_exponentials(circle_grid(n))``, read-only: the padded kernel
    exponentials of the grid, the same bits as a pass on the grid's angles
    computes. Kept for the last ``_GRID_CACHE_SIZE`` grids of at most
    ``_GRID_CACHE_MAX`` angles, since the tables of a sampled field's grid
    never change; a larger grid's table is computed per call."""
    if n <= _GRID_CACHE_MAX:
        return _cached_grid_exponentials(n)
    return _exponentials(circle_grid(n))


def _kernel_pass(theta, kernels, z=None) -> list:
    """One pass of the evaluation kernel: ``_power_sums`` of each
    coefficient layout in ``kernels`` at the flat angles ``theta``, all
    from one exponential per angle. Every scattered evaluation of a series
    goes through here, of one series (``TrigSeries.jet``) or of the joined
    kernels of a density field's jet leaves (``_joined_kernel``). An
    empty layout (series without modes) gives zero rows, and a pass of
    only empty layouts takes no exponential. The angles are padded with
    zeros (``z = 1``) to a multiple of ``_KERNEL_WIDTH`` and the padded
    columns sliced off the sums; an array of such a size is neither copied
    nor sliced. A pass on a grid's cached exponentials ``z =
    grid_exponentials(n)`` takes the number ``n`` in place of the
    angles."""
    p = theta.size if z is None else theta
    width = p + -p % _KERNEL_WIDTH
    if z is None and any(c.size for c in kernels):
        z = _exponentials(theta)
    sums = [_power_sums(z, c) if c.size else np.zeros((c.shape[1], width)) for c in kernels]
    return [s[:, :p] for s in sums] if width > p else sums


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
    half-step interpolation of ``circle._half_step`` share them. The 32
    entries hold at most 32 tables of 4097 factors (2 MB) at the node
    cap."""
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
    inputs are zero-padded); a table of more than one dimension or
    non-finite data raises ``ValueError``.

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

    On a grid, ``grid_jet(n, orders)`` is the pass on ``circle_grid(n)``
    without its exponentials: the padded table ``e^(i theta)`` of each grid
    of at most 8192 angles is computed once and kept, read-only, for the
    last 16 grids used (``grid_exponentials``), at most ``16 n`` bytes a
    grid and 2 MB in all. Sampled fields (Schwarzian and cocycle tables,
    pullbacks, affine coadjoint actions) take their samples through it.

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

    Single angles pay numpy's cost per call, two per Horner step (``M``
    steps below ``TRIG_TABLE_MIN_MODES``, ``ceil(M / B)`` from there up),
    and the padding (below).

    Bits: a value depends only on the series, the orders and the angle,
    not on the batch: a scalar, a slice, an array, a stack of arrays and a
    joined kernel (``_joined_kernel``) give an angle the same bits. The
    padding in ``_kernel_pass`` gives this. Unpadded, a lone angle rounds
    apart from a batch, and from ``TRIG_TABLE_MIN_MODES`` modes up so do
    the angles past a call's last multiple of 4 (the edge columns of the
    BLAS complex matrix product). That padding suffices is
    a property of numpy and the BLAS build (numpy 2.4.6, OpenBLAS 0.3.31 on
    AVX-512: 0 of 1500 draws of 0 to 2446 modes and 1 to 299 angles had a
    slice or single angle differ from the whole array, 919 unpadded),
    which the BLAS canary test watches.
    """

    __slots__ = ("const", "cos", "sin", "_coef")

    def __init__(self, const: float = 0.0, cos=(), sin=()) -> None:
        # Copies of the caller's tables, the shorter one zero-extended.
        a = np.array(cos, dtype=float, ndmin=1)
        b = np.array(sin, dtype=float, ndmin=1)
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("series coefficient tables must be one-dimensional")
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
        by row ``at`` up to the rounding of the complex products."""
        th = np.asarray(theta, dtype=float)
        out = self._jet(th.ravel(), tuple(orders))
        return out if th.ndim == 1 else out.reshape((len(orders),) + th.shape)

    def grid_jet(self, n: int, orders) -> np.ndarray:
        """``jet(circle_grid(n), orders)``, bit for bit, with the pass's
        exponentials read from the grid's cached table
        (``grid_exponentials``): shape ``(len(orders), n)``."""
        return self._jet(n, tuple(orders), grid_exponentials(n))

    def _jet(self, theta, orders: tuple, z=None) -> np.ndarray:
        """The rows of ``orders`` from one kernel pass: at the flat angles
        ``theta``, or on the grid of ``theta`` angles whose cached
        exponentials are ``z``."""
        (out,) = _kernel_pass(theta, (self._kernel(orders),), z)
        if self.const and 0 in orders:
            out[orders.index(0)] += self.const
        return out

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


def _kernel_layout(series) -> int:
    """The layout of a series' kernels: 0 without modes, else the baby size
    ``B`` (1 for Horner in ``z``). Series of one layout and of the same
    orders can share a pass (``_joined_kernel``)."""
    return series.modes and _baby_size(series.modes)


def _joined_kernel(series, orders: tuple) -> np.ndarray:
    """The kernel coefficients of ``orders`` of series of one layout, joined
    for one ``_power_sums`` call: ``len(orders)`` rows per series, in
    order, each series zero-padded to the most giant steps (top modes, for
    Horner). One series gives its own kernel, uncopied. Bits: a padded
    zero only adds exact zeros to a partial sum and a row rounds as it
    would alone (see ``TrigSeries``), so each series' rows are those of its
    ``jet``: in 1500 random joins of 1 to 6 series of 0 to 300 modes on 1
    to 1280 angles, no row of 5284 differed in a bit, the sign of zero
    included.
    A series without modes joins no series with modes, whose padded rows
    could give it zeros of the other sign."""
    kernels = [s._kernel(orders) for s in series]
    if len(kernels) == 1:
        return kernels[0]
    # The shapes differ only in their giant steps.
    giant_n, k, baby_n = max(c.shape for c in kernels)
    out = np.zeros((giant_n, k * len(kernels), baby_n), dtype=complex)
    for j, c in enumerate(kernels):
        out[: c.shape[0], k * j : k * (j + 1)] = c
    return out


class PeriodicSamples:
    """Real samples of a smooth 2-pi-periodic function on the uniform grid.

    The grid size must be even and at least 8 so spectral differentiation has
    an unambiguous Nyquist convention. Values are stored read-only.

    Parameters
    ----------
    values:
        Samples ``u(theta_k)`` at ``theta_k = 2 pi k / N``.
    """

    __slots__ = ("values", "_trig")

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
        self._trig = None

    @property
    def size(self) -> int:
        return self.values.size

    def spectrum(self) -> np.ndarray:
        """Normalized half spectrum ``c_n = rfft(values) / N``."""
        return np.fft.rfft(self.values) / self.size

    def _series(self) -> TrigSeries:
        """The interpolant as a series of modes ``1 .. N/2``, the Nyquist
        term a cosine at mode ``N / 2``; built once from the spectrum."""
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
        return _as_shape(self._series().at(theta))

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
    if not 0.0 < eps0 < math.inf:
        raise ValueError("eps0 must be positive and finite")
    values = np.asarray(f(eps0 / 2.0 ** np.arange(levels)), dtype=float)
    if values.shape != (levels,):
        raise ValueError(f"f must return {levels} values, one per step, got shape {values.shape}")
    # The tableau in Python floats: the same IEEE operations as on numpy
    # scalars, without their cost per operation.
    rows: list[list] = []
    for j, value in enumerate(values.tolist()):
        row = [value]
        for m in range(1, j + 1):
            w = 4.0**m
            row.append((w * row[m - 1] - rows[j - 1][m - 1]) / (w - 1.0))
        rows.append(row)
    last, before, first = rows[-1][-1], rows[-2][-1], rows[-3][-1]
    step, prev = abs(last - before), abs(before - first)
    converged = not (prev > 0.0 and step / prev > 1.0)
    return ExtrapolationResult(
        value=last,
        error_estimate=step,
        table=tuple(np.array(row) for row in rows),
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
    bracket's ``SOLVE_MAX_ITER`` iterations bisect only (each iteration's
    Newton test includes that iteration bound), so each closes within the
    bound. A bracket too wide for that, or one without ``lo < hi`` and ends
    of opposite sign, raises ``ValueError`` before ``fdf`` is called.
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
        newton = (lo <= nxt) & (nxt <= hi) & (size <= 0.5 * last) & (it + 1 < bisect_from)
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
    series the scan summed (``samples._series()``, the one ``interpolate``
    evaluates) and its derivative (``TrigSeries.jet``), in 2 to 4
    iterations for simple roots and never more than ``SOLVE_MAX_ITER``,
    each O(N) time and O(sqrt(N)) memory per bracket. So the locations are
    zeros of ``interpolate`` to ``SOLVE_XTOL``.

    Raises if the count exceeds ``N / 2``, where the interpolant can no longer
    be trusted to resolve the sampled function.
    """
    vals = samples.values
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return 0, np.empty(0)
    fine_n = 4 * samples.size
    series = samples._series()
    u = series.const + trig_eval_uniform(series.cos, series.sin, fine_n)
    idx = np.nonzero(np.abs(u) > 1e-12 * scale)[0]
    if idx.size == 0:
        return 0, np.empty(0)
    # Each nonzero node paired with the next nonzero node, cyclically.
    positive = u[idx] > 0.0
    nxt = np.roll(idx, -1)
    cross = positive != np.roll(positive, -1)
    a, b = idx[cross], nxt[cross]
    count = a.size
    if count > samples.size // 2:
        raise ValueError(
            f"{count} sign changes exceed the aliasing bound N/2 = {samples.size // 2}"
        )
    # The angles of circle_grid(fine_n), bit for bit.
    lo, hi = TWO_PI * a / fine_n, TWO_PI * b / fine_n
    hi = np.where(b > a, hi, hi + TWO_PI)
    roots = solve_bracketed(lambda x: series.jet(x, (0, 1)), lo, hi, u[a], u[b])
    return count, np.sort(roots % TWO_PI)
