"""Grid numerics on the circle.

Periodic sample containers, uniform-grid evaluation of trigonometric
series, spectral differentiation, quadrature, Richardson extrapolation, a
bracketed scalar root solver, and sign-change counting. Everything here
lives on the uniform grid ``theta_k = 2 pi k / N`` and is exact (to
rounding) for band-limited data resolved by that grid.
"""

from __future__ import annotations

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

# Series with at least this many modes evaluate at scattered points from a
# power table of one complex exponential per point (see ``trig_eval``).
TRIG_TABLE_MIN_MODES = 16


def circle_grid(n: int) -> np.ndarray:
    """Return the ``n`` uniform angles ``2 pi k / n``, ``k = 0 .. n-1``."""
    return TWO_PI * np.arange(n) / n


def trig_eval(theta, cos_c, sin_c, order: int = 0):
    """Evaluate ``sum a_n cos(n theta) + b_n sin(n theta)``, ``n = 1 .. M``,
    or its derivative of order 1 to 3, at scattered angles of any shape.

    Below ``TRIG_TABLE_MIN_MODES`` modes: a dense table of ``cos(n theta +
    order pi/2)`` and its sine, weighted by ``n^order`` (``d^k cos(n theta)
    = n^k cos(n theta + k pi/2)``): ``2 P M`` transcendentals and
    O(P M) memory for ``P`` points.

    From ``TRIG_TABLE_MIN_MODES`` modes up: a baby-step/giant-step power
    table built from one complex exponential ``z = e^(i theta)`` per point.
    With ``B = ceil(sqrt(M))`` and ``Q = ceil(M / B)``, the baby steps
    ``z^1 .. z^B`` and the giant steps ``w^0 .. w^(Q-1)``, ``w = z^B``, are
    two cumulative products, and the value is
    ``Re sum_q w^q (baby @ C)_q`` with ``C[r, q] = (a_n - i b_n) (i n)^order``
    at ``n = q B + r + 1``: one complex matrix product of O(P M) flops.
    Memory ceiling: the baby table, the giant table and the product, about
    ``48 P ceil(sqrt(M))`` bytes: 19.7 MB at ``P = 8192, M = 2446``, where
    one dense cosine table takes 160 MB, and 50 MB at ``M = 16384``.

    Accuracy: the dense table rounds the angle ``n theta``, so each term is
    off by about ``n |theta| eps / 2`` times its weight, growing with
    ``|theta|``. Each power ``z^n`` here is a product of at most
    ``B + Q`` factors, each exact to about ``eps``, so it is off by about
    ``n eps`` whatever ``theta`` is; both kernels then sum the terms. At 256
    angles in ``[-4 pi, 4 pi]`` with Gaussian coefficients, the max-norm
    error against a long-double oracle, relative to
    ``sum n^order (|a_n| + |b_n|)``, is for orders 0 / 1 / 2 / 3:

    ======  =====================================  =====================================
    M       dense table                            power table
    ======  =====================================  =====================================
    16      1.8e-15 / 4.4e-15 / 6.6e-15 / 7.2e-15  2.8e-16 / 4.0e-16 / 4.7e-16 / 6.1e-16
    150     4.5e-15 / 1.2e-14 / 1.7e-14 / 1.5e-14  5.7e-16 / 9.0e-16 / 1.1e-15 / 1.1e-15
    2446    1.6e-14 / 4.6e-14 / 8.5e-14 / 6.8e-14  2.7e-15 / 3.3e-15 / 5.8e-15 / 6.1e-15
    ======  =====================================  =====================================

    Crossover, dense time over power-table time at order 1 (above 1 the
    table is faster), best of 9 with one BLAS thread on a 2-vCPU VM:

    ======  =====  =====  =====  =====  =====  ======
    points   M=8   M=12   M=16   M=32   M=64   M=256
    ======  =====  =====  =====  =====  =====  ======
    16       0.37   0.46   0.53   0.76   1.08    3.12
    128      0.83   1.13   1.45   2.14   5.17   12.5
    256      1.24   1.75   2.46   4.16   7.34   20.4
    512      1.69   2.34   2.73   4.82   8.03   23.3
    4096     2.17   2.82   3.80   6.62   9.81   28.5
    ======  =====  =====  =====  =====  =====  ======

    ``TRIG_TABLE_MIN_MODES = 16`` wins from about 100 points on; calls with
    fewer points lose below ``M = 64`` but cost microseconds either way.
    Series below it keep the dense table bit for bit, which covers the
    small draws of ``random_diffeo`` and ``random_vector_field`` and the
    RK4 stages of their flows.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"derivative order must be 0, 1, 2 or 3, got {order}")
    th = np.asarray(theta, dtype=float)
    a = np.asarray(cos_c, dtype=float)
    b = np.asarray(sin_c, dtype=float)
    m = a.size
    if m == 0:
        return np.zeros_like(th)
    if m < TRIG_TABLE_MIN_MODES:
        n = np.arange(1, m + 1, dtype=float)
        ang = th[..., None] * n
        if order == 0:
            return np.cos(ang) @ a + np.sin(ang) @ b
        ang += order * (np.pi / 2.0)
        weight = n**order
        return np.cos(ang) @ (weight * a) + np.sin(ang) @ (weight * b)
    baby_n = math.isqrt(m - 1) + 1
    giant_n = -(-m // baby_n)
    n = np.arange(1, m + 1, dtype=float)
    coef = np.zeros(baby_n * giant_n, dtype=complex)
    coef[:m] = (a - 1j * b) * ((1, 1j, -1, -1j)[order] * n**order)
    z = np.exp(1j * th.ravel())
    baby = np.cumprod(np.broadcast_to(z[:, None], (z.size, baby_n)), axis=1)
    giant = np.empty((z.size, giant_n), dtype=complex)
    giant[:, 0] = 1.0
    np.cumprod(np.broadcast_to(baby[:, -1:], (z.size, giant_n - 1)), axis=1, out=giant[:, 1:])
    acc = baby @ coef.reshape(giant_n, baby_n).T
    acc *= giant
    return acc.sum(axis=1).real.reshape(th.shape)


def trig_eval_uniform(cos_c, sin_c, n: int, order: int = 0, offset: float = 0.0) -> np.ndarray:
    """Evaluate ``sum a_k cos(k theta) + b_k sin(k theta)``, ``k = 1 .. M``, or
    its derivative of order 1 to 3, on ``theta_j = 2 pi j / n + offset``.

    One inverse real FFT of the zero-padded spectrum
    ``(n/2) (a_k - i b_k) (i k)^order e^(i k offset)``: O(n log n) time and
    O(n) memory instead of the O(n M) of a dense cosine/sine table. Exact
    when the top mode ``M`` is below ``n / 2``; a top mode at or above
    ``n / 2`` would alias onto lower ones and raises ``ValueError``.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"derivative order must be 0, 1, 2 or 3, got {order}")
    a = np.asarray(cos_c, dtype=float)
    b = np.asarray(sin_c, dtype=float)
    m = a.size
    if 2 * m >= n:
        raise ValueError(f"top mode {m} is not below half the grid size {n}")
    spec = np.zeros(n // 2 + 1, dtype=complex)
    k = np.arange(1, m + 1, dtype=float)
    spec[1 : m + 1] = (0.5 * n * 1j**order) * k**order * (a - 1j * b) * np.exp(1j * offset * k)
    return np.fft.irfft(spec, n)


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

    __slots__ = ("values", "_spectrum")

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if arr.size < 8 or arr.size % 2:
            raise ValueError(f"grid size must be even and >= 8, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        arr.flags.writeable = False
        self.values = arr
        self._spectrum = None

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

    def _series(self):
        """The interpolant as ``(mean, cos, sin)`` for modes ``1 .. N/2``,
        the Nyquist term a cosine at mode ``N / 2``."""
        c = self.spectrum()
        cos_c = np.append(2.0 * c[1:-1].real, c[-1].real)
        sin_c = np.append(-2.0 * c[1:-1].imag, 0.0)
        return float(c[0].real), cos_c, sin_c

    def interpolate(self, theta):
        """Evaluate the trigonometric interpolant at arbitrary angles.

        Exact at the grid nodes, and exact everywhere when the sampled
        function is band-limited below the Nyquist mode.

        ``trig_eval`` of the spectrum as cosine/sine coefficients, with the
        Nyquist term as a cosine at mode ``N / 2``: for ``P`` angles, O(P N)
        flops and O(P sqrt(N)) memory from ``N = 2 TRIG_TABLE_MIN_MODES``
        up (see ``trig_eval``).
        """
        mean, cos_c, sin_c = self._series()
        out = mean + trig_eval(theta, cos_c, sin_c)
        if np.isscalar(theta) or np.asarray(theta).ndim == 0:
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

    Evaluates ``f`` at ``eps0 / 2**j`` for ``j = 0 .. levels-1`` and fills the
    standard tableau with weights ``4**m``, which cancels the ``eps**2``,
    ``eps**4``, ... terms in turn.
    """
    if levels < 3:
        raise ValueError("richardson_limit needs at least 3 levels")
    if not eps0 > 0:
        raise ValueError("eps0 must be positive")
    rows: list[np.ndarray] = []
    for j in range(levels):
        row = np.empty(j + 1)
        row[0] = float(f(eps0 / 2.0**j))
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


def solve_bracketed(
    fdf, lo: float, hi: float, f_lo: float, f_hi: float, ftol: float = 0.0
) -> float:
    """Find a root of ``f`` in the bracket ``[lo, hi]``.

    ``fdf(x)`` returns the floats ``(f(x), f'(x))`` at one angle; ``f_lo``
    and ``f_hi`` are the values of ``f`` at the ends, of opposite sign. A
    point where ``|f| <= ftol`` (an end included) is returned as the root:
    a caller passes the rounding bound of its evaluation of ``f``, below
    which the sign of ``f`` is noise that would only steer bisections; the
    default ``0.0`` stops on an exact zero alone. Each iteration calls
    ``fdf`` once, so a root costs one evaluation of ``f`` and ``f'`` per
    iteration.

    Newton from the secant point of the ends, guarded: a step that leaves
    the current sign-change bracket, or is longer than half the previous
    step, is replaced by bisection. The root is accepted once the Newton
    step is at most ``SOLVE_XTOL`` (the step is taken) or the bracket is at
    most ``2 SOLVE_XTOL`` wide (its midpoint). A simple root usually takes
    2 to 4 iterations. The last ``ceil(log2((hi - lo) / SOLVE_XTOL))`` of the
    ``SOLVE_MAX_ITER`` iterations bisect only, so the bracket is below
    ``2 SOLVE_XTOL`` by the last one; a bracket too wide for that raises
    ``ValueError``.
    """
    if abs(f_lo) <= ftol:
        return lo
    if abs(f_hi) <= ftol:
        return hi
    if not (lo < hi and (f_lo < 0.0) != (f_hi < 0.0)):
        raise ValueError("the bracket needs lo < hi and ends of opposite sign")
    bisect_from = SOLVE_MAX_ITER - math.ceil(math.log2(max(hi - lo, SOLVE_XTOL) / SOLVE_XTOL))
    if bisect_from < 1:
        raise ValueError(
            f"a bracket of width {hi - lo:.3e} needs more than {SOLVE_MAX_ITER} iterations"
        )
    neg_lo = f_lo < 0.0
    x = lo + (hi - lo) * f_lo / (f_lo - f_hi)
    last = hi - lo
    for it in range(SOLVE_MAX_ITER):
        f, df = fdf(x)
        if abs(f) <= ftol:
            return x
        if (f < 0.0) == neg_lo:
            lo = x
        else:
            hi = x
        step = f / df if df else math.inf
        nxt = x - step
        if it + 1 < bisect_from and lo <= nxt <= hi and abs(step) <= 0.5 * last:
            if abs(step) <= SOLVE_XTOL:
                return nxt
        else:
            nxt = 0.5 * (lo + hi)
        if hi - lo <= 2.0 * SOLVE_XTOL:
            return nxt
        last = abs(nxt - x)
        x = nxt
    return 0.5 * (lo + hi)


def count_sign_changes(samples: PeriodicSamples, snap: float = 1e-12):
    """Count strict sign changes of the trigonometric interpolant per period.

    Scans a four-fold refined grid, treats values within ``snap * max|u|`` of
    zero as zero (plateaus do not count as crossings), and polishes each
    crossing inside its bracket of nonzero nodes. Returns
    ``(count, locations)`` with locations in ``[0, 2 pi)``. Identically zero
    input counts zero crossings.

    The scan evaluates the interpolant (Nyquist term as a cosine at mode
    ``N / 2``) with one zero-padded inverse FFT, ``trig_eval_uniform``, and
    selects the bracketing node pairs with array masks: O(N log N) time and
    O(N) memory. The polish is ``solve_bracketed`` on the interpolant and its
    derivative, both summed from the cached spectrum at one angle: a simple
    root takes 2 to 4 evaluations, never more than ``SOLVE_MAX_ITER``, each
    O(N) time and memory. Locations are within ``1e-12`` of the zero of
    ``interpolate``.

    Raises if the count exceeds ``N / 2``, where the interpolant can no longer
    be trusted to resolve the sampled function.
    """
    vals = samples.values
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return 0, np.empty(0)
    c = samples.spectrum()
    fine_n = 4 * samples.size
    theta = circle_grid(fine_n)
    mean, cos_c, sin_c = samples._series()
    u = mean + trig_eval_uniform(cos_c, sin_c, fine_n)
    sign = np.where(np.abs(u) <= snap * scale, 0, np.sign(u)).astype(int)
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
    half = samples.size // 2
    k = np.arange(1, half)
    c_k, dc_k = c[1:-1], 1j * k * c[1:-1]
    nyq = float(c[-1].real)

    def fdf(x):
        z = np.exp(1j * x * k)
        return (
            mean + 2.0 * float((z @ c_k).real) + nyq * math.cos(half * x),
            2.0 * float((z @ dc_k).real) - half * nyq * math.sin(half * x),
        )

    locations = [
        solve_bracketed(fdf, lo, up, f_lo, f_hi) % TWO_PI
        for lo, up, f_lo, f_hi in zip(theta[a].tolist(), hi.tolist(), u[a].tolist(), u[b].tolist())
    ]
    return count, np.array(sorted(locations))
