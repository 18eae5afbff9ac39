"""Grid numerics on the circle.

Periodic sample containers, uniform-grid evaluation of trigonometric
series, spectral differentiation, quadrature, Richardson extrapolation, and
sign-change counting. Everything here lives on the uniform grid
``theta_k = 2 pi k / N`` and is exact (to rounding) for band-limited data
resolved by that grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

TWO_PI = 2.0 * np.pi

# Shared default resolution for sampled operators.
DEFAULT_GRID = 256


def circle_grid(n: int) -> np.ndarray:
    """Return the ``n`` uniform angles ``2 pi k / n``, ``k = 0 .. n-1``."""
    return TWO_PI * np.arange(n) / n


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

    def interpolate(self, theta):
        """Evaluate the trigonometric interpolant at arbitrary angles.

        Exact at the grid nodes, and exact everywhere when the sampled
        function is band-limited below the Nyquist mode.
        """
        c = self.spectrum()
        n = self.size
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        k = np.arange(1, n // 2)
        ang = np.multiply.outer(th, k)
        out = np.full(th.shape, c[0].real)
        out += 2.0 * (np.cos(ang) @ c[1:-1].real - np.sin(ang) @ c[1:-1].imag)
        out += c[-1].real * np.cos((n // 2) * th)
        if np.isscalar(theta) or np.asarray(theta).ndim == 0:
            return float(out[0])
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


def count_sign_changes(samples: PeriodicSamples, snap: float = 1e-12):
    """Count strict sign changes of the trigonometric interpolant per period.

    Scans a four-fold refined grid, treats values within ``snap * max|u|`` of
    zero as zero (plateaus do not count as crossings), and polishes each
    crossing with bisection. Returns ``(count, locations)`` with locations in
    ``[0, 2 pi)``. Identically zero input counts zero crossings.

    The scan evaluates the interpolant (Nyquist term as a cosine at mode
    ``N / 2``) with one zero-padded inverse FFT, ``trig_eval_uniform``, and
    selects the bracketing node pairs with array masks: O(N log N) time and
    O(N) memory. Only the root polish evaluates ``interpolate`` at scattered
    points, one angle at a time.

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
    u = c[0].real + trig_eval_uniform(
        np.append(2.0 * c[1:-1].real, c[-1].real),
        np.append(-2.0 * c[1:-1].imag, 0.0),
        fine_n,
    )
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
    locations = [
        brentq(samples.interpolate, lo, up, xtol=1e-12) % TWO_PI for lo, up in zip(theta[a], hi)
    ]
    return count, np.array(sorted(locations))
