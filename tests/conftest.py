"""Shared fixtures and deterministic hypothesis settings."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from virasoro import CircleDiffeo, VectorFieldS1, numerics

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def wobble():
    """The b1 = 0.3 workhorse: theta + 0.3 sin(theta)."""
    return CircleDiffeo(0.0, (), (0.3,))


@pytest.fixture
def two_mode():
    return CircleDiffeo(0.2, (0.05, -0.02), (0.2, 0.03))


@pytest.fixture
def sl2_fields():
    """Basis of the rigid subalgebra: d/dtheta, cos theta d/dtheta, sin theta d/dtheta."""
    return (
        VectorFieldS1(1.0),
        VectorFieldS1(0.0, (1.0,), ()),
        VectorFieldS1(0.0, (), (1.0,)),
    )


def sup_gap(f, g, n: int = 512) -> float:
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False) + 0.007
    return float(np.max(np.abs(np.asarray(f(theta)) - np.asarray(g(theta)))))


def counting_kernel(monkeypatch) -> list:
    """Record every pass of the evaluation kernel (``numerics._kernel_pass``),
    behind each scattered evaluation of one series (``TrigSeries.jet``), of
    a stack of them (``TrigStack``) or of one series on a grid's cached
    exponentials (``TrigSeries.grid_jet``): the list gets the number of
    angles of each pass, in order, so a pass on ``circle_grid(n)`` counts
    ``n``."""
    sizes = []
    kernel_pass = numerics._kernel_pass

    def counting(theta, kernels, z=None):
        sizes.append(np.size(theta) if z is None else theta)
        return kernel_pass(theta, kernels, z)

    monkeypatch.setattr(numerics, "_kernel_pass", counting)
    return sizes


def traced_peak_mb(fn, *args):
    """Run ``fn(*args)`` and return its result with the peak traced
    allocation in MB; numpy reports its array buffers to ``tracemalloc``."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def trig_oracle(theta, cos_c, sin_c, order):
    """``sum a_n cos(n theta) + b_n sin(n theta)`` or its derivative of
    order ``order`` in long double with exactly reduced angles.

    ``theta = hi + lo`` with ``hi`` a float32, so ``n hi`` and ``n lo`` are
    exact in the 64-bit mantissa for ``n < 2^12``, and ``cos(n theta)``,
    ``sin(n theta)`` follow by the addition theorem; each derivative turns
    ``(cos, sin)`` into ``(-sin, cos)`` and multiplies by ``n``.
    """
    big = np.longdouble
    flat = np.asarray(theta, dtype=float).ravel()
    hi = flat.astype(np.float32).astype(float)
    lo = flat - hi
    n = np.arange(1, cos_c.size + 1).astype(big)
    wa = n**order * cos_c.astype(big)
    wb = n**order * sin_c.astype(big)
    out = np.empty(flat.size, dtype=big)
    for rows in np.array_split(np.arange(flat.size), 1 + flat.size * n.size // 200_000):
        ch, sh = np.cos(hi[rows].astype(big)[:, None] * n), np.sin(hi[rows].astype(big)[:, None] * n)
        cl, sl = np.cos(lo[rows].astype(big)[:, None] * n), np.sin(lo[rows].astype(big)[:, None] * n)
        c, s = ch * cl - sh * sl, sh * cl + ch * sl
        for _ in range(order):
            c, s = -s, c
        out[rows] = c @ wa + s @ wb
    return out.reshape(np.shape(theta))


needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="the oracle needs an extended long double"
)


def scattered_angles(rng, shape):
    """Angles in [-4 pi, 4 pi], a quarter of them within 1e-6 of 0."""
    theta = rng.uniform(-4.0 * np.pi, 4.0 * np.pi, shape)
    return np.where(rng.random(shape) < 0.25, 1e-6 * theta, theta)
