"""Shared fixtures and deterministic hypothesis settings."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from virasoro import CircleDiffeo, VectorFieldS1

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
