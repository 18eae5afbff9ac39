"""A non-finite scalar parameter, a coefficient table that is not
one-dimensional and a random draw's bound that no draw can meet are
refused with a ``ValueError`` that names them, before any kernel pass and
without a numpy warning; a refused draw leaves its generator's state as it
was."""

import math
import warnings

import numpy as np
import pytest

from virasoro import (
    TORUS,
    CircleDiffeo,
    QuadraticDifferential,
    VectorFieldS1,
    VirasoroElement,
    cartan_schwarzian_estimate,
    coadjoint_affine,
    contact_form_eval,
    diagonal_restriction,
    flow,
    hessian_check,
    momentum_map,
    omega_c_algebraic,
    osculating_mobius,
    random_diffeo,
    random_vector_field,
    richardson_limit,
)
from virasoro.numerics import TrigSeries
from conftest import counting_kernel

D = CircleDiffeo(0.2, (0.05, -0.02), (0.2, 0.03))
XI = VectorFieldS1(0.1, (0.3,), (0.2,))
INF, NAN = math.inf, math.nan
ONE_DIM = "series coefficient tables must be one-dimensional"

# (call, message it raises)
CASES = {
    "diagonal_restriction-theta": (lambda: diagonal_restriction(D, 1.0, INF), "theta must be finite"),
    "diagonal_restriction-c": (lambda: diagonal_restriction(D, NAN, 0.3), "c must be finite"),
    "diagonal_restriction-eps0": (lambda: diagonal_restriction(D, 1.0, 0.3, INF), "eps0 must be positive"),
    "hessian_check-theta": (lambda: hessian_check(D, NAN), "theta must be finite"),
    "hessian_check-eps0": (lambda: hessian_check(D, 0.3, INF), "eps0 must be positive"),
    "richardson_limit-eps0": (lambda: richardson_limit(D.eval, INF, 3), "eps0 must be positive"),
    "cartan_schwarzian_estimate-eps": (
        lambda: cartan_schwarzian_estimate(D, TORUS, 0.3, INF),
        "eps must be positive",
    ),
    "osculating_mobius-theta0": (lambda: osculating_mobius(D, TORUS, INF), "theta0 must be finite"),
    "flow-s": (lambda: flow(XI, NAN), "s must be finite"),
    "flow-s-inf": (lambda: flow(XI, -INF), "s must be finite"),
    "omega_c_algebraic-c": (lambda: omega_c_algebraic(D, XI, XI, NAN), "c must be finite"),
    "momentum_map-c": (lambda: momentum_map(D, NAN), "c must be finite"),
    "coadjoint_affine-c": (
        lambda: coadjoint_affine(D, QuadraticDifferential.constant(1.0, 64), INF),
        "c must be finite",
    ),
    "contact_form_eval-tau": (lambda: contact_form_eval(VirasoroElement(D, 0.5), XI, NAN), "tau must be finite"),
    "VirasoroElement-central": (lambda: VirasoroElement(D, NAN), "central must be finite"),
    "CircleDiffeo-cos-2d": (lambda: CircleDiffeo(0.0, [[0.1, 0.05]]), ONE_DIM),
    "VectorFieldS1-cos-2d": (lambda: VectorFieldS1(0.0, [[1.0, 2.0]]), ONE_DIM),
    "TrigSeries-2d": (lambda: TrigSeries(0.0, [[1, 2]], [[0.5, 0.1]]), ONE_DIM),
    "TrigSeries-sin-2d": (lambda: TrigSeries(0.0, [1.0], [[0.5]]), ONE_DIM),
}

# (draw from a generator, message it raises)
DRAWS = {
    "random_diffeo-min_slope-1.5": (lambda rng: random_diffeo(rng, min_slope=1.5), "min_slope must be at most"),
    "random_diffeo-min_slope-3": (lambda rng: random_diffeo(rng, min_slope=3.0), "min_slope must be at most"),
    "random_diffeo-min_slope-nan": (lambda rng: random_diffeo(rng, min_slope=NAN), "min_slope must be finite"),
    "random_diffeo-max_degree": (lambda rng: random_diffeo(rng, max_degree=1), "max_degree must be at"),
    "random_vector_field-max_degree": (lambda rng: random_vector_field(rng, max_degree=0), "max_degree must be at"),
}

@pytest.mark.parametrize("case", CASES)
def test_refused_before_any_kernel_pass(case, monkeypatch):
    call, message = CASES[case]
    sizes = counting_kernel(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}"):
            call()
    assert sizes == []



def test_scalars_stay_accepted():
    # A scalar table is one mode, through ``ndmin=1``.
    assert TrigSeries(0.0, 0.5, 0.25).cos.shape == (1,)
    assert CircleDiffeo(0.0, 0.1).series.modes == 1


@pytest.mark.parametrize("case", DRAWS)
def test_refused_before_any_draw(case, monkeypatch):
    draw, message = DRAWS[case]
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    sizes = counting_kernel(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}"):
            draw(rng)
    assert sizes == []
    assert rng.bit_generator.state == state
