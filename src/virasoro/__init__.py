"""Schwarzian calculus and Virasoro orbit data for circle diffeomorphisms.

The package computes the classical, modified, and chart-corrected Schwarzian
cocycles of circle diffeomorphisms, the associated Lorentz metrics on the
torus minus its diagonal, cross-ratio estimators, and the symplectic and
momentum-map machinery of the Virasoro coadjoint orbits.
"""

from .numerics import (
    DEFAULT_GRID,
    ExtrapolationResult,
    PeriodicSamples,
    circle_grid,
    circle_integral,
    count_sign_changes,
    richardson_limit,
    spectral_derivative,
)
from .circle import (
    CircleDiffeo,
    MobiusElement,
    VectorFieldS1,
    bracket,
    compose,
    flow,
    inverse,
    random_diffeo,
    random_mobius,
    random_vector_field,
)
from .projective import (
    LINE,
    TORUS,
    ProjectivePoint,
    ProjectiveStructure,
    cartan_schwarzian_estimate,
    cross_ratio,
    develop,
    mobius_lift,
)
from .schwarzian import (
    GhysReport,
    OneForm,
    PeriodicFunction,
    QuadraticDifferential,
    cocycle_A,
    cocycle_E,
    ghys_zero_count,
    infinitesimal_schwarzian,
    osculating_mobius,
    schwarzian_classical,
    schwarzian_from_triple,
    schwarzian_modified,
    schwarzian_universal,
)
from .hyperboloid import (
    NullMetric,
    SpacetimePoint,
    conformal_factor,
    diagonal_restriction,
    embed,
    flat_cocycle,
    gaussian_curvature,
    general_metric,
    hessian_check,
)
from .orbits import (
    OrbitPoint,
    VirasoroElement,
    alpha_eval,
    bott_thurston,
    bott_thurston_direct,
    coadjoint_affine,
    coadjoint_linear,
    contact_form_eval,
    d_alpha_check,
    gelfand_fuchs,
    momentum_map,
    omega_0,
    omega_0_spectral,
    omega_c_algebraic,
    omega_c_geometric,
    pairing,
    virasoro_inverse,
    virasoro_multiply,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
