"""Two-component Hunter-Saxton system via sphere geodesics.

The flow is the geodesic flow of a right-invariant metric on the
semidirect product of circle diffeomorphisms with angle fields, and the
map (phi, alpha) -> sqrt(phi_x) exp(i alpha / 2) identifies that group
isometrically with the nowhere-vanishing part of the unit sphere in
L2(S^1; C).  Great circles therefore integrate the system in closed
form; restriction to mean-free second components descends the flow to a
Kahler base space, a projective-space quotient reached through an
infinite-dimensional Hopf fibration.

Modules: ``funcspace`` (spectral calculus), ``group``, ``sphere``,
``geodesics`` (exact solutions, blow-up, exp/log), ``integrator``
(pseudospectral RK4 reference solver), ``geometry`` (connection, Kahler
structure, curvature), ``hopf`` (submersions, Fubini-Study, O'Neill),
``verification`` (seeded identity suite), ``cli``.
"""

from .errors import HS2Error
from .funcspace import (
    PeriodicFunction,
    PeriodicGrid,
    antiderivative_from_zero,
    compose,
    derivative,
    inverse_A,
    invert_diffeo,
    mean_projection,
)
from .geodesics import (
    BlowupReport,
    InitialData,
    blowup_time,
    classify_existence,
    connect,
    exact_geodesic,
    exact_solution,
    log_map,
    speed,
)
from .geometry import KTangent
from .group import (
    GroupElement,
    TangentVector,
    metric,
    multiply,
    phi_inverse,
    phi_map,
    tangent_phi,
)
from .group import inverse as group_inverse
from .integrator import IntegratorConfig, Trajectory, rhs
from .integrator import integrate as integrate_pde
from .sphere import SpherePoint, SphereTangent, exp_at_one, log_at_one
from .verification import run_suite

__version__ = "0.1.0"

__all__ = [
    "HS2Error",
    "PeriodicFunction",
    "PeriodicGrid",
    "antiderivative_from_zero",
    "compose",
    "derivative",
    "inverse_A",
    "invert_diffeo",
    "mean_projection",
    "BlowupReport",
    "InitialData",
    "blowup_time",
    "classify_existence",
    "connect",
    "exact_geodesic",
    "exact_solution",
    "log_map",
    "speed",
    "KTangent",
    "GroupElement",
    "TangentVector",
    "metric",
    "multiply",
    "group_inverse",
    "phi_inverse",
    "phi_map",
    "tangent_phi",
    "IntegratorConfig",
    "Trajectory",
    "rhs",
    "integrate_pde",
    "SpherePoint",
    "SphereTangent",
    "exp_at_one",
    "log_at_one",
    "run_suite",
]
