"""The fibration layer: circle quotients of the group and of the sphere.

A constant phase added to the angle component acts on the group; the
quotient is the base space of tangent classes.  A constant unit complex
factor acts on the sphere; the quotient is projective space.  Both
projections are Riemannian submersions, the square with the two
isometries commutes, and the O'Neill formula accounts for the curvature
gap between total space (constant 1) and base (pinched in [1, 4]) through
the vertical part of horizontal brackets.

Quotient points are their canonical representatives in the total space,
returned as plain group elements and sphere points: classes of angle
fields are pinned by alpha(0) = 0 (:func:`project_p`), projective classes
by f(0) real and positive (:func:`project_q`, valid on the
nowhere-vanishing set).  Points and tangents may be stacks of samples;
scalars are then one value per sample.
"""

from __future__ import annotations

import numpy as np

from . import funcspace as fs
from .errors import BaseMismatchError, ZeroAtBasePointError
from .funcspace import PeriodicFunction
from .geometry import (
    KTangent,
    curvature_G,
    curvature_K_closed,
    curvature_local,
    symplectic_omega,
)
from .group import GroupElement, TangentVector, phi_map
from .sphere import SpherePoint, SphereTangent


def project_p(a: GroupElement) -> GroupElement:
    """Quotient by constant phase shifts: pin the lift at alpha(0) = 0."""
    alpha = PeriodicFunction._own(a.grid, a.alpha.values - a.alpha.values[..., :1])
    return GroupElement(a.phi, alpha, a.winding, _phi_x=a.phi_x.values)


def project_q(f: SpherePoint) -> SpherePoint:
    """Projective canonicalization by the phase gauge at x = 0."""
    z = f.values[..., :1]
    modulus = np.abs(z)
    if fs.any_row(modulus < 1e-10):
        raise ZeroAtBasePointError("representative vanishes at the base point")
    gauge = np.conj(z) / modulus
    return SpherePoint(PeriodicFunction._own(f.grid, f.values * gauge))


def psi_map(a: GroupElement) -> SpherePoint:
    """Quotient isometry: class of sqrt(phi_x) exp(i alpha / 2)."""
    return project_q(phi_map(a))


def check_diagram(a: GroupElement):
    """L2 distance between the two routes group -> projective classes."""
    route_sphere = project_q(phi_map(a))
    route_base = psi_map(project_p(a))
    return route_sphere.l2_distance(route_base)


# ---------------------------------------------------------------------------
# horizontal / vertical splittings
# ---------------------------------------------------------------------------


def vertical_sphere(X: SphereTangent) -> SphereTangent:
    """Component along the fiber direction i g."""
    g = X.base.values
    coeff = fs.row_mean((g * np.conj(X.values)).imag, keepdims=True)
    vals = -1j * g * coeff
    return SphereTangent(PeriodicFunction._own(X.base.grid, vals), X.base)


def horizontal_sphere(X: SphereTangent) -> SphereTangent:
    """Orthogonal projection onto the horizontal space: X minus its vertical part."""
    vals = X.values - vertical_sphere(X).values
    return SphereTangent(PeriodicFunction._own(X.base.grid, vals), X.base)


def vertical_G(U: TangentVector, at: GroupElement) -> TangentVector:
    """Fiber component (0, integral(U2 phi_x)): a constant second slot."""
    phix = at.phi_x.values
    c = fs.row_mean(U.u2.values * phix, keepdims=True)
    shape = U.u2.values.shape
    return TangentVector(
        PeriodicFunction._own(at.grid, np.zeros(shape)),
        PeriodicFunction._own(at.grid, np.broadcast_to(c, shape)),
    )


def horizontal_G(U: TangentVector, at: GroupElement) -> TangentVector:
    """Horizontal part (U1, U2 - integral(U2 phi_x)): U minus its vertical part."""
    return U - vertical_G(U, at)


def fubini_study(X: SphereTangent, Y: SphereTangent):
    """Quotient metric of the pushforwards: pairing of horizontal parts."""
    if fs.any_row(X.base.l2_distance(Y.base) > 1e-10):
        raise BaseMismatchError("tangents are based at different points")
    Xh = horizontal_sphere(X)
    Yh = horizontal_sphere(Y)
    return fs.row_mean((Xh.values * np.conj(Yh.values)).real)


# ---------------------------------------------------------------------------
# O'Neill identity
# ---------------------------------------------------------------------------


def vertical_bracket_integral(u: KTangent, v: KTangent):
    """integral(v2x u1 - u2x v1) = -4 omega(u, v): the bracket's fiber part."""
    return -4.0 * symplectic_omega(u, v)


def oneill_check(u: KTangent, v: KTangent, g_route: str = "closed") -> tuple:
    """Base curvature vs total-space curvature of horizontal lifts.

    lhs = <R(u,v)v, u> on the base (closed form); rhs adds (3/4) of the
    squared norm of the vertical bracket component to the total-space
    curvature of the lifts.  ``g_route`` picks the closed Gram form or the
    five-term Christoffel expression for the total-space term.  Returns
    (lhs, rhs, relative residual).
    """
    uh = TangentVector(u.u1, u.u2, _u1x=u.u1x, _u2x=u.u2x)
    vh = TangentVector(v.u1, v.u2, _u1x=v.u1x, _u2x=v.u2x)
    if g_route == "closed":
        g_term = curvature_G(uh, vh)
    elif g_route == "local":
        g_term = curvature_local(uh, vh)
    else:
        raise ValueError(f"unknown g_route {g_route!r}")
    m = vertical_bracket_integral(u, v)
    # squared metric norm of the constant-(0, m) vector is m^2 / 4
    rhs = g_term + 0.75 * (m * m / 4.0)
    lhs = curvature_K_closed(u, v)
    residual = abs(lhs - rhs) / np.maximum(1.0, abs(lhs))
    return lhs, rhs, residual
