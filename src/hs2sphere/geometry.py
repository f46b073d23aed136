"""Connection, Kahler structure, and curvature on the group and its quotient.

All identity verifications are carried out at the group identity with
right-invariant extensions, which is where every formula is simplest:
for right-invariant fields X, Y with values u, v at the identity,

    (nabla_X Y)|_id = (v_1x u_1, v_2x u_1) - Gamma(v, u),

and scalar invariants like <Y, Z> are constant along the group, so their
derivatives vanish.

One code path serves the group and its quotient by constant phase
shifts.  The functions below take :class:`~hs2sphere.group.TangentVector`
for the group, with the metric (1/4) integral(u1x v1x + u2 v2), or
:class:`KTangent` for the quotient, and build their results with the type
of their first argument.  A quotient tangent class is stored by its
zero-mean representative, its horizontal lift, and the ``KTangent``
constructor is that projection: it is the only point where the two
geometries differ.  The quotient connection is then the horizontal part
of the full one (O'Neill).

Every formula reads the x-derivatives a tangent vector keeps from their
first read (``u1x``, ``u2x``) and the slope ``phi_x`` a group element
carries; none differentiates an input again.  The first slots of
:func:`christoffel`, :func:`kahler_J` and :func:`dJ_direction` are born
with their derivatives, read from the coefficients the slot was
transformed with, so that the Nyquist mode the slot drops is dropped
from its derivative too.  On stacks of S tangent vectors every scalar
(metric, omega, curvature, residual) is an array of one value per
sample.
"""

from __future__ import annotations

import numpy as np

from . import funcspace as fs
from .errors import DegeneratePlaneError
from .funcspace import PeriodicFunction
from .group import GroupElement, TangentVector


class KTangent(TangentVector):
    """Tangent class (u1, [u2]) stored by its zero-mean representative.

    ``u2x`` is the derivative of that representative, and of u2.
    """

    __slots__ = ()

    def __init__(self, u1: PeriodicFunction, u2: PeriodicFunction, **carried):
        super().__init__(u1, fs.mean_projection(u2), **carried)


def _pi(vals: np.ndarray, phix=1.0) -> np.ndarray:
    """Fibre projection pi(W) = W - integral(W phi_x), one per sample."""
    return vals - fs.row_mean(vals * phix, keepdims=True)


# ---------------------------------------------------------------------------
# metrics and the symplectic form
# ---------------------------------------------------------------------------


def metric(u, v):
    """Metric at the identity: (1/4) integral(u1x v1x + u2 v2)."""
    return 0.25 * fs.row_mean(u.u1x * v.u1x + u.u2.values * v.u2.values)


def norm(u):
    return fs.per_row(np.sqrt(np.maximum(metric(u, u), 0.0)))


def metric_K_at(at: GroupElement, U, V):
    """Quotient metric at a base point: projections use the phi_x weight,

    (1/4) integral(U1x V1x / phi_x + pi(U2) pi(V2) phi_x),
    pi(W) = W - integral(W phi_x).
    """
    phix = at.phi_x.values
    pu, pv = _pi(U.u2.values, phix), _pi(V.u2.values, phix)
    return 0.25 * fs.row_mean(U.u1x * V.u1x / phix + pu * pv * phix)


def symplectic_omega(u, v):
    """Two-form (1/4) integral(u2x v1 - v2x u1); constant coefficients."""
    return 0.25 * fs.row_mean(u.u2x * v.u1.values - v.u2x * u.u1.values)


# ---------------------------------------------------------------------------
# Christoffel maps
# ---------------------------------------------------------------------------


def christoffel(u, v):
    """Gamma(u, v) = -(1/2)(A^{-1} d/dx(u1x v1x + u2 v2), u1x v2 + v1x u2).

    The first slot's derivative is (1/2)(g - integral(g)), g = u1x v1x + u2 v2,
    without its Nyquist mode.
    """
    grid = u.grid
    g = PeriodicFunction._own(grid, u.u1x * v.u1x + u.u2.values * v.u2.values)
    first, first_x = fs._inverse_A_dx_carrying(g)
    second = PeriodicFunction._own(
        grid, -0.5 * (u.u1x * v.u2.values + v.u1x * u.u2.values)
    )
    return type(u)(first * (-0.5), second, _u1x=-0.5 * first_x)


# ---------------------------------------------------------------------------
# complex structure
# ---------------------------------------------------------------------------


def kahler_J(U, at: GroupElement | None = None):
    """Almost complex structure J(U1, [U2]) = (-int_0^x pi(U2) phi_x, [U1x / phi_x]).

    pi(U2) = U2 - integral(U2 phi_x); with ``at`` omitted the base is the
    identity, phi_x = 1.  The result has the type of U: a canonical
    :class:`KTangent`, or a raw :class:`TangentVector` representative whose
    second slot is only defined up to a constant.  The first slot's
    derivative is its integrand, without its Nyquist mode.
    """
    phix = 1.0 if at is None else at.phi_x.values
    first, first_x = fs._antiderivative_carrying(
        PeriodicFunction._own(U.grid, _pi(U.u2.values, phix) * phix)
    )
    second = PeriodicFunction._own(U.grid, U.u1x / phix)
    return type(U)(-1.0 * first, second, _u1x=-first_x)


def dJ_direction(u: KTangent, v: KTangent) -> KTangent:
    """Chart derivative of J at the identity along u, applied to v.

    (DJ . u)(v) = (A^{-1} d/dx(v2 u1x), -[v1x u1x]); the first slot's
    derivative is -(v2 u1x - integral(v2 u1x)), without its Nyquist mode.
    """
    grid = u.grid
    first, first_x = fs._inverse_A_dx_carrying(
        PeriodicFunction._own(grid, v.u2.values * u.u1x)
    )
    second = PeriodicFunction._own(grid, -v.u1x * u.u1x)
    return KTangent(first, second, _u1x=first_x)


def nabla_J_residual(u: KTangent, v: KTangent):
    """Norm of (DJ.u)(v) - Gamma(Jv, u) + J Gamma(v, u); zero when J is parallel."""
    total = dJ_direction(u, v) - christoffel(kahler_J(v), u) + kahler_J(
        christoffel(v, u)
    )
    return norm(total)


# ---------------------------------------------------------------------------
# bracket and Nijenhuis tensor
# ---------------------------------------------------------------------------


def bracket_K(u: KTangent, v: KTangent) -> KTangent:
    """Bracket of right-invariant fields: (v1x u1 - u1x v1, [v2x u1 - u2x v1])."""
    grid = u.grid
    first = PeriodicFunction._own(grid, v.u1x * u.u1.values - u.u1x * v.u1.values)
    second = PeriodicFunction._own(grid, v.u2x * u.u1.values - u.u2x * v.u1.values)
    return KTangent(first, second)


def nijenhuis_terms(
    u: KTangent, v: KTangent
) -> tuple[KTangent, KTangent, KTangent, KTangent]:
    """The four summands [u,v], J[Ju,v], J[u,Jv], -[Ju,Jv]."""
    Ju, Jv = kahler_J(u), kahler_J(v)
    return (
        bracket_K(u, v),
        kahler_J(bracket_K(Ju, v)),
        kahler_J(bracket_K(u, Jv)),
        -bracket_K(Ju, Jv),
    )


def nijenhuis(u: KTangent, v: KTangent) -> KTangent:
    """Nijenhuis tensor of J; vanishes identically (J is integrable)."""
    t1, t2, t3, t4 = nijenhuis_terms(u, v)
    return t1 + t2 + t3 + t4


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def curvature_G(u, v):
    """Gram determinant |u|^2 |v|^2 - <u,v>^2: <R(u,v)v, u> on the full group."""
    uv = metric(u, v)
    return metric(u, u) * metric(v, v) - uv * uv


def curvature_K_closed(u: KTangent, v: KTangent):
    """<R(u,v)v, u> = |u|^2 |v|^2 - <u,v>^2 + 3 omega(u,v)^2."""
    omega = symplectic_omega(u, v)
    return curvature_G(u, v) + 3.0 * (omega * omega)


def _mul_pair(w, a: np.ndarray):
    """(w1x a, w2x a): ingredient of the local curvature expression."""
    grid = w.grid
    return type(w)(
        PeriodicFunction._own(grid, w.u1x * a), PeriodicFunction._own(grid, w.u2x * a)
    )


def curvature_local(u, v):
    """Five-term Christoffel expression for <R(u,v)v, u>.

    Valid at the identity for right-invariant extensions.  On
    :class:`KTangent` it cross-checks :func:`curvature_K_closed`; on the
    full group the value is the Gram determinant :func:`curvature_G`.
    """
    guv = christoffel(u, v)
    guu = christoffel(u, u)
    gvv = christoffel(v, v)
    term1 = metric(guv, guv) - metric(guu, gvv)
    d_u_v1 = _mul_pair(u, v.u1.values)
    d_u_u1 = _mul_pair(u, u.u1.values)
    term2 = -metric(d_u_v1, guv) + metric(d_u_u1, gvv)
    d_v_v1 = _mul_pair(v, v.u1.values)
    d_v_u1 = _mul_pair(v, u.u1.values)
    combo = (
        -1.0 * christoffel(d_v_v1, u)
        - 1.0 * christoffel(v, d_u_v1)
        + 2.0 * christoffel(d_v_u1, v)
    )
    term3 = metric(combo, u)
    return term1 + term2 + term3


def sectional_curvature(u: KTangent, v: KTangent):
    """sec(u, v) in [1, 4]; equals 4 exactly on J-invariant planes."""
    gram = curvature_G(u, v)
    if fs.any_row(gram < 1e-12):
        raise DegeneratePlaneError("u, v do not span a plane")
    return curvature_K_closed(u, v) / gram


# ---------------------------------------------------------------------------
# right-invariant covariant derivative and compatibility residuals
# ---------------------------------------------------------------------------


def nabla_rightinvariant(v, u):
    """nabla_X Y at the identity for right-invariant X, Y with values u, v."""
    return _mul_pair(v, u.u1.values) - christoffel(v, u)


def metric_compat_residual(u, v, w):
    """|<nabla_X Y, Z> + <Y, nabla_X Z>| for right-invariant fields (X<Y,Z> = 0)."""
    return abs(
        metric(nabla_rightinvariant(v, u), w)
        + metric(v, nabla_rightinvariant(w, u))
    )


def omega_compat_residual(u: KTangent, v: KTangent, w: KTangent):
    """|omega(nabla_X Y, Z) + omega(Y, nabla_X Z)|; zero when omega is parallel."""
    return abs(
        symplectic_omega(nabla_rightinvariant(v, u), w)
        + symplectic_omega(v, nabla_rightinvariant(w, u))
    )


def jacobi_residual(u: KTangent, v: KTangent, w: KTangent):
    """Metric norm of the cyclic bracket sum; zero for a Lie bracket.

    The cyclic sum cancels only through the Jacobi identity, which is a
    formal consequence of the product rule.  Evaluating it that way keeps
    the cancellation exact in floating point: each input derivative is
    computed once, every derived quantity (including the first-component
    derivative the metric norm needs) is assembled by the product rule
    from those shared values, and no spectral derivative is taken of a
    nearly-cancelled intermediate, which would amplify its roundoff by
    the top wavenumber.
    """

    def describe(t):
        sp = t.grid.spectral
        u1xx, u2xx = sp.apply(np.stack([t.u1x, t.u2x]), sp.deriv)
        return {
            "u1": t.u1.values,
            "u1x": t.u1x,
            "u1xx": u1xx,
            "u1xxx": sp.apply(u1xx, sp.deriv),
            "u2x": t.u2x,
            "u2xx": u2xx,
        }

    def inner(a, b):
        return {
            "first": b["u1x"] * a["u1"] - a["u1x"] * b["u1"],
            "firstx": b["u1xx"] * a["u1"] - a["u1xx"] * b["u1"],
            "firstxx": (
                b["u1xxx"] * a["u1"] + b["u1xx"] * a["u1x"]
                - a["u1xxx"] * b["u1"] - a["u1xx"] * b["u1x"]
            ),
            "second": b["u2x"] * a["u1"] - a["u2x"] * b["u1"],
            "secondx": (
                b["u2xx"] * a["u1"] + b["u2x"] * a["u1x"]
                - a["u2xx"] * b["u1"] - a["u2x"] * b["u1x"]
            ),
        }

    def outer(a, B):
        first_dx = B["firstxx"] * a["u1"] - a["u1xx"] * B["first"]
        second = B["secondx"] * a["u1"] - a["u2x"] * B["first"]
        return first_dx, second

    du, dv, dw = describe(u), describe(v), describe(w)
    pieces = [
        outer(du, inner(dv, dw)),
        outer(dv, inner(dw, du)),
        outer(dw, inner(du, dv)),
    ]
    first_dx = sum(p[0] for p in pieces)
    second = sum(p[1] for p in pieces)
    return fs.per_row(np.sqrt(0.25 * fs.row_mean(first_dx**2 + _pi(second) ** 2)))
