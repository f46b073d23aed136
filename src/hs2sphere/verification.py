"""Numerical verification of the geometric identity suite.

Every identity is one row of ``IDENTITIES``: its tolerance, the random
inputs it draws (samplers of :mod:`randfields`, in draw order) and a check
that takes only the drawn inputs.  One wrapper turns the row into the
residual ``residual(grid, rng, flip, S)``, which returns the residuals of
S samples as an array of shape (S,): one :func:`randfields.stacks` call
draws the S samples of every input at once and builds each input as one
stack, and the check runs once on the stacks.  Row s reads only the s-th
row of the draws: it equals the residual of a stack of one built from that
row, bit for bit.  :func:`run_suite` calls each residual on blocks of at
most ``BLOCK`` samples, which bounds its memory, and reports the worst
residual per identity against its tolerance, deterministically: the same
seed, sample count and ``BLOCK`` give the same bytes.

The tolerances hold for the default fields from n = 64 up.  Below that the
suite fails by truncation, not by a wrong identity: a composition of
band-limited draws is not band-limited, and at n = 32 ``group_axioms``
reads 1.8e-7 against its 1e-9 (seed 0, 100 samples).

A deliberate sign error can be injected into selected identities (see
``FLIPPABLE``; the wrapper passes ``flip`` to their checks alone); that is
a harness self-test, proving the suite fails when the mathematics is wrong.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

from . import funcspace as fs
from . import geometry as gm
from . import hopf
from . import randfields as rf
from .funcspace import PeriodicFunction, PeriodicGrid
from .group import (
    GroupElement,
    TangentVector,
    inverse,
    metric,
    multiply,
    phi_inverse,
    phi_map,
    tangent_phi,
)
from .sphere import SphereTangent, project_to_tangent

FLIPPABLE = ("omega_compatibility", "j_squared", "oneill_closed")
# Largest stack of samples one residual call takes.  Its temporaries grow
# with it, about 0.17 MiB a sample at n = 256; the call overhead per sample
# falls with it.
BLOCK = 20


def _worst(first, *rest) -> np.ndarray:
    """Largest residual of each sample; NaN if any is NaN, so that it fails."""
    return functools.reduce(np.maximum, rest, first)


def _group_axioms(a, b, c):
    ident = GroupElement.identity(a.grid, a.phi.values.shape[:-1])
    return _worst(
        multiply(multiply(a, b), c).distance(multiply(a, multiply(b, c))),
        multiply(a, inverse(a)).distance(ident),
        multiply(a, ident).distance(a),
        multiply(ident, b).distance(b),
    )


def _right_translate(a, U):
    """U o phi, the right translate of U to a, composed with the slope a
    holds.  u1 and u2 go through :func:`fs.compose` as the one complex lift
    u1 + i u2, as :func:`multiply` composes phi + i alpha: its real and
    imaginary parts are the two real compositions, bit for bit."""
    own = PeriodicFunction._own
    lift = np.empty(U.u1.values.shape, dtype=complex)
    lift.real, lift.imag = U.u1.values, U.u2.values
    moved = fs.compose(own(a.grid, lift), a.phi, 0.0, a.phi_x.values).values
    return TangentVector(own(a.grid, moved.real), own(a.grid, moved.imag))


def _metric_right_invariance(a, U, V):
    """<U, V> at the identity, where phi_x = 1 and geometry's metric is the
    group's bit for bit, against <U o phi, V o phi> at a = (phi, alpha)."""
    Ut, Vt = _right_translate(a, U), _right_translate(a, V)
    return abs(gm.metric(U, V) - metric(a, Ut, Vt))


def _isometry(a, U, V):
    TU, TV = tangent_phi(a, U), tangent_phi(a, V)
    lhs = fs.row_mean((TU.values * np.conj(TV.values)).real)
    return abs(lhs - metric(a, U, V))


def _phi_round_trip(a, f):
    group_dev = phi_inverse(phi_map(a)).distance(a)
    back = phi_map(phi_inverse(f))
    return _worst(group_dev, fs.row_max(np.abs(back.values - f.values)))


def _curvature_G_local(u, v):
    gram = gm.curvature_G(u, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = abs(gm.curvature_local(u, v) / gram - 1.0)
    return np.where(gram < 1e-12, 0.0, dev)


def _curvature_K_local(u, v):
    closed = gm.curvature_K_closed(u, v)
    local = gm.curvature_local(u, v)
    return abs(closed - local) / np.maximum(1.0, abs(closed))


def _pinching(u, v):
    sec = gm.sectional_curvature(u, v)
    return _worst(1.0 - sec, sec - 4.0, 0.0)


def _J_plane(u):
    u = u * (1.0 / gm.norm(u))
    return abs(gm.sectional_curvature(u, gm.kahler_J(u)) - 4.0)


def _j_squared(a, U, u, flip):
    sign = -1.0 if flip else 1.0
    JJ = gm.kahler_J(gm.kahler_J(U, at=a), at=a)
    dev1 = fs.row_max(np.abs(JJ.u1.values + sign * U.u1.values))
    diff2 = JJ.u2.values + sign * U.u2.values
    dev2 = fs.row_max(np.abs(gm._pi(diff2, a.phi_x.values)))
    dev = gm.kahler_J(gm.kahler_J(u)) + sign * u
    return _worst(dev1, dev2, gm.norm(dev))


def _omega_compat(u, v, flip):
    sign = -1.0 if flip else 1.0
    return abs(gm.symplectic_omega(u, v) - sign * gm.metric(gm.kahler_J(u), v))


def _hermitian(u, v):
    return abs(gm.metric(gm.kahler_J(u), gm.kahler_J(v)) - gm.metric(u, v))


def _nijenhuis_summands(u, v):
    """Residual is the shortfall of the largest summand below 1e-2,

    certifying that the vanishing of the tensor is a genuine cancellation
    of order-one terms rather than smallness of every term.
    """
    terms = gm.nijenhuis_terms(u, v)
    return _worst(0.0, 1e-2 - _worst(*(gm.norm(t) for t in terms)))


def _bracket_antisymmetry(u, v):
    dev = gm.bracket_K(u, v) + gm.bracket_K(v, u)
    return _worst(gm.norm(dev), gm.norm(gm.bracket_K(u, u)))


def _submersion_p(a, U, V):
    Uh = hopf.horizontal_G(U, a)
    Vh = hopf.horizontal_G(V, a)
    return _worst(
        abs(metric(a, Uh, Vh) - gm.metric_K_at(a, U, V)),
        abs(metric(a, hopf.vertical_G(U, a), Vh)),
    )


def _submersion_q(f, X, Y):
    X, Y = project_to_tangent(f, X), project_to_tangent(f, Y)
    Xv, Yv = hopf.vertical_sphere(X), hopf.vertical_sphere(Y)
    full = fs.row_mean((X.values * np.conj(Y.values)).real)
    vert = fs.row_mean((Xv.values * np.conj(Yv.values)).real)
    return abs(hopf.fubini_study(X, Y) - (full - vert))


def _psi_isometry(a, U, V):
    U, V = hopf.horizontal_G(U, a), hopf.horizontal_G(V, a)
    f = phi_map(a)
    XU = SphereTangent(tangent_phi(a, U), f)
    XV = SphereTangent(tangent_phi(a, V), f)
    return abs(gm.metric_K_at(a, U, V) - hopf.fubini_study(XU, XV))


def _oneill_closed(u, v, flip):
    lhs, rhs, res = hopf.oneill_check(u, v, "closed")
    if flip:
        m = hopf.vertical_bracket_integral(u, v)
        rhs = rhs - 1.5 * (m * m / 4.0)
        res = abs(lhs - rhs) / np.maximum(1.0, abs(lhs))
    return res


def _residual(samplers, check, flippable):
    """The residual of one row: (grid, rng, flip, S) -> (S,) array."""

    def residual(grid, rng, flip, samples):
        drawn = rf.stacks(grid, rng, samples, *samplers)
        return check(*drawn, flip) if flippable else check(*drawn)

    return residual


# The samplers of the inputs: group elements, tangent vectors of G and of
# the quotient K, points of the nowhere-vanishing sphere, complex fields.
_G, _U, _K = rf.group_element, rf.g_tangent, rf.k_tangent
_F, _C = rf.nonvanishing_sphere_point, rf.complex_field

# name -> (tolerance, samplers in draw order, check of the drawn stacks).
# A check calls geometry and hopf through their modules when it runs.
_ROWS = {
    "group_axioms": (1e-9, (_G, _G, _G), _group_axioms),
    "metric_right_invariance": (1e-9, (_G, _U, _U), _metric_right_invariance),
    "isometry_tangent_map": (1e-10, (_G, _U, _U), _isometry),
    "phi_round_trip": (1e-9, (_G, _F), _phi_round_trip),
    "curvature_G_local_constant_one": (1e-8, (_U, _U), _curvature_G_local),
    "curvature_K_local_vs_closed": (1e-8, (_K, _K), _curvature_K_local),
    "sectional_pinching": (1e-8, (_K, _K), _pinching),
    "sectional_J_plane_is_four": (1e-8, (_K,), _J_plane),
    "j_squared": (1e-10, (_G, _U, _K), _j_squared),
    "omega_compatibility": (1e-10, (_K, _K), _omega_compat),
    "hermitian_metric": (1e-10, (_K, _K), _hermitian),
    "nabla_metric_G": (1e-9, (_U, _U, _U), lambda *x: gm.metric_compat_residual(*x)),
    "nabla_metric_K": (1e-9, (_K, _K, _K), lambda *x: gm.metric_compat_residual(*x)),
    "nabla_omega": (1e-9, (_K, _K, _K), lambda *x: gm.omega_compat_residual(*x)),
    "nabla_J": (1e-9, (_K, _K), lambda *x: gm.nabla_J_residual(*x)),
    "nijenhuis_vanishing": (1e-8, (_K, _K), lambda *x: gm.norm(gm.nijenhuis(*x))),
    "nijenhuis_summands_nontrivial": (1e-12, (_K, _K), _nijenhuis_summands),
    "bracket_antisymmetry": (1e-12, (_K, _K), _bracket_antisymmetry),
    "bracket_jacobi": (1e-9, (_K, _K, _K), lambda *x: gm.jacobi_residual(*x)),
    "submersion_p": (1e-10, (_G, _U, _U), _submersion_p),
    "submersion_q": (1e-10, (_F, _C, _C), _submersion_q),
    "psi_isometry": (1e-10, (_G, _U, _U), _psi_isometry),
    "commuting_diagram": (1e-10, (_G,), lambda a: hopf.check_diagram(a)),
    "oneill_closed": (1e-8, (_K, _K), _oneill_closed),
    "oneill_local": (1e-8, (_K, _K), lambda *x: hopf.oneill_check(*x, "local")[2]),
}
# name -> (tolerance, residuals of S samples: (grid, rng, flip, S) -> (S,) array)
IDENTITIES = {
    name: (tol, _residual(samplers, check, name in FLIPPABLE))
    for name, (tol, samplers, check) in _ROWS.items()
}

SCHEMA_VERSION = 1


def run_suite(
    n: int = 256,
    samples: int = 100,
    seed: int = 0,
    sign_flip: str | None = None,
) -> dict:
    """Run the identity suite and return a deterministic report dict.

    Each identity draws its samples from its own seeded stream, in blocks
    of at most ``BLOCK`` samples, so reports are byte-reproducible; its
    residual is the worst over the samples, and a NaN sample makes it NaN
    and fails the identity.
    """
    if sign_flip is not None and sign_flip not in FLIPPABLE:
        raise ValueError(
            f"sign error injection supports {FLIPPABLE}, got {sign_flip!r}"
        )
    grid = PeriodicGrid(n)
    results = []
    for name, (tol, residual_of) in IDENTITIES.items():
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        flip = sign_flip == name
        blocks = [
            residual_of(grid, rng, flip, min(BLOCK, samples - done))
            for done in range(0, samples, BLOCK)
        ]
        residual = float(np.maximum.reduce(np.concatenate(blocks), initial=0.0))
        results.append(
            {
                "identity": name,
                "n_samples": samples,
                "max_residual": residual,
                "tolerance": tol,
                "pass": bool(residual < tol),
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "samples": samples,
        "seed": seed,
        "sign_flip": sign_flip,
        "all_pass": all(r["pass"] for r in results),
        "results": results,
    }
