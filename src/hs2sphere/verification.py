"""Numerical verification of the geometric identity suite.

Every identity is a residual registered in ``IDENTITIES`` with its
tolerance.  A residual takes a stack size S and returns the residuals of
S samples as an array of shape (S,): it draws the S samples of each random
band-limited input at once (:func:`randfields.stacks`), builds each input
as one stack, and evaluates the identity once on the stacks.  Row s reads
only the s-th row of the draws: it equals the residual of a stack of one
built from that row, bit for bit.  :func:`run_suite` calls each residual
on blocks of at most ``BLOCK`` samples, which bounds its memory, and
reports the worst residual per identity against its tolerance,
deterministically: the same seed, sample count and ``BLOCK`` give the same
bytes.

A deliberate sign error can be injected into selected identities (see
``FLIPPABLE``); that is a harness self-test, proving the suite fails when
the mathematics is wrong.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import funcspace as fs
from . import geometry as gm
from . import hopf
from . import randfields as rf
from .funcspace import PeriodicGrid
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


def _worst(*residuals) -> np.ndarray:
    """Largest residual of each sample; NaN if any is NaN, so that it fails."""
    return np.max(np.broadcast_arrays(*residuals), axis=0)


def _group_axioms(grid, rng, flip, samples):
    ident = GroupElement.identity(grid, (samples,))
    a, b, c = rf.stacks(grid, rng, samples, *[rf.group_element] * 3)
    return _worst(
        multiply(multiply(a, b), c).distance(multiply(a, multiply(b, c))),
        multiply(a, inverse(a)).distance(ident),
        multiply(a, ident).distance(a),
        multiply(ident, b).distance(b),
    )


def _metric_right_invariance(grid, rng, flip, samples):
    ident = GroupElement.identity(grid, (samples,))
    a, U, V = rf.stacks(grid, rng, samples, rf.group_element, *[rf.g_tangent] * 2)
    Ut = TangentVector(fs.compose(U.u1, a.phi), fs.compose(U.u2, a.phi))
    Vt = TangentVector(fs.compose(V.u1, a.phi), fs.compose(V.u2, a.phi))
    return abs(metric(ident, U, V) - metric(a, Ut, Vt))


def _isometry(grid, rng, flip, samples):
    a, U, V = rf.stacks(grid, rng, samples, rf.group_element, *[rf.g_tangent] * 2)
    TU, TV = tangent_phi(a, U), tangent_phi(a, V)
    lhs = fs.row_mean((TU.values * np.conj(TV.values)).real)
    return abs(lhs - metric(a, U, V))


def _phi_round_trip(grid, rng, flip, samples):
    a, f = rf.stacks(
        grid, rng, samples, rf.group_element, rf.nonvanishing_sphere_point
    )
    group_dev = phi_inverse(phi_map(a)).distance(a)
    back = phi_map(phi_inverse(f))
    return _worst(group_dev, fs.row_max(np.abs(back.values - f.values)))


def _curvature_G_local(grid, rng, flip, samples):
    u, v = rf.stacks(grid, rng, samples, *[rf.g_tangent] * 2)
    gram = gm.curvature_G(u, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = abs(gm.curvature_local(u, v) / gram - 1.0)
    return np.where(gram < 1e-12, 0.0, dev)


def _curvature_K_local(grid, rng, flip, samples):
    u, v = rf.stacks(grid, rng, samples, *[rf.k_tangent] * 2)
    closed = gm.curvature_K_closed(u, v)
    local = gm.curvature_local(u, v)
    return abs(closed - local) / np.maximum(1.0, abs(closed))


def _pinching(grid, rng, flip, samples):
    u, v = rf.stacks(grid, rng, samples, *[rf.k_tangent] * 2)
    sec = gm.sectional_curvature(u, v)
    return _worst(1.0 - sec, sec - 4.0, 0.0)


def _J_plane(grid, rng, flip, samples):
    (u,) = rf.stacks(grid, rng, samples, rf.k_tangent)
    u = u * (1.0 / gm.norm(u))
    return abs(gm.sectional_curvature(u, gm.kahler_J(u)) - 4.0)


def _j_squared(grid, rng, flip, samples):
    sign = -1.0 if flip else 1.0
    a, U, u = rf.stacks(
        grid, rng, samples, rf.group_element, rf.g_tangent, rf.k_tangent
    )
    JJ = gm.kahler_J(gm.kahler_J(U, at=a), at=a)
    dev1 = fs.row_max(np.abs(JJ.u1.values + sign * U.u1.values))
    diff2 = JJ.u2.values + sign * U.u2.values
    dev2 = fs.row_max(np.abs(gm._pi(diff2, a.phi_x.values)))
    dev = gm.kahler_J(gm.kahler_J(u)) + sign * u
    return _worst(dev1, dev2, gm.norm(dev))


def _omega_compat(grid, rng, flip, samples):
    sign = -1.0 if flip else 1.0
    u, v = rf.stacks(grid, rng, samples, *[rf.k_tangent] * 2)
    return abs(gm.symplectic_omega(u, v) - sign * gm.metric(gm.kahler_J(u), v))


def _hermitian(grid, rng, flip, samples):
    u, v = rf.stacks(grid, rng, samples, *[rf.k_tangent] * 2)
    return abs(gm.metric(gm.kahler_J(u), gm.kahler_J(v)) - gm.metric(u, v))


def _nabla_metric_G(grid, rng, flip, samples):
    u, v, w = rf.stacks(grid, rng, samples, *[rf.g_tangent] * 3)
    return gm.metric_compat_residual(u, v, w)


def _nabla_metric_K(grid, rng, flip, samples):
    u, v, w = rf.stacks(grid, rng, samples, *[rf.k_tangent] * 3)
    return gm.metric_compat_residual(u, v, w)


def _nabla_omega(grid, rng, flip, samples):
    u, v, w = rf.stacks(grid, rng, samples, *[rf.k_tangent] * 3)
    return gm.omega_compat_residual(u, v, w)


def _nabla_J(grid, rng, flip, samples):
    u, v = rf.stacks(grid, rng, samples, *[rf.k_tangent] * 2)
    return gm.nabla_J_residual(u, v)


def _nijenhuis(grid, rng, flip, samples):
    u, v = rf.stacks(grid, rng, samples, *[rf.k_tangent] * 2)
    return gm.norm(gm.nijenhuis(u, v))


def _nijenhuis_summands(grid, rng, flip, samples):
    """Residual is the shortfall of the largest summand below 1e-2,

    certifying that the vanishing of the tensor is a genuine cancellation
    of order-one terms rather than smallness of every term.
    """
    u, v = rf.stacks(grid, rng, samples, *[rf.k_tangent] * 2)
    terms = gm.nijenhuis_terms(u, v)
    return _worst(0.0, 1e-2 - _worst(*(gm.norm(t) for t in terms)))


def _bracket_antisymmetry(grid, rng, flip, samples):
    u, v = rf.stacks(grid, rng, samples, *[rf.k_tangent] * 2)
    dev = gm.bracket_K(u, v) + gm.bracket_K(v, u)
    return _worst(gm.norm(dev), gm.norm(gm.bracket_K(u, u)))


def _jacobi(grid, rng, flip, samples):
    u, v, w = rf.stacks(grid, rng, samples, *[rf.k_tangent] * 3)
    return gm.jacobi_residual(u, v, w)


def _submersion_p(grid, rng, flip, samples):
    a, U, V = rf.stacks(grid, rng, samples, rf.group_element, *[rf.g_tangent] * 2)
    Uh = hopf.horizontal_G(U, a)
    Vh = hopf.horizontal_G(V, a)
    return _worst(
        abs(metric(a, Uh, Vh) - gm.metric_K_at(a, U, V)),
        abs(metric(a, hopf.vertical_G(U, a), Vh)),
    )


def _submersion_q(grid, rng, flip, samples):
    f, X, Y = rf.stacks(
        grid, rng, samples, rf.nonvanishing_sphere_point, *[rf.complex_field] * 2
    )
    X, Y = project_to_tangent(f, X), project_to_tangent(f, Y)
    Xv, Yv = hopf.vertical_sphere(X), hopf.vertical_sphere(Y)
    full = fs.row_mean((X.values * np.conj(Y.values)).real)
    vert = fs.row_mean((Xv.values * np.conj(Yv.values)).real)
    return abs(hopf.fubini_study(X, Y) - (full - vert))


def _psi_isometry(grid, rng, flip, samples):
    a, U, V = rf.stacks(grid, rng, samples, rf.group_element, *[rf.g_tangent] * 2)
    U, V = hopf.horizontal_G(U, a), hopf.horizontal_G(V, a)
    f = phi_map(a)
    XU = SphereTangent(tangent_phi(a, U), f)
    XV = SphereTangent(tangent_phi(a, V), f)
    return abs(gm.metric_K_at(a, U, V) - hopf.fubini_study(XU, XV))


def _diagram(grid, rng, flip, samples):
    return hopf.check_diagram(*rf.stacks(grid, rng, samples, rf.group_element))


def _oneill_closed(grid, rng, flip, samples):
    u, v = rf.stacks(grid, rng, samples, *[rf.k_tangent] * 2)
    lhs, rhs, res = hopf.oneill_check(u, v, "closed")
    if flip:
        m = hopf.vertical_bracket_integral(u, v)
        rhs = rhs - 1.5 * (m * m / 4.0)
        res = abs(lhs - rhs) / np.maximum(1.0, abs(lhs))
    return res


def _oneill_local(grid, rng, flip, samples):
    u, v = rf.stacks(grid, rng, samples, *[rf.k_tangent] * 2)
    return hopf.oneill_check(u, v, "local")[2]


# name -> (tolerance, residuals of S samples: (grid, rng, flip, S) -> (S,) array)
IDENTITIES = {
    "group_axioms": (1e-9, _group_axioms),
    "metric_right_invariance": (1e-9, _metric_right_invariance),
    "isometry_tangent_map": (1e-10, _isometry),
    "phi_round_trip": (1e-9, _phi_round_trip),
    "curvature_G_local_constant_one": (1e-8, _curvature_G_local),
    "curvature_K_local_vs_closed": (1e-8, _curvature_K_local),
    "sectional_pinching": (1e-8, _pinching),
    "sectional_J_plane_is_four": (1e-8, _J_plane),
    "j_squared": (1e-10, _j_squared),
    "omega_compatibility": (1e-10, _omega_compat),
    "hermitian_metric": (1e-10, _hermitian),
    "nabla_metric_G": (1e-9, _nabla_metric_G),
    "nabla_metric_K": (1e-9, _nabla_metric_K),
    "nabla_omega": (1e-9, _nabla_omega),
    "nabla_J": (1e-9, _nabla_J),
    "nijenhuis_vanishing": (1e-8, _nijenhuis),
    "nijenhuis_summands_nontrivial": (1e-12, _nijenhuis_summands),
    "bracket_antisymmetry": (1e-12, _bracket_antisymmetry),
    "bracket_jacobi": (1e-9, _jacobi),
    "submersion_p": (1e-10, _submersion_p),
    "submersion_q": (1e-10, _submersion_q),
    "psi_isometry": (1e-10, _psi_isometry),
    "commuting_diagram": (1e-10, _diagram),
    "oneill_closed": (1e-8, _oneill_closed),
    "oneill_local": (1e-8, _oneill_local),
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
        residual = float(_worst(0.0, *np.concatenate(blocks)))
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
