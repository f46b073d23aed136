"""The unit sphere in L2 of the circle with complex values.

Points are complex functions of unit L2 norm.  The real inner product
Re integral(X conj(Y)) makes the sphere a (weak) Riemannian manifold; its
geodesics are great circles.  The great circle from the north pole (the
constant function 1), its first zero and its log at 1 live here, and the
exact solutions of :mod:`geodesics` read them.  The nowhere-vanishing
subset U is the target of the group isometry.  Points and tangents may be
stacks of samples (funcspace); norms and pairings are then one value per
sample.  The exponential and logarithm take one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AntipodalOrIdentityError,
    NotTangentError,
    NotUnitNormError,
    ZeroTangentError,
)
from . import funcspace as fs
from .funcspace import PeriodicFunction, PeriodicGrid

NORM_REJECT_TOL = 1e-6
MODULUS_TOL = 1e-8
TANGENT_TOL = 1e-10


class SpherePoint:
    """Complex function on the circle with unit L2 norm.

    The constructor renormalizes norm deviations below 1e-6 and rejects
    anything larger, so large violations surface as errors instead of
    being silently repaired.
    """

    __slots__ = ("f",)

    def __init__(self, f: PeriodicFunction):
        vals = np.asarray(f.values, dtype=np.complex128)
        norm = np.sqrt(fs.row_mean(np.abs(vals) ** 2, keepdims=True))
        if fs.any_row(np.abs(norm - 1.0) > NORM_REJECT_TOL):
            norm = fs.per_row(norm[..., 0])
            raise NotUnitNormError(f"L2 norm {norm!r} too far from 1")
        self.f = PeriodicFunction._own(f.grid, vals / norm)

    @classmethod
    def constant_one(cls, grid: PeriodicGrid) -> "SpherePoint":
        return cls(PeriodicFunction.constant(grid, 1.0 + 0.0j))

    @property
    def grid(self) -> PeriodicGrid:
        return self.f.grid

    @property
    def values(self) -> np.ndarray:
        return self.f.values

    def l2_distance(self, other: "SpherePoint"):
        diff = np.abs(self.values - other.values) ** 2
        return fs.per_row(np.sqrt(fs.row_mean(diff)))

    def __repr__(self):
        return f"SpherePoint(n={self.grid.n})"


@dataclass(frozen=True)
class SphereTangent:
    """Tangent vector at a sphere point: Re integral(X conj(f)) = 0."""

    X: PeriodicFunction
    base: SpherePoint

    def __post_init__(self):
        pairing = fs.row_mean((self.X.values * np.conj(self.base.values)).real)
        if fs.any_row(np.abs(pairing) > TANGENT_TOL):
            raise NotTangentError(
                f"tangency defect {pairing!r} exceeds {TANGENT_TOL}"
            )

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self.X.values, dtype=np.complex128)

    def norm(self):
        return self.X.l2_norm()


def project_to_tangent(base: SpherePoint, X: PeriodicFunction) -> SphereTangent:
    """Orthogonal projection of X onto the tangent space at ``base``."""
    pairing = fs.row_mean((X.values * np.conj(base.values)).real, keepdims=True)
    vals = X.values - pairing * base.values
    return SphereTangent(PeriodicFunction._own(base.grid, vals), base)


def _require_base_one(X: SphereTangent) -> None:
    dev = np.abs(X.base.values - 1.0).max()
    if dev > 1e-9:
        raise ValueError("tangent must be based at the constant function 1")


def great_circle(k, r):
    """Point cos r + k sin r and velocity k cos r - sin r of the great circle
    from 1 with unit velocity k, at arc length r: a float, or (S, 1) rows."""
    cos, sin = np.cos(r), np.sin(r)
    return cos + k * sin, k * cos - sin


def first_zero(k: float) -> float:
    """First s > 0 with cos s + k sin s = 0, k real: cot s = -k, s in (0, pi)."""
    return math.atan2(1.0, -k)


def log_at_one_parts(re: np.ndarray, im: np.ndarray):
    """Log at 1 of one point f = re + i im: r0 = arccos(mu) in (0, pi) for
    mu = integral(re), and the parts of the unit direction (f - mu) /
    sqrt(1 - mu^2).  At +-1, 1 - mu^2 < 1e-14: AntipodalOrIdentityError."""
    mu = fs.row_mean(re)
    if 1.0 - mu * mu < 1e-14:
        raise AntipodalOrIdentityError("target is numerically at +-1")
    denom = math.sqrt(1.0 - mu * mu)
    return math.acos(mu), (re - mu) / denom, im / denom


def exp_at_one(X: SphereTangent) -> SpherePoint:
    """Riemannian exponential at the constant function 1.

    exp_1(X) = cos(r) + sin(r) X/r with r = ||X|| (:func:`great_circle`);
    the geodesic segment traversed has length exactly r.
    """
    _require_base_one(X)
    r = X.norm()
    if r < 1e-14:
        raise ZeroTangentError("exponential of a zero tangent vector")
    vals, _ = great_circle(X.values / r, r)
    return SpherePoint(PeriodicFunction._own(X.base.grid, vals))


def log_at_one(f: SpherePoint) -> tuple[float, SphereTangent]:
    """Principal preimage of f under exp_1: radius in (0, pi) and unit vector.

    The full preimage is {(r0 + 2 pi n) X0}; at f = 1 or f = -1 every unit
    tangent works and :class:`AntipodalOrIdentityError` is raised.
    """
    grid = f.grid
    r0, x_re, x_im = log_at_one_parts(f.values.real, f.values.imag)
    X0 = SphereTangent(
        PeriodicFunction._own(grid, x_re + 1j * x_im), SpherePoint.constant_one(grid)
    )
    return r0, X0
