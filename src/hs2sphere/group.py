"""The semidirect product of circle diffeomorphisms with angle fields.

Elements are pairs (phi, alpha): an orientation-preserving diffeomorphism
of the circle fixing 0, and an angle field valued in the circle of length
4 pi.  Multiplication is (phi, alpha)(psi, beta) = (phi o psi, beta +
alpha o psi).  The right-invariant metric at the identity is

    <(u, rho), (v, tau)> = (1/4) integral(u_x v_x + rho tau).

The map Phi(phi, alpha) = sqrt(phi_x) exp(i alpha / 2) identifies the
group isometrically with the nowhere-vanishing part of the unit sphere in
L2(S^1; C).

Angle fields are carried as continuous real lifts together with an
integer winding number w, meaning alpha(x + 1) = alpha(x) + 4 pi w; the
mod-4pi reduction is applied only when comparing elements.

Elements and tangent vectors may hold stacks of S samples (funcspace):
the winding is then an int array of shape (S,), and the metric and the
distance return one value per sample.
"""

from __future__ import annotations

import numpy as np

from . import funcspace as fs
from .errors import GridMismatchError, UnwrapAmbiguityError, VanishingModulusError
from .funcspace import PeriodicFunction, PeriodicGrid
from .sphere import MODULUS_TOL, SpherePoint

FOUR_PI = 4.0 * np.pi
PHASE_JUMP_TOL = 0.5 * np.pi


def wrap_mod_4pi(delta):
    """Reduce an angle difference to the symmetric interval [-2pi, 2pi)."""
    return np.mod(np.asarray(delta) + 2.0 * np.pi, FOUR_PI) - 2.0 * np.pi


def _read_only(a: np.ndarray | None) -> np.ndarray | None:
    if a is not None:
        a.flags.writeable = False
    return a


class TangentVector:
    """Tangent vector (u1, u2): u1 vanishes at 0, both real.

    ``u1x`` and ``u2x`` are the read-only spectral x-derivatives of the
    components.  A vector is born carrying those its producer already
    holds: a sampler that drew the component's spectrum, or a formula
    that has the derivative in closed form, passes it as ``_u1x`` or
    ``_u2x`` (trusted, made read-only, the library's own path).  Any
    other is computed on its first read and kept.  Every formula reads
    them instead of differentiating the components again, and a vector
    whose derivatives nobody reads costs no transform.
    """

    __slots__ = ("u1", "u2", "_u1x", "_u2x")

    def __init__(
        self,
        u1: PeriodicFunction,
        u2: PeriodicFunction,
        *,
        _u1x: np.ndarray | None = None,
        _u2x: np.ndarray | None = None,
    ):
        if u1.is_complex or u2.is_complex:
            raise ValueError("tangent components must be real")
        if u1.grid != u2.grid:
            raise GridMismatchError(f"u1 on n = {u1.grid.n} and u2 on n = {u2.grid.n}")
        if fs.any_row(np.abs(u1.values[..., 0]) > 1e-10):
            raise ValueError(f"u1 must vanish at 0, got {u1.values[..., 0]!r}")
        self.u1 = u1
        self.u2 = u2
        self._u1x = _read_only(_u1x)
        self._u2x = _read_only(_u2x)

    @staticmethod
    def _deriv(f: PeriodicFunction) -> np.ndarray:
        sp = f.grid.spectral
        d = sp.apply(f.values, sp.deriv)
        d.flags.writeable = False
        return d

    @property
    def u1x(self) -> np.ndarray:
        if self._u1x is None:
            self._u1x = self._deriv(self.u1)
        return self._u1x

    @property
    def u2x(self) -> np.ndarray:
        if self._u2x is None:
            self._u2x = self._deriv(self.u2)
        return self._u2x

    @property
    def grid(self) -> PeriodicGrid:
        return self.u1.grid

    def __add__(self, other: "TangentVector") -> "TangentVector":
        return type(self)(self.u1 + other.u1, self.u2 + other.u2)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        return type(self)(self.u1 - other.u1, self.u2 - other.u2)

    def __mul__(self, scalar: float) -> "TangentVector":
        return type(self)(self.u1 * scalar, self.u2 * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "TangentVector":
        return type(self)(-self.u1, -self.u2)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.grid.n})"


class GroupElement:
    """Pair (phi, alpha) with phi an increasing lift fixing 0.

    ``phi`` holds the lift samples phi(x_j) (so phi(x+1) = phi(x) + 1 by
    convention) and ``alpha`` holds continuous lift samples of the angle
    field, whose winding number w gives alpha(x+1) = alpha(x) + 4 pi w.
    ``phi_x`` is the spectral slope of phi, computed once here by the
    monotonicity check, or passed in as ``_phi_x`` by a producer that
    holds it (the library's own path), and then checked alike.
    """

    __slots__ = ("grid", "phi", "alpha", "winding", "phi_x")

    def __init__(
        self,
        phi: PeriodicFunction,
        alpha: PeriodicFunction,
        winding: int = 0,
        *,
        _phi_x: np.ndarray | None = None,
    ):
        if phi.is_complex or alpha.is_complex:
            raise ValueError("phi and alpha must be real")
        if phi.grid != alpha.grid:
            raise GridMismatchError(
                f"phi on n = {phi.grid.n} and alpha on n = {alpha.grid.n}"
            )
        if fs.any_row(np.abs(phi.values[..., 0]) > 1e-9):
            raise ValueError(f"phi must fix 0, got phi(0)={phi.values[..., 0]!r}")
        self.grid = phi.grid
        self.phi = phi
        self.alpha = alpha
        lead = phi.values.shape[:-1]
        winding = np.full(lead, winding, dtype=int)
        winding.flags.writeable = False
        self.winding = winding if lead else int(winding)
        if _phi_x is None:
            _phi_x = fs._check_increasing(phi, 0.0)
        else:
            fs._check_slope(_phi_x, 0.0)
        self.phi_x = PeriodicFunction._own(phi.grid, _phi_x)

    @classmethod
    def identity(cls, grid: PeriodicGrid, stack: tuple = ()) -> "GroupElement":
        """The identity, slope 1; ``stack`` = (S,) gives a stack of S copies."""
        x = PeriodicFunction(grid, np.broadcast_to(grid.x, stack + (grid.n,)))
        zeros = np.zeros_like(x.values)
        return cls(x, PeriodicFunction._own(grid, zeros), 0, _phi_x=zeros + 1.0)

    def distance(self, other: "GroupElement"):
        """Sup distance with the angle compared mod 4 pi."""
        if other.grid != self.grid:
            raise GridMismatchError(
                f"elements on n = {self.grid.n} and n = {other.grid.n}"
            )
        dphi = np.abs(self.phi.values - other.phi.values)
        dalpha = np.abs(wrap_mod_4pi(self.alpha.values - other.alpha.values))
        return fs.row_max(np.maximum(dphi, dalpha))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.grid.n}, winding={self.winding})"

    def to_json_obj(self) -> dict:
        return {
            "n": self.grid.n,
            "phi": self.phi.values.tolist(),
            "alpha": self.alpha.values.tolist(),
            "winding": self.winding,
        }

    @classmethod
    def from_json_obj(cls, obj) -> "GroupElement":
        """The element :meth:`to_json_obj` wrote.  n and the winding must be
        integers, |alpha| < 2**26 (so finite) and phi within [0, 1)
        (ValueError); phi is then checked as always."""
        n, winding = obj["n"], obj["winding"]
        # int() itself refuses NaN (ValueError) and infinities (OverflowError)
        if int(n) != n or int(winding) != winding:
            raise ValueError(f"n and winding must be integers: {n!r}, {winding!r}")
        alpha = np.asarray(obj["alpha"], dtype=float)
        # from 2**26 on, float spacing (2**-26) exceeds the 1e-8 phase
        # tolerance that log_map reads alpha mod 4 pi with; NaN fails too
        if not np.all(np.abs(alpha) < 2.0**26):
            raise ValueError("alpha must be finite, with |alpha| < 2**26")
        # an increasing lift fixing 0 maps [0, 1) into [0, 1): tested before
        # any transform, so a huge or NaN sample never reaches the FFT
        phi = np.asarray(obj["phi"], dtype=float)
        if not np.all(np.abs(phi - 0.5) <= 0.5 + 1e-9):  # NaN fails too
            raise ValueError("phi must lie in [0, 1)")
        grid = PeriodicGrid(int(n))
        return cls(
            PeriodicFunction(grid, phi), PeriodicFunction(grid, alpha), int(winding)
        )


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """(phi, alpha)(psi, beta) = (phi o psi, beta + alpha o psi).

    phi and alpha are composed with psi together, as the complex lift
    phi + i alpha of slope 1 + 4 pi i w.
    """
    lift = PeriodicFunction._own(a.grid, a.phi.values + 1j * a.alpha.values)
    slope = 1.0 + 1j * (FOUR_PI * a.winding)
    comp = fs.compose(lift, b.phi, slope, b.phi_x.values).values
    phi = PeriodicFunction._own(a.grid, comp.real)
    alpha = b.alpha + comp.imag
    return GroupElement(phi, alpha, a.winding + b.winding)


def inverse(a: GroupElement) -> GroupElement:
    """(phi, alpha)^{-1} = (phi^{-1}, -alpha o phi^{-1})."""
    phi_inv = fs.invert_diffeo(a.phi, a.phi_x.values)
    phix = fs._check_increasing(phi_inv)
    alpha = -fs.compose(a.alpha, phi_inv, FOUR_PI * a.winding, phix)
    return GroupElement(phi_inv, alpha, -a.winding, _phi_x=phix)


def metric(at: GroupElement, U: TangentVector, V: TangentVector):
    """Right-invariant metric (1/4) integral(U1x V1x / phi_x + U2 V2 phi_x)."""
    phix = at.phi_x.values
    integrand = U.u1x * V.u1x / phix + U.u2.values * V.u2.values * phix
    return 0.25 * fs.row_mean(integrand)


def phi_map(a: GroupElement) -> SpherePoint:
    """The isometry Phi(phi, alpha) = sqrt(phi_x) exp(i alpha / 2)."""
    phix = a.phi_x.values
    vals = np.sqrt(phix) * np.exp(0.5j * a.alpha.values)
    return SpherePoint(PeriodicFunction._own(a.grid, vals))


def phi_inverse(f: SpherePoint) -> GroupElement:
    """Invert Phi: phi(x) = integral_0^x |f|^2, alpha = 2 arg f unwrapped.

    |f| must exceed MODULUS_TOL everywhere.  The phase is unwrapped
    sequentially along the grid starting from alpha(0) in [0, 4 pi); a
    jump above PHASE_JUMP_TOL (pi/2) between adjacent nodes means the grid
    cannot resolve the phase and is rejected.
    """
    vals = f.values
    least = np.abs(vals).min()
    if least <= MODULUS_TOL:
        raise VanishingModulusError(
            f"phi_inverse needs |f| > {MODULUS_TOL}, min={least!r}"
        )
    ratios = np.roll(vals, -1, axis=-1) / vals
    jumps = np.angle(ratios)
    if np.abs(jumps).max() > PHASE_JUMP_TOL:
        raise UnwrapAmbiguityError(
            "adjacent-node phase jump exceeds pi/2; refine the grid"
        )
    theta0 = np.mod(np.angle(vals[..., :1]), 2.0 * np.pi)
    steps = np.cumsum(jumps[..., :-1], axis=-1)
    theta = theta0 + np.concatenate((np.zeros_like(theta0), steps), axis=-1)
    winding = np.rint(np.sum(jumps, axis=-1) / (2.0 * np.pi))
    grid = f.grid
    modsq = PeriodicFunction._own(grid, np.abs(vals) ** 2)
    phi = fs.antiderivative_from_zero(modsq)
    alpha = PeriodicFunction._own(grid, 2.0 * theta)
    return GroupElement(phi, alpha, winding)


def tangent_phi(at: GroupElement, U: TangentVector) -> PeriodicFunction:
    """Differential of Phi: (U1x + i U2 phi_x) exp(i alpha/2) / (2 sqrt(phi_x))."""
    phix = at.phi_x.values
    vals = (
        (U.u1x + 1j * U.u2.values * phix)
        * np.exp(0.5j * at.alpha.values)
        / (2.0 * np.sqrt(phix))
    )
    return PeriodicFunction._own(at.grid, vals)
