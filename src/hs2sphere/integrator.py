"""Pseudospectral method-of-lines reference solver.

Independent cross-check for the closed-form solutions: the weak form

    u_t = -u u_x - (1/2) A^{-1} d/dx (u_x^2 + rho^2),
    rho_t = -(rho u)_x,          A = -d^2/dx^2,

is integrated with classical fixed-step RK4 on the stacked state (u, rho).
Quadratic products are dealiased with the 2/3 rule, and the u(0) = 0 pin
is re-applied after every step.  Each stage makes two real-FFT pairs, one
for u_x and one for both outer derivatives as a two-row stack; dealiasing
masks the three products in one more.  Stage 1 of each state also yields
its energy.  The blow-up guard reads w = u_x + i rho along characteristics
off the great circle.  The zero-mean-restricted variant replaces rho by its
mean-free projection and keeps it exact at every stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepBlowupError
from .funcspace import PeriodicFunction, PeriodicGrid, SpectralMultipliers
from .geodesics import InitialData
from .serialize import write_trajectory_csv

UX_LIMIT = 1e6
# The energy and mean logs hold one entry per step; the largest run in the
# tests and demos takes about 4,100 steps.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration.

    ``record_every`` controls how often full states enter the trajectory;
    scalar conservation logs are kept every step regardless.
    """

    dt: float = 5e-4
    t_end: float = 1.0
    dealias: bool = True
    record_every: int = 1

    def __post_init__(self):
        if not (0.0 < self.dt < math.inf and 0.0 < self.t_end < math.inf):
            raise ValueError("dt and t_end must be positive and finite")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ValueError(f"t_end / dt must be at most {MAX_STEPS}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    @property
    def n_steps(self) -> int:
        """Step count: t_end / dt rounded, or rounded up if that misses t_end."""
        n = int(round(self.t_end / self.dt))
        if n < 1 or abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            n = int(math.ceil(self.t_end / self.dt - 1e-12))
        return n


@dataclass
class Trajectory:
    """Recorded states plus per-step conservation logs."""

    grid: PeriodicGrid
    times: np.ndarray
    u: np.ndarray
    rho: np.ndarray
    energy_times: np.ndarray
    energy: np.ndarray          # c(t)^2 = (1/4) integral(u_x^2 + rho^2)
    rho_mean: np.ndarray
    dt: float
    restricted: bool = False

    def state(self, i: int) -> tuple[PeriodicFunction, PeriodicFunction]:
        return (
            PeriodicFunction(self.grid, self.u[i]),
            PeriodicFunction(self.grid, self.rho[i]),
        )

    def to_csv(self, path) -> None:
        """Long-format CSV with columns t, x, u, rho."""
        write_trajectory_csv(path, self.times, self.grid.x, self.u, self.rho)


def _rhs_arrays(y, sp: SpectralMultipliers, dealias: bool, restricted: bool):
    """y_t, u_x and the unmasked energy density u_x^2 + rho^2 of y = (u, rho)."""
    u, rho = y
    if restricted:
        rho = rho - np.mean(rho)
    ux = sp.apply(u, sp.deriv)
    quad = np.empty((3, u.size))
    density, flux, advect = quad
    np.multiply(ux, ux, out=density)
    density += rho * rho
    np.multiply(rho, u, out=flux)
    np.multiply(u, ux, out=advect)
    if dealias:
        quad = sp.apply(quad, sp.mask)
    ainvdx, dflux = sp.apply(quad[:2], sp.ainv_dx_deriv)
    yt = np.empty_like(y)
    yt[0] = -quad[2] - 0.5 * (ainvdx - ainvdx[0])
    yt[1] = -dflux
    if restricted:
        yt[1] -= np.mean(yt[1])
    return yt, ux, density


def rhs(
    u: PeriodicFunction, rho: PeriodicFunction, dealias: bool = True
) -> tuple[PeriodicFunction, PeriodicFunction]:
    """Right side of the weak-form system; preserves u_t(0) = 0."""
    yt, _, _ = _rhs_arrays((u.values, rho.values), u.grid.spectral, dealias, False)
    return PeriodicFunction(u.grid, yt[0]), PeriodicFunction(u.grid, yt[1])


def rhs_restricted(
    u: PeriodicFunction, rho: PeriodicFunction, dealias: bool = True
) -> tuple[PeriodicFunction, PeriodicFunction]:
    """Zero-mean-restricted right side; second output is exactly mean-free."""
    yt, _, _ = _rhs_arrays((u.values, rho.values), u.grid.spectral, dealias, True)
    return PeriodicFunction(u.grid, yt[0]), PeriodicFunction(u.grid, yt[1])


def integrate(
    d: InitialData,
    cfg: IntegratorConfig,
    restricted: bool = False,
    ux_limit: float = UX_LIMIT,
) -> Trajectory:
    """Run RK4 from the initial data to t_end.

    Near blow-up the true gradient grows without bound.  When it exceeds
    ``ux_limit`` (or the state stops being finite) a
    :class:`StepBlowupError` is raised carrying the trajectory recorded so
    far and the last stable time; its message names the reading that
    tripped.

    The guard reads two gradients at the start of every step.  The first
    is sup |u_x| on the grid.  That reading alone cannot see the breakdown:
    the steep region narrows far below a grid cell, so the grid samples of
    u_x stay moderate (near 7 on ``hs-blowup`` at n = 256) while the true
    sup |u_x| diverges.  The second reading is sup |Re w| over the flow-map
    labels of the grid nodes, where w = u_x + i rho is read along each
    characteristic.  Differentiating the u equation in x, with
    -d/dx A^{-1} d/dx g = g - mean(g) and 4 c^2 = mean(u_x^2 + rho^2), and
    using rho_t + u rho_x = -rho u_x, gives with D_t = d/dt + u d/dx

        D_t u_x = -u_x^2 / 2 + rho^2 / 2 - 2 c^2,   D_t rho = -rho u_x,

    that is the Lagrangian Riccati law D_t w = -2 c^2 - w^2 / 2.  Its
    solution is w = 2 f_t / f with the great circle
    f(t) = cos(ct) + w0 sin(ct) / (2c), so Re w diverges exactly where the
    sphere picture breaks down.  The law involves no positions, so the
    guard evaluates w in closed form, c^2 being the initial energy; w
    never feeds back into u or rho.  The u(0) = 0 pin adds a spatial
    constant to u_t and leaves the law unchanged.  The run also halts
    before a step with 0.5 dt sup|Re w| >= 1, which could reach the pole.

    With ``restricted=True`` rho is replaced by its mean-free part
    rho' = rho - mean(rho).  The restricted flow is the 2HS flow of
    (u, rho'): u_t sees rho' only, and rho'_t = -(rho' u)_x because the mean
    of (rho' u)_x is zero.  The same law therefore holds for
    w = u_x + i rho', with w0 = u0_x + i (rho0 - mean rho0) and c^2 the
    restricted energy (1/4) mean(u_x^2 + rho'^2).
    """
    sp = d.grid.spectral
    n_steps = cfg.n_steps
    dt = cfg.t_end / n_steps
    y = np.stack([d.u0.values, d.rho0.values])
    if restricted:
        y[1] -= np.mean(y[1])
    k1, ux, density = _rhs_arrays(y, sp, cfg.dealias, restricted)
    rec_t, rec_y = [0.0], [y.copy()]
    en_t, en, means = [0.0], [0.25 * float(np.mean(density))], [float(np.mean(y[1]))]
    # f = cos(ct) + h t sinc(ct / pi) with h = w0 / 2; t sinc keeps c = 0 exact
    h, csq = 0.5 * (ux + 1j * y[1]), en[0]
    c = math.sqrt(csq)

    def build() -> Trajectory:
        states = np.asarray(rec_y)
        return Trajectory(
            d.grid, np.asarray(rec_t), states[:, 0], states[:, 1],
            np.asarray(en_t), np.asarray(en), np.asarray(means), dt, restricted,
        )

    def halt(message: str, t: float) -> StepBlowupError:
        return StepBlowupError(message, trajectory=build(), halt_time=t)

    t = 0.0
    for step in range(1, n_steps + 1):
        cos_ct, s = math.cos(c * t), t * np.sinc(c * t / math.pi)
        with np.errstate(all="ignore"):
            w = 2.0 * (h * cos_ct - csq * s) / (cos_ct + h * s)
        sup_ux = float(np.max(np.abs(ux)))
        sup_w = float(np.max(np.abs(w.real)))
        for reading, value in (("grid sup|u_x|", sup_ux), ("label sup|Re w|", sup_w)):
            if value > ux_limit or not np.isfinite(value):
                message = f"{reading} = {value!r} exceeded {ux_limit!r} at t = {t!r}"
                raise halt(message, t)
        if 0.5 * dt * sup_w >= 1.0:
            pole = f"puts the Riccati pole within dt = {dt!r} of t = {t!r}"
            raise halt(f"label sup|Re w| = {sup_w!r} {pole}", t)
        k2, _, _ = _rhs_arrays(y + 0.5 * dt * k1, sp, cfg.dealias, restricted)
        k3, _, _ = _rhs_arrays(y + 0.5 * dt * k2, sp, cfg.dealias, restricted)
        k4, _, _ = _rhs_arrays(y + dt * k3, sp, cfg.dealias, restricted)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[0] -= y[0, 0]
        if restricted:
            y[1] -= np.mean(y[1])
        if not np.all(np.isfinite(y)):
            message = f"state became non-finite between t = {t!r} and t = {step * dt!r}"
            raise halt(message, t)
        t = step * dt
        k1, ux, density = _rhs_arrays(y, sp, cfg.dealias, restricted)
        en_t.append(t)
        en.append(0.25 * float(np.mean(density)))
        means.append(float(np.mean(y[1])))
        if step % cfg.record_every == 0 or step == n_steps:
            rec_t.append(t)
            rec_y.append(y.copy())
    return build()


def compare_states(
    u_a: PeriodicFunction,
    rho_a: PeriodicFunction,
    u_b: PeriodicFunction,
    rho_b: PeriodicFunction,
) -> tuple[float, float]:
    """Relative L2 errors of (u_a, rho_a) against the reference (u_b, rho_b).

    Each component is measured against its own norm; a component that is
    negligible within the reference state (norm below 1e-8 of the state
    scale) is measured against the state scale instead, so identically
    zero components compare as zero rather than as 0/0 noise.
    """
    nu = float(np.sqrt(np.mean(u_b.values**2)))
    nr = float(np.sqrt(np.mean(rho_b.values**2)))
    scale = max(nu, nr, 1e-30)

    def rel(a, b, comp_norm):
        denom = comp_norm if comp_norm >= 1e-8 * scale else scale
        return float(np.sqrt(np.mean((a - b) ** 2)) / denom)

    return (
        rel(u_a.values, u_b.values, nu),
        rel(rho_a.values, rho_b.values, nr),
    )
