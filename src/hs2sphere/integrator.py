"""Pseudospectral method-of-lines reference solver.

Independent cross-check for the closed-form solutions: the weak form

    u_t = -u u_x - (1/2) A^{-1} d/dx (u_x^2 + rho^2),
    rho_t = -(rho u)_x,          A = -d^2/dx^2,

is integrated with classical fixed-step RK4.  Quadratic products are
dealiased with the 2/3 rule, and the u(0) = 0 pin is re-applied after
every step.  Each stage makes two real-FFT pairs, one for u_x and one for
both outer derivatives as a two-row stack; dealiasing masks the three
products in one more.  Stage 1 of each state also yields its energy.  The
zero-mean-restricted variant replaces rho by its mean-free projection and
keeps the projection exact at every stage.
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
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


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


def _rhs_arrays(u, rho, sp: SpectralMultipliers, dealias: bool, restricted: bool):
    """u_t, rho_t, u_x and the unmasked energy density u_x^2 + rho^2."""
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
    ut = -quad[2] - 0.5 * (ainvdx - ainvdx[0])
    rhot = -dflux
    if restricted:
        rhot = rhot - np.mean(rhot)
    return ut, rhot, ux, density


def rhs(
    u: PeriodicFunction, rho: PeriodicFunction, dealias: bool = True
) -> tuple[PeriodicFunction, PeriodicFunction]:
    """Right side of the weak-form system; preserves u_t(0) = 0."""
    ut, rhot, _, _ = _rhs_arrays(u.values, rho.values, u.grid.spectral, dealias, False)
    return PeriodicFunction(u.grid, ut), PeriodicFunction(u.grid, rhot)


def rhs_restricted(
    u: PeriodicFunction, rho: PeriodicFunction, dealias: bool = True
) -> tuple[PeriodicFunction, PeriodicFunction]:
    """Zero-mean-restricted right side; second output is exactly mean-free."""
    ut, rhot, _, _ = _rhs_arrays(u.values, rho.values, u.grid.spectral, dealias, True)
    return PeriodicFunction(u.grid, ut), PeriodicFunction(u.grid, rhot)


def _riccati(w: np.ndarray, csq: float) -> np.ndarray:
    """Lagrangian law D_t w = -2 c^2 - w^2 / 2 for w = u_x + i rho."""
    return -2.0 * csq - 0.5 * w * w


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
    labels of the grid nodes, where w = u_x + i rho is carried along each
    characteristic.  Differentiating the u equation in x, with
    -d/dx A^{-1} d/dx g = g - mean(g) and 4 c^2 = mean(u_x^2 + rho^2), and
    using rho_t + u rho_x = -rho u_x, gives with D_t = d/dt + u d/dx

        D_t u_x = -u_x^2 / 2 + rho^2 / 2 - 2 c^2,   D_t rho = -rho u_x,

    that is the Lagrangian Riccati law D_t w = -2 c^2 - w^2 / 2.  Its
    solution is w = 2 f_t / f with the great circle
    f(t) = cos(ct) + w0 sin(ct) / (2c), so Re w diverges exactly where the
    sphere picture breaks down.  The law involves no positions, so w is
    advanced label by label with the same RK4 step, c^2 taken from the
    run's energy log; it never feeds back into u or rho.  The u(0) = 0 pin
    adds a spatial constant to u_t and leaves the law unchanged.

    Near the pole the RK4 iterate of w lags the true w, so a fixed limit
    alone would halt after the breakdown time.  From Re w < 0, the pole of
    D_t w = -w^2 / 2 lies 2 / |w| ahead and the -2 c^2 term only brings it
    closer, so the run also halts before a step with
    0.5 dt sup|Re w| >= 1, which could reach the pole.

    With ``restricted=True`` rho is replaced by its mean-free part
    rho' = rho - mean(rho).  The restricted flow is the 2HS flow of
    (u, rho'): u_t sees rho' only, and rho'_t = -(rho' u)_x because the mean
    of (rho' u)_x is zero.  The same law therefore holds for
    w = u_x + i rho', with w0 = u0_x + i (rho0 - mean rho0) and c^2 the
    restricted energy (1/4) mean(u_x^2 + rho'^2).
    """
    grid = d.grid
    sp = grid.spectral

    def rhs_step(u, rho):
        return _rhs_arrays(u, rho, sp, cfg.dealias, restricted)

    n_steps = int(round(cfg.t_end / cfg.dt))
    if n_steps < 1 or abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-12))
    dt = cfg.t_end / n_steps

    u = d.u0.values.copy()
    rho = d.rho0.values.copy()
    if restricted:
        rho = rho - np.mean(rho)
    k1u, k1r, ux, density = rhs_step(u, rho)
    w = ux + 1j * rho

    rec_t, rec_u, rec_rho = [0.0], [u.copy()], [rho.copy()]
    en_t, en, means = [0.0], [0.25 * float(np.mean(density))], [float(np.mean(rho))]

    def build() -> Trajectory:
        return Trajectory(
            grid,
            np.asarray(rec_t),
            np.asarray(rec_u),
            np.asarray(rec_rho),
            np.asarray(en_t),
            np.asarray(en),
            np.asarray(means),
            dt,
            restricted,
        )

    t = 0.0
    for step in range(1, n_steps + 1):
        sup_ux = float(np.max(np.abs(ux)))
        sup_w = float(np.max(np.abs(w.real)))
        for reading, value in (("grid sup|u_x|", sup_ux), ("label sup|Re w|", sup_w)):
            if value > ux_limit or not np.isfinite(value):
                raise StepBlowupError(
                    f"{reading} = {value!r} exceeded {ux_limit!r} at t = {t!r}",
                    trajectory=build(),
                    halt_time=t,
                )
        if 0.5 * dt * sup_w >= 1.0:
            raise StepBlowupError(
                f"label sup|Re w| = {sup_w!r} puts the Riccati pole within "
                f"dt = {dt!r} of t = {t!r}",
                trajectory=build(),
                halt_time=t,
            )
        k2u, k2r, _, _ = rhs_step(u + 0.5 * dt * k1u, rho + 0.5 * dt * k1r)
        k3u, k3r, _, _ = rhs_step(u + 0.5 * dt * k2u, rho + 0.5 * dt * k2r)
        k4u, k4r, _, _ = rhs_step(u + dt * k3u, rho + dt * k3r)
        u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        rho = rho + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        csq = en[-1]
        q1 = _riccati(w, csq)
        q2 = _riccati(w + 0.5 * dt * q1, csq)
        q3 = _riccati(w + 0.5 * dt * q2, csq)
        q4 = _riccati(w + dt * q3, csq)
        w = w + (dt / 6.0) * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
        u = u - u[0]
        if restricted:
            rho = rho - np.mean(rho)
        t = step * dt

        if not np.all(np.isfinite(u)) or not np.all(np.isfinite(rho)):
            raise StepBlowupError(
                f"state became non-finite between t = {en_t[-1]!r} and t = {t!r}",
                trajectory=build(),
                halt_time=en_t[-1],
            )
        k1u, k1r, ux, density = rhs_step(u, rho)
        en_t.append(t)
        en.append(0.25 * float(np.mean(density)))
        means.append(float(np.mean(rho)))
        if step % cfg.record_every == 0 or step == n_steps:
            rec_t.append(t)
            rec_u.append(u.copy())
            rec_rho.append(rho.copy())

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
