"""Pseudospectral method-of-lines reference solver.

Independent cross-check for the closed-form solutions: the weak form

    u_t = -u u_x - (1/2) A^{-1} d/dx (u_x^2 + rho^2),
    rho_t = -(rho u)_x,          A = -d^2/dx^2,

is integrated with classical fixed-step RK4 on the real-FFT coefficients
Y = rfft([u, rho]).  A stage makes one three-row irfft to u, rho, u_x and
one three-row rfft of u_x^2 + rho^2, rho u, u u_x; derivatives, A^{-1} d/dx
and the 2/3-rule dealiasing mask act on coefficients, so dealiasing costs
no transform, and the u(0) = 0 pin is a mean-mode correction.  Stage 1 of
each state also yields its energy and recorded rows.  The blow-up guard
reads w = u_x + i rho along characteristics off the great circle.  The
zero-mean-restricted variant zeroes rho's mean mode at every stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepBlowupError
from .funcspace import PeriodicFunction, PeriodicGrid
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


class _Stage:
    """y_t of Y = rfft([u, rho]) in coefficient space, with its work arrays.

    ``self(y, out)`` copies y in first, so out may be y.  It leaves u, rho
    and u_x on the grid in ``rows`` and u_x^2 + rho^2 unmasked in ``quad[0]``.
    """

    def __init__(self, grid: PeriodicGrid, dealias: bool, restricted: bool):
        self.sp, self.dealias, self.restricted = grid.spectral, dealias, restricted
        self.coef = np.empty((3, grid.n // 2 + 1), dtype=complex)
        self.rows, self.quad = np.empty((2, 3, grid.n))

    def __call__(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        sp, coef, quad = self.sp, self.coef, self.quad
        coef[:2] = y
        if self.restricted:
            coef[1, 0] = 0.0
        np.multiply(coef[0], sp.deriv, out=coef[2])
        rows = np.fft.irfft(coef, quad.shape[1], out=self.rows)
        np.multiply(rows[[2, 1, 0]], rows[[2, 0, 2]], out=quad)
        quad[0] += rows[1] * rows[1]
        hat = np.fft.rfft(quad, out=coef)
        if self.dealias:
            hat *= sp.mask
        ainvdx = np.multiply(hat[0], 0.5 * sp.ainv_dx, out=out[0])
        ainvdx[0] = -2.0 * ainvdx.real[1:-1].sum()  # the mean that makes it 0 at 0
        out[0] += hat[2]
        np.multiply(hat[1], sp.deriv, out=out[1])
        return np.negative(out, out=out)


def _grid_rhs(u, rho, dealias: bool, restricted: bool):
    """rfft, one coefficient-space stage, irfft."""
    y = np.fft.rfft(np.stack([u.values, rho.values]))
    ut, rhot = np.fft.irfft(_Stage(u.grid, dealias, restricted)(y, y), u.grid.n)
    return PeriodicFunction(u.grid, ut), PeriodicFunction(u.grid, rhot)


def rhs(
    u: PeriodicFunction, rho: PeriodicFunction, dealias: bool = True
) -> tuple[PeriodicFunction, PeriodicFunction]:
    """Right side of the weak-form system; u_t(0) = 0 if u(0) = 0, undealiased."""
    return _grid_rhs(u, rho, dealias, False)


def rhs_restricted(
    u: PeriodicFunction, rho: PeriodicFunction, dealias: bool = True
) -> tuple[PeriodicFunction, PeriodicFunction]:
    """Zero-mean-restricted right side; second output is exactly mean-free."""
    return _grid_rhs(u, rho, dealias, True)


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
    n_steps = cfg.n_steps
    dt = cfg.t_end / n_steps
    y = np.stack([d.u0.values, d.rho0.values])
    if restricted:
        y[1] -= np.mean(y[1])
    # f = cos(ct) + h sin(ct) / c, h = w0 / 2, c^2 = mean |h|^2; t at c = 0
    h = 0.5 * (d.u0x.values + 1j * y[1])
    csq = float(np.mean(h.real * h.real + h.imag * h.imag))
    c = math.sqrt(csq)
    stage = _Stage(d.grid, cfg.dealias, restricted)
    Y = np.fft.rfft(y)
    k1, k2, k3, k4 = np.empty((4, *Y.shape), dtype=complex)
    rec_t, rec_y, en_t, en, means = [], [], [], [], []

    def build() -> Trajectory:
        states = np.asarray(rec_y)
        return Trajectory(
            d.grid, np.asarray(rec_t), states[:, 0], states[:, 1],
            np.asarray(en_t), np.asarray(en), np.asarray(means), dt, restricted,
        )

    def halt(message: str, t: float) -> StepBlowupError:
        return StepBlowupError(message, trajectory=build(), halt_time=t)

    for step in range(n_steps + 1):
        t = step * dt
        stage(Y, k1)
        en_t.append(t)
        en.append(0.25 * float(np.mean(stage.quad[0])))
        means.append(float(Y[1, 0].real) / d.grid.n)
        if step % cfg.record_every == 0 or step == n_steps:
            u, rho = stage.rows[:2]
            rec_t.append(t)
            rec_y.append(np.stack([u - u[0], rho]))  # u(0) is 0.0, not roundoff
        if step == n_steps:
            return build()
        cos_ct, s = math.cos(c * t), math.sin(c * t) / c if c else t
        with np.errstate(all="ignore"):
            w = 2.0 * (h * cos_ct - csq * s) / (cos_ct + h * s)
        sup_ux = float(np.max(np.abs(stage.rows[2])))
        sup_w = float(np.max(np.abs(w.real)))
        for reading, value in (("grid sup|u_x|", sup_ux), ("label sup|Re w|", sup_w)):
            if value > ux_limit or not np.isfinite(value):
                message = f"{reading} = {value!r} exceeded {ux_limit!r} at t = {t!r}"
                raise halt(message, t)
        if 0.5 * dt * sup_w >= 1.0:
            pole = f"puts the Riccati pole within dt = {dt!r} of t = {t!r}"
            raise halt(f"label sup|Re w| = {sup_w!r} {pole}", t)
        for k_in, frac, k_out in ((k1, 0.5, k2), (k2, 0.5, k3), (k3, 1.0, k4)):
            stage(Y + (frac * dt) * k_in, k_out)
        Y = Y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        Y[0, 0] = -2.0 * Y[0, 1:-1].real.sum() - Y[0, -1].real  # pins u(0) = 0
        if not np.all(np.isfinite(Y)):
            message = f"state became non-finite between t = {t!r} and t = "
            raise halt(message + repr((step + 1) * dt), t)


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
