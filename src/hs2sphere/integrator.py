"""Pseudospectral method-of-lines reference solver.

Independent cross-check for the closed-form solutions: the weak form

    u_t = -u u_x - (1/2) A^{-1} d/dx (u_x^2 + rho^2),
    rho_t = -(rho u)_x,          A = -d^2/dx^2,

is integrated with classical fixed-step RK4 on the real-FFT coefficients
Y = rfft([rho, u]), stage inputs and update built in place.  A stage makes
one three-row irfft to rho, u, u_x and one three-row rfft of u_x^2 + rho^2,
rho u, u u_x (funcspace's entry points, on views built once); derivatives,
A^{-1} d/dx and the 2/3-rule dealiasing mask act on coefficients, and the
u(0) = 0 pin is a mean-mode correction.  Stage 1 of each state also yields
its energy and recorded rows.  The blow-up guard reads w = u_x + i rho off
the great circle, for a block of steps at once, unless a bound on |w| over
all time, computed once per run, certifies that no reading can trip.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import funcspace as fs
from .errors import StepBlowupError
from .funcspace import PeriodicFunction, PeriodicGrid
from .geodesics import InitialData
from .serialize import write_trajectory_csv

UX_LIMIT = 1e6
# The energy and mean logs hold one entry per step; the largest run in the
# tests and demos takes about 4,100 steps.
MAX_STEPS = 10**6


@dataclass(frozen=True, kw_only=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration.

    ``dealias`` (the 2/3 rule) has no default, so every caller states it.
    ``record_every`` controls how often full states enter the trajectory;
    scalar conservation logs are kept every step regardless.
    """

    dt: float = 5e-4
    t_end: float = 1.0
    dealias: bool
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
        """Step count: t_end / dt rounded, or rounded up if that misses t_end;
        at least one step."""
        n = int(round(self.t_end / self.dt))
        if n < 1 or abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            n = max(1, int(math.ceil(self.t_end / self.dt - 1e-12)))
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

    def state(self, i: int) -> tuple[PeriodicFunction, PeriodicFunction]:
        return (
            PeriodicFunction(self.grid, self.u[i]),
            PeriodicFunction(self.grid, self.rho[i]),
        )

    def to_csv(self, path) -> None:
        """Long-format CSV with columns t, x, u, rho."""
        write_trajectory_csv(path, self.times, self.grid.x, self.u, self.rho)


class _Stage:
    """y_t of Y = rfft([rho, u]) in coefficient space, with its work arrays.

    ``self(y, out, k, scale)`` builds its input y + scale k (y without k) in
    its own buffer, so out may be y.  It leaves the grid rows [rho, u, u_x]
    in ``rows``, whose slices give rho u and u u_x in one product, and
    u_x^2 + rho^2 unmasked in ``quad[0]``.  The minus signs of y_t sit in
    the multipliers -d/dx and -(1/2) A^{-1} d/dx.  Its views are built once.
    """

    def __init__(self, grid: PeriodicGrid, dealias: bool):
        sp, self.n = grid.spectral, grid.n
        self.deriv, self.mask = sp.deriv, sp.mask if dealias else None
        self.neg_dx, self.neg_half_ainv_dx = -sp.deriv, -0.5 * sp.ainv_dx
        self.coef = np.empty((3, self.n // 2 + 1), dtype=complex)
        self.rows, self.quad = np.empty((2, 3, self.n))
        self.y, (self.c0, self.c1, self.c2) = self.coef[:2], self.coef
        (self.rho, _, self.ux), (self.q0, self.q1, _) = self.rows, self.quad
        self.rho_u, self.u_ux, self.q12 = self.rows[:2], self.rows[1:], self.quad[1:]

    def __call__(self, y, out, k=None, scale=0.0) -> np.ndarray:
        if k is None:
            self.y[...] = y
        else:
            np.add(y, np.multiply(k, scale, out=self.y), out=self.y)
        np.multiply(self.c1, self.deriv, out=self.c2)
        fs.irfft(self.coef, self.n, out=self.rows)
        np.multiply(self.ux, self.ux, out=self.q0)
        self.q0 += np.multiply(self.rho, self.rho, out=self.q1)  # q1 is free here
        np.multiply(self.rho_u, self.u_ux, out=self.q12)
        fs.rfft(self.quad, out=self.coef)
        if self.mask is not None:
            self.coef *= self.mask
        np.multiply(self.c1, self.neg_dx, out=out[0])
        ut = np.multiply(self.c0, self.neg_half_ainv_dx, out=out[1])
        ut[0] = -2.0 * np.add.reduce(ut.real[1:-1])  # the mean that makes it 0 at 0
        ut -= self.c2
        return out


def rhs(
    u: PeriodicFunction, rho: PeriodicFunction, *, dealias: bool
) -> tuple[PeriodicFunction, PeriodicFunction]:
    """Weak-form right side, u_t(0) = 0 if u(0) = 0; dealias applies the 2/3
    rule.  One coefficient-space stage between an rfft and an irfft."""
    y = fs.rfft(np.stack([rho.values, u.values]))
    rhot, ut = fs.irfft(_Stage(u.grid, dealias)(y, y), u.grid.n)
    return PeriodicFunction._own(u.grid, ut), PeriodicFunction._own(u.grid, rhot)


def _label_sups(h: np.ndarray, csq: float, times) -> np.ndarray:
    """sup|Re w| at each of ``times``, all in one evaluation of w = 2 (h cos ct
    - c^2 s) / (cos ct + h s), s = sin(ct) / c (t at c = 0).  cos and sin
    come from math per time, so each row equals its one-time reading."""
    c = math.sqrt(csq)
    cos_ct = np.array([[math.cos(c * t)] for t in times])
    s = np.array([[math.sin(c * t) / c if c else t] for t in times])
    with np.errstate(all="ignore"):
        w, den = 2.0 * (h * cos_ct - csq * s), h * s
        den += cos_ct
        w /= den
    return fs.row_max(np.abs(w.real))


def _label_bounds(h: np.ndarray, csq: float) -> np.ndarray:
    """B = 2 (c^2 + |h|^2) / |Im h| at each label: |w(t)| <= B for all t
    (see :func:`integrate`); inf where Im h = 0."""
    with np.errstate(all="ignore"):
        return 2.0 * (csq + (h.real * h.real + h.imag * h.imag)) / np.abs(h.imag)


def integrate(
    d: InitialData,
    cfg: IntegratorConfig,
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

    Where rho0 has no zero at the nodes, w stays bounded for all t.  With
    h = w0 / 2, f = cos ct + h sin(ct) / c, :func:`sphere.great_circle`
    with k = h / c at r = ct, and f_t = -c sin ct + h cos ct.
    Cauchy-Schwarz gives |f_t|^2 <= c^2 + |h|^2.  |f|^2 is the quadratic
    form of (cos ct, sin ct) with matrix [[1, Re h / c], [Re h / c,
    |h|^2 / c^2]], whose least eigenvalue is at least det / trace =
    (Im h)^2 / (c^2 + |h|^2).  So |Re w| <= |w| <= B = 2 (c^2 + |h|^2) /
    |Im h| at each label.  When c^2 > 0 and every B is finite and below
    half of min(ux_limit, 2 / dt), neither label test can trip, the factor
    2 absorbing the rounding of the evaluated w: the run is certified and
    never evaluates the label reading.

    rho's mean is conserved, so the zero-mean flow of (u0, rho0), the one
    that descends to projective space, is
    ``integrate(InitialData(u0, fs.mean_projection(rho0)), cfg)``.
    """
    n_steps, n = cfg.n_steps, d.grid.n
    dt = cfg.t_end / n_steps
    # f = cos(ct) + h sin(ct) / c, h = w0 / 2, c^2 = mean |h|^2; t at c = 0
    h, csq = 0.5 * (d.u0x.values + 1j * d.rho0.values), d._csq
    limit = 0.5 * min(ux_limit, 2.0 / dt)
    certified = csq > 0.0 and bool(fs.row_max(_label_bounds(h, csq)) < limit)
    block = max(1, 4096 // n)  # steps per label evaluation, <= 4,096 values
    stage, abs_ux = _Stage(d.grid, cfg.dealias), np.empty(n)
    Y = fs.rfft(np.stack([d.rho0.values, d.u0.values]))
    k1, k2, k3, k4 = ks = np.empty((4, *Y.shape), dtype=complex)
    en_t = np.arange(n_steps + 1) * dt
    en, means = np.empty((2, n_steps + 1))
    rec_t, rec_y = [], []

    def build(step: int) -> Trajectory:
        states = np.asarray(rec_y)
        return Trajectory(
            d.grid, np.asarray(rec_t), states[:, 0], states[:, 1],
            en_t[:step + 1], en[:step + 1], means[:step + 1], dt,
        )

    def halt(message: str, step: int) -> StepBlowupError:
        return StepBlowupError(message, trajectory=build(step), halt_time=step * dt)

    for step in range(n_steps + 1):
        t = step * dt
        stage(Y, k1)
        en[step] = 0.25 * (np.add.reduce(stage.q0) / n)
        means[step] = Y[0, 0].real / n
        if step % cfg.record_every == 0 or step == n_steps:
            rho, u = stage.rho_u
            rec_t.append(t)
            rec_y.append(np.stack([u - u[0], rho]))  # u(0) is 0.0, not roundoff
        if step == n_steps:
            return build(step)
        sup_ux = float(np.maximum.reduce(np.abs(stage.ux, out=abs_ux)))
        readings = [("grid sup|u_x|", sup_ux)]
        if not certified:
            if step % block == 0:
                sup_ws = _label_sups(h, csq, en_t[step:step + block].tolist())
            sup_w = float(sup_ws[step % block])
            readings.append(("label sup|Re w|", sup_w))
        for reading, value in readings:
            if value > ux_limit or not math.isfinite(value):
                message = f"{reading} = {value!r} exceeded {ux_limit!r} at t = {t!r}"
                raise halt(message, step)
        if not certified and 0.5 * dt * sup_w >= 1.0:
            pole = f"puts the Riccati pole within dt = {dt!r} of t = {t!r}"
            raise halt(f"label sup|Re w| = {sup_w!r} {pole}", step)
        for k, scale, out in ((k1, 0.5 * dt, k2), (k2, 0.5 * dt, k3), (k3, dt, k4)):
            stage(Y, out, k, scale)
        ks[1:3] *= 2.0
        for k in (k2, k3, k4):  # Y += (dt / 6) (((k1 + 2 k2) + 2 k3) + k4)
            k1 += k
        Y += np.multiply(k1, dt / 6.0, out=k1)
        Y[1, 0] = -2.0 * np.add.reduce(Y[1, 1:-1].real) - Y[1, -1].real  # u(0) = 0
        if not cmath.isfinite(np.add.reduce(Y, axis=None)) and not np.isfinite(Y).all():
            message = f"state became non-finite between t = {t!r} and t = "
            raise halt(message + repr((step + 1) * dt), step)


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
    zero components compare as zero rather than as 0/0 noise.  One state
    gives two floats; (S, n) stacks give one error per row, each row with
    its own scale and the bits of the one-state call on that row.
    """
    nu = np.sqrt(fs.row_mean(u_b.values**2))
    nr = np.sqrt(fs.row_mean(rho_b.values**2))
    scale = np.maximum(np.maximum(nu, nr), 1e-30)

    def rel(a, b, comp_norm):
        denom = np.where(comp_norm >= 1e-8 * scale, comp_norm, scale)
        return fs.per_row(np.sqrt(fs.row_mean((a - b) ** 2)) / denom)

    return (
        rel(u_a.values, u_b.values, nu),
        rel(rho_a.values, rho_b.values, nr),
    )
