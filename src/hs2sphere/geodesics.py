"""Exact solutions of the two-component Hunter-Saxton system.

Initial data (u0, rho0) at the identity determines the great circle

    f(t) = cos(ct) + (u0x + i rho0) sin(ct) / (2c),
    c^2 = (1/4) integral(u0x^2 + rho0^2),

on the unit sphere; pulling back through the group isometry yields the
flow (phi(t), alpha(t)) and the solution (u, rho) = (phi_t o phi^{-1},
alpha_t o phi^{-1}) in closed form.  The solution persists until f first
acquires a zero, which happens iff rho0 vanishes somewhere; at a root x*
of rho0 the first zero time solves cot(ct) = -u0x(x*) / (2c), so the
maximal time always satisfies T < pi / c when finite.

Two clocks are used throughout: physical time t and the unit-speed (arc
length) parameter s = c t.  Period and upper-bound statements (period
2 pi, T < pi) hold on the unit-speed clock; reports carry both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import funcspace as fs
from .errors import (
    AtIdentityOrAntipodeError,
    BeyondBlowupError,
    ZeroDataError,
)
from .funcspace import PeriodicFunction, PeriodicGrid
from .group import GroupElement, inverse, multiply, wrap_mod_4pi

BLOWUP_MARGIN = 1e-9
NODE_ZERO_TOL = 1e-12
TOUCH_ZERO_TOL = 1e-10
PHASE_TOL = 1e-8


class InitialData:
    """Initial state (u0, rho0): u0 real with u0(0) = 0, rho0 real."""

    __slots__ = ("u0", "rho0")

    def __init__(self, u0: PeriodicFunction, rho0: PeriodicFunction):
        if u0.is_complex or rho0.is_complex:
            raise ValueError("initial data must be real")
        if u0.grid != rho0.grid:
            raise ValueError("components live on different grids")
        if abs(u0.values[0]) > 1e-10:
            raise ValueError(f"u0 must vanish at 0, got {u0.values[0]!r}")
        if u0.max_abs() < 1e-14 and rho0.max_abs() < 1e-14:
            raise ZeroDataError("initial data is identically zero")
        self.u0 = u0
        self.rho0 = rho0

    @property
    def grid(self) -> PeriodicGrid:
        return self.u0.grid

    @classmethod
    def from_u0x(cls, grid, u0x_fn, rho0_fn) -> "InitialData":
        """Build data from callables for u0x and rho0; u0 integrates u0x."""
        w = PeriodicFunction.from_callable(grid, u0x_fn)
        u0 = fs.antiderivative_from_zero(fs.mean_projection(w))
        rho0 = PeriodicFunction.from_callable(grid, rho0_fn)
        return cls(u0, rho0)

    def __repr__(self):
        return f"InitialData(n={self.grid.n})"


@dataclass(frozen=True)
class BlowupReport:
    """Maximal existence time and the grid locations responsible for it.

    ``T`` is physical time (math.inf when the solution is global); each
    witness pairs a root x* of rho0 with the first time f(., x*) = 0.
    """

    finite: bool
    T: float
    witnesses: list = field(default_factory=list)
    speed: float = 0.0

    @property
    def T_unit_speed(self) -> float:
        return self.T * self.speed if self.finite else math.inf

    def to_json_obj(self) -> dict:
        return {
            "finite": self.finite,
            "T_physical": self.T if self.finite else None,
            "T_unit_speed": self.T_unit_speed if self.finite else None,
            "witnesses": [{"x": x, "t": t} for (x, t) in self.witnesses],
        }


def speed(d: InitialData) -> float:
    """Geodesic speed c with c^2 = (1/4) integral(u0x^2 + rho0^2)."""
    u0x = fs.derivative(d.u0).values
    csq = 0.25 * float(np.mean(u0x**2 + d.rho0.values**2))
    if csq < 1e-14:
        raise ZeroDataError("zero-energy data defines no geodesic")
    return math.sqrt(csq)


def _first_zero_time(u0x_at_root: float, c: float) -> float:
    """First t > 0 with cos(ct) + u0x sin(ct)/(2c) = 0.

    The root satisfies cot(ct) = -u0x/(2c) with ct in (0, pi); atan2(1, z)
    is the arccotangent on that branch.
    """
    return math.atan2(1.0, -u0x_at_root / (2.0 * c)) / c


def _rho_roots(rho0: PeriodicFunction) -> list[float]:
    """All zeros of the trigonometric interpolant of rho0 in [0, 1).

    Sign changes are bracketed and bisected; tangential zeros (touching
    without sign change) are found by minimizing rho0^2 near grid minima
    of |rho0| and accepted below the touch tolerance.
    """
    vals = rho0.values
    n = rho0.grid.n
    x = rho0.grid.x
    rho0_at = fs.interpolant(rho0)

    def interp(pt: float) -> float:
        return float(rho0_at(pt)[0])

    roots: list[float] = []

    def add_root(r: float) -> None:
        r = r % 1.0
        for existing in roots:
            if abs(r - existing) < 1e-9 or abs(abs(r - existing) - 1.0) < 1e-9:
                return
        roots.append(r)

    node_zero = np.abs(vals) < NODE_ZERO_TOL
    for j in np.nonzero(node_zero)[0]:
        add_root(x[j])

    nxt = np.roll(vals, -1)
    for j in np.nonzero((vals * nxt < 0.0))[0]:
        lo, hi = x[j], x[j] + 1.0 / n
        add_root(brentq(interp, lo, hi, xtol=1e-12))

    absv = np.abs(vals)
    local_min = (absv <= np.roll(absv, 1)) & (absv <= np.roll(absv, -1))
    for j in np.nonzero(local_min & ~node_zero)[0]:
        if absv[j] > 1e-3 * np.max(absv):
            continue
        lo, hi = x[j] - 1.0 / n, x[j] + 1.0 / n
        res = minimize_scalar(
            lambda p: interp(p) ** 2, bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-13},
        )
        if abs(interp(res.x)) < TOUCH_ZERO_TOL:
            add_root(res.x)

    return sorted(roots)


def blowup_time(d: InitialData) -> BlowupReport:
    """Maximal existence time: infinite iff rho0 is nowhere zero.

    When rho0 vanishes identically every point competes, and the minimum
    of the first-zero time over the circle is refined off-grid; otherwise
    each isolated root of rho0 contributes one witness.
    """
    c = speed(d)
    u0x = fs.derivative(d.u0)
    u0x_at = fs.interpolant(u0x)

    if d.rho0.max_abs() < NODE_ZERO_TOL:
        tstar = lambda p: _first_zero_time(float(u0x_at(p)[0]), c)
        times_on_grid = np.array([_first_zero_time(v, c) for v in u0x.values])
        j = int(np.argmin(times_on_grid))
        lo = d.grid.x[j] - 1.0 / d.grid.n
        hi = d.grid.x[j] + 1.0 / d.grid.n
        res = minimize_scalar(
            tstar, bounds=(lo, hi), method="bounded", options={"xatol": 1e-13}
        )
        xbest, tbest = float(res.x % 1.0), float(res.fun)
        if times_on_grid[j] < tbest:
            xbest, tbest = float(d.grid.x[j]), float(times_on_grid[j])
        return BlowupReport(True, tbest, [(xbest, tbest)], c)

    roots = _rho_roots(d.rho0)
    if not roots:
        return BlowupReport(False, math.inf, [], c)
    witnesses = [
        (r, _first_zero_time(float(v), c)) for r, v in zip(roots, u0x_at(roots))
    ]
    T = min(t for (_, t) in witnesses)
    return BlowupReport(True, T, witnesses, c)


@dataclass(frozen=True)
class ExistenceClass:
    """Outcome of the global/finite dichotomy with both clocks reported."""

    global_existence: bool
    T_physical: float
    T_unit_speed: float
    report: BlowupReport

    @property
    def label(self) -> str:
        return "global" if self.global_existence else "finite"


def classify_existence(d: InitialData) -> ExistenceClass:
    """Global iff rho0 is nowhere vanishing; finite T obeys T c < pi."""
    rep = blowup_time(d)
    return ExistenceClass(
        not rep.finite, rep.T, rep.T_unit_speed, rep
    )


def _sphere_path(d: InitialData, t: float, c: float):
    """Values of f(t, .) and f_t(t, .) on the grid."""
    u0x = fs.derivative(d.u0).values
    k = (u0x + 1j * d.rho0.values) / (2.0 * c)
    f = np.cos(c * t) + k * np.sin(c * t)
    ft = c * (-np.sin(c * t) + k * np.cos(c * t))
    return f, ft


def _check_time(d: InitialData, t: float) -> tuple[float, BlowupReport]:
    c = speed(d)
    rep = blowup_time(d)
    if rep.finite:
        if t < 0.0:
            raise ValueError(
                "negative times are not supported for finite-existence data"
            )
        if t >= rep.T - BLOWUP_MARGIN:
            raise BeyondBlowupError(
                f"t={t!r} is at or beyond the maximal time {rep.T!r}", rep
            )
    return c, rep


def exact_geodesic(d: InitialData, t: float) -> GroupElement:
    """Group flow at time t with the angle branch continuous in t and x.

    On each half period of ct the argument of f = (-1)^m (cos r + k sin r),
    r = ct - m pi, stays in a single atan2 branch (the sign of rho0 fixes
    the half plane), so the lift is m pi sign(rho0) plus the principal
    angle.  Before blow-up no branch cut is crossed.
    """
    c, _ = _check_time(d, t)
    return _geodesic(d, t, c)


def _geodesic(d: InitialData, t: float, c: float) -> GroupElement:
    """:func:`exact_geodesic` for a time already checked against blow-up."""
    grid = d.grid
    u0x = fs.derivative(d.u0).values
    u = u0x / (2.0 * c)
    v = d.rho0.values / (2.0 * c)

    ct = c * t
    m = math.floor(ct / math.pi)
    r = ct - m * math.pi
    A = np.cos(r) + u * np.sin(r)
    B = v * np.sin(r)

    theta = np.sign(v) * (m * math.pi) + np.arctan2(B, A)
    alpha = PeriodicFunction(grid, 2.0 * theta)
    phi = fs.antiderivative_from_zero(PeriodicFunction(grid, A * A + B * B))
    return GroupElement(phi, alpha, 0)


def exact_solution(
    d: InitialData, t: float
) -> tuple[PeriodicFunction, PeriodicFunction]:
    """Solution (u, rho) at time t.

    Computes w = 2 f_t / f on the grid, so that u_x + i rho = w o phi^{-1};
    the velocity is u = phi_t o phi^{-1} with phi_t integrated spectrally.
    """
    c, _ = _check_time(d, t)
    grid = d.grid
    f, ft = _sphere_path(d, t, c)
    w = 2.0 * ft / f

    phi = _geodesic(d, t, c).phi
    phi_inv = fs.invert_diffeo(phi)
    phi_t = fs.antiderivative_from_zero(
        PeriodicFunction(grid, 2.0 * (np.conj(f) * ft).real)
    )
    u = fs.compose(phi_t, phi_inv)
    rho = fs.compose(PeriodicFunction(grid, w.imag), phi_inv)
    return u, rho


def exact_state(d: InitialData, t: float) -> InitialData:
    """Solution at time t repackaged as initial data for restarts."""
    u, rho = exact_solution(d, t)
    return InitialData(u, rho)


# ---------------------------------------------------------------------------
# exponential / logarithm on the group
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogMapResult:
    """Preimages of a group element under the exponential map at (id, 0).

    kind 'empty': no geodesic reaches the target.
    kind 'single': exactly one, of length r0 < pi.
    kind 'family': lengths r0 + 2 pi n for every integer n >= 0 along the
    same unit direction; ``period`` carries the 2 pi spacing.
    """

    kind: str
    r0: float | None = None
    direction: InitialData | None = None
    period: float | None = None

    def principal_data(self) -> InitialData:
        """Initial data r0 * direction reaching the target at time 1."""
        if self.kind == "empty":
            raise ValueError("no geodesic exists for this target")
        return InitialData(
            self.direction.u0 * self.r0, self.direction.rho0 * self.r0
        )


def log_map(target: GroupElement, phase_tol: float = PHASE_TOL) -> LogMapResult:
    """Invert the exponential map at the identity.

    The target is unreachable iff exp(i alpha/2) = -1 somewhere; reachable
    by a unique short geodesic iff exp(i alpha/2) = 1 somewhere; otherwise
    a 2 pi periodic family of preimages shares one unit direction.
    """
    grid = target.grid
    ident = GroupElement.identity(grid)
    antipode = GroupElement(
        PeriodicFunction(grid, grid.x),
        PeriodicFunction.constant(grid, 2.0 * math.pi),
        0,
    )
    if target.distance(ident) < 1e-9 or target.distance(antipode) < 1e-9:
        raise AtIdentityOrAntipodeError(
            "log map at (id, 0) or (id, 2 pi): infinitely many directions"
        )

    alpha = target.alpha.values
    at_minus_one = np.abs(wrap_mod_4pi(alpha - 2.0 * math.pi)) < phase_tol
    if bool(np.any(at_minus_one)):
        return LogMapResult("empty")

    sqrt_phix = np.sqrt(target.phi_x.values)
    re_f = sqrt_phix * np.cos(0.5 * alpha)
    im_f = sqrt_phix * np.sin(0.5 * alpha)
    mu0 = float(np.mean(re_f))
    if 1.0 - mu0 * mu0 < 1e-14:
        raise AtIdentityOrAntipodeError("target is numerically at +-1")
    denom = math.sqrt(1.0 - mu0 * mu0)
    r0 = math.acos(mu0)

    u0 = fs.antiderivative_from_zero(
        PeriodicFunction(grid, 2.0 * (re_f - mu0) / denom)
    )
    rho0 = PeriodicFunction(grid, 2.0 * im_f / denom)
    direction = InitialData(u0, rho0)

    at_plus_one = np.abs(wrap_mod_4pi(alpha)) < phase_tol
    if bool(np.any(at_plus_one)):
        return LogMapResult("single", r0, direction, None)
    return LogMapResult("family", r0, direction, 2.0 * math.pi)


@dataclass(frozen=True)
class ConnectResult:
    """Classification of the geodesics joining two group elements."""

    kind: str
    log: LogMapResult | None = None


def connect(a: GroupElement, b: GroupElement, tol: float = 1e-9) -> ConnectResult:
    """Classify geodesics from a to b via right invariance.

    Reduces to the log map of a b^{-1}.  Outcomes: 'identical' (degenerate,
    a = b), 'antipodal_infinite' (b = a (id, 2 pi): infinitely many
    geodesics), 'none', 'unique_short', or 'periodic_family'.
    """
    if a.distance(b) < tol:
        return ConnectResult("identical")
    g = multiply(a, inverse(b))
    grid = g.grid
    antipode = GroupElement(
        PeriodicFunction(grid, grid.x),
        PeriodicFunction.constant(grid, 2.0 * math.pi),
        0,
    )
    if g.distance(antipode) < tol:
        return ConnectResult("antipodal_infinite")
    result = log_map(g)
    kinds = {"empty": "none", "single": "unique_short", "family": "periodic_family"}
    return ConnectResult(kinds[result.kind], result)
