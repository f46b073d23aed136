"""Exact solutions of the two-component Hunter-Saxton system.

Initial data (u0, rho0) is a tangent vector at the identity, and it
determines the great circle

    f(t) = cos(ct) + (u0x + i rho0) sin(ct) / (2c),
    c^2 = <(u0, rho0), (u0, rho0)> = (1/4) integral(u0x^2 + rho0^2),

on the unit sphere, its speed c the norm of the data in the metric at
the identity; pulling back through the group isometry yields the
flow (phi(t), alpha(t)) and the solution (u, rho) = (phi_t o phi^{-1},
alpha_t o phi^{-1}) in closed form.  The solution persists until f first
acquires a zero, which happens iff rho0 vanishes somewhere; at a root x*
of rho0 the first zero time solves cot(ct) = -u0x(x*) / (2c), so the
maximal time always satisfies T < pi / c when finite.  The circle's
closed forms, its first zero and the log at 1 live in :mod:`sphere`.

Two clocks are used throughout: physical time t and the unit-speed (arc
length) parameter s = c t.  Period and upper-bound statements (period
2 pi, T < pi) hold on the unit-speed clock; reports carry both.  The
exact flow itself is evaluated on the half-period clock r = ct - m pi.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import funcspace as fs
from . import geometry, sphere
from .errors import (
    AntipodalOrIdentityError,
    BeyondBlowupError,
    NonFiniteDataError,
    NotMonotoneError,
    ZeroDataError,
)
from .funcspace import PeriodicFunction, PeriodicGrid
from .group import GroupElement, TangentVector, inverse, multiply, wrap_mod_4pi

BLOWUP_MARGIN = 1e-9
NODE_ZERO_TOL = 1e-12
TOUCH_ZERO_TOL = 1e-10
# Relative slack on Bernstein's bounds (_bernstein) for the rfft's roundoff
SLOPE_SLACK = 1e-6
# Times _zeros bisects a grid cell before it reads the cell as tangential
DEPTH_CAP = 10
PHASE_TOL = 1e-8
# Grid points per block of a stacked exact_solution: max(1, STACK_POINTS // n)
# rows at a time.  The gathers' temporaries grow with the rows, and with them
# the heap's high-water mark; 1024 points raised solve's peak RSS by 3%.
STACK_POINTS = 512


class InitialData(TangentVector):
    """Initial state (u0, rho0) = (u1, u2): a tangent vector at the identity.

    It holds one vector, not a stack, and not zero.  ``u0x`` is the
    carried ``u1x``, computed here unless its producer passed it; the
    energy c^2 = <d, d> of the metric at the identity must be finite.
    The speed, the blow-up time and the great circle read them.  The
    :class:`BlowupReport` is computed on first request and kept.
    Arithmetic and every formula that builds ``type(u)`` return
    ``InitialData`` on initial data, so a zero result, such as ``d - d``,
    raises :class:`ZeroDataError`.
    """

    __slots__ = ("u0x", "_csq", "_blowup")
    u0, rho0 = TangentVector.u1, TangentVector.u2  # the slots under their names

    def __init__(self, u0: PeriodicFunction, rho0: PeriodicFunction, **carried):
        if u0.values.ndim != 1 or rho0.values.ndim != 1:
            shapes = u0.values.shape, rho0.values.shape
            raise ValueError(f"initial data holds one vector, got shapes {shapes}")
        if carried.get("_u1x") is None:
            carried["_u1x"] = fs.derivative(u0).values
        super().__init__(u0, rho0, **carried)
        if u0.max_abs() == 0.0 and rho0.max_abs() == 0.0:
            raise ZeroDataError("initial data is identically zero")
        self.u0x = PeriodicFunction._own(u0.grid, self._u1x)
        with np.errstate(over="ignore", invalid="ignore"):
            self._csq = geometry.metric(self, self)
        if not math.isfinite(self._csq):
            raise NonFiniteDataError(f"initial energy {self._csq!r} is not finite")
        self._blowup = None

    @classmethod
    def from_u0x(cls, grid, u0x_fn, rho0_fn) -> "InitialData":
        """Build data from callables for u0x and rho0; u0 integrates u0x."""
        w = PeriodicFunction.from_callable(grid, u0x_fn)
        u0 = fs.antiderivative_from_zero(fs.mean_projection(w))
        rho0 = PeriodicFunction.from_callable(grid, rho0_fn)
        return cls(u0, rho0)


@dataclass(frozen=True)
class BlowupReport:
    """The global/finite dichotomy: maximal existence time and witnesses.

    ``T`` is physical time (math.inf when the solution is global), also
    read as ``T_physical``; each witness pairs a root x* of rho0 with the
    first time f(., x*) = 0.  Reports are shared, so the witnesses are a
    tuple.
    """

    finite: bool
    T: float
    witnesses: tuple
    speed: float

    @property
    def global_existence(self) -> bool:
        return not self.finite

    @property
    def label(self) -> str:
        return "finite" if self.finite else "global"

    @property
    def T_physical(self) -> float:
        return self.T

    @property
    def T_unit_speed(self) -> float:
        return self.T * self.speed if self.finite else math.inf

    def reaches(self, t: float) -> bool:
        """Whether t is at or past T - BLOWUP_MARGIN: no solution there."""
        return self.finite and t >= self.T - BLOWUP_MARGIN

    def to_json_obj(self) -> dict:
        return {
            "finite": self.finite,
            "T_physical": self.T if self.finite else None,
            "T_unit_speed": self.T_unit_speed if self.finite else None,
            "witnesses": [{"x": x, "t": t} for (x, t) in self.witnesses],
        }


def speed(d: InitialData) -> float:
    """Geodesic speed c = |d|, c^2 = <d, d> = (1/4) integral(u0x^2 + rho0^2)."""
    csq = d._csq
    if csq == 0.0:
        raise ZeroDataError("zero-energy data defines no geodesic")
    return math.sqrt(csq)


def _bernstein(coef: np.ndarray, power: int) -> float:
    """Bernstein's bound on |p^(power)| from coef = |rfft(samples)|.

    The interpolant is p(x) = (1/n) (V_0 + 2 sum_{k=1}^{n/2-1}
    Re(V_k e^{2 pi i k x}) + V_{n/2} cos(pi n x)), its Nyquist mode split as
    cos(pi n x), as :class:`funcspace.Interpolant` has it, so
    |p^(power)| <= ((2 pi)^power / n) (2 sum_{k=1}^{n/2-1} k^power |V_k|
    + (n/2)^power |V_{n/2}|) everywhere.  The bound carries a relative
    slack of SLOPE_SLACK for the rfft's roundoff.
    """
    n = 2 * (coef.size - 1)
    weight = np.arange(0.0, n // 2 + 1) ** power * 2.0
    weight[-1] = (0.5 * n) ** power
    return (1.0 + SLOPE_SLACK) * ((2.0 * np.pi) ** power / n) * (weight @ coef)


def _clears_zero(values: np.ndarray, coef: np.ndarray) -> bool:
    """Whether Bernstein's inequality shows the interpolant has no zero.

    ``values`` are rho0's samples and ``coef`` = |rfft(values)|.  With
    M1 = :func:`_bernstein` (coef, 1) >= |p'| and every point within
    h/2 = 1/(2n) of a node, the check passes when min_j |rho0(x_j)|
    - M1 / (2n) exceeds TOUCH_ZERO_TOL max |rho0|: then |p| stays above
    that margin on every cell.  The rfft's roundoff moves M1 / (2n) by at
    most about pi sqrt(n/6) 5 log2(n) u max |rho0| (Higham's bound on the
    FFT's error, unit roundoff u), while a bound close enough to decide the
    test is at least max |rho0| / (2n): p varies by no more than M1 / 2
    over the circle, and a sign change between neighbouring nodes fails
    the test outright.  The ratio is below 5e-9 at n = 4096 and 4e-7 at
    n = 2^16, well inside SLOPE_SLACK.
    """
    v = np.abs(values)
    least, floor = fs.row_min(v), TOUCH_ZERO_TOL * fs.row_max(v)
    if least <= floor:
        return False  # a node at zero fails the test whatever M1 is
    return least - _bernstein(coef, 1) / (2 * v.size) > floor


def _open_cells(v, dv, h, m2, slack, top) -> np.ndarray:
    """Which cells between neighbouring points (last axis) stay open.

    v and dv hold rho0's interpolant p and p' at points h apart, m2 is
    Bernstein's M2 >= |p''| (:func:`_bernstein`) and top = max |rho0|.  A
    cell [a, b] settles when:

    * it is monotone: p'(a) p'(b) > 0 and |p'(a)| + |p'(b)| > h M2.  p' is
      M2-Lipschitz, so on the cell |p'| >= (|p'(a)| + |p'(b)| - h M2) / 2
      > 0 and p' keeps the sign of p'(a): at most one zero, a simple one;
    * or it is zero-free: both ends have the same nonzero sign, and the
      cell is monotone or clears the half-cell test at both ends,
      |p(a)| - |p'(a)| h/2 - M2 h^2/8 > TOUCH_ZERO_TOL top.  By Taylor's
      theorem that bounds |p| from below on the half cell next to a.

    A clear end also clears NODE_ZERO_TOL max |rho0|, so a cell whose ends
    change sign, or that ends at a zero node, must be monotone; it then
    holds exactly one simple root, or its zero node is its root.

    Roundoff: M1 and M2 carry SLOPE_SLACK (see :func:`_clears_zero`), and
    each slope is trusted only to within e = ``slack`` = SLOPE_SLACK M1,
    which widens both tests.  The error of a node slope, from two FFTs and
    a multiplier of size up to pi n, is at most about 10 pi log2(n) u n^1.5
    max |rho0| (unit roundoff u): 1.1e-8 max |rho0| at n = 4096.  If p has
    a zero, it climbs to max |p| and back within one period, so M1 >= 2 max
    |rho0| and e >= 2e-6 max |rho0|; e h/2 also exceeds the error of a read
    off the grid by orders of magnitude.  If p has no zero, no two points
    differ in sign and no verdict can add a root.
    """
    monotone = (dv[..., :-1] * dv[..., 1:] > 0.0) & (
        np.abs(dv[..., :-1] + dv[..., 1:]) > h * m2 + 2.0 * slack
    )
    clear = np.abs(v) - (0.5 * h) * np.abs(dv) > (
        m2 * (0.125 * h * h) + slack * (0.5 * h) + TOUCH_ZERO_TOL * top
    )
    zero_free = (v[..., :-1] * v[..., 1:] > 0.0) & clear[..., :-1] & clear[..., 1:]
    return ~(monotone | zero_free)


def _zeros(f: PeriodicFunction, order: int = 0) -> list[float]:
    """All zeros in [0, 1) of the trigonometric interpolant p of v, the
    samples of f differentiated ``order`` times by ``fs.derivative``.  For
    order 1, p is f's interpolant's derivative when f has no Nyquist mode.

    No zero when :func:`_clears_zero` certifies the samples from one rfft.
    Otherwise one table holds the points: rows x, p, p' and the zero
    tolerance, columns in circle order and closed by node 0 again at x = 1,
    so cell i spans columns i and i + 1.  Level 0 judges the grid cells by
    the rules of :func:`_open_cells` (where they are derived); each further
    level, up to DEPTH_CAP, puts the midpoints of the open cells, with p
    and p', after their left ends and judges the two halves.  The zeros are:

    * the nodes below NODE_ZERO_TOL max |v|.  A midpoint never counts:
      near a double root its value falls that low about 1e-6 away;
    * one simple root per sign change between neighbouring points, with
      their cell as the bracket: one :meth:`funcspace.Interpolant.roots` call;
    * the extrema below TOUCH_ZERO_TOL max |v|, each standing for a zero
      node next to it.  p' = 0 is solved, by a second such call, only on the
      runs of adjacent cells still open at the cap, their inner midpoints
      dropped, and only they prepare p''.  An extremum goes in after the
      points below it.
    """
    for _ in range(order):
        f = fs.derivative(f)
    values, x = f.values, f.grid.x
    coef = fs.rfft(values)
    size = np.abs(coef)
    if _clears_zero(values, size):
        return []
    d = fs.irfft(coef * f.grid.spectral.deriv, x.size)
    h, top = 1.0 / x.size, fs.row_max(np.abs(values))
    bounds = _bernstein(size, 2), SLOPE_SLACK * _bernstein(size, 1), top
    p = fs.Interpolant(f, 1, coef)
    table = np.empty((4, x.size + 1))
    table[:3, :-1] = x, values, d
    table[:3, -1] = 1.0, values[0], d[0]  # node 0 again closes the circle
    table[3] = NODE_ZERO_TOL
    is_open = _open_cells(table[1], table[2], h, *bounds)
    for _ in range(DEPTH_CAP):
        j = np.nonzero(is_open)[0]
        if j.size == 0:
            break
        mid = 0.5 * (table[0, j] + table[0, j + 1])
        # each open cell's left end is repeated; its copy becomes the midpoint
        at = j + np.arange(1, j.size + 1)
        source = np.repeat(np.arange(table.shape[1]), np.append(is_open, False) + 1)
        table = table.take(source, axis=1)
        table[:, at] = np.vstack([mid, fs._gather(p.fine, mid), np.zeros(mid.size)])
        h *= 0.5  # each split cell's two halves: left end, midpoint, right end
        halves = _open_cells(*table[1:3, at[:, None] + (-1, 0, 1)], h, *bounds)
        is_open = np.repeat(is_open, is_open + 1)  # an open cell splits in two
        is_open[is_open] = halves.ravel()
    if fs.any_row(is_open):  # only cells open at the cap prepare p''
        drop = np.nonzero(is_open[:-1] & is_open[1:] & (table[3, 1:-1] == 0.0))[0] + 1
        table, runs = np.delete(table, drop, axis=1), np.delete(is_open, drop)
        q = fs.Interpolant(f, 2, coef)
        ext = q.roots(table[0], table[2], np.sign(table[2]), 1, runs)
        at = np.searchsorted(table[0, :-1], ext, side="right")
        zeros = np.zeros(ext.size)
        table = np.insert(table, at, [ext, q(ext), zeros, zeros + TOUCH_ZERO_TOL], axis=1)
    points, vals, _, tol = table
    zero = np.abs(vals) < tol * top
    simple = p.roots(points, vals, np.where(zero, 0.0, np.sign(vals)))
    touch = zero & (tol == TOUCH_ZERO_TOL)
    zero[1:-1] &= ~(touch[:-2] | touch[2:])
    zero[0] &= ~(touch[-2] | touch[1])  # node 0 also neighbours the last point
    return _distinct_roots(np.concatenate([points[:-1][zero[:-1]], simple]))


def _distinct_roots(r: np.ndarray) -> list[float]:
    """The roots r mod 1, ascending, without near repeats on the circle.

    A root within 1e-9 of its sorted predecessor is dropped, and so is the
    last root kept when it lies within 1e-9 of the first root + 1.
    """
    r = np.sort(np.mod(r, 1.0)).tolist()
    kept = [x for x, prev in zip(r, [-1.0] + r) if x - prev >= 1e-9]
    if len(kept) > 1 and kept[0] + 1.0 - kept[-1] < 1e-9:
        kept.pop()
    return kept


def blowup_time(d: InitialData) -> BlowupReport:
    """Maximal existence time: infinite iff rho0 is nowhere zero.

    Each zero of rho0, certified cell by cell (:func:`_zeros`), gives
    one witness.  When rho0 vanishes identically, max |rho0| below
    NODE_ZERO_TOL (max |u0x| + max |rho0|), every point competes and the
    first-zero time increases with u0x: the witness is u0x's least value
    over the zeros of u0x' from the same search, exact as u0x has no
    Nyquist mode.  u0x has mean zero and is not zero, so u0x' has zeros.
    The report is computed once per :class:`InitialData`.
    """
    if d._blowup is None:
        d._blowup = _blowup_report(d)
    return d._blowup


def _blowup_report(d: InitialData) -> BlowupReport:
    """:func:`blowup_time`'s report, from one search: the zeros of rho0,
    ``_zeros(d.rho0)``, or when rho0 is flat those of u0x', ``_zeros(d.u0x, 1)``."""
    c = speed(d)
    rho_max = d.rho0.max_abs()
    flat = rho_max < NODE_ZERO_TOL * (d.u0x.max_abs() + rho_max)
    roots = _zeros(d.u0x, 1) if flat else _zeros(d.rho0)
    if not roots:
        return BlowupReport(False, math.inf, (), c)
    witnesses = tuple(
        (r, sphere.first_zero(float(v) / (2.0 * c)) / c)
        for r, v in zip(roots, fs.trig_interpolate(d.u0x, roots))
    )
    if flat:  # every point competes: keep the critical point of least time
        witnesses = (min(witnesses, key=lambda w: w[1]),)
    T = min(t for (_, t) in witnesses)
    return BlowupReport(True, T, witnesses, c)


def classify_existence(d: InitialData) -> BlowupReport:
    """Global iff rho0 is nowhere vanishing; finite T obeys T c < pi.

    The report is :func:`blowup_time`'s, the same object.
    """
    return blowup_time(d)


def _admitted(d: InitialData, t: float) -> BlowupReport:
    """The report of d, once t passes: for finite data, refuses negative t
    and every t that the report :meth:`~BlowupReport.reaches`
    (:class:`BeyondBlowupError`); then refuses a t that is not finite."""
    rep = blowup_time(d)
    if rep.finite and t < 0.0:
        raise ValueError(
            "negative times are not supported for finite-existence data"
        )
    if rep.reaches(t):
        raise BeyondBlowupError(f"t={t!r} is at or beyond the maximal time {rep.T!r}")
    if not math.isfinite(t):
        raise ValueError(f"t={t!r} is not finite")
    return rep


def _great_circle(d: InitialData, c: float, t):
    """The great circle at time t on the half-period clock, c the speed.

    With ct = m pi + r, r in [0, pi), f = (-1)^m g, where g is
    :func:`sphere.great_circle` with k = (u0x + i rho0) / (2c) at r and g_t
    is c times its velocity.  Returns m, the grid values of g and g_t, and
    phi = integral of |g|^2 from 0.  The sign cancels from 2 f_t / f,
    |f|^2 and Re(conj(f) f_t).
    t is a float, or an (S, 1) array of times for stacks of S rows, each
    row with the bits of its own time's call; np.floor serves both.
    """
    k = d.u0x.values / (2.0 * c) + 1j * (d.rho0.values / (2.0 * c))
    ct = c * t
    m = np.floor(ct / math.pi)
    g, v = sphere.great_circle(k, ct - m * math.pi)
    phi = fs.antiderivative_from_zero(
        PeriodicFunction._own(d.grid, g.real**2 + g.imag**2)
    )
    return m, g, c * v, phi


@contextmanager
def _near_blowup(d: InitialData, t: float):
    """Re-raise a :class:`NotMonotoneError` of finite data with t and T.

    Within about 1e-6 of T, but before T - BLOWUP_MARGIN, phi_x = |f|^2
    falls to roundoff at the blow-up point, and the flow is no longer a
    diffeomorphism in floating point.
    """
    try:
        yield
    except NotMonotoneError as exc:
        rep = blowup_time(d)
        if not rep.finite:
            raise
        raise NotMonotoneError(
            f"t={t!r} is {rep.T - t!r} before the maximal time T={rep.T!r},"
            f" too close to evaluate: {exc}"
        ) from exc


def exact_geodesic(d: InitialData, t: float) -> GroupElement:
    """Group flow (phi, alpha) at time t, alpha continuous in t and x.

    On the half-period clock f = (-1)^m g, and Im g has the sign of rho0
    for r in (0, pi), so arg g stays in one atan2 branch and the lift is
    alpha / 2 = m pi sign(rho0) + arg g.  Before blow-up no branch cut is
    crossed.
    """
    m, g, _, phi = _great_circle(d, _admitted(d, t).speed, t)
    theta = np.sign(d.rho0.values) * (m * math.pi) + np.arctan2(g.imag, g.real)
    with _near_blowup(d, t):
        return GroupElement(phi, PeriodicFunction._own(d.grid, 2.0 * theta), 0)


def exact_solution(
    d: InitialData, t: float | np.ndarray
) -> tuple[PeriodicFunction, PeriodicFunction]:
    """Solution (u, rho) at time t, or stacks of them at a 1-D array of times.

    On the half-period clock f = (-1)^m g, and the sign drops out of
    w = 2 g_t / g = (u_x + i rho) o phi.  phi_t integrates 2 Re(conj(g) g_t),
    so u + i rho = (phi_t + i Im w) o phi^{-1}, one composition.  Too
    close to T for phi to invert, the :class:`NotMonotoneError` names t and
    T.

    A single t is an array of one time, whose u and rho are one function
    each.  For S times, u and rho are (S, n) stacks whose row i is bit for
    bit ``exact_solution(d, t[i])``.  Every time is checked first, in
    order, by :func:`_admitted`.  The times are evaluated in blocks of at
    most max(1, STACK_POINTS // n), so that the memory a call takes beyond
    its output does not grow with S.  A block of one time takes the
    unstacked great circle, cheaper than a one-row stack; a larger block
    whose flow does not invert is replayed one time at a time.
    """
    if np.ndim(t) > 1:
        raise ValueError(f"times must be one-dimensional, got shape {np.shape(t)}")
    times = np.asarray(t, dtype=float).ravel().tolist()
    for ti in times:
        _admitted(d, ti)
    c, grid, rows = speed(d), d.grid, max(1, STACK_POINTS // d.grid.n)

    def one(ti: float) -> np.ndarray:
        with _near_blowup(d, ti):
            return _solution_values(d, *_great_circle(d, c, ti)[1:])

    u, rho = np.empty((2, len(times), grid.n))
    for i in range(0, len(times), rows):
        block = times[i : i + rows]
        if len(block) == 1:
            w = one(block[0])
        else:
            at = np.array(block)[:, None]
            try:
                w = _solution_values(d, *_great_circle(d, c, at)[1:])
            except NotMonotoneError:
                for ti in block:  # raises with the first time too close to T
                    one(ti)
                raise
        u[i : i + rows], rho[i : i + rows] = w.real, w.imag
    if np.ndim(t) == 0:
        u, rho = u[0], rho[0]
    return PeriodicFunction._own(grid, u), PeriodicFunction._own(grid, rho)


def _solution_values(d: InitialData, g, gt, phi) -> np.ndarray:
    """u + i rho = (phi_t + i Im(2 g_t / g)) o phi^{-1} from the great circle."""
    phi_t = fs.antiderivative_from_zero(
        PeriodicFunction._own(d.grid, 2.0 * (np.conj(g) * gt).real)
    )
    field = PeriodicFunction._own(d.grid, phi_t.values + 1j * (2.0 * gt / g).imag)
    return fs.compose(field, fs.invert_diffeo(phi)).values


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
        return self.direction * self.r0


def _antipode(grid: PeriodicGrid) -> GroupElement:
    """(id, 2 pi): the point of the group farthest from the identity."""
    return GroupElement(
        PeriodicFunction(grid, grid.x),
        PeriodicFunction.constant(grid, 2.0 * math.pi),
        0,
    )


def log_map(target: GroupElement) -> LogMapResult:
    """Invert the exponential map at the identity.

    The target is unreachable iff exp(i alpha/2) = -1 somewhere, as it is
    between nodes when alpha winds (a winding w != 0 turns exp(i alpha/2)
    w times round the circle); reachable by a unique short geodesic iff
    exp(i alpha/2) = 1 somewhere; otherwise a 2 pi periodic family of
    preimages shares one unit direction.
    """
    grid = target.grid
    ident = GroupElement.identity(grid)
    if target.distance(ident) < 1e-9 or target.distance(_antipode(grid)) < 1e-9:
        raise AntipodalOrIdentityError(
            "log map at (id, 0) or (id, 2 pi): infinitely many directions"
        )

    alpha = target.alpha.values
    at_minus_one = np.abs(wrap_mod_4pi(alpha - 2.0 * math.pi)) < PHASE_TOL
    if fs.any_row(target.winding != 0) or fs.any_row(at_minus_one):
        return LogMapResult("empty")

    sqrt_phix = np.sqrt(target.phi_x.values)
    r0, x_re, x_im = sphere.log_at_one_parts(
        sqrt_phix * np.cos(0.5 * alpha), sqrt_phix * np.sin(0.5 * alpha)
    )
    u0 = fs.antiderivative_from_zero(PeriodicFunction._own(grid, 2.0 * x_re))
    direction = InitialData(u0, PeriodicFunction._own(grid, 2.0 * x_im))

    at_plus_one = np.abs(wrap_mod_4pi(alpha)) < PHASE_TOL
    if fs.any_row(at_plus_one):
        return LogMapResult("single", r0, direction, None)
    return LogMapResult("family", r0, direction, 2.0 * math.pi)


@dataclass(frozen=True)
class ConnectResult:
    """Classification of the geodesics joining two group elements."""

    kind: str
    log: LogMapResult | None = None


def connect(a: GroupElement, b: GroupElement) -> ConnectResult:
    """Classify geodesics from a to b via right invariance.

    Reduces to the log map of a b^{-1}.  Outcomes: 'identical' (degenerate,
    a = b), 'antipodal_infinite' (b = a (id, 2 pi): infinitely many
    geodesics), 'none', 'unique_short', or 'periodic_family'.
    """
    if a.distance(b) < 1e-9:
        return ConnectResult("identical")
    g = multiply(a, inverse(b))
    if g.distance(_antipode(g.grid)) < 1e-9:
        return ConnectResult("antipodal_infinite")
    result = log_map(g)
    kinds = {"empty": "none", "single": "unique_short", "family": "periodic_family"}
    return ConnectResult(kinds[result.kind], result)


def __getattr__(name: str):
    # Only the frozen perfbench/tracer.py reads ``brentq`` and
    # ``minimize_scalar``: it rebinds them to count root-solver calls, and
    # tests/test_bench_contract.py checks that it can.  Importing scipy
    # here, on first read, keeps it out of the runtime.
    if name in ("brentq", "minimize_scalar"):
        import scipy.optimize

        return getattr(scipy.optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
