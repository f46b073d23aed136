import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hs2sphere.funcspace as fs
import hs2sphere.geodesics as geo
import hs2sphere.geometry as gm
import hs2sphere.randfields as rf
from hs2sphere.errors import (
    AntipodalOrIdentityError,
    BeyondBlowupError,
    NonFiniteDataError,
    NotMonotoneError,
    ZeroDataError,
)
from hs2sphere.funcspace import PeriodicFunction, PeriodicGrid
from hs2sphere.geodesics import (
    NODE_ZERO_TOL,
    InitialData,
    _rho_roots,
    blowup_time,
    classify_existence,
    connect,
    exact_geodesic,
    exact_solution,
    log_map,
    speed,
)
from hs2sphere.group import GroupElement, TangentVector, multiply
from hs2sphere.presets import PRESET_NAMES, make_preset

from oracles import (
    companion_zeros,
    dense_trig_interpolate,
    distinct_roots_loop,
    first_zero_time_scan,
    scalar_first_zero,
    scalar_rho_roots,
    sphere_path_values,
)

TWO_PI = 2.0 * np.pi


def stationary(grid):
    return InitialData(
        PeriodicFunction.zeros(grid), PeriodicFunction.constant(grid, 2.0)
    )


def smooth_global(grid):
    return InitialData.from_u0x(
        grid, lambda x: np.sin(TWO_PI * x), lambda x: 1.5 + np.cos(TWO_PI * x)
    )


def hs_blowup(grid):
    return InitialData.from_u0x(
        grid, lambda x: np.cos(TWO_PI * x), lambda x: np.zeros_like(x)
    )


# -- speed ------------------------------------------------------------------


def test_speed_values(grid):
    assert speed(stationary(grid)) == pytest.approx(1.0, abs=1e-14)
    d = InitialData.from_u0x(grid, lambda x: np.sin(TWO_PI * x), lambda x: 0.0 * x)
    assert speed(d) ** 2 == pytest.approx(0.125, abs=1e-14)
    assert speed(smooth_global(grid)) ** 2 == pytest.approx(0.8125, abs=1e-13)


def test_speed_rejects_zero_data(grid):
    with pytest.raises(ZeroDataError):
        InitialData(PeriodicFunction.zeros(grid), PeriodicFunction.zeros(grid))


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("make", [smooth_global, hs_blowup])
def test_initial_data_rejects_non_finite_energy(n, make):
    # finite samples whose energy c^2 overflows, and a NaN sample
    d = make(PeriodicGrid(n))
    nan = d.rho0.values.copy()
    nan[n // 3] = np.nan
    cases = [(d.u0 * 1e154, d.rho0 * 1e154), (d.u0, PeriodicFunction(d.grid, nan))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u0, rho0 in cases:
            with pytest.raises(NonFiniteDataError):
                InitialData(u0, rho0)


# -- initial data is a tangent vector at the identity -------------------------


def _drawn_data(n):
    """The three presets and six random draws on n nodes."""
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(n)
    draws = [
        rf.initial_data(grid, rng, global_existence=kind)
        for kind in (True, False, None) * 2
    ]
    return [make_preset(name, grid) for name in PRESET_NAMES] + draws


@pytest.mark.parametrize("n", [8, 64, 256, 4096])
def test_energy_is_the_metric_at_the_identity(n):
    for d in _drawn_data(n):
        assert isinstance(d, TangentVector)
        assert d.u0 is d.u1 and d.rho0 is d.u2
        # the metric gives the energy's former formula bit for bit
        spelled = 0.25 * fs.row_mean(d.u0x.values**2 + d.rho0.values**2)
        assert gm.metric(d, d) == d._csq == spelled
        assert gm.norm(d) == speed(d)


def test_u0x_is_carried_as_u1x(grid, monkeypatch):
    d = smooth_global(grid)
    calls = []
    rfft = fs.rfft

    def counting_rfft(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(fs, "rfft", counting_rfft)
    assert d.u1x is d.u0x.values
    assert calls == []
    d.u2x  # the spy sees a transform that runs
    assert len(calls) == 1


def test_arithmetic_keeps_initial_data(grid):
    d = smooth_global(grid)
    csq = speed(d) ** 2
    for s in (0.3, -2.5):
        for scaled in (d * s, s * d):
            assert type(scaled) is InitialData
            assert scaled._csq == pytest.approx(s * s * csq, rel=1e-14)
    twice = d + d
    assert type(twice) is InitialData and type(-d) is InitialData
    assert twice._csq == 4.0 * csq  # doubling is exact in floating point
    assert blowup_time(twice) is not blowup_time(d)
    with pytest.raises(ZeroDataError):
        d - d


def test_principal_data_scales_the_direction():
    grid = PeriodicGrid(64)
    rng = np.random.default_rng(39)
    reached = 0
    for _ in range(20):
        res = log_map(rf.group_element(grid, rng))
        if res.kind == "empty":
            continue
        reached += 1
        got = res.principal_data()
        assert type(got) is InitialData
        rebuilt = InitialData(res.direction.u0 * res.r0, res.direction.rho0 * res.r0)
        for want in (rebuilt, res.direction * res.r0):
            for a, b in ((got.u0, want.u0), (got.rho0, want.rho0), (got.u0x, want.u0x)):
                assert a.values.tobytes() == b.values.tobytes()
            assert got._csq == want._csq
    assert reached > 10


def test_initial_data_refuses_a_stack(grid):
    d = smooth_global(grid)
    u0 = PeriodicFunction(grid, np.stack([d.u0.values] * 3))
    rho0 = PeriodicFunction(grid, np.stack([d.rho0.values] * 3))
    with pytest.raises(ValueError, match=r"one vector.*\(3, 256\)"):
        InitialData(u0, rho0)
    with pytest.raises(ValueError, match=r"\(3, 256\)"):
        InitialData(d.u0, rho0)


# -- exact flow --------------------------------------------------------------


def test_exact_geodesic_at_zero(grid):
    d = smooth_global(grid)
    e = exact_geodesic(d, 0.0)
    assert e.distance(GroupElement.identity(grid)) < 1e-14


def test_stationary_flow(grid):
    d = stationary(grid)
    for t in (0.4, 1.7, 9.0):
        e = exact_geodesic(d, t)
        assert np.max(np.abs(e.phi.values - grid.x)) < 1e-13
        assert np.max(np.abs(e.alpha.values - 2.0 * t)) < 1e-12
        u, rho = exact_solution(d, t)
        assert u.max_abs() < 1e-13
        assert np.max(np.abs(rho.values - 2.0)) < 1e-12


def test_exact_geodesic_time_derivative(grid):
    d = smooth_global(grid)
    t, h = 0.6, 1e-5
    plus = exact_geodesic(d, t + h)
    minus = exact_geodesic(d, t - h)
    fd = (plus.phi.values - minus.phi.values) / (2.0 * h)
    c = speed(d)
    f, ft = (
        sphere_path_values(fs.derivative(d.u0).values, d.rho0.values, c, t),
        None,
    )
    k = (fs.derivative(d.u0).values + 1j * d.rho0.values) / (2.0 * c)
    ft = c * (-np.sin(c * t) + k * np.cos(c * t))
    phi_t = fs.antiderivative_from_zero(
        PeriodicFunction(grid, 2.0 * (np.conj(f) * ft).real)
    )
    assert np.max(np.abs(fd - phi_t.values)) < 1e-7  # O(h^2) central difference


def test_exact_velocity_matches_group_flow(grid):
    # u o phi = phi_t and rho o phi = alpha_t.  pi/c and 2 pi/c sit on
    # half-period boundaries, where a wrong branch index jumps alpha by 2 pi.
    d = smooth_global(grid)
    c = speed(d)
    h = 1e-5
    for t in (0.6, math.pi / c, TWO_PI / c):
        plus = exact_geodesic(d, t + h)
        minus = exact_geodesic(d, t - h)
        phi = exact_geodesic(d, t).phi
        u, rho = exact_solution(d, t)
        phi_t = (plus.phi.values - minus.phi.values) / (2.0 * h)
        alpha_t = (plus.alpha.values - minus.alpha.values) / (2.0 * h)
        assert np.max(np.abs(fs.compose(u, phi).values - phi_t)) < 1e-7
        assert np.max(np.abs(fs.compose(rho, phi).values - alpha_t)) < 1e-7


def test_exact_solution_initial_state(grid):
    d = smooth_global(grid)
    u, rho = exact_solution(d, 0.0)
    assert np.max(np.abs(u.values - d.u0.values)) < 1e-13
    assert np.max(np.abs(rho.values - d.rho0.values)) < 1e-13


def test_exact_solution_ux_consistency(grid):
    d = smooth_global(grid)
    c = speed(d)
    t = 0.5
    u, rho = exact_solution(d, t)
    f = sphere_path_values(fs.derivative(d.u0).values, d.rho0.values, c, t)
    k = (fs.derivative(d.u0).values + 1j * d.rho0.values) / (2.0 * c)
    ft = c * (-np.sin(c * t) + k * np.cos(c * t))
    w = 2.0 * ft / f
    phi_inv = fs.invert_diffeo(exact_geodesic(d, t).phi)
    re_w = fs.compose(PeriodicFunction(grid, w.real), phi_inv)
    assert np.max(np.abs(fs.derivative(u).values - re_w.values)) < 1e-8


def test_integrated_form_residual(grid):
    # u_tx = -u u_xx - u_x^2/2 + rho^2/2 - 2 c^2 pointwise along the flow
    d = smooth_global(grid)
    c = speed(d)
    t, h = 0.35, 1e-5
    up, _ = exact_solution(d, t + h)
    um, _ = exact_solution(d, t - h)
    u, rho = exact_solution(d, t)
    u_tx = fs.derivative(
        PeriodicFunction(grid, (up.values - um.values) / (2.0 * h))
    ).values
    ux = fs.derivative(u).values
    uxx = fs.derivative(fs.derivative(u)).values
    rhs = (
        -u.values * uxx - 0.5 * ux**2 + 0.5 * rho.values**2 - 2.0 * c**2
    )
    assert np.max(np.abs(u_tx - rhs)) < 1e-6


def test_conservation_along_flow(grid):
    # conservation at the stated tolerances needs a well-resolved state;
    # for this data the composed solution stays fully resolved up to t ~ 1
    d = smooth_global(grid)
    c0 = speed(d)
    mean0 = fs.row_mean(d.rho0.values)
    for t in (0.3, 0.7, 1.0):
        state = InitialData(*exact_solution(d, t))
        assert abs(speed(state) - c0) < 1e-9
        assert abs(fs.row_mean(state.rho0.values) - mean0) < 1e-10


def test_time_periodicity_unit_speed(grid):
    d = smooth_global(grid)
    c = speed(d)
    for s in (0.2, 2.0, 4.9):
        a = exact_geodesic(d, s / c)
        b = exact_geodesic(d, (s + TWO_PI) / c)
        assert a.distance(b) < 1e-9
        ua, ra = exact_solution(d, s / c)
        ub, rb = exact_solution(d, (s + TWO_PI) / c)
        assert np.max(np.abs(ua.values - ub.values)) < 1e-9
        assert np.max(np.abs(ra.values - rb.values)) < 1e-9


# -- blow-up -----------------------------------------------------------------


def test_global_iff_rho_nonvanishing(grid):
    rep = blowup_time(stationary(grid))
    assert not rep.finite and rep.T == math.inf
    rep2 = blowup_time(smooth_global(grid))
    assert not rep2.finite
    d3 = InitialData.from_u0x(
        grid, lambda x: np.sin(TWO_PI * x), lambda x: np.cos(TWO_PI * x)
    )
    assert blowup_time(d3).finite


def test_blowup_pure_rotation_quarter_period(grid):
    # rho0 with zeros where u0x also vanishes: first zero at ct = pi/2
    d = InitialData.from_u0x(
        grid, lambda x: np.zeros_like(x), lambda x: np.sin(TWO_PI * x)
    )
    rep = blowup_time(d)
    c = speed(d)
    assert rep.finite
    assert rep.T == pytest.approx(np.pi / (2.0 * c), rel=1e-10)


def test_blowup_hs_case_analytic_value(grid):
    rep = blowup_time(hs_blowup(grid))
    c = 1.0 / (2.0 * math.sqrt(2.0))
    expected = math.atan2(1.0, math.sqrt(2.0)) / c
    assert rep.finite
    assert abs(rep.T - expected) < 1e-12
    assert abs(rep.witnesses[0][0] - 0.5) < 1e-9
    assert rep.T_unit_speed < math.pi


def test_blowup_matches_dense_scan_oracle(grid):
    cases = [
        hs_blowup(grid),
        InitialData.from_u0x(
            grid, lambda x: np.sin(TWO_PI * x), lambda x: np.cos(TWO_PI * x)
        ),
        InitialData.from_u0x(
            grid,
            lambda x: 0.8 * np.cos(TWO_PI * x) + 0.1 * np.sin(2 * TWO_PI * x),
            lambda x: np.sin(2 * TWO_PI * x),
        ),
    ]
    for d in cases:
        rep = blowup_time(d)
        assert rep.finite
        c = speed(d)
        oracle_T = first_zero_time_scan(
            fs.derivative(d.u0).values, d.rho0.values, c, np.pi / c
        )
        assert oracle_T is not None
        assert abs(rep.T - oracle_T) < 1e-8


def test_blowup_tangential_zero_witness(grid):
    # rho0 touches zero quadratically at an off-node point
    delta = 0.3 / grid.n
    d = InitialData.from_u0x(
        grid,
        lambda x: np.sin(TWO_PI * x),
        lambda x: 1.0 - np.cos(TWO_PI * (x - delta)),
    )
    rep = blowup_time(d)
    assert rep.finite
    assert min(abs(x - delta) for (x, _) in rep.witnesses) < 1e-6


def test_zero_node_next_to_a_touch_is_that_touch(grid):
    # rho0 touches zero 1e-7 past node 0, where it is 1e-13 max |rho0|: the
    # node is a zero by NODE_ZERO_TOL, and the touch stands for it
    delta = 1e-7
    d = InitialData.from_u0x(
        grid,
        lambda x: np.sin(TWO_PI * x),
        lambda x: 1.0 - np.cos(TWO_PI * (x - delta)),
    )
    assert 0.0 < d.rho0.values[0] < NODE_ZERO_TOL * d.rho0.max_abs()
    rep = blowup_time(d)
    assert [x for (x, _) in rep.witnesses] == pytest.approx([delta], abs=1e-12)


def test_blowup_two_roots_in_one_cell(grid):
    # rho0 dips through zero between two nodes of one sign
    r1, r2 = 100.3 / grid.n, 100.7 / grid.n
    d = InitialData.from_u0x(
        grid,
        lambda x: np.sin(TWO_PI * x),
        lambda x: np.sin(np.pi * (x - r1)) * np.sin(np.pi * (x - r2)),
    )
    assert np.all(d.rho0.values > 0.0)
    rep = blowup_time(d)
    assert [x for (x, _) in rep.witnesses] == pytest.approx([r1, r2], abs=1e-12)


def _dirichlet(n, x):
    """The Dirichlet kernel of degree n/2 - 1 at x, normalised to 1 at 0."""
    k = np.arange(1, n // 2)
    return (1.0 + 2.0 * np.cos(TWO_PI * np.outer(x, k)).sum(axis=1)) / (n - 1)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_blowup_dip_below_zero_between_nodes(n):
    # every node of rho0 is above 0.22, but its interpolant dips to -0.1
    # midway between the first two nodes; no cell rule settles that cell at
    # the nodes, and its halves hold the two roots
    grid = PeriodicGrid(n)
    d = InitialData.from_u0x(
        grid,
        lambda x: np.sin(TWO_PI * x),
        lambda x: 0.9 - _dirichlet(n, x - 0.5 / n),
    )
    assert np.min(d.rho0.values) > 0.2
    rep = classify_existence(d)
    assert rep.label == "finite"
    assert len(rep.witnesses) == 2
    for x, _ in rep.witnesses:
        assert abs(dense_trig_interpolate(d.rho0.values, x)[0]) < 1e-12


@pytest.mark.parametrize("n, T", [(64, 2.0393), (256, 2.0095)])
def test_blowup_zero_rho_minimum_between_nodes(n, T):
    # u0x's least node is at 1/2, but its interpolant is least near h/2
    d = InitialData.from_u0x(
        PeriodicGrid(n),
        lambda x: -_dirichlet(n, x - 0.5 / n) - 0.7 * _dirichlet(n, x - 0.5),
        np.zeros_like,
    )
    rep = blowup_time(d)
    _, t_oracle = scalar_first_zero(d.u0x.values, speed(d))
    assert abs(rep.T - t_oracle) <= 1e-12 * t_oracle
    assert rep.T == pytest.approx(T, abs=1e-4)
    assert rep.witnesses[0][0] < 1.0 / n


def _circle_gaps(a, b) -> np.ndarray:
    """Distance on the circle from each point of a to the nearest of b."""
    diff = np.abs(np.subtract.outer(a, b)) % 1.0
    return np.min(np.minimum(diff, 1.0 - diff), axis=1)


@st.composite
def rho_with_roots(draw, kind):
    """(rho0, roots) with rho0 = p(x) prod_i sin(pi (x - r_i))**power.

    'simple': 2 or 4 simple roots; 'node': the same with r_0 a grid node;
    'double': 1 to 3 double (tangential) roots.  Neighbouring roots are at
    least 1/8 apart, and p = 2 + two modes with coefficients in
    [-1/2, 1/2] / k^2 lies in [0.75, 3.25].
    """
    n = draw(st.sampled_from([64, 128, 256, 4096]))
    grid = PeriodicGrid(n)
    count = draw(st.sampled_from([1, 2, 3] if kind == "double" else [2, 4]))
    weights = np.array(
        draw(st.lists(st.floats(1.0, 2.0), min_size=count, max_size=count))
    )
    if kind == "node":
        start = draw(st.integers(0, n - 1)) / n
    else:
        start = draw(st.floats(0.0, 1.0, exclude_max=True))
    roots = start + np.concatenate([[0.0], np.cumsum(weights / weights.sum())[:-1]])
    coeff = st.floats(-0.5, 0.5)
    a, b = np.array(draw(st.lists(st.tuples(coeff, coeff), min_size=2, max_size=2))).T
    k = np.arange(1, 3)
    phases = TWO_PI * np.outer(k, grid.x)
    p = 2.0 + (a / k**2) @ np.cos(phases) + (b / k**2) @ np.sin(phases)
    power = 2 if kind == "double" else 1
    vals = p * np.prod(np.sin(np.pi * (grid.x - roots[:, None])) ** power, axis=0)
    return PeriodicFunction(grid, vals), np.mod(roots, 1.0)


# Worst distances measured over 6,000 seeded draws of each family, with the
# tolerance about 40-100x above:
#   to the scalar oracle: simple and node roots 2.5e-13 (brentq, xtol 1e-12),
#   double roots 1.4e-8 (minimize_scalar on the flat rho0^2);
#   to the exact roots: 1.2e-14, except for roots reported at a grid node
#   whose value is below NODE_ZERO_TOL (up to 3.9e-13 away for double roots,
#   over 4,000 draws).
ORACLE_TOL = {"simple": 1e-11, "node": 1e-11, "double": 1e-6}
EXACT_TOL = 1e-12


@pytest.mark.parametrize("kind", ["simple", "node", "double"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rho_roots_match_scalar_oracle(kind, data):
    rho0, exact = data.draw(rho_with_roots(kind))
    n, vals = rho0.grid.n, rho0.values
    if kind == "double":
        # the oracle's scope: it looks for a double root only next to a
        # node below 1e-3 max |rho0|
        cell = np.floor(exact * n).astype(int)
        near = np.minimum(np.abs(vals[cell % n]), np.abs(vals[(cell + 1) % n]))
        assume(np.all(near <= 1e-3 * np.max(np.abs(vals))))
    ours = np.array(_rho_roots(rho0))
    oracle = np.array(scalar_rho_roots(vals))
    assert len(ours) == len(oracle) == len(exact)
    assert np.max(_circle_gaps(ours, oracle)) <= ORACLE_TOL[kind]
    node = np.rint(ours * n)
    at_node = (np.abs(ours * n - node) < 1e-9) & (
        np.abs(vals[node.astype(int) % n]) < NODE_ZERO_TOL
    )
    assert np.all(at_node | (_circle_gaps(ours, exact) <= EXACT_TOL))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rho_roots_find_double_roots_between_nodes(data):
    # no node need be small next to a double root
    rho0, exact = data.draw(rho_with_roots("double"))
    ours = np.array(_rho_roots(rho0))
    assert len(ours) == len(exact)
    assert np.max(_circle_gaps(exact, ours)) <= EXACT_TOL


@pytest.mark.parametrize("width", [0.3, 0.0])
def test_rho_roots_transform_rho0_once(monkeypatch, width):
    # the certificate's rfft of rho0 also prepares p, and p'' where a
    # double root (width 0) leaves cells open at the cap
    grid = PeriodicGrid(64)
    rho0 = PeriodicFunction(grid, np.cos(TWO_PI * (grid.x - 0.23)) ** 2 - width)
    prepared, transformed = [], []
    fine_grid, rfft = fs._fine_grid, fs.rfft
    monkeypatch.setattr(fs, "_fine_grid", lambda v, o, *c: prepared.append(
        len(o)) or fine_grid(v, o, *c))
    monkeypatch.setattr(fs, "rfft", lambda v, *a: transformed.append(
        np.array(v)) or rfft(v, *a))
    roots = _rho_roots(rho0)
    assert len(roots) == (4 if width else 2)
    assert prepared == ([2] if width else [2, 3])
    assert [np.array_equal(v, rho0.values) for v in transformed] == [True]


@pytest.mark.parametrize("n", [256, 1024])
def test_distinct_roots_match_quadratic_loop(monkeypatch, n):
    # white noise has hundreds of roots; the sorted pass over the candidate
    # roots keeps exactly those the loop keeps
    candidates = []
    distinct = geo._distinct_roots
    monkeypatch.setattr(
        geo, "_distinct_roots", lambda r: candidates.append(r) or distinct(r)
    )
    rho0 = PeriodicFunction(
        PeriodicGrid(n), np.random.default_rng(1).normal(size=n)
    )
    ours = _rho_roots(rho0)
    assert len(candidates) == 1 and len(ours) > n // 2
    assert ours == distinct_roots_loop(candidates[0])


def test_distinct_roots_drop_near_repeats_across_the_wrap():
    r = np.array([1.25, 0.5, 0.5 + 5e-10, 0.5 + 2e-9, 1.0 - 4e-10, 0.0])
    assert geo._distinct_roots(r) == [0.0, 0.25, 0.5, 0.5 + 2e-9]
    assert geo._distinct_roots(np.array([0.75])) == [0.75]
    assert geo._distinct_roots(np.array([])) == []


@st.composite
def zero_rho_cases(draw):
    """(family, n, [(k, a, b), ...]) for u0x = sum a cos 2 pi k x + b sin 2 pi k x.

    'low': modes k = 1..m, m <= 3, at n = 64-256, with a and b drawn in
    [-1, 1] and divided by k^2.  'near-nyquist': mode 1 and the top 1-3
    modes below Nyquist at n = 8-64, a and b in [-1, 1]; several critical
    points of u0x can share a grid cell.
    """
    amp = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        n = draw(st.sampled_from([64, 128, 256]))
        modes = draw(st.lists(st.tuples(amp, amp), min_size=1, max_size=3))
        return "low", n, [(k, a / k**2, b / k**2) for k, (a, b) in enumerate(modes, 1)]
    n = draw(st.sampled_from([8, 16, 32, 64]))
    top = range(max(2, n // 2 - draw(st.integers(1, 3))), n // 2)
    return "near-nyquist", n, [(k, draw(amp), draw(amp)) for k in (1, *top)]


@settings(max_examples=40, deadline=None)
@given(zero_rho_cases())
# two nearly equal minima, the least node next to the higher one
@example(("low", 64, [(1, 0.0, 0.0), (2, 0.0, 1.0 / 2048), (3, 0.0, 1.0 / 9)]))
# the least value of u0x lies 0.007 past the least node, x = 3/4, in a cell
# whose node slopes agree in sign
@example(("near-nyquist", 8, [(1, -0.55, 0.69), (3, -0.16, -0.11)]))
def test_blowup_time_zero_rho_matches_scalar_oracle(case):
    # Worst over 6,000 seeded draws of each family: T 3.1e-15 ('low') and
    # 1.8e-14 ('near-nyquist') relative to the oracle, and the same for
    # t*(witness); the tolerance is 50x above.  The witness is checked by
    # the time it attains rather than by its distance to the oracle's
    # minimizer (8.3e-9 at worst in the 'low' draws): at a degenerate
    # minimum, u0x = cos 2 pi x + cos 4 pi x / 4, they are up to 1.5e-5 apart.
    # On the near-Nyquist family minimize_scalar stops early on flat minima
    # (7.4e-13 relative in T at worst), so the oracle there is the least
    # u0x over the companion matrix's zeros of u0x'.
    family, n, modes = case
    grid = PeriodicGrid(n)
    k, a, b = np.array(modes).T
    phases = TWO_PI * np.outer(k, grid.x)
    u0x = a @ np.cos(phases) + b @ np.sin(phases)
    assume(np.max(np.abs(u0x)) > 1e-3)
    d = InitialData(
        fs.antiderivative_from_zero(PeriodicFunction(grid, u0x)),
        PeriodicFunction.zeros(grid),
    )
    rep = blowup_time(d)
    c = speed(d)
    u0x = fs.derivative(d.u0).values
    if family == "low":
        t_oracle = scalar_first_zero(u0x, c)[1]
    else:
        least = np.min(dense_trig_interpolate(u0x, companion_zeros(u0x, order=1)))
        t_oracle = math.atan2(1.0, -least / (2.0 * c)) / c
    assert rep.finite and len(rep.witnesses) == 1
    x, t = rep.witnesses[0]
    assert t == rep.T
    assert abs(rep.T - t_oracle) <= 1e-12 * t_oracle
    # the witness attains T by the dense interpolant
    v = dense_trig_interpolate(u0x, x)[0]
    assert abs(math.atan2(1.0, -v / (2.0 * c)) / c - t) <= 1e-12 * t


# -- the zero-free certificate ----------------------------------------------


def _dense_scan(values, factor=64):
    """The interpolant of real samples at factor n equispaced points, by zero
    padding the half spectrum; the Nyquist mode is split as cos(pi n x)."""
    coef = np.fft.rfft(values)
    coef[-1] *= 0.5
    return np.fft.irfft(coef, factor * values.size) * factor


def _slope_bound(values):
    """Bernstein's M1 / (2n), without slack: the most the interpolant can
    move within half a cell."""
    n = values.size
    k = np.arange(n // 2 + 1)
    weight = np.where(k == n // 2, n / 2, 2 * k)
    m1 = (TWO_PI / n) * (weight @ np.abs(np.fft.rfft(values)))
    return m1 / (2 * n)


def _spy_certificate(mp) -> list:
    """Record each verdict of the certificate; returns the record."""
    verdicts = []
    certify = geo._clears_zero

    def spy(*args):
        verdicts.append(certify(*args))
        return verdicts[-1]

    mp.setattr(geo, "_clears_zero", spy)
    return verdicts


@st.composite
def certificate_cases(draw):
    """(n, u0x, rho0) on both sides of the certificate and of a zero.

    rho0 is a shift plus either the top 1-3 modes, Nyquist included, with
    random amplitudes and phases, or a Dirichlet-kernel dip inside one
    cell.  The shift is random, within a few TOUCH_ZERO_TOL max |rho0| of
    the dense scan touching zero, or within a few slacks of the
    certificate's own threshold; the sign of rho0 is drawn too.
    """
    n = draw(st.sampled_from([8, 16, 32, 64, 256, 1024, 4096]))
    x = PeriodicGrid(n).x
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        k = np.arange(n // 2 - m + 1, n // 2 + 1)
        amp = draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m))
        phase = draw(st.lists(st.floats(0.0, TWO_PI), min_size=m, max_size=m))
        fluct = np.array(amp) @ np.cos(TWO_PI * np.outer(k, x) + np.c_[phase])
    else:
        scale = draw(st.floats(0.5, 1.5))
        fluct = -scale * _dirichlet(n, x - draw(st.floats(0.0, 1.0)) / n)
    tau, top = geo.TOUCH_ZERO_TOL, np.max(fluct)
    where = draw(st.sampled_from(["random", "touch", "threshold"]))
    if where == "random":
        shift = draw(st.floats(-2.0, 4.0)) * (top - np.min(fluct))
    elif where == "touch":
        touch = -np.min(_dense_scan(fluct))
        shift = touch + draw(st.floats(-5.0, 5.0)) * tau * (touch + top)
    else:
        bound = _slope_bound(fluct)
        edge = (bound - np.min(fluct) + tau * top) / (1.0 - tau)
        width = geo.SLOPE_SLACK * bound + tau * (edge + top)
        shift = edge + draw(st.floats(-3.0, 3.0)) * width
    sign = draw(st.sampled_from([1.0, -1.0]))
    a, b = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    u0x = a * np.sin(TWO_PI * x) + b * np.cos(TWO_PI * x)
    return n, u0x, sign * (shift + fluct)


@settings(max_examples=100, deadline=None)
@given(certificate_cases())
def test_certificate_agrees_with_the_search(case):
    # the oracle is blowup_time with the certificate declining, so that the
    # cells decide; where the certificate fires, the dense scan stays above
    # its margin
    n, u0x, rho0 = case
    assume(np.max(np.abs(rho0)) > 0.0)
    grid = PeriodicGrid(n)
    u0 = fs.antiderivative_from_zero(PeriodicFunction(grid, u0x))
    with pytest.MonkeyPatch.context() as mp:
        fired = _spy_certificate(mp)
        rep = blowup_time(InitialData(u0, PeriodicFunction(grid, rho0)))
        mp.setattr(geo, "_clears_zero", lambda *a: False)
        searched = blowup_time(InitialData(u0, PeriodicFunction(grid, rho0)))
    assert rep.finite == searched.finite
    assert rep.T == searched.T
    assert rep.witnesses == searched.witnesses
    if fired == [True]:
        margin = np.min(np.abs(rho0)) - _slope_bound(rho0)
        assert margin > geo.TOUCH_ZERO_TOL * np.max(np.abs(rho0))
        assert np.min(np.abs(_dense_scan(rho0))) > margin


def _large_modes(seed, n=4096, modes=8):
    """u0x and a fluctuation of rho0 shaped like the benchmark's n = 4096
    jobs, 8 decaying modes each, and the fluctuation's coefficient sum."""
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(seed)
    k = np.arange(1, modes + 1)
    phases = TWO_PI * np.outer(k, grid.x)
    cos, sin = np.cos(phases), np.sin(phases)
    a, b, c, d = rng.uniform(-1.0, 1.0, (4, modes)) * np.c_[[0.6, 0.6, 0.4, 0.4]] / k
    return a @ cos + b @ sin, c @ cos + d @ sin, np.abs(c).sum() + np.abs(d).sum()


def _large_global():
    """Global data: rho0's mean exceeds its coefficients' sum."""
    u0x, fluct, total = _large_modes(4096)
    grid = PeriodicGrid(u0x.size)
    u0 = fs.antiderivative_from_zero(PeriodicFunction(grid, u0x))
    return InitialData(u0, PeriodicFunction(grid, 1.2 * total + fluct))


def _count_fine_grids(monkeypatch) -> list:
    calls = []
    fine_grid = fs._fine_grid
    monkeypatch.setattr(fs, "_fine_grid", lambda *a: calls.append(1) or fine_grid(*a))
    return calls


@pytest.mark.parametrize("make", [
    lambda: make_preset("stationary", PeriodicGrid(256)),
    lambda: make_preset("smooth-global", PeriodicGrid(256)),
    _large_global,
], ids=["stationary", "smooth-global", "large-global"])
def test_certified_data_prepares_no_interpolant(make, monkeypatch):
    d = make()
    calls = _count_fine_grids(monkeypatch)
    rep = blowup_time(d)
    assert (rep.finite, rep.T, rep.witnesses) == (False, math.inf, ())
    assert calls == []


def _count_searches(monkeypatch) -> list:
    """Record, for each extremum search (the bracketed solve of p' = 0),
    whether any gap was eligible."""
    calls = []
    solve = geo._bracket_roots

    def spy(p, points, f, s, order=0, gaps=None):
        if order == 1:
            calls.append(bool(np.any(gaps)))
        return solve(p, points, f, s, order, gaps)

    monkeypatch.setattr(geo, "_bracket_roots", spy)
    return calls


def test_zero_node_and_zero_rho_take_their_search(grid, monkeypatch):
    # a double zero at a node fails the certificate, and its cells stay open
    # down to the depth cap, where the extremum search decides them; rho0 = 0
    # certifies the zeros of u0x' instead, which settle at the nodes: zero
    # nodes at 0 and 1/2, and no extremum search
    verdicts = _spy_certificate(monkeypatch)
    zero_node = InitialData.from_u0x(
        grid, lambda x: np.sin(TWO_PI * x), lambda x: 1.0 - np.cos(TWO_PI * x)
    )
    searches = _count_searches(monkeypatch)
    rep = blowup_time(zero_node)
    assert [x for (x, _) in rep.witnesses] == pytest.approx([0.0], abs=1e-12)
    assert verdicts == [False] and searches == [True]
    verdicts.clear(), searches.clear()
    calls, rho_roots = [], geo._rho_roots
    monkeypatch.setattr(
        geo, "_rho_roots", lambda f: calls.append((f, rho_roots(f))) or calls[-1][1]
    )
    d = hs_blowup(grid)
    rep = blowup_time(d)
    assert rep.finite and [x for (x, _) in rep.witnesses] == [0.5]
    [(searched, roots)] = calls
    assert np.array_equal(searched.values, fs.derivative(d.u0x).values)
    assert roots == [0.0, 0.5]
    assert verdicts == [False] and searches == []


# -- the cell certificate ---------------------------------------------------


def _large_finite(seed):
    """Finite data as the benchmark's: rho0 = 0 at the node where u0x is
    least."""
    u0x, fluct, _ = _large_modes(seed)
    return u0x, fluct - fluct[np.argmin(u0x)]


def _modes(draw, n, top=False):
    """1-3 modes with random amplitudes and phases on the grid of size n: the
    top ones, Nyquist included, the lowest, or the lowest and Nyquist; only
    the top ones when ``top``."""
    m = draw(st.integers(1, 3))
    k = np.arange(n // 2 - m + 1, n // 2 + 1)
    if not top:
        lowest = np.arange(1, m + 1)
        k = draw(st.sampled_from([k, lowest, np.append(lowest[:-1], n // 2)]))
    amp = draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m))
    phase = draw(st.lists(st.floats(0.0, TWO_PI), min_size=m, max_size=m))
    return np.array(amp) @ np.cos(TWO_PI * np.outer(k, PeriodicGrid(n).x) + np.c_[phase])


@st.composite
def cell_cases(draw):
    """(n, u0x, rho0) in four families around the cell certificate's edges.

    'large': the benchmark's finite shape at n = 4096.  'cross': 1-3 modes
    (:func:`_modes`) at n = 8-256, shifted to cross zero.  'node': the
    same modes, with rho0 = 0 at a random node.  'dip': the same modes,
    shifted so that the dense scan's least value lies within a few
    TOUCH_ZERO_TOL max |rho0| of zero, on either side.
    """
    family = draw(st.sampled_from(["large", "cross", "node", "dip"]))
    if family == "large":
        return (4096, *_large_finite(draw(st.integers(0, 2**32 - 1))))
    n = draw(st.sampled_from([8, 16, 32, 64, 128, 256]))
    fluct = _modes(draw, n)
    if family == "cross":
        lo, hi = np.min(fluct), np.max(fluct)
        rho0 = fluct - (lo + draw(st.floats(0.01, 0.99)) * (hi - lo))
    elif family == "node":
        rho0 = fluct - fluct[draw(st.integers(0, n - 1))]
    else:
        touch = -np.min(_dense_scan(fluct))
        top = touch + np.max(fluct)
        rho0 = fluct + touch + draw(st.floats(-5.0, 5.0)) * geo.TOUCH_ZERO_TOL * top
    x = PeriodicGrid(n).x
    a, b = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    return n, a * np.sin(TWO_PI * x) + b * np.cos(TWO_PI * x), rho0


def _scan_zero_count(values) -> int:
    """Sign changes of the 64 n-point dense scan around the circle, exact
    zeros skipped."""
    scan = _dense_scan(values)
    s = np.sign(scan[scan != 0.0])
    return int(np.count_nonzero(s != np.roll(s, 1)))


@settings(max_examples=120, deadline=None)
@given(cell_cases())
def test_cell_certificate_agrees_with_the_search(case):
    # Away from a touch, the companion matrix (n <= 256) or the dense scan
    # counts the zeros the cells find.  Over 3,000 draws (668 of them settled
    # at the nodes, at n <= 256) the counted roots lay within 1.8e-14 of the
    # unit circle and the nearest other root 0.041 from it: companion_zeros'
    # tol = 1e-7 is far from both.  It counts a double root 0 or 2 times, so
    # where an extremum of rho0 (a zero of rho0' by the companion matrix)
    # lies within 5 TOUCH_ZERO_TOL max |rho0| of zero, each witness is only
    # checked to be a zero.
    n, u0x, rho0 = case
    top = np.max(np.abs(rho0))
    assume(top > 0.0)
    grid = PeriodicGrid(n)
    u0 = fs.antiderivative_from_zero(PeriodicFunction(grid, u0x))
    rep = blowup_time(InitialData(u0, PeriodicFunction(grid, rho0)))
    x = [x for (x, _) in rep.witnesses]
    if n > 256:
        assert len(x) == _scan_zero_count(rho0)
        return
    extrema = dense_trig_interpolate(rho0, companion_zeros(rho0, order=1))
    if np.min(np.abs(extrema)) <= 5 * geo.TOUCH_ZERO_TOL * top:
        assert np.all(np.abs(dense_trig_interpolate(rho0, x)) <= 1e-9 * top)
    else:
        assert len(x) == len(companion_zeros(rho0))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([8, 16, 32]), st.data())
def test_near_nyquist_root_counts_match_the_companion_matrix(n, data):
    # the top 1-3 modes, Nyquist included, shifted to dip below zero: the
    # family on which node slopes hide zeros (6,000 draws matched)
    fluct = _modes(data.draw, n, top=True)
    scan = _dense_scan(fluct)
    rho0 = fluct - (np.min(scan) + data.draw(st.floats(0.01, 0.99)) * np.ptp(scan))
    assert len(_rho_roots(PeriodicFunction(PeriodicGrid(n), rho0))) == len(
        companion_zeros(rho0)
    )


@pytest.mark.parametrize("n, crossings", [(16, 4), (32, 6)])
def test_cell_certificate_sees_the_wiggle_the_nodes_hide(n, crossings):
    # the Nyquist mode has zero slope at every node, so rho0's node values
    # and slopes show 2 crossings where its interpolant has 4 or 6; M2 keeps
    # those cells open, and their halves hold the hidden zeros
    x = PeriodicGrid(n).x
    rho0 = 0.34 * np.cos(TWO_PI * x + 5.3) + 0.2 * np.cos(np.pi * n * x + 2.0) + 0.018
    assert len(companion_zeros(rho0)) == crossings
    assert np.count_nonzero(np.sign(rho0) != np.roll(np.sign(rho0), 1)) == 2
    d = InitialData.from_u0x(PeriodicGrid(n), lambda x: np.sin(TWO_PI * x), lambda x: rho0)
    rep = blowup_time(d)
    assert len(rep.witnesses) == crossings
    roots = [x for (x, _) in rep.witnesses]
    assert np.max(_circle_gaps(roots, companion_zeros(rho0))) < 1e-12


@pytest.mark.parametrize("make", [
    lambda: _large_finite(30),
    lambda: (np.cos(TWO_PI * PeriodicGrid(256).x), np.sin(TWO_PI * PeriodicGrid(256).x)),
], ids=["large-finite", "zero-nodes"])
def test_settled_data_skips_the_extremum_search(make, monkeypatch):
    # one fine grid with two orders for rho0's roots, one with one order
    # for u0x at the witnesses, and no extremum search
    u0x, rho0 = make()
    grid = PeriodicGrid(rho0.size)
    d = InitialData(
        fs.antiderivative_from_zero(PeriodicFunction(grid, u0x)),
        PeriodicFunction(grid, rho0),
    )
    searches = _count_searches(monkeypatch)
    orders = []
    fine_grid = fs._fine_grid
    monkeypatch.setattr(
        fs, "_fine_grid", lambda v, o, *c: orders.append(len(o)) or fine_grid(v, o, *c)
    )
    rep = blowup_time(d)
    assert rep.finite and len(rep.witnesses) >= 2
    assert searches == [] and orders == [2, 1]


def test_beyond_blowup_raises(grid):
    d = hs_blowup(grid)
    rep = blowup_time(d)
    with pytest.raises(BeyondBlowupError):
        exact_geodesic(d, rep.T)
    with pytest.raises(BeyondBlowupError):
        exact_solution(d, rep.T + 0.5)
    # just below the maximal time is fine
    exact_geodesic(d, rep.T - 1e-6)


def test_too_close_to_blowup_names_t_and_T(monkeypatch):
    # within about 1e-6 of T, but before T - BLOWUP_MARGIN, phi_x falls to
    # roundoff: the error says how far t is from T.  exact_solution's inverse
    # refuses phi there; GroupElement refuses only phi_x <= 0, which at
    # t = T - 1e-7 is the sign of roundoff on a least phi_x of about 4e-15,
    # so a GroupElement that refuses stands in for exact_geodesic's
    d = hs_blowup(PeriodicGrid(256))
    T = blowup_time(d).T
    t = T - 1e-7
    assert not blowup_time(d).reaches(t)

    def refuse(*args):
        raise NotMonotoneError("phi_x is not positive")

    monkeypatch.setattr(geo, "GroupElement", refuse)
    for evaluate in (exact_solution, exact_geodesic):
        with pytest.raises(NotMonotoneError) as err:
            evaluate(d, t)
        message = str(err.value)
        assert f"t={t!r}" in message and f"T={T!r}" in message
        assert repr(T - t) in message
        assert isinstance(err.value.__cause__, NotMonotoneError)
    # a stack raises the error of its first time too close to T
    with pytest.raises(NotMonotoneError) as alone:
        exact_solution(d, t)
    with pytest.raises(NotMonotoneError) as stacked:
        exact_solution(d, np.array([0.5 * T, t, t + 1e-8]))
    assert str(stacked.value) == str(alone.value)


def _assert_is_the_report(d):
    rep = classify_existence(d)
    assert rep is blowup_time(d)
    assert rep.global_existence is not rep.finite
    assert rep.label == ("finite" if rep.finite else "global")
    assert rep.T_physical == rep.T
    assert math.isfinite(rep.T) is rep.finite
    return rep


def test_classify_existence(grid, rng):
    labels = {
        name: _assert_is_the_report(make_preset(name, grid)).label
        for name in PRESET_NAMES
    }
    assert labels == {
        "stationary": "global", "smooth-global": "global", "hs-blowup": "finite"
    }
    d = InitialData.from_u0x(
        grid, lambda x: np.sin(TWO_PI * x), lambda x: np.cos(TWO_PI * x)
    )
    cls = classify_existence(d)
    assert cls.label == "finite"
    assert cls.T_unit_speed < math.pi
    for _ in range(10):
        want_global = bool(rng.uniform() < 0.5)
        data = rf.initial_data(grid, rng, global_existence=want_global)
        assert _assert_is_the_report(data).global_existence == want_global


@pytest.mark.parametrize("u0x, rho0", [
    (np.sin, lambda x: 1e-13 * (1.5 + np.cos(x))),
    (np.cos, np.zeros_like),
    (np.sin, lambda x: 1.5 + np.cos(x)),
    (np.sin, np.cos),
    (np.sin, lambda x: 0.9 - _dirichlet(256, x / TWO_PI - 0.5 / 256)),
], ids=["tiny-rho", "hs-blowup", "smooth-global", "cos-rho", "dip-between-nodes"])
def test_existence_is_scale_free(grid, u0x, rho0):
    # scaling the data by lam scales c by lam and T by 1/lam: the label and
    # T c do not move
    base = InitialData.from_u0x(
        grid, lambda x: u0x(TWO_PI * x), lambda x: rho0(TWO_PI * x)
    )
    scales = (1e-12, 1e-7, 1e-6, 1.0, 1e6)
    classes = [
        classify_existence(InitialData(base.u0 * lam, base.rho0 * lam))
        for lam in scales
    ]
    assert len({c.label for c in classes}) == 1
    tc = [c.T_unit_speed for c in classes]
    if classes[0].global_existence:
        assert tc == [math.inf] * len(scales)
    else:
        assert max(tc) - min(tc) <= 1e-12 * tc[scales.index(1.0)]


def test_blowup_report_is_computed_once(grid, monkeypatch):
    calls = []

    def counting_rho_roots(rho0):
        calls.append(1)
        return _rho_roots(rho0)

    monkeypatch.setattr(geo, "_rho_roots", counting_rho_roots)
    d = InitialData.from_u0x(
        grid, lambda x: np.sin(TWO_PI * x), lambda x: np.cos(TWO_PI * x)
    )
    rep = classify_existence(d)
    exact_solution(d, 0.5 * rep.T_physical)
    assert len(calls) == 1
    assert blowup_time(d) is rep
    assert isinstance(rep.witnesses, tuple)


def test_exact_solution_composes_once(grid, monkeypatch):
    # one prepare for invert_diffeo and one for the complex field phi_t + i Im w
    calls = []
    fine_grid = fs._fine_grid

    def counting_fine_grid(*args):
        calls.append(1)
        return fine_grid(*args)

    d = InitialData.from_u0x(
        grid, lambda x: np.sin(TWO_PI * x), lambda x: 1.5 + np.cos(TWO_PI * x)
    )
    blowup_time(d)
    monkeypatch.setattr(fs, "_fine_grid", counting_fine_grid)
    u, rho = exact_solution(d, 0.5)
    assert len(calls) == 2
    assert not u.is_complex and not rho.is_complex


@st.composite
def stacked_cases(draw, finite=None):
    """(d, times): global or finite data at n in {16, 64, 256} and a stack
    of admissible times, its count on either side of a block boundary.

    ``finite`` restricts the data to one existence class.  Finite data
    takes times in [0, T/2], global data in [-3, 3].
    """
    n = draw(st.sampled_from([16, 64, 256]))
    grid = PeriodicGrid(n)
    sources = {None: ["smooth-global", "hs-blowup", "random"],
               True: ["hs-blowup", "random"]}[finite]
    source = draw(st.sampled_from(sources))
    if source == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        wanted = False if finite else draw(st.sampled_from([True, False, None]))
        d = rf.initial_data(grid, rng, global_existence=wanted)
    else:
        d = make_preset(source, grid)
    rep = blowup_time(d)
    lo, hi = (0.0, 0.5 * rep.T) if rep.finite else (-3.0, 3.0)
    rows = max(1, geo.STACK_POINTS // n)
    count = draw(st.sampled_from([1, rows - 1, rows, rows + 1, 2 * rows + 1]))
    times = draw(st.lists(st.floats(lo, hi), min_size=count, max_size=count))
    return d, np.array(times)


@settings(max_examples=40, deadline=None)
@given(stacked_cases())
def test_stacked_exact_solution_rows_are_their_own_calls(case):
    # every row carries the bits of its scalar call; where a scalar call is
    # too close to T for the flow to invert, the stack raises its error
    d, times = case
    try:
        rows = [exact_solution(d, t) for t in times.tolist()]
    except NotMonotoneError as exc:
        with pytest.raises(NotMonotoneError) as err:
            exact_solution(d, times)
        assert str(err.value) == str(exc)
        return
    u, rho = exact_solution(d, times)
    assert u.values.shape == rho.values.shape == (times.size, d.grid.n)
    assert not u.is_complex and not rho.is_complex
    for i, (ui, rhoi) in enumerate(rows):
        assert u.values[i].tobytes() == ui.values.tobytes()
        assert rho.values[i].tobytes() == rhoi.values.tobytes()


@settings(max_examples=30, deadline=None)
@given(stacked_cases(finite=True), st.data())
def test_stacked_exact_solution_refuses_as_its_calls_do(case, data):
    # one time past T - BLOWUP_MARGIN, or below 0, anywhere in the stack
    d, times = case
    T = blowup_time(d).T
    beyond = data.draw(st.booleans())
    if beyond:
        past = data.draw(st.sampled_from([0.0, 1e-9, 0.5, 10.0]))
        bad = T - geo.BLOWUP_MARGIN + past
    else:
        bad = -data.draw(st.floats(1e-300, 10.0))
    at = data.draw(st.integers(0, times.size))
    times = np.insert(times, at, bad)
    if beyond:
        with pytest.raises(BeyondBlowupError, match=re.escape(f"t={bad!r} is at")):
            exact_solution(d, times)
    else:
        with pytest.raises(ValueError, match="negative times"):
            exact_solution(d, times)


def test_stacked_exact_solution_refuses_non_finite_times(grid):
    # a single time is checked as a stack's times are, and so is the flow's
    d = make_preset("smooth-global", grid)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            exact_solution(d, np.array([0.5, bad]))
        with pytest.raises(ValueError, match="not finite"):
            exact_solution(d, bad)
        with pytest.raises(ValueError, match="not finite"):
            exact_geodesic(d, bad)
    with pytest.raises(ValueError, match="one-dimensional"):
        exact_solution(d, np.zeros((2, 3)))
    u, rho = exact_solution(d, np.array([]))
    assert u.values.shape == rho.values.shape == (0, grid.n)


@pytest.mark.parametrize("preset", ["smooth-global", "hs-blowup"])
def test_one_row_blocks_are_their_own_calls(grid, preset, monkeypatch):
    # from n = STACK_POINTS up, each block is one time, evaluated as its call
    monkeypatch.setattr(geo, "STACK_POINTS", grid.n)
    d = make_preset(preset, grid)
    times = np.array([0.0, 0.3, 0.1])
    u, rho = exact_solution(d, times)
    for i, t in enumerate(times.tolist()):
        ui, rhoi = exact_solution(d, t)
        assert u.values[i].tobytes() == ui.values.tobytes()
        assert rho.values[i].tobytes() == rhoi.values.tobytes()


def test_stacked_exact_solution_memory_is_bounded_in_the_stack(grid):
    # one state per step of a 2,000-step run: beyond its output, the call
    # holds one block's gathers, not those of 2,001 x 255 points at once
    d = make_preset("smooth-global", grid)
    blowup_time(d)
    times = np.arange(2001) * 5e-4
    tracemalloc.start()
    try:
        u, rho = exact_solution(d, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - u.values.nbytes - rho.values.nbytes < 2**20


# -- exponential map and its inverse ----------------------------------------


def test_log_constant_phase_target(grid):
    alpha0 = 2.0
    target = GroupElement(
        PeriodicFunction(grid, grid.x),
        PeriodicFunction.constant(grid, alpha0),
        0,
    )
    res = log_map(target)
    assert res.kind == "family"
    assert res.r0 == pytest.approx(alpha0 / 2.0, abs=1e-12)
    assert res.direction.u0.max_abs() < 1e-12
    assert np.max(np.abs(res.direction.rho0.values - 2.0)) < 1e-12
    # flowing the recovered data for unit time returns the target
    back = exact_geodesic(res.principal_data(), 1.0)
    assert back.distance(target) < 1e-9


def test_log_exp_round_trip_random(grid, rng):
    for _ in range(10):
        d = rf.initial_data(grid, rng, global_existence=True, speed_range=(0.2, 3.0))
        target = exact_geodesic(d, 1.0)
        res = log_map(target)
        assert res.kind in ("family", "single")
        rec = res.principal_data()
        assert np.max(np.abs(rec.u0.values - d.u0.values)) < 1e-8
        assert np.max(np.abs(rec.rho0.values - d.rho0.values)) < 1e-8


def test_log_obstruction_empty(grid):
    target = GroupElement(
        PeriodicFunction(grid, grid.x),
        PeriodicFunction(grid, TWO_PI + 2.0 * np.sin(TWO_PI * grid.x)),
        0,
    )
    assert log_map(target).kind == "empty"


def test_log_rejects_identity_and_antipode(grid):
    with pytest.raises(AntipodalOrIdentityError):
        log_map(GroupElement.identity(grid))
    anti = GroupElement(
        PeriodicFunction(grid, grid.x),
        PeriodicFunction.constant(grid, TWO_PI),
        0,
    )
    with pytest.raises(AntipodalOrIdentityError):
        log_map(anti)


# -- connectivity classification ---------------------------------------------


def test_connect_identical(grid, rng):
    a = rf.group_element(grid, rng)
    assert connect(a, a).kind == "identical"


def test_connect_antipodal(grid, rng):
    a = rf.group_element(grid, rng)
    shift = GroupElement(
        PeriodicFunction(grid, grid.x),
        PeriodicFunction.constant(grid, TWO_PI),
        0,
    )
    b = multiply(a, shift)
    assert connect(a, b).kind == "antipodal_infinite"


def test_connect_none_and_unique(grid, rng):
    b = rf.group_element(grid, rng)
    blocked = GroupElement(
        PeriodicFunction(grid, grid.x),
        PeriodicFunction(grid, TWO_PI + 2.0 * np.sin(TWO_PI * grid.x)),
        0,
    )
    a = multiply(blocked, b)
    assert connect(a, b).kind == "none"

    touching = GroupElement(
        PeriodicFunction(grid, grid.x),
        PeriodicFunction(grid, 2.0 * np.sin(TWO_PI * grid.x)),
        0,
    )
    a2 = multiply(touching, b)
    res = connect(a2, b)
    assert res.kind == "unique_short"
    assert res.log.r0 < math.pi


def test_exact_solution_refines_in_n():
    # |f| stays near 1, so u and rho are resolved at n = 128 already: the
    # nodes shared by all grids agree and the energy is conserved
    def u0x(x):
        return 0.6 * np.sin(TWO_PI * x) + 0.2 * np.cos(2 * TWO_PI * x)

    def rho0(x):
        return 1.2 + 0.4 * np.cos(TWO_PI * x) + 0.3 * np.sin(3 * TWO_PI * x)

    t = 0.8
    coarse = None
    for n in (128, 256, 512, 1024):
        d = InitialData.from_u0x(fs.PeriodicGrid(n), u0x, rho0)
        u, rho = exact_solution(d, t)
        ux = fs.derivative(u)
        energy = 0.25 * fs.row_mean((ux * ux + rho * rho).values)
        assert abs(energy - speed(d) ** 2) < 1e-10
        shared = (u.values[:: n // 128], rho.values[:: n // 128])
        if coarse is None:
            coarse = shared
        else:
            assert np.max(np.abs(shared[0] - coarse[0])) < 1e-10
            assert np.max(np.abs(shared[1] - coarse[1])) < 1e-10
