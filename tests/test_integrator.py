import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hs2sphere.funcspace as fs
import hs2sphere.integrator as integrator
import hs2sphere.randfields as rf
from hs2sphere.errors import StepBlowupError
from hs2sphere.funcspace import PeriodicFunction, PeriodicGrid
from hs2sphere.geodesics import InitialData, blowup_time, exact_solution, speed
from hs2sphere.integrator import (
    IntegratorConfig,
    compare_states,
    integrate,
    rhs,
)
from hs2sphere.presets import make_preset
from hs2sphere.serialize import fmt_float, write_trajectory_csv

TWO_PI = 2.0 * np.pi


def stationary(grid):
    return InitialData(
        PeriodicFunction.zeros(grid), PeriodicFunction.constant(grid, 2.0)
    )


def underflow(grid):
    # nonzero data whose energy underflows: c^2 = 0.0 reaches the guard's
    # t-at-c = 0 branch, while speed and blowup_time reject the data
    return InitialData(
        PeriodicFunction.zeros(grid), PeriodicFunction(grid, np.full(grid.n, 1e-170))
    )


def _mean_free(d):
    # rho's mean is conserved: the zero-mean-restricted flow of d
    return InitialData(d.u0, fs.mean_projection(d.rho0))


def smooth_global(grid):
    return InitialData.from_u0x(
        grid, lambda x: np.sin(TWO_PI * x), lambda x: 1.5 + np.cos(TWO_PI * x)
    )


def test_rhs_stationary_point(grid):
    d = stationary(grid)
    ut, rhot = rhs(d.u0, d.rho0, dealias=True)
    assert ut.max_abs() < 1e-14
    assert rhot.max_abs() < 1e-14


def test_rhs_symbolic_case(grid):
    # u = 0, rho = cos -> u_t = sin(4 pi x)/(16 pi), rho_t = 0
    u = PeriodicFunction.zeros(grid)
    rho = PeriodicFunction.from_callable(grid, lambda x: np.cos(TWO_PI * x))
    ut, rhot = rhs(u, rho, dealias=True)
    expected = np.sin(2.0 * TWO_PI * grid.x) / (16.0 * np.pi)
    assert np.max(np.abs(ut.values - expected)) < 1e-14
    assert rhot.max_abs() < 1e-14


def test_rhs_matches_exact_time_derivative(grid):
    d = smooth_global(grid)
    t, h = 0.3, 1e-5
    up, rp = exact_solution(d, t + h)
    um, rm = exact_solution(d, t - h)
    u, rho = exact_solution(d, t)
    ut, rhot = rhs(u, rho, dealias=False)
    ut_fd = (up.values - um.values) / (2.0 * h)
    rhot_fd = (rp.values - rm.values) / (2.0 * h)
    assert np.max(np.abs(ut.values - ut_fd)) < 1e-7
    assert np.max(np.abs(rhot.values - rhot_fd)) < 1e-7


def test_rhs_preserves_u0_pin(grid, rng):
    w = PeriodicFunction(grid, np.sin(TWO_PI * grid.x) * 0.3)
    u = fs.antiderivative_from_zero(fs.mean_projection(w))
    rho = PeriodicFunction.from_callable(grid, lambda x: 1.0 + 0.2 * np.cos(TWO_PI * x))
    ut, _ = rhs(u, rho, dealias=True)
    assert abs(ut.values[0]) < 1e-15


def test_rhs_restricted_properties(grid, rng):
    u = fs.antiderivative_from_zero(
        PeriodicFunction(grid, 0.4 * np.sin(TWO_PI * grid.x))
    )
    # rho = 0, the mean-free part of a constant: the HS right side remains
    ut_c, rhot_c = rhs(u, PeriodicFunction.zeros(grid), dealias=True)
    ux = fs.derivative(u)
    hs_ut = (
        -u.values * ux.values
        - 0.5 * fs.inverse_A(fs.derivative(ux * ux)).values
    )
    assert np.max(np.abs(ut_c.values - hs_ut)) < 1e-12
    assert rhot_c.max_abs() < 1e-14

    rho = PeriodicFunction.from_callable(grid, lambda x: np.cos(TWO_PI * x))
    _, rhot = rhs(u, rho, dealias=True)
    assert abs(fs.row_mean(rhot.values)) < 1e-15


def test_stationary_state_constant(grid):
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0, dealias=True, record_every=200)
    traj = integrate(stationary(grid), cfg)
    u, rho = traj.state(-1)
    assert u.max_abs() < 1e-12
    assert np.max(np.abs(rho.values - 2.0)) < 1e-12


def test_a_run_shorter_than_one_step_takes_one(grid):
    # below t_end / dt = 1e-12 the rounded-up count was 0, and integrate
    # divided by it; every other count stays
    counts = [
        IntegratorConfig(dt=5e-4, t_end=t, dealias=False).n_steps
        for t in (1e-20, 1e-4, 0.3, 1.0, 1.0 + 1e-4)
    ]
    assert counts == [1, 1, 600, 2000, 2001]
    cfg = IntegratorConfig(dt=5e-4, t_end=1e-20, dealias=False)
    assert integrate(smooth_global(grid), cfg).times.tolist() == [0.0, 1e-20]


def test_matches_exact_solution(grid):
    d = smooth_global(grid)
    cfg = IntegratorConfig(dt=5e-4, t_end=1.0, dealias=False, record_every=500)
    traj = integrate(d, cfg)
    ue, rhoe = exact_solution(d, 1.0)
    un, rhon = traj.state(-1)
    eu, er = compare_states(un, rhon, ue, rhoe)
    assert eu < 1e-6
    assert er < 1e-6


def test_energy_and_mean_conservation(grid):
    d = smooth_global(grid)
    cfg = IntegratorConfig(dt=5e-4, t_end=1.0, dealias=True, record_every=2000)
    traj = integrate(d, cfg)
    drift = np.max(np.abs(traj.energy - traj.energy[0])) / traj.energy[0]
    assert drift < 1e-8
    assert np.max(np.abs(traj.rho_mean - traj.rho_mean[0])) < 1e-10


@pytest.mark.parametrize("dealias", [False, True])
def test_transform_budget_and_energy_reuse(grid, monkeypatch, dealias):
    d = smooth_global(grid)
    calls = {"rfft": 0, "irfft": 0}

    def counting(name):
        transform = getattr(fs, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(fs, name, counting(name))
    steps = 5
    cfg = IntegratorConfig(dt=1e-2, t_end=steps * 1e-2, dealias=dealias, record_every=1)
    traj = integrate(d, cfg)
    monkeypatch.undo()
    # one batched irfft and one batched rfft per stage, four stages per step,
    # plus stage 1 of the final state for its energy; one more rfft takes
    # the initial state to coefficients, and dealiasing costs none
    assert calls == {"rfft": 4 * steps + 2, "irfft": 4 * steps + 1}

    # the energy comes from stage 1's grid rows; the recorded u is the same
    # irfft of the coefficients, so the two agree to roundoff
    assert np.array_equal(traj.times, traj.energy_times)
    for i, energy in enumerate(traj.energy):
        ux = fs.derivative(PeriodicFunction(grid, traj.u[i])).values
        rho = traj.rho[i]
        recomputed = 0.25 * float(np.mean(ux * ux + rho * rho))
        assert abs(energy - recomputed) <= 1e-15 * energy


@pytest.mark.parametrize(
    "dealias", [False, True], ids=["dealias-off-plain", "dealias-on-plain"]
)
def test_integrate_steps_with_the_public_right_side(grid, rng, dealias):
    # modes up to 100 > n/3, so the 2/3 mask changes the products
    w = 0.5 * rf.band_limited(grid, rng, max_mode=100)
    rho0 = 0.5 * rf.band_limited(grid, rng, max_mode=100) + 1.0
    d = InitialData(fs.antiderivative_from_zero(w), rho0)
    dt = 1e-2
    cfg = IntegratorConfig(dt=dt, t_end=2 * dt, dealias=dealias, record_every=1)
    traj = integrate(d, cfg)

    def f(y):
        u, rho = (PeriodicFunction(grid, row) for row in y)
        return np.stack([g.values for g in rhs(u, rho, dealias=dealias)])

    y = np.stack([d.u0.values, d.rho0.values])
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    y[0] -= y[0, 0]
    assert np.max(np.abs(traj.u[1] - y[0])) < 1e-14
    assert np.max(np.abs(traj.rho[1] - y[1])) < 1e-14
    assert np.all(traj.u[:, 0] == 0.0)


def test_non_finite_state_halts(grid, monkeypatch):
    # poison the rfft of stage 3 in step 4: step 3 is the last finite state
    d = smooth_global(grid)
    dt, poisoned = 1e-2, 2 + 4 * 3 + 2
    calls = []
    rfft = fs.rfft

    def poisoning_rfft(*args, **kwargs):
        calls.append(1)
        out = rfft(*args, **kwargs)
        if len(calls) == poisoned:
            out[...] = np.nan
        return out

    monkeypatch.setattr(fs, "rfft", poisoning_rfft)
    cfg = IntegratorConfig(dt=dt, t_end=10 * dt, dealias=True, record_every=1)
    with pytest.raises(StepBlowupError) as exc_info:
        integrate(d, cfg)
    err = exc_info.value
    last = 3 * dt
    assert str(err) == (
        f"state became non-finite between t = {last!r} and t = {4 * dt!r}"
    )
    assert err.halt_time == last
    assert err.trajectory.times[-1] <= err.halt_time
    assert np.all(np.isfinite(err.trajectory.u))
    assert np.all(np.isfinite(err.trajectory.rho))


def test_compare_states_rows_are_their_one_state_calls(grid, rng):
    # row 1's reference rho is identically zero, so its rho error is read
    # against that row's own scale; row 2 is 1e-9 the size of row 0
    parts = rng.normal(size=(4, 3, grid.n))
    parts[3, 1] = 0.0
    parts[:, 2] *= 1e-9
    eu, er = compare_states(*(PeriodicFunction(grid, p) for p in parts))
    assert eu.shape == er.shape == (3,)
    for i in range(3):
        one = compare_states(*(PeriodicFunction(grid, p[i]) for p in parts))
        assert [type(e) for e in one] == [float, float]
        assert np.array(one).tobytes() == np.array([eu[i], er[i]]).tobytes()
    rms = np.sqrt(np.mean(parts[:, 1] ** 2, axis=-1))
    assert er[1] == pytest.approx(rms[1] / rms[2])


def test_fourth_order_convergence(grid):
    d = smooth_global(grid)
    ue, rhoe = exact_solution(d, 0.25)

    def err(dt):
        cfg = IntegratorConfig(dt=dt, t_end=0.25, dealias=True, record_every=10**9)
        traj = integrate(d, cfg)
        u, rho = traj.state(-1)
        eu, er = compare_states(u, rho, ue, rhoe)
        return max(eu, er)

    ratio = err(1e-2) / err(5e-3)
    assert 12.0 < ratio < 20.0


def _smooth_global_errors(n, dt, dealias):
    """Relative L2 errors of u and rho at t = 1, RK4 against the exact
    solution, for the smooth-global preset."""
    d = make_preset("smooth-global", PeriodicGrid(n))
    cfg = IntegratorConfig(dt=dt, t_end=1.0, dealias=dealias, record_every=10**9)
    u, rho = integrate(d, cfg).state(-1)
    return np.array(compare_states(u, rho, *exact_solution(d, 1.0)))


# With dealiasing the rho error at n = 512, dt = 1e-3 floors at the spatial
# error, so that case stops one step coarser.
@pytest.mark.parametrize(
    "dealias, dts",
    [(False, (4e-3, 2e-3, 1e-3)), (True, (8e-3, 4e-3, 2e-3))],
    ids=["dealias-off", "dealias-on"],
)
def test_time_convergence_is_fourth_order(dealias, dts):
    # n = 512 resolves the data, so the time step sets the error
    errors = [_smooth_global_errors(512, dt, dealias) for dt in dts]
    for coarse, fine in zip(errors, errors[1:]):
        assert np.all(np.log2(coarse / fine) >= 3.8)


# Dealiasing discards the top third of the modes, so its grids start one
# size finer: 64 -> 128 gains only about 10x on rho.
@pytest.mark.parametrize(
    "dealias, ns",
    [(False, (64, 128, 256)), (True, (128, 256, 512))],
    ids=["dealias-off", "dealias-on"],
)
def test_spatial_convergence_is_spectral(dealias, ns):
    # at dt = 1e-3 the time error stays below the coarser grids' spatial errors
    errors = [_smooth_global_errors(n, 1e-3, dealias) for n in ns]
    first, second = errors[0] / errors[1], errors[1] / errors[2]
    assert np.all(first >= 30.0) and np.all(second >= 30.0)
    assert np.all(second > first)


def test_restricted_flow_zero_mean_and_accuracy(grid):
    d = InitialData.from_u0x(
        grid, lambda x: np.sin(TWO_PI * x), lambda x: np.cos(TWO_PI * x)
    )
    cfg = IntegratorConfig(dt=1e-3, t_end=0.3, dealias=False, record_every=300)
    traj = integrate(d, cfg)
    assert np.max(np.abs(traj.rho_mean)) < 1e-14
    u, rho = traj.state(-1)
    ue, rhoe = exact_solution(d, 0.3)
    eu, er = compare_states(u, rho, ue, rhoe)
    assert max(eu, er) < 1e-9


def test_halt_on_gradient_limit(grid):
    # low threshold exercises the halt machinery on a blow-up run
    d = InitialData.from_u0x(
        grid, lambda x: np.cos(TWO_PI * x), lambda x: np.zeros_like(x)
    )
    T = blowup_time(d).T
    cfg = IntegratorConfig(dt=5e-4, t_end=2.0, dealias=True, record_every=100)
    with pytest.raises(StepBlowupError) as exc_info:
        integrate(d, cfg, ux_limit=5.0)
    err = exc_info.value
    assert err.halt_time is not None and 0.0 < err.halt_time < T
    assert err.trajectory is not None
    assert err.trajectory.times[-1] <= err.halt_time + 1e-12


def test_default_guard_halts_before_blowup(grid):
    # with the default limit, the label reading alone would let RK4 step
    # past the breakdown time; the Riccati-pole trip halts before it
    d = InitialData.from_u0x(
        grid, lambda x: np.cos(TWO_PI * x), lambda x: np.zeros_like(x)
    )
    T = blowup_time(d).T
    cfg = IntegratorConfig(dt=5e-4, t_end=T + 0.2, dealias=True, record_every=10**9)
    with pytest.raises(StepBlowupError) as exc_info:
        integrate(d, cfg)
    assert 0.0 < exc_info.value.halt_time < T


def test_label_reading_is_exact(grid):
    # the halt message names sup|Re w| of w = 2 f_t / f on the great circle
    d = make_preset("hs-blowup", grid)
    T = blowup_time(d).T
    cfg = IntegratorConfig(dt=5e-4, t_end=T + 0.2, dealias=True, record_every=10**9)
    with pytest.raises(StepBlowupError) as exc_info:
        integrate(d, cfg)
    reading = float(re.search(r"label sup\|Re w\| = (\S+)", str(exc_info.value))[1])
    c, t = speed(d), exc_info.value.halt_time
    w0 = d.u0x.values + 1j * d.rho0.values
    f = np.cos(c * t) + w0 * np.sin(c * t) / (2.0 * c)
    f_t = -c * np.sin(c * t) + 0.5 * w0 * np.cos(c * t)
    exact = np.max(np.abs((2.0 * f_t / f).real))
    assert abs(reading - exact) <= 1e-12 * exact


def _label_sup_alone(h, csq, t):
    """The label reading at one time, evaluated on its own."""
    c = math.sqrt(csq)
    cos_ct, s = math.cos(c * t), math.sin(c * t) / c if c else t
    with np.errstate(all="ignore"):
        w = 2.0 * (h * cos_ct - csq * s) / (cos_ct + h * s)
    return np.max(np.abs(w.real))


def _label_h_csq(d):
    h = 0.5 * (d.u0x.values + 1j * d.rho0.values)
    return h, float(np.mean(h.real * h.real + h.imag * h.imag))


def _assert_blocks_match(h, csq, blocks):
    for times in blocks:
        blocked = integrator._label_sups(h, csq, times)
        alone = [_label_sup_alone(h, csq, t) for t in times]
        assert np.array_equal(blocked, alone, equal_nan=True), times


@pytest.mark.parametrize("n", [64, 256])
def test_blocked_label_reading_is_bitwise_past_the_pole(n):
    # hs-blowup from t = 0 to 1.5 T, in blocks of 4,096 values
    d = make_preset("hs-blowup", PeriodicGrid(n))
    h, csq = _label_h_csq(d)
    dt, steps, block = 5e-4, int(1.5 * blowup_time(d).T / 5e-4), max(1, 4096 // n)
    times = [j * dt for j in range(steps)]
    _assert_blocks_match(h, csq, [times[i:i + block] for i in range(0, steps, block)])
    # a node at 1e308 overflows w: the readings turn inf or NaN (inf / inf)
    # or stay finite, depending on t and c
    h[3], times = 1e308, [j * 0.01 for j in range(300)]
    readings = np.concatenate(
        [integrator._label_sups(h, c2, times) for c2 in (0.01, 1.0)]
    )
    assert np.isinf(readings).any() and np.isnan(readings).any()
    assert np.isfinite(readings).any()
    for c2 in (0.01, 1.0):
        _assert_blocks_match(h, c2, [times[i:i + 7] for i in range(0, 300, 7)])


@pytest.mark.parametrize(
    "data, c_is_zero",
    [
        (lambda grid: make_preset("hs-blowup", grid), False),
        (lambda grid: _mean_free(make_preset("smooth-global", grid)), False),
        (underflow, True),
    ],
    ids=["hs-blowup", "restricted", "restricted-stationary-c0"],
)
def test_integrate_reads_the_label_guard_in_blocks(grid, monkeypatch, data, c_is_zero):
    # every block integrate evaluates equals the per-step readings, and
    # holds at most 4,096 values; the underflow data has c = 0
    d = data(grid)
    h, csq = _label_h_csq(d)
    assert (csq == 0.0) == c_is_zero
    blocks = []
    label_sups = integrator._label_sups

    def recording(h_in, csq_in, times):
        assert np.array_equal(h_in, h) and csq_in == csq
        blocks.append(list(times))
        return label_sups(h_in, csq_in, times)

    monkeypatch.setattr(integrator, "_label_sups", recording)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.1, dealias=True, record_every=10**9)
    integrate(d, cfg)
    monkeypatch.undo()
    assert [t for b in blocks for t in b][:100] == [j * 1e-3 for j in range(100)]
    assert all(len(b) * grid.n <= 4096 for b in blocks)
    _assert_blocks_match(h, csq, blocks)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([16, 64, 256]),
    st.sampled_from(["global", "sign-changing", "near-zero"]),
    st.floats(1.0, 6.0),
    st.integers(0, 2**32 - 1),
)
def test_label_bound_holds_for_all_time(n, rho_kind, half_periods, seed):
    # |Re w| <= B = 2 (c^2 + |h|^2) / |Im h| at every label whose B is
    # finite, read over several half-periods pi / c of the great circle
    g, rng = PeriodicGrid(n), np.random.default_rng(seed)
    ph = TWO_PI * np.outer(g.x, np.arange(1, 4))
    modes = np.hstack([np.cos(ph), np.sin(ph)])
    u0x, wave = modes @ rng.uniform(-2.0, 2.0, 6), modes @ rng.uniform(-1.0, 1.0, 6)
    rho0 = {
        "global": np.abs(wave).max() * rng.uniform(1.01, 3.0) + wave,
        "sign-changing": rng.uniform(-0.5, 0.5) + wave,
        "near-zero": 10.0 ** -rng.uniform(4.0, 12.0) * wave,
    }[rho_kind]
    h = 0.5 * (u0x + 1j * rho0)
    csq = float(np.mean(h.real * h.real + h.imag * h.imag))
    bound = integrator._label_bounds(h, csq)
    finite = np.isfinite(bound)
    span = half_periods * math.pi / math.sqrt(csq)
    times = [span * j / 500 for j in range(501)]
    # each label's sup over the times: a (labels, times, 1) broadcast
    sups = integrator._label_sups(h[finite, None, None], csq, times)[:, 0]
    assert np.all(sups <= bound[finite])


def _record_label_reads(monkeypatch):
    """Patch ``_label_sups`` to log the times of each block it evaluates."""
    blocks, label_sups = [], integrator._label_sups

    def recording(h, csq, times):
        blocks.append(list(times))
        return label_sups(h, csq, times)

    monkeypatch.setattr(integrator, "_label_sups", recording)
    return blocks


def _uncertified(monkeypatch):
    monkeypatch.setattr(
        integrator, "_label_bounds", lambda h, csq: np.full(h.shape, np.inf)
    )


@pytest.mark.parametrize("dealias", [False, True])
def test_certified_run_skips_the_label_reading(grid, monkeypatch, dealias):
    # smooth-global's rho0 > 0 bounds w for all time: no block is read, and
    # the trajectory is bit-identical to a run that reads every block
    d = make_preset("smooth-global", grid)
    cfg = IntegratorConfig(dt=5e-4, t_end=0.2, dealias=dealias, record_every=40)
    blocks = _record_label_reads(monkeypatch)
    skipped = integrate(d, cfg)
    assert blocks == []
    _uncertified(monkeypatch)
    read = integrate(d, cfg)
    assert len(blocks) == math.ceil(cfg.n_steps / (4096 // grid.n))
    for name in ("times", "u", "rho", "energy_times", "energy", "rho_mean"):
        assert np.array_equal(getattr(skipped, name), getattr(read, name)), name


def test_uncertified_run_reads_every_block(grid, monkeypatch):
    # hs-blowup's rho0 vanishes: its bound is infinite at those labels, and
    # the run reads the same blocks as one whose certificate is forced off
    d = make_preset("hs-blowup", grid)
    assert not np.all(np.isfinite(integrator._label_bounds(*_label_h_csq(d))))
    cfg = IntegratorConfig(dt=5e-4, t_end=0.2, dealias=True, record_every=40)
    blocks = _record_label_reads(monkeypatch)
    integrate(d, cfg)
    own, blocks[:] = list(blocks), []
    _uncertified(monkeypatch)
    integrate(d, cfg)
    assert own == blocks and len(own) == math.ceil(cfg.n_steps / (4096 // grid.n))


# tracemalloc peaks of a 4-step integrate that records only its last state,
# before the label guard was read in blocks: 0.280 MiB at n = 1024 and
# 1.100 MiB at n = 4096.  The margin is one block at its cap of 4,096
# values: w, its denominator and the buffers of a broadcast product's two
# operands, 16 bytes a value each.
@pytest.mark.parametrize("n, before_mib", [(1024, 0.280), (4096, 1.100)])
def test_integrate_memory_stays_near_one_step(n, before_mib):
    d = make_preset("hs-blowup", PeriodicGrid(n))
    cfg = IntegratorConfig(dt=1e-3, t_end=4e-3, dealias=True, record_every=10**9)
    integrate(d, cfg)  # the grid's multipliers are cached, as in a long run
    tracemalloc.start()
    try:
        integrate(d, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    margin = 4 * 4096 * 16
    assert peak <= before_mib * 2**20 + margin, f"peak {peak / 2**20:.3f} MiB"


def test_restricted_stationary_zero_speed(grid):
    # (0, 1e-170) is stationary and its energy underflows: c = 0, and the
    # guard reads w = 0
    d = underflow(grid)
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0, dealias=True, record_every=250)
    traj = integrate(d, cfg)
    assert traj.times[-1] == 1.0 and traj.energy_times[-1] == 1.0
    assert not np.any(traj.u) and np.all(traj.rho == d.rho0.values)


def test_restricted_halt_before_blowup(grid):
    # rho0 > 0, yet its mean-free part vanishes where u0_x = 0: the
    # restricted flow, that of the projected data, breaks down at its T
    d = _mean_free(InitialData.from_u0x(
        grid,
        lambda x: np.cos(TWO_PI * x),
        lambda x: 1.0 + 0.5 * np.cos(TWO_PI * x),
    ))
    T = blowup_time(d).T
    cfg = IntegratorConfig(dt=1e-3, t_end=T + 0.1, dealias=True, record_every=10**9)
    with pytest.raises(StepBlowupError) as exc_info:
        integrate(d, cfg, ux_limit=100.0)
    err = exc_info.value
    assert err.halt_time is not None and 0.0 < err.halt_time < T
    assert "label sup|Re w|" in str(err)


def test_trajectory_csv(grid, tmp_path):
    cfg = IntegratorConfig(dt=1e-2, t_end=0.1, dealias=True, record_every=5)
    traj = integrate(smooth_global(grid), cfg)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x,u,rho"
    assert len(lines) == 1 + len(traj.times) * grid.n
    # 17 significant digits read back bit-exactly
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    table = table.reshape(len(traj.times), grid.n, 4)
    assert np.array_equal(table[:, :, 2], traj.u)
    assert np.array_equal(table[:, :, 3], traj.rho)


def test_g17_format_renders_floats_like_fmt_float():
    # the trajectory CSV formats its u and rho columns with .17g directly
    for v in (math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
              1e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0):
        assert f"{v:.17g}" == "%.17g" % v == fmt_float(v)
    for v, text in ((math.nan, "nan"), (-math.nan, "nan"), (math.inf, "inf"),
                    (-math.inf, "-inf")):
        assert fmt_float(v) == fmt_float(np.float64(v)) == text


def test_trajectory_csv_matches_per_value_rendering(tmp_path):
    grid = PeriodicGrid(8)
    times = np.array([0.0, 0.25])
    u = np.array([np.linspace(-1.0, 1.0, 8), [math.nan, math.inf, -math.inf,
                                              -0.0, 5e-324, 1e308, 0.1, 1 / 3]])
    rho = -u[::-1]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, times, grid.x, u, rho)
    expected = ["t,x,u,rho"] + [
        ",".join(fmt_float(v) for v in (t, grid.x[j], u[i, j], rho[i, j]))
        for i, t in enumerate(times)
        for j in range(grid.n)
    ]
    assert path.read_text() == "\n".join(expected) + "\n"
