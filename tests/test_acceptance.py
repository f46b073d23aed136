"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output) before asserting, so the suite doubles as a
human-readable report.  Tolerances are hard-coded here on purpose; they
are the contract.
"""

import math

import numpy as np
import pytest

import hs2sphere.funcspace as fs
import hs2sphere.geometry as gm
import hs2sphere.hopf as hp
import hs2sphere.randfields as rf
from hs2sphere.errors import StepBlowupError
from hs2sphere.funcspace import PeriodicFunction, PeriodicGrid
from hs2sphere.geodesics import (
    blowup_time,
    classify_existence,
    connect,
    exact_geodesic,
    exact_solution,
    log_map,
    speed,
)
from hs2sphere.group import (
    GroupElement,
    inverse,
    metric,
    multiply,
    phi_inverse,
    phi_map,
    tangent_phi,
)
from hs2sphere.integrator import IntegratorConfig, compare_states, integrate
from hs2sphere.presets import make_preset
from hs2sphere.sphere import log_at_one

from oracles import first_zero_time_scan, great_circle_min_modulus

N = 256
TWO_PI = 2.0 * np.pi


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)


@pytest.fixture(scope="module")
def grid():
    return PeriodicGrid(N)


def test_c1_cross_solver_agreement(grid):
    data = make_preset("smooth-global", grid)
    cfg = IntegratorConfig(dt=5e-4, t_end=1.0, dealias=False, record_every=2000)
    traj = integrate(data, cfg)
    u_num, rho_num = traj.state(-1)
    u_ex, rho_ex = exact_solution(data, 1.0)
    # strict per-component relative errors
    eu = np.sqrt(np.mean((u_num.values - u_ex.values) ** 2)) / np.sqrt(
        np.mean(u_ex.values**2)
    )
    er = np.sqrt(np.mean((rho_num.values - rho_ex.values) ** 2)) / np.sqrt(
        np.mean(rho_ex.values**2)
    )
    ok = eu < 1e-6 and er < 1e-6
    report(
        "criterion 1 (cross-solver agreement)",
        ok,
        f"rel L2 errors at t=1: u {eu:.3e}, rho {er:.3e} (tol 1e-6)",
    )
    assert ok


def test_c2_blowup_prediction(grid):
    data = make_preset("hs-blowup", grid)
    rep = blowup_time(data)
    c = speed(data)
    oracle_T = first_zero_time_scan(
        fs.derivative(data.u0).values, data.rho0.values, c, math.pi / c
    )
    gap = abs(rep.T - oracle_T)
    ok_T = rep.finite and gap < 1e-8

    rng = np.random.default_rng(2201)
    ok_cls = True
    for _ in range(50):
        want_global = bool(rng.uniform() < 0.5)
        d = rf.initial_data(grid, rng, global_existence=want_global)
        got = classify_existence(d).global_existence
        ok_cls = ok_cls and (got == want_global)

    ok = ok_T and ok_cls
    report(
        "criterion 2 (blow-up prediction)",
        ok,
        f"analytic T={rep.T:.10f} vs scan oracle {oracle_T:.10f} "
        f"(gap {gap:.2e}, tol 1e-8); 50/50 classifications "
        f"{'correct' if ok_cls else 'WRONG'}",
    )
    assert ok


def test_c2_integrator_halt_near_blowup(grid):
    """Gradient-limit halt near the breakdown time.

    The breakdown concentrates: the velocity gradient of the true solution,
    sampled on this grid, peaks near 8 because the steep region is far
    narrower than a grid cell.  The halt therefore rests on the guard's
    label reading, u_x + i rho carried along characteristics, which
    diverges as the breakdown time is approached.
    """
    data = make_preset("hs-blowup", grid)
    T = blowup_time(data).T
    cfg = IntegratorConfig(dt=5e-4, t_end=T + 0.2, dealias=True, record_every=10**9)
    halted_at = None
    try:
        integrate(data, cfg, ux_limit=100.0)
    except StepBlowupError as exc:
        halted_at = exc.halt_time
    ok = halted_at is not None and abs(halted_at - T) < 5e-2
    detail = (
        f"halted at {halted_at!r} vs T={T:.6f}"
        if halted_at is not None
        else f"no halt: sup|u_x| on the grid never exceeded 10^2 (T={T:.6f})"
    )
    report("criterion 2 (integrator halt near blow-up)", ok, detail)
    assert ok


def test_c3_periodicity_and_existence_bound(grid):
    rng = np.random.default_rng(2301)
    worst = 0.0
    for _ in range(50):
        d = rf.initial_data(grid, rng, global_existence=True, speed_range=(0.4, 2.0))
        c = speed(d)
        s = float(rng.uniform(0.1, TWO_PI))
        a = exact_geodesic(d, s / c)
        b = exact_geodesic(d, (s + TWO_PI) / c)
        worst = max(worst, a.distance(b))
    ok_periodic = worst < 1e-9

    worst_tc = 0.0
    for _ in range(50):
        d = rf.initial_data(grid, rng, global_existence=False)
        rep = blowup_time(d)
        assert rep.finite
        worst_tc = max(worst_tc, rep.T_unit_speed)
    ok_bound = worst_tc < math.pi

    ok = ok_periodic and ok_bound
    report(
        "criterion 3 (periodicity, T bound)",
        ok,
        f"worst |state(s) - state(s+2pi)| = {worst:.3e} (tol 1e-9); "
        f"max T*c = {worst_tc:.6f} < pi over 50 finite cases",
    )
    assert ok


def test_c4_isometry(grid):
    rng = np.random.default_rng(2401)
    worst = 0.0
    for _ in range(100):
        a = rf.group_element(grid, rng)
        U = rf.g_tangent(grid, rng)
        V = rf.g_tangent(grid, rng)
        TU, TV = tangent_phi(a, U), tangent_phi(a, V)
        lhs = float(np.mean((TU.values * np.conj(TV.values)).real))
        worst = max(worst, abs(lhs - metric(a, U, V)))
    ok_iso = worst < 1e-10

    worst_rt = 0.0
    for _ in range(20):
        a = rf.group_element(grid, rng)
        worst_rt = max(worst_rt, phi_inverse(phi_map(a)).distance(a))
        f = rf.nonvanishing_sphere_point(grid, rng)
        back = phi_map(phi_inverse(f))
        worst_rt = max(worst_rt, float(np.max(np.abs(back.values - f.values))))
    ok_rt = worst_rt < 1e-9

    ok = ok_iso and ok_rt
    report(
        "criterion 4 (isometry)",
        ok,
        f"worst pairing defect {worst:.3e} over 100 pairs (tol 1e-10); "
        f"worst round trip {worst_rt:.3e} (tol 1e-9)",
    )
    assert ok


def test_c5_curvature(grid):
    rng = np.random.default_rng(2501)
    worst_g = 0.0
    for _ in range(100):
        u, v = rf.g_tangent(grid, rng), rf.g_tangent(grid, rng)
        gram = gm.curvature_G(u, v)
        worst_g = max(worst_g, abs(gm.curvature_local(u, v) / gram - 1.0))
    ok_g = worst_g < 1e-8

    worst_k = 0.0
    worst_pinch = 0.0
    worst_j4 = 0.0
    for _ in range(100):
        u, v = rf.k_tangent(grid, rng), rf.k_tangent(grid, rng)
        closed = gm.curvature_K_closed(u, v)
        local = gm.curvature_local(u, v)
        worst_k = max(worst_k, abs(closed - local) / max(1.0, abs(closed)))
        sec = gm.sectional_curvature(u, v)
        worst_pinch = max(worst_pinch, 1.0 - sec, sec - 4.0)
        un = u * (1.0 / gm.norm(u))
        worst_j4 = max(
            worst_j4, abs(gm.sectional_curvature(un, gm.kahler_J(un)) - 4.0)
        )
    ok = ok_g and worst_k < 1e-8 and worst_pinch < 1e-8 and worst_j4 < 1e-8
    report(
        "criterion 5 (curvature)",
        ok,
        f"G local-vs-1 {worst_g:.3e}; K local-vs-closed {worst_k:.3e}; "
        f"pinching excess {max(worst_pinch, 0.0):.3e}; |sec(u,Ju)-4| "
        f"{worst_j4:.3e} (tol 1e-8)",
    )
    assert ok


def test_c6_kahler_suite(grid):
    rng = np.random.default_rng(2601)
    worst = {"J2": 0.0, "omega": 0.0, "herm": 0.0, "nablaJ": 0.0, "nij": 0.0}
    least_summand = math.inf
    for _ in range(100):
        u, v = rf.k_tangent(grid, rng), rf.k_tangent(grid, rng)
        worst["J2"] = max(
            worst["J2"], gm.norm(gm.kahler_J(gm.kahler_J(u)) + u)
        )
        worst["omega"] = max(
            worst["omega"],
            abs(gm.symplectic_omega(u, v) - gm.metric(gm.kahler_J(u), v)),
        )
        worst["herm"] = max(
            worst["herm"],
            abs(gm.metric(gm.kahler_J(u), gm.kahler_J(v)) - gm.metric(u, v)),
        )
        worst["nablaJ"] = max(worst["nablaJ"], gm.nabla_J_residual(u, v))
        terms = gm.nijenhuis_terms(u, v)
        least_summand = min(least_summand, max(gm.norm(t) for t in terms))
        worst["nij"] = max(worst["nij"], gm.norm(gm.nijenhuis(u, v)))
    ok = (
        worst["J2"] < 1e-10
        and worst["omega"] < 1e-10
        and worst["herm"] < 1e-10
        and worst["nablaJ"] < 1e-9
        and worst["nij"] < 1e-8
        and least_summand > 1e-2
    )
    report(
        "criterion 6 (Kahler suite)",
        ok,
        f"J^2 {worst['J2']:.2e} (1e-10); omega-compat {worst['omega']:.2e} "
        f"(1e-10); Hermitian {worst['herm']:.2e} (1e-10); nabla-J "
        f"{worst['nablaJ']:.2e} (1e-9); Nijenhuis {worst['nij']:.2e} (1e-8) "
        f"with summands >= {least_summand:.2e} (> 1e-2)",
    )
    assert ok


def test_c7_hopf_layer(grid):
    rng = np.random.default_rng(2701)
    worst_p = 0.0
    worst_q = 0.0
    worst_diag = 0.0
    for _ in range(100):
        a = rf.group_element(grid, rng)
        U, V = rf.g_tangent(grid, rng), rf.g_tangent(grid, rng)
        Uh, Vh = hp.horizontal_G(U, a), hp.horizontal_G(V, a)
        worst_p = max(
            worst_p, abs(metric(a, Uh, Vh) - gm.metric_K_at(a, U, V))
        )
        f = rf.nonvanishing_sphere_point(grid, rng)
        X, Y = rf.sphere_tangent(f, rng), rf.sphere_tangent(f, rng)
        Xv, Yv = hp.vertical_sphere(X), hp.vertical_sphere(Y)
        full = float(np.mean((X.values * np.conj(Y.values)).real))
        vert = float(np.mean((Xv.values * np.conj(Yv.values)).real))
        worst_q = max(worst_q, abs(hp.fubini_study(X, Y) - (full - vert)))
        worst_diag = max(worst_diag, hp.check_diagram(rf.group_element(grid, rng)))

    worst_oneill = 0.0
    for _ in range(100):
        u, v = rf.k_tangent(grid, rng), rf.k_tangent(grid, rng)
        worst_oneill = max(
            worst_oneill,
            hp.oneill_check(u, v, "closed")[2],
            hp.oneill_check(u, v, "local")[2],
        )
    u = rf.k_tangent(grid, rng)
    u = u * (1.0 / gm.norm(u))
    Ju = gm.kahler_J(u)
    lhs, _, res4 = hp.oneill_check(u, Ju, "local")
    m = hp.vertical_bracket_integral(u, Ju)
    bracket_term = 0.75 * m * m / 4.0
    omega_term = 3.0 * gm.symplectic_omega(u, Ju) ** 2
    ok_sec4 = (
        abs(lhs - 4.0) < 1e-8
        and res4 < 1e-8
        and abs(bracket_term - omega_term) < 1e-10
        and abs(bracket_term - 3.0) < 1e-8
    )

    ok = (
        worst_p < 1e-10
        and worst_q < 1e-10
        and worst_diag < 1e-10
        and worst_oneill < 1e-8
        and ok_sec4
    )
    report(
        "criterion 7 (Hopf layer)",
        ok,
        f"submersion p {worst_p:.2e}, q {worst_q:.2e} (1e-10); diagram "
        f"{worst_diag:.2e} (1e-10); O'Neill {worst_oneill:.2e} (1e-8); "
        f"sec=4 case: curvature {lhs:.10f}, vertical-bracket term "
        f"{bracket_term:.10f} = 3 omega^2 "
        f"{'ok' if ok_sec4 else 'MISMATCH'}",
    )
    assert ok


def test_c8_exp_log_and_connectivity(grid):
    rng = np.random.default_rng(2801)
    worst_rec = 0.0
    for _ in range(50):
        d = rf.initial_data(grid, rng, global_existence=True, speed_range=(0.3, 3.0))
        target = exact_geodesic(d, 1.0)
        res = log_map(target)
        rec = res.principal_data()
        worst_rec = max(
            worst_rec,
            float(np.max(np.abs(rec.u0.values - d.u0.values))),
            float(np.max(np.abs(rec.rho0.values - d.rho0.values))),
        )
    ok_rec = worst_rec < 1e-8

    def oracle_kind(g):
        f = phi_map(g)
        r0, _ = log_at_one(f)
        m_short = great_circle_min_modulus(f.values, r0, 0.0, r0)
        m_full = great_circle_min_modulus(f.values, r0, 0.0, TWO_PI)
        if m_short < 1e-6:
            return "none"
        if m_full < 1e-6:
            return "unique_short"
        return "periodic_family"

    agreements = 0
    cases = 0

    def check_case(g_mid):
        nonlocal agreements, cases
        b = rf.group_element(grid, rng)
        a = multiply(g_mid, b)
        got = connect(a, b).kind
        want = oracle_kind(multiply(a, inverse(b)))
        cases += 1
        agreements += int(got == want)

    for _ in range(20):  # generic pairs
        check_case(rf.group_element(grid, rng))
    for _ in range(15):  # phase difference touching 1 somewhere
        amp = float(rng.uniform(1.0, 3.0))
        g_mid = GroupElement(
            PeriodicFunction(grid, grid.x),
            PeriodicFunction(grid, amp * np.sin(TWO_PI * grid.x)),
            0,
        )
        check_case(g_mid)
    for _ in range(15):  # engineered obstruction: phase hits -1
        amp = float(rng.uniform(0.5, 3.0))
        g_mid = GroupElement(
            PeriodicFunction(grid, grid.x),
            PeriodicFunction(grid, TWO_PI + amp * np.sin(TWO_PI * grid.x)),
            0,
        )
        check_case(g_mid)

    ok = ok_rec and agreements == cases
    report(
        "criterion 8 (exp/log, connectivity)",
        ok,
        f"worst log recovery {worst_rec:.3e} over 50 (tol 1e-8); "
        f"classifier vs sampled-geodesic oracle {agreements}/{cases}",
    )
    assert ok


def test_c9_conservation_and_order(grid):
    data = make_preset("smooth-global", grid)
    cfg = IntegratorConfig(dt=5e-4, t_end=1.0, dealias=True, record_every=2000)
    traj = integrate(data, cfg)
    drift = float(np.max(np.abs(traj.energy - traj.energy[0])) / traj.energy[0])
    mean_drift = float(np.max(np.abs(traj.rho_mean - traj.rho_mean[0])))
    ok_cons = drift < 1e-8 and mean_drift < 1e-10

    u_ex, rho_ex = exact_solution(data, 0.25)

    def err(dt):
        c = IntegratorConfig(dt=dt, t_end=0.25, dealias=True, record_every=10**9)
        t = integrate(data, c)
        u, rho = t.state(-1)
        eu, er = compare_states(u, rho, u_ex, rho_ex)
        return max(eu, er)

    ratio = err(1e-2) / err(5e-3)
    ok_order = 12.0 < ratio < 20.0

    ok = ok_cons and ok_order
    report(
        "criterion 9 (conservation, RK4 order)",
        ok,
        f"energy drift {drift:.3e} (1e-8), mean-rho drift {mean_drift:.3e} "
        f"(1e-10); dt-halving error ratio {ratio:.2f} in [12, 20]",
    )
    assert ok
