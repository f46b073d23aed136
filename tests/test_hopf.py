import numpy as np
import pytest

import hs2sphere.geometry as gm
import hs2sphere.hopf as hp
import hs2sphere.randfields as rf
from hs2sphere.funcspace import PeriodicFunction
from hs2sphere.group import GroupElement, metric, phi_map, tangent_phi
from hs2sphere.sphere import SpherePoint, SphereTangent


def test_project_p_collapses_constant_phase(grid, rng):
    a = rf.group_element(grid, rng)
    shifted = GroupElement(
        a.phi, PeriodicFunction(grid, a.alpha.values + 1.23), a.winding
    )
    assert hp.project_p(a).distance(hp.project_p(shifted)) < 1e-14
    const = GroupElement(
        PeriodicFunction(grid, grid.x), PeriodicFunction.constant(grid, 5.0), 0
    )
    kp = hp.project_p(const)
    assert np.max(np.abs(kp.alpha.values)) == 0.0
    # canonicalization is idempotent
    again = hp.project_p(kp)
    assert kp.distance(again) == 0.0


def test_project_q_gauge(grid, rng):
    theta = 0.77
    c = SpherePoint(
        PeriodicFunction.constant(grid, np.exp(1j * theta))
    )
    cp = hp.project_q(c)
    assert np.max(np.abs(cp.values - 1.0)) < 1e-14
    f = rf.nonvanishing_sphere_point(grid, rng)
    minus = SpherePoint(PeriodicFunction(grid, -f.values))
    assert hp.project_q(f).l2_distance(hp.project_q(minus)) < 1e-12
    rotated = SpherePoint(PeriodicFunction(grid, f.values * np.exp(1j * 2.1)))
    assert hp.project_q(f).l2_distance(hp.project_q(rotated)) < 1e-12


def test_quotient_points_are_canonical_representatives(grid, rng):
    a, f = rf.stacks(
        grid, rng, 20, rf.group_element, rf.nonvanishing_sphere_point
    )
    kp = hp.project_p(a)
    assert type(kp) is GroupElement
    assert np.all(kp.alpha.values[:, 0] == 0.0)
    assert np.array_equal(kp.phi.values, a.phi.values)
    cp = hp.project_q(f)
    assert type(cp) is SpherePoint
    z = cp.values[:, 0]
    assert np.all(np.abs(z.imag) <= 1e-10) and np.all(z.real > 0.0)


def test_sphere_splitting(grid, rng):
    f = rf.nonvanishing_sphere_point(grid, rng)
    X = rf.sphere_tangent(f, rng)
    Xh = hp.horizontal_sphere(X)
    Xv = hp.vertical_sphere(X)
    assert np.max(np.abs(Xh.values + Xv.values - X.values)) < 1e-13
    # horizontal part is orthogonal to the fiber direction i f
    pairing = np.mean((1j * f.values * np.conj(Xh.values)).real)
    assert abs(pairing) < 1e-10
    # orthogonal decomposition
    cross = np.mean((Xh.values * np.conj(Xv.values)).real)
    assert abs(cross) < 1e-10
    # vertical input is annihilated, horizontal is fixed
    vert = SphereTangent(PeriodicFunction(grid, 1j * f.values), f)
    assert np.max(np.abs(hp.horizontal_sphere(vert).values)) < 1e-13
    assert np.max(np.abs(hp.horizontal_sphere(Xh).values - Xh.values)) < 1e-13


def test_group_splitting(grid, rng):
    a = rf.group_element(grid, rng)
    U = rf.g_tangent(grid, rng)
    Uh = hp.horizontal_G(U, a)
    Uv = hp.vertical_G(U, a)
    assert np.max(np.abs(Uh.u2.values + Uv.u2.values - U.u2.values)) < 1e-13
    assert abs(metric(a, Uh, Uv)) < 1e-10
    const = GroupElement.identity(grid)
    W = hp.horizontal_G(rf.g_tangent(grid, rng), const)
    # at the identity the projection is plain mean removal
    assert abs(np.mean(W.u2.values)) < 1e-14
    V = hp.horizontal_G(
        hp.vertical_G(U, a), a
    )
    assert V.u2.max_abs() < 1e-13


def test_fubini_study_kernel_and_normalization(grid, rng):
    f = rf.nonvanishing_sphere_point(grid, rng)
    X = rf.sphere_tangent(f, rng)
    vert = SphereTangent(PeriodicFunction(grid, 1j * f.values), f)
    assert abs(hp.fubini_study(vert, X)) < 1e-12
    Xh = hp.horizontal_sphere(X)
    nrm = float(np.sqrt(np.mean(np.abs(Xh.values) ** 2)))
    unit = SphereTangent(PeriodicFunction(grid, Xh.values / nrm), f)
    assert hp.fubini_study(unit, unit) == pytest.approx(1.0, abs=1e-12)


def test_submersion_p_metric_equality(grid, rng):
    for _ in range(10):
        a = rf.group_element(grid, rng)
        U, V = rf.g_tangent(grid, rng), rf.g_tangent(grid, rng)
        Uh, Vh = hp.horizontal_G(U, a), hp.horizontal_G(V, a)
        assert abs(metric(a, Uh, Vh) - gm.metric_K_at(a, U, V)) < 1e-10


def test_psi_isometry(grid, rng):
    for _ in range(10):
        a = rf.group_element(grid, rng)
        U = hp.horizontal_G(rf.g_tangent(grid, rng), a)
        V = hp.horizontal_G(rf.g_tangent(grid, rng), a)
        f = phi_map(a)
        XU = SphereTangent(tangent_phi(a, U), f)
        XV = SphereTangent(tangent_phi(a, V), f)
        assert abs(gm.metric_K_at(a, U, V) - hp.fubini_study(XU, XV)) < 1e-10


def test_commuting_diagram(grid, rng):
    ident = GroupElement.identity(grid)
    assert hp.check_diagram(ident) < 1e-14
    const = GroupElement(
        PeriodicFunction(grid, grid.x), PeriodicFunction.constant(grid, 2.5), 0
    )
    assert hp.check_diagram(const) < 1e-14
    for _ in range(10):
        assert hp.check_diagram(rf.group_element(grid, rng)) < 1e-10


def test_oneill_identity(grid, rng):
    for _ in range(10):
        u, v = rf.k_tangent(grid, rng), rf.k_tangent(grid, rng)
        for route in ("closed", "local"):
            lhs, rhs, res = hp.oneill_check(u, v, route)
            assert res < 1e-8
    z = hp.oneill_check(u, u)[2]
    assert z < 1e-12


def test_oneill_J_plane_contributions(grid, rng):
    u = rf.k_tangent(grid, rng)
    u = u * (1.0 / gm.norm(u))
    Ju = gm.kahler_J(u)
    lhs, rhs, res = hp.oneill_check(u, Ju, "local")
    assert lhs == pytest.approx(4.0, abs=1e-8)
    m = hp.vertical_bracket_integral(u, Ju)
    bracket_term = 0.75 * m * m / 4.0
    omega_term = 3.0 * gm.symplectic_omega(u, Ju) ** 2
    assert bracket_term == pytest.approx(3.0, abs=1e-10)
    assert bracket_term == pytest.approx(omega_term, abs=1e-12)
    assert res < 1e-8
