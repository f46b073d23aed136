import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hs2sphere.randfields as rf
from hs2sphere.errors import (
    AntipodalOrIdentityError,
    NotTangentError,
    NotUnitNormError,
    ZeroTangentError,
)
from hs2sphere.funcspace import PeriodicFunction, PeriodicGrid
from hs2sphere.sphere import (
    SpherePoint,
    SphereTangent,
    exp_at_one,
    first_zero,
    great_circle,
    log_at_one,
    log_at_one_parts,
    project_to_tangent,
)

TWO_PI = 2.0 * np.pi


def _unit_tangent_at_one(grid, rng):
    one = SpherePoint.constant_one(grid)
    X = rf.sphere_tangent(one, rng)
    norm = X.norm()
    return SphereTangent(PeriodicFunction(grid, X.values / norm), one)


def test_constructor_renormalizes_small_defect(grid):
    vals = (1.0 + 1e-8) * np.ones(grid.n, dtype=complex)
    p = SpherePoint(PeriodicFunction(grid, vals))
    assert abs(p.f.l2_norm() - 1.0) < 1e-15


def test_constructor_rejects_large_defect(grid):
    with pytest.raises(NotUnitNormError):
        SpherePoint(PeriodicFunction.constant(grid, 2.0 + 0.0j))


def test_exp_antipode_and_fiber(grid, rng):
    X = _unit_tangent_at_one(grid, rng)
    minus_one = exp_at_one(
        SphereTangent(PeriodicFunction(grid, np.pi * X.values), X.base)
    )
    assert np.max(np.abs(minus_one.values + 1.0)) < 1e-12
    full_turn = exp_at_one(
        SphereTangent(PeriodicFunction(grid, TWO_PI * X.values), X.base)
    )
    assert np.max(np.abs(full_turn.values - 1.0)) < 1e-12


def test_exp_unit_norm_and_zero_tangent(grid, rng):
    X = _unit_tangent_at_one(grid, rng)
    for r in (0.3, 1.2, 2.9):
        p = exp_at_one(SphereTangent(PeriodicFunction(grid, r * X.values), X.base))
        assert abs(p.f.l2_norm() - 1.0) < 1e-12
    with pytest.raises(ZeroTangentError):
        exp_at_one(
            SphereTangent(PeriodicFunction.zeros(grid) * (1.0 + 0j), X.base)
        )


def test_exp_fiber_consistency(grid, rng):
    X = _unit_tangent_at_one(grid, rng)
    r0 = 1.1
    a = exp_at_one(SphereTangent(PeriodicFunction(grid, r0 * X.values), X.base))
    b = exp_at_one(
        SphereTangent(PeriodicFunction(grid, (r0 + TWO_PI) * X.values), X.base)
    )
    assert a.l2_distance(b) < 1e-9


def test_log_constant_i(grid):
    f = SpherePoint(PeriodicFunction.constant(grid, 1j))
    r0, X0 = log_at_one(f)
    assert r0 == pytest.approx(np.pi / 2.0, abs=1e-14)
    assert np.max(np.abs(X0.values - 1j)) < 1e-14


def test_log_exp_round_trip(grid, rng):
    X = _unit_tangent_at_one(grid, rng)
    f = exp_at_one(SphereTangent(PeriodicFunction(grid, 0.7 * X.values), X.base))
    r0, X0 = log_at_one(f)
    assert abs(r0 - 0.7) < 1e-9
    assert np.max(np.abs(X0.values - X.values)) < 1e-9


def test_log_rejects_poles(grid):
    with pytest.raises(AntipodalOrIdentityError):
        log_at_one(SpherePoint.constant_one(grid))
    with pytest.raises(AntipodalOrIdentityError):
        log_at_one(SpherePoint(PeriodicFunction.constant(grid, -1.0 + 0j)))


# -- the great circle from 1 ---------------------------------------------------

_CIRCLE = dict(
    n=st.sampled_from([16, 64, 256]),
    seed=st.integers(0, 2**32 - 1),
    r=st.floats(1e-3, np.pi - 1e-3),
)


def _unit_k(n, seed):
    return _unit_tangent_at_one(PeriodicGrid(n), np.random.default_rng(seed)).values


@settings(max_examples=60, deadline=None)
@given(**_CIRCLE)
def test_log_at_one_inverts_the_great_circle(n, seed, r):
    k = _unit_k(n, seed)
    g, _ = great_circle(k, r)
    r0, x_re, x_im = log_at_one_parts(g.real, g.imag)
    assert abs(r0 - r) <= 1e-12
    # sqrt(1 - mu^2) carries mu's roundoff over sin(r)^2: 1.9e-10 at r = 1e-3
    cancel = 8.0 * np.finfo(float).eps * np.max(np.abs(k)) / np.sin(r) ** 2
    assert np.max(np.abs(x_re + 1j * x_im - k)) <= 1e-10 + cancel


@settings(max_examples=60, deadline=None)
@given(**_CIRCLE)
def test_great_circle_velocity_is_the_unit_tangent_derivative(n, seed, r):
    k, h = _unit_k(n, seed), 1e-5
    g, v = great_circle(k, r)
    central = (great_circle(k, r + h)[0] - great_circle(k, r - h)[0]) / (2.0 * h)
    assert np.max(np.abs(v - central)) <= 1e-8
    assert abs(np.mean((v * np.conj(g)).real)) <= 1e-12
    assert abs(np.sqrt(np.mean(np.abs(v) ** 2)) - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    size=st.floats(1e-8, 1e6),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_first_zero_is_the_first_zero_of_a_real_circle(size, sign):
    k = sign * size
    s = first_zero(k)
    assert 0.0 < s < np.pi
    assert abs(np.cos(s) + k * np.sin(s)) <= 1e-14 * max(1.0, abs(k))
    scan = s * np.arange(1, 1000) / 1000.0
    assert np.all(np.cos(scan) + k * np.sin(scan) > 0.0)


def test_tangent_projection(grid, rng):
    f = rf.nonvanishing_sphere_point(grid, rng)
    raw = PeriodicFunction(
        grid, rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    )
    X = project_to_tangent(f, raw)
    assert abs(np.mean((X.values * np.conj(f.values)).real)) < 1e-12


def test_tangent_rejects_a_radial_component(grid, rng):
    f = rf.nonvanishing_sphere_point(grid, rng)
    with pytest.raises(NotTangentError, match="tangency defect"):
        SphereTangent(f.f, f)
    raw = PeriodicFunction(grid, rng.normal(size=grid.n) + 0j)
    X = project_to_tangent(f, raw).values
    SphereTangent(PeriodicFunction(grid, X), f)
    with pytest.raises(NotTangentError):
        SphereTangent(PeriodicFunction(grid, X + 1e-6 * f.values), f)
