"""Error-path coverage for the smaller API surfaces."""

import numpy as np
import pytest

import hs2sphere.funcspace as fs
import hs2sphere.hopf as hp
import hs2sphere.randfields as rf
from hs2sphere.errors import BaseMismatchError, GridMismatchError, ZeroAtBasePointError
from hs2sphere.funcspace import PeriodicFunction, PeriodicGrid
from hs2sphere.geodesics import InitialData, connect
from hs2sphere.group import GroupElement, TangentVector, multiply
from hs2sphere.sphere import SpherePoint, exp_at_one


def test_grid_mismatch_arithmetic():
    # every entry point that meets two grids names both sizes in one typed
    # error, before numpy meets arrays of different lengths
    small, large = PeriodicGrid(8), PeriodicGrid(16)
    f, g = PeriodicFunction.zeros(small), PeriodicFunction.zeros(large)
    a, b = GroupElement.identity(small), GroupElement.identity(large)
    for mismatch in (
        lambda: f + g,
        lambda: InitialData(f, PeriodicFunction.constant(large, 1.0)),
        lambda: TangentVector(f, g),
        lambda: GroupElement(a.phi, b.alpha),
        lambda: a.distance(b),
        lambda: connect(a, b),
        lambda: multiply(a, b),
        lambda: fs.compose(f, b.phi),
    ):
        with pytest.raises(GridMismatchError, match="n = 8.*n = 16|n = 16.*n = 8"):
            mismatch()


def test_exp_requires_base_one(grid, rng):
    f = rf.nonvanishing_sphere_point(grid, rng)
    X = rf.sphere_tangent(f, rng)
    with pytest.raises(ValueError):
        exp_at_one(X)




def test_fubini_study_base_mismatch(grid, rng):
    f = rf.nonvanishing_sphere_point(grid, rng)
    g = rf.nonvanishing_sphere_point(grid, rng)
    X = rf.sphere_tangent(f, rng)
    Y = rf.sphere_tangent(g, rng)
    with pytest.raises(BaseMismatchError):
        hp.fubini_study(X, Y)


def test_project_q_rejects_zero_at_base(grid):
    vals = np.sin(2 * np.pi * grid.x).astype(complex)  # vanishes at x = 0
    vals /= np.sqrt(np.mean(np.abs(vals) ** 2))
    with pytest.raises(ZeroAtBasePointError):
        hp.project_q(SpherePoint(PeriodicFunction(grid, vals)))




def test_values_are_immutable(grid, rng):
    f = PeriodicFunction.zeros(grid)
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(ValueError):
        grid.x[0] = 0.5
    U = rf.g_tangent(grid, rng)
    for carried in (U.u1x, U.u2x, rf.group_element(grid, rng).phi_x.values):
        with pytest.raises(ValueError):
            carried[0] = 1.0


def test_integrator_config_validation():
    from hs2sphere.integrator import IntegratorConfig

    nan, inf = float("nan"), float("inf")
    for kwargs in (
        {"dt": -1.0},
        {"record_every": 0},
        {"dt": nan},
        {"t_end": nan},
        {"dt": inf},
        {"t_end": inf},
        {"dt": 1e-300, "t_end": 1e10},
        {"dt": 1e-12, "t_end": 1.0},
    ):
        with pytest.raises(ValueError):
            IntegratorConfig(dealias=False, **kwargs)


def test_antiderivative_derivative_consistency(grid, rng):
    # F' recovers the zero-mean part of f; the mean rides on the lift slope
    f = rf.band_limited(grid, rng) + 0.7
    F = fs.antiderivative_from_zero(f)
    h = PeriodicFunction(grid, F.values - 0.7 * grid.x)
    back = fs.derivative(h) + 0.7
    assert np.max(np.abs(back.values - f.values)) < 1e-12
