"""Who owns a function's samples, and the row reductions every module shares.

The public ``PeriodicFunction`` constructor copies the caller's array; the
library wraps the arrays it has just made without a copy
(``PeriodicFunction._own``).  Either way the samples are read-only.  Row
reductions go through funcspace's helpers, which call numpy's ufunc
reductions directly and keep np.mean's, np.max's, np.min's and np.any's
bits.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hs2sphere.funcspace as fs
import hs2sphere.randfields as rf
from hs2sphere.funcspace import PeriodicFunction, PeriodicGrid
from hs2sphere.geodesics import exact_solution, log_map
from hs2sphere.group import inverse, multiply, phi_map, tangent_phi
from hs2sphere.integrator import IntegratorConfig, integrate, rhs
from hs2sphere.presets import make_preset
from hs2sphere.verification import run_suite

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hs2sphere"


def test_public_constructor_copies_the_callers_array():
    g = PeriodicGrid(8)
    for source in (np.arange(8.0), np.arange(8.0) + 0.5j, np.zeros((3, 8))):
        f = PeriodicFunction(g, source)
        kept = f.values.copy()
        source[...] = -7.0
        assert np.array_equal(f.values, kept)
        assert not f.values.flags.writeable


def test_trajectory_state_rows_do_not_alias_the_trajectory():
    d = make_preset("smooth-global", PeriodicGrid(32))
    traj = integrate(d, IntegratorConfig(dt=1e-2, t_end=0.05, dealias=False))
    u, rho = traj.state(-1)
    assert not np.shares_memory(u.values, traj.u)
    assert not np.shares_memory(rho.values, traj.rho)
    kept = u.values.copy(), rho.values.copy()
    traj.u[-1] += 1.0
    traj.rho[-1] += 1.0
    assert np.array_equal(u.values, kept[0]) and np.array_equal(rho.values, kept[1])


@pytest.fixture(scope="module")
def inputs():
    g = PeriodicGrid(64)
    rng = np.random.default_rng(38)
    f, h = rf.band_limited(g, rng), rf.band_limited(g, rng)
    a, b = rf.group_element(g, rng), rf.group_element(g, rng)
    return f, h, a, b, rf.g_tangent(g, rng)


RESULTS = {
    "add": lambda f, h, a, b, U: f + h,
    "radd": lambda f, h, a, b, U: 1.5 + f,
    "sub": lambda f, h, a, b, U: f - h,
    "rsub": lambda f, h, a, b, U: 1.5 - f,
    "mul": lambda f, h, a, b, U: f * h,
    "rmul": lambda f, h, a, b, U: 1.5 * f,
    "truediv": lambda f, h, a, b, U: f / 1.5,
    "neg": lambda f, h, a, b, U: -f,
    "derivative": lambda f, h, a, b, U: fs.derivative(f),
    "compose": lambda f, h, a, b, U: fs.compose(f, a.phi),
    "invert_diffeo": lambda f, h, a, b, U: fs.invert_diffeo(a.phi),
    "multiply.phi": lambda f, h, a, b, U: multiply(a, b).phi,
    "multiply.alpha": lambda f, h, a, b, U: multiply(a, b).alpha,
    "multiply.phi_x": lambda f, h, a, b, U: multiply(a, b).phi_x,
    "inverse.phi": lambda f, h, a, b, U: inverse(a).phi,
    "inverse.alpha": lambda f, h, a, b, U: inverse(a).alpha,
    "phi_map": lambda f, h, a, b, U: phi_map(a).f,
    "tangent_phi": lambda f, h, a, b, U: tangent_phi(a, U),
}


@pytest.mark.parametrize("name", RESULTS)
def test_library_results_are_read_only(name, inputs):
    out = RESULTS[name](*inputs)
    assert isinstance(out, PeriodicFunction)
    assert not out.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        out.values[..., 1] = 0.0


def test_library_wraps_its_own_arrays_without_copies(monkeypatch):
    copies, owned = [], []
    init, own = PeriodicFunction.__init__, PeriodicFunction._own.__func__

    def counting_init(self, grid, values):
        copies.append(np.shape(values))
        init(self, grid, values)

    def checking_own(cls, grid, values):
        owned.append((values.dtype, values.shape[-1] == grid.n))
        return own(cls, grid, values)

    monkeypatch.setattr(PeriodicFunction, "__init__", counting_init)
    monkeypatch.setattr(PeriodicFunction, "_own", classmethod(checking_own))
    assert run_suite(n=64, samples=2)["all_pass"]
    # the identity's phi = x, a view of the grid's nodes: two per suite
    assert len(copies) <= 4
    assert len(owned) > 500
    d = make_preset("hs-blowup", PeriodicGrid(64))
    exact_solution(d, 0.5)
    rhs(d.u0, d.rho0, dealias=True)
    rng = np.random.default_rng(1)
    log_map(multiply(rf.group_element(d.grid, rng), rf.group_element(d.grid, rng)))
    assert {dtype for dtype, _ in owned} == {np.dtype(float), np.dtype(complex)}
    assert all(fits for _, fits in owned)


# NaN, infinities and signed zeros drawn often; any float64 now and then
_FLOATS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0]),
    st.floats(-1e3, 1e3),
    st.floats(),
)
_COMPLEX = st.builds(complex, _FLOATS, _FLOATS)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["real", "complex"]),
    shape=st.one_of(
        st.tuples(st.integers(1, 300)),
        st.tuples(st.integers(1, 5), st.integers(1, 300)),
    ),
)
def test_row_helpers_are_numpy_bit_for_bit(data, kind, shape):
    dtype, elements = (float, _FLOATS) if kind == "real" else (complex, _COMPLEX)
    v = data.draw(hnp.arrays(dtype, shape, elements=elements))
    with np.errstate(all="ignore"):
        for keepdims in (False, True):
            kw = {"axis": -1, "keepdims": keepdims}
            _same_bits(fs.row_mean(v, keepdims=keepdims), np.mean(v, **kw))
            _same_bits(fs.row_max(v, keepdims=keepdims), np.max(v, **kw))
        _same_bits(fs.row_min(v), np.min(v, axis=-1))
        if v.ndim == 1:  # where a whole-array mean of one function was
            _same_bits(fs.row_mean(v), np.mean(v))
    for flags in (np.isnan(v), v == 0.0, np.isinf(v[..., 0])):
        assert fs.any_row(flags) is bool(np.any(flags))
    assert fs.any_row(bool(v.flat[0] == 0.0)) is bool(v.flat[0] == 0.0)


def test_no_module_calls_numpys_reduction_wrappers():
    # the hot paths reduce through funcspace's row helpers; these numpy
    # functions cost a Python wrapper around each ufunc call
    wrappers = {"mean", "any", "iscomplexobj"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "np"
                and func.attr in wrappers
            ):
                found.append(f"{path.name}:{node.lineno} np.{func.attr}")
    assert found == []
