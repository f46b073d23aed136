import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hs2sphere.funcspace as fs
import hs2sphere.randfields as rf
from hs2sphere.errors import NonZeroMeanError, NotMonotoneError
from hs2sphere.funcspace import PeriodicFunction, PeriodicGrid
from hs2sphere.geodesics import InitialData, exact_geodesic, exact_solution
from hs2sphere.group import GroupElement, inverse, multiply
from hs2sphere.integrator import IntegratorConfig, integrate
from hs2sphere.verification import _right_translate, run_suite

from oracles import (
    brentq_inverse,
    centered_difference,
    dense_dft_multiplier,
    dense_trig_interpolate,
    refined_grid_composition,
)

TWO_PI = 2.0 * np.pi


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(6)
    with pytest.raises(ValueError):
        PeriodicGrid(255)
    g = PeriodicGrid(8)
    assert g.x[1] == 0.125


def test_derivative_eigenfunction(grid):
    f = PeriodicFunction.from_callable(grid, lambda x: np.sin(TWO_PI * x))
    d = fs.derivative(f)
    expected = TWO_PI * np.cos(TWO_PI * grid.x)
    assert np.max(np.abs(d.values - expected)) < 1e-12


def test_derivative_constant_is_zero(grid):
    d = fs.derivative(PeriodicFunction.constant(grid, 1.0))
    assert np.max(np.abs(d.values)) == 0.0


def test_derivative_linear(grid, rng):
    def band_limited():
        k = np.arange(1, 32)
        a = rng.normal(size=31) / k**2
        b = rng.normal(size=31) / k**2
        phases = TWO_PI * np.outer(k, grid.x)
        return PeriodicFunction(grid, a @ np.cos(phases) + b @ np.sin(phases))

    f, g = band_limited(), band_limited()
    lhs = fs.derivative(f * 2.0 + g * (-3.5))
    rhs = fs.derivative(f) * 2.0 + fs.derivative(g) * (-3.5)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


def test_derivative_matches_finite_differences(grid):
    # smooth non-band-limited target: centered differences converge at O(h^2)
    f = PeriodicFunction.from_callable(grid, lambda x: np.exp(np.sin(TWO_PI * x)))
    d = fs.derivative(f)
    fd = centered_difference(f.values, 1.0 / grid.n)
    # second-order FD error for this function at n=256 is ~2e-3
    assert np.max(np.abs(d.values - fd)) < 5e-3
    fine = PeriodicGrid(1024)
    f4 = PeriodicFunction.from_callable(fine, lambda x: np.exp(np.sin(TWO_PI * x)))
    fd4 = centered_difference(f4.values, 1.0 / fine.n)
    err4 = np.max(np.abs(fs.derivative(f4).values - fd4))
    err1 = np.max(np.abs(d.values - fd))
    assert 10.0 < err1 / err4 < 26.0  # FD error drops ~16x per 4x refinement


def test_integrate_values(grid):
    one = PeriodicFunction.constant(grid, 1.0)
    assert fs.row_mean(one.values) == pytest.approx(1.0)
    s = PeriodicFunction.from_callable(grid, lambda x: np.sin(TWO_PI * x))
    assert abs(fs.row_mean(s.values)) < 1e-15
    c2 = PeriodicFunction.from_callable(grid, lambda x: np.cos(TWO_PI * x) ** 2)
    assert fs.row_mean(c2.values) == pytest.approx(0.5, abs=1e-14)


def test_integrate_of_derivative_vanishes(grid, rng):
    f = PeriodicFunction(grid, rng.normal(size=grid.n))
    assert abs(fs.row_mean(fs.derivative(f).values)) < 1e-13


def test_antiderivative_cases(grid):
    c = PeriodicFunction.from_callable(grid, lambda x: np.cos(TWO_PI * x))
    F = fs.antiderivative_from_zero(c)
    assert np.max(np.abs(F.values - np.sin(TWO_PI * grid.x) / TWO_PI)) < 1e-14
    one = fs.antiderivative_from_zero(PeriodicFunction.constant(grid, 1.0))
    assert np.max(np.abs(one.values - grid.x)) == 0.0
    s = PeriodicFunction.from_callable(grid, lambda x: np.sin(TWO_PI * x))
    F2 = fs.antiderivative_from_zero(s)
    expected = (1.0 - np.cos(TWO_PI * grid.x)) / TWO_PI
    assert np.max(np.abs(F2.values - expected)) < 1e-14
    assert F.values[0] == 0.0 and F2.values[0] == 0.0


def test_inverse_A_symbolic(grid):
    c = PeriodicFunction.from_callable(grid, lambda x: np.cos(TWO_PI * x))
    g = fs.inverse_A(c)
    expected = (np.cos(TWO_PI * grid.x) - 1.0) / (4.0 * np.pi**2)
    assert np.max(np.abs(g.values - expected)) < 1e-15
    assert g.values[0] == 0.0


def test_inverse_A_round_trip(grid, rng):
    zero = fs.inverse_A(PeriodicFunction.zeros(grid))
    assert np.max(np.abs(zero.values)) == 0.0
    f = fs.mean_projection(
        PeriodicFunction.from_callable(
            grid, lambda x: np.sin(TWO_PI * x) + 0.3 * np.cos(3 * TWO_PI * x)
        )
    )
    g = fs.inverse_A(f)
    back = -fs.derivative(fs.derivative(g)).values
    assert np.max(np.abs(back - f.values)) < 1e-10


def test_inverse_A_rejects_nonzero_mean(grid):
    with pytest.raises(NonZeroMeanError):
        fs.inverse_A(PeriodicFunction.constant(grid, 0.5))


def test_inverse_A_judges_the_mean_relative_to_the_data(grid):
    # a projected function scaled by 1e8 keeps a roundoff mean of about
    # 2e-8, above the absolute 1e-10 but 1e-16 of the data; a row at scale
    # 1e-6 with a true mean of 1e-15 (1e-9 of it) is still refused
    f = fs.mean_projection(
        PeriodicFunction.from_callable(grid, lambda x: np.exp(np.sin(TWO_PI * x)))
    ) * 1e8
    assert abs(np.mean(f.values)) > fs.MEAN_TOL
    g = fs.inverse_A(f)
    assert np.max(np.abs(-fs.derivative(fs.derivative(g)).values - f.values)) < 1e-2
    small = 1e-6 * np.cos(TWO_PI * grid.x) + 1e-15
    stack = PeriodicFunction(grid, np.stack([f.values, small]))
    with pytest.raises(NonZeroMeanError) as err:
        fs.inverse_A(stack)
    mean = float(str(err.value).rsplit("|mean|=", 1)[1])  # a plain float
    assert mean == pytest.approx(1e-15, rel=1e-6)


def test_unit_interval_is_np_mod_bit_for_bit():
    # y - floor(y) in place of np.mod(y, 1.0): the same bits on the edge
    # cases and on random values of every size
    edges = np.array([
        -1e-20, -0.0, 0.0, -1.0, -3.0, 7.0, 1.0 - 2.0**-53, -(1.0 - 2.0**-53),
        2.0**52 + 0.5, -(2.0**52 + 0.5), 1e300, -1e300, 5e-324, -5e-324,
        np.inf, -np.inf, np.nan,
    ])
    rng = np.random.default_rng(0)
    y = np.concatenate([
        edges,
        rng.uniform(-2.0, 2.0, 10_000),
        rng.normal(size=10_000) * 10.0 ** rng.uniform(-30, 30, 10_000),
        np.arange(-4096, 4097) / 4096.0,
    ])
    with np.errstate(invalid="ignore"):  # at the infinities
        got, want = fs._unit_interval(y), np.mod(y, 1.0)
    assert got.tobytes() == want.tobytes()


def test_mean_projection(grid, rng):
    assert np.max(np.abs(fs.mean_projection(PeriodicFunction.constant(grid, 3.0)).values)) == 0.0
    f = PeriodicFunction.from_callable(grid, lambda x: 2.0 + np.cos(TWO_PI * x))
    p = fs.mean_projection(f)
    assert np.max(np.abs(p.values - np.cos(TWO_PI * grid.x))) < 1e-14
    # idempotent
    q = fs.mean_projection(p)
    assert np.max(np.abs(q.values - p.values)) < 1e-15


def test_mean_projection_self_adjoint(grid, rng):
    f = PeriodicFunction(grid, rng.normal(size=grid.n))
    g = PeriodicFunction(grid, rng.normal(size=grid.n))
    lhs = fs.row_mean((fs.mean_projection(f) * g).values)
    rhs = fs.row_mean((f * fs.mean_projection(g)).values)
    assert abs(lhs - rhs) < 1e-13


def _smooth_diffeo(grid, amp=0.2):
    h = amp * np.sin(TWO_PI * grid.x) / TWO_PI
    return PeriodicFunction(grid, grid.x + h)


def test_compose_identity_exact(grid):
    f = PeriodicFunction.from_callable(grid, lambda x: np.exp(np.sin(TWO_PI * x)))
    ident = PeriodicFunction(grid, grid.x)
    assert np.array_equal(fs.compose(f, ident).values, f.values)


def test_compose_shift(grid):
    # composing with x + 1/4 turns sin into cos
    shift = PeriodicFunction(grid, grid.x + 0.25)
    f = PeriodicFunction.from_callable(grid, lambda x: np.sin(TWO_PI * x))
    comp = fs.compose(f, shift)
    assert np.max(np.abs(comp.values - np.cos(TWO_PI * grid.x))) < 1e-13


def test_compose_matches_refined_grid_oracle(grid, rng):
    coeffs = rng.normal(size=6) / (np.arange(1, 7) ** 2)

    def f_fn(x):
        return sum(
            c * np.cos(TWO_PI * (k + 1) * x) for k, c in enumerate(coeffs)
        )

    phi = _smooth_diffeo(grid, amp=0.3)
    f = PeriodicFunction.from_callable(grid, f_fn)
    ours = fs.compose(f, phi).values
    oracle = refined_grid_composition(f_fn, phi.values, 10 * grid.n)
    assert np.max(np.abs(ours - oracle)) < 1e-8


def test_compose_rejects_non_monotone(grid):
    bad = PeriodicFunction(grid, grid.x + np.sin(TWO_PI * grid.x) / TWO_PI)
    # slope 1 + cos hits zero at x = 1/2
    f = PeriodicFunction.from_callable(grid, lambda x: np.sin(TWO_PI * x))
    with pytest.raises(NotMonotoneError):
        fs.compose(f, bad)


def test_invert_diffeo_identity(grid):
    ident = PeriodicFunction(grid, grid.x)
    inv = fs.invert_diffeo(ident)
    assert np.max(np.abs(inv.values - grid.x)) < 1e-12


def test_invert_diffeo_round_trip(grid):
    phi = _smooth_diffeo(grid, amp=0.35)
    inv = fs.invert_diffeo(phi)
    rt1 = fs.compose(phi, inv, 1.0)
    rt2 = fs.compose(inv, phi, 1.0)
    assert np.max(np.abs(rt1.values - grid.x)) < 1e-9
    assert np.max(np.abs(rt2.values - grid.x)) < 1e-9


@pytest.mark.parametrize("n", [8, 64, 256, 4096])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_trig_interpolate_matches_dense_formula(n, kind, rng):
    g = PeriodicGrid(n)
    vals = rng.normal(size=n)
    if kind == "complex":
        vals = vals + 1j * rng.normal(size=n)
    f = PeriodicFunction(g, vals)
    off = rng.uniform(-1.5, 2.5, size=300)
    near = g.x[::3] + 5e-13 / n * rng.uniform(-1.0, 1.0, size=g.x[::3].size)
    pts = np.concatenate([off, g.x, g.x + 1.0, near])
    ours = fs.trig_interpolate(f, pts)
    assert ours.dtype == vals.dtype and ours.shape == pts.shape
    # the dense oracle builds a points x (n + 1) matrix: keep slices small
    ref = np.concatenate([
        dense_trig_interpolate(vals, pts[s : s + 256])
        for s in range(0, pts.size, 256)
    ])
    assert np.max(np.abs(ours - ref)) < 2e-15 * n * np.max(np.abs(vals))
    # grid-coincident points, one period over or within 1e-12 / n, snap
    snapped = np.concatenate([vals, vals, vals[::3]])
    assert np.array_equal(ours[off.size :], snapped)

    # the Nyquist coefficient is split: samples (-1)^j give cos(pi n x)
    nyq = PeriodicFunction(g, np.cos(np.pi * n * g.x))
    nyq_off = fs.trig_interpolate(nyq, off)
    # n * off and its remainder mod 2 are exact, so the reference is exact
    # to roundoff even where pi * n * off would lose 1e-12 to rounding
    exact = np.cos(np.pi * np.mod(n * off, 2.0))
    assert np.max(np.abs(nyq_off - exact)) < 1e-12


# Worst over 200 seeded draws (n = 8, 64, 256, and 4096 in 20 of them):
# 7.3e-16 n (pi n)^order max |vals|, on the Nyquist samples; the bound is
# 5x above.
@pytest.mark.parametrize("n", [8, 256, 4096])
@pytest.mark.parametrize("kind", ["real", "complex", "nyquist"])
def test_fine_grid_derivative_rows_match_dense_formula(n, kind, rng):
    if kind == "nyquist":
        vals = (-1.0) ** np.arange(n)
    else:
        vals = rng.normal(size=n)
        if kind == "complex":
            vals = vals + 1j * rng.normal(size=n)
    pts = rng.uniform(-1.5, 2.5, size=300)
    rows = fs._gather(fs._fine_grid(vals, (0, 1, 2)), pts)
    assert rows.dtype == vals.dtype and rows.shape == (3, pts.size)
    for order, row in enumerate(rows):
        ref = np.concatenate([
            dense_trig_interpolate(vals, pts[s : s + 256], order)
            for s in range(0, pts.size, 256)
        ])
        scale = n * (np.pi * n) ** order * np.max(np.abs(vals))
        assert np.max(np.abs(row - ref)) < 4e-15 * scale


def test_one_fourier_convention(grid, rng, monkeypatch):
    # every transform of the library is a real FFT through the funcspace
    # entry points: exact states, group products and inverses, the identity
    # suite and RK4 run without the complex pair or numpy's FFT wrappers
    def refuse(*args, **kwargs):
        raise AssertionError("np.fft called")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    smooth = InitialData.from_u0x(
        grid, lambda x: np.sin(TWO_PI * x), lambda x: 1.5 + np.cos(TWO_PI * x)
    )
    finite = InitialData.from_u0x(
        grid, lambda x: np.sin(TWO_PI * x), lambda x: np.cos(TWO_PI * x)
    )
    exact_solution(smooth, 0.3)
    exact_solution(finite, 0.3)
    a, b = rf.group_element(grid, rng), rf.group_element(grid, rng)
    multiply(a, b)
    inverse(a)
    run_suite(samples=1)
    integrate(smooth, IntegratorConfig(dt=1e-3, t_end=5e-3, dealias=True))


@pytest.mark.parametrize("n", [8, 256, 4096])
def test_fine_grid_from_the_callers_half_spectrum_is_bit_identical(n, rng):
    for vals in (rng.normal(size=n), rng.normal(size=(3, n)), (-1.0) ** np.arange(n)):
        for orders in ((0,), (0, 1), (0, 1, 2)):
            got = fs._fine_grid(vals, orders, fs.rfft(vals))
            assert np.array_equal(got, fs._fine_grid(vals, orders))
            assert np.array_equal(got, _fine_grid_from_samples(vals, orders))


def _fine_grid_from_samples(values, orders):
    """_fine_grid as it read before it took a half spectrum: the samples'
    own rfft, through a leading parts axis."""
    n = values.shape[-1]
    size = fs._fine_size(n)
    coeffs = fs.rfft(values[None]) * fs._multipliers(n).fine
    powers = np.reshape(orders, (-1,) + (1,) * coeffs.ndim)
    ik = 2j * np.pi * np.arange(n // 2 + 1)
    fine = fs.irfft(coeffs * ik**powers, size)[:, 0]
    pad = fs._W // 2
    return np.concatenate([fine[..., size - pad :], fine, fine[..., :pad]], axis=-1)


def test_coefficients_are_prepared_once(monkeypatch):
    calls = {"prepare": 0, "gather": 0}
    fine_grid, gather = fs._fine_grid, fs._gather

    def counting_fine_grid(*args, **kwargs):
        calls["prepare"] += 1
        return fine_grid(*args, **kwargs)

    def counting_gather(*args, **kwargs):
        calls["gather"] += 1
        return gather(*args, **kwargs)

    monkeypatch.setattr(fs, "_fine_grid", counting_fine_grid)
    monkeypatch.setattr(fs, "_gather", counting_gather)
    g = PeriodicGrid(256)
    fs.invert_diffeo(_smooth_diffeo(g, amp=0.35))
    assert calls == {"prepare": 1, "gather": 2}

    calls.update(prepare=0, gather=0)
    f = PeriodicFunction(g, np.sin(2 * np.pi * (g.x - 0.1)))
    points = np.array([0.05, 0.2, 0.55, 0.7])
    v = np.sin(2 * np.pi * (points - 0.1))
    roots = fs.Interpolant(f, 1).roots(points, v, np.sign(v))
    assert np.max(np.abs(roots - [0.1, 0.6])) < 1e-12
    assert calls["prepare"] == 1 and calls["gather"] > 2

    calls.update(prepare=0, gather=0)
    evaluate = fs.Interpolant(f)
    for pts in ([0.1], np.linspace(0.0, 1.0, 7), g.x + 0.5 / g.n):
        evaluate(pts)
    assert calls == {"prepare": 1, "gather": 3}


def _large_smooth_flow(seed):
    """phi at t = 0.5 of global band-limited data at n = 4096: eight
    decaying modes in u0x and rho0, rho0 kept positive."""
    g = PeriodicGrid(4096)
    rng = np.random.default_rng(seed)
    k = np.arange(1, 9)
    x = TWO_PI * np.outer(k, g.x)
    a, b, c, d = rng.uniform(-1.0, 1.0, (4, 8)) * [[0.6], [0.6], [0.4], [0.4]] / k
    u0 = (a / (TWO_PI * k)) @ np.sin(x) - (b / (TWO_PI * k)) @ (np.cos(x) - 1.0)
    fluct = c @ np.cos(x) + d @ np.sin(x)
    rho0 = 1.5 * (np.abs(c).sum() + np.abs(d).sum()) + 0.1 + fluct
    data = InitialData(PeriodicFunction(g, u0), PeriodicFunction(g, rho0))
    return exact_geodesic(data, 0.5).phi


@pytest.mark.parametrize("seed", range(4))
def test_large_smooth_inversion_takes_one_gather(seed, monkeypatch):
    # The cubic Hermite start is within ROOT_TOL of every root, so the
    # first Newton step is the last.
    phi = _large_smooth_flow(seed)
    calls = []
    gather = fs._gather

    def counting_gather(*args, **kwargs):
        calls.append(len(args[1]))
        return gather(*args, **kwargs)

    monkeypatch.setattr(fs, "_gather", counting_gather)
    inv = fs.invert_diffeo(phi)
    assert calls == [4095]
    round_trip = inv.values + fs.trig_interpolate(
        PeriodicFunction(phi.grid, phi.values - phi.grid.x), inv.values
    )
    assert np.max(np.abs(round_trip - phi.grid.x)) < 1e-12


def test_steep_lift_whose_start_leaves_its_bracket():
    # phi_x = 1 - (1 - m) (F(x - x_3) - 1) / M, F the Fejer kernel of order
    # M = 31 on n = 64 nodes: min phi_x = m = 1e-3 at the node x_3, where the
    # Hermite start's slope 1 / m sends some starts far outside the bracket.
    g = PeriodicGrid(64)
    m, M = 1e-3, 31
    k = np.arange(1, M + 1)
    weight = -(1.0 - m) / M * 2.0 * (1.0 - k / (M + 1)) / (TWO_PI * k)
    h = np.sin(TWO_PI * np.outer(g.x - 3 / 64, k)) @ weight
    phi = PeriodicFunction(g, g.x + h - h[0])
    phix = fs._check_increasing(phi)
    assert abs(np.min(phix) - m) < 1e-12
    periodic, x = phi.values - g.x, g.x[1:]
    start, lo, hi = fs._inverse_start(phi.values, phix, x)
    nodes = np.append(phi.values, 1.0)  # the bracket is the node cell of x
    j = np.rint(lo[0] * 64).astype(int)
    assert np.array_equal(hi[0] - lo[0], np.full(x.size, 1 / 64))
    assert np.all((nodes[j] <= x) & (x <= nodes[j + 1]))
    assert np.max(np.maximum(lo - start, start - hi)) > 0.1
    inv = fs.invert_diffeo(phi).values
    assert np.all(np.diff(inv) > 0.0)
    round_trip = inv + dense_trig_interpolate(periodic, inv)
    assert np.max(np.abs(round_trip - g.x)) < 1e-11
    smooth = _smooth_diffeo(g, amp=0.5)
    stack = fs.invert_diffeo(PeriodicFunction(g, np.stack([smooth.values, phi.values])))
    assert np.array_equal(stack.values[0], fs.invert_diffeo(smooth).values)
    assert np.array_equal(stack.values[1], inv)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([16, 64, 256]),
    st.sampled_from([0, 1]),
    st.floats(-1.0, 1.0),
    st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=6
    ),
    st.integers(0, 2**32 - 1),
)
def test_secant_start_finds_the_midpoint_start_roots(n, order, mean, modes, seed):
    # Random brackets around the roots of the order-th derivative of random
    # band-limited data, each holding one sign change on a dense scan.
    g = PeriodicGrid(n)
    a, b = np.array(modes).T
    ph = TWO_PI * np.outer(g.x, np.arange(1, len(modes) + 1))
    f = PeriodicFunction(g, mean + np.cos(ph) @ a + np.sin(ph) @ b)
    p = fs.Interpolant(f, order + 1)
    v = f.values if order == 0 else fs.derivative(f).values
    v = np.append(v, v[0])  # the node cells, the circle closed at x = 1
    cells = p.roots(np.append(g.x, 1.0), v, np.sign(v), order)
    assume(cells.size)
    h = 1.0 / n
    rng = np.random.default_rng(seed)
    lo = cells - rng.uniform(1e-3, 1.0, cells.size) * h
    hi = cells + rng.uniform(1e-3, 1.0, cells.size) * h
    scan = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 65)
    dense = fs._gather(p.fine[order : order + 1], scan.ravel())[0].reshape(scan.shape)
    one = np.sum(dense[:, 1:] * dense[:, :-1] < 0.0, axis=1) == 1
    one &= np.all(dense != 0.0, axis=1)
    assume(one.any())
    lo, hi, v_hi = lo[one], hi[one], dense[one, -1]
    # each bracket is a gap lo -> hi of one table; the gaps hi -> lo are masked
    ends = np.ravel([lo, hi], order="F")
    vals = np.ravel([dense[one, 0], v_hi], order="F")
    got = p.roots(ends, vals, np.sign(vals), order, np.arange(ends.size - 1) % 2 == 0)
    # the same solve from the midpoints: same brackets, same gather, and the
    # direction roots reads, the sign at each bracket's right end
    fine = p.fine[order : order + 2]
    want = fs._newton_bisect(
        lambda idx, y: fs._gather(fine, y), lo, hi, 0.5 * (lo + hi), np.sign(v_hi)
    )
    assert np.max(np.abs(got - want)) <= fs.ROOT_TOL


def test_trig_interpolate_memory_is_bounded():
    g = PeriodicGrid(4096)
    f = PeriodicFunction(g, np.exp(np.sin(2 * np.pi * g.x)) + 0j)
    pts = np.random.default_rng(3).uniform(size=4096)
    tracemalloc.start()
    try:
        fs.trig_interpolate(f, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_newton_bisect_safeguard_and_iteration_bound():
    # Newton on arctan diverges from |y - r| > 1.39: every start below is
    # that far from its root, so only the bisection safeguard converges.
    roots = np.linspace(-3.0, 3.0, 25)
    calls = []

    def residual(idx, y):
        calls.append(idx.size)
        d = y - roots[idx]
        return np.arctan(d), 1.0 / (1.0 + d * d)

    lo, hi = np.full(25, -10.0), np.full(25, 10.0)
    y = fs._newton_bisect(residual, lo, hi, roots + 5.0)
    assert np.max(np.abs(y - roots)) <= 1e-12
    assert len(calls) <= 2 * math.ceil(math.log2(20.0 / 1e-12)) + 2


@st.composite
def band_limited_lifts(draw):
    """Lifts x + H(x) with H' band-limited and min phi_x = m on the circle."""
    n = draw(st.sampled_from([64, 256, 1024]))
    modes = draw(st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        min_size=1, max_size=8,
    ))
    m = draw(st.sampled_from([1e-3, 0.1, 0.7]))
    return _lift(n, *np.array(modes).T, m)


def _lift(n, a, b, m):
    """The lift x + H(x), H' = sum a_k cos + b_k sin scaled to min phi_x = m."""
    k = np.arange(1, len(a) + 1)

    def hx(x):
        ph = 2.0 * np.pi * np.outer(x, k)
        return np.cos(ph) @ a + np.sin(ph) @ b

    lowest = float(np.min(hx(np.arange(2**14) / 2**14)))
    if lowest > -1e-3:  # a nearly flat draw stays a near-identity lift
        lowest = -1.0
    g = PeriodicGrid(n)
    slope = PeriodicFunction(g, 1.0 + (1.0 - m) * hx(g.x) / -lowest)
    return fs.antiderivative_from_zero(slope)


def _assert_inverts(phi):
    inv = fs.invert_diffeo(phi).values
    x = phi.grid.x
    assert np.all(np.diff(inv) > 0.0)
    periodic = phi.values - x
    round_trip = inv + dense_trig_interpolate(periodic, inv)
    assert np.max(np.abs(round_trip - x)) < 1e-11
    assert np.max(np.abs(inv - brentq_inverse(phi.values))) < 1e-11


@settings(max_examples=12, deadline=None)
@given(band_limited_lifts())
def test_invert_diffeo_properties(phi):
    _assert_inverts(phi)


def test_invert_diffeo_where_the_interpolant_overshoots_its_nodes():
    # A steep n = 64 lift drawn as band_limited_lifts draws one, with
    # min phi_x = 1e-3: between two nodes the interpolant of h = phi - x
    # leaves the node range of h by more than 1e-3, far enough that a
    # bracket from that range missed the root (round trip off by 3e-6).
    rng = np.random.default_rng(6048)
    phi = _lift(64, *rng.uniform(-1.0, 1.0, size=(2, rng.integers(1, 9))), 1e-3)
    periodic = phi.values - phi.grid.x
    dense = dense_trig_interpolate(periodic, np.arange(1024) / 1024)
    assert max(dense.max() - periodic.max(), periodic.min() - dense.min()) > 1e-3
    _assert_inverts(phi)


def test_invert_diffeo_rejects_degenerate(grid):
    touching = PeriodicFunction(
        grid, grid.x + np.sin(TWO_PI * grid.x) / TWO_PI
    )
    with pytest.raises(NotMonotoneError):
        fs.invert_diffeo(touching)


def test_multiplier_cache_is_shared_and_read_only():
    a, b = PeriodicGrid(64), PeriodicGrid(64)
    assert a.spectral is b.spectral
    assert PeriodicGrid(32).spectral is not a.spectral
    for name in fs.SpectralMultipliers.__slots__:
        with pytest.raises(ValueError):
            getattr(a.spectral, name)[1] = 0.0


@pytest.mark.parametrize("n", [8, 256])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_apply_on_a_stack_is_bit_exact_row_by_row(n, kind, rng):
    sp = PeriodicGrid(n).spectral
    stack = rng.normal(size=(3, n))
    if kind == "complex":
        stack = stack + 1j * rng.normal(size=(3, n))

    def same_bits(got, rows):
        want = np.array(rows)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    for name in ("deriv", "antideriv", "inv_a", "ainv_dx", "mask"):
        mult = getattr(sp, name)
        same_bits(sp.apply(stack, mult), [sp.apply(row, mult) for row in stack])


def _odd_symbol(n, fn):
    """Symbol of an odd-order operator: zero at the mean and Nyquist modes."""

    def symbol(k):
        out = np.zeros(k.shape, dtype=np.complex128)
        keep = (k != 0) & (np.abs(k) != n // 2)
        out[keep] = fn(k[keep])
        return out

    return symbol


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_spectral_ops_match_dense_dft(n, kind, rng):
    grid = PeriodicGrid(n)
    x = grid.x
    vals = rng.normal(size=n) + np.cos(np.pi * n * x) + 0.7
    if kind == "complex":
        vals = vals + 1j * (rng.normal(size=n) - 2.0 * np.cos(np.pi * n * x))
    f = PeriodicFunction(grid, vals)
    zero_mean = fs.mean_projection(f)

    def pinned(v):
        return v - v[0]

    deriv = dense_dft_multiplier(vals, _odd_symbol(n, lambda k: TWO_PI * 1j * k))
    anti = dense_dft_multiplier(vals, _odd_symbol(n, lambda k: 1.0 / (TWO_PI * 1j * k)))
    ainv_dx = dense_dft_multiplier(vals, _odd_symbol(n, lambda k: 1j / (TWO_PI * k)))

    def inv_a_symbol(k):
        out = np.zeros(k.shape)
        out[k != 0] = 1.0 / (TWO_PI * k[k != 0]) ** 2
        return out

    inv_a = dense_dft_multiplier(zero_mean.values, inv_a_symbol)
    masked = dense_dft_multiplier(vals, lambda k: (np.abs(k) <= n // 3).astype(float))
    sp = grid.spectral
    cases = [
        (fs.derivative(f).values, deriv),
        (fs.antiderivative_from_zero(f).values, pinned(anti) + np.mean(vals) * x),
        (fs.inverse_A(zero_mean).values, pinned(inv_a)),
        (pinned(sp.apply(vals, sp.ainv_dx)), pinned(ainv_dx)),
        (sp.apply(vals, sp.mask), masked),
    ]
    for got, want in cases:
        assert np.iscomplexobj(got) == (kind == "complex")
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) < 1e-14 * n * scale
    both = fs.inverse_A(fs.derivative(f)).values
    assert np.max(np.abs(pinned(sp.apply(vals, sp.ainv_dx)) - both)) < 1e-15 * n


# -- stacks: every row of a stacked call equals its own one-row call --------


def _rows_equal(stacked: PeriodicFunction, rows: list) -> bool:
    return all(
        np.array_equal(stacked.values[s], r.values) for s, r in enumerate(rows)
    )


@pytest.mark.parametrize("n", [64, 256])
def test_stacked_compose_equals_row_calls(n):
    g = PeriodicGrid(n)
    rng = np.random.default_rng(11)
    elems = [rf.group_element(g, rng) for _ in range(3)]
    bases = [rf.group_element(g, rng) for _ in range(3)]
    windings = np.array([0, 1, -2])
    psi = PeriodicFunction(g, np.stack([b.phi.values for b in bases]))
    # real lifts alpha + 4 pi w x of slope 4 pi w
    real = [
        PeriodicFunction(g, e.alpha.values + 4 * np.pi * w * g.x)
        for e, w in zip(elems, windings)
    ]
    slopes = 4 * np.pi * windings
    got = fs.compose(PeriodicFunction(g, np.stack([r.values for r in real])), psi, slopes)
    want = [fs.compose(r, b.phi, sl) for r, b, sl in zip(real, bases, slopes.tolist())]
    assert _rows_equal(got, want)
    # complex lifts phi + i alpha of slope 1 + 4 pi i w
    lifts = [PeriodicFunction(g, e.phi.values + 1j * r.values) for e, r in zip(elems, real)]
    slopes = 1.0 + 1j * (4 * np.pi * windings)
    got = fs.compose(PeriodicFunction(g, np.stack([f.values for f in lifts])), psi, slopes)
    want = [fs.compose(f, b.phi, sl) for f, b, sl in zip(lifts, bases, slopes.tolist())]
    assert got.values.shape == (3, n) and _rows_equal(got, want)


def test_stacked_invert_diffeo_equals_row_calls(monkeypatch):
    g = PeriodicGrid(256)
    maps = [PeriodicFunction(g, g.x), _smooth_diffeo(g, amp=0.97)]
    iterations = []
    newton_bisect = fs._newton_bisect

    def counting(residual, *args):
        def counted(idx, y):
            iterations[-1] += 1
            return residual(idx, y)

        iterations.append(0)
        return newton_bisect(counted, *args)

    monkeypatch.setattr(fs, "_newton_bisect", counting)
    want = [fs.invert_diffeo(m) for m in maps]
    assert iterations[0] < iterations[1]  # the rows retire at different times
    got = fs.invert_diffeo(PeriodicFunction(g, np.stack([m.values for m in maps])))
    assert iterations[2] == iterations[1]
    assert _rows_equal(got, want)


def test_gather_sums_a_lone_point_as_its_own_call():
    # numpy sums the w kernel terms of one point pairwise and of several
    # points in order; a row with one point must still match its own call
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(2, 64))
    fine = fs._fine_grid(vals, (0, 1))
    points = rng.uniform(size=5)
    rows = np.array([0, 0, 0, 0, 1])
    got = fs._gather(fine, points, rows)
    assert np.array_equal(got[:, :4], fs._gather(fine[:, 0], points[:4]))
    assert np.array_equal(got[:, 4:], fs._gather(fine[:, 1], points[4:]))


@pytest.mark.parametrize("counts", [(2, 2), (5, 2, 9), (3, 3, 3, 3), (17, 4)])
def test_gather_without_the_lone_row_count_matches_the_counted_path(counts):
    # where every row holds at least two points no row is alone, and the
    # count that looks for one may be skipped
    rng = np.random.default_rng(sum(counts))
    vals = rng.normal(size=(len(counts), 64))
    fine = fs._fine_grid(vals, (0, 1))
    rows = np.repeat(np.arange(len(counts)), counts)
    points = rng.uniform(-2.0, 2.0, size=rows.size)
    counted = fs._gather(fine, points, rows)
    skipped = fs._gather(fine, points, rows, lone=False)
    assert skipped.view(np.int64).tobytes() == counted.view(np.int64).tobytes()


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([64, 256, 1024]),
    st.integers(1, 10),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_one_lift_translation_is_the_two_real_compositions(n, rows, at_identity, seed):
    # composing u1 + i u2 with phi gives u1 o phi and u2 o phi bit for bit,
    # signed zeros included; at the identity every point is on the grid
    # and takes the snap path
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(seed)
    a, U = rf.stacks(grid, rng, rows, rf.group_element, rf.g_tangent)
    if at_identity:
        a = GroupElement.identity(grid, (rows,))
    moved = _right_translate(a, U)
    for got, part in ((moved.u1, U.u1), (moved.u2, U.u2)):
        want = fs.compose(part, a.phi, 0.0, a.phi_x.values).values
        assert np.array_equal(got.values.view(np.int64), want.view(np.int64))


def test_stack_with_one_decreasing_row_is_rejected():
    g = PeriodicGrid(64)
    good = _smooth_diffeo(g, amp=0.5).values
    bad = g.x + 1.5 * np.sin(TWO_PI * g.x) / TWO_PI
    stack = PeriodicFunction(g, np.stack([good, bad, good]))
    with pytest.raises(NotMonotoneError):
        fs._check_increasing(stack)
    with pytest.raises(NotMonotoneError):
        fs.invert_diffeo(stack)


def test_reductions_and_scalars_act_per_row():
    g = PeriodicGrid(16)
    f = PeriodicFunction(g, np.stack([np.sin(TWO_PI * g.x) + c for c in (0.5, -2.0)]))
    assert np.array_equal(fs.row_mean(f.values), [np.mean(row) for row in f.values])
    scaled = f * np.array([2.0, 3.0])
    assert np.array_equal(scaled.values, f.values * [[2.0], [3.0]])
    assert isinstance(fs.row_mean(f.values[0]), float)


@pytest.mark.parametrize("n", [8, 64, 256, 4096])
def test_real_fft_entry_points_match_numpy(n):
    # fs.rfft and fs.irfft call numpy's private pocketfft ufuncs; a numpy
    # that changes them fails here
    rng = np.random.default_rng(n)

    def same_bits(a, b):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()

    wide = rng.normal(size=(3, 2 * n))
    inputs = [rng.normal(size=s) for s in [(n,), (3, n), (2, 5, n)]]
    inputs += [wide[:, ::2], (wide[:, :n] + 1j * wide[:, n:]).real]
    for values in inputs:
        coef = fs.rfft(values)
        same_bits(coef, np.fft.rfft(values))
        out = np.empty_like(coef)
        assert fs.rfft(values, out=out) is out
        same_bits(out, coef)
        # a strided coefficient view, and the interpolants' padding to 2n
        cut = np.concatenate([coef, coef], axis=-1)[..., ::2]
        for c in (coef, cut):
            for size in (n, 2 * n):
                same_bits(fs.irfft(c, size), np.fft.irfft(c, size))
        rows = np.empty(values.shape)
        assert fs.irfft(coef, n, out=rows) is rows
        same_bits(rows, np.fft.irfft(coef, n))
