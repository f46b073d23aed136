import numpy as np
import pytest

import hs2sphere.funcspace as fs
import hs2sphere.hopf as hopf
import hs2sphere.randfields as rf
from hs2sphere.errors import (
    NotMonotoneError,
    UnwrapAmbiguityError,
    VanishingModulusError,
)
from hs2sphere.funcspace import PeriodicFunction, PeriodicGrid
from hs2sphere.group import (
    FOUR_PI,
    GroupElement,
    TangentVector,
    inverse,
    metric,
    multiply,
    phi_inverse,
    phi_map,
    tangent_phi,
    wrap_mod_4pi,
)
from hs2sphere.sphere import SpherePoint
from hs2sphere.verification import run_suite

TWO_PI = 2.0 * np.pi


def test_neutral_element(grid, rng):
    a = rf.group_element(grid, rng)
    ident = GroupElement.identity(grid)
    assert multiply(a, ident).distance(a) < 1e-12
    assert multiply(ident, a).distance(a) < 1e-12


def test_winding_of_a_stack_is_a_read_only_int_array(grid):
    stack = GroupElement.identity(grid, (3,))
    w = GroupElement(stack.phi, stack.alpha, np.array([1.0, -2.0, 0.0])).winding
    assert w.dtype == int and w.tolist() == [1, -2, 0]
    assert not w.flags.writeable and not stack.winding.flags.writeable
    assert type(GroupElement.identity(grid).winding) is int
    for e in (GroupElement.identity(grid), stack):
        with pytest.raises(OverflowError):  # a winding must fit an int
            GroupElement(e.phi, e.alpha, 10**30)


def test_inverse_round_trip(grid, rng):
    ident = GroupElement.identity(grid)
    for _ in range(5):
        a = rf.group_element(grid, rng)
        assert multiply(a, inverse(a)).distance(ident) < 1e-9
        assert multiply(inverse(a), a).distance(ident) < 1e-9
        assert inverse(inverse(a)).distance(a) < 1e-9


@pytest.mark.parametrize("n", [8, 256, 4096])
@pytest.mark.parametrize("winding", [0, 1, -2])
def test_multiply_is_one_composition(n, winding, rng, monkeypatch):
    # phi and alpha share one fine grid, and the result is bit-identical
    # to composing them one at a time
    grid = PeriodicGrid(n)
    a, b = rf.group_element(grid, rng), rf.group_element(grid, rng)
    a = GroupElement(a.phi, a.alpha + FOUR_PI * winding * grid.x, winding)
    phi = fs.compose(a.phi, b.phi, 1.0)
    alpha = b.alpha + fs.compose(a.alpha, b.phi, FOUR_PI * winding)
    calls = []
    fine_grid = fs._fine_grid

    def counting_fine_grid(*args):
        calls.append(args)
        return fine_grid(*args)

    monkeypatch.setattr(fs, "_fine_grid", counting_fine_grid)
    ab = multiply(a, b)
    assert len(calls) == 1
    assert np.array_equal(ab.phi.values, phi.values)
    assert np.array_equal(ab.alpha.values, alpha.values)
    assert ab.winding == winding + b.winding


def test_inverse_of_constant_phase(grid):
    ident = GroupElement.identity(grid)
    c = 1.37
    a = GroupElement(
        PeriodicFunction(grid, grid.x), PeriodicFunction.constant(grid, c), 0
    )
    ainv = inverse(a)
    assert np.max(np.abs(ainv.alpha.values + c)) < 1e-12
    assert inverse(ident).distance(ident) < 1e-14


def test_associativity(grid, rng):
    for _ in range(3):
        a, b, c = (rf.group_element(grid, rng) for _ in range(3))
        lhs = multiply(multiply(a, b), c)
        rhs = multiply(a, multiply(b, c))
        assert lhs.distance(rhs) < 1e-9


def test_winding_addition(grid):
    # e^{4 pi i x} corresponds to winding 1; composing with itself doubles it
    f = SpherePoint(PeriodicFunction(grid, np.exp(2j * np.pi * grid.x)))
    w = phi_inverse(f)
    assert w.winding == 1
    ww = multiply(w, w)
    assert ww.winding == 2
    assert inverse(w).winding == -1


def test_metric_values(grid):
    ident = GroupElement.identity(grid)
    U = TangentVector(
        PeriodicFunction.zeros(grid), PeriodicFunction.constant(grid, 2.0)
    )
    assert metric(ident, U, U) == pytest.approx(1.0, abs=1e-14)
    u1 = PeriodicFunction(grid, (1.0 - np.cos(TWO_PI * grid.x)) / TWO_PI)
    V = TangentVector(u1, PeriodicFunction.zeros(grid))
    assert metric(ident, V, V) == pytest.approx(0.125, abs=1e-14)


def test_metric_right_invariance(grid, rng):
    ident = GroupElement.identity(grid)
    for _ in range(5):
        a = rf.group_element(grid, rng)
        U, V = rf.g_tangent(grid, rng), rf.g_tangent(grid, rng)
        Ut = TangentVector(fs.compose(U.u1, a.phi), fs.compose(U.u2, a.phi))
        Vt = TangentVector(fs.compose(V.u1, a.phi), fs.compose(V.u2, a.phi))
        assert abs(metric(ident, U, V) - metric(a, Ut, Vt)) < 1e-9


def test_phi_map_basics(grid):
    ident = GroupElement.identity(grid)
    f = phi_map(ident)
    assert np.max(np.abs(f.values - 1.0)) < 1e-14
    two_pi_elem = GroupElement(
        PeriodicFunction(grid, grid.x),
        PeriodicFunction.constant(grid, TWO_PI),
        0,
    )
    g = phi_map(two_pi_elem)
    assert np.max(np.abs(g.values + 1.0)) < 1e-14


def test_phi_map_unit_norm(grid, rng):
    for _ in range(5):
        f = phi_map(rf.group_element(grid, rng))
        assert abs(f.f.l2_norm() - 1.0) < 1e-12


def test_phi_inverse_constant(grid):
    f = SpherePoint(PeriodicFunction.constant(grid, 1.0 + 0.0j))
    e = phi_inverse(f)
    assert e.distance(GroupElement.identity(grid)) < 1e-13
    assert e.winding == 0


def test_phi_round_trips(grid, rng):
    for _ in range(5):
        a = rf.group_element(grid, rng)
        assert phi_inverse(phi_map(a)).distance(a) < 1e-9
        f = rf.nonvanishing_sphere_point(grid, rng)
        back = phi_map(phi_inverse(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-9


def test_phi_inverse_alpha_zero_in_range(grid, rng):
    for _ in range(5):
        f = rf.nonvanishing_sphere_point(grid, rng)
        e = phi_inverse(f)
        assert 0.0 <= e.alpha.values[0] < 4.0 * np.pi


def test_phi_inverse_rejects_vanishing(grid):
    vals = np.cos(TWO_PI * grid.x).astype(complex)
    vals /= np.sqrt(np.mean(np.abs(vals) ** 2))
    with pytest.raises(VanishingModulusError):
        phi_inverse(SpherePoint(PeriodicFunction(grid, vals)))


def test_phi_inverse_rejects_coarse_phase():
    from hs2sphere.funcspace import PeriodicGrid

    # winding 3 on 8 nodes: adjacent phase jumps of 3 pi / 4 > pi / 2
    g8 = PeriodicGrid(8)
    vals = np.exp(2j * np.pi * 3 * g8.x)
    with pytest.raises(UnwrapAmbiguityError):
        phi_inverse(SpherePoint(PeriodicFunction(g8, vals)))


def test_tangent_phi_plug_in(grid):
    ident = GroupElement.identity(grid)
    U = TangentVector(
        PeriodicFunction.zeros(grid), PeriodicFunction.constant(grid, 2.0)
    )
    img = tangent_phi(ident, U)
    assert np.max(np.abs(img.values - 1j)) < 1e-14
    V = TangentVector(
        PeriodicFunction(grid, (1.0 - np.cos(TWO_PI * grid.x)) / TWO_PI),
        PeriodicFunction.zeros(grid),
    )
    img2 = tangent_phi(ident, V)
    assert np.max(np.abs(img2.values.imag)) < 1e-14
    assert np.max(np.abs(img2.values.real - 0.5 * np.sin(TWO_PI * grid.x))) < 1e-12


def test_isometry_of_tangent_map(grid, rng):
    for _ in range(20):
        a = rf.group_element(grid, rng)
        U, V = rf.g_tangent(grid, rng), rf.g_tangent(grid, rng)
        TU, TV = tangent_phi(a, U), tangent_phi(a, V)
        lhs = float(np.mean((TU.values * np.conj(TV.values)).real))
        assert abs(lhs - metric(a, U, V)) < 1e-10


def test_wrap_mod_4pi():
    assert wrap_mod_4pi(0.0) == 0.0
    assert wrap_mod_4pi(4.0 * np.pi) == pytest.approx(0.0, abs=1e-14)
    assert wrap_mod_4pi(2.1 * np.pi) == pytest.approx(-1.9 * np.pi, abs=1e-12)


def test_distance_sees_a_nan_angle():
    grid = PeriodicGrid(8)
    ident = GroupElement.identity(grid)
    nan_alpha = GroupElement(ident.phi, PeriodicFunction(grid, np.full(8, np.nan)))
    assert np.isnan(ident.distance(nan_alpha))
    assert np.isnan(nan_alpha.distance(ident))
    # a stack of three: only the middle sample has a NaN angle
    idents = GroupElement.identity(grid, (3,))
    alpha = np.zeros((3, 8))
    alpha[1] = np.nan
    mixed = GroupElement(idents.phi, PeriodicFunction(grid, alpha))
    for d in (idents.distance(mixed), mixed.distance(idents)):
        assert d.shape == (3,)
        assert d[0] == 0.0 and np.isnan(d[1]) and d[2] == 0.0


def test_group_element_json_round_trip(grid, rng):
    a = rf.group_element(grid, rng)
    back = GroupElement.from_json_obj(a.to_json_obj())
    assert np.array_equal(back.phi.values, a.phi.values)
    assert np.array_equal(back.alpha.values, a.alpha.values)
    assert back.winding == a.winding



def test_tangent_derivatives_are_taken_on_first_read(grid, rng, monkeypatch):
    u1 = fs.antiderivative_from_zero(rf.band_limited(grid, rng))
    u2 = rf.band_limited(grid, rng)
    calls = []
    rfft = fs.rfft

    def counting_rfft(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(fs, "rfft", counting_rfft)
    U = TangentVector(u1, u2)
    U + U * 2.0 - (-U)  # vectors whose derivatives nobody reads
    assert len(calls) == 0
    first = U.u1x
    assert len(calls) == 1
    assert U.u1x is first
    U.u2x
    U.u2x
    assert len(calls) == 2
    for carried in (U.u1x, U.u2x):
        with pytest.raises(ValueError):
            carried[0] = 1.0
    assert np.array_equal(U.u1x, fs.derivative(u1).values)
    assert np.array_equal(U.u2x, fs.derivative(u2).values)


def test_suite_differentiates_each_component_it_reads_once(monkeypatch):
    # each transform is one component of a (samples, n) stack
    calls = []
    deriv = TangentVector._deriv

    def counting(f):
        calls.append(f.values.shape)
        return deriv(f)

    monkeypatch.setattr(TangentVector, "_deriv", staticmethod(counting))
    run_suite(n=256, samples=10)
    assert 0 < len(calls) <= 150
    assert set(calls) == {(10, 256)}


def test_held_slopes_are_read_and_tested_alike(grid, rng, monkeypatch):
    a, b = rf.group_element(grid, rng), rf.group_element(grid, rng)
    f = rf.band_limited(grid, rng)
    # with the slope it computes itself, reading the held slope changes no
    # bit of compose or invert_diffeo
    a = GroupElement(a.phi, a.alpha)
    held = a.phi_x.values
    for got, want in (
        (fs.compose(f, a.phi, 0.0, held), fs.compose(f, a.phi)),
        (fs.invert_diffeo(a.phi, held), fs.invert_diffeo(a.phi)),
    ):
        assert got.values.tobytes() == want.values.tobytes()
    # a held slope gets the test of the one computed: > 1e-12 in compose and
    # invert_diffeo, > 0 in the constructor
    touching, folding = (
        PeriodicFunction(grid, grid.x + c * np.sin(TWO_PI * grid.x) / TWO_PI)
        for c in (1.0, 1.2)
    )
    slope, folded = (fs._check_increasing(p, tol=-1.0) for p in (touching, folding))
    for call in (
        lambda: fs.compose(f, touching, 0.0, slope),
        lambda: fs.invert_diffeo(touching, slope),
        lambda: GroupElement(folding, f, _phi_x=folded),
    ):
        with pytest.raises(NotMonotoneError):
            call()
    # multiply and inverse differentiate only the phi they make
    calls = []
    check = fs._check_increasing

    def counting(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(fs, "_check_increasing", counting)
    multiply(a, b)
    inverse(a)
    assert len(calls) == 2


def test_identity_and_quotient_carry_their_slopes(grid, rng):
    a = rf.group_element(grid, rng)
    ident = GroupElement.identity(grid, (3,))
    computed = fs._check_increasing(ident.phi, 0.0)
    assert ident.phi_x.values.tobytes() == computed.tobytes()
    assert hopf.project_p(a).phi_x is not None
    assert hopf.project_p(a).phi_x.values is a.phi_x.values
