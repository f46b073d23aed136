import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hs2sphere.funcspace as fs
import hs2sphere.geometry as gm
import hs2sphere.group as gr
import hs2sphere.randfields as rf
from hs2sphere.errors import DegeneratePlaneError
from hs2sphere.funcspace import PeriodicFunction, PeriodicGrid
from hs2sphere.geodesics import InitialData, exact_solution
from hs2sphere.geometry import KTangent
from hs2sphere.group import GroupElement, TangentVector
from hs2sphere.integrator import rhs

TWO_PI = 2.0 * np.pi


def test_christoffel_G_flat_directions(grid):
    u = TangentVector(
        PeriodicFunction.zeros(grid), PeriodicFunction.constant(grid, 2.0)
    )
    g = gm.christoffel(u, u)
    assert g.u1.max_abs() < 1e-14
    assert g.u2.max_abs() < 1e-14


def test_christoffel_symmetry(grid, rng):
    for _ in range(5):
        u, v = rf.g_tangent(grid, rng), rf.g_tangent(grid, rng)
        a = gm.christoffel(u, v)
        b = gm.christoffel(v, u)
        assert np.max(np.abs(a.u1.values - b.u1.values)) == 0.0
        assert np.max(np.abs(a.u2.values - b.u2.values)) == 0.0
        uk, vk = rf.k_tangent(grid, rng), rf.k_tangent(grid, rng)
        ak, bk = gm.christoffel(uk, vk), gm.christoffel(vk, uk)
        assert np.max(np.abs(ak.u1.values - bk.u1.values)) == 0.0
        assert np.max(np.abs(ak.u2.values - bk.u2.values)) == 0.0


def test_christoffel_K_reduces_to_G_for_zero_mean(grid, rng):
    uk, vk = rf.k_tangent(grid, rng), rf.k_tangent(grid, rng)
    # the same input through both formulas: slots and carried derivatives
    ug = TangentVector(uk.u1, uk.u2, _u1x=uk.u1x, _u2x=uk.u2x)
    vg = TangentVector(vk.u1, vk.u2, _u1x=vk.u1x, _u2x=vk.u2x)
    a = gm.christoffel(uk, vk)
    b = gm.christoffel(ug, vg)
    assert np.max(np.abs(a.u1.values - b.u1.values)) < 1e-15
    # class representative of the second slot matches up to its mean
    diff = a.u2.values - (b.u2.values - np.mean(b.u2.values))
    assert np.max(np.abs(diff)) < 1e-15


def test_metric_compatibility_G(grid, rng):
    for _ in range(10):
        u, v, w = (rf.g_tangent(grid, rng) for _ in range(3))
        assert gm.metric_compat_residual(u, v, w) < 1e-9


def test_restricted_geodesic_equation_residual(grid):
    # the restricted geodesic equation is 2HS on zero-mean rho, and rho0 =
    # cos is zero-mean: its exact solution satisfies the plain right side
    d = InitialData.from_u0x(
        grid, lambda x: np.sin(TWO_PI * x), lambda x: np.cos(TWO_PI * x)
    )
    t, h = 0.4, 1e-5
    u, rho = exact_solution(d, t)
    up, rp = exact_solution(d, t + h)
    um, rm = exact_solution(d, t - h)
    ut_fd = (up.values - um.values) / (2.0 * h)
    rhot_fd = (rp.values - rm.values) / (2.0 * h)
    ut, rhot = rhs(u, rho, dealias=False)
    assert np.max(np.abs(ut.values - ut_fd)) < 1e-6
    assert np.max(np.abs(rhot.values - rhot_fd)) < 1e-6


def test_kahler_J_plug_in(grid):
    U = KTangent(
        PeriodicFunction.zeros(grid),
        PeriodicFunction.from_callable(grid, lambda x: np.cos(TWO_PI * x)),
    )
    J = gm.kahler_J(U)
    expected = -np.sin(TWO_PI * grid.x) / TWO_PI
    assert np.max(np.abs(J.u1.values - expected)) < 1e-14
    assert J.u2.max_abs() < 1e-14


def test_kahler_J_default_base_is_identity(grid, rng):
    u = rf.k_tangent(grid, rng)
    J = gm.kahler_J(u)
    J_at = gm.kahler_J(u, at=GroupElement.identity(grid))
    assert type(J) is KTangent and type(J_at) is KTangent
    assert np.array_equal(J.u1.values, J_at.u1.values)
    assert np.array_equal(J.u2.values, J_at.u2.values)
    U = rf.g_tangent(grid, rng)
    assert type(gm.kahler_J(U, at=rf.group_element(grid, rng))) is TangentVector


def test_J_squared_at_identity_and_base(grid, rng):
    for _ in range(10):
        u = rf.k_tangent(grid, rng)
        dev = gm.kahler_J(gm.kahler_J(u)) + u
        assert gm.norm(dev) < 1e-10
        a = rf.group_element(grid, rng)
        U = rf.g_tangent(grid, rng)
        JJ = gm.kahler_J(gm.kahler_J(U, at=a), at=a)
        assert np.max(np.abs(JJ.u1.values + U.u1.values)) < 1e-10
        diff2 = JJ.u2.values + U.u2.values
        phix = a.phi_x.values
        assert np.max(np.abs(diff2 - np.mean(diff2 * phix))) < 1e-10


def test_J_right_invariance(grid, rng):
    for _ in range(5):
        a = rf.group_element(grid, rng)
        u = rf.k_tangent(grid, rng)
        translated = TangentVector(
            fs.compose(u.u1, a.phi), fs.compose(u.u2, a.phi)
        )
        J_then_translate = gm.kahler_J(u)
        lhs = gm.kahler_J(translated, at=a)
        rhs_u1 = fs.compose(J_then_translate.u1, a.phi)
        assert np.max(np.abs(lhs.u1.values - rhs_u1.values)) < 1e-9
        # second components agree as classes at the base point
        diff2 = lhs.u2.values - fs.compose(J_then_translate.u2, a.phi).values
        phix = a.phi_x.values
        assert np.max(np.abs(diff2 - np.mean(diff2 * phix))) < 1e-9


def test_omega_properties(grid, rng):
    for _ in range(10):
        u, v = rf.k_tangent(grid, rng), rf.k_tangent(grid, rng)
        assert gm.symplectic_omega(u, u) == 0.0
        assert abs(
            gm.symplectic_omega(u, v) + gm.symplectic_omega(v, u)
        ) < 1e-16
        assert abs(
            gm.symplectic_omega(u, v) - gm.metric(gm.kahler_J(u), v)
        ) < 1e-10
        assert abs(
            gm.metric(gm.kahler_J(u), gm.kahler_J(v)) - gm.metric(u, v)
        ) < 1e-10
        # omega(u, Ju) = |u|^2 certifies nondegeneracy on the sampled span
        assert gm.symplectic_omega(u, gm.kahler_J(u)) == pytest.approx(
            gm.metric(u, u), abs=1e-12
        )


def test_nabla_identities(grid, rng):
    for _ in range(10):
        u, v, w = (rf.k_tangent(grid, rng) for _ in range(3))
        assert gm.metric_compat_residual(u, v, w) < 1e-9
        assert gm.omega_compat_residual(u, v, w) < 1e-9
        assert gm.nabla_J_residual(u, v) < 1e-9


def test_bracket_properties(grid, rng):
    for _ in range(5):
        u, v = rf.k_tangent(grid, rng), rf.k_tangent(grid, rng)
        z = gm.bracket_K(u, u)
        assert gm.norm(z) < 1e-15
        s = gm.bracket_K(u, v) + gm.bracket_K(v, u)
        assert gm.norm(s) < 1e-15


def test_bracket_jacobi(grid, rng):
    for _ in range(10):
        u, v, w = (rf.k_tangent(grid, rng) for _ in range(3))
        assert gm.jacobi_residual(u, v, w) < 1e-9


def test_nijenhuis_vanishes_nontrivially(grid, rng):
    for _ in range(10):
        u, v = rf.k_tangent(grid, rng), rf.k_tangent(grid, rng)
        terms = gm.nijenhuis_terms(u, v)
        assert max(gm.norm(t) for t in terms) > 1e-2
        assert gm.norm(gm.nijenhuis(u, v)) < 1e-8
        z = gm.nijenhuis(u, u)
        assert gm.norm(z) < 1e-15


def test_curvature_G_constant_one(grid, rng):
    for _ in range(20):
        u, v = rf.g_tangent(grid, rng), rf.g_tangent(grid, rng)
        gram = gm.curvature_G(u, v)
        local = gm.curvature_local(u, v)
        assert abs(local / gram - 1.0) < 1e-8
    z = gm.curvature_G(u, u)
    assert abs(z) < 1e-14


def test_curvature_K_local_matches_closed(grid, rng):
    for _ in range(20):
        u, v = rf.k_tangent(grid, rng), rf.k_tangent(grid, rng)
        closed = gm.curvature_K_closed(u, v)
        local = gm.curvature_local(u, v)
        assert abs(closed - local) / max(1.0, abs(closed)) < 1e-8
    assert abs(gm.curvature_local(u, u)) < 1e-10


def test_curvature_J_plane(grid, rng):
    u = rf.k_tangent(grid, rng)
    u = u * (1.0 / gm.norm(u))
    Ju = gm.kahler_J(u)
    # orthonormal pair with omega = +-1: curvature contraction is 4
    assert gm.metric(u, Ju) == pytest.approx(0.0, abs=1e-14)
    assert gm.curvature_K_closed(u, Ju) == pytest.approx(4.0, abs=1e-10)
    assert gm.curvature_local(u, Ju) == pytest.approx(4.0, abs=1e-8)
    assert gm.sectional_curvature(u, Ju) == pytest.approx(4.0, abs=1e-8)


def test_sectional_pinching(grid, rng):
    for _ in range(30):
        u, v = rf.k_tangent(grid, rng), rf.k_tangent(grid, rng)
        sec = gm.sectional_curvature(u, v)
        assert 1.0 - 1e-8 <= sec <= 4.0 + 1e-8


def test_sectional_orthogonal_omega_zero_gives_one(grid):
    # build u2-only and u1-only vectors: omega(u, v) = 0 and <u, v> = 0
    u = KTangent(
        PeriodicFunction.zeros(grid),
        PeriodicFunction.from_callable(grid, lambda x: 2.0 * np.cos(TWO_PI * x)),
    )
    v = KTangent(
        PeriodicFunction.from_callable(
            grid, lambda x: (1.0 - np.cos(TWO_PI * x)) / TWO_PI
        ),
        PeriodicFunction.zeros(grid),
    )
    # omega(u, v) = (1/4) int(u2x v1): cos' against (1 - cos) integrates to 0?
    # u2x = -2 pi sin * 2, v1 = (1-cos)/2pi: int sin (1 - cos) = 0
    assert abs(gm.symplectic_omega(u, v)) < 1e-14
    assert gm.sectional_curvature(u, v) == pytest.approx(1.0, abs=1e-10)


def test_sectional_rejects_degenerate(grid, rng):
    u = rf.k_tangent(grid, rng)
    with pytest.raises(DegeneratePlaneError):
        gm.sectional_curvature(u, u * 2.0)


@st.composite
def unit_tangent_pairs(draw, cls):
    """Two unit tangents of type ``cls`` at n in {32, 64, 128}.

    u1x and u2 are band-limited below n/4 with coefficients decaying like
    k^-3, as in ``randfields``; u2 also gets a constant, which a
    :class:`KTangent` projects away.
    """
    n = draw(st.sampled_from([32, 64, 128]))
    grid = PeriodicGrid(n)
    coeff = st.floats(-1.0, 1.0)

    def field():
        modes = draw(st.lists(
            st.tuples(coeff, coeff), min_size=1, max_size=n // 4 - 1
        ))
        a, b = np.array(modes).T
        k = np.arange(1, len(modes) + 1)
        phases = TWO_PI * np.outer(k, grid.x)
        vals = (a / k**3) @ np.cos(phases) + (b / k**3) @ np.sin(phases)
        return PeriodicFunction(grid, vals)

    def unit():
        t = cls(fs.antiderivative_from_zero(field()), field() + draw(coeff))
        size = gm.norm(t)
        assume(size > 1e-6)
        return t * (1.0 / size)

    return unit(), unit()


@settings(max_examples=50, deadline=None)
@given(unit_tangent_pairs(KTangent))
def test_quotient_curvature_properties(pair):
    u, v = pair
    assume(gm.curvature_G(u, v) > 1e-4)
    sec = gm.sectional_curvature(u, v)
    assert 1.0 - 1e-8 <= sec <= 4.0 + 1e-8
    closed = gm.curvature_K_closed(u, v)
    assert abs(gm.curvature_local(u, v) - closed) <= 1e-8 * closed


@settings(max_examples=50, deadline=None)
@given(unit_tangent_pairs(TangentVector))
def test_group_curvature_is_gram_determinant(pair):
    u, v = pair
    gram = gm.curvature_G(u, v)
    assume(gram > 1e-4)
    assert abs(gm.curvature_local(u, v) - gram) <= 1e-8 * gram


@pytest.mark.parametrize("n", [8, 256])
def test_carried_derivatives_are_bit_exact(n, rng):
    grid = PeriodicGrid(n)

    def same_bits(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    w = PeriodicFunction(grid, rng.normal(size=n))
    u1 = fs.antiderivative_from_zero(fs.mean_projection(w))
    u2 = PeriodicFunction(grid, rng.normal(size=n) + 0.3)
    for t in (TangentVector(u1, u2), KTangent(u1, u2)):
        same_bits(t.u1x, fs.derivative(t.u1).values)
        same_bits(t.u2x, fs.derivative(t.u2).values)
    phi = PeriodicFunction(grid, grid.x + 0.05 * np.sin(TWO_PI * grid.x))
    a = GroupElement(phi, PeriodicFunction(grid, rng.normal(size=n)))
    same_bits(a.phi_x.values, fs._check_increasing(phi, tol=0.0))
    d = InitialData(u1, u2)
    same_bits(d.u0x.values, fs.derivative(u1).values)


def test_formulas_read_carried_derivatives(grid, rng, monkeypatch):
    u, v = rf.k_tangent(grid, rng), rf.k_tangent(grid, rng)
    U, V = rf.g_tangent(grid, rng), rf.g_tangent(grid, rng)
    a = rf.group_element(grid, rng)
    for t in (u, v, U, V):  # derivatives are taken on first read
        t.u1x, t.u2x
    calls = []
    rfft = fs.rfft

    def counting_rfft(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(fs, "rfft", counting_rfft)
    gm.curvature_G(u, v)
    gm.sectional_curvature(u, v)
    gr.metric(a, U, V)
    gr.tangent_phi(a, U)
    assert len(calls) == 0
    gm.curvature_local(u, v)
    assert len(calls) <= 21
