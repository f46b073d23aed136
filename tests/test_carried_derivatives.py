"""Carried derivatives: tangent vectors and group elements born with the
derivatives their producers already hold.

The producers are the samplers of :mod:`hs2sphere.randfields` and the
first slots of ``christoffel``, ``kahler_J`` (with and without a base
point) and ``dJ_direction``.  Each carried derivative must equal
``fs.derivative`` of its slot, and row s of a stack must equal its one-row
build, bit for bit.

The bound is 1e-14 n of the derivative's max, the roundoff scale of one
spectral derivative, as in ``test_spectral_ops_match_dense_dft``:
``fs.derivative`` amplifies its input's roundoff by up to pi n.  Relative
to the slot's own max the gap is larger where a slot is small beside its
derivative (up to 1.8e-12 at n = 256 for ``kahler_J`` at a base point,
over 2,000 draws).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hs2sphere.funcspace as fs
import hs2sphere.geometry as gm
import hs2sphere.randfields as rf
from hs2sphere.funcspace import PeriodicFunction, PeriodicGrid
from hs2sphere.geometry import KTangent
from hs2sphere.group import TangentVector

DRAWN = (rf.g_tangent, rf.g_tangent, rf.k_tangent, rf.k_tangent, rf.group_element)


def _drawn(grid, seed, rows):
    """The inputs as one stack of ``rows`` and as the one-row builds of its rows."""
    rng = np.random.default_rng(seed)
    parts = [
        (draw(grid, rng, (rows,)), build)
        for draw, build in map(rf._SAMPLERS.get, DRAWN)
    ]
    stack = [build(grid, *drawn) for drawn, build in parts]
    alone = [
        [build(grid, *(p[s] for p in drawn)) for drawn, build in parts]
        for s in range(rows)
    ]
    return stack, alone


def _white(grid, seed, rows):
    """As :func:`_drawn`, with the four tangents white noise over the whole
    spectrum, Nyquist mode included, so that no closed form passes."""
    drawn, drawn_alone = _drawn(grid, seed, rows)
    noise = np.random.default_rng(seed).normal(size=(4, 2, rows, grid.n))
    classes = (TangentVector, TangentVector, KTangent, KTangent)

    def tangents(row):
        out = []
        for cls, (w, u2) in zip(classes, noise[:, :, row]):
            w = fs.mean_projection(PeriodicFunction(grid, w))
            out.append(cls(fs.antiderivative_from_zero(w), PeriodicFunction(grid, u2)))
        return out

    stack = tangents(slice(None)) + drawn[-1:]
    alone = [tangents(s) + drawn_alone[s][-1:] for s in range(rows)]
    return stack, alone


def _products(U, V, K, L, a, drawn=True):
    """Every producer's output: name -> (vector, slots born carrying).  The
    input tangents carry both derivatives when ``randfields`` drew them."""
    both = ("u1", "u2") if drawn else ()
    return {
        "g_tangent": (U, both),
        "k_tangent": (K, both),
        "christoffel_G": (gm.christoffel(U, V), ("u1",)),
        "christoffel_K": (gm.christoffel(K, L), ("u1",)),
        "kahler_J_G": (gm.kahler_J(U), ("u1",)),
        "kahler_J_K": (gm.kahler_J(K), ("u1",)),
        "kahler_J_at": (gm.kahler_J(U, at=a), ("u1",)),
        "dJ_direction": (gm.dJ_direction(K, L), ("u1",)),
    }


def _carried(t, slots):
    for name in slots:
        d = getattr(t, f"_{name}x")
        assert d is not None and not d.flags.writeable
        yield getattr(t, name), d


def _assert_near_derivative(slot, d):
    err = fs.row_max(np.abs(d - fs.derivative(slot).values))
    scale = fs.row_max(np.abs(d))
    assert np.all(err <= 1e-14 * slot.grid.n * scale), (err, scale)


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


inputs = st.tuples(
    st.sampled_from([64, 256]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.sampled_from([_drawn, _white]),
)


@settings(max_examples=30, deadline=None)
@given(inputs)
def test_carried_derivatives_are_the_slots_derivatives(case):
    n, seed, rows, make = case
    stack, alone = make(PeriodicGrid(n), seed, rows)
    for inputs in (stack, *alone):
        a = inputs[-1]
        h = PeriodicFunction(a.grid, a.phi.values - a.grid.x)
        _assert_near_derivative(h, a.phi_x.values - 1.0)
        for t, slots in _products(*inputs, make is _drawn).values():
            for slot, d in _carried(t, slots):
                _assert_near_derivative(slot, d)


@settings(max_examples=30, deadline=None)
@given(inputs)
def test_stack_rows_equal_their_one_row_builds(case):
    n, seed, rows, make = case
    stack, alone = make(PeriodicGrid(n), seed, rows)
    a = stack[-1]
    stacked = _products(*stack, make is _drawn)
    for s, inputs in enumerate(alone):
        b = inputs[-1]
        for got, want in ((a.phi, b.phi), (a.alpha, b.alpha), (a.phi_x, b.phi_x)):
            _same_bits(got.values[s], want.values)
        for name, (t, slots) in _products(*inputs, make is _drawn).items():
            T = stacked[name][0]
            _same_bits(T.u1.values[s], t.u1.values)
            _same_bits(T.u2.values[s], t.u2.values)
            for (_, D), (_, d) in zip(_carried(T, slots), _carried(t, slots)):
                _same_bits(D[s], d)
