import numpy as np
import pytest

import hs2sphere.randfields as rf
from hs2sphere.funcspace import PeriodicGrid
from hs2sphere.randfields import (
    DEFAULT_DECAY,
    _spectrum,
    band_limited,
    k_tangent,
    stacks,
)

from oracles import dense_band_limited


@pytest.mark.parametrize("n", [16, 256])
@pytest.mark.parametrize("eighth", [False, True])
def test_band_limited_matches_dense_formula(n, eighth):
    max_mode = n // 8 if eighth else None
    modes = n // 8 if eighth else n // 4 - 1
    fast_rng, dense_rng = np.random.default_rng(7), np.random.default_rng(7)
    f = 0.8 * band_limited(PeriodicGrid(n), fast_rng, max_mode=max_mode)
    ref = dense_band_limited(n, dense_rng, modes, amplitude=0.8)
    assert np.max(np.abs(f.values - ref)) < 1e-14
    # same draws from the generator, in the same order
    assert fast_rng.normal() == dense_rng.normal()


def test_band_limited_rejects_modes_from_nyquist_up():
    with pytest.raises(ValueError):
        band_limited(PeriodicGrid(16), np.random.default_rng(0), max_mode=8)


@pytest.mark.parametrize("max_mode", [1, 5, 63, 127])
def test_spectrum_draws_like_two_normal_calls(max_mode):
    # one normal call of size (2, m) reads the generator's stream as the
    # two size-m calls it replaced, and leaves it in the same place
    grid = PeriodicGrid(256)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    spec = _spectrum(grid, rng, max_mode)
    k = np.arange(1, max_mode + 1)
    a = ref_rng.normal(size=max_mode) / k**DEFAULT_DECAY
    b = ref_rng.normal(size=max_mode) / k**DEFAULT_DECAY
    ref = np.zeros(grid.n // 2 + 1, dtype=complex)
    ref[1 : max_mode + 1] = 0.5 * grid.n * (a - 1j * b)
    assert spec.tobytes() == ref.tobytes()
    assert rng.normal() == ref_rng.normal()


@pytest.mark.parametrize("n, samples", [(64, 1), (256, 20)])
def test_stacks_draw_each_spectrum_in_one_call(n, samples):
    # a stack of k-tangents makes one normal call per spectrum, of all
    # samples at once, not one call per sample
    rng, ref_rng = np.random.default_rng(13), np.random.default_rng(13)
    (u,) = stacks(PeriodicGrid(n), rng, samples, k_tangent)
    m = n // 4 - 1
    ref_rng.normal(size=(2, samples, m))
    a, b = ref_rng.normal(size=(2, samples, m)) / np.arange(1, m + 1) ** DEFAULT_DECAY
    spec = np.zeros((samples, n // 2 + 1), dtype=complex)
    spec[:, 1 : m + 1] = 0.5 * n * (a - 1j * b)
    u2 = np.fft.irfft(spec, n)
    # KTangent keeps the zero-mean representative of u2
    u2 -= np.mean(u2, axis=-1, keepdims=True)
    assert u.u2.values.tobytes() == u2.tobytes()
    assert rng.normal() == ref_rng.normal()


class _Recorder:
    """A generator that records the method and size of every call."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def call(*args, size=None):
            self.calls.append((name, size))
            return method(*args, size=size)

        return call


# n = 64: a spectrum of the modes 1..15 (group elements: 1..8) is one
# normal call of size (2, *shape, modes); a stack of S has shape (S,)
_N, _S = 64, 3


def _spectrum_call(shape, modes=15):
    return ("normal", (2, *shape, modes))


_DRAWS = {
    rf.g_tangent: lambda *s: [_spectrum_call(s), ("normal", s), _spectrum_call(s)],
    rf.k_tangent: lambda *s: [_spectrum_call(s), _spectrum_call(s)],
    rf.group_element: lambda *s: [
        _spectrum_call(s, 8), _spectrum_call(s, 8), ("uniform", s)
    ],
    rf.nonvanishing_sphere_point: lambda *s: [
        _spectrum_call(s, 8), _spectrum_call(s, 8), ("uniform", s)
    ],
    rf.complex_field: lambda *s: [_spectrum_call(s), _spectrum_call(s)],
}


@pytest.mark.parametrize("sampler", list(_DRAWS), ids=lambda f: f.__name__)
def test_every_sampler_draws_in_its_pinned_order(sampler):
    # the generator calls of each sampler, method and size, in order: one
    # sample, and a stack of _S built by ``stacks``
    grid = PeriodicGrid(_N)
    rng = _Recorder(3)
    sampler(grid, rng)
    assert rng.calls == _DRAWS[sampler]()
    rng = _Recorder(3)
    stacks(grid, rng, _S, sampler)
    assert rng.calls == _DRAWS[sampler](_S)


def test_other_samplers_draw_in_their_pinned_order():
    grid = PeriodicGrid(_N)
    rng = _Recorder(5)
    band_limited(grid, rng)
    band_limited(grid, rng, max_mode=4)
    assert rng.calls == [("normal", (2, 15)), ("normal", (2, 4))]
    base = rf.nonvanishing_sphere_point(grid, np.random.default_rng(5))
    rng = _Recorder(5)
    rf.sphere_tangent(base, rng)
    assert rng.calls == [("normal", (2, 15)), ("normal", (2, 15))]
    # several inputs draw one after another, in the order given
    rng = _Recorder(5)
    stacks(grid, rng, _S, rf.k_tangent, rf.group_element)
    assert rng.calls == _DRAWS[rf.k_tangent](_S) + _DRAWS[rf.group_element](_S)
