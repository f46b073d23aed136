"""Seeded random band-limited fields for identity checks and tests.

Vectors are confined to the lowest quarter of the spectrum (strictly
below n/4) with power-law coefficient decay, so pointwise products of up
to two factors are exactly representable on the grid and the triple
products appearing in curvature expressions stay far below the test
tolerances.

:func:`stacks` draws S samples of each of several inputs with one
generator call per spectrum and per scalar of that input, and builds each
input as one stack of S samples, so its rows depend on S as well as on
the generator.  Each input has one buffer of half spectra: its draw
writes the spectra straight into their rows of it, its build fills the
integral and derivative rows in place and samples the whole buffer in
one batched inverse FFT, whose rows become the input's fields in place.
No spectrum is copied into a stack, and the decay weights are computed
once per mode count.
"""

from __future__ import annotations

import functools

import numpy as np

from . import funcspace as fs
from .funcspace import PeriodicFunction, PeriodicGrid
from .geodesics import InitialData, speed
from .geometry import KTangent
from .group import GroupElement, TangentVector, phi_map
from .sphere import SpherePoint, SphereTangent, project_to_tangent

DEFAULT_DECAY = 3.0
DIFFEO_AMPLITUDE = 0.4
PHASE_AMPLITUDE = 0.75


@functools.cache
def _decay(max_mode: int) -> np.ndarray:
    """The decay weights k**DEFAULT_DECAY, k = 1 .. max_mode; read-only."""
    weights = np.arange(1, max_mode + 1) ** DEFAULT_DECAY
    weights.flags.writeable = False
    return weights


def _spectrum(
    grid: PeriodicGrid,
    rng: np.random.Generator,
    max_mode: int | None = None,
    shape: tuple = (),
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Draw ``shape`` half spectra of :func:`band_limited`: one normal call.

    They are written into ``out``, zeros of shape (*shape, n/2 + 1), where
    the caller gives it.
    """
    n = grid.n
    if max_mode is None:
        max_mode = n // 4 - 1
    if max_mode >= n / 2:
        raise ValueError(f"max_mode {max_mode} must lie below n/2 = {n / 2}")
    if out is None:
        out = np.zeros((*shape, n // 2 + 1), dtype=complex)
    ab = rng.normal(size=(2, *shape, max_mode))
    ab /= _decay(max_mode)
    np.multiply(ab[0], 0.5 * n, out=out.real[..., 1 : max_mode + 1])
    np.multiply(ab[1], -0.5 * n, out=out.imag[..., 1 : max_mode + 1])
    return out


def _spectra(grid, rng, shape, rows, drawn, max_mode=None) -> np.ndarray:
    """A zero buffer of ``rows`` half spectra, shape (rows, *shape, n/2 + 1),
    with spectra drawn into the rows ``drawn``, in that order."""
    spec = np.zeros((rows, *shape, grid.n // 2 + 1), dtype=complex)
    for row in drawn:
        _spectrum(grid, rng, max_mode, shape, spec[row])
    return spec


def band_limited(
    grid: PeriodicGrid,
    rng: np.random.Generator,
    max_mode: int | None = None,
) -> PeriodicFunction:
    """Zero-mean random trigonometric polynomial with decaying coefficients.

    The samples of sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x), k = 1 ..
    max_mode < n/2, are one inverse real FFT of the spectrum
    (n/2)(a_k - i b_k).
    """
    vals = fs.irfft(_spectrum(grid, rng, max_mode), grid.n)
    return PeriodicFunction._own(grid, vals)


# Every sampler below is build(grid, *draw(grid, rng)): ``draw`` makes all
# of its generator calls and returns spectra and scalars, ``build`` turns
# them into fields.  ``shape=(S,)`` draws S samples of each part at once,
# and :func:`stacks` builds them as one stack.  A draw writes its spectra
# into the one buffer of half spectra (:func:`_spectra`) that its build
# completes in place (the integral and derivative rows) and samples,
# integrates and differentiates in one batched inverse FFT; the build
# turns the sampled rows into the fields in place, and its tangent vectors
# and group elements are born carrying the derivatives, views of the same
# array.  Every part a draw returns holds its samples on the leading axis,
# so that part[s] of each part is the draw of sample s: a buffer of shape
# (rows, S, n/2 + 1) is returned as its (S, rows, n/2 + 1) view, which the
# build swaps back.


def _draw_g(grid, rng, shape=()):
    spec = _spectra(grid, rng, shape, 4, (2,))  # u2 first, then its mean
    mean = rng.normal(size=shape)
    _spectrum(grid, rng, shape=shape, out=spec[1])
    return spec.swapaxes(0, -2), mean


def _tangent(cls, grid, spec, mean=0.0):
    """The spectra of u1x and u2 in rows 1 and 2 of ``spec``: u1 integrates
    the zero-mean field u1x from 0, and u2 is its field plus ``mean``."""
    sp = grid.spectral
    spec = spec.swapaxes(0, -2)
    np.multiply(spec[1], sp.antideriv, out=spec[0])
    np.multiply(spec[2], sp.deriv, out=spec[3])
    u1, u1x, u2, u2x = fs.irfft(spec, grid.n)
    u1 -= u1[..., :1]
    u2 += np.asarray(mean)[..., None]
    own = PeriodicFunction._own
    return cls(own(grid, u1), own(grid, u2), _u1x=u1x, _u2x=u2x)


def _build_g(grid, spec, mean):
    return _tangent(TangentVector, grid, spec, mean)


def _draw_k(grid, rng, shape=()):
    return (_spectra(grid, rng, shape, 4, (1, 2)).swapaxes(0, -2),)


def _build_k(grid, spec):
    return _tangent(KTangent, grid, spec)


def _draw_group(grid, rng, shape=()):
    spec = _spectra(grid, rng, shape, 3, (0, 2), grid.n // 8)  # w, then alpha
    return spec.swapaxes(0, -2), rng.uniform(0.0, 4.0 * np.pi, size=shape)


def _build_group(grid, spec, shift):
    # phi = x + scale * integral(w) from 0, so phi_x = 1 + scale * w
    spec = spec.swapaxes(0, -2)
    np.multiply(spec[0], grid.spectral.antideriv, out=spec[1])
    w, phi, alpha = fs.irfft(spec, grid.n)
    peak = fs.row_max(np.abs(w), keepdims=True)
    scale = DIFFEO_AMPLITUDE / np.maximum(peak, 1e-12)
    phi -= phi[..., :1]
    phi *= scale
    phi += grid.x
    alpha *= PHASE_AMPLITUDE
    alpha += np.asarray(shift)[..., None]
    w *= scale
    w += 1.0
    own = PeriodicFunction._own
    return GroupElement(own(grid, phi), own(grid, alpha), 0, _phi_x=w)


def _build_sphere_point(grid, *parts):
    return phi_map(_build_group(grid, *parts))


def _draw_complex(grid, rng, shape=()):
    return (_spectra(grid, rng, shape, 2, (0, 1)).swapaxes(0, -2),)


def _build_complex(grid, spec):
    re, im = fs.irfft(spec.swapaxes(0, -2), grid.n)
    return PeriodicFunction._own(grid, re + 1j * im)


def g_tangent(grid: PeriodicGrid, rng: np.random.Generator) -> TangentVector:
    """Random (u1, u2), u2 with a random mean."""
    return _build_g(grid, *_draw_g(grid, rng))


def k_tangent(grid: PeriodicGrid, rng: np.random.Generator) -> KTangent:
    return _build_k(grid, *_draw_k(grid, rng))


def group_element(grid: PeriodicGrid, rng: np.random.Generator) -> GroupElement:
    """Random element in the identity component with phi_x bounded from 0.

    Base points are band-limited to n/8 so that compositions and
    inversions (which broaden the spectrum) stay fully resolved.
    """
    return _build_group(grid, *_draw_group(grid, rng))


def nonvanishing_sphere_point(
    grid: PeriodicGrid, rng: np.random.Generator
) -> SpherePoint:
    """Random point of the nowhere-vanishing subset (image of the group)."""
    return phi_map(group_element(grid, rng))


def complex_field(grid: PeriodicGrid, rng: np.random.Generator) -> PeriodicFunction:
    """Random complex field: two band-limited fields, real part first."""
    return _build_complex(grid, *_draw_complex(grid, rng))


def sphere_tangent(base: SpherePoint, rng: np.random.Generator) -> SphereTangent:
    return project_to_tangent(base, complex_field(base.grid, rng))


_SAMPLERS = {
    g_tangent: (_draw_g, _build_g),
    k_tangent: (_draw_k, _build_k),
    group_element: (_draw_group, _build_group),
    nonvanishing_sphere_point: (_draw_group, _build_sphere_point),
    complex_field: (_draw_complex, _build_complex),
}


def stacks(grid: PeriodicGrid, rng: np.random.Generator, samples: int, *samplers):
    """Draw ``samples`` samples of the inputs ``samplers`` and stack each input.

    ``samplers`` are one-sample constructors of this module.  Each input,
    in the order given, draws its ``samples`` samples with one generator
    call per spectrum and per scalar, and is built as one stack of shape
    (samples, n) with one batched inverse FFT per input.  Row s depends
    only on the s-th row of those draws.
    """
    return [
        build(grid, *draw(grid, rng, (samples,)))
        for draw, build in map(_SAMPLERS.get, samplers)
    ]


def initial_data(
    grid: PeriodicGrid,
    rng: np.random.Generator,
    global_existence: bool | None = None,
    speed_range: tuple[float, float] = (0.3, 2.5),
) -> InitialData:
    """Random initial data with known existence class.

    ``global_existence=True`` keeps rho0 bounded away from zero;
    ``False`` forces a sign change; ``None`` leaves it to chance.
    """
    u0 = fs.antiderivative_from_zero(band_limited(grid, rng))
    rho = band_limited(grid, rng)
    if global_existence is True:
        floor = rho.max_abs() + float(rng.uniform(0.2, 1.0))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        rho = rho + sign * floor
    elif global_existence is False:
        # center so the range straddles zero with a genuine sign change
        rho = fs.mean_projection(rho)
        if rho.max_abs() < 1e-8:
            rho = PeriodicFunction._own(
                grid, np.cos(2.0 * np.pi * grid.x) * (1.0 + rng.uniform())
            )
    d = InitialData(u0, rho)
    c = speed(d)
    target = float(rng.uniform(*speed_range))
    return d * (target / c)
