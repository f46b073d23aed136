"""Seeded random band-limited fields for identity checks and tests.

Vectors are confined to the lowest quarter of the spectrum (strictly
below n/4) with power-law coefficient decay, so pointwise products of up
to two factors are exactly representable on the grid and the triple
products appearing in curvature expressions stay far below the test
tolerances.
"""

from __future__ import annotations

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


def band_limited(
    grid: PeriodicGrid,
    rng: np.random.Generator,
    max_mode: int | None = None,
    amplitude: float = 1.0,
) -> PeriodicFunction:
    """Zero-mean random trigonometric polynomial with decaying coefficients.

    The samples of sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x), k = 1 ..
    max_mode < n/2, are one inverse real FFT of the spectrum
    (n/2)(a_k - i b_k).
    """
    n = grid.n
    if max_mode is None:
        max_mode = n // 4 - 1
    if max_mode >= n / 2:
        raise ValueError(f"max_mode {max_mode} must lie below n/2 = {n / 2}")
    k = np.arange(1, max_mode + 1)
    a = rng.normal(size=max_mode) / k**DEFAULT_DECAY
    b = rng.normal(size=max_mode) / k**DEFAULT_DECAY
    spec = np.zeros(n // 2 + 1, dtype=complex)
    spec[1 : max_mode + 1] = 0.5 * n * (a - 1j * b)
    return PeriodicFunction(grid, amplitude * np.fft.irfft(spec, n))


def u1_field(grid: PeriodicGrid, rng: np.random.Generator) -> PeriodicFunction:
    """Random periodic u1 with u1(0) = 0 exactly (integrated series)."""
    return fs.antiderivative_from_zero(band_limited(grid, rng))


def g_tangent(
    grid: PeriodicGrid, rng: np.random.Generator, with_mean: bool = True
) -> TangentVector:
    u2 = band_limited(grid, rng)
    if with_mean:
        u2 = u2 + float(rng.normal())
    return TangentVector(u1_field(grid, rng), u2)


def k_tangent(grid: PeriodicGrid, rng: np.random.Generator) -> KTangent:
    return KTangent(u1_field(grid, rng), band_limited(grid, rng))


def group_element(grid: PeriodicGrid, rng: np.random.Generator) -> GroupElement:
    """Random element in the identity component with phi_x bounded from 0.

    Base points are band-limited to n/8 so that compositions and
    inversions (which broaden the spectrum) stay fully resolved.
    """
    w = band_limited(grid, rng, max_mode=grid.n // 8)
    scale = DIFFEO_AMPLITUDE / max(w.max_abs(), 1e-12)
    h = fs.antiderivative_from_zero(w * scale)
    phi = PeriodicFunction(grid, grid.x + h.values)
    alpha = band_limited(
        grid, rng, max_mode=grid.n // 8, amplitude=PHASE_AMPLITUDE
    ) + float(rng.uniform(0.0, 4.0 * np.pi))
    return GroupElement(phi, alpha, 0)


def sphere_point(grid: PeriodicGrid, rng: np.random.Generator) -> SpherePoint:
    """Random unit-norm point (may vanish somewhere)."""
    vals = (
        1.0
        + band_limited(grid, rng).values
        + 1j * band_limited(grid, rng).values
    )
    norm = np.sqrt(np.mean(np.abs(vals) ** 2))
    return SpherePoint(PeriodicFunction(grid, vals / norm))


def nonvanishing_sphere_point(
    grid: PeriodicGrid, rng: np.random.Generator
) -> SpherePoint:
    """Random point of the nowhere-vanishing subset (image of the group)."""
    return phi_map(group_element(grid, rng))


def sphere_tangent(base: SpherePoint, rng: np.random.Generator) -> SphereTangent:
    grid = base.grid
    raw = PeriodicFunction(
        grid, band_limited(grid, rng).values + 1j * band_limited(grid, rng).values
    )
    return project_to_tangent(base, raw)


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
    u0 = u1_field(grid, rng)
    rho = band_limited(grid, rng)
    if global_existence is True:
        floor = rho.max_abs() + float(rng.uniform(0.2, 1.0))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        rho = rho + sign * floor
    elif global_existence is False:
        # center so the range straddles zero with a genuine sign change
        rho = fs.mean_projection(rho)
        if rho.max_abs() < 1e-8:
            rho = PeriodicFunction(
                grid, np.cos(2.0 * np.pi * grid.x) * (1.0 + rng.uniform())
            )
    d = InitialData(u0, rho)
    c = speed(d)
    target = float(rng.uniform(*speed_range))
    return InitialData(u0 * (target / c), rho * (target / c))
