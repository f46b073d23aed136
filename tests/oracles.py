"""Independent oracles the tests check the library against.

Everything here deliberately avoids the code paths under test: finite
differences instead of spectral derivatives, cubic splines on refined
grids instead of trigonometric interpolation, dense parameter scans
instead of closed-form root finding, the dense phase matrix instead of
block evaluation or an inverse FFT, and scalar brentq and
minimize_scalar calls instead of vectorised Newton.
"""

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq, minimize_scalar


def centered_difference(values: np.ndarray, dx: float) -> np.ndarray:
    """Second-order periodic centered difference."""
    return (np.roll(values, -1) - np.roll(values, 1)) / (2.0 * dx)


def refined_grid_composition(f_callable, phi_values: np.ndarray, n_fine: int):
    """Evaluate f(phi(x_j)) through a periodic cubic spline on a fine grid."""
    x_fine = np.linspace(0.0, 1.0, n_fine + 1)
    samples = f_callable(x_fine)
    spline = CubicSpline(x_fine, samples, bc_type="periodic")
    return spline(np.mod(phi_values, 1.0))


def _dense_coefficients(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modes k = -n/2..n/2 and coefficients with the Nyquist term split."""
    n = values.size
    c = np.fft.fft(values) / n
    half = n // 2
    c_ext = np.empty(n + 1, dtype=np.complex128)
    c_ext[half] = c[0]
    c_ext[half + 1 : 2 * half] = c[1:half]
    c_ext[:half] = c[half:]
    c_ext[0] = 0.5 * c[half]
    c_ext[-1] = 0.5 * c[half]
    return np.arange(-half, half + 1), c_ext


def dense_trig_interpolate(values: np.ndarray, points) -> np.ndarray:
    """Trigonometric interpolant of grid samples through the dense
    (points x (n+1)) phase matrix, snapping grid-coincident points to the
    samples; the reference formula for the library's block evaluation."""
    n = values.size
    k, c_ext = _dense_coefficients(values)
    pts = np.mod(np.atleast_1d(np.asarray(points, dtype=float)), 1.0)
    out = np.exp(2j * np.pi * np.outer(pts, k)) @ c_ext
    idx = np.rint(pts * n)
    on_grid = np.abs(pts * n - idx) < 1e-12
    out[on_grid] = values[idx[on_grid].astype(int) % n]
    return out if np.iscomplexobj(values) else out.real


def dense_band_limited(
    n: int, rng, max_mode: int, decay: float = 3.0, amplitude: float = 1.0
) -> np.ndarray:
    """Samples of amplitude * sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x)
    through dense (max_mode x n) cos and sin matrices, drawing a then b
    from ``rng`` as the library does."""
    k = np.arange(1, max_mode + 1)
    a = rng.normal(size=max_mode) / k**decay
    b = rng.normal(size=max_mode) / k**decay
    phases = 2.0 * np.pi * np.outer(k, np.arange(n) / n)
    return amplitude * (a @ np.cos(phases) + b @ np.sin(phases))


def brentq_inverse(phi_values: np.ndarray, xtol: float = 1e-12) -> np.ndarray:
    """Inverse of an increasing lift at the grid nodes, one scalar brentq
    per node on the dense interpolant of the periodic part h = phi - x,
    inside the bracket [x - max h - 1e-3, x - min h + 1e-3]."""
    n = phi_values.size
    x = np.arange(n) / n
    k, c_ext = _dense_coefficients(phi_values - x)

    def lifted(y, target):
        return y + float(np.real(np.exp(2j * np.pi * k * y) @ c_ext)) - target

    hmax = np.max(phi_values - x) + 1e-3
    hmin = np.min(phi_values - x) - 1e-3
    out = np.zeros(n)
    for j in range(1, n):
        out[j] = brentq(lifted, x[j] - hmax, x[j] - hmin, args=(x[j],), xtol=xtol)
    return out


def sphere_path_values(u0x, rho0, c: float, t) -> np.ndarray:
    """Great-circle values cos(ct) + (u0x + i rho0) sin(ct)/(2c) on the grid."""
    k = (np.asarray(u0x) + 1j * np.asarray(rho0)) / (2.0 * c)
    return np.cos(c * t) + k * np.sin(c * t)


def first_zero_time_scan(
    u0x, rho0, c: float, t_max: float, n_t: int = 8000, dip_threshold: float = 0.02
):
    """First time min_x |f(t, x)| vanishes, from a dense scan plus refinement.

    Scans the grid minimum of |f| over (0, t_max], walks the dips below
    ``dip_threshold`` in order, and polishes each candidate by minimizing
    the squared modulus; the first candidate whose refined minimum is
    below 1e-6 wins.  Returns None when no zero is found.
    """
    ts = np.linspace(t_max / n_t, t_max, n_t)
    mins = np.array([np.min(np.abs(sphere_path_values(u0x, rho0, c, t))) for t in ts])

    def refine(i):
        lo = ts[max(i - 1, 0)]
        hi = ts[min(i + 1, n_t - 1)]

        def msq(t):
            return float(np.min(np.abs(sphere_path_values(u0x, rho0, c, t))) ** 2)

        res = minimize_scalar(msq, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        return float(res.x), float(np.sqrt(max(res.fun, 0.0)))

    candidates = np.nonzero(
        (mins < dip_threshold)
        & (mins <= np.roll(mins, 1))
        & (mins <= np.roll(mins, -1))
    )[0]
    for i in candidates:
        t_star, m = refine(int(i))
        if m < 1e-6:
            return t_star
    return None


def great_circle_min_modulus(
    f_values: np.ndarray, r0: float, r_lo: float, r_hi: float, n_r: int = 1000
) -> float:
    """Minimum modulus of the circle (sin(r0 - r) + f sin r)/sin(r0) on the grid.

    Scans ``n_r`` arc-length samples, then polishes around the worst grid
    column so genuine zeros are resolved well below the sampled values.
    """
    rs = np.linspace(r_lo, r_hi, n_r)
    path = (
        np.sin(r0 - rs)[:, None] + f_values[None, :] * np.sin(rs)[:, None]
    ) / np.sin(r0)
    flat = np.abs(path)
    i, j = np.unravel_index(np.argmin(flat), flat.shape)
    best = float(flat[i, j])
    fx = f_values[j]

    def modulus(r):
        return float(np.abs(np.sin(r0 - r) + fx * np.sin(r)) / abs(np.sin(r0)))

    lo = rs[max(i - 1, 0)]
    hi = rs[min(i + 1, n_r - 1)]
    res = minimize_scalar(
        lambda r: modulus(r) ** 2, bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-13},
    )
    return min(best, float(np.sqrt(max(res.fun, 0.0))))


def scalar_rho_roots(values: np.ndarray) -> list[float]:
    """Zeros in [0, 1) of the dense interpolant of rho0 samples, one scalar
    call each: node values below 1e-12, a brentq root per sign change
    between neighbouring nodes, and a bounded minimize_scalar of rho0^2
    within one node of each grid local minimum of |rho0| below 1e-3 max
    |rho0| whose two neighbours have its sign, kept when |rho0| there is
    below 1e-10.  Roots closer than 1e-9 (on the circle) to an earlier one
    are dropped."""
    n = values.size
    x = np.arange(n) / n

    def rho(p):
        return float(dense_trig_interpolate(values, p)[0])

    prev, nxt = np.roll(values, 1), np.roll(values, -1)
    found = list(x[np.abs(values) < 1e-12])
    for j in np.nonzero(values * nxt < 0.0)[0]:
        found.append(brentq(rho, x[j], x[j] + 1.0 / n, xtol=1e-12))
    absv = np.abs(values)
    local_min = (absv <= np.abs(prev)) & (absv <= np.abs(nxt))
    one_sign = (values * prev > 0.0) & (values * nxt > 0.0)
    for j in np.nonzero(local_min & one_sign & (absv >= 1e-12))[0]:
        if absv[j] > 1e-3 * np.max(absv):
            continue
        res = minimize_scalar(lambda p: rho(p) ** 2, method="bounded",
                              bounds=(x[j] - 1.0 / n, x[j] + 1.0 / n),
                              options={"xatol": 1e-13})
        if abs(rho(res.x)) < 1e-10:
            found.append(res.x)
    roots: list[float] = []
    for r in np.mod(found, 1.0):
        if all(min(abs(r - e), 1.0 - abs(r - e)) >= 1e-9 for e in roots):
            roots.append(float(r))
    return sorted(roots)


def scalar_first_zero(u0x_values: np.ndarray, c: float) -> tuple[float, float]:
    """(x, t) minimising the first zero time t*(x) = arccot(-u0x / 2c) / c
    of rho0 = 0 data: a bounded minimize_scalar of t* on the dense
    interpolant of u0x within one node of the grid minimum, or that node
    when it is earlier."""
    n = u0x_values.size

    def tstar(p):
        v = float(dense_trig_interpolate(u0x_values, p)[0])
        return np.arctan2(1.0, -v / (2.0 * c)) / c

    j = int(np.argmin(u0x_values))
    res = minimize_scalar(tstar, method="bounded",
                          bounds=((j - 1) / n, (j + 1) / n),
                          options={"xatol": 1e-13})
    node = (j / n, tstar(j / n))
    return node if node[1] < res.fun else (float(res.x % 1.0), float(res.fun))
