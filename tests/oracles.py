"""Independent oracles the tests check the library against.

Everything here deliberately avoids the code paths under test: finite
differences instead of spectral derivatives, cubic splines on refined
grids instead of trigonometric interpolation, dense parameter scans
instead of closed-form root finding, the dense phase matrix instead of
the nonuniform FFT or an inverse FFT, dense DFT matrices instead of
real-FFT multipliers, scalar brentq and minimize_scalar calls instead
of vectorised Newton, and the eigenvalues of a companion matrix instead of
bounds and brackets.
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


def dense_trig_interpolate(
    values: np.ndarray, points, order: int = 0
) -> np.ndarray:
    """Order-th derivative of the trigonometric interpolant of grid samples
    through the dense (points x (n+1)) phase matrix; the reference formula
    for the library's nonuniform FFT.  Order 0 snaps grid-coincident points
    to the samples."""
    n = values.size
    k, c_ext = _dense_coefficients(values)
    pts = np.mod(np.atleast_1d(np.asarray(points, dtype=float)), 1.0)
    c_ext = c_ext * (2j * np.pi * k) ** order
    out = np.exp(2j * np.pi * np.outer(pts, k)) @ c_ext
    if order == 0:
        idx = np.rint(pts * n)
        on_grid = np.abs(pts * n - idx) < 1e-12
        out[on_grid] = values[idx[on_grid].astype(int) % n]
    return out if np.iscomplexobj(values) else out.real


def dense_dft_multiplier(values: np.ndarray, symbol) -> np.ndarray:
    """Apply the Fourier symbol(k), k = -n/2+1..n/2, through the dense
    n x n DFT matrix and its inverse; real input gives the real part."""
    n = values.size
    k = np.arange(n)
    k[k > n // 2] -= n
    phases = 2.0 * np.pi * np.outer(np.arange(n), k) / n
    coeffs = np.exp(-1j * phases).T @ values / n
    out = np.exp(1j * phases) @ (symbol(k) * coeffs)
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


def companion_zeros(
    values: np.ndarray, tol: float = 1e-7, order: int = 0
) -> np.ndarray:
    """Real zeros in [0, 1) of the order-th derivative p of the interpolant
    of real samples, ascending.

    Boyd's Fourier companion matrix (J. Eng. Math. 2006): with
    z = exp(2 pi i x), z^(n/2) p(x) is the polynomial sum_k c_k z^(k+n/2)
    of degree n, the Nyquist term split between k = +-n/2, and p's real
    zeros are its roots on the unit circle.  Leading coefficients below
    1e-13 of the largest are dropped; the roots are the eigenvalues of the
    companion matrix of what is left (numpy.linalg.eigvals), O(n^3), kept
    when their modulus is within tol of 1.
    """
    k, c = _dense_coefficients(values)
    c = c * (2j * np.pi * k) ** order
    keep = np.nonzero(np.abs(c) >= 1e-13 * np.max(np.abs(c)))[0]
    c = c[: keep[-1] + 1]
    degree = c.size - 1
    companion = np.zeros((degree, degree), dtype=complex)
    companion[1:, :-1] = np.eye(degree - 1)
    companion[:, -1] = -c[:-1] / c[-1]
    z = np.linalg.eigvals(companion)
    z = z[np.abs(np.abs(z) - 1.0) < tol]
    return np.sort(np.mod(np.angle(z) / (2.0 * np.pi), 1.0))


def brentq_inverse(phi_values: np.ndarray, xtol: float = 1e-12) -> np.ndarray:
    """Inverse of an increasing lift at the grid nodes, one scalar brentq
    per node on the dense interpolant of the periodic part h = phi - x,
    inside the bracket [x - B, x + B], B = sum |c_k| >= sup |h| over the
    circle (the node range of h can miss the interpolant's extrema)."""
    n = phi_values.size
    x = np.arange(n) / n
    k, c_ext = _dense_coefficients(phi_values - x)

    def lifted(y, target):
        return y + float(np.real(np.exp(2j * np.pi * k * y) @ c_ext)) - target

    bound = np.sum(np.abs(c_ext))
    out = np.zeros(n)
    for j in range(1, n):
        out[j] = brentq(lifted, x[j] - bound, x[j] + bound, args=(x[j],), xtol=xtol)
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
    return distinct_roots_loop(found)


def distinct_roots_loop(found) -> list[float]:
    """The roots mod 1, ascending, each kept unless it lies closer than
    1e-9 (on the circle) to an earlier kept one: a comparison with every
    kept root, quadratic in their number."""
    roots: list[float] = []
    for r in np.mod(found, 1.0):
        if all(min(abs(r - e), 1.0 - abs(r - e)) >= 1e-9 for e in roots):
            roots.append(float(r))
    return sorted(roots)


def scalar_first_zero(u0x_values: np.ndarray, c: float) -> tuple[float, float]:
    """(x, t) minimising the first zero time t*(x) = arccot(-u0x / 2c) / c
    of rho0 = 0 data: a scan of the dense interpolant of u0x at 64 n
    points, then a bounded minimize_scalar of t* within one scan step of
    each local minimum of the scan; the earliest of these minima and of
    their samples."""
    m = 64 * u0x_values.size

    def tstar(p):
        v = float(dense_trig_interpolate(u0x_values, p)[0])
        return np.arctan2(1.0, -v / (2.0 * c)) / c

    scan = np.arange(m) / m
    samples = np.concatenate(
        [dense_trig_interpolate(u0x_values, p) for p in np.split(scan, 64)]
    )
    local = (samples < np.roll(samples, 1)) & (samples <= np.roll(samples, -1))
    found = []
    for j in np.nonzero(local)[0]:
        res = minimize_scalar(tstar, method="bounded",
                              bounds=((j - 1) / m, (j + 1) / m),
                              options={"xatol": 1e-13})
        found += [(float(scan[j]), tstar(scan[j])),
                  (float(res.x % 1.0), float(res.fun))]
    return min(found, key=lambda pair: pair[1])
