"""Spectral calculus for functions on the circle of length one.

Functions are represented by their samples on the uniform grid
x_j = j/n, j = 0..n-1, with n even.  Differentiation, integration, and
antidifferentiation are done in Fourier space, so band-limited inputs are
handled to near machine precision.

Circle diffeomorphisms and angle fields are not periodic themselves; they
are handled as *lifts*: an increasing diffeomorphism fixing 0 satisfies
phi(x + 1) = phi(x) + 1, so its periodic part h(x) = phi(x) - x can be
interpolated trigonometrically while the identity part is carried exactly.
A :class:`PeriodicFunction` may therefore hold either genuinely periodic
samples or lift samples; operations that expect a lift say so.

A :class:`PeriodicFunction` holds one function, values of shape (n,), or a
stack of S of them, shape (S, n).  Every transform acts on the last axis,
and numpy's batched real FFTs and last-axis means give each row the bits
of its own call, so a stack is S functions computed at once.  The row
reductions :func:`row_mean`, :func:`row_max` and :func:`row_min`, the
package's only ones, return a float for one function and an (S,) array
for a stack, with np.mean's bits and no numpy Python wrapper; an (S,)
array in arithmetic scales each row by its own value.  Validations check
every row (:func:`any_row`) and raise if any fails.  The library wraps
the arrays it has just made without a copy (``PeriodicFunction._own``).

Every Fourier multiplier is a real-FFT (half-spectrum) multiplier in one
cache, :class:`SpectralMultipliers`, built once per grid size and shared
read-only by every grid of that size as ``PeriodicGrid.spectral``: d/dx,
its inverse on zero-mean functions, A^{-1}, A^{-1} d/dx, the 2/3
dealiasing mask and the off-grid kernel's deconvolution.  Every transform
is :func:`rfft` or :func:`irfft`, numpy's pocketfft ufuncs without its
Python wrapper; complex samples go through as real and imaginary parts.
``apply`` is the on-grid transform of the spectral calculus;
``apply_each`` gives several multipliers of one input from one forward
transform.  Only the RK4 integrator keeps coefficients between
transforms, stepping them with these same multipliers.  The odd-order
operators (d/dx, its inverse, A^{-1} d/dx) drop the Nyquist mode, which
keeps them real on real input.

Off-grid evaluation of trigonometric interpolants is a type-2 nonuniform
FFT with the "exponential of semicircle" kernel of width w = 16 (Barnett,
Magland & af Klinteberg, SIAM J. Sci. Comput. 2019).  A prepare step
(:func:`_fine_grid`) divides the half-spectrum coefficients by the
kernel's Fourier transform and takes one inverse real FFT onto a fine
grid of N = max(2n, 4w) points; a gather (:func:`_gather`) then sums, for
each point, its w nearest fine samples weighted by the kernel.  That is
O(n log n) once and O(w) per point, with no BLAS call and O(w points + n)
memory.  :class:`Interpolant` and :func:`invert_diffeo` prepare once; the
vectorised, bisection-safeguarded Newton iterations of both, over all
nodes or brackets at once (of every row of a stack), only gather.
:func:`compose` is the one composition, of periodic functions and of
lifts alike.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import GridMismatchError, NonZeroMeanError, NotMonotoneError

MEAN_TOL = 1e-10
ROOT_TOL = 1e-12
# Off-grid kernel: exp(beta sqrt(1 - z^2)) over w fine points.  A point at
# t on the fine grid takes the points l = floor(t) - w/2 + j, j = 1..w, at
# padded index floor(t) + j and z = 2 (t - l) / w, so that
# beta z = (2 beta / w) (t - floor(t) + w/2 - j).
_W = 16
_BETA = 2.30 * _W
_OFFSETS = np.arange(1, _W + 1)[:, None]
_SHIFTS = (2.0 * _BETA / _W) * (_W // 2 - _OFFSETS)


# np.fft loads on the first call: importing it here cost import time and RSS
def rfft(values: np.ndarray, out=None) -> np.ndarray:
    """``np.fft.rfft(values)`` on the last axis, of even length n."""
    if out is None:
        out = np.empty(values.shape[:-1] + (values.shape[-1] // 2 + 1,), complex)
    return np.fft._pocketfft_umath.rfft_n_even(values, 1.0, out=out)


def irfft(coef: np.ndarray, n: int, out=None) -> np.ndarray:
    """``np.fft.irfft(coef, n)`` on the last axis, scaled by 1/n; pads or cuts."""
    if out is None:
        out = np.empty(coef.shape[:-1] + (n,))
    return np.fft._pocketfft_umath.irfft(coef, 1.0 / n, out=out)


def _fine_size(n: int) -> int:
    """Fine grid size N: twice the modes, and at least 4w points."""
    return max(2 * n, 4 * _W)


class SpectralMultipliers:
    """Real-FFT multipliers of one grid size, modes k = 0..n/2; read-only.

    ``deriv`` is 2 pi i k, ``antideriv`` 1 / (2 pi i k), ``inv_a``
    1 / (4 pi^2 k^2) and ``ainv_dx`` i / (2 pi k), each zero at the mean
    mode; the odd-order ones are also zero at the Nyquist mode.  ``band``
    is 1 on the modes 0 < k < n/2 that the odd-order ones keep, and 0 at
    the mean and Nyquist modes: d/dx after ``antideriv`` (or minus d/dx
    after ``ainv_dx``), with no rounding.  ``mask`` keeps the modes
    k <= n // 3.  ``fine`` is 1 / (n psi_hat(k)), the deconvolution of the
    off-grid kernel psi (:func:`_fine_grid`), with the Nyquist entry
    halved because the interpolant splits that mode between k = -n/2 and
    k = n/2.

    psi(x) = phi(2 N x / w) is the kernel phi(z) = exp(beta sqrt(1 - z^2)),
    |z| <= 1, on the fine grid of N points, so psi_hat(k) = (w / N) times
    the integral of phi(z) cos(pi k w z / N) over [0, 1].  After
    z = sin(theta) that is the integral over [0, pi/2] of
    exp(beta cos(theta)) cos(xi sin(theta)) cos(theta), which the trapezoid
    rule on 2w intervals gives to roundoff: the integrand is even at 0, and
    it and its derivatives are exp(-beta) smaller at pi/2 than at 0.
    """

    __slots__ = ("deriv", "antideriv", "inv_a", "ainv_dx", "band", "mask", "fine")

    def __init__(self, n: int):
        k = np.arange(n // 2 + 1, dtype=float)
        two_pi_k = 2.0 * np.pi * k
        inv = np.zeros_like(k)
        inv[1:] = 1.0 / two_pi_k[1:]
        self.deriv = 1j * two_pi_k
        self.antideriv = -1j * inv
        self.inv_a = inv * inv
        self.ainv_dx = 1j * inv
        self.band = (inv > 0.0).astype(float)
        for odd in (self.deriv, self.antideriv, self.ainv_dx, self.band):
            odd[-1] = 0.0
        self.mask = (k <= n // 3).astype(float)
        size = _fine_size(n)
        xi = (np.pi * _W / size) * k
        theta = np.linspace(0.0, 0.5 * np.pi, 2 * _W + 1)
        weight = np.exp(_BETA * np.cos(theta)) * np.cos(theta) * (np.pi / (4 * _W))
        weight[0] *= 0.5
        integral = np.zeros_like(xi)
        for s, wt in zip(np.sin(theta), weight):
            integral += wt * np.cos(xi * s)
        self.fine = size / (_W * integral) / n
        self.fine[-1] *= 0.5
        for name in self.__slots__:
            getattr(self, name).flags.writeable = False

    @staticmethod
    def apply(values: np.ndarray, mult: np.ndarray) -> np.ndarray:
        """irfft(rfft(values) * mult, n) along the last axis, so each row of a
        stack is bit-identical to its own call; complex values part by part."""
        if values.dtype.kind == "c":
            apply = SpectralMultipliers.apply
            return apply(values.real, mult) + 1j * apply(values.imag, mult)
        return irfft(rfft(values) * mult, values.shape[-1])

    @staticmethod
    def apply_each(values: np.ndarray, mults) -> np.ndarray:
        """``apply(values, m)`` of real values for each m of ``mults``, bit for
        bit, stacked on a new first axis: one rfft, one batched irfft."""
        coef = rfft(values)
        return irfft(np.stack([coef * m for m in mults]), values.shape[-1])


@lru_cache(maxsize=None)
def _multipliers(n: int) -> SpectralMultipliers:
    """The shared multiplier set of grid size n, kept for the process."""
    return SpectralMultipliers(n)


class PeriodicGrid:
    """Uniform grid on [0, 1) with an even number of nodes n >= 8."""

    __slots__ = ("n", "x", "spectral")

    def __init__(self, n: int):
        n = int(n)
        if n < 8 or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {n}")
        self.n = n
        x = np.arange(n, dtype=float) / n
        x.flags.writeable = False
        self.x = x
        self.spectral = _multipliers(n)

    def __eq__(self, other):
        return isinstance(other, PeriodicGrid) and other.n == self.n

    def __hash__(self):
        return hash(("PeriodicGrid", self.n))

    def __repr__(self):
        return f"PeriodicGrid(n={self.n})"


def per_row(x):
    """A reduction's result: a Python scalar for one function, else the array."""
    return x.item() if np.ndim(x) == 0 else x


def row_mean(values: np.ndarray, keepdims: bool = False):
    """Mean over the last axis: a float for one function, (S,) for a stack."""
    mean = np.add.reduce(values, -1, keepdims=keepdims) / values.shape[-1]
    return mean if keepdims else per_row(mean)


def row_max(values: np.ndarray, keepdims: bool = False):
    """Maximum over the last axis: a float for one function, (S,) for a stack."""
    peak = np.maximum.reduce(values, -1, keepdims=keepdims)
    return peak if keepdims else per_row(peak)


def row_min(values: np.ndarray):
    """Minimum over the last axis: a float for one function, (S,) for a stack."""
    return per_row(np.minimum.reduce(values, -1))


def any_row(flags) -> bool:
    """Whether a test holds anywhere, in any row; a bool for one function."""
    return bool(np.asarray(flags).any())


class PeriodicFunction:
    """Sampled real or complex function on a :class:`PeriodicGrid`.

    ``values`` has shape (n,), or (S, n) for a stack of S functions.
    Values are immutable after construction; the constructor copies them,
    and only the library's own fresh arrays skip the copy (:meth:`_own`).
    Arithmetic operators combine samples pointwise and require matching
    grids; an array with one entry per row of a stack acts on each row as
    a scalar.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: PeriodicGrid, values):
        values = np.asarray(values)
        if values.ndim == 0 or values.shape[-1] != grid.n:
            raise ValueError(
                f"expected {grid.n} samples, got shape {values.shape}"
            )
        values = values.astype(np.complex128 if values.dtype.kind == "c" else float)
        values.flags.writeable = False
        self.grid = grid
        self.values = values

    @classmethod
    def _own(cls, grid: PeriodicGrid, values: np.ndarray) -> "PeriodicFunction":
        """Wrap float64 or complex128 samples no caller holds (a fresh array, or
        another function's values) as they are, made read-only in place."""
        values.flags.writeable = False
        f = object.__new__(cls)
        f.grid, f.values = grid, values
        return f

    # -- constructors -------------------------------------------------

    @classmethod
    def from_callable(cls, grid: PeriodicGrid, fn) -> "PeriodicFunction":
        return cls(grid, fn(grid.x))

    @classmethod
    def constant(cls, grid: PeriodicGrid, value) -> "PeriodicFunction":
        return cls(grid, np.full(grid.n, value))

    @classmethod
    def zeros(cls, grid: PeriodicGrid) -> "PeriodicFunction":
        return cls(grid, np.zeros(grid.n))

    # -- basic queries -------------------------------------------------

    @property
    def is_complex(self) -> bool:
        return self.values.dtype.kind == "c"

    def max_abs(self):
        return row_max(np.abs(self.values))

    def l2_norm(self):
        return per_row(np.sqrt(row_mean(np.abs(self.values) ** 2)))

    def __repr__(self):
        kind = "complex" if self.is_complex else "real"
        return f"PeriodicFunction(n={self.grid.n}, {kind})"

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PeriodicFunction):
            if other.grid != self.grid:
                raise GridMismatchError(
                    f"grids do not match: n = {self.grid.n} and n = {other.grid.n}"
                )
            return other.values
        if isinstance(other, np.ndarray) and other.ndim and (
            other.shape == self.values.shape[:-1]
        ):
            return other[..., None]  # one scalar per row of a stack
        return other

    def __add__(self, other):
        return PeriodicFunction._own(self.grid, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return PeriodicFunction._own(self.grid, self.values - self._coerce(other))

    def __rsub__(self, other):
        return PeriodicFunction._own(self.grid, self._coerce(other) - self.values)

    def __mul__(self, other):
        return PeriodicFunction._own(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return PeriodicFunction._own(self.grid, self.values / self._coerce(other))

    def __neg__(self):
        return PeriodicFunction._own(self.grid, -self.values)


# ---------------------------------------------------------------------------
# spectral calculus
# ---------------------------------------------------------------------------


def derivative(f: PeriodicFunction) -> PeriodicFunction:
    """Spectral derivative.  Linear; annihilates constants exactly.

    The Nyquist mode is dropped, the standard convention that keeps the
    derivative of a real function real.
    """
    sp = f.grid.spectral
    return PeriodicFunction._own(f.grid, sp.apply(f.values, sp.deriv))


def antiderivative_from_zero(f: PeriodicFunction) -> PeriodicFunction:
    """F(x) = integral of f from 0 to x, F(0) = 0 exactly.

    The zero-mean part is integrated spectrally; the mean contributes the
    linear term mean(f) * x, so the result is a lift unless mean(f) = 0.
    """
    sp = f.grid.spectral
    p = sp.apply(f.values, sp.antideriv)
    mean = row_mean(f.values, keepdims=True)
    return PeriodicFunction._own(f.grid, p - p[..., :1] + mean * f.grid.x)


def _antiderivative_carrying(f: PeriodicFunction):
    """:func:`antiderivative_from_zero` of real f, bit for bit, and its
    x-derivative: f without its Nyquist mode, from the same rfft."""
    sp = f.grid.spectral
    p, px = sp.apply_each(f.values, (sp.antideriv, sp.band))
    mean = row_mean(f.values, keepdims=True)
    F = PeriodicFunction._own(f.grid, p - p[..., :1] + mean * f.grid.x)
    return F, px + mean


def mean_projection(f: PeriodicFunction) -> PeriodicFunction:
    """Project onto zero-mean functions: f - integral(f).  Idempotent."""
    mean = row_mean(f.values, keepdims=True)
    return PeriodicFunction._own(f.grid, f.values - mean)


def inverse_A(f: PeriodicFunction) -> PeriodicFunction:
    """Invert A = -d^2/dx^2 on zero-mean input; result g has g(0) = 0.

    Raises :class:`NonZeroMeanError` when |mean(f)| exceeds MEAN_TOL
    max |f| in any row: the test is relative, so it passes roundoff at
    every scale of the data.
    """
    mean = np.abs(row_mean(f.values, keepdims=True))
    over = mean - MEAN_TOL * row_max(np.abs(f.values), keepdims=True)
    if over.max() > 0.0:
        worst = float(mean.flat[over.argmax()])
        raise NonZeroMeanError(f"inverse_A needs zero-mean input, |mean|={worst!r}")
    sp = f.grid.spectral
    g = sp.apply(f.values, sp.inv_a)
    return PeriodicFunction._own(f.grid, g - g[..., :1])


def _inverse_A_dx_carrying(f: PeriodicFunction):
    """A^{-1} d/dx f with g(0) = 0, for any real f (d/dx kills the mean), and
    its x-derivative: minus f without its mean and Nyquist modes.

    g equals ``inverse_A(derivative(f))``; both come from one rfft.
    """
    sp = f.grid.spectral
    g, gx = sp.apply_each(f.values, (sp.ainv_dx, sp.band))
    return PeriodicFunction._own(f.grid, g - g[..., :1]), -gx


# ---------------------------------------------------------------------------
# trigonometric interpolation, composition, inversion
# ---------------------------------------------------------------------------


def _fine_grid(values: np.ndarray, orders, coef=None) -> np.ndarray:
    """Prepare the interpolant of samples for :func:`_gather`.

    One row per derivative order p: irfft(rfft(values) * fine * ik**p, N)
    on the half spectrum k = 0..n/2, with ik = 2 pi i k, padded
    periodically by w/2 samples at each end.  ik**p keeps the Nyquist
    entry: it differentiates the interpolant, whose Nyquist term is
    cos(pi n x).  A caller that holds rfft(values) of real samples passes
    it as ``coef`` and saves the transform.  Complex samples go through as
    real and imaginary rows of the same transforms.  A stack of samples,
    shape (S, n), gives shape (orders, S, N + w).
    """
    n = values.shape[-1]
    size = _fine_size(n)
    ik = 2j * np.pi * np.arange(n // 2 + 1)
    is_complex = values.dtype.kind == "c"
    if coef is None:
        coef = rfft(np.stack([values.real, values.imag]) if is_complex else values)
    coeffs = coef * _multipliers(n).fine
    powers = np.reshape(orders, (-1,) + (1,) * coeffs.ndim)
    fine = irfft(coeffs * ik**powers, size)
    if is_complex:
        fine = fine[:, 0] + 1j * fine[:, 1]
    pad = _W // 2
    return np.concatenate([fine[..., size - pad :], fine, fine[..., :pad]], axis=-1)


def _unit_interval(y: np.ndarray) -> np.ndarray:
    """y mod 1 as y - floor(y): bit for bit np.mod(y, 1.0), and cheaper.

    For |y| >= 1 both differences are exact (Sterbenz); on (-1, 0) both
    round y + 1 alike, so a tiny negative y gives 1.0.  Both give +0.0 at
    integers and at -0.0, and NaN at NaN and at infinities.
    """
    return y - np.floor(y)


def _gather(
    fine: np.ndarray, points: np.ndarray, rows=None, *, lone: bool = True
) -> np.ndarray:
    """Evaluate prepared rows at arbitrary points, shape (orders, points).

    A point y sits at t = N (y - floor(y)) on the fine grid.  Its value is the
    sum over the w fine points l nearest t of the sample at l weighted by
    the kernel at 2 (t - l) / w: O(w) work per point and row, no BLAS.
    For a stack, ``fine`` has shape (orders, S, N + w), ``points`` is flat
    and ``rows`` gives the stack row of each point; all points share one
    ``take`` from the flattened stack.  The stack-row offset is added to
    each point's first index, in place, before that index is broadcast
    over the w taps.  ``lone=False`` tells that no row holds a single
    point (every row holds the same number of points, at least two), and
    skips the count that finds such rows.
    """
    size = fine.shape[-1] - _W
    t = _unit_interval(points) * size
    base = np.floor(t)
    idx = base.astype(np.intp)
    idx %= size
    if rows is not None:
        idx += rows * fine.shape[-1]
    idx = idx + _OFFSETS
    terms = np.take(fine.reshape(len(fine), -1), idx, axis=1)
    del idx  # the kernel weights reuse its memory
    t -= base
    t *= 2.0 * _BETA / _W
    z = t + _SHIFTS
    del t, base  # nor are they alive while the terms are summed
    z *= z
    np.subtract(_BETA * _BETA, z, out=z)
    np.sqrt(z, out=z)
    terms *= np.exp(z, out=z)
    out = terms.sum(axis=1)
    if rows is not None and lone:
        # numpy sums the w terms of a lone point pairwise, and those of
        # several points in order: a row's points sum as in its own call.
        alone = np.bincount(rows)[rows] == 1
        if any_row(alone):
            single = np.moveaxis(terms[:, :, alone], 1, -1)
            out[:, alone] = np.ascontiguousarray(single).sum(axis=-1)
    return out


def _row_index(lead: tuple, count: int):
    """Stack row of each of ``count`` points per row, flattened; None for one row."""
    return np.repeat(np.arange(int(np.prod(lead))), count) if lead else None


class Interpolant:
    """The trigonometric interpolant of f and its first ``top`` derivatives.

    The fine grid is prepared once; evaluating the interpolant (a call)
    and solving for roots of a derivative (:meth:`roots`) only gather from
    it.  Values at grid-coincident points snap to the exact samples, and
    real f gives real values.  For a stack f the points have shape
    (S, P), row s evaluating the s-th function.  ``coef``, rfft(f.values)
    of real f where the caller holds it, saves :func:`_fine_grid` that
    transform.
    """

    def __init__(self, f: PeriodicFunction, top: int = 0, coef=None):
        self.f = f
        self.fine = _fine_grid(f.values, np.arange(top + 1), coef)

    def __call__(self, points) -> np.ndarray:
        values, n = self.f.values, self.f.grid.n
        lead = values.shape[:-1]
        points = np.asarray(points, dtype=float).reshape(lead + (-1,))
        rows = _row_index(lead, points.shape[-1])
        # every row holds points.shape[-1] points: none is alone from two up
        lone = points.shape[-1] < 2
        out = _gather(self.fine[:1], points.ravel(), rows, lone=lone)
        out = out[0].reshape(points.shape)
        grid_pos = _unit_interval(points) * n
        idx = np.rint(grid_pos)
        on_grid = np.abs(grid_pos - idx) < 1e-12
        if any_row(on_grid):
            hit = np.nonzero(on_grid)
            out[hit] = values[hit[:-1] + (idx[hit].astype(np.intp) % n,)]
        return out

    def roots(self, lo, hi, start, sign, order: int = 0) -> np.ndarray:
        """Roots of the order-th derivative, order < top, of real f.

        One root per bracket [lo, hi], to ROOT_TOL; ``sign`` is +1 where
        that derivative increases through its bracket and -1 where it
        decreases.  All brackets share one :func:`_newton_bisect` solve
        from the caller's ``start`` points, which gathers the derivative
        and the next one; a start near the root, such as the root of the
        secant through values already known at the bracket ends, saves
        iterations.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        fine = self.fine[order : order + 2]

        def residual(idx, y):
            return _gather(fine, y)

        return _newton_bisect(residual, lo, hi, start, sign)


def trig_interpolate(f: PeriodicFunction, points) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at arbitrary points.

    One-shot form of :class:`Interpolant`.
    """
    return Interpolant(f)(points)


def _lift_parts(phi: PeriodicFunction) -> np.ndarray:
    """Periodic part h = phi - x of a unit-slope lift."""
    return phi.values - phi.grid.x


def _check_increasing(phi: PeriodicFunction, tol: float = 1e-12) -> np.ndarray:
    """Slope phi_x = 1 + h_x of a unit-slope lift, h = phi - x its periodic part.

    Raises :class:`NotMonotoneError` unless phi_x > tol everywhere, in
    every row of a stack.  The default tol = 1e-12 also rejects slopes
    that touch zero within roundoff, where interpolation or inversion
    would be ill-conditioned; construction-level validation passes
    ``tol=0.0`` to admit steep but strictly monotone maps.
    """
    sp = phi.grid.spectral
    return _check_slope(1.0 + sp.apply(_lift_parts(phi), sp.deriv), tol)


def _check_slope(phix: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """The test of :func:`_check_increasing` on a slope phi_x already held."""
    least = phix.min()
    if not least > tol:  # NaN fails too
        raise NotMonotoneError(f"diffeomorphism derivative has min {least:.3e}")
    return phix


def compose(
    f: PeriodicFunction,
    phi: PeriodicFunction,
    slope: complex = 0.0,
    phi_x: np.ndarray | None = None,
) -> PeriodicFunction:
    """Samples of f(phi(x)) for a diffeomorphism lift phi.

    f is periodic, or a lift with f(x+1) = f(x) + slope (complex for a
    complex lift).  The linear part slope * phi(x) is carried exactly;
    only the periodic part of f is interpolated.  For stacks f and phi,
    ``slope`` may hold one slope per row.  A caller that holds the slope
    of phi (a group element's ``phi_x``) passes it as ``phi_x``, and the
    monotonicity test reads it instead of differentiating phi again.
    """
    if f.grid != phi.grid:
        raise GridMismatchError(
            f"cannot compose f on n = {f.grid.n} with phi on n = {phi.grid.n}"
        )
    if phi_x is None:
        _check_increasing(phi)
    else:
        _check_slope(phi_x)
    if np.ndim(slope):
        slope = np.expand_dims(slope, -1)
    p = PeriodicFunction._own(f.grid, f.values - slope * f.grid.x)
    vals = slope * phi.values + trig_interpolate(p, phi.values)
    return PeriodicFunction._own(f.grid, vals)


def _newton_bisect(residual, lo, hi, y, sign=1.0) -> np.ndarray:
    """Roots of monotone functions, one per entry, in brackets [lo, hi].

    ``residual(idx, y)`` returns the values and derivatives of the
    functions with indices ``idx`` at ``y``; every call serves all entries
    not yet done.  ``sign`` is +1 for an entry whose function increases
    through its bracket and -1 for one that decreases, so that sign * f
    is negative below the root.  Each evaluation shrinks the bracket.  A
    Newton step is taken when it lands in the closed bracket and is no
    longer than a budget that starts at half the bracket and halves every
    iteration; otherwise the entry bisects.  Newton steps fall below
    ROOT_TOL once the budget does, and a bisection halves the bracket, so
    every entry finishes within about 2 log2(width / ROOT_TOL) iterations.
    An entry is done when its step or its bracket is at most ROOT_TOL.
    """
    lo, hi = lo.copy(), hi.copy()
    y = np.clip(y, lo, hi)
    sign = np.broadcast_to(sign, y.shape)
    budget = 0.5 * (hi - lo)
    todo = np.arange(y.size)
    while todo.size:
        yt, lt, ht, bt = y[todo], lo[todo], hi[todo], budget[todo]
        f, df = residual(todo, yt)
        up = sign[todo] * f
        lt = np.where(up < 0.0, yt, lt)
        ht = np.where(up > 0.0, yt, ht)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        newton = yt - step
        take = (lt <= newton) & (newton <= ht) & (np.abs(step) <= bt)
        y[todo] = np.where(take, newton, 0.5 * (lt + ht))
        lo[todo], hi[todo], budget[todo] = lt, ht, 0.5 * bt
        done = (take & (np.abs(step) <= ROOT_TOL)) | (ht - lt <= ROOT_TOL)
        todo = todo[~done]
    return y


def _inverse_start(lifts: np.ndarray, phix: np.ndarray, x: np.ndarray):
    """The cubic Hermite interpolant of the inverse of every row, at x.

    It passes through (phi(x_j), x_j), j = 0..n with phi(x_n) = 1, with
    slope 1 / phi_x(x_j) there.  A point at u = j + t in the cell
    [phi(x_j), phi(x_j+1)] of width D gets the linear interpolant u / n
    plus t (1 - t) (a - t (a + b)), where a = D / phi_x(x_j) - 1/n and
    b = D / phi_x(x_j+1) - 1/n.  u is one np.interp per row, so a row of
    a stack gets the bits of its own call.  Returns the start and the
    node cell [x_j, x_j+1] of every point, each of shape (S, points).
    """
    n = lifts.shape[-1]
    p = np.append(lifts.reshape(-1, n), np.ones((lifts.size // n, 1)), axis=-1)
    width, slope = np.diff(p), 1.0 / phix.reshape(-1, n)
    a = width * slope - 1.0 / n
    b = width * np.roll(slope, -1, axis=-1) - 1.0 / n
    cells = np.arange(n + 1.0)
    u = np.stack([np.interp(x, row, cells) for row in p])
    j = np.minimum(u.astype(np.intp), n - 1)
    t = u - j
    lo, hi = j / n, (j + 1) / n
    j += n * np.arange(len(p))[:, None]
    a, b = a.ravel()[j], b.ravel()[j]
    return u / n + t * (1.0 - t) * (a - t * (a + b)), lo, hi


def invert_diffeo(
    phi: PeriodicFunction, phi_x: np.ndarray | None = None
) -> PeriodicFunction:
    """Invert an increasing lift with phi(0) = 0, phi(1) = 1.

    Solves y + h(y) = x_j to ROOT_TOL for all nodes at once, h the
    trigonometric interpolant of the periodic part, by Newton's method
    safeguarded with bisection (:func:`_newton_bisect`), starting from the
    cubic Hermite interpolant of the sampled inverse with the slopes
    1 / phi_x (:func:`_inverse_start`), whose error falls as n^-4: on
    smooth, well-resolved data it is within ROOT_TOL of the root, and
    one iteration is enough.  h and h' come from one gather per
    iteration on a fine grid prepared once.  The bracket of a target x
    is its node cell [x_j, x_j+1], where phi(x_j) <= x <= phi(x_j+1):
    the interpolant passes through the samples, so the cell holds a root.
    The nodes of every row of a stack share one solve; each node takes
    the iterations it takes alone.  ``phi_x``, the slope of phi where the
    caller holds it, is tested and read as :func:`compose` reads it.
    """
    phi0 = np.abs(phi.values[..., 0]).max()
    if phi0 > 1e-9:
        raise ValueError(f"diffeomorphism must fix 0, |phi(0)|={phi0!r}")
    phix = _check_increasing(phi) if phi_x is None else _check_slope(phi_x)
    grid = phi.grid
    h = _lift_parts(phi)
    lead = h.shape[:-1]
    fine = _fine_grid(h, (0, 1))
    x = grid.x[1:]
    targets = np.broadcast_to(x, lead + x.shape).ravel()
    rows = _row_index(lead, x.size)

    def residual(idx, y):
        hv, dh = _gather(fine, y, None if rows is None else rows[idx])
        return y + hv - targets[idx], 1.0 + dh

    start, lo, hi = _inverse_start(phi.values, phix, x)
    y = _newton_bisect(residual, lo.ravel(), hi.ravel(), start.ravel())
    y = np.concatenate((np.zeros(lead + (1,)), y.reshape(lead + x.shape)), axis=-1)
    return PeriodicFunction._own(grid, y)


def __getattr__(name: str):
    # ``brentq`` is read only by perfbench/tracer.py, which rebinds it to
    # count objective evaluations; importing scipy here, on first read,
    # keeps it out of the runtime.  The benchmark rework of ROADMAP item 3
    # replaces that counter and retires this hook.
    if name == "brentq":
        from scipy.optimize import brentq

        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
