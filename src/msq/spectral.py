"""Fourier-multiplier fractional calculus on the periodic grid.

The fractional derivative acts by (2 pi |k| / L)^alpha on integer frequency
vectors k, the Riesz potential by the inverse multiplier.  The k = 0 mode is
always projected out: everything is computed modulo constants, which makes
the two operators genuine inverses on the implemented space.  The
multipliers act on the full complex spectrum (fftn/ifftn), not the
half-spectrum of rfftn that the measuring layers correlate on: a real
transform rounds differently, and these outputs are stored corpus fields
and fracderiv files, which must stay the same bytes across versions.

An independent real-space oracle is provided for cross-validation: a
quadrature of the principal-value integral

    p.v. integral of (f(x) - f(y)) / |x - y|^(d + alpha) dy

for the periodic extension of the field, by one rule in every dimension
(fractional_laplacian_pv) whose error falls like h^(4 - alpha): at n=64 its
calibrated constant lies within 3.2e-6 relative of the closed form for
alpha in {0.3, 1.3, 1.9} (see tests/test_spectral.py).  The constant
relating this operator to the multiplier is never hard-coded; it is
measured by calibrate_pv_constant on a sinusoid.
"""

from __future__ import annotations

import itertools

import numpy as np

from .field import (
    BallCenter, BallWindow, Grid, SampledField, _memoized, coordinates, radial, window_family,
)

__all__ = [
    "fractional_derivative",
    "riesz_potential",
    "spectral_gradient",
    "dalpha_energy",
    "fractional_laplacian_pv",
    "calibrate_pv_constant",
    "check_alpha",
]


def _freq_magnitude(grid: Grid) -> np.ndarray:
    """|k| / L on the fft layout, shape (n,)*dim."""
    n = grid.n_per_axis
    k = np.fft.fftfreq(n, d=1.0 / n)  # integer frequencies
    return radial(k, grid.dim) / grid.period


def _apply_multiplier(field: SampledField, mult: np.ndarray) -> SampledField:
    out = np.fft.ifftn(np.fft.fftn(field.shaped) * mult).real
    return SampledField(grid=field.grid, values=out.reshape(-1))


def check_alpha(alpha: float, hi: float = 2.0, closed: bool = False) -> float:
    """alpha as a float, which must lie in (0, hi), or in (0, hi] when closed."""
    alpha = float(alpha)
    if not (0.0 < alpha < hi or (closed and alpha == hi)):
        raise ValueError(f"alpha must lie in (0, {hi:g}{']' if closed else ')'}, got {alpha}")
    return alpha


def fractional_derivative(field: SampledField, alpha: float) -> SampledField:
    """Apply the multiplier (2 pi |k| / L)^alpha, zero mode projected out."""
    alpha = check_alpha(alpha)
    xi = _freq_magnitude(field.grid)
    mult = (2.0 * np.pi * xi) ** alpha
    mult.reshape(-1)[0] = 0.0
    return _apply_multiplier(field, mult)


def riesz_potential(field: SampledField, alpha: float) -> SampledField:
    """Apply the inverse multiplier (2 pi |k| / L)^(-alpha) on nonzero modes."""
    alpha = check_alpha(alpha)
    xi = _freq_magnitude(field.grid)
    mult = np.zeros_like(xi)
    nz = xi > 0
    mult[nz] = (2.0 * np.pi * xi[nz]) ** (-alpha)
    return _apply_multiplier(field, mult)


def spectral_gradient(field: SampledField) -> tuple:
    """Spectral partial derivatives, one SampledField per axis.

    The odd multiplier 2 pi i k / L has an unpaired Nyquist mode on
    even-length grids; that mode is set to zero (the usual convention for
    first derivatives, unlike the radial |k|^alpha multipliers which are
    real there).
    """
    grid = field.grid
    n = grid.n_per_axis
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[np.abs(k) == n // 2] = 0.0
    fhat = np.fft.fftn(field.shaped)
    comps = []
    for axis in range(grid.dim):
        shape = [1] * grid.dim
        shape[axis] = n
        mult = (2.0j * np.pi / grid.period) * k.reshape(shape)
        comps.append(
            SampledField(grid=grid, values=np.fft.ifftn(fhat * mult).real.reshape(-1))
        )
    return tuple(comps)


def dalpha_energy(field: SampledField, alpha: float) -> float:
    """Squared L2 norm of the fractional derivative, h^dim * sum |D f|^2."""
    d = fractional_derivative(field, alpha)
    h = field.grid.spacing
    return float(h ** field.grid.dim * np.sum(d.values ** 2))


def _lattice_zeta(x, s: float, d: int) -> np.ndarray:
    """sum_m |x + m|^(-s) over m in Z^d but x + m = 0, at points x of shape (..., d):
    the periodic kernel, and at x = 0 the Epstein zeta, continued in s != d.
    Riemann's split of the Mellin integral at t = 1 sums images and frequencies
    |m|, |k| <= 3 about x - round(x); both tails fall like exp(-pi 3.5^2)."""
    # Imported here: loading scipy.special takes about 0.3 s, and only this oracle needs it.
    from scipy.special import gammaincc, rgamma

    def q(a, y):  # regularized upper incomplete gamma, continued to -1 < a <= 0
        return gammaincc(a, y) if a > 0 else gammaincc(a + 1, y) - y ** a * np.exp(-y) * rgamma(a + 1)

    x = np.asarray(x, dtype=float)
    x = x - np.round(x)
    m = np.array(list(itertools.product(range(-3, 4), repeat=d)), dtype=float)
    r2 = np.sum((x[..., None, :] + m) ** 2, axis=-1)
    zero = r2 == 0.0
    r2[zero] = 1.0  # masked before any power
    real = np.sum(np.where(zero, 0.0, r2 ** (-s / 2) * q(s / 2, np.pi * r2)), axis=-1)
    k = m[np.any(m != 0, axis=1)]
    y, a = np.pi * np.sum(k ** 2, axis=1), (d - s) / 2
    recip = np.cos(2.0 * np.pi * (x @ k.T)) @ (y ** (-a) * q(a, y) / rgamma(a)) + 2.0 / (s - d)
    return real + np.pi ** (s / 2) * (rgamma(s / 2) * recip - rgamma(s / 2 + 1) * zero.any(axis=-1))


@_memoized
def _pv_kernel(grid: Grid, alpha: float) -> np.ndarray:
    """sum_m |u + m L|^(-d - alpha) at the grid offsets u, even along each axis."""
    n, d = grid.n_per_axis, grid.dim
    half = _lattice_zeta(np.stack(np.indices((n // 2 + 1,) * d), axis=-1) / n, d + alpha, d)
    fold = np.minimum(np.arange(n), n - np.arange(n))
    return grid.period ** (-d - alpha) * half[np.ix_(*(fold,) * d)]


def fractional_laplacian_pv(field: SampledField, alpha: float, center) -> float:
    """Principal-value quadrature of the singular integral at one point.

    The trapezoid sum (h^d / 2) sum_u g(u) K(u) over the grid offsets u,
    with g(u) = 2 f(x) - f(x + u) - f(x - u) (the symmetric difference
    cancels the singularity's odd part) and K the period-folded kernel,
    plus the singular cell's correction h^(2 - alpha) Z(d + alpha - 2)
    Lap f(x) / (2 d): Z is the lattice's Epstein zeta and Lap f a
    fourth-order difference (Marin, Runborg and Tornberg, IMA J. Numer.
    Anal. 34, 2014).  center is a grid index tuple, or one index in 1-d.
    Returns the raw quadrature value; it differs from the spectral
    fractional derivative by the kernel constant of calibrate_pv_constant.
    """
    alpha = check_alpha(alpha)
    grid = field.grid
    d, h = grid.dim, grid.spacing
    (c,) = window_family(grid, [BallWindow(np.atleast_1d(center), 0.0)], BallCenter).centers
    axes = tuple(range(d))
    F = np.roll(field.shaped, tuple(-c), axis=axes)  # F[u] = f(x + u h)
    g = 2.0 * F.flat[0] - F - np.roll(np.flip(F), 1, axis=axes)
    lap = -sum(16.0 * g[tuple(e)] - g[tuple(2 * e)] for e in np.eye(d, dtype=int)) / (12.0 * h * h)
    cell = h ** (2.0 - alpha) * _lattice_zeta(np.zeros(d), d + alpha - 2.0, d) * lap / (2 * d)
    return float(0.5 * h ** d * np.sum(g * _pv_kernel(grid, alpha)) + cell)


def calibrate_pv_constant(grid: Grid, alpha: float, frequency: int = 1) -> float:
    """Measure the kernel-to-multiplier constant on a sinusoid eigenfunction.

    cos(2 pi k x1 / L) is an eigenfunction of both routes; the ratio of the
    p.v. quadrature to the multiplier value (2 pi k / L)^alpha at a maximum
    of the field is the constant.  It should transfer across frequencies
    k, integers in [1, n/2) so that the sampled sinusoid is not aliased.
    """
    alpha = check_alpha(alpha)
    if not (1 <= frequency < grid.n_per_axis / 2 and frequency == round(frequency)):
        raise ValueError(f"frequency must be an integer in [1, {grid.n_per_axis // 2}), got {frequency}")
    omega = 2.0 * np.pi * frequency / grid.period
    vals = np.cos(omega * coordinates(grid)[0])
    f = SampledField(grid=grid, values=vals.reshape(-1))
    pv = fractional_laplacian_pv(f, alpha, (0,) * grid.dim)
    return pv / omega ** alpha
