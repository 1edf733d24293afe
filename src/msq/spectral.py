"""Fourier-multiplier fractional calculus on the periodic grid.

The fractional derivative acts by (2 pi |k| / L)^alpha on integer frequency
vectors k, the Riesz potential by the inverse multiplier.  The k = 0 mode is
always projected out: everything is computed modulo constants, which makes
the two operators genuine inverses on the implemented space.

An independent real-space oracle is provided for cross-validation: a
quadrature of the principal-value integral

    p.v. integral of (f(x) - f(y)) / |x - y|^(d + alpha) dy

for the periodic extension of the field.  The kernel is folded onto one
period as a lattice sum (Hurwitz zeta in 1-d), the odd part of the
singularity is cancelled by symmetric differencing, and the remaining
|u|^(1-alpha) endpoint behaviour is handled by product integration with
exact moments, so the quadrature error is O(h^2) uniformly in alpha.  The
constant relating this operator to the multiplier is never hard-coded; it
is measured by calibrate_pv_constant on a sinusoid.
"""

from __future__ import annotations

import numpy as np

from .field import Grid, SampledField, axis_offsets, coordinates, radial

__all__ = [
    "fractional_derivative",
    "riesz_potential",
    "spectral_gradient",
    "dalpha_energy",
    "fractional_laplacian_pv",
    "calibrate_pv_constant",
]


def _freq_magnitude(grid: Grid) -> np.ndarray:
    """|k| / L on the fft layout, shape (n,)*dim."""
    n = grid.n_per_axis
    k = np.fft.fftfreq(n, d=1.0 / n)  # integer frequencies
    return radial(k, grid.dim) / grid.period


def _apply_multiplier(field: SampledField, mult: np.ndarray) -> SampledField:
    out = np.fft.ifftn(np.fft.fftn(field.shaped) * mult).real
    return SampledField(grid=field.grid, values=out.reshape(-1))


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    return alpha


def fractional_derivative(field: SampledField, alpha: float) -> SampledField:
    """Apply the multiplier (2 pi |k| / L)^alpha, zero mode projected out."""
    alpha = _check_alpha(alpha)
    xi = _freq_magnitude(field.grid)
    mult = (2.0 * np.pi * xi) ** alpha
    mult.reshape(-1)[0] = 0.0
    return _apply_multiplier(field, mult)


def riesz_potential(field: SampledField, alpha: float) -> SampledField:
    """Apply the inverse multiplier (2 pi |k| / L)^(-alpha) on nonzero modes."""
    alpha = _check_alpha(alpha)
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


def _pv_1d(field: SampledField, alpha: float, center: int) -> float:
    # Imported here: loading scipy.special takes about 0.3 s, and only this oracle needs it.
    from scipy.special import zeta
    grid = field.grid
    n, h, L = grid.n_per_axis, grid.spacing, grid.period
    f = field.values
    fx = f[center % n]
    idx = np.arange(1, n)
    g = np.empty(n + 1)
    g[0] = 0.0
    g[1:n] = 2.0 * fx - f[(center + idx) % n] - f[(center - idx) % n]
    g[n] = 0.0  # one full period: f(x+L) = f(x)

    v = np.arange(n + 1) * h
    # G = g / v^2 extends smoothly to v = 0; quadratic extrapolation there.
    G = np.empty(n + 1)
    G[1:] = g[1:] / v[1:] ** 2
    G[0] = (4.0 * G[1] - G[2]) / 3.0

    # Singular part: product integration of piecewise-linear G against
    # v^(1-alpha), with exact cell moments.
    a, b = v[:-1], v[1:]
    p2, p3 = 2.0 - alpha, 3.0 - alpha
    m0 = (b ** p2 - a ** p2) / p2
    m1 = (b ** p3 - a ** p3) / p3
    part_singular = float(np.sum(G[:-1] * m0 + (G[1:] - G[:-1]) * (m1 - a * m0) / h))

    # Smooth remainder of the period-folded kernel:
    # sum_{m>=1} (v + m L)^(-1-alpha) = L^(-1-alpha) zeta(1+alpha, 1 + v/L).
    R = L ** (-1.0 - alpha) * zeta(1.0 + alpha, 1.0 + v / L)
    part_smooth = float(h * np.sum(g[1:n] * R[1:n]))  # trapezoid; ends vanish
    return part_singular + part_smooth


_LATTICE_REACH = 8  # lattice images summed exactly in the 2-d folded kernel


def _pv_weight_2d(grid: Grid, alpha: float) -> np.ndarray:
    """Period-folded kernel sum_m |u + m L|^(-2-alpha) on offset layout."""
    L = grid.period
    u = axis_offsets(grid)
    u1 = u[:, None]
    u2 = u[None, :]
    w = np.zeros(grid.shape)
    M = _LATTICE_REACH
    for m1 in range(-M, M + 1):
        for m2 in range(-M, M + 1):
            q1 = u1 + m1 * L
            q2 = u2 + m2 * L
            r2 = q1 ** 2 + q2 ** 2
            if m1 == 0 and m2 == 0:
                r2 = r2.copy()
                r2[0, 0] = np.inf  # self term excluded; g vanishes there anyway
            w += r2 ** (-(2.0 + alpha) / 2.0)
    # Isotropic estimate of the discarded lattice tail.
    w += 2.0 * np.pi / (alpha * L ** 2) * ((M + 0.5) * L) ** (-alpha)
    return w


def _pv_2d(field: SampledField, alpha: float, center: tuple) -> float:
    grid = field.grid
    h = grid.spacing
    c = tuple(int(x) for x in center)
    F = np.roll(field.shaped, tuple(-x for x in c), axis=(0, 1))
    Frev = np.roll(F[::-1, ::-1], (1, 1), axis=(0, 1))
    g = 2.0 * F[0, 0] - F - Frev
    w = _pv_weight_2d(grid, alpha)
    g[0, 0] = 0.0
    w[0, 0] = 0.0
    # Each unordered offset pair {u, -u} appears twice in the full sum.
    return float(0.5 * h ** 2 * np.sum(g * w))


def fractional_laplacian_pv(field: SampledField, alpha: float, center) -> float:
    """Principal-value quadrature of the singular integral at one point.

    Returns the raw quadrature value; it differs from the spectral
    fractional derivative by the dimension- and alpha-dependent kernel
    constant measured by calibrate_pv_constant.
    """
    alpha = _check_alpha(alpha)
    if field.grid.dim == 1:
        c = int(center[0]) if isinstance(center, (tuple, list, np.ndarray)) else int(center)
        return _pv_1d(field, alpha, c)
    if not isinstance(center, (tuple, list, np.ndarray)) or len(center) != 2:
        raise ValueError("2-d center must be an index pair")
    return _pv_2d(field, alpha, center)


def calibrate_pv_constant(grid: Grid, alpha: float, frequency: int = 1) -> float:
    """Measure the kernel-to-multiplier constant on a sinusoid eigenfunction.

    cos(2 pi k x1 / L) is an eigenfunction of both routes; the ratio of the
    p.v. quadrature to the multiplier value (2 pi k / L)^alpha at a maximum
    of the field is the constant.  It should transfer across frequencies.
    """
    alpha = _check_alpha(alpha)
    omega = 2.0 * np.pi * frequency / grid.period
    vals = np.cos(omega * coordinates(grid)[0])
    f = SampledField(grid=grid, values=vals.reshape(-1))
    pv = fractional_laplacian_pv(f, alpha, (0,) * grid.dim)
    return pv / omega ** alpha
