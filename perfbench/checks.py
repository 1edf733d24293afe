"""Independent per-window oracles the benchmark checks outputs against.

Each function recomputes one reported number from its definition on a
single window: the msq per-window operations (``nu0``, ``nu1``,
``nu_bar``, ``beta2k``, ``square_function_integral``) or, where msq has
none, a direct formula written here (mean oscillation, the difference
double sums over all point pairs of a cube, the graph lift).  They run
outside the timed region.
"""

from __future__ import annotations

import math

import numpy as np

from msq import carleson, coeffs, geometry
from msq.field import BallWindow, axis_offsets, window_values
from msq.spectral import spectral_gradient

TOL = 1e-10


def close(got, want, tol=TOL):
    """Absolute tolerance below magnitude one, relative above."""
    return abs(float(got) - float(want)) <= tol * max(1.0, abs(float(want)))


def coefficient(field, kind, center, radius):
    w = BallWindow(center=tuple(int(c) for c in center), radius=float(radius))
    if kind == "nu0":
        return coeffs.nu0(field, w)
    if kind == "nu1":
        return coeffs.nu1(field, w)
    if kind in ("nu0_bar", "nu1_bar"):
        return coeffs.nu_bar(field, w, int(kind[2]))
    raise ValueError(f"no oracle for kind {kind}")


def normalized_integral(matrix, alpha, center, top):
    dim = matrix.grid.dim
    return carleson.square_function_integral(matrix, alpha, tuple(center), top) / top ** dim


def mean_oscillation(field, center, radius):
    vals = window_values(field, BallWindow(center=tuple(int(c) for c in center),
                                           radius=float(radius)))
    return float(np.mean(np.abs(vals - vals.mean())))


def strichartz_cube(field, center, side, alpha, order):
    """Difference double sum of one cube, summed over all point pairs.

    first:  sum over ordered pairs p != q of w(q - p) (f(q) - f(p))^2
    second: sum over x and y != 0 with x +- y in the cube of
            w(y) (2 f(x) - f(x + y) - f(x - y))^2
    with w(y) = |y|^(-d - 2 alpha); value = sqrt(h^(2d) * sum / side^d).
    """
    grid = field.grid
    d, h, n = grid.dim, grid.spacing, grid.n_per_axis
    m = int(round(side / h))
    axes = [(np.arange(m) + int(c) - m // 2) % n for c in center]
    vals = field.shaped[np.ix_(*axes)].reshape(-1)
    pts = np.indices((m,) * d).reshape(d, -1).T
    off = pts[None, :, :] - pts[:, None, :]
    dist = h * np.sqrt(np.sum(off.astype(float) ** 2, axis=-1))
    with np.errstate(divide="ignore"):
        w = np.where(dist > 0, dist ** (-(d + 2.0 * alpha)), 0.0)
    if order == "first":
        total = float(np.sum(w * (vals[None, :] - vals[:, None]) ** 2))
    else:
        mirror = 2 * pts[:, None, :] - pts[None, :, :]
        inside = np.all((mirror >= 0) & (mirror < m), axis=-1) & (dist > 0)
        xi, qi = np.nonzero(inside)
        mi = np.ravel_multi_index(tuple(mirror[xi, qi].T), (m,) * d)
        diff = 2.0 * vals[xi] - vals[qi] - vals[mi]
        total = float(np.sum(w[xi, qi] * diff ** 2))
    return math.sqrt(h ** (2 * d) * total / side ** d)


def graph_beta(field, center, radius):
    """beta2k of the lifted graph cloud around one center.

    Points are (u, f(x + u) - f(x)) over the periodic chart u in
    (-L/2, L/2]^d with |u|^2 + lift^2 < r^2, weighted by the surface
    element h^d sqrt(1 + |grad f|^2) at x + u.
    """
    grid = field.grid
    d, n, h = grid.dim, grid.n_per_axis, grid.spacing
    gsq = sum(g.values ** 2 for g in spectral_gradient(field))
    area = h ** d * np.sqrt(1.0 + gsq)
    steps = np.indices(grid.shape).reshape(d, -1).T
    disp = axis_offsets(grid)[steps]
    target = np.ravel_multi_index(tuple(((steps + np.asarray(center)) % n).T), grid.shape)
    lift = field.values[target] - field.values[np.ravel_multi_index(tuple(center), grid.shape)]
    inside = np.sum(disp ** 2, axis=1) + lift ** 2 < radius * radius
    cloud = geometry.PointCloud(points=np.column_stack([disp[inside], lift[inside]]),
                                weights=area[target][inside])
    return geometry.beta2k(cloud, np.zeros(d + 1), float(radius), k=d)[0]


def sample_rows(rng, rows, count, value=lambda row: row[-1]):
    """A seeded sample of rows plus the row attaining the maximum value."""
    picks = rng.choice(len(rows), size=min(count, len(rows)), replace=False)
    best = max(range(len(rows)), key=lambda i: value(rows[i]))
    return [rows[i] for i in sorted({*picks.tolist(), best})]
