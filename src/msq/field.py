"""Uniform periodic grids, sampled fields, ball windows, and mollification.

Everything downstream works on the torus [0, L)^dim, dim in {1, 2}, sampled
on n equispaced points per axis with n a power of two.  Distances are always
periodic (wrap-around), ball membership is strict (`dist < radius`), and
mollification is discrete periodic convolution with a renormalized bump
kernel so that constants are reproduced on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "SampledField",
    "BallWindow",
    "WindowFamily",
    "Mollifier",
    "make_grid",
    "sample",
    "coordinates",
    "axis_offsets",
    "radial",
    "offset_distance",
    "ball_mask",
    "annulus_mask",
    "ball_count",
    "ball_offsets",
    "periodic_roll",
    "offset_components",
    "masked_offsets",
    "lattice_centers",
    "flat_index",
    "offset_reads",
    "window_family",
    "window_rows",
    "table_columns",
    "window_argmax",
    "window_values",
    "ball_mean",
    "mollify",
    "mollify_gradient_kernel",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the torus [0, period)^dim."""

    dim: int
    n_per_axis: int
    period: float

    @property
    def spacing(self) -> float:
        return self.period / self.n_per_axis

    @property
    def shape(self) -> tuple:
        return (self.n_per_axis,) * self.dim

    @property
    def n_points(self) -> int:
        return self.n_per_axis ** self.dim


@dataclass(frozen=True)
class SampledField:
    """Real values sampled on a Grid, stored flat in row-major order."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if vals.size != self.grid.n_points:
            raise ValueError(
                f"field has {vals.size} values, grid wants {self.grid.n_points}"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValueError(f"non-finite field value at flat index {bad}")
        object.__setattr__(self, "values", vals)

    @property
    def shaped(self) -> np.ndarray:
        """Values viewed as an array of shape (n,)*dim."""
        return self.values.reshape(self.grid.shape)


@dataclass(frozen=True)
class BallWindow:
    """Periodic ball: grid-point center index tuple plus a radius."""

    center: tuple
    radius: float

    def validate(self, grid: Grid) -> None:
        if len(self.center) != grid.dim:
            raise ValueError("window center rank does not match grid dim")
        for c in self.center:
            if not (0 <= int(c) < grid.n_per_axis):
                raise ValueError(f"window center index {self.center} out of range")
        if not np.isfinite(self.radius):
            raise ValueError(f"window radius {self.radius} is not finite")
        if self.radius < grid.spacing:
            raise ValueError(
                f"window radius {self.radius} below grid spacing {grid.spacing}"
            )
        if self.radius > grid.period / 4:
            raise ValueError(
                f"window radius {self.radius} exceeds period/4 = {grid.period / 4}"
            )

    size = property(lambda self: self.radius)

    @staticmethod
    def rows_valid(grid: Grid, centers: np.ndarray, radii: np.ndarray) -> bool:
        """validate of every row at once: (m, dim) int centers, (m,) radii."""
        return bool(np.all((centers >= 0) & (centers < grid.n_per_axis))
                    and np.all(np.isfinite(radii))
                    and not np.any((radii < grid.spacing) | (radii > grid.period / 4)))


@dataclass(frozen=True, eq=False)
class WindowFamily:
    """Windows as arrays: (m, dim) int centers and (m,) sizes, ball radii
    or cube sides."""

    centers: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)

    @classmethod
    def on_lattice(cls, grid: Grid, sizes, stride: int) -> "WindowFamily":
        """Each size at every stride-th center: size-major, centers row-major."""
        centers, sizes = lattice_centers(grid, stride), np.asarray(sizes, dtype=float).reshape(-1)
        return cls(np.tile(centers, (len(sizes), 1)), np.repeat(sizes, len(centers)))


@dataclass(frozen=True)
class Mollifier:
    """Radial bump exp(-1/(1-|x|^2)) supported in the unit ball, rescaled.

    The sampled kernel is renormalized to sum to exactly one, so constants
    are reproduced on the grid regardless of quadrature error in the
    analytic normalization.
    """

    scale: float
    profile: str = "bump"

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("mollifier scale must be positive")
        if self.profile != "bump":
            raise ValueError(f"unknown mollifier profile {self.profile!r}")

    def kernel(self, grid: Grid) -> np.ndarray:
        """Sampled kernel on the grid, shape (n,)*dim, sum == 1."""
        if self.scale > grid.period / 4:
            raise ValueError("mollifier scale exceeds period/4")
        ker, _ = _bump(grid, self.scale)
        total = ker.sum()
        if total <= 0:
            raise ValueError("degenerate mollifier kernel")
        return ker / total


def make_grid(dim: int, n_per_axis: int, period: float) -> Grid:
    """Build a validated Grid; n_per_axis must be a power of two >= 8."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    n = int(n_per_axis)
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"n_per_axis must be a power of two >= 8, got {n_per_axis}")
    if not (period > 0):
        raise ValueError(f"period must be positive, got {period}")
    return Grid(dim=dim, n_per_axis=n, period=float(period))


def coordinates(grid: Grid) -> tuple:
    """Per-axis coordinate arrays broadcast to the grid shape (row-major)."""
    axis = np.arange(grid.n_per_axis) * grid.spacing
    return tuple(np.meshgrid(*(axis,) * grid.dim, indexing="ij"))


def sample(grid: Grid, fn: Callable) -> SampledField:
    """Evaluate fn at every grid point; fn takes dim coordinate arguments."""
    coords = coordinates(grid)
    with np.errstate(all="ignore"):
        try:
            vals = np.asarray(fn(*coords), dtype=float)
            if vals.shape != grid.shape:
                vals = np.broadcast_to(vals, grid.shape).copy()
        except (TypeError, ValueError):
            vals = np.vectorize(fn, otypes=[float])(*coords)
    if not np.all(np.isfinite(vals)):
        idx = np.argwhere(~np.isfinite(vals.reshape(grid.shape)))[0]
        pt = tuple(float(c[tuple(idx)]) for c in coords)
        raise ValueError(f"function is not finite at grid point {pt}")
    return SampledField(grid=grid, values=vals.reshape(-1))


def axis_offsets(grid: Grid) -> np.ndarray:
    """Centered periodic displacement of index j from index 0, one axis.

    Index j maps to j*h for j <= n/2 and (j-n)*h beyond, so offsets live in
    (-L/2, L/2].
    """
    n = grid.n_per_axis
    j = np.arange(n)
    return np.where(j <= n // 2, j, j - n) * grid.spacing


def radial(per_axis: np.ndarray, dim: int) -> np.ndarray:
    """Euclidean magnitude over a product of dim copies of one per-axis
    array: np.hypot folded over the axes, shape (n,)*dim; |per_axis| in 1-d."""
    mag = np.abs(per_axis)
    return reduce(np.hypot, (mag.reshape((-1,) + (1,) * (dim - 1 - i)) for i in range(dim)))


def offset_distance(grid: Grid) -> np.ndarray:
    """Periodic distance of every grid index from index 0, shape (n,)*dim."""
    return radial(axis_offsets(grid), grid.dim)


def ball_mask(grid: Grid, radius: float) -> np.ndarray:
    """Boolean mask of offsets with periodic distance strictly below radius."""
    return offset_distance(grid) < radius


def annulus_mask(grid: Grid, radius: float) -> np.ndarray:
    """Offsets with radius/2 <= distance <= radius (both ends inclusive)."""
    d = offset_distance(grid)
    return (d >= radius / 2) & (d <= radius)


def ball_count(grid: Grid, radius: float) -> int:
    """Number of grid points inside a ball of the given radius.

    On a uniform periodic grid the count is center-independent; it is
    exposed for diagnostics alongside ball_mean.
    """
    return int(ball_mask(grid, radius).sum())


def ball_offsets(grid: Grid, radius: float) -> np.ndarray:
    """Displacement vectors of the ball's points, shape (count, dim)."""
    return masked_offsets(grid, ball_mask(grid, radius))


# ---------------------------------------------------------------------------
# periodic lattice indexing: how a grid point, an offset and a window are
# addressed on the torus, for any dim


def periodic_roll(a: np.ndarray, shift) -> np.ndarray:
    """np.roll over every axis of a grid-shaped array; shift has one entry
    per axis, and out[i] = a[i - shift] with periodic wrap."""
    return np.roll(a, shift, axis=tuple(range(a.ndim)))


def offset_components(grid: Grid) -> tuple:
    """Per-axis centered displacement of every grid index from index 0,
    each broadcast to the grid shape (row-major)."""
    u = axis_offsets(grid)
    return tuple(np.meshgrid(*(u,) * grid.dim, indexing="ij"))


def masked_offsets(grid: Grid, mask: np.ndarray) -> np.ndarray:
    """Displacement vectors of the offsets selected by a mask, (count, dim)."""
    return np.stack([u[mask] for u in offset_components(grid)], axis=1)


def lattice_centers(grid: Grid, stride: int = 1) -> np.ndarray:
    """Grid indices at every stride-th point per axis, (m, dim) in row-major
    order; the stride must be a positive integer."""
    if stride < 1:
        raise ValueError(f"center stride must be a positive integer, got {stride}")
    idx = np.arange(0, grid.n_per_axis, stride)
    return np.stack(
        [a.reshape(-1) for a in np.meshgrid(*(idx,) * grid.dim, indexing="ij")], axis=1
    )


def flat_index(grid: Grid, center):
    """Row-major flat index of a center index tuple, wrapped onto the torus;
    an (m, dim) array of centers gives an (m,) array of indices."""
    return np.ravel_multi_index(
        tuple(np.asarray(center, dtype=int).T), grid.shape, mode="wrap"
    )


# _GATHER_SHARE: offset_reads gathers its anchors while they are fewer than
# a quarter of the grid, where a gather of k entries costs less than a
# whole-grid roll; beyond that it rolls the whole grid.
_GATHER_SHARE = 4


def offset_reads(grid: Grid, a: np.ndarray, points: np.ndarray, offsets):
    """Yield a[x + o], wrapped onto the torus, as an (m,) array over the
    anchors x (the rows of the (m, dim) int array points), one per offset
    row o: gathered for few anchors, else taken from the rolled grid, which
    is yielded as it is when the anchors are the whole grid in row-major
    order."""
    if _GATHER_SHARE * len(points) < grid.n_points:
        for off in offsets:
            yield a.reshape(-1)[flat_index(grid, points + off)]
        return
    rows = flat_index(grid, points)
    whole = rows.size == grid.n_points and np.array_equal(rows, np.arange(rows.size))
    for off in offsets:
        rolled = periodic_roll(a, tuple(-int(o) for o in off)).reshape(-1)
        yield rolled if whole else rolled[rows]


def window_family(grid: Grid, windows, kind) -> WindowFamily:
    """A WindowFamily, or a sequence of kind windows (BallWindow or
    CubeSpec), as a WindowFamily that kind.rows_valid accepts.  Otherwise
    kind windows are validated in input order: the first invalid one raises."""
    if isinstance(windows, WindowFamily):
        centers, sizes = windows.centers, windows.sizes
        valid = centers.shape[1:] == (grid.dim,)
    else:
        centers, sizes = [w.center for w in windows], np.array([float(w.size) for w in windows])
        valid = all(len(c) == grid.dim for c in centers)
    if valid:
        family = WindowFamily(np.asarray(centers, dtype=int).reshape(-1, grid.dim), sizes)
        valid = kind.rows_valid(grid, family.centers, sizes)
    if not valid:
        for c, size in zip(centers, sizes.tolist()):
            kind(tuple(np.asarray(c).tolist()), size).validate(grid)
    return family


def window_rows(centers: np.ndarray, sizes: np.ndarray, *values):
    """Yield the rows (center tuple, size, value...) of parallel window
    arrays in plain Python ints and floats, converting 1024 rows at a time
    so that a long table is never held as Python objects at once."""
    for lo in range(0, len(sizes), 1024):
        block = slice(lo, lo + 1024)
        yield from zip(map(tuple, centers[block].tolist()), sizes[block].tolist(),
                       *(v[block].tolist() for v in values))


def table_columns(centers: np.ndarray, sizes: np.ndarray, *tables) -> tuple:
    """(m, t) tables over m centers and t sizes as parallel window arrays,
    center-major."""
    t, m = len(sizes), len(centers)
    return (np.repeat(centers, t, axis=0), np.tile(sizes, m), *(a.reshape(-1) for a in tables))


def window_argmax(centers: np.ndarray, sizes: np.ndarray, values: np.ndarray) -> dict:
    """The first row attaining the maximum value, as {center, size, value}."""
    i = int(np.argmax(values))
    center, size, value = next(window_rows(centers[i:i + 1], sizes[i:i + 1], values[i:i + 1]))
    return {"center": center, "size": size, "value": value}


def window_values(field: SampledField, window: BallWindow, mask=None) -> np.ndarray:
    """Field values at the grid points of a ball (or custom offset mask)."""
    window.validate(field.grid)
    if mask is None:
        mask = ball_mask(field.grid, window.radius)
    shift = tuple(-int(c) for c in window.center)
    return periodic_roll(field.shaped, shift)[mask]


def ball_mean(field: SampledField, window: BallWindow) -> float:
    """Arithmetic mean of the field over the window's grid points."""
    vals = window_values(field, window)
    if vals.size == 0:
        raise ValueError(f"window {window} contains no grid point")
    return float(vals.mean())


def _bump(grid: Grid, scale: float):
    """Unnormalized bump exp(-1/(1-t^2)) sampled at t = |u| / scale, zero
    for t >= 1; returns (bump, t)."""
    if scale < 2 * grid.spacing:
        raise ValueError(f"mollifier scale {scale} unresolved: below 2h = {2 * grid.spacing}")
    t = offset_distance(grid) / scale
    raw = np.zeros(grid.shape)
    inside = t < 1.0
    raw[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return raw, t


def mollify(field: SampledField, moll: Mollifier) -> SampledField:
    """Discrete periodic convolution with the sampled unit-mass kernel."""
    grid = field.grid
    ker = moll.kernel(grid)
    out = np.fft.ifftn(np.fft.fftn(field.shaped) * np.fft.fftn(ker)).real
    return SampledField(grid=grid, values=out.reshape(-1))


def mollify_gradient_kernel(field: SampledField, moll: Mollifier) -> tuple:
    """Gradient of the mollified field by convolving with the kernel's
    analytic derivative instead of differentiating in frequency space.

    Independent cross-check route for the spectral gradient of mollify:
    moving the derivative onto the kernel gives d/dx_i (f * k) = f * d_i k,
    with d_i k(u) = -2 u_i / scale^2 * k(u) / (1 - t^2)^2 for the bump
    profile, t = |u| / scale.  Normalized by the same discrete kernel mass
    as mollify.
    """
    grid = field.grid
    raw, t = _bump(grid, moll.scale)
    inside = t < 1.0
    mass = raw.sum()
    fhat = np.fft.fftn(field.shaped)
    comps = []
    for u_i in offset_components(grid):
        dker = np.zeros(grid.shape)
        dker[inside] = (
            -2.0
            * u_i[inside]
            / moll.scale**2
            * raw[inside]
            / (1.0 - t[inside] ** 2) ** 2
        )
        out = np.fft.ifftn(fhat * np.fft.fftn(dker / mass)).real
        comps.append(SampledField(grid=grid, values=out.reshape(-1)))
    return tuple(comps)
