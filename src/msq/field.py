"""Uniform periodic grids, sampled fields, ball windows, and mollification.

Everything downstream works on the torus [0, L)^dim, dim in {1, 2}, sampled
on n equispaced points per axis with n a power of two.  Distances are always
periodic (wrap-around), ball membership is strict (`dist < radius`), and
mollification is discrete periodic convolution with a renormalized bump
kernel so that constants are reproduced on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce, wraps
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "SampledField",
    "INTEGRAL_CENTER",
    "BallWindow",
    "BallCenter",
    "WindowFamily",
    "Mollifier",
    "NumericError",
    "make_grid",
    "sample",
    "coordinates",
    "axis_offsets",
    "radial",
    "offset_distance",
    "ball_mask",
    "ball_fft",
    "grid_irfftn",
    "annulus_mask",
    "ball_count",
    "ball_offsets",
    "periodic_roll",
    "offset_components",
    "masked_offsets",
    "lattice_centers",
    "flat_index",
    "offset_reads",
    "ordered_sum",
    "offset_sums",
    "window_family",
    "window_rows",
    "table_columns",
    "window_argmax",
    "window_values",
    "ball_mean",
    "mollify",
    "mollify_gradient_kernel",
]


class NumericError(ValueError):
    """A computation that left the finite floating-point range, or had too
    few points to determine its result."""


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


# The rule that a window's center is a grid index, shared by every window
# kind: window_family converts the centers to int only after it passes.
INTEGRAL_CENTER = (
    lambda g, k, c, s: np.any(c != np.round(c), axis=1),
    lambda g, c, s: f"window center index {c} is not an integer",
)


@dataclass(frozen=True)
class BallWindow:
    """Periodic ball: grid-point center index tuple plus a radius."""

    center: tuple
    radius: float

    # The rules a ball passes, in the order they are checked: (test, message).
    # test(grid, ranks, centers, radii) flags the failing rows of (m,) center
    # ranks, (m, dim) centers as given (int or float) and (m,) radii;
    # message(grid, center, radius) is the error of one failing row.
    RULES = (
        (lambda g, k, c, r: k != g.dim,
         lambda g, c, r: "window center rank does not match grid dim"),
        INTEGRAL_CENTER,
        (lambda g, k, c, r: np.any((c < 0) | (c >= g.n_per_axis), axis=1),
         lambda g, c, r: f"window center index {c} out of range"),
        (lambda g, k, c, r: ~np.isfinite(r),
         lambda g, c, r: f"window radius {r} is not finite"),
        (lambda g, k, c, r: r < g.spacing,
         lambda g, c, r: f"window radius {r} below grid spacing {g.spacing}"),
        (lambda g, k, c, r: r > g.period / 4,
         lambda g, c, r: f"window radius {r} exceeds period/4 = {g.period / 4}"),
    )

    def validate(self, grid: Grid) -> None:
        window_family(grid, [self], BallWindow)

    size = property(lambda self: self.radius)


class BallCenter:
    """The rules of a ball's center alone, its rank, integrality and range:
    the first three of BallWindow.RULES, for window_family."""

    RULES = BallWindow.RULES[:3]


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

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("mollifier scale must be positive")

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
        raise ValueError(f"dimension must be 1 or 2, got {dim}")
    n = int(n_per_axis)
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"n_per_axis must be a power of two >= 8, got {n_per_axis}")
    if not (0.0 < period < np.inf):
        raise ValueError(f"period must be positive and finite, got {period}")
    if period / n < np.finfo(float).tiny:
        raise ValueError(f"grid spacing {period / n!r} (period {period!r} over {n} points) "
                         "is below the normal float range")
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


# _GEOMETRY_ENTRIES: each memoized window geometry below keeps at most this
# many keys, least recently used first out.  16 holds one default ladder of
# every size up to 1-d n=16384 (11 radii).  An entry of a grid of N points
# holds 8N bytes (offset_distance) or about 8N (ball_fft's half-spectrum,
# 16 (n/2 + 1) N/n bytes): 128 KiB and 130 KiB at 2-d n=128.
_GEOMETRY_ENTRIES = 16


def _memoized(fn):
    """fn(grid, ...) kept per argument tuple, the whole Grid included, in a
    bounded LRU cache, and returned read-only, since every caller shares
    it; .cache_clear() empties it."""
    @lru_cache(maxsize=_GEOMETRY_ENTRIES)
    @wraps(fn)
    def cached(*key):
        out = fn(*key)
        out.flags.writeable = False
        return out
    return cached


@_memoized
def offset_distance(grid: Grid) -> np.ndarray:
    """Periodic distance of every grid index from index 0, shape (n,)*dim."""
    return radial(axis_offsets(grid), grid.dim)


def ball_mask(grid: Grid, radius: float) -> np.ndarray:
    """Boolean mask of offsets with periodic distance strictly below radius."""
    return offset_distance(grid) < radius


# The transform of a float ball mask, unconjugated: a correlation with the
# ball takes np.conj(ball_fft(grid, r)) at its use site.
@_memoized
def ball_fft(grid: Grid, radius: float) -> np.ndarray:
    """np.fft.rfftn of the ball mask as floats: the half-spectrum, shape
    (n,)*(dim - 1) + (n // 2 + 1,)."""
    return np.fft.rfftn(ball_mask(grid, radius).astype(float))


def grid_irfftn(grid: Grid, spectrum: np.ndarray) -> np.ndarray:
    """The real arrays whose rfftn half-spectra over the last grid.dim axes
    are spectrum: np.fft.irfftn back to the grid shape, a leading stack axis
    kept."""
    return np.fft.irfftn(spectrum, s=grid.shape, axes=tuple(range(-grid.dim, 0)))


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


# _GATHER_SHARE: offset_reads rolls the whole grid per offset and takes the
# anchor rows for irregular anchors that number a quarter of the grid or
# more.  The gather from the padded copy would read them as well; this
# branch is kept only because perfbench/layers.REQUIRED_COUNTS requires
# np.roll calls on every workload, and these are reports-2d's only ones.
# Counted over its five commands on the 2-d n=128 riesz_of_noise(1.3) field
# of seed 5, all 180 come from coefficient_matrix's direct sums on the
# bottom level (45 points, one roll per offset): 16,083 rejected rows for
# nu1 (in coeffs, and again in compare), 16,042 for nu1_bar (sqfn) and
# 9,445 for nu0 (compare).  That level keeps the direct sum rather than the
# exact route, because the sum is the shorter of the two there.
_GATHER_SHARE = 4
# _BLOCK_VALUES: offset_reads yields blocks of about this many values (256
# KB), so that each numpy call reduces many offsets at once.
_BLOCK_VALUES = 2**15


def _lattice_stride(grid: Grid, points: np.ndarray):
    """The stride s with points == lattice_centers(grid, s), or None."""
    n = grid.n_per_axis
    s = n if len(points) < 2 else int(points[1, -1] - points[0, -1])
    if s < 1 or len(points) != len(range(0, n, s)) ** grid.dim:
        return None
    return s if np.array_equal(points, lattice_centers(grid, s)) else None


def offset_reads(grid: Grid, a: np.ndarray, points: np.ndarray, offsets):
    """Yield a[x + o], wrapped onto the torus, at the anchors x (the rows of
    the (m, dim) int array points), for the offset rows o in blocks of b
    rows: each block is a fresh (b, m) array, row i for the i-th offset of
    the block.  Lattice anchors are read through strided views of one
    wrap-padded copy, fewer other anchors than a quarter of the grid are
    gathered from that copy by flat shifts, and otherwise the whole grid is
    rolled per offset and the anchor rows are taken."""
    n, dim = grid.n_per_axis, grid.dim
    points = np.asarray(points, dtype=int).reshape(-1, dim)
    offsets = (np.asarray(offsets, dtype=int).reshape(-1, dim) + n // 2) % n - n // 2
    m = len(points)
    b = max(1, _BLOCK_VALUES // max(m, 1))
    blocks = (offsets[lo:lo + b] for lo in range(0, len(offsets), b))
    stride = _lattice_stride(grid, points)
    if stride is None and _GATHER_SHARE * m >= grid.n_points:
        rows = flat_index(grid, points)
        for ob in blocks:
            block = np.empty((len(ob), m))
            for row, off in zip(block, (-ob).tolist()):
                periodic_roll(a, off).reshape(-1).take(rows, out=row)
            yield block
        return
    reach = int(np.abs(offsets).max(initial=0))
    padded = np.pad(a, reach, mode="wrap")
    if stride is not None:
        view = np.lib.stride_tricks.sliding_window_view(padded, grid.shape)
        lattice = (slice(None, None, stride),) * dim
        for ob in blocks:
            yield view[tuple((ob + reach).T) + lattice].reshape(len(ob), m)
        return
    steps = np.array(padded.strides) // padded.itemsize
    base = np.ravel_multi_index(tuple((points % n + reach).T), padded.shape)
    flat = padded.reshape(-1)
    for ob in blocks:
        yield flat[(ob @ steps)[:, None] + base]


def ordered_sum(block: np.ndarray) -> np.ndarray:
    """The sums of a (..., b, m) block down its rows (axis -2), added row
    after row in row order, so that rows of exact zeros change nothing:
    shape (..., m).  Each (b, m) plane must be C-contiguous."""
    # numpy sums a (b, m >= 2) block down the rows one row at a time, but a
    # single column pairwise, so that one is accumulated;
    # test_offset_sums_sequential and test_ordered_sum_row_order pin both.
    # np.add.accumulate down the rows adds in order for any m, but takes
    # about ten times as long per (16, 2048) block.
    if block.shape[-1] > 1:
        return block.sum(axis=-2)
    return np.add.accumulate(block[..., 0], axis=-1)[..., -1:]


def offset_sums(grid: Grid, a: np.ndarray, points: np.ndarray, offsets, center,
                term) -> np.ndarray:
    """Sum over the offset rows o of term(a[x + o] - center[x]) at the
    anchors x, an (m,) array added one offset at a time in offset order, bit
    for bit as a sequential `acc += term(row - center)`.  term(block, rows)
    maps a (b, m) block of differences, for the offsets offsets[rows] (a
    slice), to its terms, in place or not."""
    acc, lo = np.zeros(len(points)), 0
    for block in offset_reads(grid, a, points, offsets):
        block = term(np.subtract(block, center, out=block), slice(lo, lo + len(block)))
        lo += len(block)
        block[0] += acc
        acc = ordered_sum(block)
    return acc


def window_family(grid: Grid, windows, kind) -> WindowFamily:
    """A WindowFamily, or a sequence of kind windows (BallWindow or
    CubeSpec), as a WindowFamily whose every row passes kind.RULES.
    Otherwise the first failing row in input order raises the message of
    its first failing rule."""
    if isinstance(windows, WindowFamily):
        centers, sizes = windows.centers, windows.sizes
        ranks = np.full(len(sizes), np.shape(centers)[-1])
    else:
        centers, sizes = [w.center for w in windows], np.array([float(w.size) for w in windows])
        # a center that is not a sequence has no rank, and fails the rank rule
        ranks = np.array([len(c) if np.ndim(c) == 1 else -1 for c in centers], dtype=int)
    if np.any(ranks != grid.dim):  # held as the origin; the rank rule rejects the row
        centers = [c if k == grid.dim else (0,) * grid.dim for c, k in zip(centers, ranks.tolist())]
    points = np.asarray(centers).reshape(-1, grid.dim)
    if points.dtype.kind not in "iu":  # checked by INTEGRAL_CENTER before the conversion
        points = points.astype(float)
    # the rules after a size's finiteness rule compute on NaN and inf too, silently
    with np.errstate(all="ignore"):
        failing = np.array([test(grid, ranks, points, sizes) for test, _ in kind.RULES])
    rows = np.flatnonzero(failing.any(axis=0))
    if rows.size:
        i = int(rows[0])
        message = kind.RULES[int(np.argmax(failing[:, i]))][1]
        raise ValueError(message(grid, tuple(points[i].tolist()), float(sizes[i])))
    return WindowFamily(points.astype(int, copy=False), sizes)


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
    out = grid_irfftn(grid, np.fft.rfftn(field.shaped) * np.fft.rfftn(ker))
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
