"""Plane-approximation numbers for weighted point clouds, and the bridge
between graph clouds and the affine coefficients of a sampled field.

For a discrete measure the infimum over affine k-planes is solved exactly:
the optimal plane passes through the weighted centroid of the ball and is
spanned by the top-k eigenvectors of the weighted second-moment matrix, so
the squared number is the sum of the D-k smallest eigenvalues divided by
r^2 times the ball weight.  No iterative plane search is involved.
beta2k takes one cloud or a stack of equal-sized clouds, and one radius or
an array of them.  It selects every ball from one squared-distance pass,
walks the radii from the largest down, reading the points in place until
fewer than half of them lie in some ball, sums the moments over the points
in point order and solves all the balls in one stacked eigh, so a stack
gives each cloud the betas of its own call.  The graph bridge gives each
cell whose ball the field holds constant the beta of its flat disk,
which is that of beta2k's arithmetic, lifts blocks of the other centers,
deepest first, and makes one call per block over the radii on which its
first center is not constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import ScaleLadder, coefficient_matrix
from .corpus import FieldLengthError, FieldValueError
from .field import (
    NumericError, SampledField, flat_index, grid_irfftn, lattice_centers, offset_components, ordered_sum,
)
from .spectral import spectral_gradient

__all__ = [
    "PointCloud",
    "PlaneFit",
    "GraphBridgeReport",
    "beta2k",
    "plane_residual",
    "load_cloud",
    "graph_beta_vs_nu1",
]


@dataclass(frozen=True)
class PointCloud:
    """Weighted points in ambient dimension D >= 2: one cloud, or a stack of
    B clouds of N points each."""

    points: np.ndarray   # (N, D), or (B, N, D) for a stack
    weights: np.ndarray  # (N,), or (B, N) for a stack; strictly positive

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pts = pts if pts.ndim == 3 else np.atleast_2d(pts)
        if pts.ndim not in (2, 3) or pts.shape[-1] < 2:
            raise ValueError("points must be an (N, D) or (B, N, D) array with D >= 2")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        w = np.asarray(self.weights, dtype=float)
        w = w.reshape(-1) if pts.ndim == 2 else w
        if w.shape != pts.shape[:-1]:
            raise ValueError("weights shape does not match the points")
        # w > 0 on a nonempty cloud gives every cloud a positive weight
        if w.shape[-1] == 0 or not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be finite and strictly positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[-1]


@dataclass(frozen=True)
class PlaneFit:
    basepoint: np.ndarray        # weighted centroid of the ball
    orthonormal_basis: np.ndarray  # (k, D) rows spanning the plane
    residual: float              # the attained normalized RMS distance


@dataclass(frozen=True)
class GraphBridgeReport:
    beta: np.ndarray        # (n_centers, levels)
    nu1: np.ndarray         # (n_centers, levels)
    centers: np.ndarray     # (n_centers, dim) grid index tuples
    radii: np.ndarray
    lipschitz: float        # max |grad f| over the grid, recorded
    max_beta_over_nu1: float
    max_nu1_over_beta: float

    @property
    def insufficient_cells(self) -> int:
        """Cells whose lifted ball holds fewer than dim + 1 points (beta NaN)."""
        return int(np.isnan(self.beta).sum())


def beta2k(cloud: PointCloud, center, r, k: int):
    """Best normalized RMS distance to an affine k-plane over the ball.

    With one cloud and a scalar radius r, returns (beta, PlaneFit) and
    raises NumericError for a ball of fewer than k + 1 points.  With a 1-d
    array of radii, returns their betas, NaN where the ball holds fewer
    than k + 1 points; a stack of B clouds, all about the one center,
    returns the (B, L) betas over L radii (shape (B,) for a scalar r).

    One arithmetic serves every form, so each beta equals (==) the call on
    its cloud alone, with any radius, in any order of the radii, and with
    any points added outside its ball: the coordinates are laid out
    (N, B), every moment is summed over the points in point order
    (field.ordered_sum), where a point outside the ball adds exact zeros,
    and only which of those points are read depends on the stack and the
    radii.  The radii run from the largest down; a radius reads the rows
    that the previous one read, in place, while at least half of them lie
    in some ball of the radius, and otherwise only those rows, compressed.
    The centered second moments of every ball go to one stacked eigh.
    Ties between eigenvalues are resolved by the solver's ordering; beta
    itself depends only on eigenvalue sums.

    Conditioning: beta ~ sqrt(lambda_min), and eigenvalues below
    64 eps lambda_max are set to zero, so on a nearly flat ball beta
    carries a roundoff of order eps / beta.  Two summation orders of the
    moments differed by up to 4.9e-10 absolute on 2-d n=128 smooth_bump
    graph balls; a tolerance on beta of that size holds only between
    computations that share this arithmetic.
    """
    D = cloud.ambient_dim
    if not (1 <= k <= D - 1):
        raise ValueError(f"k must lie in [1, {D - 1}], got {k}")
    radii = np.asarray(r, dtype=float)
    if radii.ndim > 1:
        raise ValueError("radii must be a scalar or a 1-d array")
    if radii.size == 0:
        raise ValueError("radii must hold at least one radius")
    if not np.all((0.0 < radii) & (radii < np.inf)):
        raise ValueError(f"radius must be positive and finite, got {r}")
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.shape[0] != D:
        raise ValueError("center dimension does not match the cloud")
    if not np.all(np.isfinite(center)):
        raise ValueError("center coordinates must be finite")
    stacked = cloud.points.ndim == 3
    pts = cloud.points if stacked else cloud.points[None]
    data = np.ascontiguousarray(pts.transpose(2, 1, 0))  # (D, N, B)
    w = np.ascontiguousarray(cloud.weights.reshape(pts.shape[:2]).T)  # (N, B)
    # One work array serves the squared distances and every radius, as
    # (n, B) planes over the n current rows: the weights ws (0 outside each
    # ball), which then hold the terms of one moment, ws * x, which becomes
    # the centered c, and ws * c.
    work = np.empty((1 + 2 * D,) + w.shape)
    d2, diff = np.zeros(w.shape), work[0]
    for a in range(D):
        d2 += np.square(np.subtract(data[a], center[a], out=diff), out=diff)
    nearest = d2.min(axis=1)  # a row lies in some ball of radius r iff nearest < r^2
    each = np.atleast_1d(radii)
    B = pts.shape[0]
    betas = np.full((each.size, B), np.nan)
    full, sizes, moments = [], [], []
    # The radii run from the largest down, so each radius's candidate rows
    # are a subset of the current ones: those are read in place while at
    # least half of them are candidates, and compressed to the candidates
    # below that.
    for j in np.argsort(-each, kind="stable").tolist():
        rj = float(each[j])
        cand = nearest < rj * rj
        if 2 * np.count_nonzero(cand) < len(nearest):
            data = data.compress(cand, axis=1)
            w, d2, nearest = (a.compress(cand, axis=0) for a in (w, d2, nearest))
        sel = d2 < rj * rj
        ok = np.count_nonzero(sel, axis=0) >= k + 1
        if not stacked and radii.ndim == 0 and not ok[0]:
            raise NumericError(
                f"ball at {center.tolist()} radius {rj} holds "
                f"{np.count_nonzero(sel)} points; need at least {k + 1}"
            )
        if not ok.any():
            continue
        part = work[:, : len(nearest)]
        ws, wx, wc = part[0], part[1 : D + 1], part[D + 1 :]
        np.multiply(w, sel, out=ws)
        np.multiply(ws, data, out=wx)
        total = ordered_sum(part[: D + 1])
        # a ball of too few points is still centered on its own centroid,
        # so its (unused) moments stay of the size of the data's
        W = np.where(total[0] > 0, total[0], 1.0)
        centroid = total[1:] / W
        c = np.subtract(data, centroid[:, None], out=wx)
        np.multiply(ws, c, out=wc)
        ball = np.empty((B, D, D))
        for a in range(D):
            for b in range(a + 1):
                ball[:, a, b] = ball[:, b, a] = ordered_sum(np.multiply(wc[a], c[b], out=ws))
        full.append((j, ok))
        sizes.append(W)
        moments.append(ball)
    if full:
        evals, evecs = np.linalg.eigh(np.concatenate(moments))  # ascending, per ball
        # eigenvalues below the solver's backward-error scale are numerical
        # zeros; without the cutoff a perfectly flat cloud reports sqrt(eps)
        floor = 64.0 * np.finfo(float).eps * np.maximum(np.abs(evals[:, :1]), np.abs(evals[:, -1:]))
        evals = np.where(np.abs(evals) <= floor, 0.0, evals)
        lowest = np.clip(evals[:, : D - k].sum(axis=1), 0.0, None).reshape(len(full), B)
        for (j, ok), W, low in zip(full, sizes, lowest):
            betas[j, ok] = np.sqrt(low[ok] / (each[j] * each[j] * W[ok]))
    if stacked:
        return betas.T.reshape((B,) + radii.shape)
    if radii.ndim > 0:
        return betas[:, 0]
    beta = float(betas[0, 0])
    basis = evecs[0][:, D - k :].T[::-1]  # leading directions first
    return beta, PlaneFit(basepoint=centroid[:, 0], orthonormal_basis=basis, residual=beta)


def plane_residual(cloud: PointCloud, center, r: float, basepoint, basis) -> float:
    """Normalized RMS distance to an explicitly supplied affine plane.

    Always at least the beta2k value up to rounding; used as the competitor
    check for the eigen-solution.
    """
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.shape[0] != cloud.ambient_dim:
        raise ValueError("center dimension does not match the cloud")
    sel = np.sum((cloud.points - center) ** 2, axis=1) < r * r
    pts, w = cloud.points[sel], cloud.weights[sel]
    if pts.shape[0] == 0:
        raise ValueError("empty ball")
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    rel = pts - np.asarray(basepoint, dtype=float)
    proj = rel @ basis.T
    dist_sq = np.sum(rel ** 2, axis=1) - np.sum(proj ** 2, axis=1)
    dist_sq = np.clip(dist_sq, 0.0, None)
    return float(np.sqrt(np.sum(w * dist_sq) / (r * r * w.sum())))


def load_cloud(path, ambient_dim: int = None):
    """Read whitespace-separated points, one per line.

    With ambient_dim given and one extra column, the last column is the
    weight; otherwise every column is a coordinate and weights default to
    one.  Returns (cloud, used_weight_column).  A malformed file raises a
    corpus.FieldFileError.
    """
    rows = []
    with open(path, errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            txt = line.strip()
            if not txt or txt.startswith("#"):
                continue
            try:
                rows.append([float(tok) for tok in txt.split()])
            except ValueError as exc:
                raise FieldValueError(f"{path}:{line_no}: unparsable point line") from exc
    if not rows:
        raise FieldLengthError(f"{path}: no points found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise FieldLengthError(f"{path}: ragged rows; all lines need {width} columns")
    arr = np.asarray(rows, dtype=float)
    weighted = ambient_dim is not None and width == ambient_dim + 1
    if ambient_dim is not None and not weighted and width != ambient_dim:
        raise FieldLengthError(
            f"{path}: {width} columns incompatible with ambient dim {ambient_dim}"
        )
    points, weights = (arr[:, :-1], arr[:, -1]) if weighted else (arr, np.ones(len(arr)))
    try:
        return PointCloud(points=points, weights=weights), weighted
    except ValueError as exc:  # too few columns, non-finite or nonpositive entries
        raise FieldValueError(f"{path}: {exc}") from exc


def _constant_balls(field: SampledField, mask: np.ndarray) -> np.ndarray:
    """Whether the field equals (==) its value at each grid point on the
    ball `mask` (offsets about index 0) there, shaped.

    A lattice ball is connected along the axes: each row is an interval
    through its slice at 0, and the central column meets every row.  So the
    field is constant on it iff no neighbours x, x + e_a in it differ.  Their
    count, one correlation per axis, is an integer of at most dim N, and the
    FFT errs on it by below 1e-8 for N <= 2^16 (coeffs._FFT_C): < 0.5 is exact.
    """
    values, grid = field.shaped, field.grid
    steps = (np.roll(values, -1, a) != values for a in range(grid.dim))
    pairs = (mask & np.roll(mask, -1, a) for a in range(grid.dim))
    spectrum = sum(np.fft.rfftn(s) * np.conj(np.fft.rfftn(p)) for s, p in zip(steps, pairs))
    return grid_irfftn(grid, spectrum) < 0.5


# _BLOCK_CLOUDS: centers per stacked beta2k call of the graph bridge; a
# stack's betas equal its per-cloud calls (==), so it sets only the time.
# `msq beta --graph` on 2-d n=128 smooth_bump took 4.5-4.7 s with 40 clouds
# a call, 5.9-6.6 s with 10 (2**15 lifted values), on a 2-core x86 host.
_BLOCK_CLOUDS = 40


def graph_beta_vs_nu1(field: SampledField, ladder: ScaleLadder, stride: int = 1) -> GraphBridgeReport:
    """Pair graph-cloud plane numbers with the affine coefficients.

    The graph cloud {(x, f(x))} carries surface weights
    h^dim * sqrt(1 + |grad f|^2) with a spectral gradient.  Each center is
    lifted in its own periodic chart (displacements in (-L/2, L/2]), the
    ambient ball keeps points with |u|^2 + (f(x+u) - f(x))^2 < r^2, and the
    plane number with k = dim is matched against nu1 at the same (x, r).
    A ball with fewer than dim + 1 points fixes no dim-plane; its beta is
    NaN, and the ratio maxima skip it.
    """
    grid = field.grid
    h = grid.spacing
    if h * h < np.finfo(float).tiny:  # the squared offsets below would underflow
        raise NumericError(f"squared grid spacing underflows: h = {h}")
    dim = grid.dim
    gnorm_sq = sum(g.shaped**2 for g in spectral_gradient(field))
    lipschitz = float(np.sqrt(gnorm_sq.max()))
    area = (h**dim * np.sqrt(1.0 + gnorm_sq)).reshape(-1)
    ucomp = offset_components(grid)
    udist_sq = sum(uc**2 for uc in ucomp)

    radii = ladder.radii
    centers = lattice_centers(grid, stride)
    nub = coefficient_matrix(field, ladder, "nu1").values[flat_index(grid, centers)]

    # The offsets of the widest candidate ball, in the row-major order of
    # the grid rolled to the center.  Where the field equals (==) its
    # center value on a radius's ball, every lift is +-0.0, so the
    # ball is the flat disk, whose moment matrix has a zero last row and
    # column: the solver splits that zero eigenvalue off exactly, and
    # beta2k gives +0.0, or NaN for a disk of fewer than dim + 1 points.
    # The balls are nested, so a center's radii whose ball is not constant
    # are the widest `depth` of the ladder, and its other cells take these
    # values without a call.  The live centers, deepest first (row-major
    # within a depth), go to beta2k in blocks of _BLOCK_CLOUDS as one
    # stacked cloud over the depth of the block's first center: a member
    # flat on some of those radii gets the flat values from beta2k itself.
    # A center's rows are read from the flat indices tiled twice per axis,
    # so c + step needs no wrap.
    top = radii.max()
    widest = udist_sq < top * top
    steps = np.argwhere(widest)
    n = grid.n_per_axis
    at = flat_index(grid, centers)
    depth = np.zeros(len(centers), dtype=np.intp)
    for r in radii.tolist():
        varies = ~_constant_balls(field, udist_sq < r * r).reshape(-1)[at]
        if not varies.any():  # every narrower ball lies inside a constant one
            break
        depth += varies
    disk = np.array([np.count_nonzero(udist_sq < r * r) for r in radii.tolist()])
    beta = np.tile(np.where(disk >= dim + 1, 0.0, np.nan), (len(centers), 1))
    live = np.flatnonzero(depth)
    live = live[np.argsort(-depth[live], kind="stable")]
    per_block = min(_BLOCK_CLOUDS, max(len(live), 1))
    wide = (2 * n,) * dim
    tiled = np.tile(np.arange(grid.n_points).reshape(grid.shape), (2,) * dim).reshape(-1)
    shift = np.ravel_multi_index(tuple(steps.T), wide)
    base = np.ravel_multi_index(tuple(centers[live].T), wide)
    # one points array serves every block, laid out (dim + 1, K, B) as
    # beta2k reads a stack: the offsets u, then each block's lift
    points = np.empty((dim + 1, len(steps), per_block))
    points[:dim] = np.stack([comp[widest] for comp in ucomp])[..., None]

    origin = np.zeros(dim + 1)
    for lo in range(0, len(live), per_block):
        rows = tiled[shift[:, None] + base[lo:lo + per_block]]  # (K, B)
        block = points[..., : rows.shape[1]]
        # rows[0] is the center: steps[0] is the zero offset
        np.subtract(field.values[rows], field.values[rows[0]], out=block[dim])
        cloud = PointCloud(points=block.transpose(2, 1, 0), weights=area[rows].T)
        deep = depth[live[lo]]
        beta[live[lo:lo + per_block], :deep] = beta2k(cloud, origin, radii[:deep], k=dim)

    floor = 1e-12 * max(1.0, float(np.max(np.abs(field.values))))
    both = (beta > floor) & (nub > floor)
    if np.any(both):
        up = float(np.max(beta[both] / nub[both]))
        down = float(np.max(nub[both] / beta[both]))
    else:
        up = down = 0.0
    return GraphBridgeReport(
        beta=beta,
        nu1=nub,
        centers=centers,
        radii=radii,
        lipschitz=lipschitz,
        max_beta_over_nu1=up,
        max_nu1_over_beta=down,
    )
