"""Plane-approximation numbers for weighted point clouds, and the bridge
between graph clouds and the affine coefficients of a sampled field.

For a discrete measure the infimum over affine k-planes is solved exactly:
the optimal plane passes through the weighted centroid of the ball and is
spanned by the top-k eigenvectors of the weighted second-moment matrix, so
the squared number is the sum of the D-k smallest eigenvalues divided by
r^2 times the ball weight.  No iterative plane search is involved.
beta2k takes one radius or an array of them; the array form selects every
ball from one squared-distance pass and solves all of them in one stacked
eigh, which is how the graph bridge asks for a center's whole ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import ScaleLadder, coefficient_matrix
from .corpus import FieldLengthError, FieldValueError
from .field import NumericError, SampledField, flat_index, lattice_centers, offset_components
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
    """Weighted points in ambient dimension D >= 2."""

    points: np.ndarray   # (N, D)
    weights: np.ndarray  # (N,) strictly positive

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] < 2:
            raise ValueError("points must be an (N, D) array with D >= 2")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != pts.shape[0]:
            raise ValueError("weights length does not match point count")
        if not np.all(np.isfinite(w)) or np.any(w <= 0) or w.sum() <= 0:
            raise ValueError("weights must be finite and strictly positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]


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

    With a scalar radius r, returns (beta, PlaneFit) and raises
    NumericError for a ball of fewer than k + 1 points.  With a 1-d array
    of radii, returns the array of their betas, NaN where the ball holds
    fewer than k + 1 points: one squared-distance pass and one stacked
    eigh serve every radius, and each beta equals (==) the scalar call's.
    Ties between eigenvalues are resolved by the solver's ordering; beta
    itself depends only on eigenvalue sums.
    """
    D = cloud.ambient_dim
    if not (1 <= k <= D - 1):
        raise ValueError(f"k must lie in [1, {D - 1}], got {k}")
    radii = np.asarray(r, dtype=float)
    if radii.ndim > 1:
        raise ValueError("radii must be a scalar or a 1-d array")
    if not np.all((0.0 < radii) & (radii < np.inf)):
        raise ValueError(f"radius must be positive and finite, got {r}")
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.shape[0] != D:
        raise ValueError("center dimension does not match the cloud")
    d2 = np.sum((cloud.points - center) ** 2, axis=1)
    each = np.atleast_1d(radii)
    betas = np.full(each.size, np.nan)
    full, sizes, moments = [], [], []
    for j, rj in enumerate(each.tolist()):
        sel = d2 < rj * rj
        pts, w = cloud.points[sel], cloud.weights[sel]
        if pts.shape[0] < k + 1:
            if radii.ndim == 0:
                raise NumericError(
                    f"ball at {center.tolist()} radius {rj} holds "
                    f"{pts.shape[0]} points; need at least {k + 1}"
                )
            continue
        W = w.sum()
        centroid = (w @ pts) / W
        c = pts - centroid
        full.append(j)
        sizes.append(W)
        moments.append((c * w[:, None]).T @ c)
    if not full:
        return betas
    evals, evecs = np.linalg.eigh(np.stack(moments))  # ascending, per radius
    # eigenvalues below the solver's backward-error scale are numerical
    # zeros; without the cutoff a perfectly flat cloud reports sqrt(eps)
    floor = 64.0 * np.finfo(float).eps * np.maximum(np.abs(evals[:, :1]), np.abs(evals[:, -1:]))
    evals = np.where(np.abs(evals) <= floor, 0.0, evals)
    rf = each[full]
    resid_sq = np.clip(evals[:, : D - k].sum(axis=1), 0.0, None) / (rf * rf * np.array(sizes))
    betas[full] = np.sqrt(resid_sq)
    if radii.ndim > 0:
        return betas
    beta = float(betas[0])
    basis = evecs[0][:, D - k :].T[::-1]  # leading directions first
    return beta, PlaneFit(basepoint=centroid, orthonormal_basis=basis, residual=beta)


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
    # the chart rolled to the center; beta2k selects each radius's ball
    # from the one cloud over them.
    top = radii.max()
    widest = udist_sq < top * top
    steps = np.argwhere(widest)
    chart = [comp[widest] for comp in ucomp]

    beta = np.empty((len(centers), radii.size))
    origin = np.zeros(dim + 1)
    for i, c in enumerate(centers):
        rows = flat_index(grid, c + steps)
        lift = field.values[rows] - field.values[rows[0]]  # steps[0] is the zero offset
        cloud = PointCloud(points=np.stack(chart + [lift], axis=1), weights=area[rows])
        beta[i] = beta2k(cloud, origin, radii, k=dim)

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
