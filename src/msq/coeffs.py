"""Local approximation coefficients per (center, scale).

Six kinds are computed.  The optimal kinds measure the normalized RMS
distance of the field, on a ball, to the best constant (nu0) or best affine
function (nu1); both infima are attained in closed form (ball mean, normal
equations on centered coordinates).  The mollified kinds (nu0_bar, nu1_bar)
use a specific competitor instead: the value, respectively the first-order
jet, of the mollified field at the window center, so they dominate the
optimal kinds entrywise.  The annulus kinds (nu0_tilde, nu1_tilde) average
first differences over the annulus r/2 <= |y| <= r, with a mollified
spectral gradient supplying the linear term at order one.

coefficient_matrix evaluates a kind at every (grid center, ladder radius)
pair through moment filters realized as FFT correlations; the per-window
operations are independent direct computations, and the test suite checks
the two routes against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import (
    BallWindow,
    Grid,
    Mollifier,
    SampledField,
    annulus_mask,
    ball_mask,
    flat_index,
    lattice_centers,
    masked_offsets,
    mollify,
    offset_components,
    periodic_roll,
    window_values,
)
from .spectral import spectral_gradient

__all__ = [
    "KINDS",
    "ScaleLadder",
    "CoefficientMatrix",
    "make_ladder",
    "nu0",
    "nu1",
    "nu_bar",
    "nu_tilde",
    "residual_for_constant",
    "residual_for_affine",
    "coefficient_matrix",
    "write_matrix_csv",
    "matrix_metadata",
]

KINDS = ("nu0", "nu1", "nu0_bar", "nu1_bar", "nu0_tilde", "nu1_tilde")


@dataclass(frozen=True)
class ScaleLadder:
    """Dyadic radii r_j = top_radius * 2^-j, j = 0..levels-1."""

    top_radius: float
    levels: int

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("ladder needs at least one level")
        if self.top_radius <= 0:
            raise ValueError("top radius must be positive")

    @property
    def radii(self) -> np.ndarray:
        return self.top_radius * 2.0 ** (-np.arange(self.levels))

    @property
    def log_weight(self) -> float:
        """Exact integral of dr/r across one dyadic octave."""
        return math.log(2.0)


def make_ladder(grid: Grid, top_radius: float = None, levels: int = None) -> ScaleLadder:
    """Ladder validated against a grid: radii within [4h, period/4]."""
    h = grid.spacing
    if top_radius is None:
        top_radius = grid.period / 4.0
    if top_radius > grid.period / 4.0 + 1e-12 * grid.period:
        raise ValueError("ladder top radius exceeds period/4")
    max_levels = int(math.floor(math.log2(top_radius / (4.0 * h)))) + 1
    if max_levels < 1:
        raise ValueError(
            f"top radius {top_radius} below the 4h floor {4 * h}; grid too coarse"
        )
    if levels is None:
        levels = max_levels
    if levels > max_levels:
        raise ValueError(
            f"{levels} levels would drop below the 4h floor (max {max_levels})"
        )
    return ScaleLadder(top_radius=float(top_radius), levels=int(levels))


@dataclass(frozen=True)
class CoefficientMatrix:
    """Coefficient values over grid centers (rows) x ladder radii (columns)."""

    grid: Grid
    ladder: ScaleLadder
    kind: str
    values: np.ndarray  # shape (n_points, levels), center-major

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        vals = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_points, self.ladder.levels)
        if vals.shape != expected:
            raise ValueError(f"matrix shape {vals.shape}, expected {expected}")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("coefficient entries must be finite and nonnegative")
        object.__setattr__(self, "values", vals)


# ---------------------------------------------------------------------------
# per-window operations


def _window_geometry(field: SampledField, window: BallWindow):
    window.validate(field.grid)
    mask = ball_mask(field.grid, window.radius)
    vals = window_values(field, window, mask=mask)
    u = masked_offsets(field.grid, mask)
    return vals, u


def nu0(field: SampledField, window: BallWindow) -> float:
    """RMS distance to the best constant on the ball, normalized by radius."""
    vals, _ = _window_geometry(field, window)
    c = vals.mean()
    return float(np.sqrt(np.mean((vals - c) ** 2)) / window.radius)


def nu1(field: SampledField, window: BallWindow) -> float:
    """RMS distance to the best affine function on the ball, normalized."""
    vals, u = _window_geometry(field, window)
    dim = field.grid.dim
    if vals.size < dim + 1:
        raise ValueError(f"window {window} has too few points for an affine fit")
    uc = u - u.mean(axis=0)
    fc = vals - vals.mean()
    gram = uc.T @ uc
    try:
        slope = np.linalg.solve(gram, uc.T @ fc)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"degenerate affine fit on window {window}") from exc
    resid = fc - uc @ slope
    return float(np.sqrt(np.mean(resid ** 2)) / window.radius)


def residual_for_constant(field: SampledField, window: BallWindow, c: float) -> float:
    """Normalized RMS residual against an explicit constant competitor."""
    vals, _ = _window_geometry(field, window)
    return float(np.sqrt(np.mean((vals - c) ** 2)) / window.radius)


def residual_for_affine(field, window, value: float, slope) -> float:
    """Normalized RMS residual against l(y) = value + slope . (y - center)."""
    vals, u = _window_geometry(field, window)
    slope = np.atleast_1d(np.asarray(slope, dtype=float))
    resid = vals - value - u @ slope
    return float(np.sqrt(np.mean(resid ** 2)) / window.radius)


def nu_bar(field: SampledField, window: BallWindow, order: int) -> float:
    """Residual against the order-0 or order-1 jet of the mollified field."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    vals, u = _window_geometry(field, window)
    moll = Mollifier(scale=window.radius)
    smoothed = mollify(field, moll)
    cflat = flat_index(field.grid, window.center)
    a = smoothed.values[cflat]
    if order == 0:
        resid = vals - a
    else:
        grads = spectral_gradient(smoothed)
        b = np.array([g.values[cflat] for g in grads])
        resid = vals - a - u @ b
    return float(np.sqrt(np.mean(resid ** 2)) / window.radius)


def nu_tilde(field: SampledField, window: BallWindow, order: int) -> float:
    """First-difference residual over the annulus r/2 <= |y| <= r."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    window.validate(field.grid)
    grid = field.grid
    mask = annulus_mask(grid, window.radius)
    if int(mask.sum()) < 2 * grid.dim:
        raise ValueError(f"annulus of window {window} has too few grid points")
    vals = window_values(field, window, mask=mask)
    cflat = flat_index(grid, window.center)
    diffs = vals - field.values[cflat]
    if order == 1:
        u = masked_offsets(grid, mask)
        moll = Mollifier(scale=window.radius)
        g = np.array(
            [
                mollify(comp, moll).values[cflat]
                for comp in spectral_gradient(field)
            ]
        )
        diffs = diffs - u @ g
    return float(np.sqrt(np.mean(diffs ** 2)) / window.radius)


# ---------------------------------------------------------------------------
# whole-matrix fast path


def coefficient_matrix(field: SampledField, ladder: ScaleLadder, kind: str) -> CoefficientMatrix:
    """Evaluate a coefficient kind at every (center, ladder radius) pair.

    Competitor fields (window means, least-squares slopes, mollified jets)
    come from FFT moment filters; the residual sums are then accumulated
    directly over the window offsets, which keeps near-exact competitors
    (constant, affine data) at roundoff instead of suffering the
    cancellation of a variance-of-moments formula.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    grid = field.grid
    radii = ladder.radii
    if radii[0] > grid.period / 4.0 + 1e-12 * grid.period:
        raise ValueError("ladder top radius exceeds period/4 for this grid")
    if radii[-1] < 4.0 * grid.spacing - 1e-12 * grid.spacing:
        raise ValueError("ladder bottom radius below the 4h floor for this grid")

    # Every kind is invariant under adding a constant; centering first.
    fc = field.shaped - field.values.mean()
    if fc.size and fc.max() == fc.min():
        fc = np.zeros(grid.shape)  # constant input: coefficients vanish exactly
    Ff = np.fft.fftn(fc)
    ucomps = offset_components(grid)
    grad_fc = None
    if kind == "nu1_tilde":
        grad_fc = spectral_gradient(SampledField(grid=grid, values=fc.reshape(-1)))

    out = np.empty((grid.n_points, ladder.levels))
    for j, r in enumerate(radii):
        annular = kind in ("nu0_tilde", "nu1_tilde")
        mask = annulus_mask(grid, r) if annular else ball_mask(grid, r)
        count = int(mask.sum())
        if count < 1:
            raise ValueError(f"empty window at radius {r}")
        if annular and count < 2 * grid.dim:
            raise ValueError(f"annulus at radius {r} has too few grid points")

        if kind in ("nu0", "nu1"):
            Fm = np.conj(np.fft.fftn(mask.astype(float)))
            A = np.fft.ifftn(Ff * Fm).real / count
        elif kind in ("nu0_bar", "nu1_bar"):
            A = _mollified(fc, grid, r)
        else:
            A = fc

        B = None
        if kind == "nu1":
            # The symmetric mask kills first moments, so the least-squares
            # slopes against centered offsets decouple per axis.
            B = []
            for uc in ucomps:
                w = uc * mask
                V = float((uc ** 2 * mask).sum())
                B.append(np.fft.ifftn(Ff * np.conj(np.fft.fftn(w))).real / V)
        elif kind == "nu1_bar":
            smoothed = SampledField(grid=grid, values=A.reshape(-1))
            B = [g.shaped for g in spectral_gradient(smoothed)]
        elif kind == "nu1_tilde":
            moll = Mollifier(scale=r)
            B = [mollify(g, moll).shaped for g in grad_fc]

        acc = np.zeros(grid.shape)
        for off in np.argwhere(mask):
            shift = tuple(-int(o) for o in off)
            term = periodic_roll(fc, shift) - A
            if B is not None:
                for B_i, uc in zip(B, ucomps):
                    ui = uc[tuple(off)]
                    if ui != 0.0:
                        term = term - B_i * ui
            acc += term * term
        out[:, j] = np.sqrt(acc / count).reshape(-1) / r
    return CoefficientMatrix(grid=grid, ladder=ladder, kind=kind, values=out)


def _mollified(fc_shaped: np.ndarray, grid: Grid, scale: float) -> np.ndarray:
    f = SampledField(grid=grid, values=fc_shaped.reshape(-1))
    return mollify(f, Mollifier(scale=scale)).shaped


# ---------------------------------------------------------------------------
# serialization


def write_matrix_csv(matrix: CoefficientMatrix, fh) -> None:
    """Flat CSV, one row per (center, radius), center-major ordering."""
    grid = matrix.grid
    cols = [f"center_index_{k}" for k in range(grid.dim)] + ["radius", "value"]
    fh.write(",".join(cols) + "\n")
    centers = lattice_centers(grid)
    radii = matrix.ladder.radii
    for ci, row in zip(centers, matrix.values):
        prefix = ",".join(str(int(c)) for c in ci)
        for r, v in zip(radii, row):
            fh.write(f"{prefix},{float(r)!r},{float(v)!r}\n")


def matrix_metadata(matrix: CoefficientMatrix) -> dict:
    grid = matrix.grid
    return {
        "kind": matrix.kind,
        "grid": {"dim": grid.dim, "n_per_axis": grid.n_per_axis, "period": grid.period},
        "ladder": {
            "top_radius": matrix.ladder.top_radius,
            "levels": matrix.ladder.levels,
            "radii": [float(r) for r in matrix.ladder.radii],
            "log_weight": matrix.ladder.log_weight,
        },
        "mollifier_profile": "bump",
        "layout": "center-major",
    }
