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
pair by expanding each residual square sum into moments of the field
against the window mask, computed as FFT correlations.  Every entry carries
an a-priori bound on its rounding error; the entries the bound does not
certify (near-exact competitors, where the expansion cancels) are
recomputed by direct accumulation over the window offsets.  The per-window
operations are independent direct computations that serve as reference
oracles, and the test suite checks the routes against each other.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .field import (
    BallWindow,
    Grid,
    Mollifier,
    NumericError,
    SampledField,
    annulus_mask,
    ball_mask,
    flat_index,
    lattice_centers,
    masked_offsets,
    mollify,
    offset_components,
    offset_sums,
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

# Rounding constants of the moment path in coefficient_matrix.
_EPS = float(np.finfo(float).eps)
# _FFT_C: a correlation corr(g, w)(x) = sum_o g[x+o] w[o] is computed as
# ifftn(fftn(g) * conj(fftn(w))): two forward transforms, a pointwise
# product and one inverse transform.  A radix-2 transform of N points
# obeys ||fl(Fx) - Fx||_2 <= log2(N) eta ||Fx||_2 with
# eta = mu + gamma_4 (sqrt(2) + mu) <= 6.7 eps for twiddle factors accurate
# to mu = eps (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., Thm. 24.2).  Carried to one output entry by Cauchy-Schwarz, each
# forward transform contributes at most log2(N) eta ||g||_2 ||w||_2 and the
# product sqrt(2) gamma_2 ||g||_2 ||w||_2; the inverse transform's normwise
# error, spread over its N outputs, contributes log2(N) eta rms(y) <=
# log2(N) eta ||g||_2 ||w||_2.  Three transforms and the product give
# c < 24 in the worst case.  That case needs every rounding error to
# align; rounding errors of an FFT add like independent variables, so the
# error grows like sqrt(log2 N) rather than log2 N (Higham, Sec. 24.1),
# which takes a factor sqrt(log2 N) >= 3 off for N >= 2^9: c = 8.  This
# is an estimate, not a proof; tests/test_coeffs.py checks it against
# extended-precision sums on every corpus family, where the observed error
# stays below 2% of delta.
_FFT_C = 8.0
# _SUM_C: q combines at most 3 + 2 dim = 7 terms, each after at most two
# roundings; recursive summation then errs by at most
# gamma_9 sum |term| < 10 eps sum |term| (Higham, Sec. 4.2).
_SUM_C = 10.0
# _TAU: the bound carried to nu must stay below tau max(1, nu).  The
# tightest comparisons between matrix entries are 1e-12 (orderings between
# kinds, shift invariance); tau = 1e-13 keeps each side of such a
# comparison a factor 10 inside it.
_TAU = 1e-13


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
    if not (0.0 < top_radius < math.inf):
        raise ValueError(f"ladder top radius {top_radius} must be positive and finite")
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
    # per-level count of entries recomputed directly by coefficient_matrix
    fallback_counts: tuple = dataclasses.field(default=(), init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        vals = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_points, self.ladder.levels)
        if vals.shape != expected:
            raise ValueError(f"matrix shape {vals.shape}, expected {expected}")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise NumericError("coefficient entries must be finite and nonnegative")
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

    Each kind compares the centered field fc with a competitor: a value
    field A and, at order one, a slope field B.  With u the offset from the
    center and M the window mask (ball, or annulus for the tilde kinds),
    the residual square sum at x expands into moments:

        q = S2 - 2 A S1 + count A^2 - sum_i (2 B_i T_i - B_i^2 V_i),

    where S2 = corr(fc^2, M), S1 = corr(fc, M) and T_i = corr(fc, u_i M) are
    FFT correlations and V_i = sum u_i^2 M.  The first moments and the cross
    moments vanish because M is symmetric in each axis and radii stay below
    period/4.  The competitors are the window means and least-squares
    slopes (nu0, nu1), the mollified value and its spectral gradient
    (_bar), and fc itself with the mollified gradient (_tilde).

    The expansion cancels where the residual is small against the field, so
    every entry carries an a-priori bound delta on its rounding error (see
    _FFT_C and _SUM_C).  An entry whose q does not exceed delta, or whose
    implied error on nu exceeds _TAU * max(1, nu), is recomputed by the
    direct per-offset accumulation; those entries equal the direct route
    bit for bit, which keeps constant and affine data at roundoff.  The
    per-level recomputation counts are kept in ``fallback_counts``.
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
    out = np.zeros((grid.n_points, ladder.levels))
    fallback_counts = [0] * ladder.levels
    constant = fc.max() == fc.min()  # constant input: coefficients vanish exactly
    levels = () if constant else _moment_levels(fc, grid, radii, kind)
    for j, (r, mask, count, A, B, q, delta) in enumerate(levels):
        nu = np.sqrt(np.maximum(q, 0.0) / count) / r
        # implied error on nu: delta / (2 r^2 count nu) against _TAU max(1, nu)
        flagged = (q <= delta) | (delta > 2.0 * _TAU * r * r * count * nu * np.maximum(1.0, nu))
        rows = np.flatnonzero(flagged)
        fallback_counts[j] = int(rows.size)
        col = nu.reshape(-1)
        if rows.size:
            acc = _direct_square_sums(grid, fc, A, B, mask, rows)
            col[rows] = np.sqrt(acc / count) / r
        out[:, j] = col
    matrix = CoefficientMatrix(grid=grid, ladder=ladder, kind=kind, values=out)
    object.__setattr__(matrix, "fallback_counts", tuple(fallback_counts))
    return matrix


def _moment_levels(fc: np.ndarray, grid: Grid, radii, kind: str):
    """Per ladder radius r: (r, mask, count, A, B, q, delta), with the
    competitor fields A and B (None at order zero), the moment residual
    square sums q and their rounding bound delta, all grid-shaped."""
    Ff = np.fft.fftn(fc)
    Ff2 = np.fft.fftn(fc * fc)
    # normwise FFT error scales: eps log2(N) ||signal||_2, times ||filter||_2
    fft_scale = _FFT_C * _EPS * math.log2(grid.n_points)
    norm_f = fft_scale * float(np.sqrt(np.sum(fc * fc)))
    norm_f2 = fft_scale * float(np.sqrt(np.sum((fc * fc) ** 2)))
    ucomps = offset_components(grid)
    annular = kind in ("nu0_tilde", "nu1_tilde")
    order_one = kind in ("nu1", "nu1_bar", "nu1_tilde")
    grad_fc = None
    if kind == "nu1_tilde":
        grad_fc = spectral_gradient(SampledField(grid=grid, values=fc.reshape(-1)))

    for r in radii:
        mask = annulus_mask(grid, r) if annular else ball_mask(grid, r)
        count = int(mask.sum())
        if count < 1:
            raise ValueError(f"empty window at radius {r}")
        if annular and count < 2 * grid.dim:
            raise ValueError(f"annulus at radius {r} has too few grid points")

        Fm = np.conj(np.fft.fftn(mask.astype(float)))
        S1 = np.fft.ifftn(Ff * Fm).real
        if kind in ("nu0", "nu1"):
            A = S1 / count
        elif kind in ("nu0_bar", "nu1_bar"):
            A = _mollified(fc, grid, r)
        else:
            A = fc

        B, T, V = None, (), ()
        if order_one:
            V = [float((uc ** 2 * mask).sum()) for uc in ucomps]
            T = [np.fft.ifftn(Ff * np.conj(np.fft.fftn(uc * mask))).real for uc in ucomps]
        if kind == "nu1":
            # The symmetric mask kills first moments, so the least-squares
            # slopes against centered offsets decouple per axis.
            B = [T_i / V_i for T_i, V_i in zip(T, V)]
        elif kind == "nu1_bar":
            smoothed = SampledField(grid=grid, values=A.reshape(-1))
            B = [g.shaped for g in spectral_gradient(smoothed)]
        elif kind == "nu1_tilde":
            moll = Mollifier(scale=r)
            B = [mollify(g, moll).shaped for g in grad_fc]

        S2 = np.fft.ifftn(Ff2 * Fm).real
        AS1 = A * S1
        cA2 = count * A * A
        q = S2 - 2.0 * AS1 + cA2
        size = np.abs(S2) + 2.0 * np.abs(AS1) + cA2
        delta = (norm_f2 + 2.0 * np.abs(A) * norm_f) * math.sqrt(count)
        for B_i, T_i, V_i in zip(B or (), T, V):
            BT, BBV = B_i * T_i, B_i * B_i * V_i
            q -= 2.0 * BT - BBV
            size += 2.0 * np.abs(BT) + BBV
            delta += 2.0 * np.abs(B_i) * norm_f * math.sqrt(V_i)
        delta += _SUM_C * _EPS * size
        yield r, mask, count, A, B, q, delta


def _direct_square_sums(grid, fc, A, B, mask, rows) -> np.ndarray:
    """Residual square sums at the flat indices `rows`, accumulated offset
    by offset in mask order with the arithmetic of the whole-grid pass.

    The sums come from field.offset_sums, in blocks of offsets.
    An offset with u_i = 0 subtracts B_i * 0, a signed zero, which at most
    flips the sign of a zero term before it is squared.
    """
    points = np.stack(np.unravel_index(rows, grid.shape), axis=1)
    A = A.reshape(-1)[rows]
    B = [b.reshape(-1)[rows] for b in B or ()]
    u = [uc[mask] for uc in offset_components(grid)]

    def squares(diff, offs):
        for B_i, u_i in zip(B, u):
            diff -= B_i * u_i[offs, None]
        return np.multiply(diff, diff, out=diff)

    return offset_sums(grid, fc, points, np.argwhere(mask), A, squares)


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
    radii = [f",{float(r)!r}," for r in matrix.ladder.radii]
    for ci, row in zip(lattice_centers(grid), matrix.values):
        prefix = ",".join(map(str, ci.tolist()))
        fh.write("".join(f"{prefix}{r}{v!r}\n" for r, v in zip(radii, row.tolist())))


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
        "fallback_counts": list(matrix.fallback_counts),
    }
