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
an a-priori bound on its rounding error.  The moments come in float first;
where the bound rejects many entries (near-exact competitors, where the
expansion cancels), the level's rejected entries are recomputed from exact
integer-slice correlations combined in double-double arithmetic, and the
entries that even that bound does not certify are recomputed by direct
accumulation over the window offsets.  The per-window operations are
independent direct computations that serve as reference oracles, and the
test suite checks the routes against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .field import (
    BallWindow,
    Grid,
    Mollifier,
    NumericError,
    SampledField,
    annulus_mask,
    ball_fft,
    ball_mask,
    flat_index,
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
# gamma_9 sum |term| < 10 eps sum |term| (Higham, Sec. 4.2).  The exact
# route's double-double combination obeys the same bound with eps^2 in
# place of eps: a product errs by at most 2 eps^2 of its operands'
# product and a sum by 0.75 eps^2 of its operands' magnitudes (Dekker,
# 1971), so the terms carry at most 4 eps^2 and the six additions at most
# 5.25 eps^2 of sum |term|.
_SUM_C = 10.0
# _TAU: the bound carried to nu must stay below tau max(1, nu).  The
# tightest comparisons between matrix entries are 1e-12 (orderings between
# kinds, shift invariance); tau = 1e-13 keeps each side of such a
# comparison a factor 10 inside it.
_TAU = 1e-13


def _fft_error(grid: Grid, a: np.ndarray, k: int) -> float:
    """_FFT_C eps log2(N) ||a||_2 2^k: the error of one entry of a
    correlation of the signal a 2^k on the grid, per unit 2-norm of the
    filter.  a is the signal in units of 2^k, which scales it exactly."""
    return _FFT_C * _EPS * math.log2(grid.n_points) * float(np.ldexp(np.sqrt(np.sum(a * a)), k))


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
    # per level, from coefficient_matrix: the count of entries recomputed
    # directly, the moment route ("float", "exact" or "constant") and the
    # smallest certified margin q / delta (None if no entry was certified)
    fallback_counts: tuple = ()
    routes: tuple = ()
    margins: tuple = ()

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
    mask = ball_mask(field.grid, window.radius)
    return window_values(field, window, mask=mask), masked_offsets(field.grid, mask)


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

    where S2 = corr(fc^2, M), S1 = corr(fc, M), T_i = corr(fc, u_i M) and
    V_i = sum u_i^2 M.  The first moments and the cross moments vanish
    because M is symmetric in each axis and radii stay below period/4.
    The competitors are the window means and least-squares slopes (nu0,
    nu1), the mollified value and its spectral gradient (_bar), and fc
    itself with the mollified gradient (_tilde).

    The expansion cancels where the residual is small against the field, so
    every entry carries an a-priori bound delta on its rounding error, and
    an entry is kept only if the bound it implies on nu stays below
    _TAU * max(1, nu).  Each level first takes the float route: FFT
    correlations of fc and fc^2, with delta the normwise FFT error plus
    the float sums (_FFT_C, _SUM_C).  Where that leaves more than
    _EXACT_COST direct-sum terms per grid point, the level's rejected
    entries take the exact route: integer slices of fc make S1, S2 and T_i
    exact correlations, and q is combined in double-double, so delta
    shrinks to O(eps^2) times the size of the terms (_ExactMoments).  Both
    routes use one expansion and one certificate (_level, _certify).  An
    entry that neither route certifies is recomputed by the direct
    per-offset accumulation, which keeps constant and affine data at
    roundoff.  Per level, ``fallback_counts`` counts those entries,
    ``routes`` names the route ("float", "exact", or "constant" for a
    constant field, where every entry is exactly 0), and ``margins`` holds
    the smallest max(q, 0) / delta over the entries a route certified
    (None if there is none); below 1, an entry whose residual lies within
    its bound was kept because the bound itself is small (see _certify).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    grid = field.grid
    make_ladder(grid, ladder.top_radius, ladder.levels)  # the ladder must fit this grid
    radii = ladder.radii

    # Every kind is invariant under adding a constant; centering first.
    fc = field.shaped - field.values.mean()
    out = np.zeros((grid.n_points, ladder.levels))
    fallback_counts = [0] * ladder.levels
    routes = ["constant"] * ladder.levels
    margins = [math.inf] * ladder.levels
    constant = fc.max() == fc.min()  # constant input: coefficients vanish exactly
    levels = () if constant else _moment_levels(fc, grid, radii, kind)
    peak = float(np.abs(fc).max())
    exact = None  # the field's slices, made for the first level that needs them
    for j, level in enumerate(levels):
        out[:, j], flagged = _certify(level, peak)
        margins[j] = _margin(level, ~flagged)
        routes[j] = "float"
        if np.count_nonzero(flagged) * level.count > _EXACT_COST * grid.n_points:
            exact = exact or _ExactMoments(fc, grid)
            exact_level = exact.level(level, kind)
            if exact_level is not None:
                routes[j] = "exact"
                nu, rejected = _certify(exact_level, peak)
                kept = flagged & ~rejected
                out[kept, j] = nu[kept]
                margins[j] = min(margins[j], _margin(exact_level, kept))
                flagged &= rejected
        rows = np.flatnonzero(flagged)
        fallback_counts[j] = int(rows.size)
        if rows.size:
            acc = _direct_square_sums(grid, fc, level.A, level.B, level.mask, rows)
            out[rows, j] = np.sqrt(acc / level.count) / level.r
    return CoefficientMatrix(grid=grid, ladder=ladder, kind=kind, values=out,
                             fallback_counts=tuple(fallback_counts), routes=tuple(routes),
                             margins=tuple(None if m == math.inf else m for m in margins))


class _Level(NamedTuple):
    """One ladder radius of the moment path: the window mask, its point
    count, the competitor fields A and B (B is empty at order zero), and the
    residual square sums q with their rounding bound delta, grid-shaped."""

    r: float
    mask: np.ndarray
    count: int
    A: np.ndarray
    B: list
    q: np.ndarray
    delta: np.ndarray


def _level(r, mask, count, moments, competitors, err1, err2, unit) -> _Level:
    """The expansion of q and its bound delta, from the moments (S1, S2, T,
    V) in float or in double-double: whichever the moments are, the same
    operations run in their arithmetic.  competitors is (A, B), or None for
    the optimal kinds, whose window mean and least-squares slopes come from
    the moments.  |S1 error| <= err1 sqrt(count), |T_i error| <= err1
    sqrt(V_i), |S2 error| <= err2 sqrt(count), and the combination of q
    errs by at most _SUM_C * unit times the sum of its terms' magnitudes."""
    S1, S2, T, V = moments
    if competitors is None:
        # The symmetric mask kills first moments, so the least-squares
        # slopes against centered offsets decouple per axis.
        A, B = S1 / count, [T_i / V_i for T_i, V_i in zip(T, V)]
    else:
        A, B = competitors
    AS1 = A * S1
    cA2 = count * A * A
    q = S2 - 2.0 * AS1 + cA2
    size = abs(S2) + 2.0 * abs(AS1) + cA2
    delta = (err2 + 2.0 * abs(A) * err1) * math.sqrt(count)
    for B_i, T_i, V_i in zip(B, T, V):
        BT, BBV = B_i * T_i, B_i * B_i * V_i
        q = q - (2.0 * BT - BBV)
        size = size + (2.0 * abs(BT) + BBV)
        delta = delta + 2.0 * abs(B_i) * err1 * math.sqrt(V_i)
    delta = delta + _SUM_C * unit * size
    return _Level(r, mask, count, A, B, np.asarray(q), np.asarray(delta))


def _certify(level: _Level, peak: float):
    """nu = sqrt(q / count) / r at every center (flat), and the mask of the
    entries whose implied error on nu exceeds _TAU * max(1, nu).  Where q >
    delta that error is delta / (2 r^2 count nu).  Where q <= delta the true
    nu lies in [0, sqrt(2 delta / count) / r]; such an entry is kept only if
    that bound also pins its RMS residual sqrt(2 delta / count) to _TAU of
    the field's peak |fc|.  The float route's delta holds at least
    8 eps log2(N) peak^2 sqrt(count), far above that: on the float route
    every entry with q <= delta is rejected, and only exact moments keep
    such an entry."""
    r, count, q, delta = level.r, level.count, level.q.reshape(-1), level.delta.reshape(-1)
    nu = np.sqrt(np.maximum(q, 0.0) / count) / r
    scale = np.maximum(1.0, nu)
    low = 2.0 * delta > count * (_TAU * np.minimum(r * scale, peak)) ** 2
    flagged = np.where(q > delta, delta > 2.0 * _TAU * r * r * count * nu * scale, low)
    return nu, flagged


def _margin(level: _Level, kept) -> float:
    """The smallest max(q, 0) / delta over the entries of a level that the
    flat mask kept selects, inf if there is none; a bound that underflowed
    to 0 leaves an exact entry, of infinite margin."""
    q, delta = level.q.reshape(-1), level.delta.reshape(-1)
    ratio = np.divide(q, delta, out=np.full_like(q, math.inf), where=kept & (delta > 0.0))
    return max(0.0, float(ratio.min()))


def _moment_levels(fc: np.ndarray, grid: Grid, radii, kind: str):
    """The float route's _Level per ladder radius r: the moments are FFT
    correlations of fc and fc^2 in float.  The caller works on each level
    while this frame is suspended, so the frame keeps no large temporary:
    the moments are real copies, and the rest is dropped before the yield."""
    Ff = np.fft.fftn(fc)
    Ff2 = np.fft.fftn(fc * fc)
    # the FFT error scales of fc and fc^2, from fc in units of 2^k with
    # max|fc| < 2^k, so that ||fc^2||_2 is finite wherever fc^2 is
    k = math.frexp(float(np.abs(fc).max()))[1]
    fs = np.ldexp(fc, -k)
    norm_f, norm_f2 = _fft_error(grid, fs, k), _fft_error(grid, fs * fs, 2 * k)
    del fs
    ucomps = offset_components(grid)
    annular = kind in ("nu0_tilde", "nu1_tilde")
    order_one = kind in ("nu1", "nu1_bar", "nu1_tilde")
    grad_fc = None
    if kind == "nu1_tilde":
        grad_fc = spectral_gradient(SampledField(grid=grid, values=fc.reshape(-1)))

    for r in radii:
        mask = annulus_mask(grid, r) if annular else ball_mask(grid, r)
        count = int(mask.sum())

        Fm = np.conj(np.fft.fftn(mask.astype(float)) if annular else ball_fft(grid, r))
        S1 = np.fft.ifftn(Ff * Fm).real.copy()
        S2 = np.fft.ifftn(Ff2 * Fm).real.copy()
        del Fm
        T, V = (), ()
        if order_one:
            V = [float((uc ** 2 * mask).sum()) for uc in ucomps]
            T = [np.fft.ifftn(Ff * np.conj(np.fft.fftn(uc * mask))).real.copy() for uc in ucomps]
        competitors = None  # nu0, nu1: from the moments
        if kind in ("nu0_bar", "nu1_bar"):
            A = mollify(SampledField(grid=grid, values=fc.reshape(-1)), Mollifier(scale=r)).shaped
            smoothed = SampledField(grid=grid, values=A.reshape(-1))
            competitors = A, [g.shaped for g in spectral_gradient(smoothed)] if order_one else []
        elif annular:
            moll = Mollifier(scale=r)
            competitors = fc, [mollify(g, moll).shaped for g in grad_fc] if order_one else []
        level = _level(r, mask, count, (S1, S2, T, V), competitors, norm_f, norm_f2, _EPS)
        del S1, S2, T  # the level keeps none of them
        yield level


# The exact route (Ozaki, Ogita, Oishi and Rump, "Error-free
# transformations of matrix multiplication by using fast routines of matrix
# multiplication and its applications", Numer. Algorithms 59, 2012): fc is
# split into _SLICES integer arrays s_k with |s_k| <= 2^12,
# fc = sum_k s_k 2^(e_k) + rest with e_k 13 apart, by np.round and exact
# power-of-two scaling, and |rest| <= 2^-64 max|fc|.  fc^2 is then the sum
# of the 2K - 1 products P_m = sum_(k+l=m) s_k s_l 2^(e_k + e_l), with
# |P_m| <= 5 2^24 in integer units.  A correlation of an integer array with
# the 0/1 mask, or with the integer offsets (in index units) times the mask,
# is an integer, and _FFT_C bounds the FFT's error on it; where that bound
# stays below 1/2, rounding the FFT's output gives the integer exactly.
_SLICES = 5
_SLICE_BITS = 13
# _SPLIT: Dekker's splitter 2^27 + 1 cuts a double into two halves whose
# products are exact.
_SPLIT = 2.0**27 + 1.0
# _EXACT_COST: a level takes the exact route when its rejected entries
# times the window's point count, the terms the direct sum would add,
# exceed this many per grid point.  Measured with one BLAS thread on a
# 2-core host, nu0 and nu1 on smooth_bump, an exact level took 0.8-1.9 ms
# at 1-d n=2048 and 6.5-22 ms at 2-d n=128, and the direct sum over every
# row 1.8-9.4 ns per term: an exact level costs what 70-350 direct terms
# per grid point cost, about 200 at the large windows.  Over fewer rows
# the direct sum reads more slowly per term.  In-process A/B runs of the
# band-1d and reports-2d matrices and of a 2-d n=128 smooth_bump set took
# the same time at 100, 150 and 200 to within the host's noise; at 40,
# reports-2d's bottom level (45 points) took the exact route and its
# matrices ran 1.6-1.9 times as long.
_EXACT_COST = 150


def _two_sum(a, b):
    """s = fl(a + b) and the exact error a + b - s (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a, b):
    """p = fl(a b) and the exact error a b - p (Dekker)."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    c = _SPLIT * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class _DD:
    """Arrays of double-double numbers hi + lo (Dekker, "A floating-point
    technique for extending the available precision", Numer. Math. 18,
    1971), with the +, -, *, / and abs that _level applies.  Each operation
    errs by at most a few eps^2 of its operands' magnitudes; abs gives the
    float |hi|, which is all a rounding bound needs."""

    __array_ufunc__ = None  # ndarray <op> _DD defers to _DD

    def __init__(self, hi, lo=0.0):
        self.hi, self.lo = hi, lo

    @staticmethod
    def _sum(s, e):
        hi = s + e
        return _DD(hi, e - (hi - s))

    def __add__(self, other):
        if isinstance(other, _DD):
            s, e = _two_sum(self.hi, other.hi)
            return _DD._sum(s, e + (self.lo + other.lo))
        s, e = _two_sum(self.hi, other)
        return _DD._sum(s, e + self.lo)

    __radd__ = __add__

    def __neg__(self):
        return _DD(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, float) and math.frexp(other)[0] == 0.5:
            return _DD(self.hi * other, self.lo * other)  # a power of two scales exactly
        if isinstance(other, _DD):
            p, e = _two_prod(self.hi, other.hi)
            return _DD._sum(p, e + (self.hi * other.lo + self.lo * other.hi))
        p, e = _two_prod(self.hi, other)
        return _DD._sum(p, e + self.lo * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, _DD) else _DD(other)
        q1 = self.hi / other.hi
        r = self - other * q1
        return _DD._sum(q1, r.hi / other.hi)

    def __abs__(self):
        return np.abs(self.hi)

    def __float__(self):
        return float(self.hi)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.hi, dtype=dtype)


class _ExactMoments:
    """The slices of a centered field fc (see _SLICES) and their
    transforms, from which level() gives the exact route at a ladder
    radius."""

    def __init__(self, fc: np.ndarray, grid: Grid):
        self.grid = grid
        self.axes = tuple(range(1, grid.dim + 1))
        peak = float(np.abs(fc).max())
        top = math.frexp(peak)[1]  # max |fc| < 2^top
        # far from the ends of the float range, every slice product and
        # double-double part stays a normal float
        self.usable = -400 < top < 400
        rest = np.ldexp(fc, -top)
        slices = []
        for k in range(_SLICES):
            shift = _SLICE_BITS * (k + 1) - 1
            s = np.round(np.ldexp(rest, shift))
            rest -= np.ldexp(s, -shift)
            slices.append(s)
        self.e1 = [top - _SLICE_BITS * (k + 1) + 1 for k in range(_SLICES)]
        self.e2 = [2 * top - _SLICE_BITS * (m + 2) + 2 for m in range(2 * _SLICES - 1)]
        products = [sum(slices[k] * slices[m - k]
                        for k in range(max(0, m - _SLICES + 1), min(m, _SLICES - 1) + 1))
                    for m in range(2 * _SLICES - 1)]
        self.F1 = np.fft.rfftn(np.stack(slices), axes=self.axes)
        self.F2 = np.fft.rfftn(np.stack(products), axes=self.axes)
        # rounding bounds: FFT error per unit filter norm, on the slices and
        # on the products
        self.round1 = max(_fft_error(grid, s, 0) for s in slices)
        self.round2 = max(_fft_error(grid, p, 0) for p in products)
        # sum_k |s_k| 2^(e_k) <= |fc| + 2^(top - 12) (1 + 2^-12) = m1 at most
        self.m1 = peak + math.ldexp(1.0 + 2.0**-12, top - 12)
        self.rest = math.ldexp(float(np.abs(rest).max()), top)  # max |fc - sliced|
        self.h = grid.spacing
        self.index = [np.rint(uc / self.h) for uc in offset_components(grid)]

    def _correlations(self, F, Fw, e) -> list:
        """Per filter w, the double-double sum over the slices of 2^(e_k)
        corr(slice_k, w), each correlation rounded to its integer; the
        rows of Fw are the filters' conjugate transforms."""
        axes = tuple(a + 1 for a in self.axes)
        C = np.round(np.fft.irfftn(F[None] * Fw[:, None], s=self.grid.shape, axes=axes))
        if np.abs(C).max() * (2.0**_SLICE_BITS + 1.0) < 2.0**53:
            # neighbouring slices are 2^13 apart, so C_k 2^13 + C_(k+1) is
            # an exact integer: merging pairs halves the additions below
            tail = len(e) - len(e) % 2
            C = np.concatenate([C[:, :tail:2] * 2.0**_SLICE_BITS + C[:, 1:tail:2], C[:, tail:]],
                               axis=1)
            e = e[1:tail:2] + e[tail:]
        total = _DD(np.ldexp(C[:, 0], e[0]))
        for k in range(1, len(e)):
            total = total + np.ldexp(C[:, k], e[k])
        return [_DD(hi, lo) for hi, lo in zip(total.hi, total.lo)]

    def level(self, level: _Level, kind: str):
        """The float-route level with the exact route's q and delta, or None
        where the FFT bound cannot certify the rounding of the integer
        correlations."""
        w = level.mask.astype(float)
        filters = np.stack([w] + [u * w for u, _ in zip(self.index, level.B)])
        norms = np.sqrt(np.sum(filters * filters, axis=self.axes))  # ||filter||_2
        if not self.usable or max(self.round1 * norms.max(), self.round2 * norms[0]) >= 0.5:
            return None
        Fw = np.conj(np.fft.rfftn(filters, axes=self.axes))
        S1, *T = self._correlations(self.F1, Fw, self.e1)
        S2, = self._correlations(self.F2, Fw[:1], self.e2)
        h, count = self.h, level.count
        T = [T_i * h for T_i in T]
        V = [_DD(float(np.sum(u * x))) * h * h for u, x in zip(self.index, filters[1:])]
        competitors = None
        if kind not in ("nu0", "nu1"):
            # in double-double too, so that count A^2 and B_i^2 V_i are
            # formed without rounding
            competitors = _DD(level.A), [_DD(b) for b in level.B]
        # The combination of the slices errs by at most 2K eps^2 of the sum
        # of the slice terms' magnitudes: count m1 for S1 (sqrt(count V_i)
        # m1 for T_i) and count m1^2 for S2.
        g = 2 * _SLICES * _EPS**2 * math.sqrt(count)
        with np.errstate(over="ignore", invalid="ignore"):
            ex = _level(level.r, level.mask, count, (S1, S2, T, V), competitors,
                        g * self.m1, g * self.m1 * self.m1, _EPS**2)
            # q is rounded to a double.  The moments are those of the sliced
            # field, whose RMS residual on a window lies within rho of fc's:
            # rest, plus the slopes times the rounding of u = j h when h is
            # not a power of two.
            rho = self.rest + sum(_EPS * abs(B_i) * math.sqrt(float(V_i) / count)
                                  for B_i, V_i in zip(ex.B, V))
            delta = (ex.delta + _EPS * np.abs(ex.q)
                     + 2.0 * np.sqrt(np.maximum(ex.q, 0.0) * count) * rho + count * rho * rho)
            # a result that left the float range is not certified
            finite = np.isfinite(ex.q) & np.isfinite(delta)
        return level._replace(q=np.where(finite, ex.q, 0.0), delta=np.where(finite, delta, math.inf))


def _direct_square_sums(grid, fc, A, B, mask, rows) -> np.ndarray:
    """Residual square sums at the flat indices `rows`, accumulated offset
    by offset in mask order with the arithmetic of the whole-grid pass.

    The sums come from field.offset_sums, in blocks of offsets.
    An offset with u_i = 0 subtracts B_i * 0, a signed zero, which at most
    flips the sign of a zero term before it is squared.
    """
    points = np.stack(np.unravel_index(rows, grid.shape), axis=1)
    A = A.reshape(-1)[rows]
    B = [b.reshape(-1)[rows] for b in B]
    u = [uc[mask] for uc in offset_components(grid)]

    def squares(diff, offs):
        for B_i, u_i in zip(B, u):
            diff -= B_i * u_i[offs, None]
        return np.multiply(diff, diff, out=diff)

    return offset_sums(grid, fc, points, np.argwhere(mask), A, squares)


# ---------------------------------------------------------------------------
# serialization


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
        "routes": list(matrix.routes),
        "margins": list(matrix.margins),
    }
