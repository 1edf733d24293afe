"""Mean oscillation, Hölder seminorms and difference functionals.

The BMO norm is the L1 mean oscillation, maximized over a declared finite
family of balls; like every supremum here it is reported as a lower bound
of the continuum value.  bmo_norm evaluates every window; bmo_sup returns
the same norm and argmax from only the windows that an upper bound on
their values, the RMS deviation from the moment route of
coefficient_matrix, cannot rule out, where the family is large enough for
the bound to pay.  The difference functionals take a family of
axis-aligned periodic cubes and aggregate first or second differences with
the weight |y|^(-d-2*alpha) in the offset y (the offset form is the one
implemented; reports note it).  The y = 0 diagonal is excluded, and the
second-difference sum only uses offsets with both x+y and x-y inside the
cube so that locally affine data cancels exactly on interior cubes.

A cube on which the field is constant sums to exactly 0 and is not
summed.  A first-difference sum takes its near offsets from the offset
table and the rest as one FFT quadratic form per cube, with an a-priori
bound on its rounding error; a cube the bound does not certify, and every
other second-difference cube, is summed directly over the whole offset
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import _EPS, _fft_error, _level
from .field import (
    INTEGRAL_CENTER, BallWindow, Grid, SampledField, WindowFamily, ball_fft, ball_mask,
    flat_index, lattice_centers, offset_distance, offset_reads, offset_sums, window_argmax,
    window_family, window_rows,
)
from .spectral import check_alpha

__all__ = [
    "OscillationReport",
    "StrichartzReport",
    "CubeSpec",
    "make_ball_family",
    "make_cube_family",
    "bmo_norm",
    "bmo_sup",
    "holder_seminorm",
    "strichartz_first",
    "strichartz_second",
]


@dataclass(frozen=True)
class OscillationReport:
    centers: np.ndarray  # (m, dim) ball centers, by radius then input order
    sizes: np.ndarray    # (m,) radii
    values: np.ndarray   # (m,) mean oscillations
    norm: float          # max over the family; lower bound of the sup
    metadata: dict

    @property
    def per_window(self) -> list:
        """Rows (center tuple, radius, mean oscillation)."""
        return list(window_rows(self.centers, self.sizes, self.values))


@dataclass(frozen=True)
class CubeSpec:
    """Axis-aligned periodic cube: grid-point center plus side length."""

    center: tuple
    side: float

    # The rules a cube passes, in the order they are checked; as BallWindow.RULES.
    RULES = (
        (lambda g, k, c, s: k != g.dim,
         lambda g, c, s: "cube center rank does not match grid dim"),
        INTEGRAL_CENTER,
        (lambda g, k, c, s: ~np.isfinite(s),
         lambda g, c, s: f"cube side {s} is not finite"),
        (lambda g, k, c, s: s > g.period / 2.0 + 1e-12 * g.period,
         lambda g, c, s: f"cube side {s} exceeds period/2 (aliasing)"),
        (lambda g, k, c, s: s < 4.0 * g.spacing - 1e-12 * g.spacing,
         lambda g, c, s: f"cube side {s} below 4h"),
        (lambda g, k, c, s: np.abs(s / g.spacing - 2 * np.round(s / g.spacing / 2)) > 1e-9,
         lambda g, c, s: "cube side must be an even multiple of the spacing"),
    )

    def validate(self, grid: Grid) -> None:
        window_family(grid, [self], CubeSpec)

    size = property(lambda self: self.side)

    def points_per_axis(self, grid: Grid) -> int:
        return int(round(self.side / grid.spacing))


@dataclass(frozen=True)
class StrichartzReport:
    alpha: float
    order: str              # "first_difference" or "second_difference"
    centers: np.ndarray     # (m, dim) cube centers, in input order
    sizes: np.ndarray       # (m,) sides
    values: np.ndarray      # (m,) normalized difference sums
    B: float                # max over the family
    metadata: dict

    @property
    def per_cube(self) -> list:
        """Rows (center tuple, side, value)."""
        return list(window_rows(self.centers, self.sizes, self.values))


def make_ball_family(grid: Grid, radii, stride: int = 1) -> WindowFamily:
    """Balls at strided grid centers, one window per (center, radius)."""
    return WindowFamily.on_lattice(grid, radii, stride)


def make_cube_family(grid: Grid, sides=None, stride: int = None) -> WindowFamily:
    """Cubes at strided centers over dyadic sides (period/2 downward)."""
    if sides is None:  # period/2, period/4, ... down to 4h
        sides = [grid.period / 2.0**k for k in range(1, grid.n_per_axis.bit_length() - 2)]
    if stride is None:
        stride = max(1, grid.n_per_axis // 8)
    return WindowFamily.on_lattice(grid, sides, stride)


def bmo_norm(field: SampledField, windows) -> OscillationReport:
    """Mean |f - ball average| per window (a WindowFamily or a sequence of
    BallWindow), in rows by ascending radius, then input order; norm is the
    family maximum."""
    if windows is None or len(windows) == 0:
        raise ValueError("empty window family")
    grid = field.grid
    family = window_family(grid, windows, BallWindow)
    order = np.argsort(family.sizes, kind="stable")
    centers, radii = family.centers[order], family.sizes[order]
    values = np.full(len(radii), np.nan)  # a NaN radius matches no row below
    Ff = np.fft.fftn(field.shaped)
    # Group by radius: one walk over the ball offsets serves every center
    # of that radius.
    for radius in np.unique(radii):
        rows = np.flatnonzero(radii == radius)
        mask = ball_mask(grid, radius)
        count = int(mask.sum())
        Fm = np.conj(ball_fft(grid, radius))
        mean = np.fft.ifftn(Ff * Fm).real.reshape(-1)[flat_index(grid, centers[rows])] / count
        acc = offset_sums(grid, field.shaped, centers[rows], np.argwhere(mask), mean,
                          lambda diff, _: np.abs(diff, out=diff))
        values[rows] = acc / count
    meta = {"oscillation": "L1 mean oscillation", "sup_lower_bound": True,
            "argmax": window_argmax(centers, radii, values)}
    return OscillationReport(centers, radii, values, norm=float(values.max()), metadata=meta)


# _BOUND_COST: bmo_sup bounds its windows first only when the family's
# direct terms, the point counts of its balls summed over the windows,
# exceed this many per grid point; on fewer, the bound's transforms cost
# more than they save.  Measured with one BLAS thread on a 2-core host,
# default ladder, bmo_sup with the bound against bmo_norm, best of 5: 2-d
# n=128 riesz_of_noise derivatives took 1.10-1.30 times as long at stride
# 8 (66 terms per point), 0.61-0.91 at stride 4 (265) and 0.29-0.31 at
# stride 2; 2-d n=64 cusp(0.7) 1.18-1.33 at stride 4 (64), 0.67-0.96 at
# stride 2 (258) and 0.35-0.56 at stride 1 (1,031); 1-d n=2048 cusp(0.7)
# 0.77-1.03 at 32-127 terms and 0.54-0.90 at 254-508.
_BOUND_COST = 200


def bmo_sup(field: SampledField, windows) -> tuple:
    """(norm, argmax) of bmo_norm(field, windows), equal to its norm and
    metadata["argmax"], from the windows that a bound cannot rule out.

    By Cauchy-Schwarz a ball's mean |f - c| is at most its RMS deviation
    from c, and the float moment route of coefficient_matrix gives that
    deviation about the ball mean at every center, with a rounding bound
    (coeffs._level).  _unruled_windows adds to it bmo_norm's own FFT-mean
    error and the rounding of its sequential sums, so every window gets an
    upper bound on the value bmo_norm would compute for it.  The window of
    largest bound of each radius is evaluated directly, and the largest of
    those values, less its own rounding and mean error, is a value that
    bmo_norm reaches.  bmo_norm then runs once, in input order, on the
    windows whose bound is not strictly below it: the first window that
    attains the maximum is among them, so the norm and argmax are those
    of the whole family, bit for bit, since each value is its anchor's
    sequential sum whatever the other anchors are.  A radius that keeps a
    quarter of its windows or more is evaluated whole, so that a lattice
    family keeps the lattice read of field.offset_reads.
    """
    if windows is None or len(windows) == 0:
        raise ValueError("empty window family")
    family = window_family(field.grid, windows, BallWindow)
    keep = _unruled_windows(field, family)
    if keep is not None:
        windows = WindowFamily(family.centers[keep], family.sizes[keep])
    report = bmo_norm(field, windows)
    return report.norm, report.metadata["argmax"]


def _unruled_windows(field: SampledField, family: WindowFamily):
    """The (m,) mask of the windows whose bound reaches the lower bound of
    bmo_sup, or None where the bound does not run: a constant field, a
    family of fewer than _BOUND_COST direct terms per grid point, or a
    field large enough that bmo_norm's transforms could overflow."""
    grid = field.grid
    n_points = grid.n_points
    # the sizes passed BallWindow.RULES, so they are finite: a binary
    # search finds each one's radius, at half the cost of an argsort
    radii = np.unique(family.sizes)
    inverse = np.searchsorted(radii, family.sizes)
    masks = np.stack([ball_mask(grid, r) for r in radii.tolist()])
    counts = masks.reshape(len(radii), -1).sum(axis=1)
    fc = field.shaped - field.values.mean()
    # bmo_norm's transforms and sums stay below max|f| N^2 count
    size = float(np.abs(field.values).max()) * n_points * n_points * float(counts.max())
    if (counts[inverse].sum() < _BOUND_COST * n_points or fc.max() == fc.min()
            or not size < 2.0**1000):
        return None
    with np.errstate(all="ignore"):
        # In units of 2^k, with max|fc| < 2^k: a power of two scales every
        # operation below and in bmo_norm exactly, the squares keep their
        # precision on every field, and what underflow loses stays far
        # below the eps terms of the bounds.
        k = math.frexp(float(np.abs(fc).max()))[1]
        fs, gs = np.ldexp(fc, -k), np.ldexp(field.shaped, -k)
        axes = tuple(range(1, grid.dim + 1))
        # the masks' half-spectra, in the layout of rfftn
        half = grid.n_per_axis // 2 + 1
        Fm = np.conj(np.stack([ball_fft(grid, r)[..., :half] for r in radii.tolist()]))
        Ff = np.fft.rfftn(np.stack([fs, fs * fs]), axes=axes)
        S1, S2 = (np.fft.irfftn(F * Fm, s=grid.shape, axes=axes) for F in Ff)
        err1, err2 = _fft_error(grid, fs, 0), _fft_error(grid, fs * fs, 0)
        # |bmo_norm's ball mean - the exact one|: its transforms' error,
        # as in _level, and the division
        peak = float(np.abs(gs).max())
        mean_err = _fft_error(grid, gs, 0) / np.sqrt(counts) + 2.0 * _EPS * peak
        bound, lower = np.empty(len(family)), -math.inf
        for j, r in enumerate(radii.tolist()):
            rows = np.flatnonzero(inverse == j)
            count = int(counts[j])
            level = _level(r, masks[j], count, (S1[j], S2[j], (), ()), None, err1, err2, _EPS)
            at = flat_index(grid, family.centers[rows])
            q = level.q.reshape(-1)[at] + level.delta.reshape(-1)[at]
            # bmo_norm's value is its terms' sum, within (1 + gamma) of
            # mean |f - its mean| <= RMS deviation from it <= the RMS
            # deviation of fs (q + delta), plus fc's rounding (below eps
            # of max|fs| < 1), plus its mean's error; gamma also covers
            # the few roundings of this line and of the lower bound's
            gamma = (count + 16) * _EPS
            bound[rows] = (1.0 + gamma) * (np.sqrt(np.maximum(q, 0.0) / count) + _EPS
                                           + mean_err[j])
            # the window of largest bound, evaluated directly about its
            # pairwise mean; bmo_norm's value differs from that by at most
            # the two means' errors and both sums' rounding
            best = family.centers[rows[np.argmax(bound[rows])]]
            points = (best + np.argwhere(masks[j])) % grid.n_per_axis
            vals = gs[tuple(points.T)]
            top = float(np.abs(vals).max())
            direct = float(np.abs(vals - vals.sum() / count).sum()) / count
            reached = (1.0 - gamma) * (direct * (1.0 - 2.0 * gamma)
                                       - (count + 2) * _EPS * top - mean_err[j])
            lower = max(lower, float(reached))
        keep = ~(bound < lower)  # a NaN bound keeps its window
    whole = 4 * np.bincount(inverse, weights=keep) >= np.bincount(inverse)
    return keep | whole[inverse]


def holder_seminorm(field: SampledField, alpha: float, stride: int = 1) -> float:
    """max |f(x) - f(y)| / dist(x, y)^alpha over tested pairs.

    Every stride-th anchor x per axis (stride a positive integer) is paired
    with y = x + o for every nonzero integer offset o with |o| h <=
    period/4; the result is a lower bound of the continuum seminorm.
    """
    check_alpha(alpha, 1.0, closed=True)
    grid = field.grid
    dist = offset_distance(grid)
    tested = (dist > 0) & (dist <= grid.period / 4.0)
    offsets = np.argwhere(tested)
    weights = dist[tested] ** alpha
    anchors = lattice_centers(grid, stride)
    base = field.values[flat_index(grid, anchors)]
    best, lo = 0.0, 0
    for block in offset_reads(grid, field.shaped, anchors, offsets):
        top = np.abs(np.subtract(block, base, out=block), out=block).max(axis=1)
        best = max(best, float((top / weights[lo:lo + len(block)]).max()))
        lo += len(block)
    return best


# Per order: the points each difference reads, as multiples k of the
# offset o (x + k o), and the difference of those reads.
_ORDERS = {
    "first_difference": ((1, 0), lambda plus, x: plus - x),
    "second_difference": ((0, 1, -1), lambda x, plus, minus: 2.0 * x - plus - minus),
}


def _offset_table(m: int, dim: int, order: str) -> np.ndarray:
    """The (r, dim) integer offsets of a difference sum over cubes of m
    points per axis, in lexicographic order: every o whose first nonzero
    entry is positive (the mirrored offset doubles in the sum) and whose
    read points x + k o all lie in the cube for some x."""
    steps = _ORDERS[order][0]
    full = (m - 1) // (max(steps) - min(steps))
    offsets = np.indices((2 * full + 1,) * dim).reshape(dim, -1).T - full
    # in lexicographic order 0 is the middle row, and the rows after it are
    # those whose first nonzero entry is positive
    return offsets[len(offsets) // 2 + 1:]


# _STACK_POINTS: grid values per cube stack.  2**20 values (8 MB) hold a
# default 2-d family (64 cubes) in one stack per side up to n=256, while a
# large family, such as one at stride 1, is cut into several stacks.
_STACK_POINTS = 2**20
# _FFT_VALUES: padded values per batch of first-difference transforms.  A
# batch holds its zero-padded cubes, their spectra and the inverse
# transforms at once; 2**14 values keep that near the size of one stack.
_FFT_VALUES = 2**14
# _NEAR_REACH: a first-difference sum takes the offsets with every
# |o_a| <= 2 (12 rows of the 2-d offset table, 2 in 1-d) from the direct
# sum and only the rest from the FFT.  The near offsets carry the largest
# weights and most of the cancellation, so leaving them out of K shrinks
# ||K||_2, which sets the rounding bound.  On 2-d n=256 cusp(0.7), alpha =
# 0.5, with the default cubes: reach 0 (the whole K) left 86 of 384 cubes
# to the direct sum (23 s), reach 1 left 13 (6.1 s), reach 2 none (0.21 s).
_NEAR_REACH = 2

# Rounding bound of the first-difference quadratic form.
# _FORM_FFT_C: the far part 2 (A - B) of a cube's sum takes transforms of
# N = (2m)^d points: of K, of v and the inverse one of their product for
# B, three more for W = K*1_Q.  A radix-2 transform errs by at most
# log2(N) 6.7 eps in the 2-norm (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., Thm. 24.2; see coeffs._FFT_C).  Carried
# through the convolution and by Cauchy-Schwarz to 2 sum v (K*v), that is
# at most c eps log2(N) ||K||_1 sum v^2 with c < 50 (||K||_1 = K^(0) is
# the convolution's operator norm, as K >= 0).  The bound takes ||K||_2
# instead, the size of the error when each spectrum's rounding errors
# spread evenly over its frequencies, and c = 16, as the errors of the
# transforms add like independent variables; W's error is taken to be of
# the same size.  This is an estimate, not a proof: against exact rational
# and extended-precision sums the observed error stays below 5% of it
# (tests/test_bmo.py::test_first_difference_form_error_within_its_bound).
_FORM_FFT_C = 16.0
# _FORM_SUM_C: the products v^2 W and v (K*v), their pairwise sums over a
# cube of m^d <= 2^20 points, A - B, and the near part's at most 12
# pairwise-summed rows of positive terms, added by one correctly rounded
# fsum: gamma_40 (sum v^2 W + sum |v (K*v)| + near) bounds them (Higham,
# Sec. 4.2).
_FORM_SUM_C = 40.0
# _FORM_TAU: a cube's value sqrt(c sum) errs by about delta / (2 sum)
# relative, and a cube is certified when that stays below tau.  The tests
# compare values at rel 1e-12 (with all-pairs sums and the direct route);
# tau = 1e-13 keeps each comparison a factor 10 inside that.
_FORM_TAU = 1e-13


def _first_difference_form(m: int, d: int, h: float, expo: float):
    """The far first-difference kernel of cubes of m points per axis on the
    zero-padded (2m)^d torus: K(o) = |o h|^(-expo) for
    _NEAR_REACH < max |o_a| < m, else 0.  Returns (rfftn of K,
    W = K*1_Q on the cube, ||K||_2)."""
    o = np.arange(2 * m)
    o = np.where(o < m, o, o - 2 * m)  # index m is offset -m, outside every cube
    grids = np.meshgrid(*(o,) * d, indexing="ij")
    reach = np.max(np.abs(grids), axis=0)
    far = (reach > _NEAR_REACH) & (reach < m)
    K = np.zeros(reach.shape)
    # h^(-expo) as a Python float raises OverflowError, as the direct
    # route's weights do
    K[far] = h ** (-expo) * sum(g * g for g in grids)[far] ** (-expo / 2.0)
    Kf = np.fft.rfftn(K)
    box = np.zeros(reach.shape)
    cube = (slice(0, m),) * d
    box[cube] = 1.0
    W = np.fft.irfftn(Kf * np.fft.rfftn(box), s=reach.shape, axes=tuple(range(d)))[cube]
    return Kf, W, math.sqrt(float(np.sum(K * K)))


def _first_difference_fft(values: np.ndarray, form, near, h: float, expo: float) -> tuple:
    """First-difference sums of a (k, m, ..., m) stack, and the a-priori
    bound on each sum's rounding error.

    The near offsets (near, the rows of the offset table up to
    _NEAR_REACH) are summed directly.  The far ones form one quadratic
    form per cube: with v the cube's values minus their mean, the sum over
    ordered pairs x != y of K(y - x) (v(y) - v(x))^2 is 2 (A - B),
    A = sum v^2 W and B = sum v (K*v), and K*v is one zero-padded FFT
    convolution.  Each cube's transforms and sums run on that cube alone,
    so its sum does not depend on the stack.
    """
    Kf, W, knorm = form
    k, d, m = len(values), values.ndim - 1, values.shape[1]
    padded, axes = (2 * m,) * d, tuple(range(1, d + 1))
    scale = _FORM_FFT_C * _EPS * d * math.log2(2 * m) * knorm
    near = _stack_totals(values, near, h, expo, "first_difference")
    totals, delta = np.empty(k), np.empty(k)
    step = max(1, _FFT_VALUES // (2 * m) ** d)
    for lo in range(0, k, step):
        flat = values[lo:lo + step].reshape(-1, m**d)
        v = flat - flat.mean(axis=1, keepdims=True)
        spec = np.fft.rfftn(v.reshape((-1,) + values.shape[1:]), s=padded, axes=axes)
        conv = np.fft.irfftn(spec * Kf, s=padded, axes=axes)[(slice(None),) + (slice(0, m),) * d]
        v2, vk = v * v, v * conv.reshape(v.shape)
        A, B = (v2 * W.reshape(-1)).sum(axis=1), vk.sum(axis=1)
        inner = near[lo:lo + step]
        bound = scale * v2.sum(axis=1) + _FORM_SUM_C * _EPS * (A + np.abs(vk).sum(axis=1) + inner)
        totals[lo:lo + step] = inner + 2.0 * (A - B)
        delta[lo:lo + step] = bound
    return totals, delta


def _stack_totals(v: np.ndarray, offsets: np.ndarray, h: float, expo: float,
                  order: str) -> np.ndarray:
    """Difference sum of each cube of a (k, m, ..., m) stack over the rows
    of an offset table.  Row o weighs |o h|^(-expo) and reads the points
    x + k o, with x running over the points that keep every read point in
    the cube.  Each row's block of a cube is summed on its own, in numpy's
    pairwise order, and a cube's row sums are added by one correctly
    rounded math.fsum, so every total equals that of a one-cube stack."""
    steps, difference = _ORDERS[order]
    k, m = len(v), v.shape[1]
    # the weights come first, so one that overflows raises on any stack,
    # an empty one included
    weights = [math.hypot(*[o * h for o in off]) ** (-expo) for off in offsets.tolist()]
    if k == 0:
        return np.zeros(0)
    rows = []
    for off, w in zip(offsets.tolist(), weights):
        lo = [max(-s * o for s in steps) for o in off]
        hi = [m - max(s * o for s in steps) for o in off]
        reads = (v[(slice(None), *[slice(a + s * o, b + s * o) for a, b, o in zip(lo, hi, off)])]
                 for s in steps)
        rows.append(2.0 * w * (difference(*reads) ** 2).reshape(k, -1).sum(axis=1))
    return np.array([math.fsum(cube) for cube in np.reshape(rows, (-1, k)).T.tolist()])


def _strichartz(field, alpha, cubes, order: str, alpha_hi: float) -> StrichartzReport:
    check_alpha(alpha, alpha_hi)
    if cubes is None or len(cubes) == 0:
        raise ValueError("empty cube family")
    grid = field.grid
    d, h = grid.dim, grid.spacing
    expo = d + 2.0 * alpha
    family = window_family(grid, cubes, CubeSpec)
    points = np.round(family.sizes / h).astype(int)  # points per axis of each cube
    totals = np.empty(len(family))
    fallback_counts = {}
    # One pass per cube side: the cubes of m points per axis share one
    # offset table (and one kernel), and each row of it runs once over a
    # stack of them.
    for m in np.unique(points).tolist():
        group = np.flatnonzero(points == m)
        step = max(1, _STACK_POINTS // m**d)
        offsets = _offset_table(m, d, order)
        form = None
        if order == "first_difference":
            form = _first_difference_form(m, d, h, expo)
            near = offsets[np.abs(offsets).max(axis=1) <= _NEAR_REACH]
        direct_count = 0
        for rows in (group[lo:lo + step] for lo in range(0, len(group), step)):
            # axis a of cube i: indices c[i, a] - m//2 + (0..m-1), wrapped
            first = family.centers[rows] - m // 2
            axes = tuple(((first[:, a, None] + np.arange(m)) % grid.n_per_axis)
                         .reshape((len(rows),) + (1,) * a + (m,) + (1,) * (d - 1 - a))
                         for a in range(d))
            stack = field.shaped[axes]
            # every difference of a constant cube is +-0.0, so both routes
            # give it exactly +0.0: neither sums it
            flat = stack.reshape(len(rows), -1)
            live = np.flatnonzero(flat.max(axis=1) != flat.min(axis=1))
            totals[rows] = 0.0
            direct = live
            if form is not None and live.size:
                totals[rows[live]], delta = _first_difference_fft(stack[live], form, near, h,
                                                                  expo)
                # a sum the bound does not certify, NaN included, is
                # summed directly
                direct = live[~(delta <= 2.0 * _FORM_TAU * totals[rows[live]])]
            if direct.size or form is None:
                # second order takes the weights even of a stack of
                # constant cubes, so one that overflows raises on any values
                totals[rows[direct]] = _stack_totals(stack[direct], offsets, h, expo, order)
            # second order counts every cube as summed directly
            direct_count += int(direct.size) if form is not None else len(rows)
        fallback_counts[float(family.sizes[group[0]])] = direct_count
    # normalized in Python floats, so each value is the one-cube value to the bit
    values = np.array([math.sqrt(h ** (2 * d) * t / side ** d)
                       for t, side in zip(totals.tolist(), family.sizes.tolist())])
    meta = {
        "alpha": float(alpha),
        "weight_convention": "offset |y|^(-d-2alpha), diagonal excluded",
        "family_size": len(values),
        "sup_lower_bound": True,
        "argmax": window_argmax(family.centers, family.sizes, values),
        "fallback_counts": fallback_counts,
    }
    return StrichartzReport(alpha=float(alpha), order=order, centers=family.centers,
                            sizes=family.sizes, values=values, B=float(values.max()), metadata=meta)


def strichartz_first(field: SampledField, alpha: float, cubes) -> StrichartzReport:
    """Normalized first-difference double sums per cube; B is the maximum."""
    return _strichartz(field, alpha, cubes, "first_difference", 1.0)


def strichartz_second(field: SampledField, alpha: float, cubes) -> StrichartzReport:
    """Symmetric second differences with both x+y and x-y inside the cube."""
    return _strichartz(field, alpha, cubes, "second_difference", 2.0)

