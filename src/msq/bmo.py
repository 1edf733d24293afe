"""Mean oscillation, Hölder seminorms, difference functionals, growth checks.

The BMO norm is the L1 mean oscillation, maximized over a declared finite
family of balls; like every supremum here it is reported as a lower bound
of the continuum value.  The difference functionals take a family of
axis-aligned periodic cubes and aggregate first or second differences with
the weight |y|^(-d-2*alpha) in the offset y (the offset form is the one
implemented; reports note it).  The y = 0 diagonal is excluded, and the
second-difference sum only uses offsets with both x+y and x-y inside the
cube so that locally affine data cancels exactly on interior cubes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .field import (
    BallWindow, Grid, SampledField, WindowFamily, ball_mask, flat_index, lattice_centers,
    offset_reads, offset_sums, window_argmax, window_family, window_rows,
)

__all__ = [
    "OscillationReport",
    "StrichartzReport",
    "CubeSpec",
    "GrowthProfile",
    "TemperedGrowthReport",
    "make_ball_family",
    "make_cube_family",
    "bmo_norm",
    "holder_seminorm",
    "strichartz_first",
    "strichartz_second",
    "tempered_growth",
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

    def validate(self, grid: Grid) -> None:
        if len(self.center) != grid.dim:
            raise ValueError("cube center rank does not match grid dim")
        if not math.isfinite(self.side):
            raise ValueError(f"cube side {self.side} is not finite")
        if self.side > grid.period / 2.0 + 1e-12 * grid.period:
            raise ValueError(f"cube side {self.side} exceeds period/2 (aliasing)")
        if self.side < 4.0 * grid.spacing - 1e-12 * grid.spacing:
            raise ValueError(f"cube side {self.side} below 4h")
        m = self.side / grid.spacing
        if abs(m - round(m)) > 1e-9 or int(round(m)) % 2 != 0:
            raise ValueError("cube side must be an even multiple of the spacing")

    size = property(lambda self: self.side)

    @staticmethod
    def rows_valid(grid: Grid, centers: np.ndarray, sides: np.ndarray) -> bool:
        """validate of every row at once: (m, dim) int centers, (m,) sides."""
        if not np.all(np.isfinite(sides)):
            return False
        h, m = grid.spacing, np.round(sides / grid.spacing)
        return not np.any((sides > grid.period / 2.0 + 1e-12 * grid.period)
                          | (sides < 4.0 * h - 1e-12 * h)
                          | (np.abs(sides / h - m) > 1e-9) | (m % 2 != 0))

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


@dataclass(frozen=True)
class GrowthProfile:
    """Analytic function on R^dim with a declared growth bound.

    |fn(x)| <= bound_const * (1 + |x|)^growth_exponent is taken on trust;
    the tail bound below is computed from it in closed form.
    """

    fn: Callable
    growth_exponent: float
    bound_const: float = 1.0
    dim: int = 1


@dataclass(frozen=True)
class TemperedGrowthReport:
    truncated: float
    tail_bound: float
    verdict: str  # "finite" or "divergent tail"


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
        Fm = np.conj(np.fft.fftn(mask.astype(float)))
        mean = np.fft.ifftn(Ff * Fm).real.reshape(-1)[flat_index(grid, centers[rows])] / count
        acc = offset_sums(grid, field.shaped, centers[rows], np.argwhere(mask), mean,
                          lambda diff, _: np.abs(diff, out=diff))
        values[rows] = acc / count
    meta = {"oscillation": "L1 mean oscillation", "sup_lower_bound": True,
            "argmax": window_argmax(centers, radii, values)}
    return OscillationReport(centers, radii, values, norm=float(values.max()), metadata=meta)


def holder_seminorm(field: SampledField, alpha: float, stride: int = 1) -> float:
    """max |f(x) - f(y)| / dist(x, y)^alpha over tested pairs.

    Every stride-th anchor x per axis (stride a positive integer) is paired
    with y = x + o for every nonzero integer offset o with |o| h <=
    period/4; the result is a lower bound of the continuum seminorm.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    grid = field.grid
    n, h = grid.n_per_axis, grid.spacing
    reach = itertools.product(range(-(n // 4), n // 4 + 1), repeat=grid.dim)
    dist = {off: math.hypot(*[o * h for o in off]) for off in reach}
    offsets = [off for off, d in dist.items() if 0.0 < d <= grid.period / 4.0]
    weights = np.array([dist[off] ** alpha for off in offsets])
    anchors = lattice_centers(grid, stride)
    base = field.values[flat_index(grid, anchors)]
    best, lo = 0.0, 0
    for block in offset_reads(grid, field.shaped, anchors, offsets):
        top = np.abs(np.subtract(block, base, out=block), out=block).max(axis=1)
        best = max(best, float((top / weights[lo:lo + len(block)]).max()))
        lo += len(block)
    return best


# The points each difference reads, as multiples k of the offset o: x + k o.
_DIFFERENCE_STEPS = {"first_difference": (1, 0), "second_difference": (0, 1, -1)}


def _difference_terms(m: int, dim: int, h: float, expo: float, order: str):
    """Offset table of a difference sum over a stack of cubes of m points
    per axis, shape (k, m, ..., m), yielded row by row.

    One row per offset o whose first nonzero entry is positive (the
    mirrored offset doubles in the sum): the weight |o h|^(-expo), then one
    index tuple into the stack per point read, x + o and x for first
    differences, x, x + o and x - o for second differences, with x running
    over the points that keep every read point in the cube.
    """
    steps = _DIFFERENCE_STEPS[order]
    reach = (m - 1) // (max(steps) - min(steps))
    for off in itertools.product(range(-reach, reach + 1), repeat=dim):
        if next((o for o in off if o), 0) <= 0:
            continue
        lo = [max(-k * o for k in steps) for o in off]
        hi = [m - max(k * o for k in steps) for o in off]
        reads = tuple(
            (slice(None),) + tuple(slice(a + k * o, b + k * o) for a, b, o in zip(lo, hi, off))
            for k in steps
        )
        yield (math.hypot(*[o * h for o in off]) ** (-expo),) + reads


# _STACK_POINTS: grid values per cube stack.  2**20 values (8 MB) hold a
# default 2-d family (64 cubes) in one stack per side up to n=256, while a
# large family, such as one at stride 1, is cut into several stacks.
_STACK_POINTS = 2**20


def _stack_totals(v: np.ndarray, terms, order: str) -> np.ndarray:
    """Difference sum of each cube of a (k, m, ..., m) stack, term by term
    in table order.  Each cube's block is summed on its own, in numpy's
    pairwise order, so every total equals that of a one-cube stack."""
    k = len(v)
    total = np.zeros(k)
    if order == "first_difference":
        for w, plus, x in terms:
            total += 2.0 * w * ((v[plus] - v[x]) ** 2).reshape(k, -1).sum(axis=1)
    else:
        for w, x, plus, minus in terms:
            total += 2.0 * w * ((2.0 * v[x] - v[plus] - v[minus]) ** 2).reshape(k, -1).sum(axis=1)
    return total


def _strichartz(field, alpha, cubes, order: str, alpha_hi: float) -> StrichartzReport:
    if not (0.0 < alpha < alpha_hi):
        raise ValueError(f"alpha must lie in (0, {alpha_hi}), got {alpha}")
    if cubes is None or len(cubes) == 0:
        raise ValueError("empty cube family")
    grid = field.grid
    d, h = grid.dim, grid.spacing
    expo = d + 2.0 * alpha
    family = window_family(grid, cubes, CubeSpec)
    points = np.round(family.sizes / h).astype(int)  # points per axis of each cube
    totals = np.empty(len(family))
    # One pass per cube side: the cubes of m points per axis share one
    # offset table, and each row of it runs once over a stack of them.
    for m in np.unique(points).tolist():
        group = np.flatnonzero(points == m)
        step = max(1, _STACK_POINTS // m**d)
        for rows in (group[lo:lo + step] for lo in range(0, len(group), step)):
            # axis a of cube i: indices c[i, a] - m//2 + (0..m-1), wrapped
            first = family.centers[rows] - m // 2
            axes = tuple(((first[:, a, None] + np.arange(m)) % grid.n_per_axis)
                         .reshape((len(rows),) + (1,) * a + (m,) + (1,) * (d - 1 - a))
                         for a in range(d))
            # a generator made anew per stack: as a list, the 2-d table of
            # m = 32 alone holds about 1 MB of Python objects
            terms = _difference_terms(m, d, h, expo, order)
            totals[rows] = _stack_totals(field.shaped[axes], terms, order)
    # normalized in Python floats, so each value is the one-cube value to the bit
    values = np.array([math.sqrt(h ** (2 * d) * t / side ** d)
                       for t, side in zip(totals.tolist(), family.sizes.tolist())])
    meta = {
        "alpha": float(alpha),
        "weight_convention": "offset |y|^(-d-2alpha), diagonal excluded",
        "family_size": len(values),
        "sup_lower_bound": True,
        "argmax": window_argmax(family.centers, family.sizes, values),
    }
    return StrichartzReport(alpha=float(alpha), order=order, centers=family.centers,
                            sizes=family.sizes, values=values, B=float(values.max()), metadata=meta)


def strichartz_first(field: SampledField, alpha: float, cubes) -> StrichartzReport:
    """Normalized first-difference double sums per cube; B is the maximum."""
    return _strichartz(field, alpha, cubes, "first_difference", 1.0)


def strichartz_second(field: SampledField, alpha: float, cubes) -> StrichartzReport:
    """Symmetric second differences with both x+y and x-y inside the cube."""
    return _strichartz(field, alpha, cubes, "second_difference", 2.0)


def tempered_growth(profile: GrowthProfile, epsilon: float, cutoff: float) -> TemperedGrowthReport:
    """Quadrature of |f(x)| / (1 + |x|^(d+eps)) over |x| <= cutoff, plus an
    analytic bound for the discarded tail from the declared growth."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    d = profile.dim
    fn = profile.fn
    if d == 1:
        truncated, _ = integrate.quad(
            lambda t: abs(fn(t)) / (1.0 + abs(t) ** (1.0 + epsilon)),
            -cutoff,
            cutoff,
            limit=400,
            points=[0.0],
        )
    elif d == 2:
        def integrand(rho, theta):
            x = rho * math.cos(theta)
            y = rho * math.sin(theta)
            return abs(fn(x, y)) / (1.0 + rho ** (2.0 + epsilon)) * rho

        truncated, _ = integrate.dblquad(integrand, 0.0, 2.0 * math.pi, 0.0, cutoff)
    else:
        raise ValueError("growth profiles support dim 1 or 2 only")

    gamma = profile.growth_exponent
    if gamma >= epsilon:
        return TemperedGrowthReport(
            truncated=float(truncated), tail_bound=math.inf, verdict="divergent tail"
        )
    surface = 2.0 if d == 1 else 2.0 * math.pi
    tail = profile.bound_const * surface * (1.0 + cutoff) ** (gamma - epsilon) / (epsilon - gamma)
    return TemperedGrowthReport(
        truncated=float(truncated), tail_bound=float(tail), verdict="finite"
    )
