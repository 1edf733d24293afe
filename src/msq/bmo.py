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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .field import BallWindow, Grid, SampledField, ball_mask, lattice_centers, periodic_roll

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
    per_window: tuple  # rows (center tuple, radius, mean oscillation)
    norm: float        # max over the family; lower bound of the sup

    def __post_init__(self):
        if len(self.per_window) == 0:
            raise ValueError("empty window family")


@dataclass(frozen=True)
class CubeSpec:
    """Axis-aligned periodic cube: grid-point center plus side length."""

    center: tuple
    side: float

    def validate(self, grid: Grid) -> None:
        if len(self.center) != grid.dim:
            raise ValueError("cube center rank does not match grid dim")
        if self.side > grid.period / 2.0 + 1e-12 * grid.period:
            raise ValueError(f"cube side {self.side} exceeds period/2 (aliasing)")
        if self.side < 4.0 * grid.spacing - 1e-12 * grid.spacing:
            raise ValueError(f"cube side {self.side} below 4h")
        m = self.side / grid.spacing
        if abs(m - round(m)) > 1e-9 or int(round(m)) % 2 != 0:
            raise ValueError("cube side must be an even multiple of the spacing")

    def points_per_axis(self, grid: Grid) -> int:
        return int(round(self.side / grid.spacing))


@dataclass(frozen=True)
class StrichartzReport:
    alpha: float
    order: str              # "first_difference" or "second_difference"
    per_cube: tuple         # rows (center tuple, side, value)
    B: float                # max over the family
    metadata: dict


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


def _center_tuples(grid: Grid, stride) -> list:
    """Strided lattice centers as plain-int tuples (they are serialized)."""
    return [tuple(int(i) for i in c) for c in lattice_centers(grid, stride)]


def make_ball_family(grid: Grid, radii, stride: int = 1) -> list:
    """Balls at strided grid centers, one window per (center, radius)."""
    centers = _center_tuples(grid, stride)
    return [BallWindow(center=c, radius=float(r)) for r in radii for c in centers]


def make_cube_family(grid: Grid, sides=None, stride: int = None) -> list:
    """Cubes at strided centers over dyadic sides (period/2 downward)."""
    if sides is None:
        sides = []
        s = grid.period / 2.0
        while s >= 4.0 * grid.spacing - 1e-12:
            sides.append(s)
            s /= 2.0
    if stride is None:
        stride = max(1, grid.n_per_axis // 8)
    centers = _center_tuples(grid, stride)
    return [CubeSpec(center=c, side=float(s)) for s in sides for c in centers]


def bmo_norm(field: SampledField, windows) -> OscillationReport:
    """Mean |f - ball average| per window; norm is the family maximum."""
    if windows is None or len(windows) == 0:
        raise ValueError("empty window family")
    grid = field.grid
    shaped = field.shaped
    centers, radii = _window_arrays(grid, windows)
    # Group by radius: the oscillation field for one radius covers every
    # center at once, so strided families reuse a single pass.
    levels, level_of = np.unique(radii, return_inverse=True)
    rows = []
    for k, radius in enumerate(levels):
        members = np.flatnonzero(level_of == k)
        points = centers[members]
        mask = ball_mask(grid, radius)
        count = int(mask.sum())
        Fm = np.conj(np.fft.fftn(mask.astype(float)))
        mean = np.fft.ifftn(np.fft.fftn(shaped) * Fm).real / count
        # Only the sub-torus of step s through the centers is evaluated: an
        # offset o = s q + rho reads shaped[rho::s] rolled by q there, so
        # each center sees the same terms in the same order as on the full
        # grid.
        s = int(np.gcd.reduce(points.reshape(-1), initial=grid.n_per_axis))
        sub_mean = mean[(slice(None, None, s),) * grid.dim]
        acc = np.zeros_like(sub_mean)
        for q, rho in zip(*np.divmod(np.argwhere(mask), s)):
            part = shaped[tuple(slice(int(p), None, s) for p in rho)]
            acc += np.abs(periodic_roll(part, tuple(-int(o) for o in q)) - sub_mean)
        osc = (acc / count)[tuple((points // s).T)]
        rows.extend((windows[i].center, float(radius), float(v)) for i, v in zip(members, osc))
    norm = max(r[2] for r in rows)
    return OscillationReport(per_window=tuple(rows), norm=float(norm))


def _window_arrays(grid: Grid, windows):
    """Integer centers (m, dim) and radii (m,) of a window family.

    The centers and the radii are checked as arrays; when any window is
    invalid, BallWindow.validate runs in input order, so the first invalid
    window raises its own error.
    """
    centers = [w.center for w in windows]
    radii = np.array([float(w.radius) for w in windows])
    valid = all(len(c) == grid.dim for c in centers)
    if valid:
        points = np.asarray(centers).astype(int).reshape(len(centers), grid.dim)
        valid = bool(
            np.all((points >= 0) & (points < grid.n_per_axis))
            and not np.any((radii < grid.spacing) | (radii > grid.period / 4))
        )
    if not valid:
        for w in windows:
            w.validate(grid)  # raises for the first invalid window
    return points, radii


def holder_seminorm(field: SampledField, alpha: float, stride: int = 1) -> float:
    """max |f(x) - f(y)| / dist(x, y)^alpha over tested pairs.

    Pairs run over strided anchors and strided offsets with periodic
    separation at most period/4; the result is a lower bound of the
    continuum seminorm.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    grid = field.grid
    n, h = grid.n_per_axis, grid.spacing
    stride = max(1, int(stride))
    shaped = field.shaped
    anchors = (slice(None, None, stride),) * grid.dim
    base = shaped[anchors]
    best = 0.0
    max_cells = n // 4
    if grid.dim == 1:
        for j in range(1, max_cells + 1, stride):
            diff = np.abs(np.roll(shaped, -j)[anchors] - base)
            best = max(best, float(diff.max()) / (j * h) ** alpha)
        return best
    for j1 in range(0, max_cells + 1, stride):
        for j2 in range(0, max_cells + 1, stride):
            if j1 == 0 and j2 == 0:
                continue
            dist = math.hypot(j1 * h, j2 * h)
            if dist > grid.period / 4.0:
                continue
            diff = np.abs(np.roll(shaped, (-j1, -j2), axis=(0, 1))[anchors] - base)
            best = max(best, float(diff.max()) / dist ** alpha)
    return best


def _cube_values(field: SampledField, cube: CubeSpec) -> np.ndarray:
    grid = field.grid
    m = cube.points_per_axis(grid)
    axes = [(np.arange(m) + int(c) - m // 2) % grid.n_per_axis for c in cube.center]
    return field.shaped[np.ix_(*axes)]


def _first_difference_sum(v: np.ndarray, h: float, expo: float, dim: int) -> float:
    total = 0.0
    m = v.shape[0]
    if dim == 1:
        for o in range(1, m):
            w = (o * h) ** (-expo)
            total += 2.0 * w * float(np.sum((v[o:] - v[:-o]) ** 2))
        return total
    for o1 in range(0, m):
        for o2 in range(-(m - 1), m):
            if o1 == 0 and o2 <= 0:
                continue  # half-space; the mirrored offset doubles below
            w = (math.hypot(o1 * h, o2 * h)) ** (-expo)
            a = v[o1:, :] if o1 else v
            b = v[: m - o1, :] if o1 else v
            if o2 >= 0:
                d = a[:, o2:] - b[:, : m - o2]
            else:
                d = a[:, : m + o2] - b[:, -o2:]
            total += 2.0 * w * float(np.sum(d ** 2))
    return total


def _second_difference_sum(v: np.ndarray, h: float, expo: float, dim: int) -> float:
    total = 0.0
    m = v.shape[0]
    if dim == 1:
        for o in range(1, (m - 1) // 2 + 1):
            w = (o * h) ** (-expo)
            mid = v[o : m - o]
            total += 2.0 * w * float(np.sum((2.0 * mid - v[2 * o :] - v[: m - 2 * o]) ** 2))
        return total
    for o1 in range(0, (m - 1) // 2 + 1):
        for o2 in range(-((m - 1) // 2), (m - 1) // 2 + 1):
            if o1 == 0 and o2 <= 0:
                continue
            w = (math.hypot(o1 * h, o2 * h)) ** (-expo)
            s1 = slice(o1, m - o1) if o1 else slice(None)
            if o2 >= 0:
                s2 = slice(o2, m - o2) if o2 else slice(None)
                plus = (slice(2 * o1, m) if o1 else s1, slice(2 * o2, m) if o2 else s2)
                minus = (slice(0, m - 2 * o1) if o1 else s1, slice(0, m - 2 * o2) if o2 else s2)
            else:
                q = -o2
                s2 = slice(q, m - q)
                plus = (slice(2 * o1, m) if o1 else s1, slice(0, m - 2 * q))
                minus = (slice(0, m - 2 * o1) if o1 else s1, slice(2 * q, m))
            mid = v[s1, s2]
            d = 2.0 * mid - v[plus] - v[minus]
            total += 2.0 * w * float(np.sum(d ** 2))
    return total


def _strichartz(field, alpha, cubes, order: str, alpha_hi: float) -> StrichartzReport:
    if not (0.0 < alpha < alpha_hi):
        raise ValueError(f"alpha must lie in (0, {alpha_hi}), got {alpha}")
    if cubes is None or len(cubes) == 0:
        raise ValueError("empty cube family")
    grid = field.grid
    d, h = grid.dim, grid.spacing
    expo = d + 2.0 * alpha
    rows = []
    for cube in cubes:
        cube.validate(grid)
        v = _cube_values(field, cube)
        if order == "first_difference":
            total = _first_difference_sum(v, h, expo, d)
        else:
            total = _second_difference_sum(v, h, expo, d)
        volume = cube.side ** d
        value = math.sqrt(h ** (2 * d) * total / volume)
        rows.append((cube.center, float(cube.side), value))
    B = max(r[2] for r in rows)
    meta = {
        "alpha": float(alpha),
        "weight_convention": "offset |y|^(-d-2alpha), diagonal excluded",
        "family_size": len(rows),
        "sup_lower_bound": True,
    }
    return StrichartzReport(alpha=float(alpha), order=order, per_cube=tuple(rows), B=float(B), metadata=meta)


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
