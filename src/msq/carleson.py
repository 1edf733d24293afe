"""Square-function Carleson integrals and the comparability experiment.

A coefficient matrix is aggregated over a ball of centers and a sub-ladder
of scales into the dyadic Riemann sum

    h^dim * sum_{x in B_R(z)} sum_{r_j <= R} (nu(x, r_j) / r_j^(alpha-1))^2 * ln 2,

the discrete counterpart of the double integral with dr/r giving ln 2 per
octave.  The Carleson constant is the maximum of the R^dim-normalized
integral over a tested family of (z, R); since that family is finite, the
constant is a lower bound for the supremum over all centers and radii, and
reports say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .bmo import bmo_sup, make_ball_family
from .coeffs import CoefficientMatrix, ScaleLadder, coefficient_matrix, make_ladder, matrix_metadata
from .field import (
    BallWindow, SampledField, ball_fft, ball_mask, flat_index, lattice_centers, periodic_roll,
    table_columns, window_argmax, window_family, window_rows,
)
from .spectral import check_alpha, fractional_derivative

__all__ = [
    "CarlesonReport",
    "ComparisonRecord",
    "square_function_integral",
    "carleson_constant",
    "comparability_experiment",
    "comparability_records",
    "full_domain_square_integral",
    "matching_order",
]

_RTOL = 1e-9


@dataclass(frozen=True)
class CarlesonReport:
    alpha: float
    kind: str
    centers: np.ndarray          # (m, dim) integer index tuples
    tops: np.ndarray             # (t,) top radii
    normalized: np.ndarray       # (m, t) normalized integrals
    constant: float              # max over the table
    metadata: dict

    @property
    def per_window(self) -> list:
        """Rows (center tuple, top_radius, normalized_value), center-major."""
        return list(window_rows(*table_columns(self.centers, self.tops, self.normalized)))


@dataclass(frozen=True)
class ComparisonRecord:
    alpha: float
    kind: str
    carleson_sq: float
    bmo_norm_sq: float
    ratio: float | None          # None when bmo_norm_sq == 0
    metadata: dict


def matching_order(alpha: float) -> int:
    """Coefficient order paired with alpha: 0 below one, 1 at and above."""
    return 0 if alpha < 1.0 else 1


def _ladder_level_of(ladder: ScaleLadder, R: float) -> int:
    """The first level whose radius lies within _RTOL |R| of R.  R must be
    finite, since |r - inf| <= _RTOL * inf holds for every r."""
    radii = ladder.radii.tolist()
    if math.isfinite(R):
        for level, r in enumerate(radii):
            if abs(r - R) <= _RTOL * abs(R):
                return level
    raise ValueError(f"top radius {R} is not a ladder radius {radii}")


def _weighted_levels(matrix: CoefficientMatrix, alpha: float) -> np.ndarray:
    """Per-center, per-level summand (nu / r^(alpha-1))^2 * ln 2."""
    radii = matrix.ladder.radii
    w = radii ** (2.0 - 2.0 * alpha) * matrix.ladder.log_weight
    return matrix.values ** 2 * w[None, :]


def square_function_integral(matrix: CoefficientMatrix, alpha: float, z, R: float) -> float:
    """Dyadic Riemann sum of the double integral over B_R(z) x (0, R]."""
    check_alpha(alpha)
    grid = matrix.grid
    level = _ladder_level_of(matrix.ladder, R)
    summand = _weighted_levels(matrix, alpha)[:, level:].sum(axis=1)
    center, = _given_centers(grid, np.atleast_1d(z))
    members = periodic_roll(ball_mask(grid, R), tuple(center.tolist()))
    h = grid.spacing
    return float(h ** grid.dim * summand.reshape(grid.shape)[members].sum())


def _normalized_table(matrix: CoefficientMatrix, alpha: float, tops, center_subset):
    """All (center, R) normalized integrals at once via FFT ball sums."""
    grid = matrix.grid
    h = grid.spacing
    summand_levels = _weighted_levels(matrix, alpha)
    table = np.empty((len(center_subset), len(tops)))
    flat = flat_index(grid, center_subset)
    for j, R in enumerate(tops):
        level = _ladder_level_of(matrix.ladder, R)
        s = summand_levels[:, level:].sum(axis=1).reshape(grid.shape)
        total = np.fft.ifftn(np.fft.fftn(s) * np.conj(ball_fft(grid, R))).real
        table[:, j] = h ** grid.dim * total.reshape(-1)[flat] / R ** grid.dim
    return np.maximum(table, 0.0)


# The rules of a ball's center alone, its rank, integrality and range: the
# first three of BallWindow.RULES, for window_family.
_BALL_CENTER = SimpleNamespace(RULES=BallWindow.RULES[:3])


def _given_centers(grid, centers) -> np.ndarray:
    """A nonempty sequence of center index tuples, or one center given
    flat, as an (m, dim) int array that passes _BALL_CENTER; otherwise the
    first failing center raises its rule's message, a ragged list
    included."""
    rows = list(centers)
    if len(rows) == 0:
        raise ValueError("empty center family")
    if all(np.ndim(c) == 0 for c in rows):
        rows = [rows]
    return window_family(grid, [BallWindow(c, 0.0) for c in rows], _BALL_CENTER).centers


def carleson_constant(
    matrix: CoefficientMatrix,
    alpha: float,
    centers=None,
    tops=None,
    stride: int = 1,
) -> CarlesonReport:
    """Best observed constant over a finite test family of (z, R).

    The reported constant is the maximum of the normalized integrals and is
    a lower bound of the true supremum over all centers and radii.
    """
    check_alpha(alpha)
    grid = matrix.grid
    if centers is None:
        centers, center_stride = lattice_centers(grid, stride), stride
    else:
        centers, center_stride = _given_centers(grid, centers), None
    tops = [float(R) for R in (matrix.ladder.radii if tops is None else tops)]
    if len(tops) == 0:
        raise ValueError("empty top-radius family")

    table = _normalized_table(matrix, alpha, tops, centers)
    tops = np.asarray(tops)
    order = 0 if matrix.kind in ("nu0", "nu0_bar", "nu0_tilde") else 1
    meta = matrix_metadata(matrix)
    meta.update(
        {
            "alpha": alpha,
            "sup_lower_bound": True,
            "nonstandard_pairing": order != matching_order(alpha),
            "center_stride": center_stride,
            "n_centers": int(len(centers)),
            "truncation_floor_radius": float(matrix.ladder.radii[-1]),
            "argmax": window_argmax(*table_columns(centers, tops, table)),
        }
    )
    return CarlesonReport(
        alpha=float(alpha),
        kind=matrix.kind,
        centers=centers,
        tops=tops,
        normalized=table,
        constant=float(table.max()),
        metadata=meta,
    )


def full_domain_square_integral(matrix: CoefficientMatrix, alpha: float) -> float:
    """Unrestricted dyadic sum over all centers and every ladder scale."""
    check_alpha(alpha)
    h = matrix.grid.spacing
    return float(h ** matrix.grid.dim * _weighted_levels(matrix, alpha).sum())


def _matched_kind(alpha: float) -> str:
    return "nu0" if matching_order(alpha) == 0 else "nu1"


def comparability_experiment(
    field: SampledField,
    alpha: float,
    ladder: ScaleLadder = None,
    stride: int = 1,
    matrix: CoefficientMatrix = None,
) -> ComparisonRecord:
    """Carleson constant of the order-matched coefficient vs the squared
    BMO norm of the fractional derivative, plus their ratio.

    ``matrix``, if given, must be ``coefficient_matrix(field, ladder,
    kind)`` for the kind alpha's order picks; its kind, grid and ladder
    radii are checked, its values are not.  Without it the matrix is
    built here.
    """
    check_alpha(alpha)
    grid = field.grid
    if ladder is None:
        ladder = make_ladder(grid)
    kind = _matched_kind(alpha)
    if matrix is None:
        matrix = coefficient_matrix(field, ladder, kind)
    elif matrix.kind != kind:
        raise ValueError(f"alpha {alpha} pairs with a {kind} matrix, got {matrix.kind}")
    elif matrix.grid != grid:
        raise ValueError(f"matrix grid {matrix.grid} is not the field's grid {grid}")
    elif not np.array_equal(matrix.ladder.radii, ladder.radii):
        raise ValueError(f"matrix ladder radii {matrix.ladder.radii.tolist()} are not "
                         f"the ladder's {ladder.radii.tolist()}")
    report = carleson_constant(matrix, alpha, stride=stride)

    deriv = fractional_derivative(field, alpha)
    norm, argmax = bmo_sup(deriv, make_ball_family(grid, radii=ladder.radii, stride=stride))
    bmo_sq = norm ** 2
    c_sq = report.constant
    ratio = None if bmo_sq == 0.0 else c_sq / bmo_sq
    meta = dict(report.metadata)
    meta.update({"bmo_window_radii": [float(r) for r in ladder.radii],
                 "bmo_argmax": argmax})
    return ComparisonRecord(
        alpha=float(alpha),
        kind=kind,
        carleson_sq=c_sq,
        bmo_norm_sq=bmo_sq,
        ratio=ratio,
        metadata=meta,
    )


def comparability_records(
    field: SampledField,
    alphas,
    ladder: ScaleLadder = None,
    stride: int = 1,
) -> list:
    """``comparability_experiment`` for each alpha, in order.  The
    coefficients do not depend on alpha, only their Carleson weights do,
    so each kind's matrix is built at its first alpha, shared by the
    later alphas of that kind and dropped after its last one."""
    for a in alphas:
        check_alpha(a)
    if ladder is None:
        ladder = make_ladder(field.grid)
    kinds = [_matched_kind(a) for a in alphas]
    matrices, records = {}, []
    for i, (a, kind) in enumerate(zip(alphas, kinds)):
        if kind not in matrices:
            matrices[kind] = coefficient_matrix(field, ladder, kind)
        records.append(comparability_experiment(field, a, ladder, stride, matrices[kind]))
        if kind not in kinds[i + 1:]:
            del matrices[kind]
    return records
