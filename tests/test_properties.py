"""Property-based checks of the structural invariants."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from msq import bmo as bmo_mod
from msq.bmo import bmo_norm, bmo_sup, make_ball_family
from msq.coeffs import coefficient_matrix, make_ladder, nu0, nu1, residual_for_constant
from msq.field import BallWindow, Mollifier, SampledField, ball_mean, make_grid, mollify
from msq.geometry import PointCloud, beta2k, plane_residual

GRID = make_grid(1, 32, 1.0)
LADDER = make_ladder(GRID)


def _field(values):
    return SampledField(grid=GRID, values=np.asarray(values, dtype=float))


finite_values = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    min_size=32,
    max_size=32,
)


@given(finite_values, st.floats(min_value=-50, max_value=50))
@settings(max_examples=25, deadline=None)
def test_ball_mean_shift_equivariance(vals, c):
    f = _field(vals)
    g = _field(np.asarray(vals) + c)
    w = BallWindow(center=(7,), radius=0.2)
    assert abs(ball_mean(g, w) - ball_mean(f, w) - c) < 1e-9


@given(finite_values)
@settings(max_examples=25, deadline=None)
def test_mollify_translation_equivariance(vals):
    f = _field(vals)
    moll = Mollifier(scale=0.125)
    rolled = _field(np.roll(f.values, 3))
    lhs = mollify(rolled, moll).values
    rhs = np.roll(mollify(f, moll).values, 3)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@given(finite_values, st.floats(min_value=0.01, max_value=10))
@settings(max_examples=25, deadline=None)
def test_coefficients_homogeneous_degree_one(vals, lam):
    f = _field(vals)
    g = _field(lam * f.values)
    for kind in ("nu0", "nu1_tilde"):
        a = coefficient_matrix(f, LADDER, kind).values
        b = coefficient_matrix(g, LADDER, kind).values
        assert np.allclose(b, lam * a, rtol=1e-9, atol=1e-9)


@given(finite_values, st.floats(min_value=-20, max_value=20), st.floats(min_value=-20, max_value=20))
@settings(max_examples=25, deadline=None)
def test_order_one_kinds_affine_invariant(vals, a0, b0):
    # adding a periodic realization of an affine map leaves the optimal
    # affine residual unchanged only where no wrap is crossed, so the
    # invariance is asserted through the window op on an interior window
    f = _field(vals)
    x = np.arange(32) / 32.0
    g = _field(f.values + a0 + b0 * x)
    w = BallWindow(center=(16,), radius=0.125)
    assert abs(nu1(g, w) - nu1(f, w)) < 1e-9


@given(finite_values, st.floats(min_value=-5, max_value=5).filter(lambda d: abs(d) > 1e-6))
@settings(max_examples=25, deadline=None)
def test_perturbed_constant_never_beats_mean(vals, delta):
    f = _field(vals)
    w = BallWindow(center=(10,), radius=0.15)
    best = nu0(f, w)
    assert residual_for_constant(f, w, ball_mean(f, w) + delta) >= best


@given(st.integers(min_value=0, max_value=31))
@settings(max_examples=16, deadline=None)
def test_matrix_rows_follow_field_translation(shift):
    rng = np.random.default_rng(0)
    f = _field(rng.standard_normal(32))
    rolled = _field(np.roll(f.values, shift))
    a = coefficient_matrix(f, LADDER, "nu0").values
    b = coefficient_matrix(rolled, LADDER, "nu0").values
    assert np.allclose(b, np.roll(a, shift, axis=0), atol=1e-10)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-3, max_value=3, allow_nan=False),
            st.floats(min_value=-3, max_value=3, allow_nan=False),
        ),
        min_size=4,
        max_size=24,
    ),
    st.floats(min_value=0.1, max_value=2.0),
)
@settings(max_examples=25, deadline=None)
def test_random_plane_never_beats_eigen_solution(pairs, angle):
    pts = np.asarray(pairs, dtype=float)
    cloud = PointCloud(points=pts, weights=np.ones(len(pts)))
    r = 10.0  # everything inside
    beta, fit = beta2k(cloud, np.zeros(2), r, k=1)
    basis = np.array([[np.cos(angle), np.sin(angle)]])
    assert plane_residual(cloud, np.zeros(2), r, fit.basepoint, basis) >= beta - 1e-12


# bmo_sup against bmo_norm, with the cost rule off so that the bound runs
# on every family: fields with exact ties (small integers), constants, a
# large offset under small noise, and values far from unit scale
_SUP_GRIDS = (make_grid(1, 64, 1.0), make_grid(2, 16, 1.0))


def _sup_field(grid, ints, shape, scale):
    noise = np.resize(np.asarray(ints, dtype=float), grid.n_points)
    values = {"ties": noise, "constant": np.full(grid.n_points, 2.5),
              "offset": 1e8 + 1e-6 * noise, "noise": np.sin(noise * 1.7) + noise}[shape]
    return SampledField(grid=grid, values=scale * values)


@st.composite
def _sup_windows(draw, grid):
    """A lattice family at a random stride, or an irregular BallWindow list
    with repeats and radii out of order."""
    h, n = grid.spacing, grid.n_per_axis
    radii = st.sampled_from([h, 1.5 * h, 2 * h, 4 * h, 0.1, 0.2, 0.25])
    if draw(st.booleans()):
        sizes = draw(st.lists(radii, min_size=1, max_size=4))
        return make_ball_family(grid, sizes, draw(st.integers(min_value=1, max_value=n)))
    center = st.tuples(*[st.integers(min_value=0, max_value=n - 1)] * grid.dim)
    windows = draw(st.lists(st.builds(BallWindow, center, radii), min_size=1, max_size=40))
    return windows + draw(st.lists(st.sampled_from(windows), max_size=5))


@given(st.data(), st.sampled_from(_SUP_GRIDS),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=8, max_size=64),
       st.sampled_from(["ties", "constant", "offset", "noise"]),
       st.sampled_from([1.0, 1e150, 1e-150]))
@settings(max_examples=60, deadline=None)
def test_bmo_sup_equals_bmo_norm(data, grid, ints, shape, scale):
    field = _sup_field(grid, ints, shape, scale)
    windows = data.draw(_sup_windows(grid))
    with mock.patch.object(bmo_mod, "_BOUND_COST", 0), \
            np.errstate(over="raise", divide="raise", invalid="raise"):
        norm, argmax = bmo_sup(field, windows)
        report = bmo_norm(field, windows)
    assert norm == report.norm
    assert argmax == report.metadata["argmax"]
