import io

import numpy as np
import pytest

import msq.coeffs as coeffs_mod
from msq.coeffs import (
    KINDS,
    _moment_levels,
    coefficient_matrix,
    make_ladder,
    matrix_metadata,
    nu0,
    nu1,
    nu_bar,
    nu_tilde,
    residual_for_affine,
    residual_for_constant,
    write_matrix_csv,
)
from msq.corpus import generate as corpus_generate
from msq.experiments import default_specs
from msq.field import (
    BallWindow,
    SampledField,
    ball_mask,
    flat_index,
    make_grid,
    masked_offsets,
    sample,
)


def _window_op(kind, field, window):
    return {
        "nu0": lambda: nu0(field, window),
        "nu1": lambda: nu1(field, window),
        "nu0_bar": lambda: nu_bar(field, window, 0),
        "nu1_bar": lambda: nu_bar(field, window, 1),
        "nu0_tilde": lambda: nu_tilde(field, window, 0),
        "nu1_tilde": lambda: nu_tilde(field, window, 1),
    }[kind]()


# ---------------------------------------------------------------------------
# closed-form oracles


def test_nu1_quadratic_oracle():
    # best affine fit to x^2 on a ball of radius r about the apex leaves
    # residual sqrt(4/45) r^2, so nu1 = 2 r / (3 sqrt 5)
    g = make_grid(1, 4096, 1.0)
    f = sample(g, lambda x: (x - 0.5) ** 2)
    r = 0.1
    got = nu1(f, BallWindow(center=(2048,), radius=r))
    expected = 2.0 / (3.0 * np.sqrt(5.0)) * r
    assert abs(got - expected) <= max(1e-6, 3 * g.spacing)


def test_nu0_locally_linear_oracle():
    g = make_grid(1, 1024, 1.0)
    f = sample(g, lambda x: x)
    r = 0.25
    got = nu0(f, BallWindow(center=(512,), radius=r))
    assert abs(got - 1.0 / np.sqrt(3.0)) <= 2 * g.spacing / r


def test_nu_tilde_linear_annulus_oracle():
    # RMS of (y/r)^2 over the annulus r/2 <= |y| <= r is sqrt(7/12)
    g = make_grid(1, 1024, 1.0)
    f = sample(g, lambda x: x)
    r = 0.25
    got = nu_tilde(f, BallWindow(center=(512,), radius=r), 0)
    assert abs(got - np.sqrt(7.0 / 12.0)) <= 4 * g.spacing / r


def test_nu0_orthogonal_fluctuation():
    # a window-mean plus zero-mean fluctuation of RMS sigma gives sigma / r
    g = make_grid(1, 256, 1.0)
    r = 0.125
    w = BallWindow(center=(100,), radius=r)
    mask = ball_mask(g, r)
    rng = np.random.default_rng(7)
    vals = np.full(256, 2.0)
    fluct = rng.standard_normal(int(mask.sum()))
    fluct -= fluct.mean()
    idx = (100 + np.flatnonzero(mask)) % 256
    vals[idx] += fluct
    sigma = np.sqrt(np.mean(fluct**2))
    f = SampledField(grid=g, values=vals)
    assert nu0(f, w) == pytest.approx(sigma / r, abs=1e-12)


def test_constant_field_all_kinds_zero():
    g = make_grid(1, 128, 1.0)
    f = sample(g, lambda x: 3.3 + 0.0 * x)
    lad = make_ladder(g)
    for kind in KINDS:
        mat = coefficient_matrix(f, lad, kind)
        assert np.max(mat.values) == 0.0


def test_affine_competitors_vanish_on_affine_data():
    # sawtooth is affine away from the wrap; the mollified-jet competitor
    # needs the kernel resolved by >= 100 cells, or its spectral tail at
    # the Nyquist frequency pollutes the gradient above the 1e-10 bar
    g = make_grid(1, 1024, 1.0)
    f = sample(g, lambda x: 1.5 * x - 0.3)
    w = BallWindow(center=(512,), radius=0.25)
    assert nu1(f, w) < 1e-12
    assert nu_bar(f, w, 1) < 1e-10
    assert nu_tilde(f, w, 1) < 1e-10
    assert nu_tilde(f, BallWindow(center=(512,), radius=0.1), 1) < 1e-10


def test_nu_bar_constant_preserved():
    g = make_grid(1, 128, 1.0)
    f = sample(g, lambda x: 2.0 + 0.0 * x)
    assert nu_bar(f, BallWindow(center=(5,), radius=0.2), 0) == pytest.approx(0.0, abs=1e-13)


def test_nu_tilde_constant_zero():
    g = make_grid(1, 128, 1.0)
    f = sample(g, lambda x: -1.0 + 0.0 * x)
    assert nu_tilde(f, BallWindow(center=(64,), radius=0.1), 0) == 0.0


# ---------------------------------------------------------------------------
# orderings, invariances, consistency


def test_entrywise_orderings(rough_field_1d):
    lad = make_ladder(rough_field_1d.grid)
    mats = {k: coefficient_matrix(rough_field_1d, lad, k).values for k in KINDS}
    assert np.all(mats["nu1"] <= mats["nu0"] + 1e-12)
    assert np.all(mats["nu0"] <= mats["nu0_bar"] + 1e-12)
    assert np.all(mats["nu1"] <= mats["nu1_bar"] + 1e-12)


def test_homogeneity_degree_one(rough_field_1d):
    lad = make_ladder(rough_field_1d.grid)
    scaled = SampledField(grid=rough_field_1d.grid, values=3.0 * rough_field_1d.values)
    for kind in ("nu0", "nu1_tilde"):
        a = coefficient_matrix(rough_field_1d, lad, kind).values
        b = coefficient_matrix(scaled, lad, kind).values
        assert np.allclose(b, 3.0 * a, rtol=1e-12, atol=1e-14)


def test_constant_shift_invariance(rough_field_1d):
    lad = make_ladder(rough_field_1d.grid)
    shifted = SampledField(
        grid=rough_field_1d.grid, values=rough_field_1d.values + 11.0
    )
    for kind in KINDS:
        a = coefficient_matrix(rough_field_1d, lad, kind).values
        b = coefficient_matrix(shifted, lad, kind).values
        assert np.max(np.abs(a - b)) < 1e-12


def test_matrix_agrees_with_window_ops(rough_field_1d):
    lad = make_ladder(rough_field_1d.grid)
    for kind in KINDS:
        mat = coefficient_matrix(rough_field_1d, lad, kind)
        for c in (0, 77, 200):
            for j, r in enumerate(lad.radii):
                w = BallWindow(center=(c,), radius=float(r))
                assert mat.values[c, j] == pytest.approx(
                    _window_op(kind, rough_field_1d, w), abs=1e-10
                )


def test_matrix_agrees_with_window_ops_2d(rough_field_2d):
    lad = make_ladder(rough_field_2d.grid)
    n = rough_field_2d.grid.n_per_axis
    for kind in ("nu1", "nu0_tilde", "nu1_bar"):
        mat = coefficient_matrix(rough_field_2d, lad, kind)
        for c in ((0, 0), (5, 17), (16, 16)):
            for j, r in enumerate(lad.radii):
                w = BallWindow(center=c, radius=float(r))
                assert mat.values[c[0] * n + c[1], j] == pytest.approx(
                    _window_op(kind, rough_field_2d, w), abs=1e-10
                )


def test_optimal_competitors_beat_perturbations(rough_field_1d):
    w = BallWindow(center=(50,), radius=0.125)
    base0 = nu0(rough_field_1d, w)
    from msq.field import ball_mean

    c_star = ball_mean(rough_field_1d, w)
    for delta in (-0.1, 1e-4, 0.3):
        assert residual_for_constant(rough_field_1d, w, c_star + delta) >= base0
    base1 = nu1(rough_field_1d, w)
    # reconstruct the optimal affine competitor, then perturb it
    mask = ball_mask(rough_field_1d.grid, w.radius)
    vals = np.roll(rough_field_1d.values, -50)[mask]
    from msq.field import ball_offsets

    u = ball_offsets(rough_field_1d.grid, w.radius)[:, 0]
    slope = np.sum(u * (vals - vals.mean())) / np.sum(u * u)
    assert residual_for_affine(rough_field_1d, w, vals.mean(), slope) == pytest.approx(
        base1, abs=1e-12
    )
    assert residual_for_affine(rough_field_1d, w, vals.mean() + 0.05, slope) > base1
    assert residual_for_affine(rough_field_1d, w, vals.mean(), slope * 1.1) >= base1


def test_argument_scaling_matches_nested_grids():
    # f_2(x) = f(2x) on the n-grid corresponds to f on the 2n-grid with
    # windows at doubled radius; agreement up to discretization
    g2n = make_grid(1, 2048, 1.0)
    f_fine = sample(g2n, lambda x: np.cos(2 * np.pi * x) + 0.3 * np.sin(6 * np.pi * x))
    gn = make_grid(1, 1024, 1.0)
    f_lam = SampledField(grid=gn, values=f_fine.values[(4 * np.arange(1024)) % 2048])
    r = 0.0625
    for c in (64, 300, 512):
        a = nu0(f_lam, BallWindow(center=(c,), radius=r))
        b = nu0(f_fine, BallWindow(center=((4 * c) % 2048,), radius=2 * r))
        # rescaling the argument by lambda multiplies the normalized
        # coefficient: nu^{f_lam}(x, r) = lambda * nu^f(lambda x, lambda r)
        assert a == pytest.approx(2.0 * b, rel=0.05)


def test_ladder_validation():
    g = make_grid(1, 64, 1.0)
    with pytest.raises(ValueError, match="period/4"):
        make_ladder(g, top_radius=0.3)
    with pytest.raises(ValueError, match="floor"):
        make_ladder(g, top_radius=0.25, levels=10)
    lad = make_ladder(g)
    assert lad.radii[-1] >= 4 * g.spacing - 1e-15
    assert np.all(np.diff(lad.radii) < 0)


def test_annulus_populated_at_every_ladder_radius():
    # the 4h ladder floor keeps every annulus above the 2*dim point
    # minimum, so the empty-annulus error is unreachable on valid ladders
    from msq.field import annulus_mask

    for dim, n in ((1, 64), (2, 32)):
        g = make_grid(dim, n, 1.0)
        for r in make_ladder(g).radii:
            assert int(annulus_mask(g, float(r)).sum()) >= 2 * dim


def test_matrix_csv_shape():
    g = make_grid(1, 32, 1.0)
    f = sample(g, lambda x: np.cos(2 * np.pi * x))
    lad = make_ladder(g)
    mat = coefficient_matrix(f, lad, "nu0")
    buf = io.StringIO()
    write_matrix_csv(mat, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "center_index_0,radius,value"
    assert len(lines) - 1 == 32 * lad.levels


# ---------------------------------------------------------------------------
# the moment path of coefficient_matrix against the direct accumulation


def _direct_matrix(field, lad, kind, monkeypatch):
    """The whole matrix through the direct per-offset accumulation: a huge
    FFT constant leaves no entry certified."""
    with monkeypatch.context() as m:
        m.setattr(coeffs_mod, "_FFT_C", 1e200)
        mat = coefficient_matrix(field, lad, kind)
    assert mat.fallback_counts == (field.grid.n_points,) * lad.levels
    return mat.values


@pytest.mark.parametrize("dim", [1, 2])
def test_moment_path_matches_direct_accumulation(dim, rough_field_1d, rough_field_2d, monkeypatch):
    field = rough_field_1d if dim == 1 else rough_field_2d
    lad = make_ladder(field.grid)
    for kind in KINDS:
        fast = coefficient_matrix(field, lad, kind)
        direct = _direct_matrix(field, lad, kind, monkeypatch)
        assert sum(fast.fallback_counts) < field.grid.n_points * lad.levels
        assert np.all(np.abs(fast.values - direct) <= 1e-12 * np.maximum(1.0, direct)), kind


def _longdouble_square_sums(grid, fc, A, B, mask, rows):
    """Residual square sums at flat rows in extended precision."""
    points = np.stack(np.unravel_index(rows, grid.shape), axis=1)
    offs = np.argwhere(mask)
    idx = flat_index(grid, (points[:, None, :] + offs[None, :, :]).reshape(-1, grid.dim))
    vals = fc.reshape(-1).astype(np.longdouble)[idx].reshape(rows.size, offs.shape[0])
    term = vals - A.reshape(-1)[rows].astype(np.longdouble)[:, None]
    u = masked_offsets(grid, mask)
    for i, B_i in enumerate(B or ()):
        term -= B_i.reshape(-1)[rows].astype(np.longdouble)[:, None] * u[:, i].astype(np.longdouble)
    return (term * term).sum(axis=1)


@pytest.mark.parametrize("dim, n", [(1, 1024), (2, 32)])
def test_moment_rounding_bound_holds(dim, n):
    g = make_grid(dim, n, 1.0)
    lad = make_ladder(g)
    rng = np.random.default_rng(3)
    for spec in default_specs(g):  # the analytic families plus noise
        field = corpus_generate(spec)
        fc = field.shaped - field.values.mean()
        for kind in KINDS:
            for _, mask, _, A, B, q, delta in _moment_levels(fc, g, lad.radii, kind):
                rows = rng.choice(g.n_points, size=48, replace=False)
                exact = _longdouble_square_sums(g, fc, A, B, mask, rows)
                err = np.abs(q.reshape(-1)[rows] - exact.astype(float))
                assert np.all(err <= delta.reshape(-1)[rows]), (spec.family, kind)


@pytest.mark.parametrize("dim, n", [(1, 2048), (2, 64)])
@pytest.mark.parametrize("rows", [[5], [5, 777]])
def test_direct_square_sums_in_offset_order(dim, n, rows):
    # one or two anchors: each sum must add the offsets' squared terms one
    # at a time in mask order, as a sequential `acc += term * term` does
    g = make_grid(dim, n, 1.0)
    rng = np.random.default_rng(11)
    fc, A = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    B = [rng.standard_normal(g.shape) for _ in range(dim)]
    mask = ball_mask(g, 0.2)
    u = masked_offsets(g, mask)
    rows = np.array(rows)
    points = np.stack(np.unravel_index(rows, g.shape), axis=1)
    for competitor in (None, B):
        acc = np.zeros(len(rows))
        for off, u_off in zip(np.argwhere(mask), u):
            term = fc.reshape(-1)[flat_index(g, points + off)] - A.reshape(-1)[rows]
            for B_i, ui in zip(competitor or (), u_off):
                if ui != 0.0:
                    term = term - B_i.reshape(-1)[rows] * ui
            acc += term * term
        got = coeffs_mod._direct_square_sums(g, fc, A, competitor, mask, rows)
        assert np.array_equal(got, acc)


def test_exact_blocks_fall_back_to_roundoff():
    # noise outside a block, a constant (nu0, nu0_tilde) or an affine
    # (nu1) function inside: the moment expansion cancels on the block, so
    # those entries are recomputed directly and stay at roundoff
    g = make_grid(1, 1024, 1.0)
    x = np.arange(1024) * g.spacing
    noise = np.random.default_rng(5).standard_normal(1024)
    block = (x >= 0.25) & (x < 0.75)
    lad = make_ladder(g)
    inner = [c for c in range(1024) if 0.5 - 0.2 <= x[c] <= 0.5 + 0.2]
    for kind, inside in (("nu0", 2.0), ("nu0_tilde", 2.0), ("nu1", 1.5 * x - 0.3)):
        f = SampledField(grid=g, values=np.where(block, inside, noise))
        mat = coefficient_matrix(f, lad, kind)
        assert sum(matrix_metadata(mat)["fallback_counts"]) > 0
        for j, r in enumerate(lad.radii):
            if r > 0.05:
                continue  # the ball leaves the block
            for c in inner[::16]:
                want = _window_op(kind, f, BallWindow(center=(c,), radius=float(r)))
                assert want < 1e-12
                assert abs(mat.values[c, j] - want) < 1e-12
