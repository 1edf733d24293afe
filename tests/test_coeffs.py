import json
from fractions import Fraction

import numpy as np
import pytest

import msq.bmo as bmo_mod
import msq.coeffs as coeffs_mod
from msq.bmo import bmo_norm, make_ball_family
from msq.carleson import _weighted_levels, carleson_constant
from msq.coeffs import (
    _EPS,
    KINDS,
    _fft_error,
    _level,
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
)
from msq.corpus import CorpusSpec
from msq.corpus import generate as corpus_generate
from msq.experiments import default_specs
from msq.field import (
    BallWindow,
    Mollifier,
    SampledField,
    ball_mask,
    flat_index,
    make_grid,
    masked_offsets,
    mollify,
    offset_components,
    offset_sums,
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


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 32)])
def test_matrix_scales_far_above_unit(dim, n):
    # fc^4 overflows above |fc| ~ 1e77 while fc^2 stays finite; the rounding
    # scale is taken in units of 2^k, so a field scaled by 2^260 gives the
    # matrix scaled by 2^260 (within rounding) under the CLI's raise mode
    g = make_grid(dim, n, 1.0)
    lad = make_ladder(g)
    field = corpus_generate(CorpusSpec(family="cusp", grid=g, gamma=0.7))
    big = SampledField(grid=g, values=2.0**260 * field.values)
    for kind in ("nu0", "nu1", "nu1_bar"):
        want = 2.0**260 * coefficient_matrix(field, lad, kind).values
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = coefficient_matrix(big, lad, kind).values
        large = want > 1e-8 * want.max()
        assert np.max(np.abs(got[large] / want[large] - 1.0)) < 1e-12


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


def test_matrix_csv_shape(tmp_path):
    # the matrix CSV as `msq coeffs` writes it: one row per (center, radius)
    from msq.cli import EXIT_OK, main
    from msq.corpus import save_field

    g = make_grid(1, 32, 1.0)
    fld = tmp_path / "cos.fld"
    save_field(sample(g, lambda x: np.cos(2 * np.pi * x)), fld)
    lad = make_ladder(g)
    out = tmp_path / "m.csv"
    assert main(["coeffs", "--field", str(fld), "--kind", "nu0", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
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


def _complex_correlation(a, w):
    """corr(a, w) through the full complex spectra of fftn/ifftn."""
    return np.fft.ifftn(np.fft.fftn(a) * np.conj(np.fft.fftn(w))).real


@pytest.mark.parametrize("dim, n", [(1, 2048), (2, 64)])
def test_real_transforms_within_their_bounds_of_the_complex_route(dim, n, monkeypatch):
    # every correlation on rfftn half-spectra against the complex route,
    # within the rounding bound it carries: the float route's q within
    # delta, bmo_norm's ball means within bmo_sup's mean_err, and the
    # Carleson table and the mollifier within the normwise FFT error
    g = make_grid(dim, n, 1.0)
    lad, h, comps = make_ladder(g), g.spacing, offset_components(g)
    seen = []

    def recording(grid, a, points, offsets, center, term):
        seen.append((points, center))
        return offset_sums(grid, a, points, offsets, center, term)

    monkeypatch.setattr(bmo_mod, "offset_sums", recording)
    for spec in default_specs(g):
        field = corpus_generate(spec)
        fc = field.shaped - field.values.mean()
        for kind in KINDS:
            order_one = kind[2] == "1"
            for level in _moment_levels(fc, g, lad.radii, kind):
                w = level.mask.astype(float)
                T = [_complex_correlation(fc, u * w) for u in comps] if order_one else ()
                V = [float(np.sum(u * u * w)) for u in comps] if order_one else ()
                moments = (_complex_correlation(fc, w), _complex_correlation(fc * fc, w), T, V)
                competitors = None if kind in ("nu0", "nu1") else (level.A, level.B)
                ref = _level(level.r, level.mask, level.count, moments, competitors, 0.0, 0.0, 0.0)
                assert np.all(np.abs(level.q - ref.q) <= level.delta), (spec.family, kind, level.r)
        seen.clear()
        bmo_norm(field, make_ball_family(g, lad.radii))
        assert len(seen) == lad.levels
        for r, (points, mean) in zip(sorted(lad.radii), seen):
            w = ball_mask(g, r).astype(float)
            count = w.sum()
            want = _complex_correlation(fc, w).reshape(-1)[flat_index(g, points)] / count
            mean_err = _fft_error(g, fc, 0) / np.sqrt(count) + 2.0 * _EPS * np.abs(fc).max()
            assert np.all(np.abs(mean - want) <= mean_err), (spec.family, r)
        matrix = coefficient_matrix(field, lad, "nu0")
        table = carleson_constant(matrix, 0.5).normalized
        summands = _weighted_levels(matrix, 0.5)
        for j, R in enumerate(lad.radii):
            s, w = summands[:, j:].sum(axis=1).reshape(g.shape), ball_mask(g, R).astype(float)
            want = np.maximum(h ** dim * _complex_correlation(s, w) / R ** dim, 0.0)
            bound = h ** dim * _fft_error(g, s, 0) * np.sqrt(w.sum()) / R ** dim
            assert np.all(np.abs(table[:, j] - want.reshape(-1)) <= bound), (spec.family, R)
            ker = Mollifier(scale=R).kernel(g)
            want = np.fft.ifftn(np.fft.fftn(field.shaped) * np.fft.fftn(ker)).real
            bound = _fft_error(g, field.shaped, 0) * np.sqrt(np.sum(ker * ker))
            got = mollify(field, Mollifier(scale=R)).shaped
            assert np.all(np.abs(got - want) <= bound), (spec.family, R)


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
    for competitor in ([], B):
        acc = np.zeros(len(rows))
        for off, u_off in zip(np.argwhere(mask), u):
            term = fc.reshape(-1)[flat_index(g, points + off)] - A.reshape(-1)[rows]
            for B_i, ui in zip(competitor, u_off):
                if ui != 0.0:
                    term = term - B_i.reshape(-1)[rows] * ui
            acc += term * term
        got = coeffs_mod._direct_square_sums(g, fc, A, competitor, mask, rows)
        assert np.array_equal(got, acc)


@pytest.mark.parametrize("dim, n", [(1, 2048), (2, 64)])
@pytest.mark.parametrize("spec", [dict(family="smooth_bump"), dict(family="cusp", gamma=0.7),
                                  dict(family="riesz_of_noise", alpha=1.3, seed=11)])
def test_fft_error_moves_a_power_of_two_exactly(dim, n, spec):
    # the error rule of a signal a in units of 2^k does not depend on how a
    # power of two is split between a and its unit, bit for bit
    g = make_grid(dim, n, 1.0)
    f = corpus_generate(CorpusSpec(grid=g, **spec))
    a = f.shaped - f.values.mean()
    for k in (0, 3, -7):
        for j in (-40, -4, 4, 40):
            assert coeffs_mod._fft_error(g, np.ldexp(a, j), k - j) == coeffs_mod._fft_error(g, a, k)


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


# ---------------------------------------------------------------------------
# the exact route: integer slices and double-double moments


def _exact_levels(field, lad, kind):
    """The float-route levels of a matrix and, per level, the exact route's."""
    g = field.grid
    fc = field.shaped - field.values.mean()
    levels = list(_moment_levels(fc, g, lad.radii, kind))
    exact = coeffs_mod._ExactMoments(fc, g)
    return fc, levels, [exact.level(level, kind) for level in levels]


def _fraction_square_sum(grid, fc, mask, row, kind, level):
    """The residual square sum at one center in exact rational arithmetic:
    against the level's float competitors, or, for nu0 and nu1, against the
    exact window mean and least-squares slopes."""
    center = np.array(np.unravel_index(row, grid.shape))
    offs = np.argwhere(mask)
    vals = [Fraction(v) for v in fc.reshape(-1)[flat_index(grid, center + offs)].tolist()]
    u = [[Fraction(x) for x in col] for col in masked_offsets(grid, mask).T.tolist()]
    if kind in ("nu0", "nu1"):
        A = sum(vals) / len(vals)
        B = [sum(ui * (v - A) for ui, v in zip(u_i, vals)) / sum(ui * ui for ui in u_i)
             for u_i in u] if kind == "nu1" else []
    else:
        A = Fraction(float(level.A.reshape(-1)[row]))
        B = [Fraction(float(b.reshape(-1)[row])) for b in level.B or ()]
    total = Fraction(0)
    for k, v in enumerate(vals):
        res = v - A - sum((B_i * u_i[k] for B_i, u_i in zip(B, u)), Fraction(0))
        total += res * res
    return total


@pytest.mark.parametrize("dim, n, period", [(1, 1024, 1.0), (2, 32, 1.0), (1, 256, 0.3)])
def test_exact_route_matches_fraction_residuals(dim, n, period):
    # a period of 0.3 makes u = j h round, which the bound must cover too
    g = make_grid(dim, n, period)
    lad = make_ladder(g)
    rng = np.random.default_rng(17)
    for spec in default_specs(g):
        field = corpus_generate(spec)
        for kind in KINDS:
            fc, levels, exact = _exact_levels(field, lad, kind)
            for level, ex in zip(levels, exact):
                assert ex is not None
                nu, rejected = coeffs_mod._certify(ex, np.abs(fc).max())
                for row in rng.choice(g.n_points, size=2, replace=False).tolist():
                    want = _fraction_square_sum(g, fc, level.mask, row, kind, level)
                    err = abs(ex.q.reshape(-1)[row] - want)
                    assert err <= ex.delta.reshape(-1)[row], (spec.family, kind, level.r)
                    if not rejected[row]:
                        true_nu = np.sqrt(float(want) / level.count) / level.r
                        assert abs(nu[row] - true_nu) <= 1e-13 * max(1.0, true_nu)


@pytest.mark.parametrize("dim, n", [(1, 1024), (2, 32)])
def test_exact_route_matches_direct_accumulation(dim, n, monkeypatch):
    # with _EXACT_COST = 0 every level that rejects an entry takes the exact
    # route; each entry it certifies must agree with the direct sum
    g = make_grid(dim, n, 1.0)
    lad = make_ladder(g)
    for spec in default_specs(g):
        field = corpus_generate(spec)
        for kind in KINDS:
            direct = _direct_matrix(field, lad, kind, monkeypatch)
            with monkeypatch.context() as m:
                m.setattr(coeffs_mod, "_EXACT_COST", 0)
                mat = coefficient_matrix(field, lad, kind)
            assert "exact" in mat.routes or sum(mat.fallback_counts) == 0
            err = np.abs(mat.values - direct)
            assert np.all(err <= 1e-12 * np.maximum(1.0, direct)), (spec.family, kind)


def test_exact_route_keeps_blocks_at_roundoff(monkeypatch):
    # the blocks of test_exact_blocks_fall_back_to_roundoff, now certified
    # by the exact route: q cancels to double-double roundoff, so a constant
    # (nu0, nu0_tilde) or affine (nu1) block stays at roundoff
    g = make_grid(1, 1024, 1.0)
    x = np.arange(1024) * g.spacing
    noise = np.random.default_rng(5).standard_normal(1024)
    block = (x >= 0.25) & (x < 0.75)
    lad = make_ladder(g)
    inner = [c for c in range(1024) if 0.5 - 0.2 <= x[c] <= 0.5 + 0.2]
    monkeypatch.setattr(coeffs_mod, "_EXACT_COST", 0)
    for kind, inside in (("nu0", 2.0), ("nu0_tilde", 2.0), ("nu1", 1.5 * x - 0.3)):
        f = SampledField(grid=g, values=np.where(block, inside, noise))
        mat = coefficient_matrix(f, lad, kind)
        meta = matrix_metadata(mat)
        for j, r in enumerate(lad.radii):
            if r > 0.05:
                continue  # the ball leaves the block
            assert meta["routes"][j] == "exact"
            for c in inner[::16]:
                want = _window_op(kind, f, BallWindow(center=(c,), radius=float(r)))
                assert want < 1e-12
                assert mat.values[c, j] < 1e-12
                assert abs(mat.values[c, j] - want) < 1e-12


@pytest.mark.parametrize("dim, n", [(1, 2048), (2, 64)])
def test_float_route_levels_bit_for_bit(dim, n):
    # every entry the float route certifies is its sqrt(q / count) / r, bit
    # for bit: the exact route only touches the entries the float route
    # rejects
    g = make_grid(dim, n, 1.0)
    lad = make_ladder(g)
    field = corpus_generate(CorpusSpec(family="riesz_of_noise", grid=g, alpha=1.3, seed=5))
    fc = field.shaped - field.values.mean()
    for kind in ("nu0", "nu1", "nu1_bar"):
        mat = coefficient_matrix(field, lad, kind)
        assert "float" in mat.routes
        for j, level in enumerate(_moment_levels(fc, g, lad.radii, kind)):
            nu, rejected = coeffs_mod._certify(level, np.abs(fc).max())
            want = np.sqrt(np.maximum(level.q, 0.0) / level.count).reshape(-1) / level.r
            assert np.array_equal(nu, want)
            assert np.array_equal(mat.values[~rejected, j], nu[~rejected])
            if mat.routes[j] == "float":
                assert mat.fallback_counts[j] == np.count_nonzero(rejected)


def test_matrix_metadata_records_routes_and_margins():
    g = make_grid(1, 2048, 1.0)
    lad = make_ladder(g)
    for family in ("smooth_bump", "riesz_of_noise"):
        spec = CorpusSpec(family=family, grid=g, alpha=1.3, seed=5)
        meta = matrix_metadata(coefficient_matrix(corpus_generate(spec), lad, "nu1"))
        assert len(meta["routes"]) == len(meta["margins"]) == lad.levels
        assert set(meta["routes"]) <= {"float", "exact"}
        assert ("exact" in meta["routes"]) == (family == "smooth_bump")
        for margin in meta["margins"]:
            assert margin is None or margin >= 0.0
        json.dumps(meta, allow_nan=False)
    const = SampledField(grid=g, values=np.full(g.n_points, 3.0))
    meta = matrix_metadata(coefficient_matrix(const, lad, "nu0"))
    assert meta["routes"] == ["constant"] * lad.levels
    assert meta["margins"] == [None] * lad.levels


def test_coefficient_matrix_rejects_a_ladder_made_for_another_grid():
    # the ladder is checked against the field's grid by make_ladder's rule
    g = make_grid(1, 64, 1.0)
    f = corpus_generate(CorpusSpec(family="smooth_bump", grid=g))
    deep = make_ladder(make_grid(1, 256, 1.0))  # 5 levels; 3 fit above 4h here
    with pytest.raises(ValueError, match=r"^5 levels would drop below the 4h floor \(max 3\)$"):
        coefficient_matrix(f, deep, "nu0")
    wide = make_ladder(make_grid(1, 64, 2.0))  # top radius 0.5 > period/4 here
    with pytest.raises(ValueError, match="^ladder top radius exceeds period/4$"):
        coefficient_matrix(f, wide, "nu1")
    fits = make_ladder(make_grid(1, 128, 1.0), levels=3)
    assert coefficient_matrix(f, fits, "nu0").values.shape == (64, 3)
