import math

import numpy as np
import pytest

from msq.bmo import (
    CubeSpec,
    GrowthProfile,
    bmo_norm,
    holder_seminorm,
    make_ball_family,
    make_cube_family,
    strichartz_first,
    strichartz_second,
    tempered_growth,
)
from msq.coeffs import make_ladder
from msq.corpus import CorpusSpec, generate
from msq.field import BallWindow, SampledField, make_grid, sample


def _dyadic_radii(grid, levels=5):
    return [grid.period / 4.0 * 2.0**-j for j in range(levels)]


def test_bmo_constant_field_zero():
    g = make_grid(1, 128, 1.0)
    f = sample(g, lambda x: 4.0 + 0.0 * x)
    rep = bmo_norm(f, make_ball_family(g, _dyadic_radii(g), stride=4))
    assert rep.norm == pytest.approx(0.0, abs=1e-12)


def test_bmo_sign_field_oracle():
    # an interval holding mass fraction p of the positive side has mean
    # oscillation 4 p (1 - p), maximized at 1
    g = make_grid(1, 1024, 1.0)
    f = sample(g, lambda x: np.where(x < 0.5, 1.0, -1.0))
    radii = _dyadic_radii(g, 6)
    rep = bmo_norm(f, make_ball_family(g, radii, stride=1))
    assert abs(rep.norm - 1.0) <= 2 * g.spacing / min(radii)


def test_bmo_constant_shift_invariance(rough_field_1d):
    g = rough_field_1d.grid
    fam = make_ball_family(g, _dyadic_radii(g), stride=4)
    a = bmo_norm(rough_field_1d, fam)
    shifted = SampledField(grid=g, values=rough_field_1d.values + 7.0)
    b = bmo_norm(shifted, fam)
    assert b.norm == pytest.approx(a.norm, abs=1e-12)
    for ra, rb in zip(a.per_window, b.per_window):
        assert rb[2] == pytest.approx(ra[2], abs=1e-12)


def test_bmo_bounded_by_range(rough_field_1d):
    g = rough_field_1d.grid
    rep = bmo_norm(rough_field_1d, make_ball_family(g, _dyadic_radii(g), stride=4))
    spread = rough_field_1d.values.max() - rough_field_1d.values.min()
    assert rep.norm <= 2.0 * spread


def _rows_by_window(report):
    return {(tuple(int(c) for c in center), r): v for center, r, v in report.per_window}


def test_bmo_sublattice_bit_identical_to_full_lattice():
    # strided and irregular families are evaluated on the sub-torus through
    # their centers; every value must equal the stride-1 evaluation exactly
    g = make_grid(2, 64, 1.0)
    f = generate(CorpusSpec(family="riesz_of_noise", grid=g, alpha=0.5, seed=4))
    radii = make_ladder(g).radii
    full = _rows_by_window(bmo_norm(f, make_ball_family(g, radii, stride=1)))
    irregular = [BallWindow(center=c, radius=float(r))
                 for c, r in (((3, 5), radii[1]), ((8, 40), radii[0]), ((3, 5), radii[2]),
                              ((0, 0), radii[1]), ((32, 16), radii[0]), ((63, 1), radii[2]))]
    for windows in (make_ball_family(g, radii, stride=8), make_ball_family(g, radii, stride=3),
                    irregular):
        rep = bmo_norm(f, windows)
        assert len(rep.per_window) == len(windows)
        for key, v in _rows_by_window(rep).items():
            assert v == full[key]
        assert rep.norm == max(_rows_by_window(rep).values())


def test_bmo_first_invalid_window_raises_its_error(rough_field_1d):
    g = rough_field_1d.grid
    ok = BallWindow(center=(3,), radius=0.1)
    cases = (
        ([ok, BallWindow(center=(g.n_per_axis,), radius=0.1), BallWindow(center=(0, 0), radius=0.1)],
         "out of range"),
        ([ok, BallWindow(center=(0, 0), radius=0.1), BallWindow(center=(-1,), radius=0.1)],
         "rank"),
        ([ok, BallWindow(center=(5,), radius=0.3), BallWindow(center=(-1,), radius=0.1)],
         "period/4"),
        ([BallWindow(center=(5,), radius=g.spacing / 2), ok], "grid spacing"),
    )
    for windows, message in cases:
        with pytest.raises(ValueError, match=message):
            bmo_norm(rough_field_1d, windows)


def test_bmo_empty_family_rejected(rough_field_1d):
    with pytest.raises(ValueError, match="empty"):
        bmo_norm(rough_field_1d, [])


def test_holder_constant_zero():
    g = make_grid(1, 128, 1.0)
    f = sample(g, lambda x: 1.0 + 0.0 * x)
    assert holder_seminorm(f, 0.5) == 0.0


def test_holder_cusp_oracle():
    # the symmetric cusp |x - 1/2|^a has seminorm exactly one, attained on
    # pairs through the cusp point
    g = make_grid(1, 4096, 1.0)
    for a in (0.4, 0.7):
        f = sample(g, lambda x: np.abs(x - 0.5) ** a)
        s = holder_seminorm(f, a, stride=4)
        assert abs(s - 1.0) <= 0.05


def test_holder_homogeneity(rough_field_1d):
    a = holder_seminorm(rough_field_1d, 0.5, stride=4)
    scaled = SampledField(grid=rough_field_1d.grid, values=3.0 * rough_field_1d.values)
    assert holder_seminorm(scaled, 0.5, stride=4) == pytest.approx(3.0 * a, rel=1e-12)


def test_holder_2d_runs():
    g = make_grid(2, 32, 1.0)
    f = sample(g, lambda x, y: np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
    s = holder_seminorm(f, 0.5, stride=2)
    assert s > 0


def test_strichartz_constant_zero():
    g = make_grid(1, 128, 1.0)
    f = sample(g, lambda x: 2.0 + 0.0 * x)
    cubes = make_cube_family(g, stride=32)
    assert strichartz_first(f, 0.5, cubes).B == 0.0
    assert strichartz_second(f, 1.3, cubes).B == 0.0


def test_strichartz_homogeneity(rough_field_1d):
    g = rough_field_1d.grid
    cubes = make_cube_family(g, stride=64)
    B = strichartz_first(rough_field_1d, 0.4, cubes).B
    scaled = SampledField(grid=g, values=5.0 * rough_field_1d.values)
    assert strichartz_first(scaled, 0.4, cubes).B == pytest.approx(5.0 * B, rel=1e-12)


def test_strichartz_invariance_under_constants_and_affine():
    g = make_grid(1, 256, 1.0)
    rng = np.random.default_rng(21)
    f = SampledField(grid=g, values=rng.standard_normal(256))
    cubes = [CubeSpec(center=(128,), side=0.25)]  # interior cube
    B1 = strichartz_first(f, 0.5, cubes).B
    B2 = strichartz_second(f, 1.3, cubes).B
    shifted = SampledField(grid=g, values=f.values + 9.0)
    assert strichartz_first(shifted, 0.5, cubes).B == pytest.approx(B1, abs=1e-10)
    assert strichartz_second(shifted, 1.3, cubes).B == pytest.approx(B2, abs=1e-10)
    x = np.arange(256) / 256.0
    affine = SampledField(grid=g, values=f.values + 0.4 - 2.0 * x)
    assert strichartz_second(affine, 1.3, cubes).B == pytest.approx(B2, abs=1e-8)


def test_strichartz_second_kills_affine():
    g = make_grid(1, 256, 1.0)
    f = sample(g, lambda x: 2.0 * x - 0.7)
    cube = CubeSpec(center=(128,), side=0.25)  # interior, away from the wrap
    assert strichartz_second(f, 1.2, [cube]).B < 1e-10


def test_strichartz_second_quadratic_closed_form():
    # on x^2 the symmetric second difference is exactly 2 y^2; the cube
    # value reduces to a finite double sum evaluated independently here
    g = make_grid(1, 512, 1.0)
    f = sample(g, lambda x: (x - 0.5) ** 2)
    side, center = 0.25, 256
    cube = CubeSpec(center=(center,), side=side)
    alpha = 1.3
    h = g.spacing
    m = cube.points_per_axis(g)
    total = 0.0
    for o in range(1, (m - 1) // 2 + 1):
        count = m - 2 * o
        total += 2.0 * count * (2.0 * (o * h) ** 2) ** 2 / (o * h) ** (1 + 2 * alpha)
    expected = math.sqrt(h**2 * total / side)
    got = strichartz_second(f, alpha, [cube]).B
    assert got == pytest.approx(expected, abs=1e-6)


def test_strichartz_first_differences_brute_force():
    g = make_grid(1, 64, 1.0)
    rng = np.random.default_rng(9)
    f = SampledField(grid=g, values=rng.standard_normal(64))
    cube = CubeSpec(center=(20,), side=0.125)
    alpha = 0.6
    h = g.spacing
    m = cube.points_per_axis(g)
    lo = 20 - m // 2
    v = np.array([f.values[(lo + i) % 64] for i in range(m)])
    tot = 0.0
    for i in range(m):
        for k in range(m):
            if i != k:
                tot += (v[k] - v[i]) ** 2 / (abs(k - i) * h) ** (1 + 2 * alpha)
    expected = math.sqrt(h**2 * tot / cube.side)
    assert strichartz_first(f, alpha, [cube]).B == pytest.approx(expected, rel=1e-12)


def test_strichartz_second_brute_force_2d():
    g = make_grid(2, 16, 1.0)
    rng = np.random.default_rng(10)
    f = SampledField(grid=g, values=rng.standard_normal(256))
    cube = CubeSpec(center=(7, 9), side=0.375)
    alpha = 1.1
    h = g.spacing
    m = cube.points_per_axis(g)
    lo = (7 - m // 2, 9 - m // 2)
    v = np.array(
        [[f.shaped[(lo[0] + i) % 16, (lo[1] + j) % 16] for j in range(m)] for i in range(m)]
    )
    tot = 0.0
    for i in range(m):
        for j in range(m):
            for o1 in range(-(m - 1), m):
                for o2 in range(-(m - 1), m):
                    if o1 == 0 and o2 == 0:
                        continue
                    if 0 <= i + o1 < m and 0 <= i - o1 < m and 0 <= j + o2 < m and 0 <= j - o2 < m:
                        d = math.hypot(o1 * h, o2 * h)
                        tot += (2 * v[i, j] - v[i + o1, j + o2] - v[i - o1, j - o2]) ** 2 / d ** (
                            2 + 2 * alpha
                        )
    expected = math.sqrt(h**4 * tot / cube.side**2)
    assert strichartz_second(f, alpha, [cube]).B == pytest.approx(expected, rel=1e-12)


def test_cube_validation():
    g = make_grid(1, 64, 1.0)
    with pytest.raises(ValueError, match="period/2"):
        CubeSpec(center=(0,), side=0.6).validate(g)
    with pytest.raises(ValueError, match="4h"):
        CubeSpec(center=(0,), side=2.0 / 64).validate(g)


def test_strichartz_refinement_stability():
    # single-mode field: the functional drifts below 20 percent when the
    # grid is doubled at a fixed cube family
    alpha = 0.5
    values = []
    for n in (256, 512):
        g = make_grid(1, n, 1.0)
        f = sample(g, lambda x: np.cos(2 * np.pi * x))
        cubes = [CubeSpec(center=(n // 2,), side=0.25), CubeSpec(center=(0,), side=0.5)]
        values.append(strichartz_first(f, alpha, cubes).B)
    assert abs(values[1] - values[0]) / values[0] < 0.2


def test_difference_functionals_track_derivative_norm():
    # recorded two-sided band: B / ||D_alpha f||_* within [1/8, 8] on the
    # small corpus (measured values sit between 1.5 and 3.5)
    from msq.corpus import CorpusSpec, expected_regularity, generate
    from msq.spectral import fractional_derivative

    g = make_grid(1, 512, 1.0)
    radii = _dyadic_radii(g, 6)
    cubes = make_cube_family(g, stride=64)
    windows = make_ball_family(g, radii, stride=2)
    specs = [
        CorpusSpec(family="smooth_bump", grid=g),
        CorpusSpec(family="riesz_of_noise", grid=g, alpha=1.3, seed=42),
    ]
    for s in specs:
        f = generate(s)
        lo, hi = expected_regularity(s).alpha_band
        for alpha in (0.5, 0.8):
            if not (lo < alpha <= hi):
                continue
            nrm = bmo_norm(fractional_derivative(f, alpha), windows).norm
            ratio = strichartz_first(f, alpha, cubes).B / nrm
            assert 1.0 / 8.0 < ratio < 8.0
        for alpha in (0.5, 1.3):
            if not (lo < alpha <= hi):
                continue
            nrm = bmo_norm(fractional_derivative(f, alpha), windows).norm
            ratio = strichartz_second(f, alpha, cubes).B / nrm
            assert 1.0 / 8.0 < ratio < 8.0


def test_tempered_growth_constant_function():
    prof = GrowthProfile(fn=lambda t: 1.0, growth_exponent=0.0)
    rep = tempered_growth(prof, epsilon=1.0, cutoff=1e3)
    assert rep.verdict == "finite"
    assert rep.truncated == pytest.approx(math.pi - 2.0 / 1e3, abs=1e-6)
    assert rep.tail_bound < 2e-3


def test_tempered_growth_exponent_comparison():
    grow = GrowthProfile(fn=lambda t: abs(t) ** 1.5, growth_exponent=1.5)
    assert tempered_growth(grow, epsilon=1.0, cutoff=50.0).verdict == "divergent tail"
    ok = GrowthProfile(fn=lambda t: abs(t) ** 0.5, growth_exponent=0.5)
    assert tempered_growth(ok, epsilon=1.0, cutoff=50.0).verdict == "finite"


def test_tempered_growth_2d():
    prof = GrowthProfile(fn=lambda x, y: 1.0, growth_exponent=0.0, dim=2)
    rep = tempered_growth(prof, epsilon=0.5, cutoff=30.0)
    assert rep.verdict == "finite"
    assert rep.truncated > 0
