import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from msq import bmo as bmo_mod
from msq.bmo import (
    CubeSpec,
    bmo_norm,
    holder_seminorm,
    make_ball_family,
    make_cube_family,
    strichartz_first,
    strichartz_second,
)
from msq.coeffs import make_ladder
from msq.corpus import CorpusSpec, generate
from msq.field import BallWindow, SampledField, ball_mask, lattice_centers, make_grid, sample


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


def _fields(report):
    """A report's fields with the arrays as lists, comparable with ==."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(report).items()}


def _as_list(family, kind):
    """The per-window objects (BallWindow or CubeSpec) of a window family."""
    return [kind(tuple(c), s) for c, s in zip(family.centers.tolist(), family.sizes.tolist())]


def test_bmo_sublattice_bit_identical_to_full_lattice():
    # strided and irregular families read only their own centers (gathered
    # or taken from the rolled grid); every value must equal the stride-1
    # evaluation exactly
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
    # a family and its BallWindow list give equal reports, in 2-d and 1-d
    g1 = make_grid(1, 256, 1.0)
    f1 = generate(CorpusSpec(family="riesz_of_noise", grid=g1, alpha=0.5, seed=4))
    for field in (f, f1):
        for stride in (1, 3):
            family = make_ball_family(field.grid, make_ladder(field.grid).radii, stride=stride)
            listed = bmo_norm(field, _as_list(family, BallWindow))
            assert _fields(bmo_norm(field, family)) == _fields(listed)


@pytest.mark.parametrize("center", [0, 5, 777])
def test_bmo_one_window_sums_in_offset_order(center):
    # one anchor reads one column per block; it must be summed offset by
    # offset like every wider family, not in numpy's pairwise order
    g = make_grid(1, 2048, 1.0)
    f = generate(CorpusSpec(family="riesz_of_noise", grid=g, alpha=0.5, seed=4))
    a = f.values
    for radius in (0.01, 0.1, 0.2):
        mask = ball_mask(g, radius)
        count = int(mask.sum())
        Fm = np.conj(np.fft.fftn(mask.astype(float)))
        mean = np.fft.ifftn(np.fft.fftn(f.shaped) * Fm).real.reshape(-1)[[center]] / count
        acc = np.zeros(1)
        for (o,) in np.argwhere(mask):
            acc += np.abs(a[[(center + o) % 2048]] - mean)
        rep = bmo_norm(f, [BallWindow(center=(center,), radius=radius)])
        assert np.array_equal(rep.values, acc / count)


def test_bmo_rows_by_radius_then_input_order(rough_field_1d):
    g = rough_field_1d.grid
    radii = [0.0625, 0.25, 0.125, 0.125]  # out of order, one repeated
    rep = bmo_norm(rough_field_1d, make_ball_family(g, radii, stride=32))
    centers = [tuple(c) for c in lattice_centers(g, 32).tolist()]
    want = [(c, r) for r in (0.0625, 0.125, 0.125, 0.25) for c in centers]
    assert [(c, r) for c, r, _ in rep.per_window] == want
    windows = [BallWindow(center=c, radius=r)
               for c, r in (((9,), 0.125), ((2,), 0.0625), ((5,), 0.125), ((9,), 0.125))]
    rep = bmo_norm(rough_field_1d, windows)
    assert [(c, r) for c, r, _ in rep.per_window] == [
        ((2,), 0.0625), ((9,), 0.125), ((5,), 0.125), ((9,), 0.125)]


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


def test_strichartz_first_invalid_cube_raises_its_error(rough_field_1d):
    g = rough_field_1d.grid
    ok = CubeSpec(center=(3,), side=0.25)
    cubes = [ok, CubeSpec(center=(5,), side=5 * g.spacing), CubeSpec(center=(0,), side=0.6)]
    for family in (cubes, make_cube_family(g, sides=[0.25, 5 * g.spacing, 0.6], stride=64)):
        with pytest.raises(ValueError, match="even multiple"):
            strichartz_first(rough_field_1d, 0.5, family)
        with pytest.raises(ValueError, match="even multiple"):
            strichartz_second(rough_field_1d, 1.3, family)


def test_cube_family_first_failing_row_wins(rough_field_1d):
    # rows breaking different rules: the first failing row in input order
    # raises its own first failing rule, for a family and a list alike
    g = rough_field_1d.grid  # n = 256, h = 1/256
    h = g.spacing
    bad = [  # each row also breaks the rules after its first
        (math.inf, "cube side inf is not finite"),
        (0.6 + h / 3, f"cube side {0.6 + h / 3} exceeds period/2 (aliasing)"),
        (3 * h, f"cube side {3 * h} below 4h"),
        (5 * h, "cube side must be an even multiple of the spacing"),
    ]
    for k, (side, message) in enumerate(bad):
        sides = [0.25] + [s for s, _ in bad[k:]] + [0.25]
        cubes = [CubeSpec(center=(3 * i,), side=s) for i, s in enumerate(sides)]
        family = make_cube_family(g, sides=sides, stride=256)
        for windows in (cubes, family):
            with pytest.raises(ValueError) as exc:
                strichartz_first(rough_field_1d, 0.5, windows)
            assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            CubeSpec(center=(0,), side=side).validate(g)
        assert str(exc.value) == message
    cubes = [CubeSpec(center=(0,), side=0.25), CubeSpec(center=(0, 0), side=math.nan)]
    with pytest.raises(ValueError, match="^cube center rank does not match grid dim$"):
        strichartz_second(rough_field_1d, 1.3, cubes)


@pytest.mark.parametrize("call, alpha, message", [
    ("first", 1.0, "alpha must lie in (0, 1), got 1.0"),
    ("first", 0.0, "alpha must lie in (0, 1), got 0.0"),
    ("second", 2, "alpha must lie in (0, 2), got 2.0"),
    ("second", math.nan, "alpha must lie in (0, 2), got nan"),
    ("holder", 1.5, "alpha must lie in (0, 1], got 1.5"),
    ("holder", -0.5, "alpha must lie in (0, 1], got -0.5"),
])
def test_alpha_out_of_range(rough_field_1d, call, alpha, message):
    f = rough_field_1d
    cubes = make_cube_family(f.grid)
    run = {"first": lambda a: strichartz_first(f, a, cubes),
           "second": lambda a: strichartz_second(f, a, cubes),
           "holder": lambda a: holder_seminorm(f, a, stride=64)}[call]
    with pytest.raises(ValueError) as exc:
        run(alpha)
    assert str(exc.value) == message
    if call == "holder":  # the closed end is accepted
        assert holder_seminorm(f, 1.0, stride=64) > 0.0


def test_cube_family_default_sides():
    # period/2 down to 4h; a tiny period must not loop forever
    for period in (1.0, 1e-13):
        g = make_grid(2, 64, period)
        family = make_cube_family(g)
        assert np.unique(family.sizes).tolist() == [period / 16, period / 8, period / 4, period / 2]
        assert len(family) == 4 * 8 ** 2


def test_bmo_empty_family_rejected(rough_field_1d):
    with pytest.raises(ValueError, match="empty"):
        bmo_norm(rough_field_1d, [])


def test_non_integer_center_rejected(rough_field_1d):
    # a float center fails before the conversion to int, which truncated
    # it to center 6
    with pytest.raises(ValueError, match=r"^window center index \(6\.7,\) is not an integer$"):
        bmo_norm(rough_field_1d, [BallWindow(center=(6.7,), radius=0.1)])
    with pytest.raises(ValueError, match=r"^window center index \(6\.5,\) is not an integer$"):
        strichartz_first(rough_field_1d, 0.5, [CubeSpec(center=(6.5,), side=0.25)])
    # an integral float center is the grid point it names
    rows = bmo_norm(rough_field_1d, [BallWindow(center=(6.0,), radius=0.1)]).per_window
    assert rows == bmo_norm(rough_field_1d, [BallWindow(center=(6,), radius=0.1)]).per_window


def _counting_bmo_norm(monkeypatch):
    """Patch bmo.bmo_norm to record the windows of each call."""
    seen = []

    def counted(field, windows):
        seen.append(windows)
        return bmo_norm(field, windows)

    monkeypatch.setattr(bmo_mod, "bmo_norm", counted)
    return seen


def _sup_of_norm(field, windows):
    report = bmo_norm(field, windows)
    return report.norm, report.metadata["argmax"]


def test_bmo_sup_prunes_and_matches_bmo_norm(monkeypatch):
    # the bound rules out most balls of a smooth field, and the supremum
    # still comes out bit for bit, with its argmax
    g = make_grid(1, 2048, 1.0)
    f = generate(CorpusSpec(family="smooth_bump", grid=g))
    family = make_ball_family(g, make_ladder(g).radii, stride=1)
    seen = _counting_bmo_norm(monkeypatch)
    assert bmo_mod.bmo_sup(f, family) == _sup_of_norm(f, family)
    assert len(seen) == 1 and len(seen[0]) < len(family) // 10


@pytest.mark.parametrize("values", [
    lambda n, rng: np.full(n, 3.7),
    lambda n, rng: 1e8 + 1e-6 * rng.standard_normal(n),
], ids=["constant", "offset"])
def test_bmo_sup_evaluates_every_window_where_the_bound_cannot_help(monkeypatch, values):
    # a constant field has nothing to bound, and on a large offset
    # bmo_norm's mean error swamps the noise, so no window is ruled out
    g = make_grid(1, 2048, 1.0)
    f = SampledField(grid=g, values=values(g.n_points, np.random.default_rng(3)))
    family = make_ball_family(g, make_ladder(g).radii, stride=1)
    seen = _counting_bmo_norm(monkeypatch)
    assert bmo_mod.bmo_sup(f, family) == _sup_of_norm(f, family)
    assert len(seen[0]) == len(family)


def test_bmo_sup_cost_rule_skips_small_families(monkeypatch):
    # below _BOUND_COST direct terms per grid point the family goes to
    # bmo_norm as given
    g = make_grid(2, 128, 1.0)
    f = generate(CorpusSpec(family="riesz_of_noise", grid=g, alpha=1.3, seed=5))
    family = make_ball_family(g, make_ladder(g).radii, stride=8)
    seen = _counting_bmo_norm(monkeypatch)
    assert bmo_mod.bmo_sup(f, family) == _sup_of_norm(f, family)
    assert seen[0] is family


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_bmo_sup_far_from_unit_scale_under_raise_mode(scale):
    # the bound runs with floating-point errors ignored and in units of a
    # power of two, so the CLI's raise mode sees nothing new
    g = make_grid(1, 2048, 1.0)
    f = generate(CorpusSpec(family="riesz_of_noise", grid=g, alpha=0.5, seed=4))
    f = SampledField(grid=g, values=scale * f.values)
    family = make_ball_family(g, make_ladder(g).radii, stride=1)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        assert bmo_mod.bmo_sup(f, family) == _sup_of_norm(f, family)


def test_bmo_sup_rejects_as_bmo_norm(rough_field_1d):
    with pytest.raises(ValueError, match="empty window family"):
        bmo_mod.bmo_sup(rough_field_1d, [])
    bad = [BallWindow(center=(3,), radius=0.1), BallWindow(center=(5,), radius=0.3)]
    with pytest.raises(ValueError, match="exceeds period/4"):
        bmo_mod.bmo_sup(rough_field_1d, bad)


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


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
def test_holder_strided_brute_force(dim, n):
    # every stride-th anchor against every grid point within period/4
    g = make_grid(dim, n, 1.0)
    f = SampledField(grid=g, values=np.random.default_rng(7).standard_normal(g.n_points))
    idx = np.stack(np.unravel_index(np.arange(g.n_points), g.shape), axis=1)
    best = 0.0
    for x in idx[np.all(idx % 3 == 0, axis=1)]:
        d = (idx - x + n // 2) % n - n // 2
        dist = np.sqrt(np.sum((d * g.spacing) ** 2, axis=1))
        near = (dist > 0) & (dist <= g.period / 4)
        jumps = np.abs(f.values[near] - f.shaped[tuple(x)]) / dist[near] ** 0.5
        best = max(best, float(jumps.max()))
    assert holder_seminorm(f, 0.5, stride=3) == pytest.approx(best, rel=1e-12)
    for stride in (0, -1):
        with pytest.raises(ValueError, match="positive integer"):
            holder_seminorm(f, 0.5, stride=stride)


def test_holder_tests_anti_diagonal_pairs():
    # |sin(pi (x - y))|^a varies fastest along (1, -1): offsets with both
    # components >= 0 give at most 1.772 here, the (1, -1) pairs 2.106
    g = make_grid(2, 64, 1.0)
    f = sample(g, lambda x, y: np.abs(np.sin(np.pi * (x - y))) ** 0.5)
    h = g.spacing
    anti = np.abs(np.roll(f.shaped, (-1, 1), axis=(0, 1)) - f.shaped).max() / math.hypot(h, h) ** 0.5
    assert anti > 2.1
    assert holder_seminorm(f, 0.5, stride=1) >= anti


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


def _brute_force_cube(dim, seed):
    """A random field on a 2-d n=16 or 1-d n=64 grid, a cube off the origin,
    and the cube's values with their integer positions."""
    n = 64 if dim == 1 else 16
    g = make_grid(dim, n, 1.0)
    f = SampledField(grid=g, values=np.random.default_rng(seed).standard_normal(n**dim))
    center = (20,) if dim == 1 else (7, 9)
    cube = CubeSpec(center=center, side=0.125 if dim == 1 else 0.375)
    m = cube.points_per_axis(g)
    axes = [(np.arange(m) + c - m // 2) % n for c in center]
    v = f.shaped[np.ix_(*axes)]
    return f, cube, v, list(np.ndindex(v.shape))


def _check_cube_families(functional, f, alpha, cube, expected):
    """Cube families of the cube's side at strides 1 and 3 report == their
    CubeSpec lists, and at stride 1 the cube's row is the brute-force value."""
    for stride in (1, 3):
        family = make_cube_family(f.grid, sides=[cube.side], stride=stride)
        rep = functional(f, alpha, family)
        assert _fields(rep) == _fields(functional(f, alpha, _as_list(family, CubeSpec)))
        if stride == 1:
            rows = {center: v for center, _, v in rep.per_cube}
            assert rows[cube.center] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_strichartz_first_differences_brute_force(dim):
    f, cube, v, points = _brute_force_cube(dim, 9)
    alpha = 0.6
    h = f.grid.spacing
    tot = 0.0
    for p in points:
        for q in points:
            if p != q:
                d = math.hypot(*[(b - a) * h for a, b in zip(p, q)])
                tot += (v[q] - v[p]) ** 2 / d ** (dim + 2 * alpha)
    expected = math.sqrt(h ** (2 * dim) * tot / cube.side**dim)
    assert strichartz_first(f, alpha, [cube]).B == pytest.approx(expected, rel=1e-12)
    _check_cube_families(strichartz_first, f, alpha, cube, expected)


@pytest.mark.parametrize("dim", [1, 2])
def test_strichartz_second_brute_force(dim):
    f, cube, v, points = _brute_force_cube(dim, 10)
    alpha = 1.1
    h = f.grid.spacing
    inside = set(points)
    tot = 0.0
    for x in points:
        for y in points:
            o = tuple(b - a for a, b in zip(x, y))  # y = x + o
            mirror = tuple(a - b for a, b in zip(x, o))
            if any(o) and mirror in inside:
                d = math.hypot(*[c * h for c in o])
                tot += (2 * v[x] - v[y] - v[mirror]) ** 2 / d ** (dim + 2 * alpha)
    expected = math.sqrt(h ** (2 * dim) * tot / cube.side**dim)
    assert strichartz_second(f, alpha, [cube]).B == pytest.approx(expected, rel=1e-12)
    _check_cube_families(strichartz_second, f, alpha, cube, expected)


def test_cube_validation():
    g = make_grid(1, 64, 1.0)
    with pytest.raises(ValueError, match="period/2"):
        CubeSpec(center=(0,), side=0.6).validate(g)
    with pytest.raises(ValueError, match="4h"):
        CubeSpec(center=(0,), side=2.0 / 64).validate(g)


@pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf])
def test_non_finite_window_size_rejected(rough_field_1d, size):
    # the finiteness check comes first: no arithmetic (and so no numpy
    # warning) on the size before it, for a window, a list and a family
    g = rough_field_1d.grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="side .* is not finite"):
            CubeSpec(center=(0,), side=size).validate(g)
        with pytest.raises(ValueError, match="radius .* is not finite"):
            BallWindow(center=(0,), radius=size).validate(g)
        for cubes in ([CubeSpec(center=(3,), side=0.25), CubeSpec(center=(5,), side=size)],
                      make_cube_family(g, sides=[0.25, size], stride=64)):
            with pytest.raises(ValueError, match="side .* is not finite"):
                strichartz_first(rough_field_1d, 0.5, cubes)
        for balls in ([BallWindow(center=(3,), radius=0.125), BallWindow(center=(5,), radius=size)],
                      make_ball_family(g, [0.125, size], stride=64)):
            with pytest.raises(ValueError, match="radius .* is not finite"):
                bmo_norm(rough_field_1d, balls)


_STEPS = {"first_difference": (1, 0), "second_difference": (0, 1, -1)}


def _offset_terms(v, h, expo, order):
    """Per row o of the offset table of a (k, m, ..., m) stack: the weight
    |o h|^(-expo) and the blocks of the points x + j o for each step j,
    with x over the points whose every read lies in the cube, found here
    point by point."""
    steps, m = _STEPS[order], v.shape[1]
    for off in bmo_mod._offset_table(m, v.ndim - 1, order).tolist():
        xs = [[x for x in range(m) if all(0 <= x + j * o < m for j in steps)] for o in off]
        blocks = [v[(slice(None), *[slice(x[0] + j * o, x[-1] + 1 + j * o)
                                    for x, o in zip(xs, off)])]
                  for j in steps]
        yield math.hypot(*[o * h for o in off]) ** (-expo), blocks


@pytest.mark.parametrize("order", ["first_difference", "second_difference"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("m", [4, 6, 8, 16])
def test_offset_table_matches_product_reference(m, dim, order):
    # the rows and their order: every offset in lexicographic order whose
    # first nonzero entry is positive and whose reads fit in the cube at
    # some point x
    steps = _STEPS[order]
    fits = [a for a in range(-m, m + 1)
            if any(all(0 <= x + j * a < m for j in steps) for x in range(m))]
    reference = [o for o in itertools.product(range(-m, m + 1), repeat=dim)
                 if next((a for a in o if a), 0) > 0 and all(a in fits for a in o)]
    table = bmo_mod._offset_table(m, dim, order)
    assert table.dtype.kind == "i" and table.shape == (len(reference), dim)
    assert list(map(tuple, table.tolist())) == reference


def test_offset_table_built_once_per_side_and_order(rough_field_2d, monkeypatch):
    # a family of three sides cut into many stacks: each call builds one
    # table per side
    monkeypatch.setattr(bmo_mod, "_STACK_POINTS", 100)
    built, table = [], bmo_mod._offset_table
    monkeypatch.setattr(bmo_mod, "_offset_table", lambda *a: built.append(a) or table(*a))
    g = rough_field_2d.grid
    family = make_cube_family(g, sides=[4 * g.spacing, 6 * g.spacing, 8 * g.spacing], stride=4)
    for functional, alpha, order in ((strichartz_first, 0.5, "first_difference"),
                                     (strichartz_second, 1.3, "second_difference")):
        built.clear()
        functional(rough_field_2d, alpha, family)
        assert built == [(m, 2, order) for m in (4, 6, 8)]


def _one_cube_value(f, cube, alpha, order):
    """A cube's normalized difference sum as one cube alone is summed: each
    offset's block by np.sum, the block sums added by math.fsum."""
    g = f.grid
    d, h, m = g.dim, g.spacing, cube.points_per_axis(g)
    v = f.shaped[np.ix_(*[(np.arange(m) + c - m // 2) % g.n_per_axis for c in cube.center])]
    rows = []
    for w, a in _offset_terms(v[None], h, d + 2.0 * alpha, order):
        diff = a[0] - a[1] if len(a) == 2 else 2.0 * a[0] - a[1] - a[2]
        rows.append(2.0 * w * float(np.sum(diff ** 2)))
    return math.sqrt(h ** (2 * d) * math.fsum(rows) / cube.side ** d)


@pytest.mark.parametrize("stack_points", [None, 100])
@pytest.mark.parametrize("dim", [1, 2])
def test_strichartz_stacked_sides_match_one_cube_calls(rough_field_1d, rough_field_2d, dim,
                                                       stack_points, monkeypatch):
    # sides interleave and one cube repeats: every row keeps its input
    # place and equals (==) a one-cube call; a second-order value, and a
    # first-order one with the certificate forced to fail (tau = 0), also
    # equals the one-cube sum, and a first-order value of the FFT route
    # lies within 1e-12 of it; stack_points=100 cuts each side's cubes
    # into several stacks
    if stack_points is not None:
        monkeypatch.setattr(bmo_mod, "_STACK_POINTS", stack_points)
    f = rough_field_1d if dim == 1 else rough_field_2d
    n, h = f.grid.n_per_axis, f.grid.spacing
    points = (16, 8, 6) if dim == 1 else (8, 4, 6)
    sides = [points[i] * h for i in (0, 1, 0, 2, 1, 0)]
    centers = [(0,) * dim, (n - 1,) * dim, (5,) * dim, (0,) * dim, (n // 2,) * dim, (0,) * dim]
    cubes = [CubeSpec(center=c, side=s) for c, s in zip(centers, sides)]
    for functional, alpha, order in ((strichartz_first, 0.5, "first_difference"),
                                     (strichartz_second, 1.3, "second_difference")):
        rep = functional(f, alpha, cubes)
        assert [(c, s) for c, s, _ in rep.per_cube] == list(zip(centers, sides))
        one = [functional(f, alpha, [cube]).values[0] for cube in cubes]
        assert rep.values.tolist() == one
        direct = [_one_cube_value(f, cube, alpha, order) for cube in cubes]
        if order == "second_difference":
            assert one == direct
        else:
            assert one == pytest.approx(direct, rel=1e-12)
            with monkeypatch.context() as forced:
                forced.setattr(bmo_mod, "_FORM_TAU", 0.0)
                assert functional(f, alpha, cubes).values.tolist() == direct
        assert rep.values[0] == rep.values[5]


def _cube_stack(f, centers, m):
    """The (k, m, ..., m) values of the cubes of m points per axis at the
    given centers."""
    g = f.grid
    return np.stack([f.shaped[np.ix_(*[(np.arange(m) + c - m // 2) % g.n_per_axis for c in center])]
                     for center in centers])


def _exact_first_total(v, h, expo):
    """One cube's first-difference sum over ordered pairs x != y, exact in
    rationals from the float weights of the offset table and the float
    values v."""
    m, d = v.shape[0], v.ndim
    total = Fraction(0)
    for w, (plus, x) in _offset_terms(v[None], h, expo, "first_difference"):
        pairs = zip(plus.ravel().tolist(), x.ravel().tolist())
        total += 2 * Fraction(w) * sum((Fraction(a) - Fraction(b)) ** 2 for a, b in pairs)
    return total


@pytest.mark.parametrize("dim, n, points", [(1, 128, (8, 16)), (2, 32, (4, 8))])
def test_first_difference_form_error_within_its_bound(dim, n, points):
    # against the exact rational sum, the quadratic form of every cube errs
    # by at most a quarter of its rounding bound delta (observed: below
    # 4 percent here, and below 5 percent on the cusp, smooth_bump and
    # riesz_of_noise cubes of 2-d n=64 to 256 and 1-d n=1024 against
    # extended-precision sums); as in _strichartz, only cubes that are not
    # constant reach the form
    g = make_grid(dim, n, 1.0)
    h = g.spacing
    specs = [dict(family="cusp", gamma=0.5), dict(family="smooth_bump"),
             dict(family="riesz_of_noise", alpha=0.8, seed=4), dict(family="sign_jump")]
    for alpha in (0.3, 0.7):
        expo = dim + 2.0 * alpha
        for spec in specs:
            f = generate(CorpusSpec(grid=g, **spec))
            for m in points:
                centers = make_cube_family(g, sides=[m * h], stride=n // 2).centers.tolist()
                stack = _cube_stack(f, centers, m)
                stack = stack[[v.max() != v.min() for v in stack]]
                offsets = bmo_mod._offset_table(m, dim, "first_difference")
                near = offsets[np.abs(offsets).max(axis=1) <= bmo_mod._NEAR_REACH]
                totals, delta = bmo_mod._first_difference_fft(
                    stack, bmo_mod._first_difference_form(m, dim, h, expo), near, h, expo)
                for v, t, bound in zip(stack, totals.tolist(), delta.tolist()):
                    exact = _exact_first_total(v, h, expo)
                    assert abs(Fraction(t) - exact) <= Fraction(bound) / 4, (spec, m)


def _exact_sums(blocks):
    """The correctly rounded sum of each row of the (k, n_j) float blocks
    put side by side.  Each entry x splits exactly into hi, x with its low
    26 fraction bits cleared, and lo = x - hi.  Over the entries whose
    exponent field is e, hi is a multiple of 2^(e-1049) below 2^(e-1022)
    and lo a multiple of 2^(e-1075) below 2^(e-1049), so the per-exponent
    float sums of np.bincount are exact while a row has fewer than 2^26
    entries and none overflows; math.fsum adds them and rounds once."""
    blocks, bins = iter(blocks), 0.0
    while batch := list(itertools.islice(blocks, 8)):
        x = np.concatenate(batch, axis=1)
        bits = x.view(np.int64)
        hi = (bits & -2**26).view(np.float64)
        exponent = (bits >> 52) & 2047
        bins = bins + np.array([[np.bincount(e, weights=part, minlength=2048)
                                 for part in (row_hi, row_lo)]
                                for e, row_hi, row_lo in zip(exponent, hi, x - hi)])
    return [math.fsum(row.ravel().tolist()) for row in bins]


def test_exact_sums_reference():
    # the reference sum of the test below against math.fsum, on signed
    # entries over the whole exponent range, subnormals and signed zeros
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 6000)) * 10.0 ** rng.integers(-320, 300, (2, 6000))
    x[0, :6] = [5e-324, -5e-324, 0.0, -0.0, 1e308, -1e308]
    x[1] = np.abs(x[1])
    blocks = np.split(x, [1, 7, 2500], axis=1)
    assert _exact_sums(blocks) == [math.fsum(row) for row in x.tolist()]


def test_direct_totals_within_eps_of_the_exact_sum():
    # the direct route (the fallback and oracle of the FFT form) adds each
    # cube's offset-row sums by one fsum: on two m=64 cubes of a rough
    # 2-d n=128 field, with 8,064 first-difference and 1,984
    # second-difference rows, every total lies within 1e-15 relative of the
    # correctly rounded sum of all its float terms (accumulating the rows
    # one after another erred by up to 4.9e-15)
    g = make_grid(2, 128, 1.0)
    h, m = g.spacing, 64
    f = generate(CorpusSpec(family="riesz_of_noise", grid=g, alpha=0.8, seed=11))
    stack = _cube_stack(f, [(32, 32), (96, 32)], m)
    for order in ("first_difference", "second_difference"):
        offsets = bmo_mod._offset_table(m, 2, order)
        totals = bmo_mod._stack_totals(stack, offsets, h, 3.0, order).tolist()

        def point_terms():  # (cube, point) terms, one offset row at a time
            for w, a in _offset_terms(stack, h, 3.0, order):
                diff = a[0] - a[1] if len(a) == 2 else 2.0 * a[0] - a[1] - a[2]
                diff *= diff
                diff *= 2.0 * w  # 2.0 * w * diff ** 2, in place
                yield diff.reshape(len(stack), -1)

        for total, exact in zip(totals, _exact_sums(point_terms())):
            assert abs(total - exact) <= 1e-15 * exact, order


def test_strichartz_first_constant_cubes_exactly_zero():
    # 0.1 + a bump: the cubes off the bump are constant, and their mean is
    # not exactly 0.1; their values are exactly 0, as their direct sums are
    g = make_grid(2, 32, 1.0)
    h = g.spacing
    bump = generate(CorpusSpec(family="smooth_bump", grid=g))
    f = SampledField(grid=g, values=0.1 + bump.values)
    family = make_cube_family(g)
    rep = strichartz_first(f, 0.5, family)
    constant = 0
    for center, side, value in zip(family.centers.tolist(), family.sizes.tolist(),
                                   rep.values.tolist()):
        m = int(round(side / h))
        stack = _cube_stack(f, [center], m)
        if stack.max() == stack.min():
            constant += 1
            offsets = bmo_mod._offset_table(m, 2, "first_difference")
            assert value == 0.0 == bmo_mod._stack_totals(stack, offsets, h, 3.0,
                                                          "first_difference")[0]
    assert 0 < constant < len(family)


def test_strichartz_sums_no_constant_cube(monkeypatch):
    # on the 2-d n=64 cusp, 144 of the 256 default cubes are constant: no
    # stack that reaches a sum holds one, in either order, every value
    # equals (==) its one-cube call, and a constant cube's value is +0.0,
    # as its direct sum is
    g = make_grid(2, 64, 1.0)
    f = generate(CorpusSpec(family="cusp", grid=g, gamma=0.7))
    family = make_cube_family(g)
    stacks = [_cube_stack(f, [c], int(round(s / g.spacing)))
              for c, s in zip(family.centers.tolist(), family.sizes.tolist())]
    constant = np.array([v.max() == v.min() for v in stacks])
    assert constant.sum() == 144
    seen = []

    def spy(name):
        real = getattr(bmo_mod, name)

        def counting(values, *args):
            seen.append([v.max() != v.min() for v in values])
            return real(values, *args)
        monkeypatch.setattr(bmo_mod, name, counting)

    spy("_stack_totals")
    spy("_first_difference_fft")
    cubes = [CubeSpec(center=tuple(c), side=s)
             for c, s in zip(family.centers.tolist(), family.sizes.tolist())]
    for functional, alpha in ((strichartz_first, 0.5), (strichartz_second, 1.3)):
        seen.clear()
        rep = functional(f, alpha, family)
        assert seen and all(all(live) for live in seen)
        assert sum(len(v) for v in seen) >= (~constant).sum()
        assert rep.values.tolist() == [functional(f, alpha, [c]).values[0] for c in cubes]
        flat = rep.values[constant]
        assert np.all(flat == 0.0) and not np.any(np.signbit(flat))


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 16)])
def test_strichartz_forced_fallback_is_the_direct_route(dim, n, monkeypatch):
    # with tau = 0 no nonconstant cube is certified: every value equals (==)
    # the direct stacked sum, and fallback_counts counts those cubes per
    # side; second order counts every cube
    g = make_grid(dim, n, 1.0)
    h = g.spacing
    f = generate(CorpusSpec(family="cusp", grid=g, gamma=0.7))
    family = make_cube_family(g)
    monkeypatch.setattr(bmo_mod, "_FORM_TAU", 0.0)
    for functional, alpha, order in ((strichartz_first, 0.5, "first_difference"),
                                     (strichartz_second, 1.3, "second_difference")):
        rep = functional(f, alpha, family)
        expected, counts = [], {}
        for center, side in zip(family.centers.tolist(), family.sizes.tolist()):
            m = int(round(side / h))
            stack = _cube_stack(f, [center], m)
            offsets = bmo_mod._offset_table(m, dim, order)
            total = bmo_mod._stack_totals(stack, offsets, h, dim + 2.0 * alpha, order).tolist()[0]
            expected.append(math.sqrt(h ** (2 * dim) * total / side ** dim))
            counts[side] = counts.get(side, 0) + int(order == "second_difference"
                                                     or stack.max() != stack.min())
        assert rep.values.tolist() == expected
        assert rep.metadata["fallback_counts"] == dict(sorted(counts.items()))


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

