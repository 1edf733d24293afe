import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msq.bmo import _unruled_windows, bmo_norm, bmo_sup, make_ball_family
from msq.carleson import carleson_constant
from msq.coeffs import KINDS, coefficient_matrix, make_ladder
from msq.field import (
    BallWindow,
    Mollifier,
    SampledField,
    ball_count,
    ball_fft,
    ball_mean,
    ball_mask,
    ball_offsets,
    flat_index,
    lattice_centers,
    make_grid,
    masked_offsets,
    mollify,
    offset_distance,
    offset_reads,
    offset_sums,
    ordered_sum,
    periodic_roll,
    sample,
)
from msq.field import WindowFamily, window_family


def test_make_grid_spacing():
    g = make_grid(1, 8, 1.0)
    assert g.spacing == 0.125


def test_make_grid_2d_point_count():
    g = make_grid(2, 16, 2.0)
    assert g.n_points == 256
    assert g.spacing == 0.125


@pytest.mark.parametrize(
    "dim,n,period",
    [(1, 7, 1.0), (1, 4, 1.0), (3, 8, 1.0), (0, 8, 1.0), (1, 8, 0.0), (1, 8, -2.0)],
)
def test_make_grid_rejects(dim, n, period):
    with pytest.raises(ValueError):
        make_grid(dim, n, period)


def test_sample_constant():
    g = make_grid(1, 16, 1.0)
    f = sample(g, lambda x: 3.0 + 0.0 * x)
    assert np.all(f.values == 3.0)


def test_sample_cosine_values():
    g = make_grid(1, 8, 1.0)
    f = sample(g, lambda x: np.cos(2 * np.pi * x))
    expected = np.cos(2 * np.pi * np.arange(8) / 8)
    assert np.allclose(f.values, expected, atol=0, rtol=1e-15)


def test_sample_pole_names_point():
    g = make_grid(1, 8, 1.0)
    with pytest.raises(ValueError, match="not finite at grid point"):
        sample(g, lambda x: 1.0 / (x - 0.25))


def test_field_length_checked():
    g = make_grid(1, 8, 1.0)
    with pytest.raises(ValueError, match="values"):
        SampledField(grid=g, values=np.zeros(7))


def test_ball_mean_constant():
    g = make_grid(1, 64, 1.0)
    f = sample(g, lambda x: 5.0 + 0.0 * x)
    w = BallWindow(center=(10,), radius=0.1)
    assert ball_mean(f, w) == pytest.approx(5.0, abs=1e-12)


def test_ball_mean_linear_field_oracle():
    # mean of f(x) = x over a ball about 0.5 equals the center value; the
    # independent oracle is a direct sum over the points of the window.
    g = make_grid(1, 1024, 1.0)
    f = sample(g, lambda x: x)
    w = BallWindow(center=(512,), radius=0.25)
    got = ball_mean(f, w)
    mask = ball_mask(g, 0.25)
    direct = np.roll(f.values, -512)[mask].mean()
    assert got == pytest.approx(direct, abs=0)
    assert abs(got - 0.5) <= 2 * g.spacing


def test_ball_mean_translation_equivariance():
    g = make_grid(1, 128, 1.0)
    rng = np.random.default_rng(8)
    f = SampledField(grid=g, values=rng.standard_normal(128))
    rolled = SampledField(grid=g, values=np.roll(f.values, 1))
    a = ball_mean(f, BallWindow(center=(40,), radius=0.1))
    b = ball_mean(rolled, BallWindow(center=(41,), radius=0.1))
    assert a == b


def test_ball_mean_antisymmetric_cancels():
    g = make_grid(1, 256, 1.0)
    f = sample(g, lambda x: np.sin(2 * np.pi * x))
    w = BallWindow(center=(0,), radius=0.2)
    assert abs(ball_mean(f, w)) < 1e-12


def test_ball_count_exposed():
    g = make_grid(1, 64, 1.0)
    assert ball_count(g, 0.1) == 2 * 6 + 1  # offsets |j| h < 0.1, h = 1/64


def test_window_validation():
    g = make_grid(1, 64, 1.0)
    with pytest.raises(ValueError, match="spacing"):
        BallWindow(center=(0,), radius=0.5 / 64).validate(g)
    with pytest.raises(ValueError, match="period/4"):
        BallWindow(center=(0,), radius=0.3).validate(g)


def _raised(call):
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


def test_window_family_first_failing_row_wins():
    # every row meets every rule as arrays; the first failing row in input
    # order raises the message of its first failing rule, for a family, a
    # list and a single window alike
    g = make_grid(2, 16, 1.0)
    ok = ((1, 1), 0.125)
    bad = [  # each row also breaks the rules after its first
        ((3, 99), math.nan, "window center index (3, 99) out of range"),
        ((0, -1), math.inf, "window center index (0, -1) out of range"),
        ((0, 0), math.nan, "window radius nan is not finite"),
        ((2, 2), 0.01, "window radius 0.01 below grid spacing 0.0625"),
        ((2, 2), 0.3, "window radius 0.3 exceeds period/4 = 0.25"),
    ]
    for k, (center, radius, message) in enumerate(bad):
        rows = [ok] + [(c, r) for c, r, _ in bad[k:]] + [ok]
        family = WindowFamily(np.array([c for c, _ in rows]), np.array([r for _, r in rows]))
        windows = [BallWindow(center=c, radius=r) for c, r in rows]
        assert _raised(lambda: window_family(g, family, BallWindow)) == message
        assert _raised(lambda: window_family(g, windows, BallWindow)) == message
        assert _raised(lambda: BallWindow(center=center, radius=radius).validate(g)) == message
    # a center of the wrong rank raises where it falls in input order
    rank = "window center rank does not match grid dim"
    windows = [BallWindow(center=(1, 1), radius=0.125), BallWindow(center=(1,), radius=0.3),
               BallWindow(center=(1, 1), radius=0.3)]
    assert _raised(lambda: window_family(g, windows, BallWindow)) == rank
    assert _raised(lambda: window_family(g, windows[::-1], BallWindow)) == bad[-1][2]
    family = WindowFamily(np.zeros((3, 3), dtype=int), np.full(3, math.nan))
    assert _raised(lambda: window_family(g, family, BallWindow)) == rank
    valid = window_family(g, [BallWindow(center=c, radius=r) for c, r in [ok, ok]], BallWindow)
    assert valid.centers.tolist() == [[1, 1], [1, 1]] and valid.sizes.tolist() == [0.125, 0.125]


def test_ball_membership_strict():
    g = make_grid(1, 64, 1.0)
    h = g.spacing
    # radius exactly on a grid offset: that offset is excluded
    assert ball_count(g, 4 * h) == 7
    assert ball_count(g, 4 * h + 1e-12) == 9


def test_mollify_preserves_constants():
    g = make_grid(1, 128, 1.0)
    f = sample(g, lambda x: 4.2 + 0.0 * x)
    out = mollify(f, Mollifier(scale=0.1))
    assert np.allclose(out.values, 4.2, rtol=1e-13, atol=1e-13)


def test_mollify_rejects_unresolved_scale():
    g = make_grid(1, 128, 1.0)
    f = sample(g, lambda x: x)
    with pytest.raises(ValueError, match="unresolved"):
        mollify(f, Mollifier(scale=1.5 / 128))


def test_mollify_reproduces_affine_interior():
    # sawtooth is affine away from the wrap jump; an even unit-mass kernel
    # reproduces it there
    g = make_grid(1, 512, 1.0)
    f = sample(g, lambda x: 0.7 * x - 0.2)
    out = mollify(f, Mollifier(scale=0.05))
    interior = slice(100, 412)
    assert np.max(np.abs(out.values[interior] - f.values[interior])) < 1e-10


def test_mollify_cosine_damping_factor():
    # a single mode is damped by the kernel's Fourier coefficient at that
    # frequency; the oracle recomputes the coefficient by direct summation
    g = make_grid(1, 256, 1.0)
    f = sample(g, lambda x: np.cos(2 * np.pi * x))
    moll = Mollifier(scale=0.2)
    ker = moll.kernel(g)
    x = np.arange(256) / 256.0
    coeff = float(np.sum(ker * np.cos(2 * np.pi * x)))
    out = mollify(f, moll)
    assert 0.0 < coeff < 1.0
    assert np.allclose(out.values, coeff * f.values, atol=1e-12)


def test_mollify_linearity():
    g = make_grid(1, 128, 1.0)
    f = sample(g, lambda x: np.cos(2 * np.pi * x))
    p = sample(g, lambda x: np.sin(4 * np.pi * x))
    moll = Mollifier(scale=0.1)
    combo = SampledField(grid=g, values=2.0 * f.values - 3.0 * p.values)
    lhs = mollify(combo, moll).values
    rhs = 2.0 * mollify(f, moll).values - 3.0 * mollify(p, moll).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_mollify_translation_equivariance():
    g = make_grid(1, 128, 1.0)
    rng = np.random.default_rng(3)
    f = SampledField(grid=g, values=rng.standard_normal(128))
    moll = Mollifier(scale=0.1)
    shifted = SampledField(grid=g, values=np.roll(f.values, 1))
    lhs = mollify(shifted, moll).values
    rhs = np.roll(mollify(f, moll).values, 1)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_mollify_mean_preservation():
    g = make_grid(1, 128, 1.0)
    rng = np.random.default_rng(4)
    f = SampledField(grid=g, values=rng.standard_normal(128) + 5.0)
    out = mollify(f, Mollifier(scale=0.1))
    assert out.values.sum() == pytest.approx(f.values.sum(), rel=1e-10)


def test_mollifier_kernel_unit_mass_2d():
    g = make_grid(2, 32, 1.0)
    ker = Mollifier(scale=0.2).kernel(g)
    assert ker.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(ker >= 0)


def test_kernel_gradient_route_agrees_with_spectral():
    # dual route for the smoothed gradient: differentiate the kernel vs
    # differentiate in frequency space; both approximate the same object
    from msq.field import mollify_gradient_kernel
    from msq.spectral import spectral_gradient

    g = make_grid(1, 512, 1.0)
    f = sample(g, lambda x: np.cos(2 * np.pi * x) + 0.4 * np.sin(6 * np.pi * x))
    moll = Mollifier(scale=0.15)
    (kern,) = mollify_gradient_kernel(f, moll)
    (spec,) = spectral_gradient(mollify(f, moll))
    scale = np.max(np.abs(spec.values))
    assert np.max(np.abs(kern.values - spec.values)) < 5e-3 * scale

    g2 = make_grid(2, 64, 1.0)
    f2 = sample(g2, lambda x, y: np.cos(2 * np.pi * x) * np.cos(4 * np.pi * y))
    moll2 = Mollifier(scale=0.2)
    kx, ky = mollify_gradient_kernel(f2, moll2)
    sx, sy = spectral_gradient(mollify(f2, moll2))
    for a, b in ((kx, sx), (ky, sy)):
        scale = max(np.max(np.abs(b.values)), 1e-12)
        assert np.max(np.abs(a.values - b.values)) < 2e-2 * scale


@pytest.mark.parametrize("dim", [1, 2])
def test_periodic_lattice_helpers(dim):
    g = make_grid(dim, 16, 1.0)
    for stride in (1, 3, 4):
        centers = lattice_centers(g, stride)
        assert centers.shape == (math.ceil(16 / stride) ** dim, dim)
        assert np.all(centers % stride == 0)
        flat = np.ravel_multi_index(tuple(centers.T), g.shape)
        assert np.all(np.diff(flat) > 0)  # row-major
        assert np.array_equal(flat_index(g, centers), flat)

    for stride in (0, -2):
        with pytest.raises(ValueError, match="positive integer"):
            lattice_centers(g, stride)

    # flat_index wraps out-of-range indices onto the torus
    assert flat_index(g, (3 + 16,) * dim) == flat_index(g, (3,) * dim)
    assert flat_index(g, (-1,) * dim) == g.n_points - 1

    a = np.arange(g.n_points, dtype=float).reshape(g.shape)
    if dim == 1:
        assert np.array_equal(periodic_roll(a, (5,)), np.roll(a, 5))
    else:
        assert np.array_equal(periodic_roll(a, (5, -2)), np.roll(np.roll(a, 5, 0), -2, 1))

    r = 0.3
    off = masked_offsets(g, ball_mask(g, r))
    assert np.array_equal(off, ball_offsets(g, r))
    assert off.shape == (ball_count(g, r), dim)
    assert np.all(np.sqrt(np.sum(off ** 2, axis=1)) < r)


_MEMOS = (offset_distance, ball_fft)


def _clear_memos():
    for memo in _MEMOS:
        memo.cache_clear()


@pytest.mark.parametrize("dim", [1, 2])
def test_window_geometry_memo_is_read_only(dim):
    g = make_grid(dim, 32, 1.0)
    _clear_memos()
    mask = ball_mask(g, 0.2).astype(float)
    assert np.array_equal(ball_fft(g, 0.2), np.fft.fftn(mask))
    for got in (offset_distance(g), ball_fft(g, 0.2)):
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[(0,) * dim] = 1.0
    # a hit hands out the same array, and the entries stay bounded
    assert ball_fft(g, 0.2) is ball_fft(g, 0.2)
    for r in 0.2 * 0.9 ** np.arange(40):
        ball_fft(g, float(r))
    info = ball_fft.cache_info()
    assert info.currsize == info.maxsize and info.maxsize < 40


def test_window_geometry_memo_keyed_on_the_whole_grid():
    # same n, other period: the radius 1/8 holds 63 offsets on one grid
    # and 127 on the other, and no entry of one grid serves the other
    a, b = make_grid(1, 256, 1.0), make_grid(1, 256, 0.5)
    _clear_memos()
    assert np.array_equal(offset_distance(b), offset_distance(a) / 2)
    for first, second in ((a, b), (b, a)):
        ball_fft.cache_clear()
        ball_fft(first, 0.125)
        assert np.array_equal(ball_fft(second, 0.125),
                              np.fft.fftn(ball_mask(second, 0.125).astype(float)))
        assert ball_fft.cache_info().hits == 0
    assert ball_count(a, 0.125) == 63 and ball_count(b, 0.125) == 127


@pytest.mark.parametrize("fixture", ["rough_field_1d", "rough_field_2d"])
def test_window_geometry_memo_cold_and_warm_bitwise(fixture, request):
    field = request.getfixturevalue(fixture)
    ladder = make_ladder(field.grid)
    family = make_ball_family(field.grid, ladder.radii)

    def outputs():
        matrices = [coefficient_matrix(field, ladder, kind) for kind in KINDS]
        report = bmo_norm(field, family)
        norm, argmax = bmo_sup(field, family)
        tables = [carleson_constant(m, 1.3 if m.kind[2] == "1" else 0.5).normalized
                  for m in matrices]
        return [m.values for m in matrices] + [report.values, np.array([norm])] + tables

    assert _unruled_windows(field, family) is not None  # bmo_sup's bound runs
    _clear_memos()
    cold = outputs()
    hits = ball_fft.cache_info().hits
    warm = outputs()
    assert ball_fft.cache_info().hits > hits
    assert [a.tobytes() for a in cold] == [b.tobytes() for b in warm]


def _brute_reads(a, points, offsets):
    """a[(x + o) % n] for every offset row o (rows) and anchor x (columns)."""
    n = a.shape[0]
    return np.array([[a[tuple((x + o) % n)] for x in points] for o in offsets]).reshape(
        len(offsets), len(points))


@pytest.mark.parametrize("dim", [1, 2])
def test_offset_reads(dim, monkeypatch):
    import msq.field as field_mod

    g = make_grid(dim, 16, 1.0)
    a = np.random.default_rng(3).standard_normal(g.shape)
    offsets = np.concatenate([np.argwhere(ball_mask(g, 0.2)), [(-3,) * dim, (17,) * dim]])
    rolls = []
    monkeypatch.setattr(field_mod, "periodic_roll",
                        lambda x, shift: rolls.append(shift) or periodic_roll(x, shift))
    # lattices (strided views of the padded copy), an irregular list that
    # wraps (gathered from the padded copy) and the reversed whole lattice,
    # a dense irregular list (one whole-grid roll per offset)
    irregular = np.array([(-1,) * dim, (15, 17)[:dim], (40,) * dim])
    for block_values in (7, 2**15):  # several blocks per walk, and one
        monkeypatch.setattr(field_mod, "_BLOCK_VALUES", block_values)
        for points, n_rolls in ((lattice_centers(g, 1), 0), (lattice_centers(g, 2), 0),
                                (lattice_centers(g, 3), 0), (irregular, 0),
                                (lattice_centers(g, 1)[::-1], len(offsets))):
            rolls.clear()
            blocks = list(offset_reads(g, a, points, offsets))
            assert len(rolls) == n_rolls
            rows = max(1, block_values // len(points))
            assert all(b.shape == (min(rows, len(offsets) - i * rows), len(points))
                       for i, b in enumerate(blocks))
            assert np.array_equal(np.concatenate(blocks), _brute_reads(a, points, offsets))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_offset_reads_property(data):
    import msq.field as field_mod

    dim = data.draw(st.sampled_from([1, 2]))
    n = data.draw(st.sampled_from([8, 16]))
    g = make_grid(dim, n, 1.0)
    a = np.random.default_rng(data.draw(st.integers(0, 99))).standard_normal(g.shape)
    coord = st.integers(-2 * n, 3 * n)
    if data.draw(st.booleans()):
        points = lattice_centers(g, data.draw(st.integers(1, n + 1)))
    else:
        points = np.array(data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1,
                                             max_size=2 * n ** dim)))
    offsets = np.array(data.draw(st.lists(st.tuples(*[coord] * dim), max_size=40)),
                       dtype=int).reshape(-1, dim)
    block_values = data.draw(st.sampled_from([1, 5, 64, 2**15]))
    with mock.patch.object(field_mod, "_BLOCK_VALUES", block_values):
        blocks = list(offset_reads(g, a, points, offsets))
    got = np.concatenate(blocks) if blocks else np.empty((0, len(points)))
    assert np.array_equal(got, _brute_reads(a, points, offsets))


@pytest.mark.parametrize("block_values", [7, 2**15])
def test_offset_sums_sequential(block_values, monkeypatch):
    import msq.field as field_mod

    # offset_sums relies on numpy summing a (b, m >= 2) block down axis 0
    # row by row, which numpy does not document; terms spread over 16
    # decades make a pairwise sum differ from the sequential reference
    monkeypatch.setattr(field_mod, "_BLOCK_VALUES", block_values)
    g = make_grid(1, 64, 1.0)
    rng = np.random.default_rng(11)
    a = rng.standard_normal(g.shape) * 10.0 ** rng.uniform(-8, 8, g.shape)
    offsets = np.argwhere(ball_mask(g, 0.3))
    for points in (lattice_centers(g, 64), lattice_centers(g, 32), lattice_centers(g, 1),
                   np.array([[5]]), np.array([[5], [40], [63]]), lattice_centers(g, 1)[::-1]):
        center = rng.standard_normal(len(points))
        terms = _brute_reads(a, points, offsets) - center
        ref = np.zeros(len(points))
        for row in terms:
            ref += row
        got = offset_sums(g, a, points, offsets, center, lambda d, _: d)
        assert np.array_equal(got, ref)
        # the data tell the orders apart: a pairwise sum reads otherwise
        assert not np.array_equal([np.sum(t) for t in terms.T], ref)


@pytest.mark.parametrize("shape", [(64, 1), (64, 2), (64, 5), (3, 64, 1), (3, 64, 4)])
def test_ordered_sum_row_order(shape):
    # ordered_sum adds the rows one at a time in row order, also for a
    # single column and for a stack of blocks, so that rows of exact zeros
    # inserted anywhere leave every sum unchanged
    rng = np.random.default_rng(17)
    block = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    ref = np.zeros(shape[:-2] + shape[-1:])
    for i in range(shape[-2]):
        ref += block[..., i, :]
    assert np.array_equal(ordered_sum(block), ref)
    padded = np.insert(block, [0, 7, 7, 64], 0.0, axis=-2)
    assert np.array_equal(ordered_sum(padded), ref)
    # the data tell the orders apart: a pairwise sum reads otherwise
    assert not np.array_equal(np.ascontiguousarray(np.moveaxis(block, -2, -1)).sum(axis=-1), ref)
