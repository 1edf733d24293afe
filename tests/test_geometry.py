import numpy as np
import pytest

from msq.coeffs import make_ladder
from msq.corpus import CorpusSpec, generate
from msq.field import NumericError, SampledField, lattice_centers, make_grid, sample
from msq.geometry import (
    PointCloud,
    beta2k,
    graph_beta_vs_nu1,
    load_cloud,
    plane_residual,
)


def _circle_cloud(n_points):
    th = 2 * np.pi * np.arange(n_points) / n_points
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    return PointCloud(points=pts, weights=np.ones(n_points))


def test_collinear_points_give_zero():
    t = np.linspace(0.0, 1.0, 80)
    pts = np.stack([t, 2.0 + 3.0 * t], axis=1)
    cloud = PointCloud(points=pts, weights=np.ones(80))
    b, fit = beta2k(cloud, np.array([0.5, 3.5]), 2.5, k=1)
    assert b < 1e-10
    assert fit.residual == b


def test_circle_cloud_oracle():
    # the mean squared distance from the unit circle to its best line
    # through the centroid is 1/2
    cloud = _circle_cloud(100000)
    b, _ = beta2k(cloud, np.zeros(2), 1.0001, k=1)
    assert abs(b - np.sqrt(0.5)) < 1e-3


def test_scale_invariance():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((150, 2))
    w = rng.uniform(0.5, 2.0, 150)
    cloud = PointCloud(points=pts, weights=w)
    b0, _ = beta2k(cloud, np.zeros(2), 1.5, k=1)
    lam = 3.7
    scaled = PointCloud(points=lam * pts, weights=w)
    b1, _ = beta2k(scaled, np.zeros(2), lam * 1.5, k=1)
    assert b1 == pytest.approx(b0, abs=1e-12)


def test_rigid_motion_invariance():
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((200, 3))
    w = rng.uniform(0.1, 1.0, 200)
    cloud = PointCloud(points=pts, weights=w)
    b0, _ = beta2k(cloud, np.zeros(3), 1.2, k=2)
    ang = 0.9
    R = np.array(
        [
            [np.cos(ang), -np.sin(ang), 0.0],
            [np.sin(ang), np.cos(ang), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    t = np.array([5.0, -2.0, 1.0])
    moved = PointCloud(points=pts @ R.T + t, weights=w)
    b1, _ = beta2k(moved, t, 1.2, k=2)
    assert b1 == pytest.approx(b0, abs=1e-10)


def test_supplied_plane_never_beats_optimum():
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((120, 2))
    cloud = PointCloud(points=pts, weights=np.ones(120))
    b, fit = beta2k(cloud, np.zeros(2), 2.0, k=1)
    assert plane_residual(cloud, np.zeros(2), 2.0, fit.basepoint, fit.orthonormal_basis) == pytest.approx(b, abs=1e-12)
    for seed in range(5):
        r2 = np.random.default_rng(seed)
        v = fit.orthonormal_basis + 0.1 * r2.standard_normal((1, 2))
        v = v / np.linalg.norm(v)
        assert plane_residual(cloud, np.zeros(2), 2.0, fit.basepoint, v) >= b - 1e-12


def test_basis_orthonormal():
    rng = np.random.default_rng(14)
    pts = rng.standard_normal((60, 3))
    cloud = PointCloud(points=pts, weights=np.ones(60))
    _, fit = beta2k(cloud, np.zeros(3), 2.0, k=2)
    gram = fit.orthonormal_basis @ fit.orthonormal_basis.T
    assert np.allclose(gram, np.eye(2), atol=1e-10)


def test_too_few_points_rejected():
    cloud = PointCloud(points=np.array([[0.0, 0.0], [1.0, 1.0]]), weights=np.ones(2))
    with pytest.raises(ValueError, match="need at least"):
        beta2k(cloud, np.zeros(2), 0.5, k=1)


def test_k_range_enforced():
    cloud = _circle_cloud(10)
    with pytest.raises(ValueError, match="k must lie"):
        beta2k(cloud, np.zeros(2), 2.0, k=2)


def test_cloud_validation():
    with pytest.raises(ValueError, match="weights"):
        PointCloud(points=np.zeros((3, 2)), weights=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        PointCloud(points=np.array([[np.inf, 0.0]]), weights=np.ones(1))


def test_load_cloud_with_and_without_weights(tmp_path):
    p1 = tmp_path / "plain.txt"
    p1.write_text("0.0 1.0\n1.0 2.0\n2.0 3.0\n")
    cloud, weighted = load_cloud(p1)
    assert not weighted
    assert cloud.ambient_dim == 2
    assert np.all(cloud.weights == 1.0)

    p2 = tmp_path / "weighted.txt"
    p2.write_text("0.0 1.0 0.5\n1.0 2.0 2.0\n")
    cloud2, weighted2 = load_cloud(p2, ambient_dim=2)
    assert weighted2
    assert np.allclose(cloud2.weights, [0.5, 2.0])

    p3 = tmp_path / "ragged.txt"
    p3.write_text("0.0 1.0\n1.0\n")
    with pytest.raises(ValueError, match="ragged"):
        load_cloud(p3)


def test_graph_bridge_flat_field_vanishes():
    g = make_grid(1, 256, 1.0)
    f = sample(g, lambda x: 0.4 + 0.0 * x)
    lad = make_ladder(g, top_radius=0.25, levels=3)
    rep = graph_beta_vs_nu1(f, lad, stride=16)
    assert np.max(rep.beta) < 1e-10
    assert np.max(rep.nu1) < 1e-10


def test_graph_bridge_band_for_lipschitz_bump():
    # on a bump scaled to Lipschitz constant one, the plane numbers and the
    # affine coefficients control each other; recorded caps 4 and 8
    g = make_grid(1, 512, 1.0)
    raw = generate(CorpusSpec(family="smooth_bump", grid=g))
    from msq.spectral import spectral_gradient

    lip = float(np.max(np.abs(spectral_gradient(raw)[0].values)))
    f = SampledField(grid=g, values=raw.values / lip)
    lad = make_ladder(g, top_radius=0.25, levels=4)
    rep = graph_beta_vs_nu1(f, lad, stride=8)
    assert rep.lipschitz == pytest.approx(1.0, rel=1e-6)
    assert 0.0 < rep.max_beta_over_nu1 < 4.0
    assert 0.0 < rep.max_nu1_over_beta < 8.0


def test_graph_bridge_2d_smooth_field():
    g = make_grid(2, 32, 1.0)
    raw = generate(CorpusSpec(family="smooth_bump", grid=g))
    from msq.spectral import spectral_gradient

    gx, gy = spectral_gradient(raw)
    lip = float(np.sqrt(np.max(gx.values**2 + gy.values**2)))
    f = SampledField(grid=g, values=raw.values / lip)
    lad = make_ladder(g)
    rep = graph_beta_vs_nu1(f, lad, stride=8)
    assert rep.beta.shape == (16, lad.levels)
    assert rep.lipschitz == pytest.approx(1.0, rel=1e-6)
    assert np.all(rep.beta >= 0)
    assert 0.0 < rep.max_beta_over_nu1 < 8.0
    assert 0.0 < rep.max_nu1_over_beta < 8.0


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 32)])
def test_graph_bridge_blocks_give_equal_betas(dim, n, monkeypatch):
    # a stacked cloud's betas equal its per-cloud calls, so the number of
    # clouds per beta2k call changes no beta (==, NaN cells alike); the 1-d
    # field has 76 cells of too few points
    import msq.geometry as geometry_mod

    g = make_grid(dim, n, 1.0)
    f = generate(CorpusSpec(family="smooth_bump", grid=g))
    lad = make_ladder(g)
    betas = []
    for clouds in (1, 40, g.n_points):
        monkeypatch.setattr(geometry_mod, "_BLOCK_CLOUDS", clouds)
        betas.append(graph_beta_vs_nu1(f, lad).beta)
    assert np.isnan(betas[0]).sum() == (76 if dim == 1 else 0)
    for beta in betas[1:]:
        assert np.array_equal(beta, betas[0], equal_nan=True)


def test_graph_bridge_scaling_keeps_joint_vanishing():
    # the affine coefficient scales linearly, the plane number does not;
    # both vanish together on affine data regardless of amplitude
    g = make_grid(1, 256, 1.0)
    f = sample(g, lambda x: 0.1 + 0.0 * x)
    lad = make_ladder(g, top_radius=0.25, levels=3)
    for lam in (1.0, 10.0):
        rep = graph_beta_vs_nu1(
            SampledField(grid=g, values=lam * f.values), lad, stride=32
        )
        assert np.max(rep.beta) < 1e-10 and np.max(rep.nu1) < 1e-10


def _chart_cloud(field, center, area):
    """The whole periodic chart of a center lifted to the graph: every grid
    offset u, the lift f(c + u) - f(c) and the surface weight at c + u."""
    g = field.grid
    shift = tuple(-int(c) for c in center)
    rolled = np.roll(field.shaped, shift, axis=tuple(range(g.dim)))
    u = np.where(np.arange(g.n_per_axis) <= g.n_per_axis // 2, 0, -g.n_per_axis)
    u = (u + np.arange(g.n_per_axis)) * g.spacing
    comps = np.meshgrid(*(u,) * g.dim, indexing="ij")
    pts = np.stack([q.reshape(-1) for q in comps] + [(rolled - rolled.flat[0]).reshape(-1)], axis=1)
    weights = np.roll(area, shift, axis=tuple(range(g.dim))).reshape(-1)
    return PointCloud(points=pts, weights=weights)


@pytest.mark.parametrize("dim, n, period, stride, nan_cells",
                         [(1, 1024, 1.0, 8, 40), (2, 32, 1.0, 4, 0), (2, 32, 0.25, 4, 4)],
                         ids=["1-1024-8", "2-32-4", "2-32-4-period0.25"])
def test_graph_bridge_matches_per_cell_oracle(dim, n, period, stride, nan_cells):
    # each cell equals (==) beta2k on the center's whole lifted chart, and
    # a cell whose ambient ball holds fewer than dim + 1 points is NaN
    from msq.spectral import spectral_gradient

    g = make_grid(dim, n, period)
    f = generate(CorpusSpec(family="smooth_bump", grid=g))
    lad = make_ladder(g)
    rep = graph_beta_vs_nu1(f, lad, stride=stride)
    gnorm_sq = sum(q.shaped**2 for q in spectral_gradient(f))
    area = g.spacing**dim * np.sqrt(1.0 + gnorm_sq)
    expected = np.full(rep.beta.shape, np.nan)
    for i, c in enumerate(rep.centers):
        cloud = _chart_cloud(f, c, area)
        dist_sq = np.sum(cloud.points**2, axis=1)
        for j, r in enumerate(lad.radii):
            if np.count_nonzero(dist_sq < r * r) >= dim + 1:
                expected[i, j], _ = beta2k(cloud, np.zeros(dim + 1), float(r), k=dim)
    assert np.array_equal(np.isnan(rep.beta), np.isnan(expected))
    assert rep.insufficient_cells == int(np.isnan(expected).sum()) == nan_cells
    finite = ~np.isnan(expected)
    assert rep.beta[finite].tolist() == expected[finite].tolist()


@pytest.mark.parametrize("dim, n, nan_cells", [(1, 1024, 310), (2, 32, 0)], ids=["1-1024", "2-32"])
def test_beta2k_radius_array_matches_scalar_calls(dim, n, nan_cells):
    # one call over the default ladder equals (==) the per-radius scalar
    # calls, and is NaN exactly where a scalar call raises NumericError
    from msq.spectral import spectral_gradient

    g = make_grid(dim, n, 1.0)
    f = generate(CorpusSpec(family="smooth_bump", grid=g))
    radii = make_ladder(g).radii
    area = g.spacing**dim * np.sqrt(1.0 + sum(q.shaped**2 for q in spectral_gradient(f)))
    origin = np.zeros(dim + 1)
    raised = 0
    for c in lattice_centers(g, 1):
        cloud = _chart_cloud(f, c, area)
        got = beta2k(cloud, origin, radii, k=dim)
        assert got.shape == radii.shape
        for j, r in enumerate(radii.tolist()):
            try:
                want, _ = beta2k(cloud, origin, r, k=dim)
            except NumericError:
                raised += 1
                assert np.isnan(got[j])
            else:
                assert got[j] == want
    assert raised == nan_cells


def test_beta2k_radius_array_validation():
    # every radius is checked before any ball is selected
    cloud = _circle_cloud(10)
    with pytest.raises(ValueError, match="positive and finite"):
        beta2k(cloud, np.zeros(2), np.array([2.0, np.nan]), k=1)
    with pytest.raises(ValueError, match="1-d"):
        beta2k(cloud, np.zeros(2), np.ones((2, 2)), k=1)


def _stack_and_clouds():
    # three clouds of 40 points about the origin in R^3 whose balls select
    # different rows: radius 1.0 holds all of cloud 0, part of cloud 1
    # and a single point of cloud 2 (a NaN cell)
    rng = np.random.default_rng(21)
    pts = rng.uniform(-1.0, 1.0, (3, 40, 3)) * np.array([0.5, 1.2, 3.0])[:, None, None]
    pts[2, 0] = [0.1, 0.0, 0.2]
    pts[2, 1:] = 2.0 + np.abs(pts[2, 1:])
    weights = rng.uniform(0.2, 2.0, (3, 40))
    clouds = [PointCloud(points=p, weights=w) for p, w in zip(pts, weights)]
    return PointCloud(points=pts, weights=weights), clouds


def test_beta2k_stack_matches_per_cloud_calls():
    # every cell of a stacked call equals (==) the call on its cloud alone,
    # and a stack of one cloud equals that cloud
    stack, clouds = _stack_and_clouds()
    radii = np.array([6.0, 1.0, 0.45])
    origin = np.zeros(3)
    got = beta2k(stack, origin, radii, k=2)
    assert got.shape == (3, 3)
    want = np.stack([beta2k(c, origin, radii, k=2) for c in clouds])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.isnan(got[2, 1])
    assert got[~np.isnan(got)].tolist() == want[~np.isnan(want)].tolist()
    for i, c in enumerate(clouds):
        for j, r in enumerate(radii.tolist()):
            if not np.isnan(want[i, j]):
                assert beta2k(c, origin, r, k=2)[0] == got[i, j]
    one = PointCloud(points=stack.points[1:2], weights=stack.weights[1:2])
    assert np.array_equal(beta2k(one, origin, radii, k=2), want[1:2], equal_nan=True)
    assert beta2k(stack, origin, 1.0, k=2).shape == (3,)


def test_stacked_cloud_validation():
    stack, _ = _stack_and_clouds()
    pts, w = stack.points.copy(), stack.weights.copy()
    pts[1, 7, 2] = np.nan
    with pytest.raises(ValueError, match="point coordinates must be finite"):
        PointCloud(points=pts, weights=w)
    w[2, 3] = 0.0
    with pytest.raises(ValueError, match="weights must be finite and strictly positive"):
        PointCloud(points=stack.points, weights=w)
    for bad in (stack.weights[:, :-1], stack.weights[0], stack.weights[:2]):
        with pytest.raises(ValueError, match="weights shape"):
            PointCloud(points=stack.points, weights=bad)
    with pytest.raises(ValueError, match="D >= 2"):
        PointCloud(points=np.zeros((2, 5, 1)), weights=np.ones((2, 5)))


@pytest.mark.parametrize("D, k", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_beta2k_matches_singular_values(D, k):
    # an oracle outside beta2k's arithmetic: the D - k smallest singular
    # values of the weighted centered points of the ball
    rng = np.random.default_rng(31 + D + k)
    for _ in range(5):
        pts = rng.standard_normal((300, D)) * rng.uniform(0.2, 3.0, D)
        w = rng.uniform(0.1, 5.0, 300)
        center, r = rng.standard_normal(D) * 0.3, rng.uniform(1.0, 3.0)
        inside = np.sum((pts - center) ** 2, axis=1) < r * r
        p, wi = pts[inside], w[inside]
        sv = np.linalg.svd(np.sqrt(wi)[:, None] * (p - np.average(p, axis=0, weights=wi)),
                           compute_uv=False)
        want = np.sqrt(np.sum(sv[k:] ** 2) / (r * r * wi.sum()))
        got, _ = beta2k(PointCloud(points=pts, weights=w), center, r, k=k)
        assert got == pytest.approx(want, rel=1e-12)


def _cells_equal(got, want):
    """== cell by cell, NaN where NaN and the sign of zero included."""
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _plateau_field(kind):
    # a constant field, a plateau at 3.0, and a bump whose zero plateau holds
    # -0.0 at every other zero, so its lifts are 0.0 and -0.0
    g = make_grid(2, 32, 1.0)
    bump = generate(CorpusSpec(family="smooth_bump", grid=g)).values
    if kind == "constant":
        values = np.full(g.n_points, 0.7)
    elif kind == "plateau":
        values = 3.0 + bump
    else:
        values = bump.copy()
        values[np.flatnonzero(values == 0.0)[::2]] = -0.0
    return SampledField(grid=g, values=values)


def _flat_centers(field, radius):
    """Whether the field equals (==) its center value on the whole chart
    ball of the radius, center by center (row-major), by brute force; an
    array of radii gives the (centers, radii) array."""
    g = field.grid
    radii = np.asarray(radius, dtype=float)
    out = []
    for c in lattice_centers(g, 1):
        lift = _chart_cloud(field, c, np.ones(g.shape)).points
        dist_sq = np.sum(lift[:, :-1] ** 2, axis=1)
        out.append([not np.any(lift[dist_sq < r * r, -1] != 0.0) for r in radii.reshape(-1)])
    return np.array(out).reshape((-1,) + radii.shape)


def _bridge_field(kind):
    """A _plateau_field, or the 2-d n=64 cusp(0.7), flat on a quarter of
    its widest balls and on more of its narrower ones."""
    if kind != "cusp":
        return _plateau_field(kind)
    return generate(CorpusSpec(family="cusp", grid=make_grid(2, 64, 1.0), gamma=0.7))


@pytest.mark.parametrize("kind", ["constant", "plateau", "signed_zeros"])
def test_graph_bridge_flat_centers_match_per_cell_oracle(kind):
    # a center whose field is constant on its widest ball skips beta2k; its
    # cells still equal (==, sign of zero included) beta2k on its chart
    from msq.spectral import spectral_gradient

    f = _plateau_field(kind)
    g = f.grid
    lad = make_ladder(g)
    if kind == "signed_zeros":  # -0.0 - 0.0 is -0.0, and 0.0 - -0.0 is 0.0
        signs = np.signbit(f.values[f.values == 0.0])
        assert signs.any() and not signs.all()
    rep = graph_beta_vs_nu1(f, lad, stride=1)
    area = g.spacing**2 * np.sqrt(1.0 + sum(q.shaped**2 for q in spectral_gradient(f)))
    expected = np.empty(rep.beta.shape)
    for i, c in enumerate(rep.centers):
        expected[i] = beta2k(_chart_cloud(f, c, area), np.zeros(3), lad.radii, k=2)
    assert _cells_equal(rep.beta, expected)
    flat = _flat_centers(f, lad.radii.max())
    assert np.all(rep.beta[flat] == 0.0) and not np.any(np.signbit(rep.beta[flat]))
    assert flat.all() if kind == "constant" else 0 < flat.sum() < len(flat)


@pytest.mark.parametrize("kind", ["constant", "plateau", "signed_zeros"])
def test_graph_bridge_calls_beta2k_on_live_centers_only(kind, monkeypatch):
    # beta2k sees each center whose widest ball is not constant, once, and
    # no other: none on a constant field
    import msq.geometry as geometry_mod

    f = _plateau_field(kind)
    lad = make_ladder(f.grid)
    seen = []

    def counting(cloud, center, r, k):
        seen.append(cloud.points[..., -1].copy())
        return beta2k(cloud, center, r, k)

    monkeypatch.setattr(geometry_mod, "beta2k", counting)
    graph_beta_vs_nu1(f, lad, stride=1)
    lifts = np.concatenate(seen) if seen else np.zeros((0, 1))
    live = int((~_flat_centers(f, lad.radii.max())).sum())
    assert len(lifts) == live
    assert np.all(np.any(lifts != 0.0, axis=1))
    assert len(seen) == -(-live // geometry_mod._BLOCK_CLOUDS)  # 0 on the constant field


@pytest.mark.parametrize("kind", ["constant", "plateau", "signed_zeros", "cusp"])
def test_graph_bridge_flat_cells_at_every_radius(kind):
    # a cell whose chart ball the field holds constant, at any radius, has
    # the flat disk's beta: +0.0 without a sign bit, or NaN
    f = _bridge_field(kind)
    lad = make_ladder(f.grid)
    beta = graph_beta_vs_nu1(f, lad, stride=1).beta
    flat = _flat_centers(f, lad.radii)
    cells = beta[flat]
    assert np.all(np.isnan(cells) | ((cells == 0.0) & ~np.signbit(cells)))
    # the cells that are flat only below the widest radius
    below = flat & ~flat[:, :1]
    assert not below.any() if kind == "constant" else below.any()


@pytest.mark.parametrize("kind", ["plateau", "signed_zeros", "cusp"])
def test_graph_bridge_calls_take_their_first_cloud_live_radii(kind, monkeypatch):
    # a cloud is live on a radius where a point of its chart ball has a
    # nonzero lift; each beta2k call takes exactly the radii on which its
    # first cloud is live, the deepest call first, and no cloud is live on
    # a radius its call omits
    import msq.geometry as geometry_mod

    f = _bridge_field(kind)
    lad = make_ladder(f.grid)
    depths = []

    def spying(cloud, center, r, k):
        chart = np.sum(cloud.points[..., :-1] ** 2, axis=-1)
        lifted = cloud.points[..., -1] != 0.0
        live = np.stack([np.any(lifted & (chart < q * q), axis=1) for q in lad.radii], axis=1)
        assert np.asarray(r).tolist() == lad.radii[live[0]].tolist()
        assert not live[:, len(r):].any()
        depths.append(len(r))
        return beta2k(cloud, center, r, k)

    monkeypatch.setattr(geometry_mod, "beta2k", spying)
    graph_beta_vs_nu1(f, lad, stride=1)
    assert depths == sorted(depths, reverse=True)
    assert depths[-1] < lad.levels


@pytest.mark.parametrize("radii", [[0.45, 1.0, 6.0], [1.0, 6.0, 0.45, 0.3], [1.0, 0.45, 1.0, 6.0, 6.0]],
                         ids=["ascending", "shuffled", "repeated"])
def test_beta2k_radius_order_matches_scalar_calls(radii):
    # radii in any order, repeated or not, give (==) the scalar calls,
    # and NaN where a scalar call raises
    stack, clouds = _stack_and_clouds()
    origin = np.zeros(3)
    got = beta2k(stack, origin, np.array(radii), k=2)
    for i, cloud in enumerate(clouds):
        for j, r in enumerate(radii):
            try:
                want, _ = beta2k(cloud, origin, r, k=2)
            except NumericError:
                assert np.isnan(got[i, j])
            else:
                assert got[i, j] == want


@pytest.mark.parametrize("radii, shares", [
    ([6.0, 1.0], [40, 40]),            # every row a candidate: read in place
    ([0.45], [14]),                    # below half at the top: compressed
    ([6.0, 0.45, 0.3], [40, 14, 5]),   # in place, then compressed twice
    ([0.45, 0.38], [14, 9]),           # compressed, then in place
], ids=["in-place", "compress", "in-place-then-compress", "compress-then-in-place"])
def test_beta2k_read_paths_match_per_cloud_calls(radii, shares):
    # a radius's candidate rows lie in some cloud's ball; the stack reads
    # them in place while they are at least half of the current rows and
    # compresses them below that, and either way equals (==) the calls on
    # each cloud alone
    stack, clouds = _stack_and_clouds()
    nearest = np.sum(stack.points**2, axis=-1).min(axis=0)
    assert [int(np.count_nonzero(nearest < r * r)) for r in radii] == shares
    origin = np.zeros(3)
    got = beta2k(stack, origin, np.array(radii), k=2)
    want = np.stack([beta2k(c, origin, np.array(radii), k=2) for c in clouds])
    assert _cells_equal(got, want)


def test_beta2k_rejects_non_finite_center():
    # a library caller's bad center is a ValueError, not a NumericError
    for center in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="center coordinates must be finite") as bad:
            beta2k(_circle_cloud(10), np.array(center), 2.0, k=1)
        assert not isinstance(bad.value, NumericError)


def test_beta2k_rejects_empty_radii():
    with pytest.raises(ValueError, match="radii must hold at least one radius"):
        beta2k(_circle_cloud(10), np.zeros(2), np.array([]), k=1)


def test_empty_cloud_rejected():
    with pytest.raises(ValueError, match="weights must be finite and strictly positive"):
        PointCloud(points=np.zeros((0, 2)), weights=np.ones(0))
    with pytest.raises(ValueError, match="weights must be finite and strictly positive"):
        PointCloud(points=np.zeros((3, 0, 2)), weights=np.ones((3, 0)))
