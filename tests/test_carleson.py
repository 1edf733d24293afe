import dataclasses
import math

import numpy as np
import pytest

from msq.carleson import (
    carleson_constant,
    comparability_experiment,
    comparability_records,
    full_domain_square_integral,
    matching_order,
    square_function_integral,
)
from msq.coeffs import CoefficientMatrix, coefficient_matrix, make_ladder
from msq.corpus import CorpusSpec, generate
from msq.field import SampledField, make_grid, sample
from msq.spectral import dalpha_energy


def _zero_matrix(grid, ladder, kind="nu0"):
    return CoefficientMatrix(
        grid=grid, ladder=ladder, kind=kind, values=np.zeros((grid.n_points, ladder.levels))
    )


def test_zero_matrix_integral_zero():
    g = make_grid(1, 64, 1.0)
    lad = make_ladder(g)
    m = _zero_matrix(g, lad)
    assert square_function_integral(m, 0.5, (0,), float(lad.radii[0])) == 0.0


def test_single_entry_closed_form():
    g = make_grid(1, 64, 1.0)
    lad = make_ladder(g)
    vals = np.zeros((g.n_points, lad.levels))
    v, level = 0.7, 2
    vals[10, level] = v
    m = CoefficientMatrix(grid=g, ladder=lad, kind="nu0", values=vals)
    R = float(lad.radii[0])
    alpha = 0.5
    r0 = float(lad.radii[level])
    expected = g.spacing * (v / r0 ** (alpha - 1.0)) ** 2 * math.log(2.0)
    got = square_function_integral(m, alpha, (10,), R)
    assert got == pytest.approx(expected, rel=1e-12)
    # center far away: the entry is outside the ball, integral vanishes
    assert square_function_integral(m, alpha, (42,), float(lad.radii[-1])) == 0.0


def test_quadratic_homogeneity(rough_field_1d):
    lad = make_ladder(rough_field_1d.grid)
    m1 = coefficient_matrix(rough_field_1d, lad, "nu0")
    scaled = SampledField(grid=rough_field_1d.grid, values=2.0 * rough_field_1d.values)
    m2 = coefficient_matrix(scaled, lad, "nu0")
    a = carleson_constant(m1, 0.5, stride=4).constant
    b = carleson_constant(m2, 0.5, stride=4).constant
    assert b == pytest.approx(4.0 * a, rel=1e-10)


def test_integral_monotone_in_top_radius(rough_field_1d):
    lad = make_ladder(rough_field_1d.grid)
    m = coefficient_matrix(rough_field_1d, lad, "nu0")
    vals = [
        square_function_integral(m, 0.5, (30,), float(R)) for R in lad.radii
    ]
    # radii decrease along the ladder, so the integrals must decrease too
    assert all(vals[i] >= vals[i + 1] - 1e-15 for i in range(len(vals) - 1))


def test_translation_equivariance(rough_field_1d):
    lad = make_ladder(rough_field_1d.grid)
    m1 = coefficient_matrix(rough_field_1d, lad, "nu0")
    rolled = SampledField(
        grid=rough_field_1d.grid, values=np.roll(rough_field_1d.values, 1)
    )
    m2 = coefficient_matrix(rolled, lad, "nu0")
    a = carleson_constant(m1, 0.7).constant
    b = carleson_constant(m2, 0.7).constant
    assert b == pytest.approx(a, rel=1e-12)


def test_top_radius_must_be_on_ladder(rough_field_1d):
    lad = make_ladder(rough_field_1d.grid)
    m = coefficient_matrix(rough_field_1d, lad, "nu0")
    with pytest.raises(ValueError, match="ladder"):
        square_function_integral(m, 0.5, (0,), 0.2)
    with pytest.raises(ValueError, match="ladder"):
        carleson_constant(m, 0.5, tops=[0.19])
    with pytest.raises(ValueError, match=r"ladder radius \[0\.25, 0\.125, "):
        carleson_constant(m, 0.5, tops=[0.3])


@pytest.mark.parametrize("top", [math.inf, math.nan, -0.25, 0.19])
def test_top_radius_rejected_off_the_ladder(top):
    # inf lies within any relative tolerance of itself: only a finiteness
    # check keeps it off the ladder
    g = make_grid(1, 64, 1.0)
    m = _zero_matrix(g, make_ladder(g))
    with pytest.raises(ValueError, match="is not a ladder radius"):
        carleson_constant(m, 0.5, tops=[top])


def test_report_structure(rough_field_1d):
    lad = make_ladder(rough_field_1d.grid)
    m = coefficient_matrix(rough_field_1d, lad, "nu1")
    rep = carleson_constant(m, 1.3, stride=8)
    assert rep.constant == max(r[2] for r in rep.per_window)
    assert all(r[2] >= 0 for r in rep.per_window)
    assert rep.metadata["sup_lower_bound"] is True
    assert rep.metadata["nonstandard_pairing"] is False
    mismatched = carleson_constant(m, 0.5, stride=8)
    assert mismatched.metadata["nonstandard_pairing"] is True


def test_normalized_table_matches_direct(rough_field_1d):
    g = rough_field_1d.grid
    lad = make_ladder(g)
    m = coefficient_matrix(rough_field_1d, lad, "nu0")
    rep = carleson_constant(m, 0.5, stride=16)
    for center, R, value in rep.per_window[:12]:
        direct = square_function_integral(m, 0.5, center, R) / R**g.dim
        assert value == pytest.approx(direct, rel=1e-10, abs=1e-13)


def test_empty_families_rejected(rough_field_1d):
    lad = make_ladder(rough_field_1d.grid)
    m = coefficient_matrix(rough_field_1d, lad, "nu0")
    with pytest.raises(ValueError, match="empty"):
        carleson_constant(m, 0.5, centers=np.zeros((0, 1), dtype=int))
    with pytest.raises(ValueError, match="empty"):
        carleson_constant(m, 0.5, tops=[])


def test_given_centers_checked(rough_field_1d):
    # a center out of range or of the wrong rank fails as a ball's center
    # does, instead of wrapping or failing inside numpy
    g = rough_field_1d.grid
    m = coefficient_matrix(rough_field_1d, make_ladder(g, levels=2), "nu0")
    n = g.n_per_axis
    with pytest.raises(ValueError, match=rf"window center index \({n + 6},\) out of range"):
        carleson_constant(m, 0.5, centers=[(0,), (n + 6,)])
    with pytest.raises(ValueError, match=r"window center index \(-1,\) out of range"):
        carleson_constant(m, 0.5, centers=[(-1,)])
    with pytest.raises(ValueError, match="window center rank does not match grid dim"):
        carleson_constant(m, 0.5, centers=[(3, 4)])
    assert carleson_constant(m, 0.5, centers=[(n - 1,)]).metadata["n_centers"] == 1


def test_given_centers_integer_and_ragged():
    # a float center is no longer truncated, a ragged list meets the rank
    # rule instead of numpy's shape error, and square_function_integral's
    # center is checked too instead of wrapping
    g = make_grid(1, 64, 1.0)
    m = coefficient_matrix(generate(CorpusSpec(family="cusp", grid=g, gamma=0.5)),
                           make_ladder(g), "nu0")
    R = float(m.ladder.radii[0])
    with pytest.raises(ValueError, match=r"^window center index \(6\.7,\) is not an integer$"):
        carleson_constant(m, 0.5, centers=[(6.7,)])
    for ragged in ([(1,), (2, 3)], [(1,), 2]):
        with pytest.raises(ValueError, match="^window center rank does not match grid dim$"):
            carleson_constant(m, 0.5, centers=ragged)
    with pytest.raises(ValueError, match=r"^window center index \(70,\) out of range$"):
        square_function_integral(m, 0.5, (70,), R)
    with pytest.raises(ValueError, match=r"^window center index \(6\.5,\) is not an integer$"):
        square_function_integral(m, 0.5, 6.5, R)
    # a center given flat, as a scalar, a tuple or an integral float, is one center
    assert (square_function_integral(m, 0.5, 6, R) == square_function_integral(m, 0.5, (6,), R)
            == square_function_integral(m, 0.5, (6.0,), R))
    assert carleson_constant(m, 0.5, centers=[6]).metadata["argmax"]["center"] == (6,)


@pytest.mark.parametrize("alpha", [0.0, -0.5, 2.0, 2, math.nan])
def test_alpha_out_of_range(rough_field_1d, alpha):
    # every entry point checks alpha against (0, 2) before any work
    f = rough_field_1d
    lad = make_ladder(f.grid)
    m = _zero_matrix(f.grid, lad)
    message = f"alpha must lie in (0, 2), got {float(alpha)}"
    for call in (lambda: carleson_constant(m, alpha),
                 lambda: comparability_experiment(f, alpha),
                 lambda: square_function_integral(m, alpha, (0,), float(lad.radii[0])),
                 lambda: full_domain_square_integral(m, alpha)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_matching_order_split():
    assert matching_order(0.99) == 0
    assert matching_order(1.0) == 1
    assert matching_order(1.7) == 1


def test_comparability_constant_field_sentinel():
    g = make_grid(1, 64, 1.0)
    f = sample(g, lambda x: 5.0 + 0.0 * x)
    rec = comparability_experiment(f, 0.5, stride=8)
    assert rec.carleson_sq == 0.0
    assert rec.bmo_norm_sq == 0.0
    assert rec.ratio is None


def test_comparability_ratio_scale_invariant():
    g = make_grid(1, 128, 1.0)
    f = generate(CorpusSpec(family="smooth_bump", grid=g))
    rec1 = comparability_experiment(f, 0.5, stride=4)
    scaled = SampledField(grid=g, values=3.0 * f.values)
    rec2 = comparability_experiment(scaled, 0.5, stride=4)
    assert rec2.ratio == pytest.approx(rec1.ratio, rel=1e-10)
    assert rec2.carleson_sq == pytest.approx(9.0 * rec1.carleson_sq, rel=1e-10)


def test_comparability_orders_match_alpha():
    g = make_grid(1, 128, 1.0)
    f = generate(CorpusSpec(family="smooth_bump", grid=g))
    assert comparability_experiment(f, 0.5, stride=8).kind == "nu0"
    assert comparability_experiment(f, 1.3, stride=8).kind == "nu1"


def test_mollified_variant_controlled_by_derivative_norm():
    # the mollified-competitor square function stays within a fixed
    # multiple of the derivative's oscillation norm (recorded cap 16)
    g = make_grid(1, 256, 1.0)
    lad = make_ladder(g)
    from msq.bmo import bmo_norm, make_ball_family
    from msq.spectral import fractional_derivative

    windows = make_ball_family(g, lad.radii, stride=2)
    for spec in (
        CorpusSpec(family="smooth_bump", grid=g),
        CorpusSpec(family="riesz_of_noise", grid=g, alpha=0.5, seed=5),
    ):
        f = generate(spec)
        for alpha, kind in ((0.5, "nu0_bar"), (1.3, "nu1_bar")):
            if spec.alpha is not None and alpha > spec.alpha:
                continue
            m = coefficient_matrix(f, lad, kind)
            c_sq = carleson_constant(m, alpha, stride=2).constant
            nrm = bmo_norm(fractional_derivative(f, alpha), windows).norm
            assert c_sq <= 16.0 * nrm**2


def test_derivative_norm_controlled_by_optimal_variant():
    # converse control: the squared oscillation norm of the derivative
    # stays within a fixed multiple of the Carleson constant (cap 64)
    g = make_grid(1, 256, 1.0)
    lad = make_ladder(g)
    from msq.bmo import bmo_norm, make_ball_family
    from msq.spectral import fractional_derivative

    windows = make_ball_family(g, lad.radii, stride=2)
    for spec in (
        CorpusSpec(family="smooth_bump", grid=g),
        CorpusSpec(family="riesz_of_noise", grid=g, alpha=0.5, seed=6),
    ):
        f = generate(spec)
        for alpha in (0.3, 0.5):
            if spec.alpha is not None and alpha > spec.alpha:
                continue
            m = coefficient_matrix(f, lad, "nu0")
            c_sq = carleson_constant(m, alpha, stride=2).constant
            nrm = bmo_norm(fractional_derivative(f, alpha), windows).norm
            assert nrm**2 <= 64.0 * c_sq


def test_full_domain_integral_vs_energy(rough_field_1d):
    lad = make_ladder(rough_field_1d.grid)
    m = coefficient_matrix(rough_field_1d, lad, "nu0_bar")
    lhs = full_domain_square_integral(m, 0.5)
    rhs = dalpha_energy(rough_field_1d, 0.5)
    assert 0.0 < lhs <= 2.0 * rhs


@pytest.mark.parametrize("wrong, message", [
    (lambda f, lad: coefficient_matrix(f, lad, "nu1"), "pairs with a nu0 matrix, got nu1"),
    (lambda f, lad: coefficient_matrix(f, lad, "nu0_bar"), "pairs with a nu0 matrix"),
    (lambda f, lad: _zero_matrix(make_grid(1, 128, 2.0), lad), "is not the field's grid"),
    (lambda f, lad: _zero_matrix(f.grid, make_ladder(f.grid, levels=3)), "ladder radii"),
    (lambda f, lad: _zero_matrix(f.grid, make_ladder(f.grid, top_radius=0.125)),
     "ladder radii"),
], ids=["kind", "mollified-kind", "grid", "levels", "top-radius"])
def test_comparability_rejects_a_mismatched_matrix(monkeypatch, wrong, message):
    g = make_grid(1, 128, 1.0)
    f = generate(CorpusSpec(family="smooth_bump", grid=g))
    lad = make_ladder(g)
    matrix = wrong(f, lad)
    # the check comes before any work
    monkeypatch.setattr("msq.carleson.coefficient_matrix", None)
    monkeypatch.setattr("msq.carleson.carleson_constant", None)
    with pytest.raises(ValueError, match=message):
        comparability_experiment(f, 0.5, lad, stride=8, matrix=matrix)


def test_comparability_records_share_one_matrix_per_kind(monkeypatch):
    g = make_grid(1, 128, 1.0)
    f = generate(CorpusSpec(family="smooth_bump", grid=g))
    alphas = [0.5, 1.3, 0.3, 1.7, 0.8]
    fresh = [dataclasses.asdict(comparability_experiment(f, a, stride=4)) for a in alphas]
    kinds = []

    def counted(field, ladder, kind):
        kinds.append(kind)
        return coefficient_matrix(field, ladder, kind)

    monkeypatch.setattr("msq.carleson.coefficient_matrix", counted)
    records = comparability_records(f, alphas, stride=4)
    assert kinds == ["nu0", "nu1"]
    assert [dataclasses.asdict(r) for r in records] == fresh
    assert comparability_records(f, []) == []


def test_comparability_records_check_every_alpha_first(monkeypatch):
    g = make_grid(1, 64, 1.0)
    f = sample(g, lambda x: x)
    monkeypatch.setattr("msq.carleson.coefficient_matrix", None)
    with pytest.raises(ValueError, match="alpha must lie in"):
        comparability_records(f, [0.5, 2.0])
