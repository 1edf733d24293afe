import pytest

from msq.carleson import comparability_experiment
from msq.coeffs import coefficient_matrix
from msq.corpus import CorpusSpec, generate
from msq.experiments import ALPHA_GRID, comparability_ratios, default_specs, eligible_pairs
from msq.field import make_grid


def test_comparability_ratios_equal_fresh_per_alpha_records(monkeypatch):
    # the paper's experiment at 1-d n=512: 30 (field, alpha) pairs over 11
    # distinct (field, kind) matrices
    specs = default_specs(make_grid(1, 512, 1.0))
    fresh = {}
    for spec, alphas in eligible_pairs(specs):
        f = generate(spec)
        for a in alphas:
            fresh[(spec.family, spec.alpha, a)] = comparability_experiment(f, a).ratio
    kinds = []

    def counted(field, ladder, kind):
        kinds.append(kind)
        return coefficient_matrix(field, ladder, kind)

    monkeypatch.setattr("msq.carleson.coefficient_matrix", counted)
    ratios = comparability_ratios(specs)
    assert len(ratios) == 30 and len(kinds) == 11
    assert list(ratios) == list(fresh)
    for key in fresh:
        assert ratios[key] == fresh[key], key


def test_eligible_pairs_follow_the_regularity_band():
    grid = make_grid(1, 64, 1.0)
    cusp = CorpusSpec(family="cusp", grid=grid, gamma=0.9)
    noise = CorpusSpec(family="riesz_of_noise", grid=grid, alpha=1.3, seed=1)
    assert eligible_pairs([cusp, noise]) == [
        (cusp, [0.3, 0.5, 0.8]), (noise, [0.3, 0.5, 0.8, 1.0, 1.3])]
    assert eligible_pairs([cusp], [1.0]) == [(cusp, [])]


@pytest.mark.parametrize("specs, alphas", [
    (lambda g: [CorpusSpec(family="riesz_of_noise", grid=g, alpha=0.5, seed=s)
                for s in (11, 12)], ALPHA_GRID),
    (lambda g: [CorpusSpec(family="cusp", grid=g, gamma=y) for y in (0.9, 0.6)], ALPHA_GRID),
    (lambda g: [CorpusSpec(family="smooth_bump", grid=g)], (0.5, 1.3, 0.5)),
], ids=["seed", "gamma", "alpha"])
def test_comparability_ratios_reject_a_shared_key(monkeypatch, specs, alphas):
    # two ratios under one key would overwrite each other; nothing runs
    monkeypatch.setattr("msq.experiments.generate", None)
    with pytest.raises(ValueError, match="share the ratio key"):
        comparability_ratios(specs(make_grid(1, 64, 1.0)), alphas)
