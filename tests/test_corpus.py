import numpy as np
import pytest

from msq.coeffs import make_ladder
from msq.corpus import (
    CorpusSpec,
    FieldHeaderError,
    FieldLengthError,
    FieldValueError,
    expected_regularity,
    generate,
    load_field,
    riesz_kernel_difference,
    roughness_exponent,
    save_field,
)
from msq.field import SampledField, make_grid
from msq.spectral import riesz_potential


def test_bump_peaks_at_center_and_vanishes_outside():
    g = make_grid(1, 256, 1.0)
    f = generate(CorpusSpec(family="smooth_bump", grid=g))
    assert f.values[128] == pytest.approx(1.0)
    assert f.values.max() == pytest.approx(1.0)
    # outside the middle half the bump is identically zero
    assert np.all(f.values[:64] == 0.0)
    assert np.all(f.values[193:] == 0.0)


def test_sinusoid_matches_cosine():
    g = make_grid(1, 64, 1.0)
    f = generate(CorpusSpec(family="sinusoid", grid=g, frequency=1))
    x = np.arange(64) / 64.0
    assert np.allclose(f.values, np.cos(2 * np.pi * x), atol=1e-15)


def test_riesz_of_noise_deterministic():
    g = make_grid(1, 512, 1.0)
    spec = CorpusSpec(family="riesz_of_noise", grid=g, alpha=0.5, seed=7)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.values, b.values)


def test_spec_validation():
    g = make_grid(1, 64, 1.0)
    with pytest.raises(ValueError):
        CorpusSpec(family="cusp", grid=g)  # gamma missing
    with pytest.raises(ValueError):
        CorpusSpec(family="weierstrass", grid=g, beta_w=0.5, levels=2)
    with pytest.raises(ValueError):
        CorpusSpec(family="riesz_of_noise", grid=g, alpha=0.5)  # seed missing
    with pytest.raises(ValueError):
        CorpusSpec(family="unknown", grid=g)


def test_refinement_consistency_analytic_families():
    cases = [
        ("smooth_bump", {}),
        ("cusp", {"gamma": 0.5}),
        ("sinusoid", {"frequency": 3}),
        ("weierstrass", {"beta_w": 0.4, "levels": 5}),
    ]
    for family, kw in cases:
        f1 = generate(CorpusSpec(family=family, grid=make_grid(1, 256, 1.0), **kw))
        f2 = generate(CorpusSpec(family=family, grid=make_grid(1, 512, 1.0), **kw))
        assert np.max(np.abs(f2.values[::2] - f1.values)) < 1e-12


def test_weierstrass_truncates_at_nyquist():
    g = make_grid(1, 64, 1.0)
    f = generate(CorpusSpec(family="weierstrass", grid=g, beta_w=0.5, levels=12))
    spec = np.fft.fft(f.values)
    present = np.flatnonzero(np.abs(spec[: 64 // 2 + 1]) > 1e-9)
    assert set(present) == {1, 3, 9, 27}  # 81 exceeds the Nyquist mode 32


def test_expected_regularity_tags():
    g = make_grid(1, 64, 1.0)
    assert expected_regularity(CorpusSpec(family="smooth_bump", grid=g)).alpha_band == (0.0, 2.0)
    cusp = expected_regularity(CorpusSpec(family="cusp", grid=g, gamma=0.5))
    assert cusp.holder == 0.5 and cusp.alpha_band == (0.0, 0.5)
    noise = expected_regularity(
        CorpusSpec(family="riesz_of_noise", grid=g, alpha=1.3, seed=0)
    )
    assert noise.alpha_band == (0.0, 1.3) and noise.holder is None
    jump = expected_regularity(CorpusSpec(family="sign_jump", grid=g))
    assert jump.alpha_band == (0.0, 1.0)


def test_field_file_round_trip(tmp_path):
    g = make_grid(1, 256, 1.0)
    spec = CorpusSpec(family="riesz_of_noise", grid=g, alpha=0.7, seed=3)
    f = generate(spec)
    p = tmp_path / "f.fld"
    save_field(f, p, extra=spec.params())
    got, meta = load_field(p)
    assert np.array_equal(got.values, f.values)
    assert meta["family"] == "riesz_of_noise"
    assert meta["seed"] == "3"


def test_field_file_round_trip_2d(tmp_path):
    g = make_grid(2, 16, 2.0)
    rng = np.random.default_rng(5)
    f = SampledField(grid=g, values=rng.standard_normal(256))
    p = tmp_path / "f2.fld"
    save_field(f, p)
    got, _ = load_field(p)
    assert np.array_equal(got.values, f.values)
    assert got.grid == g


def test_failed_save_field_keeps_the_existing_file(tmp_path):
    # the write goes to a .tmp sibling first; when that fails (here the
    # sibling is a directory), save_field raises OSError and the existing
    # target keeps its bytes
    g = make_grid(1, 8, 1.0)
    p = tmp_path / "f.fld"
    save_field(SampledField(grid=g, values=np.arange(8.0)), p)
    before = p.read_bytes()
    (tmp_path / "f.fld.tmp").mkdir()
    with pytest.raises(OSError):
        save_field(SampledField(grid=g, values=-np.arange(8.0)), p)
    assert p.read_bytes() == before


def test_atomic_write_cut_short_leaves_no_tmp_file(tmp_path):
    # a chunk iterator that fails after its first chunk: the .tmp sibling is
    # deleted, the error propagates and the target keeps its old bytes
    from msq.corpus import atomic_write

    p = tmp_path / "t.csv"
    atomic_write(p, ["old\n"])

    def chunks():
        yield "a,b\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        atomic_write(p, chunks())
    assert sorted(q.name for q in tmp_path.iterdir()) == ["t.csv"]
    assert p.read_text() == "old\n"


def test_field_file_errors(tmp_path):
    good = tmp_path / "good.fld"
    g = make_grid(1, 8, 1.0)
    save_field(SampledField(grid=g, values=np.arange(8.0)), good)
    lines = good.read_text().split("\n")

    truncated = tmp_path / "short.fld"
    truncated.write_text("\n".join(lines[:5]) + "\n")
    with pytest.raises(FieldLengthError):
        load_field(truncated)

    extra = tmp_path / "long.fld"
    extra.write_text("\n".join(lines[:9] + ["1.0", "2.0"]) + "\n")
    with pytest.raises(FieldLengthError):
        load_field(extra)

    bad_dim = tmp_path / "dim3.fld"
    bad_dim.write_text(lines[0].replace("dim=1", "dim=3") + "\n" + "\n".join(lines[1:]))
    with pytest.raises(FieldHeaderError, match="dimension"):
        load_field(bad_dim)

    no_magic = tmp_path / "magic.fld"
    no_magic.write_text("not-a-field 1 2 3\n")
    with pytest.raises(FieldHeaderError):
        load_field(no_magic)

    bad_value = tmp_path / "value.fld"
    bad_value.write_text("\n".join(lines[:3] + ["nope"] + lines[4:9]) + "\n")
    with pytest.raises(FieldValueError):
        load_field(bad_value)

    nonfinite = tmp_path / "inf.fld"
    nonfinite.write_text("\n".join(lines[:3] + ["inf"] + lines[4:9]) + "\n")
    with pytest.raises(FieldValueError, match="non-finite"):
        load_field(nonfinite)


def test_kernel_difference_oracle_matches_spectral():
    g = make_grid(1, 512, 1.0)
    rng = np.random.default_rng(3)
    noise = 2.0 * rng.integers(0, 2, size=512) - 1.0
    base = SampledField(grid=g, values=noise.astype(float))
    alpha = 0.5
    spectral = riesz_potential(base, alpha)
    kernel = riesz_kernel_difference(base, alpha, periods=64)
    a = spectral.values - spectral.values.mean()
    b = kernel.values - kernel.values.mean()
    rel = np.linalg.norm(a - b) / np.linalg.norm(a)
    assert rel < 0.05


def test_roughness_exponent_cusp_local():
    g = make_grid(1, 4096, 1.0)
    lad = make_ladder(g, top_radius=1.0 / 8.0, levels=6)
    f = generate(CorpusSpec(family="cusp", grid=g, gamma=0.5))
    slope = roughness_exponent(f, lad, center=(2048,))
    assert abs(slope - 0.5) / 0.5 < 0.1


def test_roughness_exponent_weierstrass_mean():
    g = make_grid(1, 4096, 1.0)
    lad = make_ladder(g, top_radius=1.0 / 8.0, levels=6)
    f = generate(CorpusSpec(family="weierstrass", grid=g, beta_w=0.3, levels=8))
    slope = roughness_exponent(f, lad)
    assert abs(slope - 0.3) / 0.3 < 0.15


def test_log_singularity_is_finite_and_peaked():
    g = make_grid(1, 256, 1.0)
    f = generate(CorpusSpec(family="log_singularity", grid=g))
    assert np.all(np.isfinite(f.values))
    assert f.values.argmax() in (128, 129)  # singular point sits between them


def test_field_file_error_order(tmp_path):
    # among the first n_points values the first unparsable line wins, with
    # its line number counted over blank lines; past them, any further
    # line, parsable or not, is one value too many
    g = make_grid(1, 8, 1.0)
    good = tmp_path / "good.fld"
    save_field(SampledField(grid=g, values=np.arange(8.0)), good)
    header, *values = good.read_text().split("\n")[:9]

    def load(body):
        p = tmp_path / "case.fld"
        p.write_text("\n".join([header] + body) + "\n")
        return load_field(p)

    cases = [
        (values[:2] + ["", "x"] + values[3:] + ["1.0"], FieldValueError, r"case\.fld:5: unparsable"),
        (values[:6] + ["y", "z"] + ["1.0", "2.0"], FieldValueError, r"case\.fld:8: unparsable"),
        (values + ["", "bad"], FieldLengthError, "more values than the grid holds"),
        (values + ["3.0"], FieldLengthError, "more values than the grid holds"),
        (values[:7] + ["", "  "], FieldLengthError, "7 values for a grid of 8"),
        (values[:7] + ["w"], FieldValueError, r"case\.fld:9: unparsable"),
    ]
    for body, error, message in cases:
        with pytest.raises(error, match=message):
            load(body)
    field, _ = load(["", *values, " ", ""])
    assert field.values.tolist() == list(range(8))
