import json
import os
import warnings

import numpy as np
import pytest

from msq.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from msq.corpus import load_field


def run(args):
    return main(args)


@pytest.fixture
def bump_file(tmp_path):
    out = tmp_path / "bump.fld"
    assert run(
        ["generate", "--family", "smooth_bump", "--n", "256", "--period", "1", "--out", str(out)]
    ) == EXIT_OK
    return out


def test_generate_writes_expected_count(bump_file):
    field, meta = load_field(bump_file)
    assert field.values.size == 256
    assert meta["family"] == "smooth_bump"


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.fld", tmp_path / "b.fld"
    for out in (a, b):
        assert run(
            [
                "generate", "--family", "riesz_of_noise", "--n", "128", "--alpha", "0.5",
                "--seed", "9", "--out", str(out),
            ]
        ) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_generate_bad_family_usage_error(tmp_path, capsys):
    rc = run(["generate", "--family", "nope", "--n", "64", "--out", str(tmp_path / "x.fld")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("msq: error:") and "--family" in err


def test_generate_missing_param_usage_error(tmp_path):
    rc = run(["generate", "--family", "cusp", "--n", "64", "--out", str(tmp_path / "x.fld")])
    assert rc == EXIT_USAGE


def test_coeffs_csv_shape_and_determinism(bump_file, tmp_path):
    out = tmp_path / "m.csv"
    args = ["coeffs", "--field", str(bump_file), "--kind", "nu0", "--levels", "3", "--out", str(out)]
    assert run(args) == EXIT_OK
    first = out.read_bytes()
    lines = first.decode().strip().split("\n")
    assert len(lines) - 1 == 256 * 3
    assert run(args) == EXIT_OK
    assert out.read_bytes() == first
    meta = json.loads((tmp_path / "m.csv.json").read_text())
    assert meta["metadata"]["kind"] == "nu0"
    assert meta["config"]["format_version"] == "1"


def test_coeffs_constant_field_zero_column(tmp_path):
    fld = tmp_path / "c.fld"
    assert run(["generate", "--family", "sinusoid", "--frequency", "1", "--n", "64",
                "--out", str(fld)]) == EXIT_OK
    # overwrite with a constant field via the format itself
    lines = fld.read_text().split("\n")
    body = ["2.5"] * 64
    fld.write_text(lines[0] + "\n" + "\n".join(body) + "\n")
    out = tmp_path / "m.csv"
    assert run(["coeffs", "--field", str(fld), "--kind", "nu1", "--out", str(out)]) == EXIT_OK
    vals = [float(l.split(",")[2]) for l in out.read_text().strip().split("\n")[1:]]
    assert max(vals) == 0.0


def test_coeffs_affine_interior_zeros(tmp_path):
    fld = tmp_path / "aff.fld"
    assert run(["generate", "--family", "sinusoid", "--frequency", "1", "--n", "1024",
                "--out", str(fld)]) == EXIT_OK
    lines = fld.read_text().split("\n")
    x = np.arange(1024) / 1024.0
    body = [repr(float(v)) for v in (0.25 + 0.5 * x)]
    fld.write_text(lines[0] + "\n" + "\n".join(body) + "\n")
    out = tmp_path / "m.csv"
    assert run(["coeffs", "--field", str(fld), "--kind", "nu1", "--top-radius", "0.125",
                "--levels", "3", "--out", str(out)]) == EXIT_OK
    rows = [l.split(",") for l in out.read_text().strip().split("\n")[1:]]
    interior = [float(v) for c, r, v in rows if 300 <= int(c) <= 724]
    assert max(interior) < 1e-10


def test_missing_field_file_data_error(tmp_path, capsys):
    rc = run(["coeffs", "--field", str(tmp_path / "absent.fld"), "--kind", "nu0",
              "--out", str(tmp_path / "m.csv")])
    assert rc == EXIT_DATA
    assert "data" in capsys.readouterr().err


def test_malformed_field_file_data_error(tmp_path):
    bad = tmp_path / "bad.fld"
    bad.write_text("junk\n1.0\n")
    rc = run(["coeffs", "--field", str(bad), "--kind", "nu0", "--out", str(tmp_path / "m.csv")])
    assert rc == EXIT_DATA


def test_sqfn_json_and_rerun_identical(bump_file, tmp_path):
    out = tmp_path / "sq.json"
    args = ["sqfn", "--field", str(bump_file), "--kind", "nu0", "--alpha", "0.5",
            "--stride", "16", "--out-json", str(out)]
    assert run(args) == EXIT_OK
    first = out.read_bytes()
    payload = json.loads(first)
    assert payload["constant"] >= 0
    assert payload["metadata"]["sup_lower_bound"] is True
    assert run(args) == EXIT_OK
    assert out.read_bytes() == first


def test_sqfn_csv_output(bump_file, tmp_path):
    outj, outc = tmp_path / "sq.json", tmp_path / "sq.csv"
    assert run(["sqfn", "--field", str(bump_file), "--kind", "nu1", "--alpha", "1.3",
                "--stride", "32", "--out-json", str(outj), "--out-csv", str(outc)]) == EXIT_OK
    lines = outc.read_text().strip().split("\n")
    assert lines[0] == "center_index_0,top_radius,normalized_integral"
    assert len(lines) > 1


def test_sqfn_records_center_stride(bump_file, tmp_path):
    from msq.carleson import carleson_constant
    from msq.coeffs import coefficient_matrix, make_ladder

    out = tmp_path / "sq.json"
    assert run(["sqfn", "--field", str(bump_file), "--kind", "nu0", "--alpha", "0.5",
                "--stride", "4", "--out-json", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["metadata"]["center_stride"] == 4
    field, _ = load_field(bump_file)
    matrix = coefficient_matrix(field, make_ladder(field.grid, levels=2), "nu0")
    report = carleson_constant(matrix, 0.5, centers=[(0,), (7,)])
    assert report.metadata["center_stride"] is None


def test_bmo_command(bump_file, tmp_path):
    out = tmp_path / "bmo.json"
    assert run(["bmo", "--field", str(bump_file), "--stride", "16",
                "--out-json", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["norm"] > 0


@pytest.fixture
def cusp_file(tmp_path):
    out = tmp_path / "cusp.fld"
    assert run(["generate", "--family", "cusp", "--gamma", "0.5", "--n", "64",
                "--out", str(out)]) == EXIT_OK
    return out


@pytest.mark.parametrize("radius", ["0.3", "0.001"])
def test_bmo_radius_out_of_range_usage_error(cusp_file, tmp_path, capsys, radius):
    out = tmp_path / "bmo.json"
    rc = run(["bmo", "--field", str(cusp_file), "--radii", radius, "--out-json", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("msq: error: usage:") and f"window radius {radius}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["bmo", "--radii", "nan"], "window radius nan is not finite"),
    (["strichartz", "--alpha", "0.5", "--order", "first", "--sides", "nan"],
     "cube side nan is not finite"),
    (["strichartz", "--alpha", "0.5", "--order", "second", "--sides", "inf"],
     "cube side inf is not finite"),
], ids=["bmo-nan", "strichartz-nan", "strichartz-inf"])
def test_non_finite_window_size_usage_error(cusp_file, tmp_path, capsys, argv, message):
    out = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(argv[:1] + ["--field", str(cusp_file), "--out-json", str(out)] + argv[1:])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == f"msq: error: usage: {message}\n"
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


def test_empty_list_entry_usage_error(cusp_file, tmp_path, capsys):
    fld, out = str(cusp_file), str(tmp_path / "out")
    cloud = tmp_path / "cloud.txt"
    cloud.write_text("0.0 0.0\n1.0 1.0\n2.0 0.5\n")
    for flag, argv in (
        ("alphas", ["compare", "--field", fld, "--alphas", "0.5,,1", "--out", out]),
        ("radii", ["bmo", "--field", fld, "--radii", "0.1,", "--out-json", out]),
        ("sides", ["strichartz", "--field", fld, "--alpha", "0.5", "--order", "first",
                   "--sides", ",0.25", "--out-json", out]),
        ("tops", ["sqfn", "--field", fld, "--kind", "nu0", "--alpha", "0.5",
                  "--tops", "0.25,,0.125", "--out-json", out]),
        ("center", ["beta", "--cloud", str(cloud), "--center", "1.0,", "--radius", "5.0",
                    "--k", "1", "--out", out]),
    ):
        assert run(argv) == EXIT_USAGE, flag
        assert f"--{flag} has an empty entry" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, scalar, label", [
    (["sqfn", "--kind", "nu0", "--alpha", "0.5", "--stride", "8"], "constant", "per_window"),
    (["bmo", "--stride", "8"], "norm", "per_window"),
    (["strichartz", "--alpha", "0.5", "--order", "second", "--stride", "16"], "B", "per_cube"),
], ids=["sqfn", "bmo", "strichartz"])
def test_report_argmax_is_the_first_maximum_row(cusp_file, tmp_path, argv, scalar, label):
    out = tmp_path / "r.json"
    args = argv[:1] + ["--field", str(cusp_file), "--out-json", str(out)] + argv[1:]
    assert run(args) == EXIT_OK
    first = out.read_bytes()
    assert run(args) == EXIT_OK
    assert out.read_bytes() == first
    payload = json.loads(first)
    best = next(row for row in payload[label] if row[-1] == payload[scalar])
    argmax = payload["metadata"]["argmax"]
    assert argmax["center"] + [argmax["size"], argmax["value"]] == best


def test_compare_records_both_argmaxes(cusp_file, tmp_path):
    from msq.bmo import bmo_norm, make_ball_family
    from msq.carleson import carleson_constant
    from msq.coeffs import coefficient_matrix, make_ladder
    from msq.spectral import fractional_derivative

    out = tmp_path / "cmp.json"
    args = ["compare", "--field", str(cusp_file), "--alphas", "0.5,1.3", "--stride", "4",
            "--out", str(out)]
    assert run(args) == EXIT_OK
    first = out.read_bytes()
    assert run(args) == EXIT_OK
    assert out.read_bytes() == first
    field, _ = load_field(cusp_file)
    ladder = make_ladder(field.grid)
    for rec in json.loads(first)["records"]:
        matrix = coefficient_matrix(field, ladder, rec["kind"])
        carleson = carleson_constant(matrix, rec["alpha"], stride=4)
        osc = bmo_norm(fractional_derivative(field, rec["alpha"]),
                       make_ball_family(field.grid, ladder.radii, stride=4))
        for key, rep, value in (("argmax", carleson, carleson.constant),
                                ("bmo_argmax", osc, osc.norm)):
            best = next(row for row in rep.per_window if row[2] == value)
            got = rec["metadata"][key]
            assert (tuple(got["center"]), got["size"], got["value"]) == best


def test_strichartz_command(bump_file, tmp_path):
    out = tmp_path / "st.json"
    assert run(["strichartz", "--field", str(bump_file), "--alpha", "0.5", "--order",
                "first", "--stride", "64", "--out-json", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["B"] > 0
    rc = run(["strichartz", "--field", str(bump_file), "--alpha", "0.5", "--order",
              "third", "--out-json", str(out)])
    assert rc == EXIT_USAGE


def test_fracderiv_round_trip(bump_file, tmp_path):
    d = tmp_path / "d.fld"
    assert run(["fracderiv", "--field", str(bump_file), "--alpha", "0.5",
                "--out", str(d)]) == EXIT_OK
    field, meta = load_field(d)
    assert field.values.size == 256
    assert meta["derivative_order"] == "0.5"


def test_compare_command(bump_file, tmp_path):
    out = tmp_path / "cmp.json"
    args = ["compare", "--field", str(bump_file), "--alphas", "0.5,1.0,1.5",
            "--stride", "8", "--out", str(out)]
    assert run(args) == EXIT_OK
    payload = json.loads(out.read_text())
    assert len(payload["records"]) == 3
    for rec in payload["records"]:
        assert rec["ratio"] is not None and rec["ratio"] > 0
    first = out.read_bytes()
    assert run(args) == EXIT_OK
    assert out.read_bytes() == first


def test_beta_cloud_collinear(tmp_path):
    cloud = tmp_path / "line.txt"
    t = np.linspace(0, 1, 50)
    cloud.write_text("\n".join(f"{float(x)!r} {float(2 * x + 1)!r}" for x in t) + "\n")
    out = tmp_path / "beta.csv"
    assert run(["beta", "--cloud", str(cloud), "--radius", "2.0", "--k", "1",
                "--out", str(out)]) == EXIT_OK
    line = out.read_text().strip().split("\n")[1]
    beta = float(line.split(",")[-1])
    assert beta < 1e-10
    meta = json.loads((tmp_path / "beta.csv.json").read_text())
    assert meta["weights"] == "unit (no weight column)"


def test_beta_cloud_weight_column(tmp_path):
    cloud = tmp_path / "pts.txt"
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((40, 2))
    cloud.write_text(
        "\n".join(f"{float(p[0])!r} {float(p[1])!r} {1.5!r}" for p in pts) + "\n"
    )
    out = tmp_path / "beta.csv"
    assert run(["beta", "--cloud", str(cloud), "--ambient-dim", "2", "--radius", "5.0",
                "--k", "1", "--out", str(out)]) == EXIT_OK
    meta = json.loads((tmp_path / "beta.csv.json").read_text())
    assert meta["weights"] == "file column"


def test_beta_graph_mode(bump_file, tmp_path):
    out = tmp_path / "graph.csv"
    assert run(["beta", "--graph", "--field", str(bump_file), "--levels", "3",
                "--stride", "32", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "center_index_0,radius,beta,nu1"
    assert len(lines) == 1 + (256 // 32) * 3


def test_beta_graph_default_ladder_marks_insufficient_cells(tmp_path):
    # at r = 4h the lifted ball of the steep bump holds only its center:
    # such cells read nan and are counted instead of aborting the run
    fld, out = tmp_path / "bump.fld", tmp_path / "b.csv"
    assert run(["generate", "--family", "smooth_bump", "--n", "1024", "--out", str(fld)]) == EXIT_OK
    assert run(["beta", "--graph", "--field", str(fld), "--out", str(out)]) == EXIT_OK
    rows = out.read_text().strip().split("\n")[1:]
    nan_rows = sum(row.split(",")[2] == "nan" for row in rows)
    meta = json.loads((tmp_path / "b.csv.json").read_text())
    assert nan_rows > 0 and meta["insufficient_cells"] == nan_rows
    assert np.isfinite(meta["max_beta_over_nu1"]) and np.isfinite(meta["max_nu1_over_beta"])


def test_beta_too_few_points_numeric_error(tmp_path, capsys):
    cloud = tmp_path / "two.txt"
    cloud.write_text("0.0 0.0\n1.0 1.0\n")
    rc = run(["beta", "--cloud", str(cloud), "--radius", "0.1", "--k", "1",
              "--out", str(tmp_path / "b.csv")])
    assert rc == EXIT_NUMERIC
    assert "numeric" in capsys.readouterr().err


def test_config_file_merge(tmp_path, bump_file, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=smooth_bump\nn=128\nperiod=1.0\n")
    out = tmp_path / "f.fld"
    assert run(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    field, _ = load_field(out)
    assert field.values.size == 128
    # flags override the config file
    out2 = tmp_path / "g.fld"
    assert run(["generate", "--config", str(cfg), "--n", "64", "--out", str(out2)]) == EXIT_OK
    assert load_field(out2)[0].values.size == 64
    # values take the subcommand's own flag type, also where its default is None
    good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
    good.write_text("alpha=0.5\n")
    bad.write_text("alpha=abc\n")
    for command, out_flag, extra in (
        ("strichartz", "--out-json", ["--order", "first", "--stride", "64"]),
        ("fracderiv", "--out", []),
    ):
        base = [command, "--field", str(bump_file)] + extra
        by_flag, by_cfg = tmp_path / f"{command}.flag", tmp_path / f"{command}.cfg"
        assert run(base + ["--alpha", "0.5", out_flag, str(by_flag)]) == EXIT_OK
        assert run(base + ["--config", str(good), out_flag, str(by_cfg)]) == EXIT_OK
        assert by_cfg.read_bytes() == by_flag.read_bytes()
        assert run(base + ["--config", str(bad), out_flag, str(by_cfg)]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
    # an explicit flag wins also when it repeats the flag's default
    cfg.write_text("stride=4\n")
    base = ["sqfn", "--field", str(bump_file), "--kind", "nu0", "--alpha", "0.5",
            "--config", str(cfg)]
    for extra, want in ((["--stride", "1"], 1), (["--stride=1"], 1), ([], 4)):
        out = tmp_path / "sq.json"
        assert run(base + extra + ["--out-json", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["config"]["stride"] == want


@pytest.mark.parametrize("stride", ["0", "-2"])
def test_non_positive_stride_usage_error(bump_file, tmp_path, capsys, stride):
    fld, out = str(bump_file), str(tmp_path / "out")
    for argv in (
        ["sqfn", "--field", fld, "--kind", "nu0", "--alpha", "0.5", "--out-json", out],
        ["compare", "--field", fld, "--alphas", "0.5", "--out", out],
        ["bmo", "--field", fld, "--out-json", out],
        ["strichartz", "--field", fld, "--alpha", "0.5", "--order", "first", "--out-json", out],
        ["beta", "--graph", "--field", fld, "--out", out],
    ):
        assert run(argv + [f"--stride={stride}"]) == EXIT_USAGE, argv[0]
        err = capsys.readouterr().err
        assert "Traceback" not in err and "positive integer" in err
    assert not os.path.exists(out)


def test_unknown_config_key_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense=1\n")
    rc = run(["generate", "--config", str(cfg), "--family", "smooth_bump", "--n", "64",
              "--out", str(tmp_path / "f.fld")])
    assert rc == EXIT_USAGE


def test_no_tmp_files_left_behind(bump_file, tmp_path):
    out = tmp_path / "m.csv"
    assert run(["coeffs", "--field", str(bump_file), "--kind", "nu0", "--out", str(out)]) == EXIT_OK
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []
