import contextlib
import dataclasses
import io
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msq import cli as cli_mod
from msq.carleson import comparability_experiment
from msq.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from msq.coeffs import KINDS, coefficient_matrix, make_ladder
from msq.corpus import FAMILIES, load_field


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
    assert lines[0] == "center_index_0,radius,value"
    assert len(lines) - 1 == 256 * 3
    assert run(args) == EXIT_OK
    assert out.read_bytes() == first
    meta = json.loads((tmp_path / "m.csv.json").read_text())
    assert meta["metadata"]["kind"] == "nu0"
    assert meta["config"]["format_version"] == "1"


def test_coeffs_metadata_keeps_fallback_counts_routes_and_margins(bump_file, tmp_path):
    # the metadata file records the per-level diagnostics of the matrix; at
    # 1-d n=256 no smooth_bump level pays for the exact route
    out = tmp_path / "m.csv"
    assert run(["coeffs", "--field", str(bump_file), "--kind", "nu1", "--out", str(out)]) == EXIT_OK
    meta = json.loads((tmp_path / "m.csv.json").read_text())["metadata"]
    assert meta["fallback_counts"] == [221, 256, 256, 256, 256]
    assert meta["routes"] == ["float"] * 5
    assert meta["margins"][0] > 1.0 and meta["margins"][1:] == [None] * 4


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
    # an unused ladder flag would be echoed into the JSON config as NaN
    (["bmo", "--radii", "0.25", "--top-radius", "nan"],
     "--radii replaces the ladder; give it without --top-radius and --levels"),
], ids=["bmo-nan", "strichartz-nan", "strichartz-inf", "bmo-radii-top-radius-nan"])
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
    # the per-side fallback counts are kept, as the coeffs metadata keeps
    # the per-level ones
    counts = payload["metadata"]["fallback_counts"]
    assert sorted(map(float, counts)) == sorted({c[-2] for c in payload["per_cube"]})
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


@pytest.mark.parametrize("extra, message", [
    (["--radius", "inf"], "radius must be positive and finite, got inf"),
    (["--radius", "5.0", "--center", "nan,0"], "--center nan,0 is not finite"),
    (["--radius", "5.0", "--k", "2"], "k must lie in [1, 1], got 2"),
], ids=["radius-inf", "center-nan", "k-range"])
def test_beta_cloud_bad_flag_usage_error(tmp_path, capsys, extra, message):
    cloud, out = tmp_path / "pts.txt", tmp_path / "b.csv"
    cloud.write_text("0.0 0.0\n1.0 1.0\n2.0 0.5\n")
    argv = ["beta", "--cloud", str(cloud), "--k", "1"] + extra + ["--out", str(out)]
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"msq: error: usage: {message}\n"
    assert not out.exists()


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


# Each subcommand's flags in help order, with its defaults other than None.
_PARSER_FLAGS = {
    "generate": ("config family dim n period gamma beta_w levels alpha seed frequency out",
                 {"dim": 1, "period": 1.0}),
    "coeffs": ("config field top_radius levels kind out meta", {}),
    "sqfn": ("config field top_radius levels kind alpha stride tops out_json out_csv",
             {"stride": 1}),
    "bmo": ("config field top_radius levels radii stride out_json out_csv", {"stride": 1}),
    "strichartz": ("config field alpha order sides stride out_json out_csv", {}),
    "fracderiv": ("config field alpha out", {}),
    "compare": ("config field top_radius levels alphas stride out", {"stride": 1}),
    "beta": ("config field top_radius levels cloud ambient_dim center radius k graph stride out",
             {"graph": False}),
}
# Each flag's argparse type and choices, the same in every subcommand; a
# flag not listed is a string with no choices.
_FLAG_TYPES = {
    **dict.fromkeys("dim n levels seed frequency ambient_dim k".split(), ("int", None)),
    **dict.fromkeys("period gamma beta_w top_radius alpha radius".split(), ("float", None)),
    "stride": ("positive_int", None),
    "family": (None, FAMILIES),
    "kind": (None, KINDS),
    "order": (None, ("first", "second")),
}
# Each subcommand's required flags in the order they are checked, with a
# value for each; "{missing}" stands for an input file that does not exist.
_REQUIRED = {
    "generate": [("family", "smooth_bump"), ("n", "16"), ("out", "{out}")],
    "coeffs": [("field", "{missing}"), ("kind", "nu0"), ("out", "{out}")],
    "sqfn": [("field", "{missing}"), ("kind", "nu0"), ("alpha", "0.5"), ("out_json", "{out}")],
    "bmo": [("field", "{missing}"), ("out_json", "{out}")],
    "strichartz": [("field", "{missing}"), ("alpha", "0.5"), ("order", "first"),
                   ("out_json", "{out}")],
    "fracderiv": [("field", "{missing}"), ("alpha", "0.5"), ("out", "{out}")],
    "compare": [("field", "{missing}"), ("alphas", "0.5"), ("out", "{out}")],
    "beta-graph": [("graph", None), ("out", "{out}"), ("field", "{missing}")],
    "beta-cloud": [("out", "{out}"), ("cloud", "{missing}"), ("radius", "1.0"), ("k", "1")],
}


def test_parser_flags_defaults_and_types():
    from msq.cli import _build_parser

    _, commands = _build_parser()
    assert list(commands) == list(_PARSER_FLAGS)
    for name, (flags, defaults) in _PARSER_FLAGS.items():
        actions = [a for a in commands[name]._actions if a.dest != "help"]
        assert [a.dest for a in actions] == flags.split(), name
        assert [a.option_strings for a in actions] == [
            ["--" + dest.replace("_", "-")] for dest in flags.split()], name
        assert {a.dest: a.default for a in actions if a.default is not None} == defaults, name
        for a in actions:
            got = (getattr(a.type, "__name__", None), a.choices and tuple(a.choices))
            assert got == _FLAG_TYPES.get(a.dest, (None, None)), (name, a.dest)


@pytest.mark.parametrize("command", list(_REQUIRED))
def test_required_flags_checked_in_order(tmp_path, capsys, command):
    # each prefix of the required flags names the next one; all of them
    # given, the run gets past the check (a missing input file: exit 3)
    required = _REQUIRED[command]
    argv = [command.split("-")[0]]
    for dest, value in required:
        if value is not None:
            assert run(argv) == EXIT_USAGE
            flag = "--" + dest.replace("_", "-")
            assert capsys.readouterr().err == f"msq: error: usage: {flag} is required\n"
        argv.append("--" + dest.replace("_", "-"))
        if value is not None:
            argv.append(value.format(missing=tmp_path / "absent", out=tmp_path / "out"))
    want = EXIT_OK if command == "generate" else EXIT_DATA
    assert run(argv) == want, capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sqfn", "--field", "{missing}", "--kind", "nu0", "--alpha", "2", "--out-json"],
     "--alpha must lie in (0, 2)"),
    (["strichartz", "--field", "{missing}", "--alpha", "1", "--order", "first", "--out-json"],
     "--alpha must lie in (0, 1)"),
    (["strichartz", "--field", "{missing}", "--alpha", "2", "--order", "second", "--out-json"],
     "--alpha must lie in (0, 2)"),
    (["fracderiv", "--field", "{missing}", "--alpha", "3", "--out"],
     "--alpha must lie in (0, 2)"),
    (["compare", "--field", "{missing}", "--alphas", "0.5,3", "--out"],
     "--alphas must be a nonempty list inside (0, 2)"),
    (["bmo", "--field", "{missing}", "--radii", "0.1", "--levels", "2", "--out-json"],
     "--radii replaces the ladder; give it without --top-radius and --levels"),
    (["sqfn", "--field", "{missing}", "--kind", "nu0", "--alpha", "0.5", "--tops", "0.25,",
      "--out-json"], "--tops has an empty entry in '0.25,'"),
    (["strichartz", "--field", "{missing}", "--alpha", "0.5", "--order", "first", "--sides",
      "x", "--out-json"], "--sides wants a comma-separated float list"),
    (["beta", "--graph", "--field", "{missing}", "--k", "1", "--out"],
     "--graph does not take --k"),
    (["beta", "--cloud", "{missing}", "--center", "nan,0", "--radius", "1.0", "--k", "1",
      "--out"], "--center nan,0 is not finite"),
], ids=["sqfn-alpha", "strichartz-first-alpha", "strichartz-second-alpha", "fracderiv-alpha",
        "compare-alphas", "bmo-radii-levels", "sqfn-tops", "strichartz-sides", "beta-graph-k",
        "beta-cloud-center"])
def test_flags_checked_before_the_input_file(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    argv = [a.format(missing=tmp_path / "absent") for a in argv] + [str(out)]
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"msq: error: usage: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--graph", "--cloud", "{cloud}"], "--graph does not take --cloud"),
    (["--graph", "--ambient-dim", "2"], "--graph does not take --ambient-dim"),
    (["--graph", "--center", "0.5"], "--graph does not take --center"),
    (["--graph", "--radius", "-1"], "--graph does not take --radius"),
    (["--graph", "--k", "5"], "--graph does not take --k"),
    (["--cloud", "{cloud}", "--radius", "5.0", "--k", "1", "--field", "{field}"],
     "--field needs --graph"),
    (["--cloud", "{cloud}", "--radius", "5.0", "--k", "1", "--top-radius", "0.25"],
     "--top-radius needs --graph"),
    (["--cloud", "{cloud}", "--radius", "5.0", "--k", "1", "--levels", "2"],
     "--levels needs --graph"),
    (["--cloud", "{cloud}", "--radius", "5.0", "--k", "1", "--stride", "7"],
     "--stride needs --graph"),
], ids=["graph-cloud", "graph-ambient-dim", "graph-center", "graph-radius", "graph-k",
        "cloud-field", "cloud-top-radius", "cloud-levels", "cloud-stride"])
def test_beta_rejects_the_other_modes_flags(cusp_file, tmp_path, capsys, extra, message):
    cloud, out = tmp_path / "pts.txt", tmp_path / "b.csv"
    cloud.write_text("0.0 0.0\n1.0 1.0\n2.0 0.5\n")
    if "--graph" in extra:
        extra += ["--field", "{field}"]
    argv = ["beta"] + [a.format(cloud=cloud, field=cusp_file) for a in extra]
    assert run(argv + ["--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"msq: error: usage: {message}\n"
    assert not out.exists()
    # a --config file's value is a flag given too
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=5\n")
    argv = ["beta", "--graph", "--field", str(cusp_file), "--config", str(cfg)]
    assert run(argv + ["--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_beta_stride_is_graph_mode_only(bump_file, tmp_path, capsys):
    # the graph mode reads --stride and records 1 when it is not given; the
    # cloud mode rejects it, also from a --config file
    out, cfg = tmp_path / "g.csv", tmp_path / "run.cfg"
    graph = ["beta", "--graph", "--field", str(bump_file), "--levels", "2", "--out", str(out)]
    for extra, want in (([], 1), (["--stride", "32"], 32), (["--config", str(cfg)], 4)):
        cfg.write_text("stride=4\n")
        assert run(graph + extra) == EXIT_OK
        assert json.loads((tmp_path / "g.csv.json").read_text())["config"]["stride"] == want
    cloud = tmp_path / "pts.txt"
    cloud.write_text("0.0 0.0\n1.0 1.0\n2.0 0.5\n")
    cfg.write_text("stride=7\n")
    argv = ["beta", "--cloud", str(cloud), "--radius", "5.0", "--k", "1", "--config", str(cfg),
            "--out", str(tmp_path / "b.csv")]
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "msq: error: usage: --stride needs --graph\n"
    assert not (tmp_path / "b.csv").exists()


def test_config_file_sets_a_switch(bump_file, tmp_path):
    # a true-ish value of a store_true flag in the config file sets it:
    # graph=true runs beta in graph mode, as --graph does
    cfg, by_cfg, by_flag = tmp_path / "c.cfg", tmp_path / "cfg.csv", tmp_path / "flag.csv"
    cfg.write_text("graph=true\nlevels=2\n")
    assert run(["beta", "--config", str(cfg), "--field", str(bump_file),
                "--out", str(by_cfg)]) == EXIT_OK
    assert run(["beta", "--graph", "--levels", "2", "--field", str(bump_file),
                "--out", str(by_flag)]) == EXIT_OK
    assert by_cfg.read_bytes() == by_flag.read_bytes()
    assert json.loads((tmp_path / "cfg.csv.json").read_text())["config"]["graph"] is True


def test_unreadable_config_file_usage_error(bump_file, tmp_path, capsys):
    missing, out = tmp_path / "absent.cfg", tmp_path / "o.csv"
    rc = run(["beta", "--config", str(missing), "--field", str(bump_file), "--out", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"msq: error: usage: cannot read config file {missing}: ")
    assert err.count("\n") == 1 and not out.exists()


def test_unknown_config_key_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense=1\n")
    rc = run(["generate", "--config", str(cfg), "--family", "smooth_bump", "--n", "64",
              "--out", str(tmp_path / "f.fld")])
    assert rc == EXIT_USAGE


def test_no_tmp_files_left_behind(bump_file, tmp_path):
    # the coeffs CSV and the field files of generate and fracderiv go
    # through the same atomic write
    out = tmp_path / "m.csv"
    assert run(["coeffs", "--field", str(bump_file), "--kind", "nu0", "--out", str(out)]) == EXIT_OK
    assert run(["generate", "--family", "cusp", "--gamma", "0.5", "--n", "64",
                "--out", str(tmp_path / "c.fld")]) == EXIT_OK
    assert run(["fracderiv", "--field", str(bump_file), "--alpha", "0.5",
                "--out", str(tmp_path / "d.fld")]) == EXIT_OK
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []
    assert {"m.csv", "m.csv.json", "c.fld", "d.fld"} <= set(os.listdir(tmp_path))


def test_table_writers_byte_layout(tmp_path):
    # a window table of 5,000 rows crosses the 4096-row chunk boundary; its
    # centers and sizes repeat, and its values hold signed zeros, non-finite
    # floats, tiny, huge and subnormal values, repeated and distinct
    rng = np.random.default_rng(8)
    rows = 5000
    centers = np.stack([np.arange(rows) // 3 % 128, np.arange(rows) % 7], axis=1)
    sizes = np.array([0.5, 0.25, 0.1, 1e-05, 3.0])[np.arange(rows) % 5]
    specials = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-05, 1e16, 5e-324])
    values = rng.standard_normal(rows)
    values[rng.integers(0, rows, 1500)] = rng.choice(specials, 1500)
    values[4090:4102] = np.nextafter(specials.repeat(2)[:12], 1.0)  # neighbours, at the boundary
    names, cells = cli_mod._window_table(["size", "value"], centers, sizes, values)
    table = cli_mod._Table(cells)
    listed = [[*c, s, v] for c, s, v in zip(centers.tolist(), sizes.tolist(), values.tolist())]

    csv_path = tmp_path / "t.csv"
    cli_mod._write_rows_csv(str(csv_path), names, table)
    lines = [",".join([*map(str, row[:2]), *map(repr, row[2:])]) for row in listed]
    assert csv_path.read_text() == "\n".join([",".join(names), *lines]) + "\n"

    common = {"per_window_columns": names, "norm": 0.25, "metadata": {
        "b": {"z": [1, 2.5, None], "a": "x\ny"}, "empty_list": [], "empty_dict": {},
        "nan": float("nan"), "list": [{"k": -0.0}]}}
    json_path = tmp_path / "t.json"
    for payload, as_lists in [
        ({**common, "per_window": table, "empty": cli_mod._Table()},
         {**common, "per_window": listed, "empty": []}),
        ({"rows": []}, {"rows": []}),
        ({}, {}),
    ]:
        cli_mod.write_json(str(json_path), payload)
        assert json_path.read_text() == json.dumps(as_lists, indent=2, sort_keys=True) + "\n"


def test_write_json_unencodable_payload_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        cli_mod.write_json(str(tmp_path / "t.json"), {"a": [1.0], "b": np.float32(1.0)})
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", [
    ["sqfn", "--kind", "nu0", "--alpha", "0.5", "--out-json"],
    ["bmo", "--out-json"],
    ["beta", "--graph", "--out"],
], ids=["sqfn", "bmo", "beta-graph"])
@pytest.mark.parametrize("top", ["nan", "-1", "0"])
def test_bad_top_radius_usage_error(cusp_file, tmp_path, capsys, command, top):
    out = tmp_path / "out"
    argv = command[:1] + ["--field", str(cusp_file), "--top-radius", top] + command[1:]
    assert run(argv + [str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("msq: error: usage: ladder top radius") and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# the exit-code contract: 0 ok, 2 usage, 3 data, 4 numeric, one stderr line


def _run_quietly(argv):
    """main(argv) with stderr captured and every warning recorded: (code,
    stderr text, warning messages)."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _assert_contract(code, err, caught, outdir):
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC), err
    assert caught == [] and "Traceback" not in err and "Warning" not in err, err
    if code == EXIT_OK:
        assert err == ""
        for name in os.listdir(outdir):
            if name.endswith(".json"):
                with open(os.path.join(outdir, name)) as fh:
                    json.loads(fh.read(), parse_constant=_reject_constant)
    else:
        assert err.startswith("msq: error: ") and err.count("\n") == 1, err
        assert not re.search(r"\(\d+, '", err), err  # a bare (errno, text) tuple


def _with_header(path, out, old, new):
    text = path.read_text()
    header, body = text.split("\n", 1)
    out.write_text(header.replace(old, new) + "\n" + body)
    return out


@pytest.fixture(scope="module")
def repro_dir(tmp_path_factory):
    """The files of the exit-code repros: 1-d (n=64 unless named), a 2-d
    n=16 constant field on a huge and on a tiny period and a 2-d n=32
    cusp(0.7) field scaled by 1e110 and by 1e155."""
    d = tmp_path_factory.mktemp("repro")
    for name, argv in (("c.fld", ["--family", "cusp", "--gamma", "0.5", "--n", "64"]),
                       ("c8.fld", ["--family", "cusp", "--gamma", "0.5", "--n", "8"]),
                       ("c16.fld", ["--family", "cusp", "--gamma", "0.5", "--n", "16"]),
                       ("r.fld", ["--family", "riesz_of_noise", "--alpha", "0.8", "--seed", "3",
                                  "--n", "64"])):
        assert main(["generate"] + argv + ["--out", str(d / name)]) == EXIT_OK
    for src, name, period in (("c.fld", "tiny.fld", "1e-300"), ("c.fld", "huge.fld", "1e300"),
                              ("r.fld", "rtiny.fld", "1e-300"), ("c.fld", "inf.fld", "inf"),
                              ("c16.fld", "subnormal.fld", "1e-320")):
        _with_header(d / src, d / name, "period=1.0", f"period={period}")
    header = "msq-field v1 dim=2 n_per_axis=16 period=1e300\n"
    (d / "const2.fld").write_text(header + "1.0\n" * 256)
    (d / "const2tiny.fld").write_text(header.replace("1e300", "1e-300") + "1.0\n" * 256)
    from msq import corpus
    from msq.field import SampledField, make_grid

    cusp = corpus.generate(corpus.CorpusSpec(family="cusp", grid=make_grid(2, 32, 1.0), gamma=0.7))
    for scale in ("1e110", "1e155"):
        corpus.save_field(SampledField(grid=cusp.grid, values=float(scale) * cusp.values),
                          d / f"cusp2-{scale}.fld")
    return d


@pytest.mark.parametrize("argv, code", [
    (["sqfn", "--field", "tiny.fld", "--kind", "nu0", "--alpha", "0.5", "--out-json"],
     EXIT_NUMERIC),
    (["coeffs", "--field", "tiny.fld", "--kind", "nu1", "--out"], EXIT_NUMERIC),
    (["compare", "--field", "huge.fld", "--alphas", "0.5,1.3", "--out"], EXIT_NUMERIC),
    (["strichartz", "--field", "rtiny.fld", "--alpha", "0.5", "--order", "first", "--out-json"],
     EXIT_NUMERIC),
    (["beta", "--graph", "--field", "tiny.fld", "--out"], EXIT_NUMERIC),
    (["sqfn", "--field", "const2.fld", "--kind", "nu0", "--alpha", "0.5", "--out-json"],
     EXIT_NUMERIC),
    (["beta", "--graph", "--field", "const2.fld", "--out"], EXIT_NUMERIC),
    (["sqfn", "--field", "c8.fld", "--kind", "nu0", "--alpha", "0.5", "--out-json"], EXIT_DATA),
    (["sqfn", "--field", "c8.fld", "--kind", "nu0", "--alpha", "0.5", "--levels", "1",
      "--out-json"], EXIT_USAGE),
    (["sqfn", "--field", "inf.fld", "--kind", "nu0", "--alpha", "0.5", "--out-json"], EXIT_DATA),
    (["bmo", "--field", "inf.fld", "--out-json"], EXIT_DATA),
    (["strichartz", "--field", "inf.fld", "--alpha", "0.5", "--order", "first", "--out-json"],
     EXIT_DATA),
    (["fracderiv", "--field", "inf.fld", "--alpha", "0.5", "--out"], EXIT_DATA),
    (["strichartz", "--field", "subnormal.fld", "--alpha", "0.5", "--order", "first",
      "--out-json"], EXIT_DATA),
    (["beta", "--graph", "--field", "cusp2-1e155.fld", "--out"], EXIT_NUMERIC),
    (["strichartz", "--field", "const2tiny.fld", "--alpha", "0.5", "--order", "second",
      "--out-json"], EXIT_NUMERIC),
    (["generate", "--family", "sinusoid", "--frequency", "1", "--n", str(2**59), "--out"],
     EXIT_USAGE),
], ids=["sqfn-tiny", "coeffs-tiny", "compare-huge", "strichartz-rtiny", "beta-graph-tiny",
        "sqfn-const2d-huge", "beta-graph-const2d-huge",
        "sqfn-coarse", "sqfn-coarse-levels", "sqfn-inf", "bmo-inf", "strichartz-inf",
        "fracderiv-inf", "strichartz-subnormal", "beta-graph-cusp2d-1e155",
        "strichartz-second-const2d-tiny", "generate-huge-n"])
def test_exit_code_by_fault(repro_dir, tmp_path, argv, code, request):
    argv = [str(repro_dir / a) if a.endswith(".fld") else a for a in argv]
    got, err, caught = _run_quietly(argv + [str(tmp_path / "out")])
    assert got == code, err
    _assert_contract(got, err, caught, tmp_path)
    assert not (tmp_path / "out").exists()
    assert err == _FAULT_MESSAGES.get(request.node.callspec.id, err)


# The stderr line of the fault rows that pin it, by row id.  The 1e155
# cusp's squared gradient overflows in graph_beta_vs_nu1: a numpy error
# names the msq function it came from, as a Python float overflow does.  Every
# cube of the constant field is skipped, and the direct sum's weights still
# overflow on its tiny grid.
_FAULT_MESSAGES = {
    "beta-graph-cusp2d-1e155":
        "msq: error: numeric: overflow in graph_beta_vs_nu1: overflow encountered in square\n",
    "strichartz-second-const2d-tiny":
        "msq: error: numeric: overflow in _stack_totals: Numerical result out of range\n",
}


def test_beta_graph_thin_balls_do_not_overflow(repro_dir, tmp_path):
    # a lifted ball of fewer than k + 1 points is centered on its own
    # centroid, so its unused moments no longer overflow on the 1e110 cusp
    out = tmp_path / "out"
    argv = ["beta", "--graph", "--field", str(repro_dir / "cusp2-1e110.fld"), "--out", str(out)]
    code, err, caught = _run_quietly(argv)
    assert code == EXIT_OK and err == "" and caught == [], err
    assert out.exists()


@pytest.mark.parametrize("order", ["first", "second"])
def test_overflow_message_names_a_function(repro_dir, tmp_path, order):
    # the cube normalization h^(2d) overflows a Python float on the period
    # 1e300 grid: the message names the innermost function, not a
    # comprehension frame (Python 3.11 named it "<listcomp>")
    argv = ["strichartz", "--field", str(repro_dir / "const2.fld"), "--alpha", "0.5",
            "--order", order, "--out-json", str(tmp_path / "out")]
    code, err, caught = _run_quietly(argv)
    assert code == EXIT_NUMERIC
    assert err == "msq: error: numeric: overflow in _strichartz: Numerical result out of range\n"
    _assert_contract(code, err, caught, tmp_path)


def test_header_values_with_whitespace_round_trip(tmp_path):
    # a field file whose name holds a space: fracderiv records it in the
    # header of its output, and the next command reads that output
    src, out = tmp_path / "my field.fld", tmp_path / "my deriv.fld"
    assert main(["generate", "--family", "cusp", "--gamma", "0.5", "--n", "64",
                 "--out", str(src)]) == EXIT_OK
    assert main(["fracderiv", "--field", str(src), "--alpha", "0.7", "--out", str(out)]) == EXIT_OK
    assert main(["fracderiv", "--field", str(out), "--alpha", "0.5",
                 "--out", str(tmp_path / "again.fld")]) == EXIT_OK
    assert load_field(out)[1]["derived_from"] == "my field.fld"
    assert load_field(tmp_path / "again.fld")[1]["derived_from"] == "my deriv.fld"


# Corruptions of a valid 1-d n=16 field file, each an edit of its header
# line and its value lines: each must exit 3 wherever the file is read.
_FIELD_CORRUPTIONS = {
    "magic": lambda h, b: (h.replace("msq-field", "msq-feld"), b),
    "version": lambda h, b: (h.replace(" v1 ", " v9 "), b),
    "no-period": lambda h, b: (h.replace("period=1.0", ""), b),
    "no-n": lambda h, b: (h.replace("n_per_axis=16", ""), b),
    "n-not-pow2": lambda h, b: (h.replace("n_per_axis=16", "n_per_axis=12"), b[:12]),
    "n-huge": lambda h, b: (h.replace("n_per_axis=16", f"n_per_axis={2 ** 40}"), b),
    "dim3": lambda h, b: (h.replace("dim=1", "dim=3"), b),
    "token": lambda h, b: (h + " junk", b),
    "period-inf": lambda h, b: (h.replace("period=1.0", "period=inf"), b),
    "period-nan": lambda h, b: (h.replace("period=1.0", "period=nan"), b),
    "period-zero": lambda h, b: (h.replace("period=1.0", "period=0"), b),
    "unparsable": lambda h, b: (h, b[:3] + ["1.0.0"] + b[4:]),
    "nan-value": lambda h, b: (h, b[:3] + ["nan"] + b[4:]),
    "inf-value": lambda h, b: (h, b[:3] + ["-inf"] + b[4:]),
    "too-few": lambda h, b: (h, b[:-1]),
    "too-many": lambda h, b: (h, b + ["0.5"]),
    "empty": lambda h, b: ("", []),
    "binary": lambda h, b: ("\udcff\udcfe" + h, b),
}

_CLOUD_CORRUPTIONS = {
    "unparsable": "0.0 0.0\n1.0 x\n2.0 0.5\n",
    "ragged": "0.0 0.0\n1.0\n2.0 0.5\n",
    "empty": "# no points\n",
    "one-column": "0.0\n1.0\n2.0\n",
    "nan": "0.0 0.0\nnan 1.0\n2.0 0.5\n",
    "weight-zero": "0.0 0.0 1.0\n1.0 1.0 0.0\n2.0 0.5 1.0\n",
    "binary": "0.0 0.0\n\udcff 1.0\n",
}

# Each subcommand that reads a field file, with valid flags.
_FIELD_COMMANDS = {
    "coeffs": ["coeffs", "--kind", "nu1", "--out", "{out}.csv"],
    "sqfn": ["sqfn", "--kind", "nu0", "--alpha", "0.5", "--out-json", "{out}.json"],
    "bmo": ["bmo", "--out-json", "{out}.json"],
    "strichartz": ["strichartz", "--alpha", "0.5", "--order", "first", "--out-json",
                   "{out}.json"],
    "fracderiv": ["fracderiv", "--alpha", "0.5", "--out", "{out}.fld"],
    "compare": ["compare", "--alphas", "0.5,1.3", "--out", "{out}.json"],
    "beta-graph": ["beta", "--graph", "--out", "{out}.csv"],
}


def _write_text(path, text):
    # surrogate escapes stand for raw non-UTF-8 bytes
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Valid and corrupted input files: {name: (path, corrupt)}."""
    d = tmp_path_factory.mktemp("fuzz")
    base = d / "base.fld"
    assert main(["generate", "--family", "cusp", "--gamma", "0.5", "--n", "16",
                 "--out", str(base)]) == EXIT_OK
    header, *body = base.read_text().split("\n")[:-1]
    files = {"base": (base, False)}
    assert main(["generate", "--family", "riesz_of_noise", "--alpha", "1.3", "--seed", "2",
                 "--dim", "2", "--n", "16", "--out", str(d / "noise2.fld")]) == EXIT_OK
    files["noise2"] = (d / "noise2.fld", False)
    # constant fields: no gradient overflows ahead of the other numeric checks
    header2 = (d / "noise2.fld").read_text().split("\n")[0]
    for name, h, count in (("const", header, 16), ("const2", header2, 256)):
        text = "\n".join([h] + ["2.5"] * count) + "\n"
        files[name] = (_write_text(d / f"{name}.fld", text), False)
    for name in ("base", "noise2", "const", "const2"):
        for period in ("1e-300", "1e300"):
            path = d / f"{name}-{period}.fld"
            _with_header(files[name][0], path, "period=1.0", f"period={period}")
            files[f"{name}-{period}"] = (path, False)
    for name, edit in _FIELD_CORRUPTIONS.items():
        h, b = edit(header, body)
        files[f"field-{name}"] = (_write_text(d / f"{name}.fld", "\n".join([h] + b) + "\n"), True)
    files["cloud"] = (_write_text(d / "cloud.txt", "0.0 0.0\n1.0 1.0\n2.0 0.5\n3.0 0.25\n"), False)
    for name, text in _CLOUD_CORRUPTIONS.items():
        files[f"cloud-{name}"] = (_write_text(d / f"{name}.txt", text), True)
    return files


def test_file_corruption_exits_data_error_everywhere(fuzz_files, tmp_path):
    out = str(tmp_path / "out")
    for name, (path, corrupt) in fuzz_files.items():
        if name.startswith("cloud"):
            readers = {"beta-cloud": ["beta", "--cloud", str(path), "--radius", "5.0", "--k", "1",
                                      "--ambient-dim", "2", "--out", out + ".csv"]}
        else:
            readers = {cmd: [argv[0], "--field", str(path)] + [a.format(out=out) for a in argv[1:]]
                       for cmd, argv in _FIELD_COMMANDS.items()}
        for cmd, argv in readers.items():
            code, err, caught = _run_quietly(argv)
            _assert_contract(code, err, caught, tmp_path)
            if corrupt:
                assert code == EXIT_DATA, (name, cmd, err)
                assert not os.listdir(tmp_path), (name, cmd)
            else:
                assert code != EXIT_DATA, (name, cmd, err)
            for leftover in os.listdir(tmp_path):
                os.remove(tmp_path / leftover)


# Values per flag for the fuzz: valid ones and edge cases.  Sizes stay
# small (n <= 64), so every run is cheap.
_FLOATS = ["0.5", "1.3", "0", "-1", "2", "nan", "inf", "1e-300", "1e300", "x", ""]
_FUZZ_VALUES = {
    "family": ["cusp", "smooth_bump", "riesz_of_noise", "sinusoid", "weierstrass", "nope"],
    "dim": ["1", "2", "3", "0", "x"],
    "n": ["8", "16", "32", "12", "0", "-16", "x"],
    "period": ["1.0", "1e-300", "1e300", "inf", "nan", "0", "-1"],
    "gamma": _FLOATS, "beta_w": _FLOATS, "alpha": _FLOATS, "radius": _FLOATS,
    "levels": ["1", "2", "4", "0", "-1", "40", "x"],
    "seed": ["0", "3", "-1", "x"],
    "frequency": ["1", "3", "0", "x"],
    "kind": ["nu0", "nu1", "nu0_bar", "nu1_bar", "nu0_tilde", "nu1_tilde", "nu2"],
    "top_radius": ["0.25", "0.125", "0.0625", "0.3", "0", "-1", "nan", "inf", "1e-300", "x"],
    "stride": ["1", "3", "8", "1000", "0", "-2", "x"],
    "tops": ["0.25", "0.25,0.125", "0.2", "nan", ",", "x"],
    "radii": ["0.25", "0.125,0.0625", "0.25,0.25", "0.3", "0.001", "nan", "inf", ",", "x"],
    "order": ["first", "second", "third"],
    "sides": ["0.5", "0.25,0.125", "0.3", "0.0625", "0.01", "nan", "inf", ",", "x"],
    "alphas": ["0.5", "0.5,1.3", "1.0", "0", "2", "nan", ",", "0.5,,1", "x"],
    "ambient_dim": ["2", "3", "1", "0", "x"],
    "center": ["0.0,0.0", "1.0", "1.0,2.0,3.0", "nan,0", ",", "x"],
    "k": ["1", "2", "0", "-1", "x"],
    "graph": ["1", "0"],
}
_FUZZ_FLAGS = {
    "generate": ["family", "dim", "n", "period", "gamma", "beta_w", "levels", "alpha", "seed",
                 "frequency"],
    "coeffs": ["top_radius", "levels", "kind"],
    "sqfn": ["top_radius", "levels", "kind", "alpha", "stride", "tops"],
    "bmo": ["top_radius", "levels", "radii", "stride"],
    "strichartz": ["alpha", "order", "sides", "stride"],
    "fracderiv": ["alpha"],
    "compare": ["top_radius", "levels", "alphas", "stride"],
    "beta": ["graph", "top_radius", "levels", "ambient_dim", "center", "radius", "k", "stride"],
}
# A valid value of each required flag, drawn more often than the others
# (for beta, of the cloud mode only).
_FUZZ_VALID = {
    "generate": {"family": "cusp", "n": "16", "gamma": "0.5"},
    "coeffs": {"kind": "nu1"},
    "sqfn": {"kind": "nu0", "alpha": "0.5"},
    "strichartz": {"alpha": "0.5", "order": "first"},
    "fracderiv": {"alpha": "0.5"},
    "compare": {"alphas": "0.5,1.3"},
    "beta": {"radius": "2.0", "k": "1"},
}
_OUT_FLAGS = {
    "generate": ["--out", "{out}.fld"],
    "coeffs": ["--out", "{out}.csv", "--meta", "{out}.json"],
    "sqfn": ["--out-json", "{out}.json", "--out-csv", "{out}.csv"],
    "bmo": ["--out-json", "{out}.json", "--out-csv", "{out}.csv"],
    "strichartz": ["--out-json", "{out}.json", "--out-csv", "{out}.csv"],
    "fracderiv": ["--out", "{out}.fld"],
    "compare": ["--out", "{out}.json"],
    "beta": ["--out", "{out}.csv"],
}


@st.composite
def _fuzz_command(draw, files):
    """(argv, config text or None): a subcommand, an input file, and
    flags, each kept (a valid value of a required flag, else absent) or set
    to a value from its fuzz list, some of them moved to a --config file."""
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    valid = _FUZZ_VALID.get(command, {})
    flags = {}
    for name in _FUZZ_FLAGS[command]:
        if draw(st.sampled_from(("keep", "keep", "keep", "fuzz"))) == "fuzz":
            flags[name] = draw(st.sampled_from(_FUZZ_VALUES[name]))
        elif name in valid and flags.get("graph") != "1":
            flags[name] = valid[name]
    kind = "cloud" if command == "beta" and flags.get("graph") != "1" else "field"
    if command != "generate":
        corrupt = draw(st.booleans())
        names = sorted(n for n, (_, bad) in files.items()
                       if n.startswith("cloud") == (kind == "cloud") and bad == corrupt)
        flags[kind] = str(files[draw(st.sampled_from(names))][0])
    config = {}
    for name in sorted(flags):
        if draw(st.sampled_from((False, False, False, True))):
            config[name] = flags.pop(name)
    argv = [command]
    for name, value in flags.items():
        flag = "--" + name.replace("_", "-")
        if name == "graph":
            argv += [flag] if value == "1" else []
        else:
            argv.append(f"{flag}={value}")
    lines = [f"{k}={v}" for k, v in config.items()]
    lines += draw(st.sampled_from([[]] * 7 + [["# comment"], ["nonsense=1"], ["no value"]]))
    return argv, "\n".join(lines) + "\n" if lines else None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_exit_contract(fuzz_files, tmp_path_factory, data):
    argv, config = data.draw(_fuzz_command(fuzz_files))
    outdir = tmp_path_factory.mktemp("run")
    if config is not None:
        (outdir / "run.cfg").write_text(config)
        argv += ["--config", str(outdir / "run.cfg")]
    argv += [a.format(out=outdir / "out") for a in _OUT_FLAGS[argv[0]]]
    code, err, caught = _run_quietly(argv)
    _assert_contract(code, err, caught, outdir)


def test_compare_builds_one_matrix_per_kind(bump_file, tmp_path, monkeypatch):
    field, _ = load_field(bump_file)
    alphas = [0.5, 1.0, 1.5]
    fresh = [dataclasses.asdict(comparability_experiment(
        field, a, ladder=make_ladder(field.grid), stride=8)) for a in alphas]
    kinds, written = [], {}

    def counted(field, ladder, kind):
        kinds.append(kind)
        return coefficient_matrix(field, ladder, kind)

    monkeypatch.setattr("msq.carleson.coefficient_matrix", counted)
    monkeypatch.setattr(cli_mod, "write_json", lambda path, payload: written.update(payload))
    assert run(["compare", "--field", str(bump_file), "--alphas", "0.5,1.0,1.5",
                "--stride", "8", "--out", str(tmp_path / "cmp.json")]) == EXIT_OK
    assert kinds == ["nu0", "nu1"]
    assert written["records"] == fresh


@pytest.mark.parametrize("scale", [1e250, 1e150, 1e60, 1e-150])
def test_compare_far_from_unit_scale_keeps_exit_code_and_bytes(tmp_path, capsys, monkeypatch,
                                                              scale):
    # with and without bmo_sup's bound, under the CLI's raise mode: at
    # 1e250 the coefficient matrix overflows first (exit 4) either way, and
    # at 1e150, 1e60 and 1e-150 the output is the same
    from msq import bmo, corpus
    from msq.field import SampledField, make_grid

    field = corpus.generate(corpus.CorpusSpec(family="cusp", grid=make_grid(1, 2048, 1.0),
                                              gamma=0.7))
    path = tmp_path / "scaled.fld"
    corpus.save_field(SampledField(grid=field.grid, values=scale * field.values), path)
    results = []
    for cost in (bmo._BOUND_COST, math.inf):
        monkeypatch.setattr(bmo, "_BOUND_COST", cost)
        out = tmp_path / f"cmp_{cost}.json"
        code = run(["compare", "--field", str(path), "--alphas", "0.3,0.8,1.3", "--out", str(out)])
        results.append((code, capsys.readouterr().err, out.read_bytes() if out.exists() else None))
    assert results[0] == results[1]
    assert results[0][0] == (EXIT_NUMERIC if scale == 1e250 else EXIT_OK)
