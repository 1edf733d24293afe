import json
import os
import runpy

import pytest

from msq.experiments import comparability_ratios, default_specs, two_sided_band
from msq.field import make_grid

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _script_main(name):
    return runpy.run_path(os.path.join(SCRIPTS, name))["main"]


@pytest.mark.parametrize("stride", ["0", "-2", "x"])
def test_comparability_stride_usage_error(capsys, stride):
    with pytest.raises(SystemExit) as exc:
        _script_main("run_comparability.py")([f"--stride={stride}"])
    assert exc.value.code == 2
    assert "argument --stride" in capsys.readouterr().err


@pytest.mark.parametrize("script, flag, value", [
    ("run_comparability.py", "alphas", "0.5,,1"),
    ("run_comparability.py", "alphas", "2.5"),
    ("run_comparability.py", "alphas", "0"),
    ("run_comparability.py", "alphas", "nan"),
    ("run_comparability.py", "noise-alphas", "0.5,x"),
    ("run_comparability.py", "noise-alphas", "2"),
    ("run_regularity_sweep.py", "gammas", "0.5,x"),
    ("run_regularity_sweep.py", "gammas", "1.5"),
    ("run_regularity_sweep.py", "gammas", "0"),
    ("run_regularity_sweep.py", "betas", ","),
    ("run_regularity_sweep.py", "betas", "1"),
])
def test_script_list_flag_usage_error(capsys, script, flag, value):
    # a bad list stops in argparse (exit 2) before any work
    with pytest.raises(SystemExit) as exc:
        _script_main(script)([f"--{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument --{flag}" in capsys.readouterr().err


@pytest.mark.parametrize("script, args, code, message", [
    ("run_comparability.py", ["--n", "100"], 2, "n_per_axis must be a power of two"),
    ("run_comparability.py", ["--n", "0"], 2, "n_per_axis must be a power of two"),
    ("run_comparability.py", ["--n", "6"], 2, "n_per_axis must be a power of two"),
    ("run_comparability.py", ["--n", "8"], 2, "below the 4h floor"),
    ("run_comparability.py", ["--n", "64", "--alphas", "0.3", "--out", "{missing}"], 3,
     "error: data: cannot write"),
    ("run_regularity_sweep.py", ["--n", "0"], 2, "n_per_axis must be a power of two"),
    ("run_regularity_sweep.py", ["--n", "16"], 2, "below the 4h floor"),
    ("run_regularity_sweep.py", ["--n", "32"], 2, "a slope needs 2"),
    ("run_regularity_sweep.py", ["--n", "64", "--gammas", "0.5", "--betas", "0.5", "--out",
                                 "{missing}"], 3, "error: data: cannot write"),
], ids=["comparability-n100", "comparability-n0", "comparability-n6", "comparability-n8",
        "comparability-out", "sweep-n0", "sweep-n16", "sweep-n32", "sweep-out"])
def test_script_bad_input_exit_code(tmp_path, capsys, script, args, code, message):
    # a bad grid or ladder stops in argparse (exit 2) before any work; an
    # output path that cannot be written exits with the data code, 3, and
    # one stderr line
    args = [a.format(missing=tmp_path / "no" / "x.json") for a in args]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            _script_main(script)(args)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    else:
        assert _script_main(script)(args) == 3
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
    assert os.listdir(tmp_path) == []


def test_regularity_sweep_writes_its_json(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert _script_main("run_regularity_sweep.py")(
        ["--n", "256", "--gammas", "0.5", "--betas", "0.5", "--out", str(out)]) == 0
    assert os.listdir(tmp_path) == ["sweep.json"]
    payload = json.loads(out.read_text())
    assert payload["n"] == 256 and [row["family"] for row in payload["rows"]] == [
        "cusp", "weierstrass"]


def test_comparability_writes_its_json(tmp_path, capsys):
    out = tmp_path / "band.json"
    args = ["--n", "256", "--noise-alphas", "0.5", "--out", str(out)]
    assert _script_main("run_comparability.py")(args) == 0
    first = out.read_bytes()
    assert _script_main("run_comparability.py")(args) == 0
    assert out.read_bytes() == first and os.listdir(tmp_path) == ["band.json"]
    payload = json.loads(first)
    ratios = comparability_ratios(default_specs(make_grid(1, 256, 1.0), noise_alphas=[0.5]))
    assert {(r["family"], r["family_order"], r["alpha"]): r["ratio"]
            for r in payload["ratios"]} == ratios
    assert payload["band"] == two_sided_band(ratios)
    assert f"over {len(ratios)} pairs" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("noise-alphas", "0.5,0.5"), ("alphas", "0.3,0.3")])
def test_comparability_shared_ratio_key_usage_error(capsys, flag, value):
    # a repeated order would overwrite one ratio with another
    with pytest.raises(SystemExit) as exc:
        _script_main("run_comparability.py")(["--n", "256", f"--{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "share the ratio key" in err


def test_output_digests_diff_names_each_change(tmp_path, capsys):
    # per differing file, its largest change relative to its largest
    # magnitude; a moved argmax or a changed route is printed, and an
    # argmax that only changes its value is not
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    doc = {"metadata": {"argmax": {"center": [3], "size": 0.25, "value": 2.0},
                        "fallback_counts": [0, 4], "routes": ["float", "exact"]},
           "values": [2.0, -4.0]}
    (old / "a.json").write_text(json.dumps(doc))
    (old / "b.json").write_text(json.dumps(doc))
    doc["metadata"]["argmax"]["value"] = 2.0 + 2.0**-51
    doc["values"][1] = -4.0 + 2.0**-48
    (new / "a.json").write_text(json.dumps(doc))
    doc["metadata"]["argmax"]["center"] = [5]
    doc["metadata"]["routes"] = ["float", "float"]
    (new / "b.json").write_text(json.dumps(doc))
    for d, text in ((old, "nu0,1.5\n"), (new, "nu1,1.5\n")):
        (d / "c.csv").write_text(text)
        (d / "same.csv").write_text("nu0,1.5\n")
    assert _script_main("output_digests.py")(["--diff", str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a.json: largest change 8.88e-16 of its largest magnitude",
        "b.json: text other than its numbers changed",
        '  metadata.argmax: {"center": [3], "size": 0.25, "value": 2.0} -> '
        '{"center": [5], "size": 0.25, "value": 2.0000000000000004}',
        '  metadata.routes: ["float", "exact"] -> ["float", "float"]',
        "c.csv: text other than its numbers changed",
        "3 of 4 files differ",
    ]


def test_batch_ab_one_round_on_the_same_src(capsys):
    # one round of bridge-2d against the same src on both sides: every
    # operation succeeds and both sides write the same outputs
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    assert _script_main("batch_ab.py")(
        [src, src, "--workload", "bridge-2d", "--rounds", "1", "--batches", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("bridge-2d: fastest of 1 batches per process, 1 rounds")
    assert [line.split(" | ")[0] for line in lines[3:5]] == ["| old", "| new"]
    assert all(line.endswith("| 0 |") for line in lines[3:5])
    assert lines[5].endswith("same outputs: yes")
