import json
import os
import runpy

import pytest

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


def test_regularity_sweep_writes_its_json(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert _script_main("run_regularity_sweep.py")(
        ["--n", "256", "--gammas", "0.5", "--betas", "0.5", "--out", str(out)]) == 0
    assert os.listdir(tmp_path) == ["sweep.json"]
    payload = json.loads(out.read_text())
    assert payload["n"] == 256 and [row["family"] for row in payload["rows"]] == [
        "cusp", "weierstrass"]
