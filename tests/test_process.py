"""The installed entry point as a process: `python -m msq` and its imports."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _python(args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def test_python_m_msq_exit_codes(tmp_path):
    # __main__ -> entrypoint -> sys.exit carries main's code to the process
    done = _python(["-m", "msq", "generate", "--family", "smooth_bump", "--n", "16",
                    "--out", "f.fld"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "f.fld").exists()
    done = _python(["-m", "msq", "generate", "--n", "16", "--out", "g.fld"], tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("msq: error: usage:")
    done = _python(["-m", "msq", "coeffs", "--field", "absent.fld", "--kind", "nu0",
                    "--out", "c.csv"], tmp_path)
    assert done.returncode == 3, done.stderr
    assert sorted(os.listdir(tmp_path)) == ["f.fld"]


def test_import_loads_no_scipy(tmp_path):
    # scipy is imported only inside the principal-value oracle's lattice sums
    done = _python(["-c", "import sys, msq, msq.cli; "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                   tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
