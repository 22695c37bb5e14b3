"""Smoke runs of the experiment scripts in ``scripts/`` and of README's library
quickstart, each in its own process."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, **extra_env):
    """``python *args`` in a fresh process that imports the package from src/."""
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=120
    )


def run_script(name, *args, **extra_env):
    return run_python(ROOT / "scripts" / name, *args, **extra_env)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize(
    "name, args, header, count",
    [
        ("sawtooth_growth.py", ["--sizes", "8,16"], ["N", "operator_norm"], 2),
        ("decay_margins.py", ["--seed", "3", "--size", "9"], ["k", "sigma_k"], 9),
        # an SVD core, not the dense 4096 x 4096 truncation
        ("decay_margins.py", ["--seed", "3", "--size", "4096"], ["k", "sigma_k"], 4096),
    ],
)
def test_script_writes_csv(tmp_path, name, args, header, count):
    out = tmp_path / "out.csv"
    proc = run_script(name, *args, "--out", out)
    assert proc.returncode == 0, proc.stderr
    rows = read_rows(out)
    assert rows[0] == header
    assert len(rows) == 1 + count
    assert all(float(value) >= 0 for row in rows[1:] for value in row)


def test_hs_convergence_runs():
    proc = run_script("hs_convergence.py", "--sizes", "4,8")
    assert proc.returncode == 0, proc.stderr
    assert "closed form" in proc.stdout and "N=     8" in proc.stdout


def test_hs_convergence_runs_past_the_dense_limit():
    # 16 MB holds a dense N = 1024 matrix; the norms are summed band by band
    proc = run_script("hs_convergence.py", "--sizes", "8,4096", LT_MEM_BUDGET_MB="16")
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("N=  4096") for line in proc.stdout.splitlines())


def test_readme_library_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
