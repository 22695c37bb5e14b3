"""The package runs on numpy alone; scipy is used here only as an oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.linalg import toeplitz

import ltoeplitz
from ltoeplitz import FourierSymbol, LambdaToeplitzSpec, truncate, write_symbol_file
from ltoeplitz.operator import _next_fast_len


def test_cli_import_leaves_scipy_out():
    env = dict(os.environ, PYTHONPATH=str(Path(ltoeplitz.__file__).resolve().parents[1]))
    code = "import sys, ltoeplitz.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_cli_import_adds_no_dataclasses():
    # the records are __slots__ classes: dataclasses, and the inspect module
    # it imports, would add some milliseconds to every process
    env = dict(os.environ, PYTHONPATH=str(Path(ltoeplitz.__file__).resolve().parents[1]))
    code = ("import sys, numpy; before = set(sys.modules); import ltoeplitz.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def _run_in_fresh_process(runs) -> str:
    """Exit codes of the argv lists, run in one new process, and whether
    scipy got loaded."""
    env = dict(os.environ, PYTHONPATH=str(Path(ltoeplitz.__file__).resolve().parents[1]))
    code = (
        "import sys; from ltoeplitz.cli import main; "
        f"print([main(argv) for argv in {runs!r}], 'scipy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.splitlines()[-1]


def test_norm_commands_leave_scipy_out(tmp_path):
    symbol_path = tmp_path / "two_cos.json"
    write_symbol_file(FourierSymbol({0: 2.0, 1: 1.0, -1: 1.0}), symbol_path)
    runs = [
        ["norms", "--symbol", str(symbol_path), "--sizes", "8,32", "--lambda-re", "1",
         "--out", str(tmp_path / "norms.json")],
        ["sawtooth-demo", "--sizes", "8,256", "--out", str(tmp_path / "saw.json")],
    ]
    assert _run_in_fresh_process(runs) == "[0, 0] False"


def test_svd_commands_leave_scipy_out(tmp_path):
    # at lambda = 0.5 the size 256 takes the SVD core, 8 the dense SVD
    symbol_path = tmp_path / "two_sided.json"
    write_symbol_file(FourierSymbol({0: 1.0, 1: 0.7, -2: 0.4j}), symbol_path)
    common = ["--symbol", str(symbol_path), "--sizes", "8,256", "--lambda-re", "0.5"]
    runs = [
        ["svd", *common, "--out", str(tmp_path / "svd.json")],
        ["rank", *common, "--out", str(tmp_path / "rank.json")],
        ["hsnorm", *common, "--out", str(tmp_path / "hsnorm.json")],
    ]
    assert _run_in_fresh_process(runs) == "[0, 0, 0] False"


def test_fast_len_matches_scipy():
    mismatches = [n for n in range(1, 70001) if _next_fast_len(n) != next_fast_len(n)]
    assert mismatches == []


@pytest.mark.parametrize("n", [1, 2, 3, 17, 128])
def test_toeplitz_gather_matches_scipy_exactly(n):
    rng = np.random.default_rng(n)
    col = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # scipy takes the diagonal from col[0] and ignores row[0]
    symbol = FourierSymbol(
        {**{-k: row[k] for k in range(1, n)}, **{k: col[k] for k in range(n)}}
    )
    assert np.array_equal(truncate(LambdaToeplitzSpec(1.0, symbol), n).entries, toeplitz(col, row))


def _direct_sum(symbol: FourierSymbol, grid_size: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    return sum(v * np.exp(1j * n * theta) for n, v in symbol.items())


@pytest.mark.parametrize("seed", range(6))
def test_evaluate_on_grid_matches_direct_sum(seed):
    rng = np.random.default_rng(seed)
    grid_size = int(rng.integers(1, 40))
    # indices up to three grid lengths either side, so the fold must alias
    span = 3 * grid_size + 2
    indices = rng.choice(np.arange(-span, span + 1), size=min(12, 2 * span + 1), replace=False)
    symbol = FourierSymbol(
        {int(n): complex(rng.standard_normal(), rng.standard_normal()) for n in indices}
    )
    assert any(n < 0 for n in symbol.support)
    assert symbol.max_abs_index >= grid_size
    expected = _direct_sum(symbol, grid_size)
    got = symbol.evaluate_on_grid(grid_size)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(got - expected)) <= 1e-12 * scale


def test_evaluate_on_grid_of_zero_symbol():
    assert np.array_equal(FourierSymbol().evaluate_on_grid(5), np.zeros(5, dtype=complex))
