"""The package runs on numpy alone; scipy is used here only as an oracle."""

import json
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


def test_cli_import_binds_all_six_modules():
    # a tracer that wraps every public function takes each module from
    # sys.modules right after this import, loaded yet or not, and reads its
    # __all__ (or its public names)
    env = dict(os.environ, PYTHONPATH=str(Path(ltoeplitz.__file__).resolve().parents[1]))
    code = (
        "import json, sys, ltoeplitz.cli\n"
        "names = ('symbol', 'operator', 'factorization', 'spectral', 'output', 'cli')\n"
        "mods = {m: sys.modules.get(f'ltoeplitz.{m}') for m in names}\n"
        "print(json.dumps([[m for m in names if mods[m] is None], [\n"
        "    f'{m}.{a}' for m, mod in mods.items() if mod is not None\n"
        "    for a in getattr(mod, '__all__', [a for a in vars(mod) if a[0] != '_'])\n"
        "    if not hasattr(mod, a)]]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(result.stdout) == [[], []]


def test_package_name_imports_only_the_modules_up_to_its_own():
    env = dict(os.environ, PYTHONPATH=str(Path(ltoeplitz.__file__).resolve().parents[1]))
    code = (
        "import json, sys, ltoeplitz\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('ltoeplitz.'))\n"
        "before = loaded()\n"
        "ltoeplitz.truncate\n"
        "print(json.dumps([before, loaded()]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    # symbol imports output, its writer
    assert json.loads(result.stdout) == [
        [], ["ltoeplitz.operator", "ltoeplitz.output", "ltoeplitz.symbol"]
    ]


def _executed_by(runs) -> tuple[list, list]:
    """Exit codes of the argv lists, run through ``cli.main`` in one new
    process, and the package modules whose bodies that process executed (the
    ``exec`` audit event of each module's code, with or without bytecode)."""
    package = Path(ltoeplitz.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    code = (
        "import json, sys\n"
        "ran = set()\n"
        "sys.addaudithook(lambda event, args: event == 'exec' and "
        "ran.add(getattr(args[0], 'co_filename', '')))\n"
        "from ltoeplitz.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "print(json.dumps([codes, sorted(ran)]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    codes, ran = json.loads(result.stdout.splitlines()[-1])
    return codes, sorted(Path(f).stem for f in ran if Path(f).parent == package)


@pytest.fixture
def io_inputs(tmp_path):
    symbol_path = tmp_path / "symbol.json"
    write_symbol_file(FourierSymbol({0: 1.0, 1: 0.7, -2: 0.4j}), symbol_path)
    vector_path = tmp_path / "x.csv"
    vector_path.write_text("k,re,im\n" + "".join(f"{k},{k},-1\n" for k in range(16)))
    return ["--symbol", str(symbol_path), "--lambda-re", "0.5"], vector_path


def test_dense_io_commands_execute_neither_spectral_nor_factorization(io_inputs, tmp_path):
    common, vector_path = io_inputs
    forcing = tmp_path / "b.csv"
    runs = [
        ["build", *common, "--sizes", "16", "--out", str(tmp_path / "t.json")],
        ["build", *common, "--sizes", "16", "--format", "csv", "--out", str(forcing)],
        ["apply", *common, "--vector", str(vector_path), "--out", str(tmp_path / "y.json")],
        ["solve-recurrence", *common, "--sizes", "16", "--out", str(tmp_path / "s.json")],
        ["solve-recurrence", *common, "--sizes", "16", "--b-matrix", str(forcing),
         "--format", "csv", "--out", str(tmp_path / "s.csv")],
    ]
    assert _executed_by(runs) == ([0] * 5, ["__init__", "cli", "operator", "output", "symbol"])


def test_svd_executes_both_modules_and_verify_factorization(io_inputs, tmp_path):
    common, _ = io_inputs
    svd = ["svd", *common, "--sizes", "8", "--out", str(tmp_path / "svd.json")]
    verify = ["verify", *common, "--sizes", "8", "--identity", "wco-sum",
              "--out", str(tmp_path / "verify.json")]
    loaded = ["__init__", "cli", "operator", "output", "symbol"]
    assert _executed_by([svd]) == ([0], sorted([*loaded, "factorization", "spectral"]))
    assert _executed_by([verify]) == ([0], sorted([*loaded, "factorization"]))


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
