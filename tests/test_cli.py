import gc
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ltoeplitz
from ltoeplitz import FourierSymbol, LambdaToeplitzSpec, analyze, truncate, write_symbol_file
from ltoeplitz.cli import main, parse_args
from ltoeplitz.output import read_vector_csv, vector_csv_text

from conftest import peak_traced_mb


@pytest.fixture
def two_cos_path(tmp_path):
    path = tmp_path / "two_cos.json"
    write_symbol_file(FourierSymbol({1: 1.0, -1: 1.0}), path)
    return str(path)


@pytest.fixture
def analytic_path(tmp_path):
    path = tmp_path / "analytic.json"
    write_symbol_file(FourierSymbol({0: 2.0, 1: 1.0, 3: -0.5j}), path)
    return str(path)


def run_cli(*args):
    return main([str(a) for a in args])


ROOT = Path(__file__).resolve().parents[1]
# The flags every subcommand once took, each with a value it parses.
FORMER_COMMON = {
    "--lambda-re": "0.5", "--lambda-im": "0.25", "--symbol": "s.json", "--sizes": "9",
    "--tol": "1e-9", "--out": "o.json", "--format": "csv", "--rank-tol": "1e-9",
}
OPERATOR = {"--lambda-re", "--lambda-im", "--symbol"}
OUTPUT = {"--out", "--format"}
READS = {
    "build": OPERATOR | {"--sizes"} | OUTPUT,
    "apply": OPERATOR | OUTPUT,
    "svd": OPERATOR | {"--sizes", "--rank-tol"} | OUTPUT,
    "hsnorm": OPERATOR | {"--sizes"} | OUTPUT,
    "verify": OPERATOR | {"--sizes", "--tol"} | OUTPUT,
    "rank": OPERATOR | {"--sizes", "--rank-tol"} | OUTPUT,
    "spectrum": OPERATOR | {"--sizes", "--tol"} | OUTPUT,
    "norms": OPERATOR | {"--sizes"} | OUTPUT,
    "solve-recurrence": OPERATOR | {"--sizes"} | OUTPUT,
    "sawtooth-demo": {"--sizes"} | OUTPUT,
}
REQUIRED = {"apply": ("--vector", "x.csv"), "verify": ("--identity", "unitary")}


class TestFlagsPerCommand:
    """Each subcommand takes exactly the flags it reads; argparse refuses the rest."""

    @pytest.mark.parametrize("command, flag", itertools.product(READS, FORMER_COMMON))
    def test_flag_parses_only_where_it_is_read(self, command, flag, capsys):
        argv = [command, *REQUIRED.get(command, ()), flag, FORMER_COMMON[flag]]
        if flag in READS[command]:
            assert parse_args(argv).command == command
            return
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {flag} {FORMER_COMMON[flag]}" in err

    def test_readme_cli_lines_parse(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        lines = [line for line in readme.splitlines() if line.startswith("ltoep ")]
        commands = {parse_args(shlex.split(line)[1:]).command for line in lines}
        assert commands == set(READS)

    @pytest.mark.parametrize(
        "argv, tolerance",
        [
            (("verify", "--identity", "unitary", "--lambda-im", "1"),
             ltoeplitz.factorization.DEFAULT_UNITARY_TOL),
            (("verify", "--identity", "wco-sum", "--lambda-re", "0.5"),
             ltoeplitz.factorization.DEFAULT_WCO_SUM_TOL),
            (("verify", "--identity", "toeplitz-comp", "--lambda-re", "0.5"),
             ltoeplitz.factorization.DEFAULT_TOEPLITZ_COMP_TOL),
            (("spectrum", "--lambda-re", "0.5"), 1e-14),
        ],
        ids=["unitary", "wco-sum", "toeplitz-comp", "spectrum"],
    )
    def test_omitted_tol_is_the_library_default(self, argv, tolerance, analytic_path, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(*argv, "--symbol", analytic_path, "--sizes", "8", "--out", out) == 0
        assert {r["tolerance"] for r in json.loads(out.read_text())} == {tolerance}


class TestExitStatusContract:
    def test_verify_success_is_zero(self, two_cos_path, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "verify", "--identity", "wco-sum", "--symbol", two_cos_path,
            "--lambda-re", "0.5", "--sizes", "64", "--out", out,
        )
        assert code == 0
        results = json.loads(out.read_text())
        assert results[0]["pass"] is True
        assert results[0]["residual"] < 1e-14

    def test_residual_above_tolerance_is_one(self, two_cos_path, tmp_path):
        # lambda = 0.6 + 0.8i sits on the circle but its powers round, so the
        # factorization residual is tiny yet nonzero
        out = tmp_path / "r.json"
        code = run_cli(
            "verify", "--identity", "unitary", "--symbol", two_cos_path,
            "--lambda-re", "0.6", "--lambda-im", "0.8",
            "--sizes", "64", "--tol", "1e-300", "--out", out,
        )
        assert code == 1
        results = json.loads(out.read_text())
        assert results[0]["pass"] is False

    def test_malformed_json_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"coefficients": [{"n": 0,\n "re"')
        code = run_cli("build", "--symbol", bad, "--sizes", "4")
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_lambda_outside_disc_is_two(self, two_cos_path):
        assert run_cli("build", "--symbol", two_cos_path, "--lambda-re", "2", "--sizes", "4") == 2

    def test_sizes_must_ascend(self, two_cos_path):
        assert run_cli("rank", "--symbol", two_cos_path, "--sizes", "16,8") == 2

    def test_missing_symbol_is_two(self):
        assert run_cli("svd", "--sizes", "8") == 2

    def test_nonpositive_tol_is_two(self, two_cos_path):
        assert run_cli(
            "verify", "--identity", "wco-sum", "--symbol", two_cos_path,
            "--sizes", "8", "--tol", "0",
        ) == 2

    def test_build_takes_one_size(self, two_cos_path):
        assert run_cli("build", "--symbol", two_cos_path, "--sizes", "4,8") == 2

    def test_unknown_identity_rejected_by_parser(self, two_cos_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--identity", "nope", "--symbol", two_cos_path)
        assert exc.value.code == 2

    def test_memory_budget_env(self, two_cos_path, monkeypatch, capsys):
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "1")
        code = run_cli("build", "--symbol", two_cos_path, "--sizes", "1024")
        assert code == 2
        assert "budget" in capsys.readouterr().err


class TestBandwiseMemory:
    """verify and spectrum compare bands in O(N) memory, past the dense limit."""

    @pytest.fixture
    def budget_of_one_mb(self, monkeypatch):
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "1")
        assert ltoeplitz.dense_size_limit() == 256

    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "--identity", "unitary", "--lambda-im", "1"),
            ("verify", "--identity", "wco-sum", "--lambda-re", "0.8"),
            ("verify", "--identity", "toeplitz-comp", "--lambda-re", "0.8"),
            # every predicted point of 0.99 is normal, so all must be distinct;
            # 0.8^m is 0 from m = 3175 on, and those points are left out
            ("spectrum", "--lambda-re", "0.99"),
            ("spectrum", "--lambda-re", "0.8"),
        ],
    )
    def test_checks_pass_far_past_the_dense_limit(self, tmp_path, budget_of_one_mb, args):
        # a dense 4096 x 4096 complex matrix would take 256 MB
        analytic = args[0] == "spectrum" or "toeplitz-comp" in args
        phi = {n: complex(1.0, 0.5 * n) for n in range(0 if analytic else -5, 6)}
        sym = tmp_path / "sym.json"
        write_symbol_file(FourierSymbol(phi), sym)
        out = tmp_path / "r.json"
        code, peak_mb = peak_traced_mb(
            run_cli, *args, "--symbol", sym, "--sizes", "4096", "--out", out
        )
        assert code == 0
        assert all(r["pass"] and r["N"] == 4096 for r in json.loads(out.read_text())
                   if r["variant"] != "as-stated")
        assert peak_mb < 4.0

    def test_build_still_names_the_budget(self, two_cos_path, budget_of_one_mb, capsys):
        assert run_cli("build", "--symbol", two_cos_path, "--sizes", "4096") == 2
        assert "budget 1 MB allows N <= 256" in capsys.readouterr().err


class TestPastTheUnderflowCut:
    """Truncations larger than U, where the powers of lambda are exact zeros."""

    # powers of two: each product with a power of lambda is exact while it
    # stays normal, and a normal power keeps it normal
    COEFFS = {-1: 2.0, 0: 1.0, 1: 4.0j}

    def test_truncate_has_no_subnormal_entry(self):
        # 0.1^k leaves the normal range at k = 308
        spec = LambdaToeplitzSpec(0.1, FourierSymbol(self.COEFFS))
        parts = np.abs(truncate(spec, 320).entries.view(float))
        assert not np.any((parts > 0) & (parts < np.finfo(float).tiny))

    def test_solve_recurrence_still_matches_truncate(self, tmp_path):
        # both take the same products down to the normal range; below it the
        # recurrence goes on into the subnormals, the truncation holds zeros
        sym = tmp_path / "sym.json"
        write_symbol_file(FourierSymbol(self.COEFFS), sym)
        out = tmp_path / "solve.json"
        assert run_cli("solve-recurrence", "--symbol", sym, "--lambda-re", "0.1",
                       "--sizes", "320", "--out", out) == 0
        assert json.loads(out.read_text())["max_diff_vs_truncate"] <= 1e-300


class TestSpectralPastTheDenseLimit:
    """svd, rank and hsnorm read an SVD core and the bands, not the N x N truncation."""

    COEFFS = {d: 1.0 / (1 + abs(d)) + 0.5j * (d % 3) for d in range(-5, 6)}

    def test_commands_run_past_the_dense_limit(self, tmp_path, monkeypatch):
        sym = tmp_path / "band.json"
        write_symbol_file(FourierSymbol(self.COEFFS), sym)
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "16")
        assert ltoeplitz.dense_size_limit() == 1024
        common = ("--symbol", sym, "--lambda-re", "0.8", "--sizes", "4096")
        outs = {command: tmp_path / f"{command}.json" for command in ("svd", "rank", "hsnorm")}
        # a dense 4096 x 4096 complex matrix would take 256 MB
        for command, out in outs.items():
            code, peak_mb = peak_traced_mb(run_cli, command, *common, "--out", out)
            assert code == 0
            assert peak_mb < 16.0
        (report,) = json.loads(outs["svd"].read_text())
        top = ltoeplitz.top_singular_value(LambdaToeplitzSpec(0.8, FourierSymbol(self.COEFFS)), 4096)
        assert abs(report["operator_norm"] - top) <= 1e-12 * top
        assert json.loads(outs["rank"].read_text()) == [
            {"N": 4096, "numerical_rank": report["numerical_rank"]}
        ]
        (hs,) = json.loads(outs["hsnorm"].read_text())["truncations"]
        assert hs["frobenius"] == report["frobenius_norm"]


class TestBoundaryInput:
    """Bad input fails at the boundary with exit 2 and a message naming the field."""

    def test_nan_symbol_coefficient(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text('{"coefficients": [{"n": 0, "re": 1.0, "im": 0.0}, {"n": 2, "re": NaN}]}')
        assert run_cli("hsnorm", "--symbol", bad, "--lambda-re", "0.5", "--sizes", "4") == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "'re'" in err and "n=2" in err

    def test_infinite_vector_entry(self, two_cos_path, tmp_path, capsys):
        vec = tmp_path / "x.csv"
        vec.write_text("k,re,im\n0,1.0,0.0\n1,0.5,inf\n")
        assert run_cli("apply", "--symbol", two_cos_path, "--vector", vec) == 2
        err = capsys.readouterr().err
        assert str(vec) in err and "'im'" in err

    def test_nan_matrix_entry(self, two_cos_path, tmp_path, capsys):
        b_path = tmp_path / "b.csv"
        b_path.write_text("n,m,re,im\n0,0,1,0\n0,1,nan,0\n1,0,0,0\n1,1,0,0\n")
        assert run_cli(
            "solve-recurrence", "--symbol", two_cos_path, "--sizes", "2", "--b-matrix", b_path,
        ) == 2
        err = capsys.readouterr().err
        assert str(b_path) in err and "'re'" in err

    def test_duplicate_matrix_row(self, two_cos_path, tmp_path, capsys):
        # (0, 0) twice and (0, 1) missing: the count of rows is still 4
        b_path = tmp_path / "b.csv"
        b_path.write_text("n,m,re,im\n0,0,1,0\n0,0,2,0\n1,0,0,0\n1,1,0,0\n")
        assert run_cli(
            "solve-recurrence", "--symbol", two_cos_path, "--sizes", "2", "--b-matrix", b_path,
        ) == 2
        err = capsys.readouterr().err
        assert str(b_path) in err and "(0, 0)" in err and "(0, 1)" in err

    def test_toeplitz_comp_power_overflow(self, tmp_path, capsys):
        # the corrected variant scales a_{-200} by 0.01^-200 = 1e400
        sym = tmp_path / "deep.json"
        write_symbol_file(FourierSymbol({-200: 1.0, 0: 1.0}), sym)
        code = run_cli(
            "verify", "--identity", "toeplitz-comp", "--symbol", sym,
            "--lambda-re", "0.01", "--sizes", "300",
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: toeplitz-comp corrected: lambda**-200 overflows "
            "for coefficient index -200 at lambda=(0.01+0j)\n"
        )

    def test_non_numeric_memory_budget(self, two_cos_path, monkeypatch, capsys):
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "abc")
        assert run_cli("build", "--symbol", two_cos_path, "--sizes", "4") == 2
        assert "LT_MEM_BUDGET_MB='abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--lambda-re", "nan"), ("--tol", "inf")])
    def test_non_finite_flag(self, two_cos_path, capsys, flag, value):
        assert run_cli(
            "verify", "--identity", "wco-sum", "--symbol", two_cos_path, "--sizes", "4", flag, value,
        ) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ("hsnorm", "--wco", "--lambda-re", "0.5", "--grid-size", "0"),
            ("norms", "--lambda-re", "1", "--grid-size", "-3"),
        ],
    )
    def test_grid_size_below_one(self, analytic_path, capsys, args):
        assert run_cli(*args, "--symbol", analytic_path, "--sizes", "8") == 2
        assert "--grid-size" in capsys.readouterr().err

    def test_wco_names_the_flag_and_the_index(self, two_cos_path, capsys):
        assert run_cli(
            "hsnorm", "--wco", "--symbol", two_cos_path, "--lambda-re", "0.5", "--sizes", "8",
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --wco: weight must be analytic; found index -1\n"
        assert captured.out == ""

    def test_apply_csv_refuses_overflow(self, tmp_path, capsys):
        # (1 + z) applied to 1e308 entries at lambda = 1 overflows to inf/nan
        sym = tmp_path / "one_plus_z.json"
        write_symbol_file(FourierSymbol({0: 1.0, 1: 1.0}), sym)
        vec = tmp_path / "x.csv"
        vec.write_text("k,re,im\n0,1e308,1e308\n1,1e308,1e308\n2,1e308,1e308\n")
        out = tmp_path / "y.csv"
        code = run_cli(
            "apply", "--symbol", sym, "--lambda-re", "1", "--vector", vec,
            "--format", "csv", "--out", out,
        )
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "non-finite" in err and "column 're', row 0" in err

    def test_build_csv_refuses_overflow(self, tmp_path, capsys):
        # lambda * a_0 = (0.6 + 0.8i)(1.7e308 + 1.7e308i) has imaginary part 1.4 * 1.7e308
        sym = tmp_path / "big.json"
        write_symbol_file(FourierSymbol({0: complex(1.7e308, 1.7e308)}), sym)
        out = tmp_path / "m.csv"
        code = run_cli(
            "build", "--symbol", sym, "--lambda-re", "0.6", "--lambda-im", "0.8",
            "--sizes", "2", "--format", "csv", "--out", out,
        )
        assert code == 2
        assert not out.exists()
        assert "column 'im', row 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ("apply", "--method", "fast"),
            ("apply", "--method", "naive"),
            ("build", "--sizes", "2", "--lambda-im", "0.8"),
        ],
        ids=["apply-fast", "apply-naive", "build"],
    )
    def test_overflow_prints_only_the_error(self, args, tmp_path):
        # a fresh process, because pytest would capture numpy's RuntimeWarnings
        sym = tmp_path / "big.json"
        write_symbol_file(FourierSymbol({0: complex(1.7e308, 1.7e308), 1: 1.0}), sym)
        vec = tmp_path / "x.csv"
        vec.write_text("k,re,im\n0,1e308,1e308\n1,1e308,1e308\n2,1e308,1e308\n")
        if args[0] == "apply":
            args += ("--vector", str(vec))
        env = dict(os.environ, PYTHONPATH=str(Path(ltoeplitz.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "ltoeplitz", *args, "--symbol", str(sym), "--lambda-re", "0.6"],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr

    def test_json_writer_refuses_nan(self):
        from ltoeplitz.output import dumps_json

        with pytest.raises(ValueError, match="non-finite"):
            dumps_json({"closed_form": math.nan})


class TestBuild:
    def test_zero_lambda_csv_structure(self, tmp_path):
        sym = tmp_path / "mode.json"
        write_symbol_file(FourierSymbol({1: 1.0}), sym)
        out = tmp_path / "m.csv"
        code = run_cli(
            "build", "--symbol", sym, "--lambda-re", "0", "--sizes", "4",
            "--format", "csv", "--out", out,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,m,re,im"
        for line in lines[1:]:
            n, m, re, im = line.split(",")
            if int(n) > 0 and int(m) > 0:
                assert float(re) == 0.0 and float(im) == 0.0

    def test_determinism(self, two_cos_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli(
                "build", "--symbol", two_cos_path, "--lambda-re", "0.5",
                "--sizes", "16", "--format", "csv", "--out", out,
            ) == 0
        assert a.read_bytes() == b.read_bytes()


class TestApply:
    def test_fast_and_naive_agree(self, two_cos_path, tmp_path):
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        vec_path = tmp_path / "x.csv"
        vec_path.write_text(vector_csv_text(vec))
        outs = {}
        for method in ("fast", "naive"):
            out = tmp_path / f"{method}.csv"
            code = run_cli(
                "apply", "--symbol", two_cos_path, "--lambda-re", "0.5",
                "--vector", vec_path, "--method", method,
                "--format", "csv", "--out", out,
            )
            assert code == 0
            outs[method] = read_vector_csv(out)
        assert np.max(np.abs(outs["fast"] - outs["naive"])) < 1e-12

    def test_missing_vector_file(self, two_cos_path, tmp_path):
        assert run_cli(
            "apply", "--symbol", two_cos_path, "--vector", tmp_path / "none.csv",
        ) == 2


class TestSvd:
    def test_json_reports(self, two_cos_path, tmp_path):
        out = tmp_path / "svd.json"
        code = run_cli(
            "svd", "--symbol", two_cos_path, "--lambda-re", "0.5",
            "--sizes", "8,16", "--out", out,
        )
        assert code == 0
        reports = json.loads(out.read_text())
        assert [r["N"] for r in reports] == [8, 16]
        assert all(len(r["singular_values"]) == r["N"] for r in reports)

    def test_csv_per_size_files(self, two_cos_path, tmp_path):
        out = tmp_path / "sv.csv"
        code = run_cli(
            "svd", "--symbol", two_cos_path, "--lambda-re", "0.5",
            "--sizes", "4,8", "--format", "csv", "--out", out,
        )
        assert code == 0
        for n in (4, 8):
            text = (tmp_path / f"sv_N{n}.csv").read_text()
            lines = text.strip().splitlines()
            assert lines[0] == "k,sigma_k"
            assert len(lines) == 1 + n

    def test_svd_of_huge_entries_has_a_finite_frobenius_norm(self, tmp_path):
        # squares of 1e160 overflow; the norm itself, about 1.6e160, does not
        sym = tmp_path / "huge.json"
        write_symbol_file(FourierSymbol({0: 1e160, 1: 1e160}), sym)
        out = tmp_path / "svd.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                "svd", "--symbol", sym, "--lambda-re", "0.5", "--sizes", "8", "--out", out
            )
            spec = LambdaToeplitzSpec(0.5, FourierSymbol({0: 1e160, 1: 1e160}))
            direct = analyze(truncate(spec, 8), spec.lam).frobenius_norm
        assert code == 0
        frobenius = json.loads(out.read_text())[0]["frobenius_norm"]
        reference = float(np.linalg.norm(truncate(spec, 8).entries * 2.0**-600)) * 2.0**600
        assert math.isfinite(frobenius)
        assert abs(frobenius - reference) <= 1e-15 * reference
        assert direct == frobenius

    def test_sigma_match_the_closed_form_matrix(self, tmp_path):
        # lambda = 0.8 on support -3..4: the SVD core at both sizes
        coeffs = {d: complex(1.0 / (1 + d * d), 0.3 * d) for d in range(-3, 5)}
        sym = tmp_path / "band.json"
        write_symbol_file(FourierSymbol(coeffs), sym)
        out = tmp_path / "svd.json"
        code = run_cli(
            "svd", "--symbol", sym, "--lambda-re", "0.8", "--sizes", "256,512", "--out", out
        )
        assert code == 0
        reports = json.loads(out.read_text())
        assert [r["N"] for r in reports] == [256, 512]
        for report in reports:
            n = report["N"]
            idx = np.arange(n)
            bands = np.zeros(2 * n - 1, dtype=complex)
            for d, a in coeffs.items():
                bands[d + n - 1] = a
            closed = 0.8 ** np.minimum.outer(idx, idx) * bands[np.subtract.outer(idx, idx) + n - 1]
            dense = np.linalg.svd(closed, compute_uv=False)
            got = np.array(report["singular_values"])
            assert got.shape == (n,)
            assert np.max(np.abs(got - dense)) <= 1e-13 * dense[0]
            rank = int(np.count_nonzero(dense > ltoeplitz.spectral.DEFAULT_RANK_TOL * dense[0]))
            assert report["numerical_rank"] == rank


class TestHsNorm:
    def test_closed_form_vs_truncations(self, two_cos_path, tmp_path):
        out = tmp_path / "hs.json"
        code = run_cli(
            "hsnorm", "--symbol", two_cos_path, "--lambda-re", "0.5",
            "--sizes", "32,64", "--out", out,
        )
        assert code == 0
        data = json.loads(out.read_text())
        closed = data["closed_form"]
        frobs = [t["frobenius"] for t in data["truncations"]]
        assert frobs[0] <= frobs[1] <= closed
        assert math.isclose(frobs[-1], closed, rel_tol=1e-9)

    def test_wco_kernel_quadrature(self, analytic_path, tmp_path):
        out = tmp_path / "hs.json"
        code = run_cli(
            "hsnorm", "--symbol", analytic_path, "--lambda-re", "0.5",
            "--sizes", "64", "--wco", "--grid-size", "512", "--out", out,
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert abs(data["kernel_quadrature"] - data["closed_form"]) < 1e-6

    def test_circle_lambda_rejected(self, two_cos_path):
        assert run_cli("hsnorm", "--symbol", two_cos_path, "--lambda-re", "1") == 2

    @pytest.mark.parametrize("power", [-560, 560])
    def test_scaled_symbol_scales_every_value(self, tmp_path, power):
        # at 2^-560 the squares underflow to 0, at 2^560 they overflow
        data = {}
        for p in (0, power):
            sym = tmp_path / f"s{p}.json"
            write_symbol_file(FourierSymbol({0: math.ldexp(1.0, p), 1: 0.3 * math.ldexp(1.0, p)}), sym)
            out = tmp_path / f"hs{p}.json"
            code = run_cli(
                "hsnorm", "--symbol", sym, "--lambda-re", "0.5", "--sizes", "8,64",
                "--wco", "--grid-size", "64", "--out", out,
            )
            assert code == 0
            data[p] = json.loads(out.read_text())
        base, scaled = data[0], data[power]
        pairs = [(base[k], scaled[k]) for k in ("closed_form", "kernel_quadrature")]
        pairs += [(a["frobenius"], b["frobenius"]) for a, b in zip(base["truncations"], scaled["truncations"])]
        for plain, got in pairs:
            expected = math.ldexp(plain, power)
            assert abs(got - expected) <= 1e-15 * expected


class TestVerifyIdentities:
    def test_unitary_passes_on_circle(self, two_cos_path, tmp_path):
        out = tmp_path / "u.json"
        code = run_cli(
            "verify", "--identity", "unitary", "--symbol", two_cos_path,
            "--lambda-im", "1", "--sizes", "16,32", "--out", out,
        )
        assert code == 0
        assert all(r["pass"] for r in json.loads(out.read_text()))

    def test_toeplitz_comp_reports_both_variants_without_failing(self, tmp_path):
        sym = tmp_path / "co.json"
        write_symbol_file(FourierSymbol({-1: 1.0}), sym)
        out = tmp_path / "tc.json"
        code = run_cli(
            "verify", "--identity", "toeplitz-comp", "--symbol", sym,
            "--lambda-re", "0.5", "--sizes", "8", "--out", out,
        )
        assert code == 0
        results = json.loads(out.read_text())
        by_variant = {r["variant"]: r for r in results}
        assert by_variant["as-stated"]["pass"] is False
        assert by_variant["as-stated"]["residual"] >= 0.74
        assert by_variant["corrected"]["pass"] is True

    def test_csv_format(self, two_cos_path, tmp_path):
        out = tmp_path / "v.csv"
        code = run_cli(
            "verify", "--identity", "wco-sum", "--symbol", two_cos_path,
            "--lambda-re", "0.3", "--sizes", "8", "--format", "csv", "--out", out,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "identity,N,residual,tolerance,pass,variant"
        assert lines[1].startswith("wco-sum,8,")


class TestRankSpectrumNorms:
    def test_rank_study(self, two_cos_path, tmp_path):
        out = tmp_path / "rank.csv"
        code = run_cli(
            "rank", "--symbol", two_cos_path, "--lambda-re", "0",
            "--sizes", "8,16", "--format", "csv", "--out", out,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines == ["N,rank", "8,2", "16,2"]

    def test_spectrum_check(self, analytic_path, tmp_path):
        out = tmp_path / "spec.json"
        code = run_cli(
            "spectrum", "--symbol", analytic_path, "--lambda-re", "0.5",
            "--sizes", "16", "--out", out,
        )
        assert code == 0
        assert json.loads(out.read_text())[0]["identity"] == "wco-spectrum"

    def test_norms_study(self, two_cos_path, tmp_path):
        sym = FourierSymbol({0: 2.0, 1: 1.0, -1: 1.0})
        path = tmp_path / "fejer.json"
        write_symbol_file(sym, path)
        out = tmp_path / "n.json"
        code = run_cli(
            "norms", "--symbol", path, "--lambda-re", "1",
            "--sizes", "16,64", "--out", out,
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert math.isclose(data["sup_norm_estimate"], 4.0, rel_tol=1e-6)
        norms = [row["operator_norm"] for row in data["norms"]]
        assert norms[0] < norms[1] < 4.0

    def test_norms_rejects_interior_lambda(self, two_cos_path):
        assert run_cli("norms", "--symbol", two_cos_path, "--lambda-re", "0.5") == 2


class TestSolveRecurrence:
    def test_reproduces_truncation(self, two_cos_path, tmp_path):
        out = tmp_path / "solve.json"
        code = run_cli(
            "solve-recurrence", "--symbol", two_cos_path, "--lambda-re", "0.4",
            "--sizes", "16", "--out", out,
        )
        assert code == 0
        assert json.loads(out.read_text())["max_diff_vs_truncate"] < 1e-13

    def test_forcing_matrix_from_file(self, two_cos_path, tmp_path):
        from ltoeplitz.output import matrix_csv_text, read_matrix_csv

        rng = np.random.default_rng(11)
        n = 8
        forcing = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b_path = tmp_path / "b.csv"
        b_path.write_text(matrix_csv_text(forcing))
        out = tmp_path / "a.csv"
        code = run_cli(
            "solve-recurrence", "--symbol", two_cos_path, "--lambda-re", "0.4",
            "--sizes", str(n), "--b-matrix", b_path, "--format", "csv", "--out", out,
        )
        assert code == 0
        solved = read_matrix_csv(out)
        shifted = solved[1:, 1:] - 0.4 * solved[:-1, :-1]
        assert np.max(np.abs(shifted - forcing[:-1, :-1])) < 1e-12

    def test_budget_is_checked_before_the_solve(self, two_cos_path, monkeypatch, capsys):
        def solve(*args):
            raise AssertionError("solve_recurrence ran before the budget check")

        monkeypatch.setattr(ltoeplitz.operator, "solve_recurrence", solve)
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "1")
        code = run_cli("solve-recurrence", "--symbol", two_cos_path, "--sizes", "257")
        assert code == 2
        assert "budget 1 MB allows N <= 256" in capsys.readouterr().err

    def test_forcing_shape_mismatch(self, two_cos_path, tmp_path):
        from ltoeplitz.output import matrix_csv_text

        b_path = tmp_path / "b.csv"
        b_path.write_text(matrix_csv_text(np.zeros((4, 4), dtype=complex)))
        assert run_cli(
            "solve-recurrence", "--symbol", two_cos_path, "--lambda-re", "0.4",
            "--sizes", "8", "--b-matrix", b_path,
        ) == 2


class TestSawtoothDemo:
    def test_growth_over_wide_size_range(self, tmp_path):
        out = tmp_path / "saw.json"
        code = run_cli("sawtooth-demo", "--sizes", "8,256", "--out", out)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["growth_factor"] >= 1.5
        assert data["pass"] is True

    def test_slow_growth_exits_one(self, tmp_path):
        out = tmp_path / "saw.json"
        code = run_cli("sawtooth-demo", "--sizes", "64,256", "--out", out)
        assert code == 1
        assert json.loads(out.read_text())["pass"] is False

    def test_runs_past_the_dense_memory_limit(self, tmp_path, monkeypatch):
        # 4 MB holds a dense N=512 matrix, or 128 steps of the N=1024 basis
        plain, budgeted = tmp_path / "plain.json", tmp_path / "budgeted.json"
        assert run_cli("sawtooth-demo", "--sizes", "64,1024", "--out", plain) == 1
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "4")
        assert run_cli("sawtooth-demo", "--sizes", "64,1024", "--out", budgeted) == 1
        growth = json.loads(plain.read_text())["growth_factor"]
        assert abs(json.loads(budgeted.read_text())["growth_factor"] - growth) <= 1e-12

    def test_budget_too_small_for_the_basis(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "0.01")
        code = run_cli("sawtooth-demo", "--sizes", "64,1024", "--out", tmp_path / "saw.json")
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_symbol_out(self, tmp_path):
        out = tmp_path / "saw.json"
        sym_out = tmp_path / "ramp.json"
        code = run_cli(
            "sawtooth-demo", "--sizes", "8,256", "--out", out, "--symbol-out", sym_out,
        )
        assert code == 0
        from ltoeplitz import read_symbol_file, sawtooth

        assert read_symbol_file(sym_out) == sawtooth(256)


class TestDeterministicJson:
    def test_repeated_runs_byte_identical(self, two_cos_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli(
                "svd", "--symbol", two_cos_path, "--lambda-re", "0.7",
                "--sizes", "16", "--out", out,
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_float_format_17_digits(self, two_cos_path, tmp_path):
        out = tmp_path / "hs.json"
        run_cli("hsnorm", "--symbol", two_cos_path, "--lambda-re", "0.5", "--sizes", "8", "--out", out)
        data = json.loads(out.read_text())
        # closed form = sqrt(2)/sqrt(3/4) must round-trip through the 17-digit format
        assert data["closed_form"] == pytest.approx(math.sqrt(2.0) / math.sqrt(0.75), abs=1e-15)


class TestEntryPoint:
    """``python -m ltoeplitz`` and ``ltoep`` freeze the import heap; ``cli.main`` does not."""

    def test_main_leaves_the_collector_alone(self, two_cos_path, tmp_path):
        before = gc.get_freeze_count()
        assert run_cli("build", "--symbol", two_cos_path, "--sizes", "4",
                       "--out", tmp_path / "b.json") == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_module_run_matches_main(self, two_cos_path, tmp_path, capsys, fmt):
        args = ["build", "--symbol", two_cos_path, "--lambda-re", "0.6", "--sizes", "6",
                "--format", fmt]
        here, there = tmp_path / f"main.{fmt}", tmp_path / f"module.{fmt}"
        code = main([*args, "--out", str(here)])
        stdout = capsys.readouterr().out
        env = dict(os.environ, PYTHONPATH=str(Path(ltoeplitz.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "ltoeplitz", *args, "--out", str(there)],
            env=env, capture_output=True, text=True,
        )
        assert (result.returncode, result.stdout, result.stderr) == (code, stdout, "")
        assert there.read_bytes() == here.read_bytes()

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_console_script_target_is_callable(self):
        import importlib
        import tomllib

        scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
        module, _, attr = scripts["ltoep"].partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
