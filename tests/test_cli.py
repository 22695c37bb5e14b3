import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ltoeplitz
from ltoeplitz import FourierSymbol, write_symbol_file
from ltoeplitz.cli import main
from ltoeplitz.output import read_vector_csv, vector_csv_text


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
