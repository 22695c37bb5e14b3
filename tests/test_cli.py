import cmath
import gc
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ltoeplitz
from ltoeplitz import FourierSymbol, LambdaToeplitzSpec, analyze, sawtooth, truncate, write_symbol_file
from ltoeplitz.cli import main, parse_args
from ltoeplitz.output import Records, read_matrix_csv, read_vector_csv

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


@pytest.fixture
def huge_index_path(tmp_path):
    # norms evaluates this symbol on 2K + 1 = 2e11 + 1 points
    path = tmp_path / "huge_index.json"
    write_symbol_file(FourierSymbol({0: 1.0, 10**11: 1.0}), path)
    return str(path)


def run_cli(*args):
    return main([str(a) for a in args])


ROOT = Path(__file__).resolve().parents[1]
# The flags every subcommand once took, and --grid-size, each with a value it parses.
FORMER_COMMON = {
    "--lambda-re": "0.5", "--lambda-im": "0.25", "--symbol": "s.json", "--sizes": "9",
    "--tol": "1e-9", "--out": "o.json", "--format": "csv", "--rank-tol": "1e-9",
    "--grid-size": "64",
}
OPERATOR = {"--lambda-re", "--lambda-im", "--symbol"}
OUTPUT = {"--out", "--format"}
READS = {
    "build": OPERATOR | {"--sizes"} | OUTPUT,
    "apply": OPERATOR | OUTPUT,
    "svd": OPERATOR | {"--sizes"} | OUTPUT,
    "hsnorm": OPERATOR | {"--sizes", "--grid-size"} | OUTPUT,
    "verify": OPERATOR | {"--sizes"} | OUTPUT,
    "rank": OPERATOR | {"--sizes"} | OUTPUT,
    "spectrum": OPERATOR | {"--sizes"} | OUTPUT,
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

    # The identity checks compare their residual on s * phi with a relative
    # tolerance and report both divided by s; s = 2**-2 puts analytic.json's
    # largest part, 2, in [0.5, 1).
    @pytest.mark.parametrize(
        "argv, tolerance",
        [
            (("verify", "--identity", "unitary", "--lambda-im", "1"),
             ltoeplitz.factorization.DEFAULT_UNITARY_TOL / 2**-2),
            (("verify", "--identity", "wco-sum", "--lambda-re", "0.5"),
             ltoeplitz.factorization.DEFAULT_WCO_SUM_TOL / 2**-2),
            (("verify", "--identity", "toeplitz-comp", "--lambda-re", "0.5"),
             ltoeplitz.factorization.DEFAULT_TOEPLITZ_COMP_TOL / 2**-2),
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

    def test_residual_above_tolerance_is_one(self, two_cos_path, tmp_path, monkeypatch):
        # lambda = 0.6 + 0.8i sits on the circle but its powers round, so the
        # factorization residual is tiny yet nonzero
        monkeypatch.setattr(ltoeplitz.factorization, "DEFAULT_UNITARY_TOL", 1e-300)
        out = tmp_path / "r.json"
        code = run_cli(
            "verify", "--identity", "unitary", "--symbol", two_cos_path,
            "--lambda-re", "0.6", "--lambda-im", "0.8", "--sizes", "64", "--out", out,
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

    def test_lanczos_without_its_certificate_is_two(self, tmp_path, monkeypatch, capsys):
        # this clustered top needs more than N steps; allow only N
        sym = tmp_path / "clustered.json"
        write_symbol_file(FourierSymbol({0: 0.3, 1: 1.8, 2: -0.2}), sym)
        monkeypatch.setattr(ltoeplitz.spectral, "_STEPS_PER_N", 1)
        out = tmp_path / "norms.json"
        code = run_cli("norms", "--symbol", sym, "--lambda-im", "1", "--sizes", "33", "--out", out)
        assert code == 2 and not out.exists()
        assert capsys.readouterr() == (
            "", "error: Lanczos left sigma_1 uncertified after 33 steps (1N, N=33)\n")

    def test_a_failed_svd_is_two(self, two_cos_path, tmp_path, monkeypatch, capsys):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        code = run_cli("svd", "--symbol", two_cos_path, "--lambda-re", "0.5", "--sizes", "8")
        assert code == 2
        assert capsys.readouterr() == ("", "error: SVD failed at N=8: SVD did not converge\n")


@pytest.mark.parametrize(
    "args, what, budget",
    [(("build", "--sizes", "40"), "N=40 dense truncation", "0.01"),
     (("apply", "--method", "naive", "--vector", "x40.csv"), "N=40 dense truncation", "0.01"),
     # 4 vectors of length 40 and 5 of the FFT length 44
     (("apply", "--vector", "x40.csv"), "N=40 FFT products", "0.001"),
     (("solve-recurrence", "--sizes", "40"), "N=40 dense truncation", "0.01"),
     (("solve-recurrence", "--sizes", "40", "--b-matrix", "b40.csv"), "N=40 forcing matrix read",
      "0.01"),
     (("svd", "--lambda-re", "0.5", "--sizes", "40"), "N=40 dense truncation", "0.01"),
     (("rank", "--lambda-re", "0.5", "--sizes", "40"), "N=40 dense truncation", "0.01"),
     (("norms", "--lambda-re", "1", "--sizes", "40"),
      "K=3 sup-norm estimate (2 complex grids of 4096 points)", "0.01"),
     # the grids take 0.125 MB and fit; one Lanczos step at N = 1024 takes 0.189 MB
     (("norms", "--lambda-re", "1", "--sizes", "1024"), "N=1024: one Lanczos step", "0.15"),
     (("sawtooth-demo", "--sizes", "8,40"), "N=8: one Lanczos step", "0.01"),
     (("hsnorm", "--wco", "--lambda-re", "0.5", "--sizes", "40"),
      "--grid-size 1024 (3 complex grids of 1024 points)", "0.01"),
     # the powers and one band
     (("hsnorm", "--lambda-re", "0.5", "--sizes", "40"), "N=40 Frobenius norm", "0.001")],
    ids=["build", "apply-naive", "apply-fast", "solve-recurrence", "solve-recurrence-b-matrix",
         "svd", "rank", "norms-grid", "norms-lanczos", "sawtooth-demo", "hsnorm-wco", "hsnorm"],
)
def test_every_refusal_is_one_message(tmp_path, monkeypatch, capsys, args, what, budget):
    # every charge against the budget names what it refuses and its size
    monkeypatch.chdir(tmp_path)
    write_symbol_file(FourierSymbol({0: 2.0, 1: 1.0, 3: -0.5j}), "sym.json")
    Path("x40.csv").write_text("".join(Records(np.ones(40, dtype=complex)).chunks()))
    Path("b40.csv").write_text("".join(Records(np.ones((40, 40), dtype=complex)).chunks()))
    monkeypatch.setenv("LT_MEM_BUDGET_MB", budget)
    symbol = () if args[0] == "sawtooth-demo" else ("--symbol", "sym.json")
    assert run_cli(*args, *symbol, "--out", "out.json") == 2
    out, err = capsys.readouterr()
    match = re.fullmatch(r"error: (.+) needs (\S+) MB; budget (\S+) MB \(LT_MEM_BUDGET_MB\)\n", err)
    assert out == "" and match and match[1] == what and float(match[2]) > 0.0
    assert match[3] == budget
    assert not Path("out.json").exists()


def _failing(check, variant=None):
    """``check`` with each result of ``variant`` it makes marked failed."""
    def fail(r):
        return r if r.variant != variant else ltoeplitz.VerificationResult(
            r.identity, r.size, r.residual, r.tolerance, False, r.variant)

    def failing(*args):
        made = check(*args)
        return tuple(map(fail, made)) if isinstance(made, tuple) else fail(made)
    return failing


# Every check the CLI makes, by the module attribute that makes it.
CHECKS = {
    "trace-norm-bound": ("spectral", "trace_norm_bound_check", None),
    "unitary": ("factorization", "verify_unitary_factorization", None),
    "wco-sum": ("factorization", "verify_wco_sum", None),
    "toeplitz-comp as-stated": ("factorization", "verify_toeplitz_comp_factorization", "as-stated"),
    "toeplitz-comp corrected": ("factorization", "verify_toeplitz_comp_factorization", "corrected"),
    "wco-spectrum": ("factorization", "wco_spectrum_check", None),
    "sawtooth-growth": ("cli", "SAWTOOTH_GROWTH_FACTOR", None),
}
SYM, ANALYTIC = ("--symbol", "sym.json", "--lambda-re", "0.5"), ("--symbol", "analytic.json")


@pytest.mark.parametrize(
    "args, failed, status",
    [(("build", *SYM, "--sizes", "8"), list(CHECKS), 0),
     (("apply", *SYM, "--vector", "x.csv"), list(CHECKS), 0),
     (("hsnorm", *ANALYTIC, "--lambda-re", "0.5", "--sizes", "8", "--wco"), list(CHECKS), 0),
     (("rank", *SYM, "--sizes", "8,16"), list(CHECKS), 0),
     (("norms", *ANALYTIC, "--lambda-re", "1", "--sizes", "8,16"), list(CHECKS), 0),
     (("solve-recurrence", *SYM, "--sizes", "8"), list(CHECKS), 0),
     (("svd", *SYM, "--sizes", "8,16"), ["trace-norm-bound"], 1),
     (("svd", *ANALYTIC, "--lambda-re", "1", "--sizes", "8"), ["trace-norm-bound"], 0),
     (("verify", *ANALYTIC, "--lambda-im", "1", "--sizes", "8", "--identity", "unitary"),
      ["unitary"], 1),
     (("verify", *SYM, "--sizes", "8", "--identity", "wco-sum"), ["wco-sum"], 1),
     (("verify", *SYM, "--sizes", "8", "--identity", "toeplitz-comp"),
      ["toeplitz-comp as-stated"], 0),
     (("verify", *SYM, "--sizes", "8", "--identity", "toeplitz-comp"),
      ["toeplitz-comp corrected"], 1),
     (("spectrum", *ANALYTIC, "--lambda-re", "0.5", "--sizes", "8,16"), ["wco-spectrum"], 1),
     (("sawtooth-demo", "--sizes", "8,256"), ["sawtooth-growth"], 1),
     (("sawtooth-demo", "--sizes", "64"), ["sawtooth-growth"], 0)],
    ids=["build", "apply", "hsnorm", "rank", "norms", "solve-recurrence", "svd",
         "svd-on-the-circle", "verify-unitary", "verify-wco-sum",
         "verify-toeplitz-comp-as-stated", "verify-toeplitz-comp-corrected", "spectrum",
         "sawtooth-demo", "sawtooth-demo-one-size"],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_exit_one_exactly_when_a_gated_result_fails(tmp_path, monkeypatch, capsys, args, failed,
                                                     status, fmt):
    """Each command exits 0 as it stands, and ``status`` once the checks in
    ``failed`` fail: 1 where a gated result fails, 0 where none is made or
    the failed one is a report only (the as-stated toeplitz-comp)."""
    monkeypatch.chdir(tmp_path)
    write_symbol_file(FourierSymbol({-1: 1.0, 0: 2.0, 1: 1.0}), "sym.json")
    write_symbol_file(FourierSymbol({0: 2.0, 1: 1.0, 3: -0.5j}), "analytic.json")
    Path("x.csv").write_text("".join(Records(np.ones(8, dtype=complex)).chunks()))
    argv = (*args, "--format", fmt, "--out", f"out.{fmt}")
    assert run_cli(*argv) == 0
    for name in failed:
        module, attr, variant = CHECKS[name]
        module = getattr(ltoeplitz, module)
        if attr == "SAWTOOTH_GROWTH_FACTOR":
            monkeypatch.setattr(module, attr, math.inf)
        else:
            monkeypatch.setattr(module, attr, _failing(getattr(module, attr), variant))
    assert run_cli(*argv) == status
    assert capsys.readouterr().err == ""


class TestBandwiseMemory:
    """verify and spectrum compare bands in O(N) memory, past the dense limit."""

    @pytest.fixture
    def budget_of_one_mb(self, monkeypatch):
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "1")
        with pytest.raises(ltoeplitz.MemoryBudgetExceeded, match="^N=257 dense truncation"):
            truncate(LambdaToeplitzSpec(0.5, FourierSymbol({0: 1.0})), 257)

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
        assert capsys.readouterr().err == (
            "error: N=4096 dense truncation needs 256 MB; budget 1 MB (LT_MEM_BUDGET_MB)\n")


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
        with pytest.raises(ltoeplitz.MemoryBudgetExceeded, match="^N=1025 dense truncation"):
            truncate(LambdaToeplitzSpec(0.8, FourierSymbol(self.COEFFS)), 1025)
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

    @pytest.mark.parametrize("raw", ["-5", "-1e-300"])
    def test_negative_memory_budget(self, two_cos_path, monkeypatch, capsys, raw):
        # refused as input, not read as a budget that every allocation exceeds
        monkeypatch.setenv("LT_MEM_BUDGET_MB", raw)
        assert run_cli("build", "--symbol", two_cos_path, "--sizes", "2") == 2
        assert capsys.readouterr().err == (
            f"error: LT_MEM_BUDGET_MB={raw!r} is negative: a budget is at least 0 megabytes\n")

    def test_zero_memory_budget_refuses_every_allocation(self, two_cos_path, monkeypatch, capsys):
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "0")
        assert run_cli("build", "--symbol", two_cos_path, "--sizes", "1") == 2
        assert capsys.readouterr().err == (
            "error: N=1 dense truncation needs 1.53e-05 MB; budget 0 MB (LT_MEM_BUDGET_MB)\n")

    @pytest.mark.parametrize("flag, value", [("--lambda-re", "nan")])
    def test_non_finite_flag(self, two_cos_path, capsys, flag, value):
        assert run_cli(
            "verify", "--identity", "wco-sum", "--symbol", two_cos_path, "--sizes", "4", flag, value,
        ) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ("hsnorm", "--wco", "--lambda-re", "0.5", "--grid-size", "0"),
            # norms has a fixed grid: argparse refuses the flag, whatever its value
            ("norms", "--lambda-re", "1", "--grid-size", "-3"),
        ],
    )
    def test_grid_size_below_one(self, analytic_path, capsys, args):
        try:
            status = run_cli(*args, "--symbol", analytic_path, "--sizes", "8")
        except SystemExit as exc:
            status = exc.code
        assert status == 2
        assert "--grid-size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, huge_index, source",
        [(("hsnorm", "--wco", "--lambda-re", "0.5", "--grid-size", "100000000000"), False,
          "--grid-size 100000000000"),
         (("norms", "--lambda-re", "1"), True, "K=100000000000 sup-norm estimate")],
        ids=["hsnorm", "norms"],
    )
    def test_grid_size_over_the_budget(self, analytic_path, huge_index_path, capsys, args,
                                       huge_index, source):
        # 1e11 complex points would take 1.5 TB
        path = huge_index_path if huge_index else analytic_path
        assert run_cli(*args, "--symbol", path, "--sizes", "8") == 2
        captured = capsys.readouterr()
        assert source in captured.err and "budget 1024 MB" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "args, huge_index, message",
        [(("hsnorm", "--wco", "--lambda-re", "1", "--grid-size", "100000000000"), False,
          "Hilbert-Schmidt closed form requires |lambda| < 1"),
         (("norms", "--lambda-re", "0.5"), True, "norm convergence study requires |lambda| = 1")],
        ids=["hsnorm", "norms"],
    )
    def test_bad_lambda_is_refused_before_the_grid(self, analytic_path, huge_index_path, capsys,
                                                   args, huge_index, message):
        path = huge_index_path if huge_index else analytic_path
        assert run_cli(*args, "--symbol", path, "--sizes", "8") == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_norms_names_an_overflowing_twist(self, tmp_path, capsys):
        sym = tmp_path / "big.json"
        sym.write_text('{"coefficients": [{"n": 1, "re": 1.5e308, "im": 1.5e308}]}')
        lam = cmath.exp(0.25j * math.pi)
        assert run_cli("norms", "--symbol", sym, "--lambda-re", repr(lam.real),
                       "--lambda-im", repr(lam.imag), "--sizes", "4") == 2
        assert capsys.readouterr().err == (
            f"error: twist_plus: conj(lambda)**1 * a_1 overflows at lambda={lam!r}\n"
        )
        # the twist at 0.7 - 0.7i overflows too, but |lambda| != 1 is refused first
        assert run_cli("norms", "--symbol", sym, "--lambda-re", "0.7", "--lambda-im", "-0.7",
                       "--sizes", "4") == 2
        assert capsys.readouterr().err == "error: norm convergence study requires |lambda| = 1\n"

    @pytest.mark.parametrize(
        "args, symbol, points, grids, source, budget",
        [(("hsnorm", "--wco", "--lambda-re", "0.5", "--grid-size", "32768"), None, 32768, 3,
          "--grid-size 32768", "1"),
         # K = 3: the grid of 4096 points, 0.0625 MB each
         (("norms", "--lambda-re", "1"), None, 4096, 2, "K=3 sup-norm estimate", "0.1"),
         # the ramp on -K..K, K = 20000, is evaluated on its 2K + 1 points, more than 4096
         (("norms", "--lambda-re", "-1"), sawtooth(20000), 40001, 2,
          "K=20000 sup-norm estimate", "1"),
         (("norms", "--lambda-re", "1"), FourierSymbol({0: 1.0, 10**20: 1.0}), 2 * 10**20 + 1, 2,
          "K=100000000000000000000 sup-norm estimate", "1")],
        ids=["hsnorm", "norms", "norms-ramp", "norms-huge-index"],
    )
    def test_grid_size_charges_every_grid_held_at_once(
        self, analytic_path, tmp_path, monkeypatch, capsys, args, symbol, points, grids, source,
        budget,
    ):
        # one grid fits in the budget; the grids that are held together do
        # not, and norms charges them before its study, which would hide them
        # behind a Lanczos budget refusal or run to the end first
        def study(*args):
            raise AssertionError("the norms study ran before the grid was charged")

        path = analytic_path
        if symbol is not None:
            path = tmp_path / "symbol.json"
            write_symbol_file(symbol, path)
        monkeypatch.setattr(ltoeplitz.spectral, "top_singular_value", study)
        monkeypatch.setenv("LT_MEM_BUDGET_MB", budget)
        assert run_cli(*args, "--symbol", path, "--sizes", "8") == 2
        need = grids * points * 16 / 2**20
        assert capsys.readouterr().err == (
            f"error: {source} ({grids} complex grids of {points} points) "
            f"needs {need:.3g} MB; budget {budget} MB (LT_MEM_BUDGET_MB)\n"
        )

    @pytest.mark.parametrize(
        "args, message",
        [(("--sizes", "4,x"), "bad --sizes value '4,x': entry 2 is 'x', not an ASCII decimal integer"),
         (("--sizes", ","), "--sizes must name at least one truncation size"),
         (("--sizes", "0,4"), "--sizes entries must be positive"),
         (("--sizes", "8,,16"), "bad --sizes value '8,,16': entry 2 is empty"),
         (("--sizes", ",8"), "bad --sizes value ',8': entry 1 is empty"),
         (("--sizes", "1_6"), "bad --sizes value '1_6': entry 1 is '1_6', not an ASCII decimal integer"),
         (("--sizes", "\u0663"),
          "bad --sizes value '\u0663': entry 1 is '\u0663', not an ASCII decimal integer")],
        ids=["sizes-value", "sizes-empty", "sizes-non-positive", "sizes-empty-entry",
             "sizes-leading-comma", "sizes-underscore", "sizes-arabic-indic-digit"],
    )
    def test_malformed_flag_value(self, two_cos_path, capsys, args, message):
        assert run_cli("svd", "--symbol", two_cos_path, *args) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "text, message",
        [('{"coefficients": [{"n": 1.5, "re": 1.0}]}',
          "field 'n' of coefficients[0] must be a JSON integer, not 1.5"),
         ('{"coefficients": [{"n": true, "re": 1.0}]}',
          "field 'n' of coefficients[0] must be a JSON integer, not true"),
         ('{"coefficients": [{"n": "2", "re": "1e0"}]}',
          'field \'n\' of coefficients[0] must be a JSON integer, not "2"'),
         ('{"coefficients": [{"n": 2, "re": "1e0"}]}',
          'field \'re\' of coefficient n=2 must be a JSON number, not "1e0"'),
         ('{"coefficients": {"0": {"re": 1.0}}}',
          "field 'coefficients' must be a list of objects"),
         ('{"coefficients": [{"n": 1, "real": 2.0}, {"n": 0, "re": 1.0}]}',
          "coefficients[0] has unknown field 'real'; an entry holds only 'n', 're' and 'im'")],
        ids=["float-index", "bool-index", "string-index", "string-value", "coefficients-object",
             "unknown-field"],
    )
    def test_symbol_file_types(self, tmp_path, capsys, text, message):
        sym = tmp_path / "sym.json"
        sym.write_text(text)
        assert run_cli("svd", "--symbol", sym, "--lambda-re", "0.5", "--sizes", "4") == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {sym}: bad symbol JSON: {message}\n")

    def test_grid_size_is_not_charged_where_no_grid_is_made(self, analytic_path, capsys):
        assert run_cli("hsnorm", "--lambda-re", "0.5", "--symbol", analytic_path, "--sizes", "8",
                       "--grid-size", "100000000000") == 0
        assert "kernel_quadrature" not in capsys.readouterr().out

    def test_norms_past_the_krylov_budget(self, analytic_path, monkeypatch, capsys):
        # one Lanczos step at N = 2e7 takes 3968 MB: refused before anything is allocated
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "64")
        code, peak_mb = peak_traced_mb(
            run_cli, "norms", "--lambda-re", "1", "--sizes", "20000000", "--symbol", analytic_path
        )
        assert code == 2 and peak_mb < 1.0
        assert "N=20000000: one Lanczos step needs" in capsys.readouterr().err

    def test_norms_charges_only_the_bands_a_step_keeps(self, tmp_path, monkeypatch, capsys):
        # the K = 20000 ramp stores 40001 coefficients, but a step at N = 64
        # keeps its 127 bands |d| < 64; its two grids take 1.22 MB
        path = tmp_path / "ramp.json"
        write_symbol_file(sawtooth(20000), path)
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "2")
        assert run_cli("norms", "--symbol", path, "--lambda-re", "-1", "--sizes", "64") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "args, what",
        [(("hsnorm", "--lambda-re", "0.5"), "powers needs 1.53e+06"),
         (("spectrum", "--lambda-re", "0.5"), "wco-spectrum check needs 4.58e+06"),
         (("verify", "--identity", "unitary", "--lambda-im", "1"), "unitary check needs 7.63e+06"),
         (("verify", "--identity", "wco-sum", "--lambda-re", "0.5"), "wco-sum check needs 6.87e+06"),
         (("verify", "--identity", "toeplitz-comp", "--lambda-re", "0.5"),
          "toeplitz-comp check needs 7.63e+06"),
         (("svd", "--lambda-re", "0.5"), "singular values needs 1.53e+06"),
         (("rank", "--lambda-re", "0.5"), "singular values needs 1.53e+06")],
        ids=["hsnorm", "spectrum", "verify-unitary", "verify-wco-sum", "verify-toeplitz-comp",
             "svd", "rank"],
    )
    def test_a_size_that_cannot_be_allocated_is_two(self, analytic_path, capsys, args, what):
        # N = 1e11 powers, or singular values with their zero padding, take 1.5 TB,
        # and a band-wise check 2.5 to 5 times that: charged before they are
        # allocated, not left to numpy's MemoryError
        assert run_cli(*args, "--symbol", analytic_path, "--sizes", "100000000000") == 2
        assert capsys.readouterr() == ("", f"error: N=100000000000 {what} MB; "
                                           "budget 1024 MB (LT_MEM_BUDGET_MB)\n")

    def test_wco_names_the_flag_and_the_index(self, two_cos_path, capsys):
        assert run_cli(
            "hsnorm", "--wco", "--symbol", two_cos_path, "--lambda-re", "0.5", "--sizes", "8",
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --wco: weight must be analytic; found index -1\n"
        assert captured.out == ""

    def test_spectrum_names_the_symbol_file(self, two_cos_path, capsys):
        assert run_cli("spectrum", "--symbol", two_cos_path, "--lambda-re", "0.5", "--sizes", "8") == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {two_cos_path}: weight must be analytic; found index -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "args, header, flag, what",
        [
            (("apply",), "k,re,im", "--vector", "vector"),
            (("solve-recurrence", "--sizes", "2"), "n,m,re,im", "--b-matrix", "matrix"),
        ],
        ids=["apply", "solve-recurrence"],
    )
    def test_header_only_csv_prints_only_the_error(self, two_cos_path, tmp_path, args, header,
                                                   flag, what):
        # a fresh process, because pytest would capture numpy's loadtxt warning
        table = tmp_path / "t.csv"
        table.write_text(header + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(ltoeplitz.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "ltoeplitz", *args, "--symbol", two_cos_path, flag, str(table)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: bad {flag} file: {table}: no {what} entries\n"

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

    @pytest.mark.parametrize("out", [True, False], ids=["file", "stdout"])
    def test_json_refuses_overflow_before_writing(self, tmp_path, capsys, out):
        sym = tmp_path / "one_plus_z.json"
        write_symbol_file(FourierSymbol({0: 1.0, 1: 1.0}), sym)
        vec = tmp_path / "x.csv"
        vec.write_text("k,re,im\n0,1e308,1e308\n1,1e308,1e308\n2,1e308,1e308\n")
        path = tmp_path / "y.json"
        code = run_cli("apply", "--symbol", sym, "--lambda-re", "1", "--vector", vec,
                       *(["--out", path] if out else []))
        assert code == 2
        assert not path.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "column 're', row 0" in captured.err

        sym = tmp_path / "big.json"
        write_symbol_file(FourierSymbol({0: complex(1.7e308, 1.7e308)}), sym)
        path = tmp_path / "m.json"
        code = run_cli("build", "--symbol", sym, "--lambda-re", "0.6", "--lambda-im", "0.8",
                       "--sizes", "2", *(["--out", path] if out else []))
        assert code == 2
        assert not path.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "column 'im', row 3" in captured.err

    @pytest.mark.parametrize("out", [True, False], ids=["file", "stdout"])
    def test_json_refuses_a_scalar_after_the_records(self, two_cos_path, tmp_path, monkeypatch,
                                                      capsys, out):
        # every entry is finite, but |1.7e308 (1 + i)| overflows, so
        # max_diff_vs_truncate, which sorts after "entries", is inf
        real_solve = ltoeplitz.operator.solve_recurrence

        def solve(*args):
            solved = real_solve(*args)
            solved[-1, -1] = complex(1.7e308, 1.7e308)
            return solved

        monkeypatch.setattr(ltoeplitz.operator, "solve_recurrence", solve)
        path = tmp_path / "s.json"
        code = run_cli("solve-recurrence", "--symbol", two_cos_path, "--sizes", "64",
                       *(["--out", path] if out else []))
        assert code == 2
        assert not path.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite number inf" in captured.err

    @pytest.mark.parametrize(
        "args, coeffs",
        [
            (("apply", "--method", "fast"), None),
            (("apply", "--method", "naive"), None),
            (("build", "--sizes", "2", "--lambda-im", "0.8"), None),
            # results past the float range once the 2^e scaling is undone
            (("svd", "--sizes", "4", "--lambda-re", "1"), {0: 1.7e308}),
            (("hsnorm", "--sizes", "8", "--lambda-re", "0.5"), {0: 1.7e308}),
            (("verify", "--identity", "toeplitz-comp", "--sizes", "8", "--lambda-re", "0.5"),
             {-1: complex(1.7e308, -1.7e308), 0: complex(1.7e308, 1.7e308)}),
            # sigma_1 and the sup norm near 3e308, from a finite scaled symbol
            (("norms", "--sizes", "8", "--lambda-re", "1"), {-1: 1e308, 0: 1e308, 1: 1e308}),
        ],
        ids=["apply-fast", "apply-naive", "build", "svd", "hsnorm", "verify", "norms"],
    )
    def test_overflow_prints_only_the_error(self, args, coeffs, tmp_path):
        # a fresh process, because pytest would capture numpy's RuntimeWarnings
        sym = tmp_path / "big.json"
        write_symbol_file(FourierSymbol(coeffs or {0: complex(1.7e308, 1.7e308), 1: 1.0}), sym)
        vec = tmp_path / "x.csv"
        vec.write_text("k,re,im\n0,1e308,1e308\n1,1e308,1e308\n2,1e308,1e308\n")
        if args[0] == "apply":
            args += ("--vector", str(vec))
        env = dict(os.environ, PYTHONPATH=str(Path(ltoeplitz.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "ltoeplitz", args[0], "--lambda-re", "0.6", *args[1:], "--symbol", str(sym)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr

    def test_json_writer_refuses_nan(self):
        from ltoeplitz.output import json_chunks

        with pytest.raises(ValueError, match="non-finite"):
            "".join(json_chunks({"closed_form": math.nan}))


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

    @staticmethod
    def _n1024_peak_mb(tmp_path, fmt):
        # A child's ru_maxrss would count the memory of this process too, so
        # the child reads its own high-water mark.
        sym = tmp_path / "band.json"
        write_symbol_file(FourierSymbol({d: complex(1.0, 0.5 * d) for d in range(-5, 6)}), sym)
        out = tmp_path / f"b.{fmt}"
        code = (
            "import sys; from ltoeplitz.cli import main; code = main(sys.argv[1:]); "
            "print(code, [l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')][0])"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ltoeplitz.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code, "build", "--symbol", str(sym), "--lambda-re", "0.8",
             "--sizes", "1024", "--format", fmt, "--out", str(out)],
            env=env, capture_output=True, text=True, check=True,
        )
        status, peak_kb = result.stdout.split()[-2:]
        assert status == "0"
        assert out.stat().st_size > 10 * 2**20
        return int(peak_kb) / 1024

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_n1024_peak_memory(self, tmp_path, fmt):
        # the JSON file is 78 MB and the CSV 13 MB; both are written row by
        # row as they are formatted, so neither text is ever held whole
        peak_mb = self._n1024_peak_mb(tmp_path, fmt)
        assert peak_mb < 120
        if fmt == "csv":
            assert peak_mb <= self._n1024_peak_mb(tmp_path, "json") + 5


    def test_summary_is_formed_row_by_row_and_only_for_out(self, two_cos_path, tmp_path,
                                                           monkeypatch, capsys):
        # max|entry| takes no N x N modulus, and stdout never prints it
        code, peak_mb = peak_traced_mb(
            run_cli, "build", "--symbol", two_cos_path, "--lambda-re", "0.8", "--sizes", "1024",
            "--out", tmp_path / "t.json")
        assert code == 0 and peak_mb < 19
        assert capsys.readouterr().out == "built N=1024, max|entry| = 1\n"

        def summary(x):
            raise AssertionError("the summary was formed for stdout")

        monkeypatch.setattr(ltoeplitz.cli, "fmt_float", summary)
        assert run_cli("build", "--symbol", two_cos_path, "--sizes", "8") == 0
        assert json.loads(capsys.readouterr().out)["N"] == 8


class TestApply:
    def test_fast_and_naive_agree(self, two_cos_path, tmp_path):
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        vec_path = tmp_path / "x.csv"
        vec_path.write_text("".join(Records(vec).chunks()))
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

    def test_trace_norm_bound_inside_the_disc(self, two_cos_path, tmp_path):
        out = tmp_path / "svd.json"
        args = ("svd", "--symbol", two_cos_path, "--lambda-re", "0.8", "--sizes", "8,16")
        assert run_cli(*args, "--out", out) == 0
        spec = LambdaToeplitzSpec(0.8, FourierSymbol({1: 1.0, -1: 1.0}))
        reports = json.loads(out.read_text())
        for report, library in zip(reports, ltoeplitz.svd_study(spec, [8, 16]), strict=True):
            bound = report["trace_norm_bound"]
            assert bound == ltoeplitz.trace_norm_bound_check(library, 0.8).to_json_dict()
            assert (bound["identity"], bound["N"], bound["pass"]) == (
                "trace-norm-bound", report["N"], True
            )

    @pytest.mark.parametrize("lam", [("--lambda-re", "1"), ("--lambda-im", "-1")], ids=["1", "-i"])
    def test_no_trace_norm_bound_on_the_circle(self, two_cos_path, tmp_path, lam):
        out = tmp_path / "svd.json"
        assert run_cli("svd", "--symbol", two_cos_path, *lam, "--sizes", "4,8", "--out", out) == 0
        assert [r["trace_norm_bound"] for r in json.loads(out.read_text())] == [None, None]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_trace_norm_bound_exits_one(self, two_cos_path, tmp_path, monkeypatch, capsys,
                                               fmt):
        def failing(report, lam):
            return ltoeplitz.VerificationResult("trace-norm-bound", report.size, 1.0, 1e-9, False)

        args = ("svd", "--symbol", two_cos_path, "--lambda-re", "0.8", "--sizes", "8",
                "--format", fmt)
        passed, failed = tmp_path / f"passed.{fmt}", tmp_path / f"failed.{fmt}"
        assert run_cli(*args, "--out", passed) == 0
        monkeypatch.setattr(ltoeplitz.spectral, "trace_norm_bound_check", failing)
        assert run_cli(*args, "--out", failed) == 1
        assert capsys.readouterr().out.endswith(", trace-norm bound FAIL\n")
        if fmt == "csv":
            assert failed.read_bytes() == passed.read_bytes()
        else:
            (report,) = json.loads(failed.read_text())
            assert report["trace_norm_bound"]["pass"] is False

    def test_csv_is_only_the_singular_values(self, two_cos_path, tmp_path):
        out = tmp_path / "sv.csv"
        assert run_cli("svd", "--symbol", two_cos_path, "--lambda-re", "0.8", "--sizes", "9",
                       "--format", "csv", "--out", out) == 0
        spec = LambdaToeplitzSpec(0.8, FourierSymbol({1: 1.0, -1: 1.0}))
        (report,) = ltoeplitz.svd_study(spec, [9])
        rows = "".join(f"{k},{s:.17g}\n" for k, s in enumerate(report.singular_values, 1))
        assert out.read_text() == "k,sigma_k\n" + rows

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

    def test_circle_lambda_rejected(self, two_cos_path, capsys):
        assert run_cli("hsnorm", "--symbol", two_cos_path, "--lambda-re", "1") == 2
        assert capsys.readouterr().err == "error: Hilbert-Schmidt closed form requires |lambda| < 1\n"

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

    PHI = {-2: 3 + 1j, 0: 2.0, 1: 1 - 0.7j, 3: 0.5j}

    @pytest.mark.parametrize(
        "symbol, identity, lam, passes",
        [({d: 100.0 * a for d, a in PHI.items()}, "toeplitz-comp", 0.8, [False, True]),
         ({d: 1e5 * a for d, a in PHI.items()}, "unitary", 0.6 + 0.8j, [True]),
         # subnormal coefficients: the as-stated variant is as wrong as at any scale
         ({d: 1e-310 * a for d, a in PHI.items()}, "toeplitz-comp", 0.8, [False, True]),
         # the twist conj(lambda) * a_1 = 2.1e308 overflows unless scaled first
         ({1: 1.5e308 + 1.5e308j}, "unitary", cmath.exp(0.25j * math.pi), [True])],
        ids=["100-phi-toeplitz-comp", "1e5-phi-unitary", "1e-310-phi-toeplitz-comp",
             "1.5e308-unitary"],
    )
    def test_verdict_does_not_depend_on_the_scale(self, tmp_path, symbol, identity, lam, passes):
        sym, out = tmp_path / "phi.json", tmp_path / "r.json"
        write_symbol_file(FourierSymbol(symbol), sym)
        lam = complex(lam)
        assert run_cli("verify", "--identity", identity, "--symbol", sym, "--lambda-re", repr(lam.real),
                       "--lambda-im", repr(lam.imag), "--sizes", "64", "--out", out) == 0
        assert [r["pass"] for r in json.loads(out.read_text())] == passes

    @pytest.mark.parametrize(
        "args, message",
        [
            (("unitary", "--lambda-re", "0.5"), "unitary factorization requires |lambda| = 1"),
            (("toeplitz-comp", "--lambda-re", "0.3", "--lambda-im", "0.4"),
             "toeplitz-comp factorization needs real lambda in (0, 1)"),
        ],
        ids=["unitary", "toeplitz-comp"],
    )
    def test_lambda_outside_the_identity_domain(self, two_cos_path, capsys, args, message):
        assert run_cli("verify", "--identity", *args, "--symbol", two_cos_path, "--sizes", "8") == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

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

    @pytest.mark.parametrize("a", [1e154, 1e-300])
    def test_norms_at_extreme_scales(self, tmp_path, a):
        # unscaled, the Ritz values, about sigma_1^2 = 2.25 a^2, overflow at
        # 1e154, and the Lanczos alpha = |A v|^2 underflows to 0 at 1e-300
        path = tmp_path / "s.json"
        write_symbol_file(FourierSymbol({0: a, 1: a / 2}), path)
        out = tmp_path / "n.json"
        assert run_cli("norms", "--symbol", path, "--lambda-re", "1", "--sizes", "8",
                       "--out", out) == 0
        unit = truncate(LambdaToeplitzSpec(1.0, FourierSymbol({0: 1.0, 1: 0.5})), 8).entries
        oracle = a * float(np.linalg.svd(unit, compute_uv=False)[0])
        (row,) = json.loads(out.read_text())["norms"]
        assert math.isclose(row["operator_norm"], oracle, rel_tol=1e-13)

    def test_norms_rejects_interior_lambda(self, two_cos_path, capsys):
        assert run_cli("norms", "--symbol", two_cos_path, "--lambda-re", "0.5") == 2
        assert capsys.readouterr().err == "error: norm convergence study requires |lambda| = 1\n"


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
        rng = np.random.default_rng(11)
        n = 8
        forcing = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b_path = tmp_path / "b.csv"
        b_path.write_text("".join(Records(forcing).chunks()))
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
        assert capsys.readouterr().err == (
            "error: N=257 dense truncation needs 1.01 MB; budget 1 MB (LT_MEM_BUDGET_MB)\n")

    def test_forcing_path_is_charged_before_the_solve(self, two_cos_path, tmp_path, monkeypatch,
                                                      capsys):
        # without --b-matrix the truncation it is compared with is charged;
        # with it, what the read and the solve hold, before the file is read
        def read(path):
            raise AssertionError("the forcing matrix was read before the budget check")

        b_path, out = tmp_path / "b40.csv", tmp_path / "a.json"
        b_path.write_text("".join(Records(np.ones((40, 40), dtype=complex)).chunks()))
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "0.01")
        with monkeypatch.context() as unread:
            unread.setattr(ltoeplitz.cli, "read_matrix_csv", read)
            assert run_cli("solve-recurrence", "--symbol", two_cos_path, "--sizes", "40",
                           "--b-matrix", b_path, "--out", out) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: N=40 forcing matrix read needs 0.421 MB; budget 0.01 MB (LT_MEM_BUDGET_MB)\n")
        monkeypatch.delenv("LT_MEM_BUDGET_MB")
        assert run_cli("solve-recurrence", "--symbol", two_cos_path, "--sizes", "40",
                       "--b-matrix", b_path, "--out", out) == 0

    def test_truncation_and_solution_are_charged_together(self, two_cos_path, tmp_path,
                                                          monkeypatch, capsys):
        # without --b-matrix the stage holds two N x N matrices: a budget
        # that fits one of them (0.0244 MB at N = 40) but not both is refused
        out = tmp_path / "a.json"
        args = ("solve-recurrence", "--symbol", two_cos_path, "--lambda-re", "0.4",
                "--sizes", "40", "--out", out)
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "0.04")
        assert run_cli(*args) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: N=40 recurrence solution beside the dense truncation needs 0.0488 MB; "
            "budget 0.04 MB (LT_MEM_BUDGET_MB)\n")
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "0.05")
        assert run_cli(*args) == 0
        assert json.loads(out.read_text())["max_diff_vs_truncate"] < 1e-13

    def test_forcing_path_peak_stays_within_the_largest_charge(self, two_cos_path, tmp_path,
                                                               monkeypatch):
        n = 512
        rng = np.random.default_rng(5)
        b_path = tmp_path / "b.csv"
        b_path.write_text("".join(Records(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))).chunks()))
        charges = []

        def charge(nbytes, what, charge=ltoeplitz.operator._charge):
            charges.append(nbytes)
            return charge(nbytes, what)

        monkeypatch.setattr(ltoeplitz.operator, "_charge", charge)
        code, peak_mb = peak_traced_mb(
            run_cli, "solve-recurrence", "--symbol", two_cos_path, "--lambda-re", "0.4",
            "--sizes", n, "--b-matrix", b_path, "--format", "csv", "--out", tmp_path / "a.csv")
        assert code == 0 and peak_mb * 2**20 <= max(charges) + 2**14

    def test_comparison_holds_no_third_matrix(self, two_cos_path, tmp_path):
        # the zero forcing is one broadcast element and the difference is
        # taken row by row: the traced peak stays below three N x N matrices
        n = 256
        code, peak_mb = peak_traced_mb(
            run_cli, "solve-recurrence", "--symbol", two_cos_path, "--lambda-re", "0.4",
            "--sizes", n, "--format", "csv", "--out", tmp_path / "a.csv")
        assert code == 0 and peak_mb < 3 * 16 * n * n / 2**20

    def test_forcing_shape_mismatch(self, two_cos_path, tmp_path):
        b_path = tmp_path / "b.csv"
        b_path.write_text("".join(Records(np.zeros((4, 4), dtype=complex)).chunks()))
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
        # 4 MB holds a dense N=512 matrix, or the N=1024 Lanczos vectors and
        # a Ritz problem of up to about 500 steps
        plain, budgeted = tmp_path / "plain.json", tmp_path / "budgeted.json"
        assert run_cli("sawtooth-demo", "--sizes", "64,1024", "--out", plain) == 1
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "4")
        assert run_cli("sawtooth-demo", "--sizes", "64,1024", "--out", budgeted) == 1
        growth = json.loads(plain.read_text())["growth_factor"]
        assert abs(json.loads(budgeted.read_text())["growth_factor"] - growth) <= 1e-12

    def test_csv_table(self, tmp_path):
        table, data = tmp_path / "saw.csv", tmp_path / "saw.json"
        assert run_cli("sawtooth-demo", "--sizes", "8,256", "--format", "csv", "--out", table) == 0
        assert run_cli("sawtooth-demo", "--sizes", "8,256", "--out", data) == 0
        norms = json.loads(data.read_text())["norms"]
        assert table.read_text() == "N,operator_norm\n" + "".join(
            f"{e['N']},{e['operator_norm']:.17g}\n" for e in norms
        )

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


# The entry point with the interpreter's normal exit: the reference for the hard exit.
TEARDOWN_ENTRY = (
    "import gc, sys; from ltoeplitz.cli import main; gc.freeze(); sys.exit(main(sys.argv[1:]))"
)


def _fresh(prefix, args, cwd, stdout=subprocess.PIPE, preexec_fn=None):
    """``(exit status, stdout bytes, stderr bytes)`` of one CLI process in cwd,
    with stdout block-buffered, so that what is left to flush at exit shows."""
    env = dict(os.environ, PYTHONPATH=str(Path(ltoeplitz.__file__).resolve().parents[1]),
               PYTHONUNBUFFERED="")
    result = subprocess.run([sys.executable, *prefix, *map(str, args)], cwd=cwd, env=env,
                            stdout=stdout, stderr=subprocess.PIPE, preexec_fn=preexec_fn)
    return result.returncode, result.stdout, result.stderr


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


# Runs ``python -m ltoeplitz`` as runpy does. On entering cli.main it prints
# to stderr whether the CLI was imported before __main__.run was entered, the
# collections since then, and the collector's state.
PAUSED_START_PROBE = """
import gc, json, os, runpy, sys
collections = []
gc.callbacks.append(lambda phase, info: phase == "start" and collections.append(1))

def profile(frame, event, arg):
    global at_run
    if event != "call":
        return
    where = (frame.f_code.co_name, os.path.basename(frame.f_code.co_filename))
    if where == ("run", "__main__.py"):
        at_run = "ltoeplitz.cli" in sys.modules, len(collections)
    elif where == ("main", "cli.py"):
        sys.setprofile(None)
        print(json.dumps([at_run[0], len(collections) - at_run[1], gc.isenabled(),
                          gc.get_freeze_count() > 0]), file=sys.stderr)

sys.setprofile(profile)
sys.argv = ["ltoep", *sys.argv[1:]]
runpy.run_module("ltoeplitz", run_name="__main__", alter_sys=True)
"""


class TestEntryPoint:
    """``python -m ltoeplitz`` and ``ltoep`` import the CLI with the collector
    paused, freeze the import heap, collect again while ``cli.main`` runs and
    end without interpreter teardown; ``cli.main`` does none of it."""

    def test_import_runs_with_the_collector_paused(self, tmp_path):
        write_symbol_file(FourierSymbol({0: 1.0, 1: 0.5}), tmp_path / "sym.json")
        status, stdout, stderr = _fresh(
            ["-c", PAUSED_START_PROBE, "build", "--symbol", "sym.json", "--sizes", "3",
             "--out", "b.json"], [], tmp_path)
        assert (status, stdout) == (0, b"built N=3, max|entry| = 1\n")
        # the CLI imported inside run, with no collection from there to main;
        # collection on in main, and the import heap frozen
        assert json.loads(stderr) == [False, 0, True, True]

    def test_import_leaves_the_collector_alone(self, monkeypatch):
        import importlib

        monkeypatch.delitem(sys.modules, "ltoeplitz.__main__", raising=False)
        before = gc.isenabled(), gc.get_freeze_count()
        importlib.import_module("ltoeplitz.__main__")
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_import_loads_no_numpy(self, tmp_path):
        code = "import sys, ltoeplitz.__main__; print('numpy' in sys.modules)"
        assert _fresh(["-c", code], [], tmp_path) == (0, b"False\n", b"")

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

    @pytest.mark.parametrize(
        "args, status",
        [
            pytest.param(["build", "--symbol", "sym.json", "--lambda-re", "0.6", "--sizes", "5"],
                         0, id="build-json-stdout"),
            pytest.param(["build", "--symbol", "sym.json", "--lambda-re", "0.6", "--sizes", "5",
                          "--format", "csv"], 0, id="build-csv-stdout"),
            pytest.param(["sawtooth-demo", "--sizes", "64,1024", "--out", "saw.json"], 1,
                         id="sawtooth-exit-1"),
            # argparse's SystemExit(2), and main's return value 2
            pytest.param(["build", "--symbol", "sym.json", "--bogus"], 2, id="bad-flag"),
            pytest.param(["build", "--symbol", "missing.json"], 2, id="bad-symbol"),
        ],
    )
    def test_hard_exit_matches_normal_exit(self, args, status, tmp_path):
        runs = {}
        for name, prefix in (("hard", ["-m", "ltoeplitz"]), ("normal", ["-c", TEARDOWN_ENTRY])):
            cwd = tmp_path / name
            cwd.mkdir()
            write_symbol_file(FourierSymbol({-1: 0.5 + 0.1j, 0: 1.0, 2: 0.25}), cwd / "sym.json")
            runs[name] = (*_fresh(prefix, args, cwd), _files(cwd))
        assert runs["hard"] == runs["normal"]
        code, stdout, stderr, files = runs["hard"]
        assert code == status
        assert (stdout == b"") == (status == 2)
        assert (b"error:" in stderr) == (status == 2)
        assert ("saw.json" in files) == (args[0] == "sawtooth-demo")

    def test_closed_pipe_takes_the_normal_exit(self, tmp_path):
        # output still buffered when main returns, to a pipe nobody reads:
        # the failed flush must end the process as the normal exit does
        args = ["svd", "--symbol", "sym.json", "--lambda-re", "0.6", "--sizes", "3",
                "--out", "svd.json"]
        runs = {}
        for name, prefix in (("hard", ["-m", "ltoeplitz"]), ("normal", ["-c", TEARDOWN_ENTRY])):
            cwd = tmp_path / name
            cwd.mkdir()
            write_symbol_file(FourierSymbol({0: 1.0, 1: 0.5}), cwd / "sym.json")
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                runs[name] = _fresh(prefix, args, cwd, stdout=write_end)
            finally:
                os.close(write_end)
        assert runs["hard"] == runs["normal"]
        code, _, stderr = runs["hard"]
        assert code == 120 and b"BrokenPipeError" in stderr

    def test_closed_stdout_still_writes_the_file(self, tmp_path):
        # with fd 1 closed at start sys.stdout is None, which --out never needs
        args = ["build", "--symbol", "sym.json", "--sizes", "3", "--out", "b.json"]
        runs = {}
        for name, prefix in (("hard", ["-m", "ltoeplitz"]), ("normal", ["-c", TEARDOWN_ENTRY])):
            cwd = tmp_path / name
            cwd.mkdir()
            write_symbol_file(FourierSymbol({0: 1.0, 1: 0.5}), cwd / "sym.json")
            runs[name] = (*_fresh(prefix, args, cwd, preexec_fn=lambda: os.close(1)),
                          _files(cwd))
        assert runs["hard"] == runs["normal"]
        assert runs["hard"][:3] == (0, b"", b"") and "b.json" in runs["hard"][3]

    def test_atexit_handler_still_runs(self, tmp_path):
        write_symbol_file(FourierSymbol({0: 1.0}), tmp_path / "sym.json")
        code = (
            "import atexit, runpy, sys\n"
            "atexit.register(print, 'handler ran')\n"
            "sys.argv = ['ltoep', 'build', '--symbol', 'sym.json', '--sizes', '2']\n"
            "runpy.run_module('ltoeplitz', run_name='__main__', alter_sys=True)\n"
            "print('not reached')\n"
        )
        status, stdout, stderr = _fresh(["-c", code], [], tmp_path)
        assert (status, stderr) == (0, b"")
        assert stdout.endswith(b"handler ran\n") and b"not reached" not in stdout

    def test_main_returns_in_process(self, two_cos_path, tmp_path, monkeypatch):
        def refuse(*_):
            raise AssertionError("cli.main must not end the process or freeze the heap")

        monkeypatch.setattr(os, "_exit", refuse)
        monkeypatch.setattr(gc, "freeze", refuse)
        codes = [run_cli("build", "--symbol", two_cos_path, "--sizes", "3",
                         "--out", tmp_path / "b.json"),
                 run_cli("build", "--symbol", tmp_path / "missing.json")]
        assert codes == [0, 2]

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_console_script_target_is_callable(self):
        import importlib
        import tomllib

        scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
        module, _, attr = scripts["ltoep"].partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
