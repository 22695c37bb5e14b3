"""Command-line front end.

One executable with subcommands; every subcommand reads a symbol file
(JSON: {"coefficients": [{"n": ..., "re": ..., "im": ...}, ...]}) where it
needs one, and writes deterministic CSV or JSON (sorted keys, 17 significant
digits) either to --out or to stdout.

Exit status: 0 success, 1 a verification residual exceeded its tolerance
(the result is still written), 2 input error (bad JSON, |lambda| > 1,
malformed sizes, missing files).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import factorization, operator, spectral
from . import symbol as symbol_mod
from .output import (
    csv_text,
    dumps_json,
    fmt_float,
    matrix_csv_text,
    matrix_records,
    read_matrix_csv,
    read_vector_csv,
    vector_csv_text,
    vector_records,
    write_text,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2

IDENTITIES = ("unitary", "wco-sum", "toeplitz-comp")
DEFAULT_IDENTITY_TOL = {
    "unitary": factorization.DEFAULT_UNITARY_TOL,
    "wco-sum": factorization.DEFAULT_WCO_SUM_TOL,
    "toeplitz-comp": factorization.DEFAULT_TOEPLITZ_COMP_TOL,
}
SAWTOOTH_GROWTH_FACTOR = 1.5


class CliInputError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    lam: complex = 0j
    symbol_path: str | None = None
    sizes: tuple[int, ...] = (64,)
    tolerance: float | None = None
    output_path: str | None = None
    fmt: str = "json"
    identity: str | None = None
    rank_tol: float = spectral.DEFAULT_RANK_TOL
    vector_path: str | None = None
    method: str = "fast"
    b_matrix_path: str | None = None
    grid_size: int = 1024
    wco: bool = False
    symbol_out: str | None = None


def _parse_sizes(raw: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise CliInputError(f"bad --sizes value {raw!r}: {exc}") from exc
    if not sizes:
        raise CliInputError("--sizes must name at least one truncation size")
    if any(n < 1 for n in sizes):
        raise CliInputError("--sizes entries must be positive")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise CliInputError("--sizes must be strictly ascending")
    return sizes


def build_arg_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--lambda-re", type=float, default=0.0, help="real part of lambda")
    common.add_argument("--lambda-im", type=float, default=0.0, help="imaginary part of lambda")
    common.add_argument("--symbol", dest="symbol_path", help="path to a symbol JSON file")
    common.add_argument("--sizes", default="64", help="comma-separated ascending truncation sizes")
    common.add_argument("--tol", dest="tolerance", type=float, help="verification tolerance")
    common.add_argument("--out", dest="output_path", help="output file (stdout when omitted)")
    common.add_argument("--format", dest="fmt", choices=("csv", "json"), default="json")
    common.add_argument("--rank-tol", dest="rank_tol", type=float, default=spectral.DEFAULT_RANK_TOL)

    parser = argparse.ArgumentParser(
        prog="ltoep", description="lambda-Toeplitz truncation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("build", parents=[common], help="write one dense truncation")
    p_apply = sub.add_parser("apply", parents=[common], help="apply the operator to a vector")
    p_apply.add_argument("--vector", dest="vector_path", required=True, help="input vector CSV (k,re,im)")
    p_apply.add_argument("--method", choices=("fast", "naive"), default="fast")
    sub.add_parser("svd", parents=[common], help="singular-value reports per size")
    p_hs = sub.add_parser("hsnorm", parents=[common], help="Hilbert-Schmidt norm: closed form vs truncations")
    p_hs.add_argument("--wco", action="store_true", help="also estimate the norm by kernel quadrature (analytic symbol)")
    p_hs.add_argument("--grid-size", dest="grid_size", type=int, default=1024)
    p_verify = sub.add_parser("verify", parents=[common], help="residual check of one factorization identity")
    p_verify.add_argument("--identity", choices=IDENTITIES, required=True)
    sub.add_parser("rank", parents=[common], help="numerical rank per size")
    sub.add_parser("spectrum", parents=[common], help="weighted-composition spectrum check (multiplier = lambda)")
    p_norms = sub.add_parser("norms", parents=[common], help="truncation norm convergence for |lambda| = 1")
    p_norms.add_argument("--grid-size", dest="grid_size", type=int, default=4096)
    p_solve = sub.add_parser("solve-recurrence", parents=[common], help="rebuild a truncation from its borders")
    p_solve.add_argument("--b-matrix", dest="b_matrix_path", help="forcing matrix CSV (n,m,re,im); zero when omitted")
    p_saw = sub.add_parser("sawtooth-demo", parents=[common], help="norm growth of the lambda=-1 ramp operator")
    p_saw.add_argument("--symbol-out", dest="symbol_out", help="also write the largest ramp symbol to this path")
    return parser


def parse_args(argv=None) -> RunConfig:
    ns = build_arg_parser().parse_args(argv)
    return RunConfig(
        command=ns.command,
        lam=complex(ns.lambda_re, ns.lambda_im),
        symbol_path=ns.symbol_path,
        sizes=_parse_sizes(ns.sizes),
        tolerance=ns.tolerance,
        output_path=ns.output_path,
        fmt=ns.fmt,
        identity=getattr(ns, "identity", None),
        rank_tol=ns.rank_tol,
        vector_path=getattr(ns, "vector_path", None),
        method=getattr(ns, "method", "fast"),
        b_matrix_path=getattr(ns, "b_matrix_path", None),
        grid_size=getattr(ns, "grid_size", 1024),
        wco=getattr(ns, "wco", False),
        symbol_out=getattr(ns, "symbol_out", None),
    )


def _validate(config: RunConfig) -> None:
    if config.tolerance is not None and not 0 < config.tolerance < math.inf:
        raise CliInputError("--tol must be positive and finite")
    if not 0.0 < config.rank_tol < 1.0:
        raise CliInputError("--rank-tol must lie in (0, 1)")
    if not cmath.isfinite(config.lam):
        raise CliInputError("--lambda-re and --lambda-im must be finite")
    if abs(config.lam) > 1.0 + symbol_mod.UNIT_CIRCLE_TOL:
        raise CliInputError(f"|lambda| = {abs(config.lam)} lies outside the closed unit disc")


def _load_symbol(config: RunConfig) -> symbol_mod.FourierSymbol:
    if not config.symbol_path:
        raise CliInputError(f"command {config.command!r} needs --symbol <path>")
    try:
        return symbol_mod.read_symbol_file(config.symbol_path)
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"{config.symbol_path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise CliInputError(f"{config.symbol_path}: {exc}") from exc


def _make_spec(config: RunConfig) -> operator.LambdaToeplitzSpec:
    return operator.LambdaToeplitzSpec(config.lam, _load_symbol(config))


def _single_size(config: RunConfig) -> int:
    if len(config.sizes) != 1:
        raise CliInputError(f"command {config.command!r} takes exactly one size")
    return config.sizes[0]


def _sized_path(path: str, size: int) -> str:
    p = Path(path)
    return str(p.with_name(f"{p.stem}_N{size}{p.suffix}"))


def _emit(config: RunConfig, text: str, summary: str | None = None) -> None:
    write_text(config.output_path, text)
    if config.output_path is not None and summary:
        print(summary)


def _emit_per_size(config: RunConfig, blocks: list[tuple[int, str]], summary: str) -> None:
    if config.output_path is None:
        sys.stdout.write("\n".join(text.rstrip("\n") + "\n" for _, text in blocks))
        return
    if len(blocks) == 1:
        Path(config.output_path).write_text(blocks[0][1], encoding="utf-8")
    else:
        for size, text in blocks:
            Path(_sized_path(config.output_path, size)).write_text(text, encoding="utf-8")
    print(summary)


def _matrix_text(config: RunConfig, entries: np.ndarray, **fields) -> str:
    """A dense matrix as CSV rows, or as JSON with its size, its entries and ``fields``."""
    if config.fmt == "csv":
        return matrix_csv_text(entries)
    return dumps_json({"N": entries.shape[0], "entries": matrix_records(entries), **fields})


# -- command handlers ----------------------------------------------------------


def _cmd_build(config: RunConfig) -> int:
    size = _single_size(config)
    op = operator.truncate(_make_spec(config), size)
    text = _matrix_text(config, op.entries, provenance=op.provenance)
    _emit(config, text, f"built N={size}, max|entry| = {fmt_float(np.max(np.abs(op.entries)))}")
    return EXIT_OK


def _cmd_apply(config: RunConfig) -> int:
    try:
        vec = read_vector_csv(config.vector_path)
    except (ValueError, OSError) as exc:
        raise CliInputError(f"bad --vector file: {exc}") from exc
    spec = _make_spec(config)
    if config.method == "naive":
        result = operator.apply_naive(operator.truncate(spec, vec.size), vec)
    else:
        result = operator.apply_fast(spec, vec)
    if config.fmt == "csv":
        text = vector_csv_text(result)
    else:
        text = dumps_json(
            {"N": int(vec.size), "method": config.method, "values": vector_records(result)}
        )
    _emit(config, text, f"applied ({config.method}) at N={vec.size}")
    return EXIT_OK


def _cmd_svd(config: RunConfig) -> int:
    spec = _make_spec(config)
    reports = [
        spectral.analyze(operator.truncate(spec, n), spec.lam, config.rank_tol)
        for n in config.sizes
    ]
    if config.fmt == "csv":
        blocks = [
            (r.size, csv_text("k,sigma_k", r.singular_value_rows())) for r in reports
        ]
        _emit_per_size(config, blocks, f"wrote singular values for N in {list(config.sizes)}")
    else:
        text = dumps_json([r.to_json_dict() for r in reports])
        _emit(config, text, f"analyzed N in {list(config.sizes)}")
    return EXIT_OK


def _cmd_hsnorm(config: RunConfig) -> int:
    spec = _make_spec(config)
    closed = spectral.hs_norm_closed_form(spec)
    truncations = [
        {"N": n, "frobenius": float(np.linalg.norm(operator.truncate(spec, n).entries))}
        for n in config.sizes
    ]
    payload: dict = {"closed_form": closed, "truncations": truncations}
    if config.wco:
        w = factorization.WeightedCompositionSpec(spec.symbol, spec.lam)
        payload["grid_size"] = config.grid_size
        payload["kernel_quadrature"] = factorization.kernel_hs_norm(w, config.grid_size)
    if config.fmt == "csv":
        rows = [("closed_form", "", closed)]
        if config.wco:
            rows.append(("kernel_quadrature", config.grid_size, payload["kernel_quadrature"]))
        rows.extend(("frobenius", t["N"], t["frobenius"]) for t in truncations)
        text = csv_text("quantity,N,value", rows)
    else:
        text = dumps_json(payload)
    _emit(config, text, f"closed form {fmt_float(closed)}")
    return EXIT_OK


def _verification_rows(results) -> list[tuple]:
    return [
        (r.identity, r.size, r.residual, r.tolerance, r.passed, r.variant or "")
        for r in results
    ]


def _emit_verifications(config: RunConfig, results, gate) -> int:
    if config.fmt == "csv":
        text = csv_text("identity,N,residual,tolerance,pass,variant", _verification_rows(results))
    else:
        text = dumps_json([r.to_json_dict() for r in results])
    failures = [r for r in results if gate(r) and not r.passed]
    status = "pass" if not failures else "FAIL"
    _emit(config, text, f"{len(results)} check(s): {status}")
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def _cmd_verify(config: RunConfig) -> int:
    spec = _make_spec(config)
    tol = config.tolerance if config.tolerance is not None else DEFAULT_IDENTITY_TOL[config.identity]
    results = []
    for n in config.sizes:
        if config.identity == "unitary":
            results.append(factorization.verify_unitary_factorization(spec, n, tol))
        elif config.identity == "wco-sum":
            results.append(factorization.verify_wco_sum(spec, n, tol))
        else:
            results.extend(factorization.verify_toeplitz_comp_factorization(spec, n, tol))
    # The as-stated toeplitz-comp residual is a diagnostic report, not a gate.
    gate = lambda r: not (r.identity == "toeplitz-comp" and r.variant == "as-stated")
    return _emit_verifications(config, results, gate)


def _cmd_rank(config: RunConfig) -> int:
    spec = _make_spec(config)
    study = spectral.finite_rank_study(spec, config.sizes, config.rank_tol)
    if config.fmt == "csv":
        text = csv_text("N,rank", study)
    else:
        text = dumps_json([{"N": n, "numerical_rank": r} for n, r in study])
    _emit(config, text, f"ranks {[r for _, r in study]}")
    return EXIT_OK


def _cmd_spectrum(config: RunConfig) -> int:
    w = factorization.WeightedCompositionSpec(_load_symbol(config), config.lam)
    tol = config.tolerance if config.tolerance is not None else 1e-14
    results = [spectral.wco_spectrum_check(w, n, tol) for n in config.sizes]
    return _emit_verifications(config, results, gate=lambda r: True)


def _cmd_norms(config: RunConfig) -> int:
    spec = _make_spec(config)
    study = spectral.norm_convergence_study(spec, config.sizes)
    twisted = spec.symbol.twist_plus(spec.lam)
    grid = max(config.grid_size, 2 * twisted.max_abs_index + 1)
    target = twisted.sup_norm_estimate(grid)
    if config.fmt == "csv":
        text = csv_text("N,operator_norm", study)
    else:
        text = dumps_json(
            {"sup_norm_estimate": target,
             "norms": [{"N": n, "operator_norm": v} for n, v in study]}
        )
    _emit(config, text, f"sup-norm estimate {fmt_float(target)}")
    return EXIT_OK


def _cmd_solve_recurrence(config: RunConfig) -> int:
    size = _single_size(config)
    spec = _make_spec(config)
    row, col = operator.truncation_borders(spec, size)
    if config.b_matrix_path:
        try:
            forcing = read_matrix_csv(config.b_matrix_path)
        except (ValueError, OSError) as exc:
            raise CliInputError(f"bad --b-matrix file: {exc}") from exc
        if forcing.shape != (size, size):
            raise CliInputError(f"--b-matrix must be {size}x{size}, got {forcing.shape}")
    else:
        forcing = np.zeros((size, size), dtype=complex)
    solved = operator.solve_recurrence(spec.lam, forcing, row, col)
    summary = f"solved recurrence at N={size}"
    fields = {}
    if not config.b_matrix_path:
        diff = float(np.max(np.abs(solved - operator.truncate(spec, size).entries)))
        summary += f", max diff vs truncate = {fmt_float(diff)}"
        fields["max_diff_vs_truncate"] = diff
    _emit(config, _matrix_text(config, solved, **fields), summary)
    return EXIT_OK


def _cmd_sawtooth_demo(config: RunConfig) -> int:
    study = spectral.sawtooth_growth_study(config.sizes)
    growth = study[-1][1] / study[0][1] if len(study) > 1 else None
    ok = growth is None or growth >= SAWTOOTH_GROWTH_FACTOR
    if config.symbol_out:
        symbol_mod.write_symbol_file(symbol_mod.sawtooth(max(config.sizes)), config.symbol_out)
    if config.fmt == "csv":
        text = csv_text("N,operator_norm", study)
    else:
        text = dumps_json(
            {"norms": [{"N": n, "operator_norm": v} for n, v in study],
             "growth_factor": growth,
             "pass": ok}
        )
    growth_txt = "n/a" if growth is None else fmt_float(growth)
    _emit(config, text, f"growth factor {growth_txt} ({'pass' if ok else 'FAIL'})")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


_HANDLERS = {
    "build": _cmd_build,
    "apply": _cmd_apply,
    "svd": _cmd_svd,
    "hsnorm": _cmd_hsnorm,
    "verify": _cmd_verify,
    "rank": _cmd_rank,
    "spectrum": _cmd_spectrum,
    "norms": _cmd_norms,
    "solve-recurrence": _cmd_solve_recurrence,
    "sawtooth-demo": _cmd_sawtooth_demo,
}


def run(config: RunConfig) -> int:
    try:
        _validate(config)
        return _HANDLERS[config.command](config)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
