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


def parse_args(argv=None) -> argparse.Namespace:
    """The parsed flags, with ``lam`` and ``sizes`` set from their raw forms."""
    args = build_arg_parser().parse_args(argv)
    args.lam = complex(args.lambda_re, args.lambda_im)
    args.sizes = _parse_sizes(args.sizes)
    return args


def _validate(args: argparse.Namespace) -> None:
    if args.tolerance is not None and not 0 < args.tolerance < math.inf:
        raise CliInputError("--tol must be positive and finite")
    if not 0.0 < args.rank_tol < 1.0:
        raise CliInputError("--rank-tol must lie in (0, 1)")
    if not cmath.isfinite(args.lam):
        raise CliInputError("--lambda-re and --lambda-im must be finite")
    if abs(args.lam) > 1.0 + symbol_mod.UNIT_CIRCLE_TOL:
        raise CliInputError(f"|lambda| = {abs(args.lam)} lies outside the closed unit disc")


def _load_symbol(args: argparse.Namespace) -> symbol_mod.FourierSymbol:
    if not args.symbol_path:
        raise CliInputError(f"command {args.command!r} needs --symbol <path>")
    try:
        return symbol_mod.read_symbol_file(args.symbol_path)
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"{args.symbol_path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise CliInputError(f"{args.symbol_path}: {exc}") from exc


def _make_spec(args: argparse.Namespace) -> operator.LambdaToeplitzSpec:
    return operator.LambdaToeplitzSpec(args.lam, _load_symbol(args))


def _single_size(args: argparse.Namespace) -> int:
    if len(args.sizes) != 1:
        raise CliInputError(f"command {args.command!r} takes exactly one size")
    return args.sizes[0]


def _sized_path(path: str, size: int) -> str:
    p = Path(path)
    return str(p.with_name(f"{p.stem}_N{size}{p.suffix}"))


def _emit(args: argparse.Namespace, text: str, summary: str | None = None) -> None:
    write_text(args.output_path, text)
    if args.output_path is not None and summary:
        print(summary)


def _emit_per_size(args: argparse.Namespace, blocks: list[tuple[int, str]], summary: str) -> None:
    if args.output_path is None:
        sys.stdout.write("\n".join(text.rstrip("\n") + "\n" for _, text in blocks))
        return
    if len(blocks) == 1:
        Path(args.output_path).write_text(blocks[0][1], encoding="utf-8")
    else:
        for size, text in blocks:
            Path(_sized_path(args.output_path, size)).write_text(text, encoding="utf-8")
    print(summary)


def _matrix_text(args: argparse.Namespace, entries: np.ndarray, **fields) -> str:
    """A dense matrix as CSV rows, or as JSON with its size, its entries and ``fields``."""
    if args.fmt == "csv":
        return matrix_csv_text(entries)
    return dumps_json({"N": entries.shape[0], "entries": matrix_records(entries), **fields})


# -- command handlers ----------------------------------------------------------


def _cmd_build(args: argparse.Namespace) -> int:
    size = _single_size(args)
    op = operator.truncate(_make_spec(args), size)
    text = _matrix_text(args, op.entries, provenance=op.provenance)
    _emit(args, text, f"built N={size}, max|entry| = {fmt_float(np.max(np.abs(op.entries)))}")
    return EXIT_OK


def _cmd_apply(args: argparse.Namespace) -> int:
    try:
        vec = read_vector_csv(args.vector_path)
    except (ValueError, OSError) as exc:
        raise CliInputError(f"bad --vector file: {exc}") from exc
    spec = _make_spec(args)
    if args.method == "naive":
        result = operator.apply_naive(operator.truncate(spec, vec.size), vec)
    else:
        result = operator.apply_fast(spec, vec)
    if args.fmt == "csv":
        text = vector_csv_text(result)
    else:
        text = dumps_json(
            {"N": int(vec.size), "method": args.method, "values": vector_records(result)}
        )
    _emit(args, text, f"applied ({args.method}) at N={vec.size}")
    return EXIT_OK


def _cmd_svd(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    reports = [
        spectral.analyze(operator.truncate(spec, n), spec.lam, args.rank_tol)
        for n in args.sizes
    ]
    if args.fmt == "csv":
        blocks = [
            (r.size, csv_text("k,sigma_k", r.singular_value_rows())) for r in reports
        ]
        _emit_per_size(args, blocks, f"wrote singular values for N in {list(args.sizes)}")
    else:
        text = dumps_json([r.to_json_dict() for r in reports])
        _emit(args, text, f"analyzed N in {list(args.sizes)}")
    return EXIT_OK


def _cmd_hsnorm(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    closed = spectral.hs_norm_closed_form(spec)
    truncations = [
        {"N": n, "frobenius": float(np.linalg.norm(operator.truncate(spec, n).entries))}
        for n in args.sizes
    ]
    payload: dict = {"closed_form": closed, "truncations": truncations}
    if args.wco:
        w = factorization.WeightedCompositionSpec(spec.symbol, spec.lam)
        payload["grid_size"] = args.grid_size
        payload["kernel_quadrature"] = factorization.kernel_hs_norm(w, args.grid_size)
    if args.fmt == "csv":
        rows = [("closed_form", "", closed)]
        if args.wco:
            rows.append(("kernel_quadrature", args.grid_size, payload["kernel_quadrature"]))
        rows.extend(("frobenius", t["N"], t["frobenius"]) for t in truncations)
        text = csv_text("quantity,N,value", rows)
    else:
        text = dumps_json(payload)
    _emit(args, text, f"closed form {fmt_float(closed)}")
    return EXIT_OK


def _verification_rows(results) -> list[tuple]:
    return [
        (r.identity, r.size, r.residual, r.tolerance, r.passed, r.variant or "")
        for r in results
    ]


def _emit_verifications(args: argparse.Namespace, results, gate) -> int:
    if args.fmt == "csv":
        text = csv_text("identity,N,residual,tolerance,pass,variant", _verification_rows(results))
    else:
        text = dumps_json([r.to_json_dict() for r in results])
    failures = [r for r in results if gate(r) and not r.passed]
    status = "pass" if not failures else "FAIL"
    _emit(args, text, f"{len(results)} check(s): {status}")
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    tol = args.tolerance if args.tolerance is not None else DEFAULT_IDENTITY_TOL[args.identity]
    results = []
    for n in args.sizes:
        if args.identity == "unitary":
            results.append(factorization.verify_unitary_factorization(spec, n, tol))
        elif args.identity == "wco-sum":
            results.append(factorization.verify_wco_sum(spec, n, tol))
        else:
            results.extend(factorization.verify_toeplitz_comp_factorization(spec, n, tol))
    # The as-stated toeplitz-comp residual is a diagnostic report, not a gate.
    gate = lambda r: not (r.identity == "toeplitz-comp" and r.variant == "as-stated")
    return _emit_verifications(args, results, gate)


def _cmd_rank(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    study = spectral.finite_rank_study(spec, args.sizes, args.rank_tol)
    if args.fmt == "csv":
        text = csv_text("N,rank", study)
    else:
        text = dumps_json([{"N": n, "numerical_rank": r} for n, r in study])
    _emit(args, text, f"ranks {[r for _, r in study]}")
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    w = factorization.WeightedCompositionSpec(_load_symbol(args), args.lam)
    tol = args.tolerance if args.tolerance is not None else 1e-14
    results = [spectral.wco_spectrum_check(w, n, tol) for n in args.sizes]
    return _emit_verifications(args, results, gate=lambda r: True)


def _cmd_norms(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    study = spectral.norm_convergence_study(spec, args.sizes)
    twisted = spec.symbol.twist_plus(spec.lam)
    grid = max(args.grid_size, 2 * twisted.max_abs_index + 1)
    target = twisted.sup_norm_estimate(grid)
    if args.fmt == "csv":
        text = csv_text("N,operator_norm", study)
    else:
        text = dumps_json(
            {"sup_norm_estimate": target,
             "norms": [{"N": n, "operator_norm": v} for n, v in study]}
        )
    _emit(args, text, f"sup-norm estimate {fmt_float(target)}")
    return EXIT_OK


def _cmd_solve_recurrence(args: argparse.Namespace) -> int:
    size = _single_size(args)
    spec = _make_spec(args)
    row, col = operator.truncation_borders(spec, size)
    if args.b_matrix_path:
        try:
            forcing = read_matrix_csv(args.b_matrix_path)
        except (ValueError, OSError) as exc:
            raise CliInputError(f"bad --b-matrix file: {exc}") from exc
        if forcing.shape != (size, size):
            raise CliInputError(f"--b-matrix must be {size}x{size}, got {forcing.shape}")
    else:
        forcing = np.zeros((size, size), dtype=complex)
    solved = operator.solve_recurrence(spec.lam, forcing, row, col)
    summary = f"solved recurrence at N={size}"
    fields = {}
    if not args.b_matrix_path:
        diff = float(np.max(np.abs(solved - operator.truncate(spec, size).entries)))
        summary += f", max diff vs truncate = {fmt_float(diff)}"
        fields["max_diff_vs_truncate"] = diff
    _emit(args, _matrix_text(args, solved, **fields), summary)
    return EXIT_OK


def _cmd_sawtooth_demo(args: argparse.Namespace) -> int:
    study = spectral.sawtooth_growth_study(args.sizes)
    growth = study[-1][1] / study[0][1] if len(study) > 1 else None
    ok = growth is None or growth >= SAWTOOTH_GROWTH_FACTOR
    if args.symbol_out:
        symbol_mod.write_symbol_file(symbol_mod.sawtooth(max(args.sizes)), args.symbol_out)
    if args.fmt == "csv":
        text = csv_text("N,operator_norm", study)
    else:
        text = dumps_json(
            {"norms": [{"N": n, "operator_norm": v} for n, v in study],
             "growth_factor": growth,
             "pass": ok}
        )
    growth_txt = "n/a" if growth is None else fmt_float(growth)
    _emit(args, text, f"growth factor {growth_txt} ({'pass' if ok else 'FAIL'})")
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


def run(args: argparse.Namespace) -> int:
    try:
        _validate(args)
        # The writers refuse every non-finite value with exit 2, so numpy's
        # overflow warnings on the way there would only be noise on stderr.
        with np.errstate(over="ignore", invalid="ignore"):
            return _HANDLERS[args.command](args)
    except (CliInputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
