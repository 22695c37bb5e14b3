"""Command-line front end.

One executable with subcommands; every subcommand reads a symbol file
(JSON: {"coefficients": [{"n": ..., "re": ..., "im": ...}, ...]}) where it
needs one, and writes deterministic CSV or JSON (sorted keys, 17 significant
digits) either to --out or to stdout. Each subcommand takes only the flags
it reads, spelled out in full; any other flag is a usage error.

Exit status: 0 success, 1 a verification residual exceeded its tolerance or
a bound failed (the result is still written), 2 input error (bad JSON, a
symbol field of the wrong type, |lambda| > 1, malformed sizes, missing files,
a flag the command does not take) or a decomposition that did not finish (a
LAPACK SVD failure, or Lanczos without its certificate), named with its N.
"""

from __future__ import annotations

import argparse
import cmath
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from . import operator
from . import symbol as symbol_mod
from .output import (
    Records,
    csv_text,
    fmt_float,
    json_chunks,
    read_matrix_csv,
    read_vector_csv,
    write_text,
)


def _on_first_use(name: str):
    """The package module ``name``, in ``sys.modules`` and bound on the
    package from here on, as an import would leave it, but executed only
    when one of its attributes is first read (``importlib.util.LazyLoader``).
    A module imported already is returned as it is."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# Executed by the first handler that reads them: build, apply and
# solve-recurrence read neither, verify reads no spectral.
factorization = _on_first_use("factorization")
spectral = _on_first_use("spectral")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2

IDENTITIES = ("unitary", "wco-sum", "toeplitz-comp")
SAWTOOTH_GROWTH_FACTOR = 1.5


class CliInputError(Exception):
    pass


def _parse_sizes(raw: str) -> tuple[int, ...]:
    """The comma-separated sizes: each entry ASCII digits, none empty."""
    parts = raw.split(",")
    if not "".join(parts):
        raise CliInputError("--sizes must name at least one truncation size")
    for i, part in enumerate(parts, 1):
        if not (part.isascii() and part.isdigit()):
            what = f"{part!r}, not an ASCII decimal integer" if part else "empty"
            raise CliInputError(f"bad --sizes value {raw!r}: entry {i} is {what}")
    try:
        sizes = tuple(map(int, parts))
    except ValueError as exc:  # int() refuses more than 4300 digits
        raise CliInputError(f"bad --sizes value {raw!r}: {exc}") from exc
    if any(n < 1 for n in sizes):
        raise CliInputError("--sizes entries must be positive")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise CliInputError("--sizes must be strictly ascending")
    return sizes


def build_arg_parser() -> argparse.ArgumentParser:
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--lambda-re", type=float, default=0.0, help="real part of lambda")
    spec.add_argument("--lambda-im", type=float, default=0.0, help="imaginary part of lambda")
    spec.add_argument("--symbol", dest="symbol_path", help="path to a symbol JSON file")
    sizes = argparse.ArgumentParser(add_help=False)
    sizes.add_argument("--sizes", default="64", help="comma-separated ascending truncation sizes")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", dest="output_path", help="output file (stdout when omitted)")
    output.add_argument("--format", dest="fmt", choices=("csv", "json"), default="json")
    rank_tol = argparse.ArgumentParser(add_help=False)
    # absent unless given: the handlers fall back to spectral.DEFAULT_RANK_TOL,
    # so parsing reads nothing of spectral
    rank_tol.add_argument("--rank-tol", dest="rank_tol", type=float, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="ltoep", description="lambda-Toeplitz truncation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("build", parents=[spec, sizes, output], help="write one dense truncation")
    p_apply = sub.add_parser("apply", parents=[spec, output], help="apply the operator to a vector")
    p_apply.add_argument("--vector", dest="vector_path", required=True, help="input vector CSV (k,re,im)")
    p_apply.add_argument("--method", choices=("fast", "naive"), default="fast")
    sub.add_parser("svd", parents=[spec, sizes, output, rank_tol], help="singular-value reports per size")
    p_hs = sub.add_parser("hsnorm", parents=[spec, sizes, output], help="Hilbert-Schmidt norm: closed form vs truncations")
    p_hs.add_argument("--wco", action="store_true", help="also estimate the norm by kernel quadrature (analytic symbol)")
    p_hs.add_argument("--grid-size", dest="grid_size", type=int, default=1024)
    p_verify = sub.add_parser("verify", parents=[spec, sizes, output], help="residual check of one factorization identity")
    p_verify.add_argument("--identity", choices=IDENTITIES, required=True)
    sub.add_parser("rank", parents=[spec, sizes, output, rank_tol], help="numerical rank per size")
    sub.add_parser("spectrum", parents=[spec, sizes, output], help="weighted-composition spectrum check (multiplier = lambda)")
    p_norms = sub.add_parser("norms", parents=[spec, sizes, output], help="truncation norm convergence for |lambda| = 1")
    p_norms.add_argument("--grid-size", dest="grid_size", type=int, default=4096)
    p_solve = sub.add_parser("solve-recurrence", parents=[spec, sizes, output], help="rebuild a truncation from its borders")
    p_solve.add_argument("--b-matrix", dest="b_matrix_path", help="forcing matrix CSV (n,m,re,im); zero when omitted")
    p_saw = sub.add_parser("sawtooth-demo", parents=[sizes, output], help="norm growth of the lambda=-1 ramp operator")
    p_saw.add_argument("--symbol-out", dest="symbol_out", help="also write the largest ramp symbol to this path")
    # Flags are spelled out: otherwise sawtooth-demo would read --symbol as --symbol-out.
    for command in sub.choices.values():
        command.allow_abbrev = False
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The parsed flags, with ``lam`` and ``sizes`` set from their raw forms
    where the command takes them."""
    args = build_arg_parser().parse_args(argv)
    if "lambda_re" in args:
        args.lam = complex(args.lambda_re, args.lambda_im)
    if "sizes" in args:
        args.sizes = _parse_sizes(args.sizes)
    return args


def _validate(args: argparse.Namespace) -> None:
    if not 0.0 < getattr(args, "rank_tol", 0.5) < 1.0:
        raise CliInputError("--rank-tol must lie in (0, 1)")
    if getattr(args, "grid_size", 1) < 1:
        raise CliInputError("--grid-size must be at least 1")
    lam = getattr(args, "lam", 0.0)
    if not cmath.isfinite(lam):
        raise CliInputError("--lambda-re and --lambda-im must be finite")
    operator._disc_point("lambda", lam)


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


def _charge_grid(args: argparse.Namespace, points: int, grids: int) -> None:
    """Charge a quadrature that holds ``grids`` complex arrays of ``points``
    points at once, naming what set ``points``: ``--grid-size``, or the
    symbol's 2K + 1 points where they exceed it."""
    source = (f"--grid-size {args.grid_size}" if points == args.grid_size
              else f"the symbol's largest |n| = {points // 2}")
    operator._charge(16 * grids * points, f"{source} ({grids} complex grids of {points} points)")


def _write(args: argparse.Namespace, payload, csv, summary: str) -> None:
    """Render only the format ``--format`` names: the JSON of ``payload()``
    or the CSV of ``csv()``, text or chunks, each written as it is
    formatted. Write it to ``--out``, printing ``summary``, or to stdout.

    ``csv()`` may give one table per size, ``{N: text}``: stdout gets them
    one after another, a blank line apart, and ``--out`` one file per size
    (``<stem>_N<size><suffix>``) when there is more than one.
    """
    text = json_chunks(payload()) if args.fmt == "json" else csv()
    if isinstance(text, dict) and args.output_path is not None and len(text) > 1:
        out = Path(args.output_path)
        for size, table in text.items():
            write_text(str(out.with_name(f"{out.stem}_N{size}{out.suffix}")), table)
    else:
        write_text(args.output_path, "\n".join(text.values()) if isinstance(text, dict) else text)
    if args.output_path is not None:
        print(summary)


# -- command handlers ----------------------------------------------------------


def _cmd_build(args: argparse.Namespace) -> int:
    size = _single_size(args)
    op = operator.truncate(_make_spec(args), size)
    _write(
        args,
        lambda: {"N": size, "entries": Records(op.entries), "provenance": op.provenance},
        lambda: Records(op.entries).chunks(),
        f"built N={size}, max|entry| = {fmt_float(np.max(np.abs(op.entries)))}",
    )
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
    _write(args, lambda: {"N": int(vec.size), "method": args.method, "values": Records(result)},
           lambda: Records(result).chunks(), f"applied ({args.method}) at N={vec.size}")
    return EXIT_OK


def _cmd_svd(args: argparse.Namespace) -> int:
    reports = spectral.svd_study(_make_spec(args), args.sizes,
                                 getattr(args, "rank_tol", spectral.DEFAULT_RANK_TOL))
    # the trace-norm majorant holds for |lambda| < 1 only
    bounds = [spectral.trace_norm_bound_check(r, args.lam) if abs(args.lam) < 1.0 else None
              for r in reports]
    failed = any(b is not None and not b.passed for b in bounds)
    done = "wrote singular values for" if args.fmt == "csv" else "analyzed"
    _write(
        args,
        lambda: [{**r.to_json_dict(), "trace_norm_bound": b and b.to_json_dict()}
                 for r, b in zip(reports, bounds)],
        lambda: {r.size: csv_text("k,sigma_k", r.singular_value_rows()) for r in reports},
        f"{done} N in {list(args.sizes)}" + (", trace-norm bound FAIL" if failed else ""),
    )
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _cmd_hsnorm(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    closed = spectral.hs_norm_closed_form(spec)  # refuses |lambda| = 1 before a grid is sized
    if args.wco:
        try:
            w = factorization.WeightedCompositionSpec(spec.symbol, spec.lam)
        except ValueError as exc:
            raise CliInputError(f"--wco: {exc}") from exc
        _charge_grid(args, args.grid_size, grids=3)  # kernel_hs_norm's circulant, fold and FFT
    truncations = [
        {"N": n, "frobenius": spectral.frobenius_norm(spec, n)} for n in args.sizes
    ]
    payload: dict = {"closed_form": closed, "truncations": truncations}
    rows = [("closed_form", "", closed)]
    if args.wco:
        payload["grid_size"] = args.grid_size
        payload["kernel_quadrature"] = factorization.kernel_hs_norm(w, args.grid_size)
        rows.append(("kernel_quadrature", args.grid_size, payload["kernel_quadrature"]))
    rows.extend(("frobenius", t["N"], t["frobenius"]) for t in truncations)
    _write(args, lambda: payload, lambda: csv_text("quantity,N,value", rows),
           f"closed form {fmt_float(closed)}")
    return EXIT_OK


def _emit_verifications(args: argparse.Namespace, results, gate) -> int:
    failures = [r for r in results if gate(r) and not r.passed]
    _write(
        args,
        lambda: [r.to_json_dict() for r in results],
        lambda: csv_text(
            "identity,N,residual,tolerance,pass,variant",
            [(r.identity, r.size, r.residual, r.tolerance, r.passed, r.variant or "") for r in results],
        ),
        f"{len(results)} check(s): {'FAIL' if failures else 'pass'}",
    )
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    results = []
    for n in args.sizes:
        if args.identity == "unitary":
            results.append(factorization.verify_unitary_factorization(spec, n))
        elif args.identity == "wco-sum":
            results.append(factorization.verify_wco_sum(spec, n))
        else:
            results.extend(factorization.verify_toeplitz_comp_factorization(spec, n))
    # The as-stated toeplitz-comp residual is a diagnostic report, not a gate.
    gate = lambda r: not (r.identity == "toeplitz-comp" and r.variant == "as-stated")
    return _emit_verifications(args, results, gate)


def _cmd_rank(args: argparse.Namespace) -> int:
    study = spectral.finite_rank_study(_make_spec(args), args.sizes,
                                       getattr(args, "rank_tol", spectral.DEFAULT_RANK_TOL))
    _write(args, lambda: [{"N": n, "numerical_rank": r} for n, r in study],
           lambda: csv_text("N,rank", study), f"ranks {[r for _, r in study]}")
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    try:
        w = factorization.WeightedCompositionSpec(_load_symbol(args), args.lam)
    except ValueError as exc:
        raise CliInputError(f"{args.symbol_path}: {exc}") from exc
    results = [spectral.wco_spectrum_check(w, n) for n in args.sizes]
    return _emit_verifications(args, results, gate=lambda r: True)


def _cmd_norms(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    spectral.norm_convergence_study(spec, ())  # refuses |lambda| != 1 before the twist and grid
    twisted = spec.symbol.twist_plus(spec.lam)
    grid = max(args.grid_size, 2 * twisted.max_abs_index + 1)
    _charge_grid(args, grid, grids=2)  # evaluate_on_grid's fold and FFT, before the study
    study = spectral.norm_convergence_study(spec, args.sizes)
    target = twisted.sup_norm_estimate(grid)
    _write(
        args,
        lambda: {"sup_norm_estimate": target,
                 "norms": [{"N": n, "operator_norm": v} for n, v in study]},
        lambda: csv_text("N,operator_norm", study),
        f"sup-norm estimate {fmt_float(target)}",
    )
    return EXIT_OK


def _cmd_solve_recurrence(args: argparse.Namespace) -> int:
    size = _single_size(args)
    spec = _make_spec(args)
    if args.b_matrix_path:
        try:
            forcing = read_matrix_csv(args.b_matrix_path)
        except (ValueError, OSError) as exc:
            raise CliInputError(f"bad --b-matrix file: {exc}") from exc
        if forcing.shape != (size, size):
            raise CliInputError(f"--b-matrix must be {size}x{size}, got {forcing.shape}")
    else:
        # the truncation it is compared with comes first: a size over the
        # memory budget is refused before the solve allocates anything. The
        # solution is held beside it, so the two are charged together; the
        # zero forcing is one broadcast element.
        truncated = operator.truncate(spec, size).entries
        operator._charge(2 * 16 * size * size,
                         f"N={size} recurrence solution beside the dense truncation")
        forcing = np.broadcast_to(0j, (size, size))
    row, col = operator.truncation_borders(spec, size)
    solved = operator.solve_recurrence(spec.lam, forcing, row, col)
    summary = f"solved recurrence at N={size}"
    payload = {"N": size}
    if not args.b_matrix_path:
        # row by row: no N x N difference
        diff = float(np.max([np.abs(s - t).max() for s, t in zip(solved, truncated)]))
        summary += f", max diff vs truncate = {fmt_float(diff)}"
        payload["max_diff_vs_truncate"] = diff
    _write(args, lambda: {**payload, "entries": Records(solved)},
           lambda: Records(solved).chunks(), summary)
    return EXIT_OK


def _cmd_sawtooth_demo(args: argparse.Namespace) -> int:
    study = spectral.sawtooth_growth_study(args.sizes)
    growth = study[-1][1] / study[0][1] if len(study) > 1 else None
    ok = growth is None or growth >= SAWTOOTH_GROWTH_FACTOR
    if args.symbol_out:
        symbol_mod.write_symbol_file(symbol_mod.sawtooth(max(args.sizes)), args.symbol_out)
    growth_txt = "n/a" if growth is None else fmt_float(growth)
    _write(
        args,
        lambda: {"norms": [{"N": n, "operator_norm": v} for n, v in study],
                 "growth_factor": growth, "pass": ok},
        lambda: csv_text("N,operator_norm", study),
        f"growth factor {growth_txt} ({'pass' if ok else 'FAIL'})",
    )
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
    # the tuple is built only once an exception arrives: spectral stays unloaded otherwise
    except (CliInputError, ValueError, OSError, spectral.SpectralDecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return run(args)
