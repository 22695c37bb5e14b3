#!/usr/bin/env python3
"""Singular-value decay of a random truncation against the |lambda|^m bound.

Prints the worst margin |lambda|^m * sigma_1 - sigma_{2m+1} (a negative value
beyond rounding would contradict the decay law) and the trace-norm majorant,
and optionally writes the k,sigma_k table for plotting.
"""

import argparse
import cmath
import math
from pathlib import Path

import numpy as np

from ltoeplitz import (
    FourierSymbol,
    LambdaToeplitzSpec,
    svd_study,
    trace_norm_bound_check,
)
from ltoeplitz.output import csv_text


def random_spec(rng, radius, max_index=8):
    lam = radius * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
    indices = rng.choice(np.arange(-max_index, max_index + 1), size=5, replace=False)
    coeffs = {int(n): complex(rng.standard_normal(), rng.standard_normal()) for n in indices}
    return LambdaToeplitzSpec(lam, FourierSymbol(coeffs))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", type=int, default=129)
    parser.add_argument("--radius", type=float, default=0.8, help="|lambda| upper bound")
    parser.add_argument("--out", help="optional CSV output path for k,sigma_k")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    spec = random_spec(rng, args.radius)
    (report,) = svd_study(spec, [args.size])
    print(f"lambda = {spec.lam:.6f}  support = {list(spec.symbol.support)}")
    print(f"sigma_1 = {report.operator_norm:.6f}  trace norm = {report.trace_norm:.6f}")
    print(f"numerical rank = {report.numerical_rank} of N = {args.size}")
    print(f"worst decay margin = {float(np.min(report.decay_margins)):.3e}")
    bound = trace_norm_bound_check(report, spec.lam)
    print(f"trace-norm majorant check: {'pass' if bound.passed else 'FAIL'} "
          f"(residual {bound.residual:.3e})")
    if args.out:
        Path(args.out).write_text(csv_text("k,sigma_k", report.singular_value_rows()))
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
