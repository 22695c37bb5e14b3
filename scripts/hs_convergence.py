#!/usr/bin/env python3
"""Frobenius norms of growing truncations against the Hilbert-Schmidt closed form.

For |lambda| < 1 the truncation Frobenius norms increase monotonically to
l2_norm(phi) / sqrt(1 - |lambda|^2); the gap shrinks like |lambda|^(2N).
Each norm is summed band by band, so no N x N truncation is formed.
"""

import argparse

from ltoeplitz import FourierSymbol, LambdaToeplitzSpec, frobenius_norm, hs_norm_closed_form
from ltoeplitz.symbol import read_symbol_file


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lambda-re", type=float, default=0.8)
    parser.add_argument("--lambda-im", type=float, default=0.0)
    parser.add_argument("--symbol", help="symbol JSON; a two-mode demo symbol when omitted")
    parser.add_argument("--sizes", default="8,16,32,64,128,256")
    args = parser.parse_args()

    if args.symbol:
        phi = read_symbol_file(args.symbol)
    else:
        phi = FourierSymbol({1: 1.0, -2: 0.5j})
    spec = LambdaToeplitzSpec(complex(args.lambda_re, args.lambda_im), phi)
    closed = hs_norm_closed_form(spec)
    print(f"closed form: {closed:.12f}")
    for n in (int(s) for s in args.sizes.split(",")):
        frob = frobenius_norm(spec, n)
        print(f"N={n:6d}  frobenius={frob:.12f}  gap={closed - frob:.3e}")


if __name__ == "__main__":
    main()
