"""Companion operators and residual checks for the factorization identities.

Builds the diagonal unitary, classical Toeplitz truncations, weighted
composition operators with linear multiplier tau(z) = c z, and the
integral-operator kernels on the torus grid; each identity tying them to the
lambda-Toeplitz truncation is verified as an entrywise residual.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .operator import (
    LambdaToeplitzSpec,
    TruncatedOperator,
    _bands,
    _checked_size,
    _unit_scaled,
    powers,
    truncate,
)
from .symbol import UNIT_CIRCLE_TOL, FourierSymbol, is_unimodular

__all__ = [
    "DEFAULT_UNITARY_TOL",
    "DEFAULT_WCO_SUM_TOL",
    "DEFAULT_TOEPLITZ_COMP_TOL",
    "WeightedCompositionSpec",
    "VerificationResult",
    "build_diag_unitary",
    "build_toeplitz",
    "build_weighted_comp",
    "verify_unitary_factorization",
    "verify_wco_sum",
    "verify_toeplitz_comp_factorization",
    "quadrature_apply",
    "kernel_hs_norm",
    "wco_hs_norm_closed_form",
]

DEFAULT_UNITARY_TOL = 1e-12
DEFAULT_WCO_SUM_TOL = 1e-14
DEFAULT_TOEPLITZ_COMP_TOL = 1e-14
_KERNEL_BLOCK_ROWS = 128


@dataclass(frozen=True)
class WeightedCompositionSpec:
    """W f = weight * (f o tau) with tau(z) = multiplier * z.

    The weight must be analytic (no negative support); the matrix is then
    lower triangular with entry(n, m) = multiplier^m * weight_{n-m}.
    """

    weight: FourierSymbol
    multiplier: complex

    def __post_init__(self):
        c = complex(self.multiplier)
        if not cmath.isfinite(c):
            raise ValueError(f"multiplier = {c!r} is not finite")
        if abs(c) > 1.0 + UNIT_CIRCLE_TOL:
            raise ValueError(f"|multiplier| = {abs(c)} lies outside the closed unit disc")
        negative = [n for n in self.weight.support if n < 0]
        if negative:
            raise ValueError(f"weight must be analytic; found index {negative[0]}")
        object.__setattr__(self, "multiplier", c)


@dataclass(frozen=True)
class VerificationResult:
    identity: str
    size: int
    residual: float
    tolerance: float
    passed: bool
    variant: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "N": self.size,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "variant": self.variant,
        }


# -- builders ----------------------------------------------------------------


def build_diag_unitary(lam: complex, size: int) -> TruncatedOperator:
    """diag(lambda^n), the truncation of (lambda, 1); unitary exactly when |lambda| = 1."""
    return truncate(LambdaToeplitzSpec(lam, FourierSymbol({0: 1.0})), size)


def build_toeplitz(symbol: FourierSymbol, size: int) -> TruncatedOperator:
    """Constant-diagonal matrix entry(n, m) = a_{n-m}, the truncation of (1, symbol)."""
    return truncate(LambdaToeplitzSpec(1.0, symbol), size)


def build_weighted_comp(w: WeightedCompositionSpec, size: int) -> TruncatedOperator:
    """Lower-triangular matrix entry(n, m) = multiplier^m * weight_{n-m}, the
    truncation of (multiplier, weight)."""
    return truncate(LambdaToeplitzSpec(w.multiplier, w.weight), size)


# -- factorization checks ------------------------------------------------------
#
# Each identity is a law between matrices whose entries are base^min(i, j) *
# a_{i-j} on stored bands and exact zeros elsewhere, so both sides are
# streamed one band at a time (``operator._bands``) and no N x N matrix is
# formed. Each entry keeps the arithmetic of the dense product it stands for,
# and the residual is the same float as the dense max.


def _band_residual(lhs, rhs) -> float:
    """max |L - R| over two N x N matrices given as ``(d, band)`` streams in ascending d.

    A band that only one side stores is compared with zeros, and every entry
    off both is zero on both sides, so a NaN anywhere gives NaN, as a dense
    max would, and two empty streams give 0.0.
    """
    peaks = [0.0]
    left, right = next(lhs, None), next(rhs, None)
    while left is not None or right is not None:
        if right is None or (left is not None and left[0] < right[0]):
            diff, left = left[1], next(lhs, None)
        elif left is None or right[0] < left[0]:
            diff, right = right[1], next(rhs, None)
        else:
            diff = left[1] - right[1]
            left, right = next(lhs, None), next(rhs, None)
        peaks.append(np.max(np.abs(diff)))
    return float(np.max(peaks))


def verify_unitary_factorization(
    spec: LambdaToeplitzSpec, size: int, tol: float = DEFAULT_UNITARY_TOL
) -> VerificationResult:
    """Residual of truncation == diag(lambda^n) * Toeplitz(twist_plus(phi, lambda)).

    Valid for |lambda| = 1 only; the product of truncations equals the
    truncation of the product exactly because the unitary factor is diagonal.
    """
    if not is_unimodular(spec.lam):
        raise ValueError("unitary factorization requires |lambda| = 1")
    n = _checked_size(size)
    pows = powers(spec.lam, n)
    # row i scaled by lambda^i, powers on the left: swapped complex products
    # round differently
    rhs = (
        (d, pows[max(d, 0) :][: band.size] * band)
        for d, band in _bands(spec.symbol.twist_plus(spec.lam), n, 1.0)
    )
    residual = _band_residual(_bands(spec.symbol, n, spec.lam), rhs)
    return VerificationResult("unitary", n, residual, tol, residual <= tol)


def verify_wco_sum(
    spec: LambdaToeplitzSpec, size: int, tol: float = DEFAULT_WCO_SUM_TOL
) -> VerificationResult:
    """Residual of truncation == W(phi_plus, lambda) + W(flip(phi_minus), conj(lambda))^*.

    The first summand fills the lower triangle, the adjoint of the second the
    strict upper triangle; the identity is exact entrywise for every lambda in
    the closed disc, with no truncation leakage. The upper triangle is
    compared transposed, where both sides run in ascending band order: the
    transpose of the truncation for (lambda, phi) is the truncation for
    (lambda, phi(1/z)), and that of W^* is conj(W).
    """
    n = _checked_size(size)
    lam = spec.lam
    plus, minus = spec.symbol.analytic_part(), spec.symbol.coanalytic_part()
    # Below the diagonal the truncation's bands are W(phi_plus, lambda)'s by
    # definition, the same products on both sides: only a band that is not
    # finite makes them differ, giving NaN as the dense difference did.
    lower = _band_residual(_bands(plus, n, lam), _bands(plus, n, lam))
    upper = _band_residual(
        _bands(FourierSymbol({-d: a for d, a in minus.items()}), n, lam),
        ((k, band.conj()) for k, band in _bands(minus.conjugate_flip(), n, lam.conjugate())),
    )
    residual = float(np.maximum(lower, upper))
    return VerificationResult("wco-sum", n, residual, tol, residual <= tol)


def _tilde_symbol(spec: LambdaToeplitzSpec, size: int, exponent_sign: int, variant: str):
    """phi with a_k scaled by lambda^(exponent_sign * k) for -N < k < 0.

    Bands k <= -N miss the truncation, so their powers are never taken.
    """
    lam, coeffs = spec.lam, {}
    for k, v in spec.symbol.items():
        if k <= -size:
            continue
        if k < 0:
            try:
                v = (lam ** (exponent_sign * k)) * v
            except (OverflowError, ZeroDivisionError) as exc:
                raise ValueError(
                    f"toeplitz-comp {variant}: lambda**{exponent_sign * k} overflows "
                    f"for coefficient index {k} at lambda={lam!r}"
                ) from exc
        coeffs[k] = v
    return FourierSymbol(coeffs)


def verify_toeplitz_comp_factorization(
    spec: LambdaToeplitzSpec, size: int, tol: float = DEFAULT_TOEPLITZ_COMP_TOL
) -> tuple[VerificationResult, VerificationResult]:
    """Diagnostic for truncation == Toeplitz(phi_tilde) * diag(lambda^m), real 0 < lambda < 1.

    Reports two residuals: the "as-stated" variant dilates the coanalytic
    coefficients by lambda^{|n|}, the "corrected" variant by lambda^{-|n|}
    (forced by matching entries above the diagonal). Callers should treat the
    as-stated result as a report, not a gate; the two variants agree whenever
    the symbol is analytic. A lambda^{-|n|} beyond the float range raises
    ``ValueError`` naming n and lambda.
    """
    lam = spec.lam
    if lam.imag != 0.0 or not 0.0 < lam.real < 1.0:
        raise ValueError("toeplitz-comp factorization needs real lambda in (0, 1)")
    n = _checked_size(size)
    pows = powers(lam, n)

    results = []
    for variant, exponent_sign in (("as-stated", -1), ("corrected", +1)):
        tilde = _tilde_symbol(spec, n, exponent_sign, variant)
        # column j scaled by lambda^j, on the right
        rhs = (
            (d, band * pows[max(-d, 0) :][: band.size])
            for d, band in _bands(tilde, n, 1.0)
        )
        residual = _band_residual(_bands(spec.symbol, n, lam), rhs)
        results.append(
            VerificationResult("toeplitz-comp", n, residual, tol, residual <= tol, variant)
        )
    return tuple(results)


# -- integral-operator kernels ---------------------------------------------------


def _kernel_rows(spec: LambdaToeplitzSpec, grid_size: int):
    """Row blocks of (phi_plus(z_j) + phi_minus(z_k)) / (1 - lambda z_j conj(z_k)).

    The kernel of the operator on the M-point torus grid z_j = e^{2 pi i j / M},
    _KERNEL_BLOCK_ROWS rows at a time in ascending j, so a caller needs memory
    that grows like M, not M^2. Index j is the output variable, k the
    integration variable. W(psi, c) is the operator of (c, psi), whose
    phi_minus is 0.
    """
    lam = spec.lam
    if abs(lam) >= 1.0:
        raise ValueError(
            f"kernel requires |lambda| < 1 (|multiplier| < 1 for W), got {abs(lam)}"
        )
    m = int(grid_size)
    if m < 1:
        raise ValueError(f"kernel grid size M must be >= 1, got {m}")
    z = np.exp(2j * np.pi * np.arange(m) / m)
    lam_z, z_bar = lam * z, z.conj()
    plus = spec.symbol.analytic_part().evaluate_on_grid(m)[:, np.newaxis]
    coanalytic = spec.symbol.coanalytic_part()
    # W(psi, c) has phi_minus = 0: a scalar keeps each numerator one column
    # wide, where a row of zeros would cost an extra rows x M sum per block
    minus = coanalytic.evaluate_on_grid(m) if coanalytic.support else 0.0
    for start in range(0, m, _KERNEL_BLOCK_ROWS):
        rows = slice(start, start + _KERNEL_BLOCK_ROWS)
        block = np.outer(lam_z[rows], z_bar)
        np.subtract(1.0, block, out=block)
        np.divide(plus[rows] + minus, block, out=block)
        yield block


def quadrature_apply(spec: LambdaToeplitzSpec, samples) -> np.ndarray:
    """Trapezoid-rule application (1/M) sum_k kernel(j, k) f(z_k), M = len(samples)."""
    f = np.asarray(samples, dtype=complex).ravel()
    m = f.size
    return np.concatenate([block @ f / m for block in _kernel_rows(spec, m)])


def kernel_hs_norm(w: WeightedCompositionSpec, grid_size: int) -> float:
    """Quadrature estimate of the Hilbert-Schmidt norm of W via its kernel.

    For tau(z) = c z the exact value is l2_norm(weight) / sqrt(1 - |c|^2);
    the Frobenius norms of the matrix truncations increase to the same limit.
    The kernel is formed from the weight scaled by a power of two, undone
    at the end, so that its squares stay in the float range.
    """
    weight, scale = _unit_scaled(w.weight)
    total = 0.0
    for block in _kernel_rows(LambdaToeplitzSpec(w.multiplier, weight), grid_size):
        total += np.vdot(block, block).real
    return math.sqrt(total) / int(grid_size) / scale


def wco_hs_norm_closed_form(w: WeightedCompositionSpec) -> float:
    c = abs(w.multiplier)
    if c >= 1.0:
        raise ValueError("closed form requires |multiplier| < 1")
    return w.weight.l2_norm() / math.sqrt(1.0 - c * c)
