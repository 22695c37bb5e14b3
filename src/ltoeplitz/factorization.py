"""Companion operators and residual checks for the factorization identities.

Builds weighted composition operators W with linear multiplier tau(z) = c z,
checks the spectrum of W and gives its Hilbert-Schmidt norm in closed form,
verifies each identity tying W, and the diagonal unitary and classical
Toeplitz truncations (those of (lambda, 1) and (1, phi)), to the
lambda-Toeplitz truncation as an entrywise residual, and estimates the
Hilbert-Schmidt norm of W by kernel quadrature.
"""

from __future__ import annotations

import math

import numpy as np

from . import spectral  # runs on first read: `spectrum` reads none of it
from .operator import (
    LambdaToeplitzSpec,
    TruncatedOperator,
    VerificationResult,
    _Record,
    _TINY,
    _bands,
    _charge,
    _checked_size,
    _disc_point,
    _unit_scaled,
    _unscaled,
    powers,
    truncate,
)
from .symbol import FourierSymbol, is_unimodular

__all__ = [
    "DEFAULT_UNITARY_TOL",
    "DEFAULT_WCO_SUM_TOL",
    "DEFAULT_TOEPLITZ_COMP_TOL",
    "WeightedCompositionSpec",
    "build_weighted_comp",
    "wco_hs_norm_closed_form",
    "wco_spectrum_check",
    "verify_unitary_factorization",
    "verify_wco_sum",
    "verify_toeplitz_comp_factorization",
    "kernel_hs_norm",
]

# Relative tolerances: each identity check compares its residual on s * phi
# with one, s the power of two of ``_unit_scaled`` that puts phi's largest part near 1.
DEFAULT_UNITARY_TOL = 1e-12
DEFAULT_WCO_SUM_TOL = 1e-14
DEFAULT_TOEPLITZ_COMP_TOL = 1e-14
_SPECTRUM_TOL = 1e-14  # relative error of each eigenvalue of W


class WeightedCompositionSpec(_Record):
    """W f = weight * (f o tau) with tau(z) = multiplier * z.

    The weight must be analytic (no negative support); the matrix is then
    lower triangular with entry(n, m) = multiplier^m * weight_{n-m}.
    """

    __slots__ = ("weight", "multiplier")

    def __init__(self, weight: FourierSymbol, multiplier: complex):
        multiplier = _disc_point("multiplier", multiplier)
        negative = [n for n in weight.support if n < 0]
        if negative:
            raise ValueError(f"weight must be analytic; found index {negative[0]}")
        super().__init__(weight, multiplier)


# -- builders ----------------------------------------------------------------


def build_weighted_comp(w: WeightedCompositionSpec, size: int) -> TruncatedOperator:
    """Lower-triangular matrix entry(n, m) = multiplier^m * weight_{n-m}, the
    truncation of (multiplier, weight)."""
    return truncate(LambdaToeplitzSpec(w.multiplier, w.weight), size)


# -- laws of W alone ---------------------------------------------------------


def wco_hs_norm_closed_form(w: WeightedCompositionSpec) -> float:
    """Hilbert-Schmidt norm of W(psi, c), the operator of (c, psi):
    l2_norm(weight) / sqrt(1 - |multiplier|^2)."""
    return spectral.hs_norm_closed_form(LambdaToeplitzSpec(w.multiplier, w.weight))


def wco_spectrum_check(w: WeightedCompositionSpec, size: int) -> VerificationResult:
    """Eigenvalues of the W truncation are exactly {multiplier^m * weight(0)}.

    The truncation is lower triangular, so its eigenvalues are read off the
    diagonal. The residual is the largest error of a diagonal entry relative
    to its predicted point, absolute where that point lies below the normal
    range, so an error in an entry of 0.8^200 is as visible as one in 1.0.
    For weight(0) != 0 and 0 < |multiplier| < 1 the predicted points must
    also be pairwise distinct (the tail of an infinite spectrum). Points
    below the normal range are left out of that test: there ``powers`` gives
    0.0 and a small weight(0) rounds to a few subnormals, and equal points
    say nothing about the truncation.

    It holds at most three complex arrays of N, the powers, the diagonal and
    the predicted points, 48 N bytes, charged first as ``N=<N> wco-spectrum
    check``.
    """
    n = _checked_size(size)
    _charge(16 * 3 * n, f"N={n} wco-spectrum check")
    pows = powers(w.multiplier, n)
    # band 0 of W, the first band of an analytic weight if stored, else zeros
    first = next(_bands(w.weight, pows), (None, None))
    diag = first[1] if first[0] == 0 else np.zeros(n, dtype=complex)
    del first
    psi0 = w.weight.coefficient(0)
    # into a new array: an in-place complex product can round differently
    predicted = pows * psi0
    del pows
    error = np.abs(np.subtract(diag, predicted, out=diag))
    del diag
    magnitude = np.abs(predicted)
    normal = magnitude >= _TINY
    residual = float(np.max(np.divide(error, magnitude, out=error, where=normal)))
    del error, magnitude
    ok = residual <= _SPECTRUM_TOL
    mod = abs(w.multiplier)
    if psi0 != 0 and 0.0 < mod < 1.0:
        points = predicted[normal]
        points.sort()  # equal points end up next to each other
        ok = ok and not np.any(points[1:] == points[:-1])
    return VerificationResult("wco-spectrum", n, residual, _SPECTRUM_TOL, ok)


# -- factorization checks ------------------------------------------------------
#
# Each identity is a law between matrices whose entries are base^min(i, j) *
# a_{i-j} on stored bands and exact zeros elsewhere, so both sides are
# streamed one band at a time (``operator._bands``) and no N x N matrix is
# formed. Each entry keeps the arithmetic of the dense product it stands for,
# and the residual is the same float as the dense max.


def _charge_bands(n: int, identity: str, products: bool) -> None:
    """Charge what a band-wise check of N x N matrices holds at once: two
    arrays of N powers and one band of each side, 64 N bytes, beside the
    moduli of their difference, 8 N; or, where each right band is a product
    made from another band, beside that band while it is made, 16 N."""
    _charge((80 if products else 72) * n, f"N={n} {identity} check")


def _rebanded(bands, change):
    """``(d, change(d, band))`` for each ``(d, band)`` of a stream; each band
    is let go once its change is made, and that before the next band is."""
    for d, band in bands:
        band = change(d, band)
        yield d, band
        del band


def _band_residual(lhs, rhs) -> float:
    """max |L - R| over two N x N matrices given as ``(d, band)`` streams in ascending d.

    A band that only one side stores is compared with zeros, and every entry
    off both is zero on both sides, so a NaN anywhere gives NaN, as a dense
    max would, and two empty streams give 0.0. A left band is overwritten by
    the difference, and each band is let go before its stream makes the next.
    """
    peaks = [0.0]
    left, right = next(lhs, None), next(rhs, None)
    while left is not None or right is not None:
        d = min(side[0] for side in (left, right) if side is not None)
        on_left = left is not None and left[0] == d
        on_right = right is not None and right[0] == d
        if on_left and on_right:
            diff = np.subtract(left[1], right[1], out=left[1])
        else:
            diff = (left if on_left else right)[1]
        peaks.append(np.max(np.abs(diff)))
        del diff
        if on_left:
            del left
            left = next(lhs, None)
        if on_right:
            del right
            right = next(rhs, None)
    return float(np.max(peaks))


def _scaled_result(identity, size, residual, tol, exponent, variant=None) -> VerificationResult:
    """Passes when the residual on 2^``exponent`` * phi is at most the relative
    ``tol``; reports both times 2^-``exponent``, exactly for every normal float."""
    residual_out, tol_out = _unscaled(residual, exponent), _unscaled(tol, exponent)
    return VerificationResult(identity, size, residual_out, tol_out, residual <= tol, variant)


def verify_unitary_factorization(spec: LambdaToeplitzSpec, size: int) -> VerificationResult:
    """Residual of truncation == diag(lambda^n) * Toeplitz(twist_plus(phi, lambda)).

    Valid for |lambda| = 1 only; the product of truncations equals the
    truncation of the product exactly because the unitary factor is diagonal.
    """
    if not is_unimodular(spec.lam):
        raise ValueError("unitary factorization requires |lambda| = 1")
    n = _checked_size(size)
    _charge_bands(n, "unitary", products=True)
    symbol, exponent = _unit_scaled(spec.symbol, n)
    pows, twisted = powers(spec.lam, n), symbol.twist_plus(spec.lam)
    # row i scaled by lambda^i, powers on the left, into a new array: swapped
    # or in-place complex products can round differently
    rhs = _rebanded(_bands(twisted, powers(1.0, n)),
                    lambda d, band: pows[max(d, 0) :][: band.size] * band)
    residual = _band_residual(_bands(symbol, pows), rhs)
    return _scaled_result("unitary", n, residual, DEFAULT_UNITARY_TOL, exponent)


def verify_wco_sum(spec: LambdaToeplitzSpec, size: int) -> VerificationResult:
    """Residual of truncation == W(phi_plus, lambda) + W(flip(phi_minus), conj(lambda))^*.

    The first summand fills the lower triangle, the adjoint of the second the
    strict upper triangle; the identity is exact entrywise for every lambda in
    the closed disc, with no truncation leakage. Only the strict upper
    triangle is compared: below it the truncation's bands are those of
    W(phi_plus, lambda) by definition, the same products on both sides. It
    is compared transposed, where both sides run in ascending band order:
    the transpose of the truncation for (lambda, phi) is the truncation for
    (lambda, phi(1/z)), and that of W^* is conj(W).
    """
    n = _checked_size(size)
    _charge_bands(n, "wco-sum", products=False)
    lam = spec.lam
    symbol, exponent = _unit_scaled(spec.symbol, n)
    minus = symbol.coanalytic_part()
    residual = _band_residual(
        _bands(FourierSymbol({-d: a for d, a in minus.items()}), powers(lam, n)),
        _rebanded(_bands(minus.conjugate(), powers(lam.conjugate(), n)),
                  lambda d, band: np.conjugate(band, out=band)),
    )
    return _scaled_result("wco-sum", n, residual, DEFAULT_WCO_SUM_TOL, exponent)


def _tilde_symbol(symbol: FourierSymbol, lam: complex, exponent_sign: int, variant: str):
    """phi with a_k scaled by lambda^(exponent_sign * k) for k < 0.

    For real lambda the power is real, so a finite power times parts below
    1 stays finite: only the power itself can overflow.
    """
    coeffs = {}
    for k, v in symbol.items():
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
    spec: LambdaToeplitzSpec, size: int
) -> tuple[VerificationResult, VerificationResult]:
    """Diagnostic for truncation == Toeplitz(phi_tilde) * diag(lambda^m), real 0 < lambda < 1.

    Reports two residuals: the "as-stated" variant dilates the coanalytic
    coefficients by lambda^{|n|}, the "corrected" variant by lambda^{-|n|}
    (forced by matching entries above the diagonal). Callers should treat the
    as-stated result as a report, not a gate; the two variants agree whenever
    the symbol is analytic. A lambda^{-|n|} beyond the float range raises
    ``ValueError`` naming n and lambda; only bands |n| < N are dilated.
    """
    lam = spec.lam
    if lam.imag != 0.0 or not 0.0 < lam.real < 1.0:
        raise ValueError("toeplitz-comp factorization needs real lambda in (0, 1)")
    n = _checked_size(size)
    _charge_bands(n, "toeplitz-comp", products=True)
    symbol, exponent = _unit_scaled(spec.symbol, n)
    pows, ones = powers(lam, n), powers(1.0, n)

    results = []
    for variant, exponent_sign in (("as-stated", -1), ("corrected", +1)):
        tilde = _tilde_symbol(symbol, lam, exponent_sign, variant)
        # column j scaled by lambda^j, on the right, into a new array
        rhs = _rebanded(_bands(tilde, ones),
                        lambda d, band: band * pows[max(-d, 0) :][: band.size])
        residual = _band_residual(_bands(symbol, pows), rhs)
        results.append(_scaled_result("toeplitz-comp", n, residual, DEFAULT_TOEPLITZ_COMP_TOL,
                                      exponent, variant))
    return tuple(results)


# -- integral-operator kernels ---------------------------------------------------


def _kernel_circulant(lam: complex, grid_size: int) -> np.ndarray:
    """c_d = 1 / (1 - lambda omega^d), d = 0..M-1, omega = e^{2 pi i / M}.

    On the grid z_j = omega^j, z_j conj(z_k) = omega^(j-k), so the operator's
    kernel (phi_plus(z_j) + phi_minus(z_k)) / (1 - lambda z_j conj(z_k)) is
    (phi_plus(z_j) + phi_minus(z_k)) c_{(j-k) mod M} (P. J. Davis, Circulant
    Matrices, 1979). W(psi, c) is the operator of (c, psi): phi_minus = 0.
    """
    if abs(lam) >= 1.0:
        raise ValueError(
            f"kernel requires |lambda| < 1 (|multiplier| < 1 for W), got {abs(lam)}"
        )
    m = int(grid_size)
    if m < 1:
        raise ValueError(f"kernel grid size M must be >= 1, got {m}")
    return 1.0 / (1.0 - lam * np.exp(2j * np.pi * np.arange(m) / m))


def kernel_hs_norm(w: WeightedCompositionSpec, grid_size: int) -> float:
    """Quadrature estimate of the Hilbert-Schmidt norm of W via its kernel.

    For tau(z) = c z the exact value is l2_norm(weight) / sqrt(1 - |c|^2);
    the Frobenius norms of the matrix truncations increase to the same limit.
    The grid sum of |kernel(j, k)|^2 = |psi(z_j)|^2 |c_{j-k}|^2 factors into
    (sum_j |psi(z_j)|^2)(sum_d |c_d|^2), with the weight scaled by a power of
    two, undone at the end, so that its squares stay in the float range.
    """
    weight, exponent = _unit_scaled(w.weight)
    circulant = _kernel_circulant(w.multiplier, grid_size)
    psi = weight.evaluate_on_grid(circulant.size)
    total = np.vdot(psi, psi).real * np.vdot(circulant, circulant).real
    return _unscaled(math.sqrt(total) / circulant.size, exponent)
