"""Companion operators and residual checks for the factorization identities.

Builds the diagonal unitary, classical Toeplitz truncations, weighted
composition operators with linear multiplier tau(z) = c z, and the
integral-operator kernels on the torus grid; each identity tying them to the
lambda-Toeplitz truncation is verified as an entrywise residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operator import LambdaToeplitzSpec, TruncatedOperator, _banded, powers, truncate
from .symbol import UNIT_CIRCLE_TOL, FourierSymbol, is_unimodular

__all__ = [
    "DEFAULT_UNITARY_TOL",
    "DEFAULT_WCO_SUM_TOL",
    "DEFAULT_TOEPLITZ_COMP_TOL",
    "WeightedCompositionSpec",
    "KernelGrid",
    "VerificationResult",
    "build_diag_unitary",
    "build_toeplitz",
    "build_weighted_comp",
    "verify_unitary_factorization",
    "verify_wco_sum",
    "verify_toeplitz_comp_factorization",
    "build_kernel_grid",
    "build_wco_kernel_grid",
    "build_kernel_grid_sampled_tau",
    "quadrature_apply",
    "kernel_grid_l2_norm",
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
        if abs(c) > 1.0 + UNIT_CIRCLE_TOL:
            raise ValueError(f"|multiplier| = {abs(c)} lies outside the closed unit disc")
        negative = [n for n in self.weight.support if n < 0]
        if negative:
            raise ValueError(f"weight must be analytic; found index {negative[0]}")
        object.__setattr__(self, "multiplier", c)


@dataclass(frozen=True, eq=False)
class KernelGrid:
    """Samples value[j, k] = kernel(theta_j, theta_k) on the uniform torus grid.

    Index j is the output variable, k the integration variable.
    """

    grid_size: int
    values: np.ndarray


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
    """diag(lambda^n); unitary exactly when |lambda| = 1."""
    lam = complex(lam)
    n = int(size)
    tag = "" if is_unimodular(lam) else " [non-unitary]"
    return TruncatedOperator(
        size=n,
        entries=np.diag(powers(lam, n)),
        provenance=f"diag-unitary(lambda={lam!r}) N={n}{tag}",
    )


def build_toeplitz(symbol: FourierSymbol, size: int) -> TruncatedOperator:
    """Constant-diagonal matrix entry(n, m) = a_{n-m}."""
    n = int(size)
    return TruncatedOperator(
        size=n,
        entries=_banded(symbol, n, 1.0),
        provenance=f"toeplitz(support={list(symbol.support)}) N={n}",
    )


def build_weighted_comp(w: WeightedCompositionSpec, size: int) -> TruncatedOperator:
    """Lower-triangular matrix entry(n, m) = multiplier^m * weight_{n-m}."""
    n = int(size)
    return TruncatedOperator(
        size=n,
        entries=_banded(w.weight, n, w.multiplier),
        provenance=f"weighted-comp(multiplier={w.multiplier!r}) N={n}",
    )


# -- factorization checks ------------------------------------------------------


def verify_unitary_factorization(
    spec: LambdaToeplitzSpec, size: int, tol: float = DEFAULT_UNITARY_TOL
) -> VerificationResult:
    """Residual of truncation == diag(lambda^n) * Toeplitz(twist_plus(phi, lambda)).

    Valid for |lambda| = 1 only; the product of truncations equals the
    truncation of the product exactly because the unitary factor is diagonal.
    """
    if not is_unimodular(spec.lam):
        raise ValueError("unitary factorization requires |lambda| = 1")
    n = int(size)
    lhs = truncate(spec, n).entries
    twisted = build_toeplitz(spec.symbol.twist_plus(spec.lam), n).entries
    rhs = powers(spec.lam, n)[:, np.newaxis] * twisted
    residual = float(np.max(np.abs(lhs - rhs)))
    return VerificationResult("unitary", n, residual, tol, residual <= tol)


def verify_wco_sum(
    spec: LambdaToeplitzSpec, size: int, tol: float = DEFAULT_WCO_SUM_TOL
) -> VerificationResult:
    """Residual of truncation == W(phi_plus, lambda) + W(flip(phi_minus), conj(lambda))^*.

    The first summand fills the lower triangle, the adjoint of the second the
    strict upper triangle; the identity is exact entrywise for every lambda in
    the closed disc, with no truncation leakage.
    """
    n = int(size)
    lhs = truncate(spec, n).entries
    lower = build_weighted_comp(
        WeightedCompositionSpec(spec.symbol.analytic_part(), spec.lam), n
    ).entries
    flipped = spec.symbol.coanalytic_part().conjugate_flip()
    upper = build_weighted_comp(
        WeightedCompositionSpec(flipped, spec.lam.conjugate()), n
    ).entries
    lower += upper.conj().T
    residual = float(np.max(np.abs(lhs - lower)))
    return VerificationResult("wco-sum", n, residual, tol, residual <= tol)


def verify_toeplitz_comp_factorization(
    spec: LambdaToeplitzSpec, size: int, tol: float = DEFAULT_TOEPLITZ_COMP_TOL
) -> tuple[VerificationResult, VerificationResult]:
    """Diagnostic for truncation == Toeplitz(phi_tilde) * diag(lambda^m), real 0 < lambda < 1.

    Reports two residuals: the "as-stated" variant dilates the coanalytic
    coefficients by lambda^{|n|}, the "corrected" variant by lambda^{-|n|}
    (forced by matching entries above the diagonal). Callers should treat the
    as-stated result as a report, not a gate; the two variants agree whenever
    the symbol is analytic.
    """
    lam = spec.lam
    if lam.imag != 0.0 or not 0.0 < lam.real < 1.0:
        raise ValueError("toeplitz-comp factorization needs real lambda in (0, 1)")
    n = int(size)
    lhs = truncate(spec, n).entries
    comp_diag = powers(lam, n)[np.newaxis, :]

    results = []
    for variant, exponent_sign in (("as-stated", -1), ("corrected", +1)):
        tilde = {
            k: (lam ** (exponent_sign * k)) * v if k < 0 else v
            for k, v in spec.symbol.items()
        }
        rhs = build_toeplitz(FourierSymbol(tilde), n).entries * comp_diag
        residual = float(np.max(np.abs(lhs - rhs)))
        results.append(
            VerificationResult("toeplitz-comp", n, residual, tol, residual <= tol, variant)
        )
    return tuple(results)


# -- integral-operator kernels ---------------------------------------------------


def _grid_phase(size: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(size) / size)


def build_kernel_grid(spec: LambdaToeplitzSpec, grid_size: int) -> KernelGrid:
    """Kernel (phi_plus(z_j) + phi_minus(z_k)) / (1 - lambda z_j conj(z_k)), |lambda| < 1."""
    if abs(spec.lam) >= 1.0:
        raise ValueError("kernel grid requires |lambda| < 1 (square-integrable kernel)")
    m = int(grid_size)
    plus_vals = spec.symbol.analytic_part().evaluate_on_grid(m)
    minus_vals = spec.symbol.coanalytic_part().evaluate_on_grid(m)
    phase = _grid_phase(m)
    denom = 1.0 - spec.lam * np.outer(phase, phase.conj())
    return KernelGrid(m, (plus_vals[:, np.newaxis] + minus_vals[np.newaxis, :]) / denom)


def _checked_tau(tau_samples) -> np.ndarray:
    tau = np.asarray(tau_samples, dtype=complex).ravel()
    if tau.size == 0 or np.max(np.abs(tau)) >= 1.0:
        raise ValueError("sampled tau must be nonempty and stay strictly inside the disc")
    return tau


def _sampled_tau_kernel_rows(weight_vals: np.ndarray, tau: np.ndarray, rows: slice) -> np.ndarray:
    """Rows ``rows`` of weight(z_j) / (1 - conj(z_k) tau_j) on the M = tau.size point grid."""
    return weight_vals[rows, np.newaxis] / (1.0 - np.outer(tau[rows], _grid_phase(tau.size).conj()))


def build_kernel_grid_sampled_tau(weight: FourierSymbol, tau_samples) -> KernelGrid:
    """Kernel weight(z_j) / (1 - conj(z_k) tau_j) for grid-sampled tau with max|tau| < 1."""
    tau = _checked_tau(tau_samples)
    m = tau.size
    return KernelGrid(m, _sampled_tau_kernel_rows(weight.evaluate_on_grid(m), tau, slice(None)))


def _wco_tau(w: WeightedCompositionSpec, grid_size: int) -> np.ndarray:
    if abs(w.multiplier) >= 1.0:
        raise ValueError("kernel grid requires |multiplier| < 1")
    return w.multiplier * _grid_phase(int(grid_size))


def build_wco_kernel_grid(w: WeightedCompositionSpec, grid_size: int) -> KernelGrid:
    """Kernel of W as an integral operator, for tau(z) = multiplier * z with |multiplier| < 1."""
    return build_kernel_grid_sampled_tau(w.weight, _wco_tau(w, grid_size))


def quadrature_apply(grid: KernelGrid, samples) -> np.ndarray:
    """Trapezoid-rule application (1/M) sum_k kernel(j, k) f(theta_k)."""
    f = np.asarray(samples, dtype=complex).ravel()
    if f.size != grid.grid_size:
        raise ValueError(f"sample count {f.size} does not match grid size {grid.grid_size}")
    return grid.values @ f / grid.grid_size


def kernel_grid_l2_norm(grid: KernelGrid) -> float:
    """Quadrature value of the L2(T x T) kernel norm (normalized measure)."""
    return float(np.sqrt(np.mean(np.abs(grid.values) ** 2)))


def kernel_hs_norm(w: WeightedCompositionSpec, grid_size: int) -> float:
    """Quadrature estimate of the Hilbert-Schmidt norm of W via its kernel.

    For tau(z) = c z the exact value is l2_norm(weight) / sqrt(1 - |c|^2);
    the Frobenius norms of the matrix truncations increase to the same limit.
    The kernel is summed _KERNEL_BLOCK_ROWS rows at a time, so the memory
    needed grows like M, not M^2.
    """
    tau = _checked_tau(_wco_tau(w, grid_size))
    m = tau.size
    weight_vals = w.weight.evaluate_on_grid(m)
    total = 0.0
    for start in range(0, m, _KERNEL_BLOCK_ROWS):
        block = _sampled_tau_kernel_rows(weight_vals, tau, slice(start, start + _KERNEL_BLOCK_ROWS))
        total += np.vdot(block, block).real
    return math.sqrt(total) / m


def wco_hs_norm_closed_form(w: WeightedCompositionSpec) -> float:
    c = abs(w.multiplier)
    if c >= 1.0:
        raise ValueError("closed form requires |multiplier| < 1")
    return w.weight.l2_norm() / math.sqrt(1.0 - c * c)
