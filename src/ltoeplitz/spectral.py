"""Singular-value analysis of truncations: norms, decay bounds, numerical rank.

Quantitative spectral laws checked here, for the truncation T_N of the
operator attached to (lambda, phi):

* |lambda| < 1: the full operator is Hilbert-Schmidt with norm
  l2_norm(phi) / sqrt(1 - |lambda|^2), and the Frobenius norms of the
  truncations increase to that value.
* |lambda| < 1: singular values decay as sigma_{2m+1} <= |lambda|^m * sigma_1
  (block argument: the tail block starting at row/column m is lambda^m times
  a smaller truncation), which makes the trace norm uniformly bounded. The
  same block fact bounds the SVD work of ``svd_study``: lambda and phi
  alone fix the M past which the tail is below eps * sigma_1, and only an
  (M + p) x (M + q) core is decomposed for a symbol supported on -q..p,
  with M about log(eps)/log|lambda| whatever N is.
* |lambda| = 1: truncation operator norms converge upward to the sup norm of
  the twisted symbol; for the bandlimited ramp with lambda = -1 they grow
  like log N instead of converging. The ramp's twisted symbol has two
  logarithmic singularities, at theta = 0 from the coanalytic part and at
  theta = pi from the analytic part shifted by the twist; untwisted, the two
  logarithms cancel to a bounded jump.

  These norms need sigma_1 only. ``top_singular_value`` finds it without
  forming T_N: Golub-Kahan-Lanczos bidiagonalization on the FFT products of
  ``operator.prepare``, stopped once the residual of the top Ritz pair is at
  most 1e-13 * sigma_1. Its Krylov basis, not an N x N matrix, is charged
  against the memory budget, so these studies run past the dense limit.
  ``svd_study`` and ``finite_rank_study`` need every singular value and
  take the SVD of ``_core``: the core where it is smaller than T_N, T_N
  itself otherwise.
  ``analyze``, ``singular_values`` and ``operator_norm``, the tests'
  oracles, always take the plain dense SVD.
* rank: lambda = 0 forces rank <= 2; one-sided symbols give exact
  corank-n_0 triangular structure; generic two-sided symbols with
  0 < |lambda| < 1 have numerical rank growing without bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .factorization import VerificationResult, WeightedCompositionSpec
from .operator import (
    LambdaToeplitzSpec,
    MemoryBudgetExceeded,
    TruncatedOperator,
    _TINY,
    _bands,
    _checked_size,
    _unit_scale,
    _unit_scaled,
    powers,
    prepare,
    resolve_budget_mb,
    truncate,
)
from .symbol import is_unimodular, sawtooth

__all__ = [
    "DEFAULT_RANK_TOL",
    "TRACE_BOUND_SLACK",
    "KRYLOV_RTOL",
    "SpectralDecompositionError",
    "SpectralReport",
    "analyze",
    "svd_study",
    "frobenius_norm",
    "singular_values",
    "operator_norm",
    "top_singular_value",
    "hs_norm_closed_form",
    "norm_convergence_study",
    "sawtooth_growth_study",
    "trace_norm_bound_check",
    "wco_spectrum_check",
    "finite_rank_study",
]

DEFAULT_RANK_TOL = 1e-8
TRACE_BOUND_SLACK = 1e-9
# Golub-Kahan-Lanczos stops once the top Ritz pair's residual is this small
# relative to the Ritz value.
KRYLOV_RTOL = 1e-13
_KRYLOV_SEED = 11
# The projected bidiagonal is decomposed first at step 1, then each next time
# at step ceil(growth * k): tops that nearly cluster need hundreds of steps,
# and a decomposition at every one would cost more than the steps themselves.
_CHECK_GROWTH = 1.15
_EPS = float(np.finfo(float).eps)


class SpectralDecompositionError(RuntimeError):
    """SVD failure, carrying the truncation size for diagnostics."""

    def __init__(self, size: int, message: str):
        super().__init__(message)
        self.size = size


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Singular-value summary of one truncation.

    decay_margins[m] = |lambda|^m * sigma_1 - sigma_{2m+1}; a negative margin
    beyond rounding would certify a violation of the decay bound.
    """

    size: int
    singular_values: np.ndarray
    operator_norm: float
    frobenius_norm: float
    trace_norm: float
    numerical_rank: int
    decay_margins: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "N": self.size,
            "singular_values": [float(s) for s in self.singular_values],
            "operator_norm": self.operator_norm,
            "frobenius_norm": self.frobenius_norm,
            "trace_norm": self.trace_norm,
            "numerical_rank": self.numerical_rank,
            "decay_margins": [float(v) for v in self.decay_margins],
        }

    def singular_value_rows(self):
        """(k, sigma_k) pairs, k starting at 1, for the CSV table."""
        return [(k + 1, float(s)) for k, s in enumerate(self.singular_values)]


def _svdvals(matrix: np.ndarray, size: int) -> np.ndarray:
    """Singular values of matrix; a non-finite entry or a LAPACK failure
    names the truncation size."""
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"truncation N={size} has non-finite entries")
    try:
        return np.linalg.svd(matrix, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SpectralDecompositionError(size, f"SVD failed at N={size}: {exc}") from exc


def singular_values(op: TruncatedOperator) -> np.ndarray:
    """Dense SVD of every entry: the plain oracle."""
    return _svdvals(op.entries, op.size)


def operator_norm(op: TruncatedOperator) -> float:
    return float(singular_values(op)[0])


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Project the span of the orthonormal rows out of w.

    Classical Gram-Schmidt, repeated once when the first pass shrinks w
    below 1/sqrt(2) of its length (Daniel, Gragg, Kaufman & Stewart 1976).
    """
    before = np.linalg.norm(w)
    for _ in range(2):
        w -= (basis @ w.conj()).conj() @ basis
        after = np.linalg.norm(w)
        if after > math.sqrt(0.5) * before:
            break
        before = after
    return w


def _with_room(basis: np.ndarray, rows: int, cap: int) -> np.ndarray:
    """basis, or a copy with room for ``rows`` rows (doubling, at most cap)."""
    if rows <= basis.shape[0]:
        return basis
    grown = np.empty((min(max(2 * basis.shape[0], 16), cap), basis.shape[1]), dtype=complex)
    grown[: basis.shape[0]] = basis
    return grown


def _top_ritz(alphas: list, betas: list) -> tuple[float, float]:
    """sigma_1 of the k x k upper bidiagonal B and |x_k|, the last entry of
    its top left singular vector, from the top eigenpair of B B^T.

    B B^T is tridiagonal, so it is written down directly (lower triangle).
    """
    a = np.asarray(alphas)
    b = np.asarray(betas[: a.size - 1])
    gram = np.diag(a * a + np.append(b * b, 0.0)) + np.diag(b * a[1:], -1)
    vals, vecs = np.linalg.eigh(gram)
    return math.sqrt(max(float(vals[-1]), 0.0)), abs(float(vecs[-1, -1]))


def top_singular_value(spec: LambdaToeplitzSpec, size: int) -> float:
    """sigma_1 of the N x N truncation, matrix-free, to a certified residual.

    Golub-Kahan-Lanczos bidiagonalization (Golub & Kahan 1965) with full
    reorthogonalization, from a fixed-seed start vector, on the FFT products
    of ``prepare``. After k steps, A V_k = U_k B_k and
    A* U_k = V_k B_k* + beta_k v_{k+1} e_k*, with B_k upper bidiagonal. For
    the top singular triplet (sigma, x, y) of B_k the pair u = U_k x,
    v = V_k y has A v = sigma u exactly and ||A* u - sigma v|| =
    beta_k |x_k|, so some singular value of A lies within that residual of
    sigma, and sigma never exceeds ||A||. The iteration stops once the
    residual is at most ``KRYLOV_RTOL * sigma``.

    A zero truncation breaks down at step 1 and gives 0.0. The two bases
    (2 k N complex entries) are charged against ``LT_MEM_BUDGET_MB``; a step
    that would exceed it raises ``MemoryBudgetExceeded``. N steps without
    the certificate raise ``SpectralDecompositionError``.
    """
    n = _checked_size(size)
    budget = resolve_budget_mb()
    step_bytes = 2 * n * np.dtype(complex).itemsize
    step_limit = max(int(budget * 2**20 // step_bytes), 0)
    cap = min(n, step_limit)
    matvec, rmatvec = prepare(spec, n)
    # uniform start vector from a seeded stdlib generator: numpy.random
    # would add its own import to every run
    bits = np.frombuffer(random.Random(_KRYLOV_SEED).randbytes(16 * n), dtype=np.uint64)
    v = (bits / 2.0**64 - 0.5).view(complex)
    v /= np.linalg.norm(v)
    right = np.empty((0, n), dtype=complex)
    left = np.empty((0, n), dtype=complex)
    alphas: list[float] = []
    betas: list[float] = []
    check = 1
    for k in range(1, n + 1):
        if k > step_limit:
            raise MemoryBudgetExceeded(
                f"N={n}: step k={k} of the Krylov basis needs "
                f"{k * step_bytes / 2**20:.2f} MB; budget {budget:g} MB allows k <= {step_limit}"
            )
        right, left = _with_room(right, k, cap), _with_room(left, k, cap)
        right[k - 1] = v
        u = matvec(v)
        if k > 1:
            u -= betas[-1] * left[k - 2]
        u = _orthogonalize(u, left[: k - 1])
        alpha = float(np.linalg.norm(u))
        alphas.append(alpha)
        if alpha == 0.0:
            # A maps the Krylov space into span(U_{k-1}): an invariant
            # subspace, whose top singular value B_k holds exactly.
            return _top_ritz(alphas, betas)[0]
        u /= alpha
        left[k - 1] = u
        w = rmatvec(u) - alpha * v
        w = _orthogonalize(w, right[:k])
        beta = float(np.linalg.norm(w))
        betas.append(beta)
        if not math.isfinite(alpha + beta):
            raise ValueError(f"matrix-free product at N={n} is not finite")
        if k >= check or beta == 0.0 or k == n:
            sigma, last = _top_ritz(alphas, betas)
            if beta * last <= KRYLOV_RTOL * sigma:
                return sigma
            check = math.ceil(_CHECK_GROWTH * k)
        v = w / beta
    raise SpectralDecompositionError(
        n, f"Golub-Kahan-Lanczos left sigma_1 uncertified after N={n} steps"
    )


def _report(sing: np.ndarray, frob: float, lam: complex, rank_tol: float) -> SpectralReport:
    """The report of a truncation with singular values ``sing`` (descending)."""
    if not 0.0 < rank_tol < 1.0:
        raise ValueError("rank_tol must lie in (0, 1)")
    top = float(sing[0])
    ms = np.arange(sing.size // 2)
    return SpectralReport(
        size=sing.size,
        singular_values=sing,
        operator_norm=top,
        frobenius_norm=frob,
        trace_norm=float(np.sum(sing)),
        numerical_rank=int(np.count_nonzero(sing > rank_tol * top)) if top > 0.0 else 0,
        decay_margins=(abs(complex(lam)) ** ms) * top - sing[2 * ms],
    )


def analyze(
    op: TruncatedOperator, lam: complex, rank_tol: float = DEFAULT_RANK_TOL
) -> SpectralReport:
    """Every singular value of any matrix, with norms, numerical rank and
    decay margins: the dense oracle of ``svd_study``.

    The singular values are those of ``singular_values``, bit for bit. The
    Frobenius norm is ``np.linalg.norm`` of the entries scaled by the
    ``_unit_scale`` of sigma_1, which bounds every |entry|.
    """
    sing = singular_values(op)
    scale = _unit_scale(float(sing[0]))
    return _report(sing, float(np.linalg.norm(op.entries * scale)) / scale, lam, rank_tol)


def _core(spec: LambdaToeplitzSpec, size: int) -> np.ndarray:
    """The SVD core of the N x N truncation: T_N itself when |lambda| = 1 or
    the core is not smaller.

    T[M:, M:] is lambda^M T_{N-M}, of Frobenius norm at most
    |lambda|^M l2_norm(phi) / sqrt(1 - |lambda|^2) (bands |d| < N), and the
    norm c of column 0 or row 0 is at most sigma_1. M is the least index
    with that bound <= eps * c, from scaled coefficients in O(K), with
    |lambda| raised by 4 eps to cover the rounding of each power. Dropping
    the tail moves each sigma_i by at most eps * sigma_1 (Weyl). For bands
    on -q..p the rest is zero outside its leading (M + p) x (M + q) block,
    cut from the truncation of side M + max(p, q) under the memory budget.
    """
    n = size
    grown = abs(spec.lam) * (1.0 + 4.0 * _EPS)
    if grown >= 1.0:
        return truncate(spec, n).entries
    scaled, _ = _unit_scaled(spec.symbol, n)
    analytic, coanalytic = scaled.analytic_part().l2_norm(), scaled.coanalytic_part().l2_norm()
    phi = math.hypot(analytic, coanalytic)
    if not math.isfinite(phi):
        raise ValueError(f"truncation N={n} has non-finite entries")
    m = 1  # enough for lambda = 0 and for the zero truncation
    if phi > 0.0 and grown > 0.0:
        c = max(analytic, math.hypot(abs(scaled.coefficient(0)), coanalytic))
        target = _EPS * (c / phi) * math.sqrt((1.0 - grown) * (1.0 + grown))
        # floor of the rounded logarithm, then settled on the powers themselves
        m = math.floor(math.log(target) / math.log(grown))
        while grown**m > target:
            m += 1
    bands = [d for d, _ in spec.symbol.items() if -n < d < n] + [0]
    p, q = max(bands), -min(bands)
    if m + max(p, q) >= n:
        return truncate(spec, n).entries
    try:
        core = truncate(spec, m + max(p, q)).entries[: m + p, : m + q]
    except MemoryBudgetExceeded as exc:
        raise MemoryBudgetExceeded(f"N={n}, SVD core: {exc}") from exc
    core[m:, m:] = 0.0
    return core


def frobenius_norm(spec: LambdaToeplitzSpec, size: int) -> float:
    """Frobenius norm of the N x N truncation, summed band by band in O(N)
    memory from scaled coefficients, independent of any SVD and closed form."""
    n = _checked_size(size)
    scaled, scale = _unit_scaled(spec.symbol, n)
    total = math.fsum(np.vdot(band, band).real for _, band in _bands(scaled, n, spec.lam))
    return math.sqrt(total) / scale


def svd_study(
    spec: LambdaToeplitzSpec, sizes, rank_tol: float = DEFAULT_RANK_TOL
) -> list[SpectralReport]:
    """One ``SpectralReport`` per size N, with ``frobenius_norm``: the
    singular values of ``_core``, then exact zeros up to N."""
    reports = []
    for size in sizes:
        n = _checked_size(size)
        core = _core(spec, n)
        sing = np.concatenate([_svdvals(core, n), np.zeros(n - min(core.shape))])
        reports.append(_report(sing, frobenius_norm(spec, n), spec.lam, rank_tol))
    return reports


def hs_norm_closed_form(spec: LambdaToeplitzSpec) -> float:
    """Hilbert-Schmidt norm l2_norm(phi)/sqrt(1-|lambda|^2) of the full operator.

    Summing |lambda|^{2 min(n,m)} |a_{n-m}|^2 along each diagonal band gives a
    geometric series with ratio |lambda|^2 per band, hence the closed form.
    """
    mod = abs(spec.lam)
    if mod >= 1.0:
        raise ValueError("Hilbert-Schmidt closed form requires |lambda| < 1")
    return spec.symbol.l2_norm() / math.sqrt(1.0 - mod * mod)


def norm_convergence_study(
    spec: LambdaToeplitzSpec, sizes
) -> list[tuple[int, float]]:
    """Operator norms of increasing truncations for |lambda| = 1.

    For bounded twisted symbols these converge upward to its sup norm; the
    bandlimited ramp with lambda = -1 keeps growing instead.
    """
    if not is_unimodular(spec.lam):
        raise ValueError("norm convergence study requires |lambda| = 1")
    return [(int(n), top_singular_value(spec, int(n))) for n in sizes]


def sawtooth_growth_study(sizes) -> list[tuple[int, float]]:
    """Truncation norms of the lambda = -1 operator of the bandlimited ramp.

    Each size N uses the ramp symbol with bandlimit K = N, so the truncation
    carries every band the ramp provides at that size. The norms grow like
    log N (the twisted symbol has logarithmic singularities at theta = 0 and
    theta = pi), so each doubling of N adds a little under ln 2.
    """
    out = []
    for n in sizes:
        n = int(n)
        spec = LambdaToeplitzSpec(-1.0 + 0j, sawtooth(n))
        out.append((n, top_singular_value(spec, n)))
    return out


def trace_norm_bound_check(
    report: SpectralReport, lam: complex, slack: float = TRACE_BOUND_SLACK
) -> VerificationResult:
    """trace_norm <= sigma_1 * (1 + 2/(1-|lambda|)) + slack, from the decay bound."""
    mod = abs(complex(lam))
    if mod >= 1.0:
        raise ValueError("trace-norm bound requires |lambda| < 1")
    majorant = report.operator_norm * (1.0 + 2.0 / (1.0 - mod))
    residual = report.trace_norm - majorant
    return VerificationResult(
        "trace-norm-bound", report.size, residual, slack, residual <= slack
    )


def wco_spectrum_check(
    w: WeightedCompositionSpec, size: int, tol: float = 1e-14
) -> VerificationResult:
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
    """
    n = _checked_size(size)
    # band 0 of W, the first band of an analytic weight if stored, else zeros
    first = next(_bands(w.weight, n, w.multiplier), (None, None))
    diag = first[1] if first[0] == 0 else np.zeros(n, dtype=complex)
    psi0 = w.weight.coefficient(0)
    predicted = powers(w.multiplier, n) * psi0
    magnitude = np.abs(predicted)
    normal = magnitude >= _TINY
    error = np.abs(diag - predicted)
    error[normal] /= magnitude[normal]
    residual = float(np.max(error))
    ok = residual <= tol
    mod = abs(w.multiplier)
    if psi0 != 0 and 0.0 < mod < 1.0:
        points = predicted[normal]
        ok = ok and len(set(points.tolist())) == points.size
    return VerificationResult("wco-spectrum", n, residual, tol, ok)


def finite_rank_study(
    spec: LambdaToeplitzSpec, sizes, rank_tol: float = DEFAULT_RANK_TOL
) -> list[tuple[int, int]]:
    """Numerical rank of each truncation size, from ``svd_study``."""
    return [(r.size, r.numerical_rank) for r in svd_study(spec, sizes, rank_tol)]
