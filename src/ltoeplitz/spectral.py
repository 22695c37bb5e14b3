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
  forming T_N: Lanczos on T_N* T_N through the FFT products of
  ``operator.prepare``: T_N x and T_N* y are each one cyclic convolution
  on the circle or for a one-sided symbol, two for a two-sided one inside
  the disc, the adjoint with the conjugate kernel FFTs, so a step takes 4
  or 8 FFTs. It keeps three vectors and no basis, and stops once the
  residual estimate of the top Ritz pair is at most 1e-13 times the Ritz
  value (certified without reorthogonalization, Paige 1980). What one step
  holds and the k x k Ritz problem, not an N x N matrix, are charged
  against the memory budget, so these studies run past the dense limit.
  ``svd_study`` and ``finite_rank_study`` need every singular value and
  take the SVD of ``_core``: the core where it is smaller than T_N, T_N
  itself otherwise.
  ``analyze``, the tests' oracle, always takes the plain dense SVD.
* rank: lambda = 0 forces rank <= 2; one-sided symbols give exact
  corank-n_0 triangular structure; generic two-sided symbols with
  0 < |lambda| < 1 have numerical rank growing without bound.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING

import numpy as np

from .operator import (
    LambdaToeplitzSpec,
    MemoryBudgetExceeded,
    TruncatedOperator,
    _Record,
    _TINY,
    _bands,
    _charge,
    _checked_size,
    _unit_scaled,
    _unscaled,
    powers,
    prepare,
    truncate,
)
from .symbol import _unit_exponent, is_unimodular, sawtooth

if TYPE_CHECKING:
    # names in annotations only; the two checks that make a VerificationResult
    # import it, so norms, rank and svd_study never load factorization
    from .factorization import VerificationResult, WeightedCompositionSpec

__all__ = [
    "DEFAULT_RANK_TOL",
    "TRACE_BOUND_SLACK",
    "KRYLOV_RTOL",
    "SpectralDecompositionError",
    "SpectralReport",
    "analyze",
    "svd_study",
    "frobenius_norm",
    "top_singular_value",
    "hs_norm_closed_form",
    "wco_hs_norm_closed_form",
    "norm_convergence_study",
    "sawtooth_growth_study",
    "trace_norm_bound_check",
    "wco_spectrum_check",
    "finite_rank_study",
]

DEFAULT_RANK_TOL = 1e-8
TRACE_BOUND_SLACK = 1e-9
_SPECTRUM_TOL = 1e-14  # relative error of each eigenvalue
# Lanczos stops once the top Ritz pair's residual is this small relative to
# the Ritz value.
KRYLOV_RTOL = 1e-13
_KRYLOV_SEED = 11
# Lanczos gives up after this many steps per unit of N. Without
# reorthogonalization a clustered top can need more than N: the most seen
# was 1.79 N, over 6000 random two- and three-band symbols at |lambda| = 1
# with N <= 40.
_STEPS_PER_N = 4
# The tridiagonal is decomposed first at step 1, then each next time
# at step ceil(growth * k): tops that nearly cluster need hundreds of steps,
# and a decomposition at every one would cost more than the steps themselves.
_CHECK_GROWTH = 1.15
# Bytes a Lanczos step holds besides its arrays and the symbol: about 1.5 KB
# per FFT call and the loop's own objects.
_STEP_OVERHEAD = 2**14
_EPS = float(np.finfo(float).eps)


class SpectralDecompositionError(RuntimeError):
    """SVD failure, carrying the truncation size for diagnostics."""

    def __init__(self, size: int, message: str):
        super().__init__(message)
        self.size = size


class SpectralReport(_Record):
    """Singular-value summary of one truncation; equal only to itself.

    decay_margins[m] = |lambda|^m * sigma_1 - sigma_{2m+1}; a negative margin
    beyond rounding would certify a violation of the decay bound.
    """

    __slots__ = ("size", "singular_values", "operator_norm", "frobenius_norm",
                 "trace_norm", "numerical_rank", "decay_margins")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, size: int, singular_values: np.ndarray, operator_norm: float,
                 frobenius_norm: float, trace_norm: float, numerical_rank: int,
                 decay_margins: np.ndarray):
        super().__init__(size, singular_values, operator_norm, frobenius_norm, trace_norm,
                         numerical_rank, decay_margins)

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


def _top_ritz(alphas: list, betas: list, held: int, size: int) -> tuple[float, float]:
    """The top eigenvalue theta of the k x k Lanczos tridiagonal and |y_k|,
    the last entry of its unit eigenvector.

    Only the diagonal and the subdiagonal are written: ``eigh`` reads the
    lower triangle. It holds the tridiagonal, the copy LAPACK turns into the
    eigenvectors, the eigenvectors it returns and the work arrays of
    ``dsyevd``: 40 k^2 bytes, as one ``eigh`` adds to a fresh process's
    ``ru_maxrss`` at k = 1400 and 2818, and up to 45 k^2 after earlier checks
    whose freed arrays the allocator keeps. 48 k^2 + 160 k bytes, the O(k)
    arrays and lists included, are charged first, beside the ``held`` bytes
    of a Lanczos step at N = ``size``.
    """
    k = len(alphas)
    _charge(held + 16 * k * (3 * k + 10), f"N={size}: the Ritz problem at step k={k} "
            "with one Lanczos step")
    tri = np.zeros((k, k))
    tri.flat[:: k + 1] = alphas
    tri.flat[k :: k + 1] = betas[: k - 1]
    vals, vecs = np.linalg.eigh(tri)
    return float(vals[-1]), abs(float(vecs[-1, -1]))


def _start_bytes(count: int, chunk: int = 2**24) -> bytearray:
    """``random.Random(_KRYLOV_SEED).randbytes(count)`` (numpy.random would add its
    own import to every run), drawn ``chunk`` bytes at a time as ``getrandbits``
    takes a C int of bits. The generator makes 32-bit words, so chunks of a
    multiple of 4 bytes join into the same stream."""
    rng, out = random.Random(_KRYLOV_SEED), bytearray()
    for start in range(0, count, chunk):
        out += rng.randbytes(min(chunk, count - start))
    return out


def top_singular_value(spec: LambdaToeplitzSpec, size: int) -> float:
    """sigma_1 of the N x N truncation, matrix-free, to a certified residual.

    Lanczos (Lanczos 1950) on A*A, from a fixed-seed start vector, where A is
    the truncation of the ``_unit_scaled`` symbol: every band entry has
    modulus at most sqrt(2), so no product, norm or Ritz value overflows and
    no small symbol squares to zero; sigma is scaled back at the end, inf
    past the float range. Each step takes w = A*A v - alpha v - beta v_prev
    from the FFT products of ``prepare`` and keeps only v, v_prev and w, with
    alpha and beta for the k x k tridiagonal T_k; there is no basis and no
    reorthogonalization. For the top eigenpair (theta, y) of T_k, the Ritz
    vector has residual beta_k |y_k| against A*A. Without orthogonality that
    still certifies theta: a Ritz value whose residual estimate is small lies
    within that estimate, plus rounding of order eps ||A*A||, of an
    eigenvalue of A*A (Paige, Lin. Alg. Appl. 34, 1980; Parlett, The
    Symmetric Eigenvalue Problem, 1998, ch. 13). The iteration stops once
    beta_k |y_k| <= ``KRYLOV_RTOL * theta``, so sqrt(theta) lies within
    ``KRYLOV_RTOL * sqrt(theta)`` of a singular value of A. beta_k = 0 means
    the Krylov space is invariant and theta exact; a zero truncation stops
    there at step 1 and gives 0.0.

    Lost orthogonality repeats converged Ritz values, so a clustered top may
    need more than N steps: 4N steps (``_STEPS_PER_N``) without the
    certificate raise ``SpectralDecompositionError``. What one step holds is
    charged against ``LT_MEM_BUDGET_MB`` before any vector is allocated, and
    at each check the k x k Ritz problem beside it; either past the budget
    raises ``MemoryBudgetExceeded``.
    """
    n = _checked_size(size)
    scaled, e = _unit_scaled(spec.symbol, n)
    # Besides the products of ``prepare`` and w, the last of them, a step
    # holds v and v_prev; each stored coefficient at most 256 bytes: the
    # sorted (d, a) pair ``_unit_scaled`` reads it into and, for |d| < N, its
    # entry in the scaled symbol and in the band arrays of ``prepare``; and
    # the FFT calls and the loop a few KB (``_STEP_OVERHEAD``).
    own = 16 * 2 * n + 256 * len(spec.symbol.support) + _STEP_OVERHEAD
    held = []
    matvec, rmatvec = prepare(
        LambdaToeplitzSpec(spec.lam, scaled), n,
        charge=lambda products: held.append(_charge(own + products, f"N={n}: one Lanczos step")),
    )
    v = (np.frombuffer(_start_bytes(16 * n), dtype=np.uint64) / 2.0**64 - 0.5).view(complex)
    v /= np.linalg.norm(v)
    v_prev = np.zeros(n, dtype=complex)
    alphas: list[float] = []
    betas: list[float] = []
    beta = 0.0
    cap = _STEPS_PER_N * n
    check = 1
    for k in range(1, cap + 1):
        w = rmatvec(matvec(v))
        w -= beta * v_prev
        alpha = float(np.vdot(v, w).real)
        w -= alpha * v
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        if k >= check or beta == 0.0 or k == cap:
            theta, last = _top_ritz(alphas, betas, held[0], n)
            if beta * last <= KRYLOV_RTOL * theta or beta == 0.0:
                return _unscaled(math.sqrt(max(theta, 0.0)), e)
            check = math.ceil(_CHECK_GROWTH * k)
        v_prev, v = v, w / beta
    raise SpectralDecompositionError(
        n, f"Lanczos left sigma_1 uncertified after {cap} steps ({_STEPS_PER_N}N, N={n})"
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

    The singular values are the dense SVD of every entry. The Frobenius norm
    is ``np.linalg.norm`` of the entries scaled by 2^e, e the
    ``_unit_exponent`` of sigma_1, which bounds every |entry|, applied as
    two factors: for a subnormal sigma_1, 2^e lies past the float range.
    """
    sing = _svdvals(op.entries, op.size)
    e = _unit_exponent(float(sing[0]))
    scaled = op.entries * math.ldexp(1.0, e // 2)
    scaled *= math.ldexp(1.0, e - e // 2)
    return _report(sing, _unscaled(float(np.linalg.norm(scaled)), e), lam, rank_tol)


def _core(spec: LambdaToeplitzSpec, size: int) -> np.ndarray:
    """The SVD core of the N x N truncation: T_N itself when |lambda| = 1 or
    the core is not smaller.

    T[M:, M:] is lambda^M T_{N-M}, of Frobenius norm at most
    |lambda|^M l2_norm(phi) / sqrt(1 - |lambda|^2) (bands |d| < N), and the
    norm c of column 0 or row 0 is at most sigma_1. M is the least index
    with that bound <= eps * c, from coefficients scaled to at most 1 in
    O(K), whose norm (at most sqrt(2K)) is always finite, with
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
        exc.args = (f"N={n}, SVD core: {exc}",)
        raise
    core[m:, m:] = 0.0
    return core


def frobenius_norm(spec: LambdaToeplitzSpec, size: int) -> float:
    """Frobenius norm of the N x N truncation, summed band by band in O(N)
    memory from scaled coefficients, independent of any SVD and closed form."""
    n = _checked_size(size)
    scaled, e = _unit_scaled(spec.symbol, n)
    total = math.fsum(np.vdot(band, band).real for _, band in _bands(scaled, n, spec.lam))
    return _unscaled(math.sqrt(total), e)


def svd_study(
    spec: LambdaToeplitzSpec, sizes, rank_tol: float = DEFAULT_RANK_TOL
) -> list[SpectralReport]:
    """One ``SpectralReport`` per size N, with ``frobenius_norm``: the
    singular values of ``_core``, then exact zeros up to N.

    T_N's leading block does not depend on N, so successive sizes often share
    their core; a core equal to the previous one reuses its singular values.
    """
    reports, core, core_sing = [], None, None
    for size in sizes:
        n = _checked_size(size)
        previous, core = core, _core(spec, n)
        if previous is None or not np.array_equal(previous, core):
            core_sing = _svdvals(core, n)
        sing = np.concatenate([core_sing, np.zeros(n - min(core.shape))])
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


def wco_hs_norm_closed_form(w: WeightedCompositionSpec) -> float:
    """Hilbert-Schmidt norm of W(psi, c), the operator of (c, psi):
    l2_norm(weight) / sqrt(1 - |multiplier|^2)."""
    return hs_norm_closed_form(LambdaToeplitzSpec(w.multiplier, w.weight))


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
    """trace_norm <= sigma_1 * (1 + 2/(1-|lambda|)) + slack * sigma_1, from
    the decay bound; the tolerance scales with sigma_1, so the verdict does
    not depend on the scale of the symbol."""
    from .factorization import VerificationResult

    mod = abs(complex(lam))
    if mod >= 1.0:
        raise ValueError("trace-norm bound requires |lambda| < 1")
    majorant = report.operator_norm * (1.0 + 2.0 / (1.0 - mod))
    residual = report.trace_norm - majorant
    tolerance = slack * report.operator_norm
    return VerificationResult(
        "trace-norm-bound", report.size, residual, tolerance, residual <= tolerance
    )


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
    """
    from .factorization import VerificationResult

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
    ok = residual <= _SPECTRUM_TOL
    mod = abs(w.multiplier)
    if psi0 != 0 and 0.0 < mod < 1.0:
        points = predicted[normal]
        ok = ok and len(set(points.tolist())) == points.size
    return VerificationResult("wco-spectrum", n, residual, _SPECTRUM_TOL, ok)


def finite_rank_study(
    spec: LambdaToeplitzSpec, sizes, rank_tol: float = DEFAULT_RANK_TOL
) -> list[tuple[int, int]]:
    """Numerical rank of each truncation size, from ``svd_study``."""
    return [(r.size, r.numerical_rank) for r in svd_study(spec, sizes, rank_tol)]
