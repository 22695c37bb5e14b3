"""The lambda-Toeplitz operator: entry formula, truncations, matvec, recurrence.

The operator attached to a pair (lambda, phi) has matrix entries
``entry(n, m) = lambda^min(n,m) * a_{n-m}`` (with 0^0 = 1), equivalently it
is the unique solution of the shift recurrence
``entry(n+1, m+1) = lambda * entry(n, m)`` with first row a_{-m} and first
column a_n.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .symbol import UNIT_CIRCLE_TOL, FourierSymbol

__all__ = [
    "MEM_BUDGET_ENV",
    "DEFAULT_MEM_BUDGET_MB",
    "MemoryBudgetExceeded",
    "LambdaToeplitzSpec",
    "TruncatedOperator",
    "powers",
    "entry",
    "resolve_budget_mb",
    "dense_size_limit",
    "truncate",
    "apply_naive",
    "prepare",
    "apply_fast",
    "recurrence_residual",
    "solve_recurrence",
    "truncation_borders",
]

MEM_BUDGET_ENV = "LT_MEM_BUDGET_MB"
DEFAULT_MEM_BUDGET_MB = 1024.0
_BYTES_PER_ENTRY = 16  # complex128
_MAX_EXP = int(np.finfo(float).maxexp) - 1  # largest power of two below the float max
_TINY = float(np.finfo(float).tiny)  # smallest normal float


class MemoryBudgetExceeded(ValueError):
    """A dense truncation would not fit the configured memory budget."""


def powers(base: complex, count: int) -> np.ndarray:
    """[1, base, base^2, ...] by cumulative products, exact 0 from the first
    power of modulus below the smallest normal float (tiny) on.

    Consecutive powers differ by exactly one multiplication, which keeps the
    shift recurrence satisfied at rounding level along every diagonal band.
    Left alone, the products for |base| < 1 sink through the subnormals and
    settle on the smallest of them instead of 0. So the powers are U nonzero
    ones, U within 1 of log(tiny) / log|base| (all of them for |base| = 1),
    then exact zeros.
    """
    out = np.empty(int(count), dtype=complex)
    if out.size == 0:
        return out
    out[0] = 1.0
    out[1:] = complex(base)
    np.cumprod(out, out=out)
    below = np.abs(out) < _TINY
    if below.any():
        out[below.argmax() :] = 0.0
    return out


@dataclass(frozen=True)
class LambdaToeplitzSpec:
    """Parameter pair (lambda, symbol) with |lambda| <= 1."""

    lam: complex
    symbol: FourierSymbol

    def __post_init__(self):
        lam = complex(self.lam)
        if not cmath.isfinite(lam):
            raise ValueError(f"lambda = {lam!r} is not finite")
        if abs(lam) > 1.0 + UNIT_CIRCLE_TOL:
            raise ValueError(f"|lambda| = {abs(lam)} lies outside the closed unit disc")
        object.__setattr__(self, "lam", lam)

    def describe(self) -> str:
        return f"lambda={self.lam!r} support={list(self.symbol.support)}"


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Dense N x N upper-left corner of an operator matrix."""

    size: int
    entries: np.ndarray
    provenance: str = ""


def entry(spec: LambdaToeplitzSpec, n: int, m: int) -> complex:
    """Closed-form matrix entry lambda^min(n,m) * a_{n-m} (0^0 = 1)."""
    if n < 0 or m < 0:
        raise ValueError("matrix indices must be nonnegative")
    return (spec.lam ** min(n, m)) * spec.symbol.coefficient(n - m)


def resolve_budget_mb() -> float:
    """``LT_MEM_BUDGET_MB``, else the default."""
    raw = os.environ.get(MEM_BUDGET_ENV)
    if raw is None:
        return DEFAULT_MEM_BUDGET_MB
    try:
        budget = float(raw)
    except ValueError:
        budget = math.nan
    if not math.isfinite(budget):
        raise ValueError(f"{MEM_BUDGET_ENV}={raw!r} is not a finite number of megabytes")
    return budget


def dense_size_limit() -> int:
    """Largest N whose dense N x N complex matrix fits the memory budget."""
    budget_mb = resolve_budget_mb()
    if budget_mb <= 0:
        return 0
    return int(math.floor(math.sqrt(budget_mb * 2**20 / _BYTES_PER_ENTRY)))


def _checked_size(size: int) -> int:
    n = int(size)
    if n < 1:
        raise ValueError("truncation size must be >= 1")
    return n


def _bands(symbol: FourierSymbol, size: int, base: complex):
    """``(d, a_d * base^k for k < N - |d|)`` for each stored band |d| < N, ascending d.

    The bands of the N x N matrix with entry (i, j) = base^min(i, j) * a_{i-j}:
    band d holds the entries i - j = d, starting at (max(d, 0), max(-d, 0)),
    and min(i, j) = k at its k-th entry. Every entry off the stored bands is
    an exact zero, so a law between two such matrices can be checked band by
    band in O(N) memory.
    """
    n = int(size)
    pows = powers(base, n)
    for d, a in symbol.items():
        if -n < d < n:
            yield d, a * pows[: n - abs(d)]


def _unit_scale(top: float) -> float:
    """The power of two s with s * top near 1 (1.0 for 0 or inf): an exact
    scaling after which squares of values up to top stay in the float range."""
    return math.ldexp(1.0, min(-math.frexp(top)[1], _MAX_EXP)) if 0 < top < math.inf else 1.0


def _unit_scaled(symbol: FourierSymbol, size: int | None = None) -> tuple[FourierSymbol, float]:
    """``(s * symbol, s)``, s the ``_unit_scale`` of the largest |Re a_d|, |Im a_d|;
    with a size N, only the bands |d| < N."""
    n = math.inf if size is None else int(size)
    kept = [(d, a) for d, a in symbol.items() if -n < d < n]
    scale = _unit_scale(max((max(abs(a.real), abs(a.imag)) for _, a in kept), default=0.0))
    return FourierSymbol({d: a * scale for d, a in kept}), scale


def truncate(spec: LambdaToeplitzSpec, size: int) -> TruncatedOperator:
    """Dense N x N truncation; the leading principal block of every larger one.

    The one dense builder: the classical Toeplitz matrix is the truncation
    for lambda = 1, diag(lambda^n) that of (lambda, 1), and W(psi, c) that of
    (c, psi). Only the stored bands are written, so every other entry stays
    an exact 0j (a product 0j * p would turn into -0.0 wherever Re(p) < 0).
    """
    n = _checked_size(size)
    limit = dense_size_limit()
    if n > limit:
        budget = resolve_budget_mb()
        needed = n * n * _BYTES_PER_ENTRY / 2**20
        raise MemoryBudgetExceeded(
            f"N={n} needs {needed:.1f} MB dense storage; "
            f"budget {budget:g} MB allows N <= {limit}"
        )
    entries = np.zeros((n, n), dtype=complex)
    flat = entries.reshape(-1)
    # band d starts at flat index d*N (d >= 0) or -d (d < 0), stride N + 1
    for d, band in _bands(spec.symbol, n, spec.lam):
        flat[d * n if d >= 0 else -d :: n + 1][: band.size] = band
    return TruncatedOperator(n, entries, f"truncate({spec.describe()}) N={n}")


def apply_naive(op: TruncatedOperator, x) -> np.ndarray:
    """Reference dense matrix-vector product, O(N^2)."""
    vec = np.asarray(x, dtype=complex)
    if vec.shape != (op.size,):
        raise ValueError(f"vector shape {vec.shape} does not match truncation size {op.size}")
    return op.entries @ vec


@functools.lru_cache(maxsize=None)
def _smooth_numbers(bits: int) -> tuple[int, ...]:
    """Ascending integers up to 2**bits with no prime factor above 11."""
    limit = 1 << bits
    numbers = [1]
    for prime in (2, 3, 5, 7, 11):
        multiples = []
        for base in numbers:
            while base <= limit:
                multiples.append(base)
                base *= prime
        numbers = multiples
    return tuple(sorted(numbers))


def _next_fast_len(target: int) -> int:
    """Smallest 11-smooth integer >= target: a length numpy's FFT does quickly.

    Equals ``scipy.fft.next_fast_len(target)`` for complex transforms.
    """
    numbers = _smooth_numbers(max(int(target) - 1, 1).bit_length())
    return numbers[bisect.bisect_left(numbers, target)]


def _convolve(hat: np.ndarray, signal: np.ndarray, length: int) -> np.ndarray:
    """Cyclic convolution of length ``length`` with the signal whose FFT is hat.

    The product is taken in place with hat on the left: complex products
    round differently with the operands swapped.
    """
    spectrum = np.fft.fft(signal, length)
    return np.fft.ifft(np.multiply(hat, spectrum, out=spectrum))


def _prepared_matvec(pows: np.ndarray, index: np.ndarray, value: np.ndarray, n: int):
    """Matvec against the N x N truncation with bands a_index = value, |index| < N,
    and lambda powers ``pows``, whose rows and columns from side = pows.size
    on are zero.

    Only the leading side x side block, the truncation at that size, is
    applied; the rest of the output is 0. The lower-triangular part convolves
    the analytic coefficients with the lambda-scaled input; the strict upper
    part correlates the coanalytic ones with the input and lambda-scales the
    output. The FFTs of both coefficient halves are taken here, once.
    """
    side = pows.size
    plus, minus = index >= 0, index < 0
    plus_hat = minus_hat = None
    if plus.any():
        degree = int(index[plus].max())
        weights = np.zeros(degree + 1, dtype=complex)
        weights[index[plus]] = value[plus]
        plus_len = _next_fast_len(degree + side)
        plus_hat = np.fft.fft(weights, plus_len)
    if minus.any():
        depth = -int(index[minus].min())
        # reversed coanalytic coefficients: slot depth + d holds a_d (d < 0)
        reflected = np.zeros(depth, dtype=complex)
        reflected[depth + index[minus]] = value[minus]
        minus_len = _next_fast_len(depth + side - 1)
        minus_hat = np.fft.fft(reflected, minus_len)

    def matvec(x) -> np.ndarray:
        vec = np.asarray(x, dtype=complex)
        if vec.shape != (n,):
            raise ValueError(f"vector shape {vec.shape} does not match truncation size {n}")
        vec = vec[:side]
        out = np.zeros(n, dtype=complex)
        block = out[:side]
        if plus_hat is not None:
            block += _convolve(plus_hat, pows * vec, plus_len)[:side]
        if minus_hat is not None:
            shifted = np.zeros(side, dtype=complex)
            shifted[: side - 1] = _convolve(minus_hat, vec, minus_len)[depth : depth + side - 1]
            block += pows * shifted
        return out

    return matvec


def prepare(spec: LambdaToeplitzSpec, size: int):
    """``(matvec, rmatvec)`` against the N x N truncation and its adjoint.

    Only the bands |d| < N reach the truncation; let K be their largest |d|.
    With U nonzero ``powers`` of lambda, every entry with min(n, m) >= U is
    an exact 0, so rows and columns from S = min(N, U + K) on are zero and
    only the leading S x S block is applied (S = N for |lambda| = 1). The
    lambda powers and the FFTs of both coefficient halves are taken once, so
    each product costs four FFTs of length about S + K. The adjoint of the
    operator for (lambda, phi) is the operator for (conj lambda, phi*), where
    phi* = ``symbol.conjugate()`` has coefficients conj(a_{-d}); its FFTs are
    taken at the first ``rmatvec`` call, so ``apply_fast`` does not pay for
    them.
    """
    n = _checked_size(size)
    bands = [(d, a) for d, a in spec.symbol.items() if -n < d < n]
    index = np.array([d for d, _ in bands], dtype=np.intp)
    value = np.array([a for _, a in bands], dtype=complex)
    pows = powers(spec.lam, n)
    pows = pows[: min(n, np.count_nonzero(pows) + int(np.abs(index).max(initial=0)))]
    adjoint = []

    def rmatvec(y) -> np.ndarray:
        if not adjoint:
            # conj(lambda)^k is conj(lambda^k) bit for bit
            adjoint.append(_prepared_matvec(pows.conj(), -index, value.conj(), n))
        return adjoint[0](y)

    return _prepared_matvec(pows, index, value, n), rmatvec


def apply_fast(spec: LambdaToeplitzSpec, x) -> np.ndarray:
    """Matvec against the N x N truncation without materializing it.

    One call to ``prepare``; cost O(N + (S + K) log(S + K)) with S and K
    as there.
    """
    vec = np.asarray(x, dtype=complex)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError("apply_fast needs a nonempty 1-D vector")
    matvec, _ = prepare(spec, vec.size)
    return matvec(vec)


def recurrence_residual(op: TruncatedOperator, lam: complex) -> float:
    """max |entries(n+1, m+1) - lambda * entries(n, m)| over the truncation."""
    if op.size < 2:
        raise ValueError("recurrence residual needs N >= 2")
    e = op.entries
    return float(np.max(np.abs(e[1:, 1:] - complex(lam) * e[:-1, :-1])))


def solve_recurrence(lam: complex, forcing, first_row, first_col) -> np.ndarray:
    """Unique N x N solution A of the shifted recurrence
    A(n+1, m+1) = lambda * A(n, m) + B(n, m) with prescribed first row/column."""
    row = np.asarray(first_row, dtype=complex).ravel()
    col = np.asarray(first_col, dtype=complex).ravel()
    b = np.asarray(forcing, dtype=complex)
    n = row.size
    if n == 0:
        raise ValueError("borders must be nonempty")
    if col.size != n:
        raise ValueError(f"first_row has length {n} but first_col has length {col.size}")
    if b.shape != (n, n):
        raise ValueError(f"forcing must be {n}x{n}, got {b.shape}")
    if row[0] != col[0]:
        raise ValueError(
            f"corner mismatch: first_row[0]={row[0]!r} != first_col[0]={col[0]!r}"
        )
    lam = complex(lam)
    out = np.empty((n, n), dtype=complex)
    out[0, :] = row
    out[:, 0] = col
    for i in range(n - 1):
        out[i + 1, 1:] = lam * out[i, :-1] + b[i, :-1]
    return out


def truncation_borders(spec: LambdaToeplitzSpec, size: int) -> tuple[np.ndarray, np.ndarray]:
    """First row (a_{-m}) and first column (a_n) of the N x N truncation."""
    n = _checked_size(size)
    row = np.array([spec.symbol.coefficient(-m) for m in range(n)], dtype=complex)
    col = np.array([spec.symbol.coefficient(k) for k in range(n)], dtype=complex)
    return row, col
