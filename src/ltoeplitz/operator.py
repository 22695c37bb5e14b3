"""The lambda-Toeplitz operator: entry formula, truncations, matvec, recurrence.

The operator attached to a pair (lambda, phi) has matrix entries
``entry(n, m) = lambda^min(n,m) * a_{n-m}`` (with 0^0 = 1), equivalently it
is the unique solution of the shift recurrence
``entry(n+1, m+1) = lambda * entry(n, m)`` with first row a_{-m} and first
column a_n.
"""

from __future__ import annotations

import bisect
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
    "dense_size_limit",
    "truncate",
    "apply_naive",
    "apply_fast",
    "recurrence_residual",
    "solve_recurrence",
    "truncation_borders",
]

MEM_BUDGET_ENV = "LT_MEM_BUDGET_MB"
DEFAULT_MEM_BUDGET_MB = 1024.0
_BYTES_PER_ENTRY = 16  # complex128


class MemoryBudgetExceeded(ValueError):
    """A dense truncation would not fit the configured memory budget."""


def powers(base: complex, count: int) -> np.ndarray:
    """[1, base, base^2, ...] by cumulative products.

    Consecutive powers differ by exactly one multiplication, which keeps the
    shift recurrence satisfied at rounding level along every diagonal band.
    """
    out = np.empty(int(count), dtype=complex)
    if out.size == 0:
        return out
    out[0] = 1.0
    out[1:] = complex(base)
    return np.cumprod(out)


@dataclass(frozen=True)
class LambdaToeplitzSpec:
    """Parameter pair (lambda, symbol) with |lambda| <= 1."""

    lam: complex
    symbol: FourierSymbol

    def __post_init__(self):
        lam = complex(self.lam)
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


def _env_budget_mb() -> float:
    """The budget from ``LT_MEM_BUDGET_MB``, or the default when it is unset."""
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


def dense_size_limit(budget_mb: float | None = None) -> int:
    """Largest N whose dense N x N complex matrix fits the memory budget."""
    if budget_mb is None:
        budget_mb = _env_budget_mb()
    if budget_mb <= 0:
        return 0
    return int(math.floor(math.sqrt(budget_mb * 2**20 / _BYTES_PER_ENTRY)))


def truncate(
    spec: LambdaToeplitzSpec, size: int, budget_mb: float | None = None
) -> TruncatedOperator:
    """Dense N x N truncation; the leading principal block of every larger one."""
    n = int(size)
    if n < 1:
        raise ValueError("truncation size must be >= 1")
    limit = dense_size_limit(budget_mb)
    if n > limit:
        budget = budget_mb if budget_mb is not None else _env_budget_mb()
        needed = n * n * _BYTES_PER_ENTRY / 2**20
        raise MemoryBudgetExceeded(
            f"N={n} needs {needed:.1f} MB dense storage; "
            f"budget {budget:g} MB allows N <= {limit}"
        )
    pows = powers(spec.lam, n)
    out = np.zeros((n, n), dtype=complex)
    # One diagonal band per stored coefficient: offset d carries a_d * lambda^min.
    for d, a in spec.symbol.items():
        if d >= n or d <= -n:
            continue
        if d >= 0:
            rows = np.arange(d, n)
            out[rows, rows - d] = a * pows[: n - d]
        else:
            cols = np.arange(-d, n)
            out[cols + d, cols] = a * pows[: n + d]
    return TruncatedOperator(size=n, entries=out, provenance=f"truncate({spec.describe()}) N={n}")


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


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    full = a.size + b.size - 1
    size = _next_fast_len(full)
    return np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))[:full]


def apply_fast(spec: LambdaToeplitzSpec, x) -> np.ndarray:
    """Matvec against the N x N truncation without materializing it.

    Splits the operator into its lower-triangular weighted-composition part
    (convolve the analytic coefficients with the lambda-scaled input) and the
    adjoint of the coanalytic one (correlate, then lambda-scale the output).
    Cost O((N + K) log(N + K)) for symbol support width K.
    """
    vec = np.asarray(x, dtype=complex)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError("apply_fast needs a nonempty 1-D vector")
    n = vec.size
    pows = powers(spec.lam, n)
    out = np.zeros(n, dtype=complex)

    plus = spec.symbol.analytic_part()
    if not plus.is_zero:
        degree = max(plus.support)
        weights = np.zeros(degree + 1, dtype=complex)
        for k, v in plus.items():
            weights[k] = v
        out += _fft_convolve(weights, pows * vec)[:n]

    minus = spec.symbol.coanalytic_part()
    if not minus.is_zero:
        depth = -min(minus.support)
        # reversed coanalytic coefficients: slot depth + k holds a_k (k < 0)
        reflected = np.zeros(depth, dtype=complex)
        for k, v in minus.items():
            reflected[depth + k] = v
        shifted = np.zeros(n, dtype=complex)
        shifted[: n - 1] = _fft_convolve(reflected, vec)[depth:]
        out += pows * shifted

    return out


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
    n = int(size)
    row = np.array([spec.symbol.coefficient(-m) for m in range(n)], dtype=complex)
    col = np.array([spec.symbol.coefficient(k) for k in range(n)], dtype=complex)
    return row, col
