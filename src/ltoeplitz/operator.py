"""The lambda-Toeplitz operator: entry formula, truncations, matvec, recurrence.

The operator attached to a pair (lambda, phi) has matrix entries
``entry(n, m) = lambda^min(n,m) * a_{n-m}`` (with 0^0 = 1), equivalently it
is the unique solution of the shift recurrence
``entry(n+1, m+1) = lambda * entry(n, m)`` with first row a_{-m} and first
column a_n.
"""

from __future__ import annotations

import cmath
import math
import os

import numpy as np

from .symbol import UNIT_CIRCLE_TOL, FourierSymbol, _unit_scaled_values, is_unimodular

__all__ = [
    "MEM_BUDGET_ENV",
    "DEFAULT_MEM_BUDGET_MB",
    "MemoryBudgetExceeded",
    "LambdaToeplitzSpec",
    "TruncatedOperator",
    "powers",
    "entry",
    "resolve_budget_mb",
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
_TINY = float(np.finfo(float).tiny)  # smallest normal float


class MemoryBudgetExceeded(ValueError):
    """An allocation would not fit the configured memory budget."""


def _cumulate(run: np.ndarray, base: complex) -> bool:
    """run[k] = run[0] * base^k in place by cumulative products, exact 0 from
    the first of modulus below tiny on; True if there is such a product."""
    run[1:] = base
    np.cumprod(run, out=run)
    below = np.abs(run) < _TINY
    if below.any():
        run[below.argmax() :] = 0.0
        return True
    return False


def powers(base: complex, count: int) -> np.ndarray:
    """[1, base, base^2, ...] by cumulative products, exact 0 from the first
    power of modulus below the smallest normal float (tiny) on.

    Consecutive powers differ by exactly one multiplication, which keeps the
    shift recurrence satisfied at rounding level along every diagonal band.
    Left alone, the products for |base| < 1 sink through the subnormals and
    settle on the smallest of them instead of 0. So the powers are U nonzero
    ones, U within 1 of log(tiny) / log|base| (all of them for |base| >= 1),
    then exact zeros. The products stop a step past that estimate, and go on
    only if rounding kept every one of them above tiny.
    """
    out = np.zeros(int(count), dtype=complex)
    if out.size == 0:
        return out
    base = complex(base)
    modulus = abs(base)
    if modulus >= 1.0:
        stop = out.size
    elif modulus == 0.0:
        stop = 2
    else:
        stop = int(math.log(_TINY) / math.log(modulus)) + 2
    out[0] = 1.0
    head = out[:stop]
    if not _cumulate(head, base) and head.size < out.size:
        _cumulate(out[head.size - 1 :], base)
    return out


def _disc_point(name: str, value: complex) -> complex:
    """``complex(value)``, refused unless finite and in the closed unit disc."""
    z = complex(value)
    if not cmath.isfinite(z):
        raise ValueError(f"{name} = {z!r} is not finite")
    if abs(z) > 1.0 + UNIT_CIRCLE_TOL:
        raise ValueError(f"|{name}| = {abs(z)} lies outside the closed unit disc")
    return z


class _Record:
    """An immutable record: the fields are the class's ``__slots__``, set once
    by ``__init__`` in that order, compared and hashed by value, and named in
    ``repr``. Assigning or deleting an attribute raises ``AttributeError``.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()


class LambdaToeplitzSpec(_Record):
    """Parameter pair (lambda, symbol) with |lambda| <= 1."""

    __slots__ = ("lam", "symbol")

    def __init__(self, lam: complex, symbol: FourierSymbol):
        super().__init__(_disc_point("lambda", lam), symbol)

    def describe(self) -> str:
        return f"lambda={self.lam!r} support={list(self.symbol.support)}"


class TruncatedOperator(_Record):
    """Dense N x N upper-left corner of an operator matrix; equal only to itself."""

    __slots__ = ("size", "entries", "provenance")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, size: int, entries: np.ndarray, provenance: str = ""):
        super().__init__(size, entries, provenance)


def entry(spec: LambdaToeplitzSpec, n: int, m: int) -> complex:
    """Closed-form matrix entry lambda^min(n,m) * a_{n-m} (0^0 = 1).

    A power of modulus below the smallest normal float counts as 0, as in
    ``powers`` and ``truncate``.
    """
    if n < 0 or m < 0:
        raise ValueError("matrix indices must be nonnegative")
    power = spec.lam ** min(n, m)
    if abs(power) < _TINY:
        power = 0j
    return power * spec.symbol.coefficient(n - m)


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


def _charge(nbytes: int, what: str) -> int:
    """``nbytes``, unless ``what``, which holds that many bytes at once, is
    past ``LT_MEM_BUDGET_MB``: the one check against the budget. Each caller
    charges before it allocates."""
    budget = resolve_budget_mb()
    if nbytes > budget * 2**20:
        raise MemoryBudgetExceeded(
            f"{what} needs {nbytes / 2**20:.3g} MB; budget {budget:g} MB ({MEM_BUDGET_ENV})"
        )
    return nbytes


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


def _unit_scaled(symbol: FourierSymbol, size: int | None = None) -> tuple[FourierSymbol, int]:
    """``(2^e * symbol, e)``, e the ``_unit_exponent`` of the largest |Re a_d|,
    |Im a_d|; with a size N, only the bands |d| < N, looked up one index at a
    time where those 2N - 1 indices are fewer than the stored ones. The
    scaled values come from a checked symbol, so they are stored unchecked."""
    kept = symbol._coeffs
    if size is not None:
        n = int(size)
        kept = ({d: kept[d] for d in range(1 - n, n) if d in kept} if 2 * n - 1 < len(kept)
                else {d: a for d, a in kept.items() if -n < d < n})
    scaled, e = _unit_scaled_values(kept.values(), len(kept))
    return FourierSymbol._of_checked(dict(zip(kept, scaled.tolist()))), e


def _unscaled(x: float, e: int) -> float:
    """x * 2^-e, the inverse of a ``_unit_scaled`` exponent e: exact for
    every normal result, +-inf past the float range (where ``math.ldexp``
    raises OverflowError), so that writers refuse it as non-finite."""
    try:
        return math.ldexp(x, -e)
    except OverflowError:
        return math.copysign(math.inf, x)


def truncate(spec: LambdaToeplitzSpec, size: int) -> TruncatedOperator:
    """Dense N x N truncation; the leading principal block of every larger one.

    The one dense builder: the classical Toeplitz matrix is the truncation
    for lambda = 1, diag(lambda^n) that of (lambda, 1), and W(psi, c) that of
    (c, psi). Only the stored bands are written, so every other entry stays
    an exact 0j (a product 0j * p would turn into -0.0 wherever Re(p) < 0).
    """
    n = _checked_size(size)
    _charge(16 * n * n, f"N={n} dense truncation")
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


def _next_fast_len(target: int) -> int:
    """Smallest 11-smooth integer >= target: a length numpy's FFT does quickly.

    Equals ``scipy.fft.next_fast_len(target)`` for complex transforms.
    """
    n = max(int(target), 1)
    while True:
        rest = n
        for prime in (2, 3, 5, 7, 11):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return n
        n += 1


def _convolve(hat: np.ndarray, signal: np.ndarray, length: int) -> np.ndarray:
    """Cyclic convolution of length ``length`` with the signal whose FFT is hat.

    The product is taken in place with hat on the left: complex products
    round differently with the operands swapped.
    """
    spectrum = np.fft.fft(signal, length)
    return np.fft.ifft(np.multiply(hat, spectrum, out=spectrum))


def _checked_vector(x, n: int) -> np.ndarray:
    vec = np.asarray(x, dtype=complex)
    if vec.shape != (n,):
        raise ValueError(f"vector shape {vec.shape} does not match truncation size {n}")
    return vec


def _kernel_hat(index: np.ndarray, value: np.ndarray, length: int) -> np.ndarray:
    """FFT of the cyclic layout of the bands a_index = value: a_d in slot
    d mod ``length``, the one layout of every product."""
    kernel = np.zeros(length, dtype=complex)
    kernel[index] = value  # a negative d lands in slot L + d
    return np.fft.fft(kernel)


def _product(terms: list, scale: np.ndarray, length: int, n: int):
    """x -> the sum over ``terms`` (hat, scaled_input) of a * (scale x) if
    scaled_input, else of scale (a * x), a * the cyclic convolution of length
    L with the kernel whose FFT is hat, on the leading block of side
    scale.size; 0 past it."""
    side = scale.size

    def term(vec, hat, scaled_input):
        if scaled_input:
            return _convolve(hat, scale * vec, length)[:side]
        return scale * _convolve(hat, vec, length)[:side]

    # where S = N the first term is the output: no zeros to add it to
    first, rest = (terms[0], terms[1:]) if side == n and terms else (None, terms)

    def product(x) -> np.ndarray:
        vec = _checked_vector(x, n)[:side]
        out = np.zeros(n, dtype=complex) if first is None else term(vec, *first)
        for each in rest:
            out[:side] += term(vec, *each)
        return out

    return product


def prepare(spec: LambdaToeplitzSpec, size: int, charge=None):
    """``(matvec, rmatvec)`` against the N x N truncation and its adjoint.

    Only the bands |d| < N reach the truncation; let K be their largest |d|.
    With U nonzero ``powers`` of lambda, every entry with min(n, m) >= U is
    an exact 0, so only the leading S x S block, S = min(N, U + K), is
    applied: a sum of terms after (a * (before x)), with D = diag(lambda^n),
    n < S, and a * the cyclic convolution of length L >= S + K (no sum over
    the block wraps) with a kernel laid out by ``_kernel_hat``. Within
    ``UNIT_CIRCLE_TOL`` of the unit circle there is one term, (psi, -, D):
    T_N = D Toeplitz_N(psi) with psi_d = lambda^-d a_d for d >= 0 and
    psi_d = a_d for d < 0, since lambda^min(n, m) = lambda^n lambda^-(n - m)
    wherever n >= m (D is applied, not assumed unitary). Elsewhere the lower
    triangle is (a_+, D, -), the analytic coefficients convolved with the
    lambda-scaled input, and the strict upper one (a_-, -, D). The adjoint
    of a term is (conj(a_-d), after*, before*), and conj(a_-d) laid out
    cyclically has the FFT conj(hat): ``rmatvec`` takes the same terms with
    the conjugate FFTs and scalings swapped. The kernel FFTs are taken here,
    once, so a product costs two FFTs of length L per term.

    ``charge``, if given, is called with the bytes the products hold at
    once, the last product they returned included, before any array of
    length N is allocated.
    """
    n = _checked_size(size)
    bands = [(d, a) for d, a in spec.symbol.items() if -n < d < n]
    index = np.array([d for d, _ in bands], dtype=np.intp)
    value = np.array([a for _, a in bands], dtype=complex)
    k = int(np.abs(index).max(initial=0))
    plus = index >= 0
    if is_unimodular(spec.lam):
        value[plus] *= powers(1 / spec.lam, k + 1)[index[plus]]
        groups = [(index, value, False)]
    else:
        groups = [(index[plus], value[plus], True), (index[~plus], value[~plus], False)]
    groups = [group for group in groups if group[0].size]
    if charge is not None:
        # t terms, L <= next_fast_len(N + K), S <= N: each kernel FFT and its
        # conjugate, two transforms in flight, 2t + 2 of length L; D, conj(D),
        # the last product returned, A x, a scaled input and for t = 2 the
        # sum being formed, 4 + t of length N, one a view into one of L.
        t = len(groups)
        charge(16 * ((3 + t) * n + (3 + 2 * t) * _next_fast_len(n + k)))
    pows = powers(spec.lam, n)
    side = n if pows[-1] else min(n, np.count_nonzero(pows) + k)  # zeros are a suffix
    length = _next_fast_len(side + k)
    terms = [(_kernel_hat(d, a, length), scaled_input) for d, a, scaled_input in groups]
    pows = pows[:side]
    conjugate_terms = [(hat.conj(), not scaled_input) for hat, scaled_input in terms]
    return _product(terms, pows, length, n), _product(conjugate_terms, pows.conj(), length, n)


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
    _charge(16 * n * n, f"N={n} recurrence solution")
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
