"""Fourier symbols as finitely supported coefficient sequences.

A symbol phi ~ sum_n a_n e^{i n theta} is stored sparsely as a map from
integer frequency to complex coefficient; every index not stored is zero.
Symbols are immutable after construction, so they can be shared freely
between threads and operator specs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, Tuple

import numpy as np

from .output import dumps_json

__all__ = [
    "UNIT_CIRCLE_TOL",
    "FourierSymbol",
    "is_unimodular",
    "sawtooth",
    "read_symbol_file",
    "write_symbol_file",
]

UNIT_CIRCLE_TOL = 1e-12


def is_unimodular(value: complex, tol: float = UNIT_CIRCLE_TOL) -> bool:
    """True when ``|value| == 1`` up to floating-point slack."""
    return abs(abs(complex(value)) - 1.0) <= tol


class FourierSymbol:
    """Finitely supported coefficient sequence ``{n: a_n}``.

    Zero-valued coefficients are dropped from storage; ``coefficient``
    returns 0 for every index off the stored support.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Mapping[int, complex] | None = None):
        coeffs: dict[int, complex] = {}
        if coefficients:
            for index, value in coefficients.items():
                value = complex(value)
                if value != 0:
                    coeffs[int(index)] = value
        self._coeffs = coeffs

    @classmethod
    def from_coefficients(cls, entries: Iterable[Tuple[int, complex]]) -> "FourierSymbol":
        """Build a symbol from ``(index, value)`` pairs with distinct indices."""
        coeffs: dict[int, complex] = {}
        seen: set[int] = set()
        for index, value in entries:
            index = int(index)
            if index in seen:
                raise ValueError(f"duplicate coefficient index {index}")
            seen.add(index)
            coeffs[index] = complex(value)
        return cls(coeffs)

    @classmethod
    def from_samples(cls, samples: Sequence[complex], bandlimit: int) -> "FourierSymbol":
        """Discrete Fourier analysis of boundary samples at theta_k = 2 pi k / M.

        Recovers a_n = (1/M) sum_k samples_k e^{-i n theta_k} for |n| <= bandlimit,
        which is exact for trigonometric polynomials of degree <= bandlimit once
        M >= 2*bandlimit + 1.
        """
        values = np.asarray(list(samples), dtype=complex).ravel()
        m = values.size
        k = int(bandlimit)
        if k < 0:
            raise ValueError("bandlimit must be nonnegative")
        if m < 2 * k + 1:
            raise ValueError(
                f"{m} samples alias bandlimit {k}: need at least {2 * k + 1} points"
            )
        spectrum = np.fft.fft(values) / m
        return cls({n: spectrum[n % m] for n in range(-k, k + 1)})

    # -- accessors ---------------------------------------------------------

    def coefficient(self, index: int) -> complex:
        return self._coeffs.get(int(index), 0j)

    def items(self) -> Iterator[Tuple[int, complex]]:
        """Stored (index, value) pairs, ascending index."""
        return iter(sorted(self._coeffs.items()))

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def max_abs_index(self) -> int:
        return max((abs(n) for n in self._coeffs), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FourierSymbol):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(sorted(self._coeffs.items())))

    def __add__(self, other: "FourierSymbol") -> "FourierSymbol":
        merged = dict(self._coeffs)
        for index, value in other._coeffs.items():
            merged[index] = merged.get(index, 0j) + value
        return FourierSymbol(merged)

    def __repr__(self) -> str:
        terms = ", ".join(f"{n}: {v:.4g}" for n, v in self.items())
        return f"FourierSymbol({{{terms}}})"

    # -- transforms --------------------------------------------------------

    def analytic_part(self) -> "FourierSymbol":
        """Keep indices n >= 0 (the Hardy-space projection of the symbol)."""
        return FourierSymbol({n: v for n, v in self._coeffs.items() if n >= 0})

    def coanalytic_part(self) -> "FourierSymbol":
        """Keep indices n < 0; together with ``analytic_part`` reconstructs phi."""
        return FourierSymbol({n: v for n, v in self._coeffs.items() if n < 0})

    def conjugate_flip(self) -> "FourierSymbol":
        """Map a coanalytic symbol to the analytic one with b_n = conj(a_{-n}), n >= 1."""
        bad = [n for n in self._coeffs if n >= 0]
        if bad:
            raise ValueError(
                f"conjugate_flip needs support on n < 0; found index {min(bad)}"
            )
        return FourierSymbol({-n: v.conjugate() for n, v in self._coeffs.items()})

    def conjugate(self) -> "FourierSymbol":
        """Coefficients of conj(phi): b_n = conj(a_{-n})."""
        return FourierSymbol({-n: v.conjugate() for n, v in self._coeffs.items()})

    def twist_plus(self, lam: complex) -> "FourierSymbol":
        """b_n = conj(lam)^n a_n for n >= 0 and b_n = a_n for n < 0."""
        lbar = complex(lam).conjugate()
        return FourierSymbol(
            {n: (lbar**n) * v if n >= 0 else v for n, v in self._coeffs.items()}
        )

    def dilate(self, multiplier: complex) -> "FourierSymbol":
        """Analytic dilation psi(z) -> psi(c z): a_n -> c^n a_n, |c| <= 1."""
        c = complex(multiplier)
        if abs(c) > 1.0 + UNIT_CIRCLE_TOL:
            raise ValueError(f"|multiplier| = {abs(c)} exceeds 1")
        bad = [n for n in self._coeffs if n < 0]
        if bad:
            raise ValueError(f"dilate needs analytic support; found index {min(bad)}")
        return FourierSymbol({n: (c**n) * v for n, v in self._coeffs.items()})

    # -- norms and evaluation -----------------------------------------------

    def l2_norm(self) -> float:
        """sqrt(sum |a_n|^2) over the stored support; ``math.hypot`` scales,
        so no square overflows or underflows on the way."""
        return math.hypot(*(x for v in self._coeffs.values() for x in (v.real, v.imag)))

    def evaluate_on_grid(self, grid_size: int) -> np.ndarray:
        """Values sum_n a_n e^{i n theta_k} at theta_k = 2 pi k / grid_size.

        At the grid points e^{i n theta_k} = e^{i (n mod M) theta_k}, so the
        coefficients are folded modulo M into one length-M array and a single
        inverse FFT, scaled by M, gives every value. The fold is exact for
        every index, negative ones and |n| >= M included, and costs
        O(K + M log M) for K stored coefficients.
        """
        m = int(grid_size)
        if m < 1:
            raise ValueError("grid_size must be >= 1")
        folded = np.zeros(m, dtype=complex)
        count = len(self._coeffs)
        slots = np.fromiter((n % m for n in self._coeffs), dtype=np.intp, count=count)
        values = np.fromiter(self._coeffs.values(), dtype=complex, count=count)
        np.add.at(folded, slots, values)
        return np.fft.ifft(folded) * m

    def sup_norm_estimate(self, grid_size: int) -> float:
        """Grid maximum of |phi|: a lower bound on the sup norm.

        Converges to the true sup norm for trigonometric polynomials; the grid
        should satisfy grid_size >= 2*max_abs_index + 1 to resolve all modes.
        """
        if self.is_zero:
            return 0.0
        return float(np.max(np.abs(self.evaluate_on_grid(grid_size))))

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "coefficients": [
                {"n": n, "re": v.real, "im": v.imag} for n, v in self.items()
            ]
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FourierSymbol":
        try:
            entries = data["coefficients"]
            pairs = [
                (int(e["n"]), complex(float(e.get("re", 0.0)), float(e.get("im", 0.0))))
                for e in entries
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad symbol JSON: {exc}") from exc
        for n, value in pairs:
            for field, part in (("re", value.real), ("im", value.imag)):
                if not math.isfinite(part):
                    raise ValueError(
                        f"bad symbol JSON: field {field!r} of coefficient n={n} "
                        f"is not finite ({part!r})"
                    )
        return cls.from_coefficients(pairs)


def sawtooth(bandlimit: int) -> FourierSymbol:
    """Bandlimited 2*pi-periodic ramp phi(theta) = theta on [0, 2*pi).

    Direct integration gives a_0 = pi and a_n = i/n for n != 0; the
    coefficients are cut off at |n| <= bandlimit.
    """
    k = int(bandlimit)
    if k < 1:
        raise ValueError("sawtooth bandlimit must be >= 1")
    coeffs: dict[int, complex] = {0: complex(math.pi)}
    for n in range(1, k + 1):
        coeffs[n] = 1j / n
        coeffs[-n] = 1j / -n
    return FourierSymbol(coeffs)


def read_symbol_file(path) -> FourierSymbol:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return FourierSymbol.from_json_dict(data)


def write_symbol_file(symbol: FourierSymbol, path) -> None:
    Path(path).write_text(dumps_json(symbol.to_json_dict()), encoding="utf-8")
