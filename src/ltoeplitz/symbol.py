"""Fourier symbols as finitely supported coefficient sequences.

A symbol phi ~ sum_n a_n e^{i n theta} is stored sparsely as a map from
integer frequency to complex coefficient; every index not stored is zero.
Symbols are immutable after construction, so they can be shared freely
between threads and operator specs.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from operator import index as _as_index
from typing import Iterator, Mapping, Tuple

import numpy as np

from .output import json_chunks, write_text

__all__ = [
    "UNIT_CIRCLE_TOL",
    "FourierSymbol",
    "is_unimodular",
    "sawtooth",
    "read_symbol_file",
    "write_symbol_file",
]

UNIT_CIRCLE_TOL = 1e-12
_JSON_NUMBERS = (int, float)  # the types json.load gives a number; bool is not one
_FLOAT_MAX = sys.float_info.max  # a larger int, like inf and nan, is no finite float


def is_unimodular(value: complex, tol: float = UNIT_CIRCLE_TOL) -> bool:
    """True when ``|value| == 1`` up to floating-point slack."""
    return abs(abs(complex(value)) - 1.0) <= tol


def _unit_exponent(top: float) -> int:
    """The e with 2^e * top in [0.5, 1) (0 for 0 or inf): an exact scaling
    after which squares of values up to top stay in the float range. Below
    2^-1023, 2^e is past the float range, so scale with ``math.ldexp``."""
    return -math.frexp(top)[1] if 0 < top < math.inf else 0


def _unit_scaled_values(values, count: int) -> tuple[np.ndarray, int]:
    """``(2^e * values, e)``, the values as one complex array and e the
    ``_unit_exponent`` of their largest |Re|, |Im|; exact for every normal
    result, and every result finite."""
    parts = np.fromiter(values, dtype=complex, count=count).view(float)
    e = _unit_exponent(float(np.max(np.abs(parts), initial=0.0)))
    return np.ldexp(parts, e).view(complex), e


class FourierSymbol:
    """Finitely supported coefficient sequence ``{n: a_n}``.

    Each index is an integer (``int`` or a numpy integer, not ``1.5``) and
    each value a finite complex number; the constructor refuses anything
    else, naming the index. Zero-valued coefficients are dropped from
    storage; ``coefficient`` returns 0 for every index off the stored support.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Mapping[int, complex] | None = None):
        coeffs: dict[int, complex] = {}
        for index, value in (coefficients or {}).items():
            try:
                n = _as_index(index)
            except TypeError:
                raise ValueError(f"coefficient index {index!r} is not an integer") from None
            value = complex(value)
            if not cmath.isfinite(value):
                raise ValueError(f"coefficient a_{n} = {value!r} is not finite")
            if value != 0:
                coeffs[n] = value
        self._coeffs = coeffs

    @classmethod
    def _of_checked(cls, coeffs: dict[int, complex]) -> "FourierSymbol":
        """The symbol of ``{n: a_n}`` whose indices are ints and values finite
        complex numbers, as read and checked by ``from_json_dict`` or derived
        from a symbol; zeros are dropped, nothing else is checked again."""
        symbol = cls()
        symbol._coeffs = {n: v for n, v in coeffs.items() if v}
        return symbol

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
    def max_abs_index(self) -> int:
        return max((abs(n) for n in self._coeffs), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FourierSymbol):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(sorted(self._coeffs.items())))

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

    def conjugate(self) -> "FourierSymbol":
        """Coefficients of conj(phi): b_n = conj(a_{-n})."""
        return FourierSymbol({-n: v.conjugate() for n, v in self._coeffs.items()})

    def twist_plus(self, lam: complex) -> "FourierSymbol":
        """b_n = conj(lam)^n a_n for n >= 0 and b_n = a_n for n < 0; a b_n
        beyond the float range raises ``ValueError`` naming n and lam."""
        lbar, twisted = complex(lam).conjugate(), {}
        for n, v in self._coeffs.items():
            try:
                b = twisted[n] = (lbar**n) * v if n >= 0 else v
            except OverflowError:
                b = math.inf
            if not cmath.isfinite(b):
                raise ValueError(
                    f"twist_plus: conj(lambda)**{n} * a_{n} overflows at lambda={lam!r}")
        return FourierSymbol(twisted)

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
        O(K + M log M) for K stored coefficients. The coefficients are folded
        times 2^e, e the ``_unit_exponent`` of the largest part, and the
        values divided back: exact for every normal value, +-inf past the
        float range, and no sum overflows or sinks into the subnormals.
        """
        m = int(grid_size)
        if m < 1:
            raise ValueError("grid_size must be >= 1")
        folded = np.zeros(m, dtype=complex)
        count = len(self._coeffs)
        slots = np.fromiter((n % m for n in self._coeffs), dtype=np.intp, count=count)
        scaled, e = _unit_scaled_values(self._coeffs.values(), count)
        np.add.at(folded, slots, scaled)
        values = (np.fft.ifft(folded) * m).view(float)
        with np.errstate(over="ignore"):
            return np.ldexp(values, -e, out=values).view(complex)

    def sup_norm_estimate(self, grid_size: int) -> float:
        """Grid maximum of |phi|: a lower bound on the sup norm.

        Converges to the true sup norm for trigonometric polynomials; the grid
        should satisfy grid_size >= 2*max_abs_index + 1 to resolve all modes.
        """
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
        """The symbol of ``{"coefficients": [{"n": ..., "re": ..., "im": ...}, ...]}``.

        ``n`` must be a JSON integer and ``re`` and ``im``, each 0 when
        absent, JSON numbers; a bool or a string is neither, and an entry
        has no other field. One walk over the entries checks each, that it
        is finite and that its index is new, and stores it; ``_of_checked``
        drops zero values afterwards, as ``__init__`` drops them. A fault
        names its field and its entry.
        """
        entries = data.get("coefficients") if isinstance(data, Mapping) else None
        if type(entries) is not list:
            raise ValueError("bad symbol JSON: field 'coefficients' must be a list of objects")
        coeffs: dict[int, complex] = {}
        for i, e in enumerate(entries):
            if type(e) is not dict:
                raise ValueError(f"bad symbol JSON: coefficients[{i}] must be an object")
            n, re, im = e.get("n"), e.get("re", 0.0), e.get("im", 0.0)
            if type(n) is not int:
                what = "is missing"
                if "n" in e:
                    what = f"must be a JSON integer, not {json.dumps(n, default=repr)}"
                raise ValueError(f"bad symbol JSON: field 'n' of coefficients[{i}] {what}")
            if len(e) > 1 + ("re" in e) + ("im" in e):
                field = next(k for k in e if k not in ("n", "re", "im"))
                raise ValueError(f"bad symbol JSON: coefficients[{i}] has unknown field {field!r}; "
                                 "an entry holds only 'n', 're' and 'im'")
            if not (type(re) in _JSON_NUMBERS and type(im) in _JSON_NUMBERS
                    and -_FLOAT_MAX <= re <= _FLOAT_MAX and -_FLOAT_MAX <= im <= _FLOAT_MAX):
                raise ValueError(f"bad symbol JSON: {_part_fault(n, re, im)}")
            if n in coeffs:
                raise ValueError(f"duplicate coefficient index {n}")
            coeffs[n] = complex(re, im)
        return cls._of_checked(coeffs)


def _part_fault(n: int, re, im) -> str:
    """Why ``re`` or ``im`` of coefficient n is not a finite JSON number."""
    for field, part in (("re", re), ("im", im)):
        where = f"field {field!r} of coefficient n={n}"
        if type(part) not in _JSON_NUMBERS:
            return f"{where} must be a JSON number, not {json.dumps(part, default=repr)}"
        if type(part) is int and abs(part) > _FLOAT_MAX:
            return f"{where} lies outside the float range"
        if not math.isfinite(part):
            return f"{where} is not finite ({part!r})"
    raise AssertionError("both parts are finite numbers")


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
    write_text(path, json_chunks(symbol.to_json_dict()))
