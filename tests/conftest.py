import cmath
import math
import tracemalloc

import numpy as np
from hypothesis import strategies as st

from ltoeplitz import FourierSymbol, LambdaToeplitzSpec

coefficient_values = st.complex_numbers(
    max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


@st.composite
def symbols(draw, max_index=6, max_terms=5, analytic=False):
    lo = 0 if analytic else -max_index
    indices = draw(
        st.lists(st.integers(lo, max_index), min_size=0, max_size=max_terms, unique=True)
    )
    values = draw(
        st.lists(coefficient_values, min_size=len(indices), max_size=len(indices))
    )
    return FourierSymbol(dict(zip(indices, values)))


unimodular_lambdas = st.floats(
    min_value=0.0, max_value=2.0 * math.pi, allow_nan=False
).map(lambda t: cmath.exp(1j * t))

disc_lambdas = st.complex_numbers(
    max_magnitude=1.0, allow_nan=False, allow_infinity=False
)


# lambda on the unit circle, and one within UNIT_CIRCLE_TOL of it, where
# ``prepare`` applies T_N = diag(lambda^n) Toeplitz_N(psi) by one convolution
CIRCLE_LAMBDAS = [1.0, -1.0, 1j, cmath.exp(0.7j), (1 - 1e-13) * cmath.exp(0.3j)]
# each as (symbol, N); the last has bands |d| >= N, which must drop out
CIRCLE_CASES = {
    "analytic": ({0: 1.0 - 0.5j, 1: 2.0j, 4: -1.5}, 48),
    "coanalytic": ({-1: 0.5 + 1.0j, -3: -2.0, -6: 1.0j}, 48),
    "two-sided": ({-5: 1.0j, -2: 1.0 - 1.0j, 0: 0.5, 1: 2.0j, 3: -0.7 + 0.2j}, 48),
    "K >= N": ({d: complex(1.0 / (1 + abs(d)), 0.1 * d) for d in range(-40, 41)}, 24),
}


def random_symbol(rng, max_index=8, analytic=False, min_terms=1, max_terms=6):
    """Random finitely supported symbol with standard-normal complex values."""
    lo = 0 if analytic else -max_index
    count = int(rng.integers(min_terms, max_terms + 1))
    count = min(count, max_index - lo + 1)
    indices = rng.choice(np.arange(lo, max_index + 1), size=count, replace=False)
    coeffs = {
        int(n): complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2)
        for n in indices
    }
    return FourierSymbol(coeffs)


def random_disc_lambda(rng, radius=1.0):
    """Uniform on the disc of the given radius."""
    return radius * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())


def random_spec(rng, radius=1.0, max_index=8, analytic=False):
    return LambdaToeplitzSpec(
        random_disc_lambda(rng, radius), random_symbol(rng, max_index, analytic)
    )


def peak_traced_mb(func, *args, **kwargs):
    """``(func(*args, **kwargs), peak MB that tracemalloc saw during the call)``.

    numpy reports its array buffers to tracemalloc, so the peak covers them.
    """
    tracemalloc.start()
    try:
        result = func(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 2**20
