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
    return FourierSymbol.from_coefficients(list(zip(indices, values)))


unimodular_lambdas = st.floats(
    min_value=0.0, max_value=2.0 * math.pi, allow_nan=False
).map(lambda t: cmath.exp(1j * t))

disc_lambdas = st.complex_numbers(
    max_magnitude=1.0, allow_nan=False, allow_infinity=False
)


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
