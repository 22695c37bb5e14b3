"""Numerical toolkit for lambda-Toeplitz operators on the Hardy space.

Builds finite truncations of the operator with matrix entries
lambda^min(n,m) * a_{n-m} from a Fourier symbol {a_n}, applies them fast via
FFT convolution, and verifies the quantitative laws the construction obeys:
factorization identities, Hilbert-Schmidt and trace-norm bounds,
singular-value decay, spectra of the weighted-composition factors, and the
finite-rank dichotomy.
"""

from . import factorization, operator, spectral, symbol
from .factorization import *
from .operator import *
from .spectral import *
from .symbol import *

__all__ = [*symbol.__all__, *operator.__all__, *factorization.__all__, *spectral.__all__]

__version__ = "0.1.0"
