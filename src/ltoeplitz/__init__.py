"""Numerical toolkit for lambda-Toeplitz operators on the Hardy space.

Builds finite truncations of the operator with matrix entries
lambda^min(n,m) * a_{n-m} from a Fourier symbol {a_n}, applies them fast via
FFT convolution, and verifies the quantitative laws the construction obeys:
factorization identities, Hilbert-Schmidt and trace-norm bounds,
singular-value decay, spectra of the weighted-composition factors, and the
finite-rank dichotomy.
"""

from .factorization import (
    VerificationResult,
    WeightedCompositionSpec,
    build_diag_unitary,
    build_toeplitz,
    build_weighted_comp,
    kernel_hs_norm,
    quadrature_apply,
    verify_toeplitz_comp_factorization,
    verify_unitary_factorization,
    verify_wco_sum,
    wco_hs_norm_closed_form,
)
from .operator import (
    LambdaToeplitzSpec,
    MemoryBudgetExceeded,
    TruncatedOperator,
    apply_fast,
    apply_naive,
    dense_size_limit,
    entry,
    powers,
    prepare,
    recurrence_residual,
    solve_recurrence,
    truncate,
    truncation_borders,
)
from .spectral import (
    SpectralDecompositionError,
    SpectralReport,
    analyze,
    finite_rank_study,
    frobenius_norm,
    hs_norm_closed_form,
    norm_convergence_study,
    operator_norm,
    sawtooth_growth_study,
    singular_values,
    svd_study,
    top_singular_value,
    trace_norm_bound_check,
    wco_spectrum_check,
)
from .symbol import (
    FourierSymbol,
    is_unimodular,
    read_symbol_file,
    sawtooth,
    write_symbol_file,
)

__version__ = "0.1.0"
