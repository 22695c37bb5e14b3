import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ltoeplitz import (
    FourierSymbol,
    LambdaToeplitzSpec,
    MemoryBudgetExceeded,
    TruncatedOperator,
    WeightedCompositionSpec,
    analyze,
    finite_rank_study,
    hs_norm_closed_form,
    norm_convergence_study,
    operator_norm,
    sawtooth,
    sawtooth_growth_study,
    svd_study,
    top_singular_value,
    trace_norm_bound_check,
    truncate,
    wco_spectrum_check,
)
from ltoeplitz import spectral
from ltoeplitz.spectral import DEFAULT_RANK_TOL, SpectralDecompositionError

from conftest import disc_lambdas, random_spec, symbols

RNG = np.random.default_rng(777)


def _spec(lam, coeffs):
    return LambdaToeplitzSpec(lam, FourierSymbol(coeffs))


class TestAnalyze:
    def test_zero_lambda_rank_two(self):
        report = analyze(truncate(_spec(0.0, {1: 1.0, -1: 1.0}), 64), 0.0)
        assert report.numerical_rank <= 2
        assert report.singular_values[2] <= 1e-12 * report.singular_values[0]

    def test_diagonal_case_margins(self):
        # phi = 1, lambda = 1/2: truncation is diag(2^-n)
        report = analyze(truncate(_spec(0.5, {0: 1.0}), 33), 0.5)
        expected = np.array([0.5**n for n in range(33)])
        assert np.max(np.abs(report.singular_values - expected)) < 1e-15
        # sigma_{2m+1} = 4^-m <= 2^-m * sigma_1
        assert np.all(report.decay_margins >= 0.0)

    def test_decay_margins_random_specs(self):
        for _ in range(5):
            spec = random_spec(RNG, radius=0.8)
            report = analyze(truncate(spec, 129), spec.lam)
            assert np.all(report.decay_margins >= -1e-12 * report.operator_norm)

    def test_norm_ordering_and_frobenius_identity(self):
        spec = random_spec(RNG)
        report = analyze(truncate(spec, 40), spec.lam)
        assert report.operator_norm <= report.frobenius_norm + 1e-12
        assert report.frobenius_norm <= report.trace_norm + 1e-12
        sq = float(np.sum(report.singular_values**2))
        assert math.isclose(report.frobenius_norm**2, sq, rel_tol=1e-10)

    def test_margin_count(self):
        spec = random_spec(RNG)
        assert analyze(truncate(spec, 129), spec.lam).decay_margins.size == 64
        assert analyze(truncate(spec, 64), spec.lam).decay_margins.size == 32

    def test_rank_tol_validated(self):
        op = truncate(_spec(0.5, {0: 1.0}), 4)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                analyze(op, 0.5, rank_tol=bad)

    def test_nonfinite_entries_rejected(self):
        op = truncate(_spec(0.5, {0: 1.0}), 4)
        op.entries[1, 1] = np.inf
        with pytest.raises(ValueError, match="N=4"):
            analyze(op, 0.5)

    def test_decomposition_error_carries_size(self):
        err = SpectralDecompositionError(7, "no convergence")
        assert err.size == 7


def _svd_spy(monkeypatch):
    """Record a copy of every matrix ``np.linalg.svd`` decomposes."""
    seen = []
    svd = np.linalg.svd

    def spy(matrix, *args, **kwargs):
        seen.append(np.array(matrix))
        return svd(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


def _certified_cut(spec, n):
    """Smallest M with |lambda|^M l2(phi) / sqrt(1 - |lambda|^2) <= eps * c,
    c the larger norm of column 0 and row 0 of the dense truncation; both
    norms are taken relative to the largest coefficient, whatever its scale."""
    bands = [a for d, a in spec.symbol.items() if abs(d) < n]
    top = max(abs(a) for a in bands)
    entries = truncate(spec, n).entries / top
    c = max(np.linalg.norm(entries[:, 0]), np.linalg.norm(entries[0, :]))
    phi = math.sqrt(sum(abs(a / top) ** 2 for a in bands))
    mod = abs(spec.lam)
    eps = np.finfo(float).eps
    return next(m for m in range(n + 1) if mod**m * phi / math.sqrt(1 - mod**2) <= eps * c)


class TestCompressedAnalyze:
    """``svd_study`` decomposes a core fixed by lambda and phi, not the truncation."""

    def test_zero_lambda_decomposes_a_one_plus_p_by_one_plus_q_core(self, monkeypatch):
        # lambda = 0 leaves only row 0 and column 0 nonzero: M = 1, and the
        # core holds bands 3 down to -1
        spec = _spec(0.0, {0: 2.0, 1: 1.0, -1: 1.0j, 3: 0.5})
        dense = np.linalg.svd(truncate(spec, 64).entries, compute_uv=False)
        seen = _svd_spy(monkeypatch)
        (report,) = svd_study(spec, [64])
        sing = report.singular_values
        assert [core.shape for core in seen] == [(4, 2)]
        assert sing.shape == (64,)
        assert np.all(sing[2:] == 0.0)
        assert np.max(np.abs(sing - dense)) <= 1e-15 * dense[0]

    def _core_svd(self, monkeypatch, lam, coeffs, n=256):
        """The one core shape svd_study decomposes, and M; every sigma is
        checked against the dense SVD to 1e-13 * sigma_1."""
        spec = _spec(lam, coeffs)
        m = _certified_cut(spec, n)
        dense = np.linalg.svd(truncate(spec, n).entries, compute_uv=False)
        seen = _svd_spy(monkeypatch)
        (report,) = svd_study(spec, [n])
        sing = report.singular_values
        assert sing.shape == (n,)
        assert np.max(np.abs(sing - dense)) <= 1e-13 * dense[0]
        (core,) = [matrix.shape for matrix in seen]
        assert np.all(sing[min(core) :] == 0.0)
        return core, m

    def test_interior_lambda_decomposes_a_smaller_core(self, monkeypatch):
        # bands 1 and -2: one row below the cut and two columns beside it
        core, m = self._core_svd(monkeypatch, 0.5, {0: 1.0, 1: 0.7, -2: 0.4j})
        assert core == (m + 1, m + 2)

    def test_analytic_symbol_keeps_no_column_of_c(self, monkeypatch):
        core, m = self._core_svd(monkeypatch, 0.5, {0: 1.0, 1: 0.6, 3: -0.4j})
        assert core == (m + 3, m)

    def test_eleven_band_symbol_at_0_8_decomposes_171_not_256(self, monkeypatch):
        coeffs = {d: 1.0 / (1 + abs(d)) + 0.5j * (d % 3) for d in range(-5, 6)}
        core, m = self._core_svd(monkeypatch, 0.8, coeffs)
        assert m == 166
        assert core == (m + 5, m + 5) == (171, 171)

    def test_core_does_not_depend_on_n(self, monkeypatch):
        coeffs = {d: 1.0 / (1 + abs(d)) + 0.5j * (d % 3) for d in range(-5, 6)}
        spec = _spec(0.8, coeffs)
        cores = _svd_spy(monkeypatch)
        reports = svd_study(spec, [256, 1024, 4096])
        assert all(np.array_equal(core, cores[0]) for core in cores)
        assert all(np.array_equal(r.singular_values[:171], reports[0].singular_values[:171])
                   for r in reports)

    def test_unit_lambda_is_the_dense_svd(self):
        spec = _spec(cmath.exp(0.7j), {0: 1.0, 1: 0.7, -2: 0.4j})
        op = truncate(spec, 96)
        dense = np.linalg.svd(op.entries, compute_uv=False)
        assert np.array_equal(analyze(op, spec.lam).singular_values, dense)
        (report,) = svd_study(spec, [96])
        assert np.array_equal(report.singular_values, dense)

    def test_small_n_is_the_dense_svd(self):
        # M = 53 at lambda = 0.5, so N = 48 has no core smaller than T_N
        spec = _spec(0.5, {0: 1.0, 1: 0.7, -2: 0.4j})
        dense = np.linalg.svd(truncate(spec, 48).entries, compute_uv=False)
        (report,) = svd_study(spec, [48])
        assert np.array_equal(report.singular_values, dense)

    @pytest.mark.parametrize(
        "lam, n", [(cmath.exp(0.7j), 96), (0.5, 48), (0.5, 256)], ids=["unit", "small-n", "core"]
    )
    def test_frobenius_is_the_band_sum_with_or_without_a_core(self, lam, n):
        spec = _spec(lam, {0: 1.0, 1: 0.7, -2: 0.4j})
        if n < 256:
            assert spectral._core(spec, n).shape == (n, n)
        (report,) = svd_study(spec, [n])
        assert report.frobenius_norm == spectral.frobenius_norm(spec, n)

    def test_dense_random_matrix_is_the_dense_svd(self):
        entries = RNG.standard_normal((80, 80)) + 1j * RNG.standard_normal((80, 80))
        op = TruncatedOperator(80, entries)
        dense = np.linalg.svd(entries, compute_uv=False)
        assert np.array_equal(analyze(op, 0.5).singular_values, dense)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_squares_out_of_range_keep_the_dense_svd(self, scale):
        # analyze, the oracle, decomposes every entry at any scale
        op = truncate(_spec(0.5, {0: scale, 1: 0.3 * scale}), 128)
        dense = np.linalg.svd(op.entries, compute_uv=False)
        report = analyze(op, 0.5)
        assert np.array_equal(report.singular_values, dense)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_squares_out_of_range_take_the_core(self, monkeypatch, scale):
        # squared entries underflow or overflow, but M is read from ratios
        core, m = self._core_svd(monkeypatch, 0.5, {0: scale, 1: 0.3 * scale})
        assert core == (m + 1, m)
        (report,) = svd_study(_spec(0.5, {0: scale, 1: 0.3 * scale}), [256])
        frob = np.linalg.norm(truncate(_spec(0.5, {0: 1.0, 1: 0.3}), 256).entries)
        assert abs(report.frobenius_norm - scale * frob) <= 1e-15 * scale * frob

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_is_rejected(self, bad):
        with pytest.raises(ValueError, match="N=256"):
            svd_study(_spec(0.5, {0: 1.0, 1: bad}), [256])

    def test_core_failure_carries_the_truncation_size(self, monkeypatch):
        def fail(matrix, *args, **kwargs):
            raise np.linalg.LinAlgError(f"no convergence at side {len(matrix)}")

        spec = _spec(0.5, {0: 1.0, 1: 0.7})
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(SpectralDecompositionError, match="N=256") as info:
            svd_study(spec, [256])
        assert info.value.size == 256

    def test_core_is_charged_against_the_budget(self, monkeypatch):
        # bands -600..600 at lambda = 0.5: a 653 x 653 core at N = 4096
        spec = _spec(0.5, {d: 1.0 / (1 + abs(d)) for d in range(-600, 601)})
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "4")
        message = r"N=4096, SVD core: N=653 needs .* allows N <= 512"
        with pytest.raises(MemoryBudgetExceeded, match=message):
            svd_study(spec, [4096])


@given(
    symbols(),
    st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
    st.integers(1, 300),
)
@settings(max_examples=40, deadline=None)
def test_svd_study_matches_the_dense_svd(phi, lam, n):
    spec = LambdaToeplitzSpec(lam, phi)
    entries = truncate(spec, n).entries
    dense = np.linalg.svd(entries, compute_uv=False)
    (report,) = svd_study(spec, [n])
    top = float(dense[0])
    assert report.singular_values.shape == dense.shape
    assert np.max(np.abs(report.singular_values - dense)) <= 1e-13 * top
    threshold = DEFAULT_RANK_TOL * top
    if not np.any(np.abs(dense - threshold) <= 1e-12 * top):
        assert report.numerical_rank == int(np.count_nonzero(dense > threshold))
    # subnormal entries lose their digits in the truncation's own products,
    # and their squares underflow; the band sum scales the coefficients first
    if top == 0.0 or top > 1e-150:
        frob = float(np.linalg.norm(entries))
        assert abs(report.frobenius_norm - frob) <= 1e-15 * frob


class TestHsNormClosedForm:
    def test_zero_lambda_is_l2_norm(self):
        phi = FourierSymbol({2: 1.0, -1: 2j})
        assert hs_norm_closed_form(LambdaToeplitzSpec(0.0, phi)) == phi.l2_norm()

    def test_single_mode_half_lambda(self):
        spec = _spec(0.5, {1: 1.0})
        target = math.sqrt(4.0 / 3.0)
        assert math.isclose(hs_norm_closed_form(spec), target, rel_tol=1e-15)
        frob = float(np.linalg.norm(truncate(spec, 64).entries))
        assert frob <= target
        assert math.isclose(frob, target, rel_tol=1e-9)

    def test_frobenius_monotone_in_size(self):
        spec = random_spec(RNG, radius=0.7)
        norms = [float(np.linalg.norm(truncate(spec, n).entries)) for n in (8, 16, 32, 64)]
        assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= hs_norm_closed_form(spec) + 1e-12

    def test_rejects_circle_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            hs_norm_closed_form(_spec(1.0, {0: 1.0}))


def _dense_frobenius(entries: np.ndarray) -> float:
    """np.linalg.norm of the entries scaled by a power of two near 1/max|entry|
    (at most 2**1023), so that no square of a large entry leaves the normal range."""
    top = float(np.max(np.abs(entries)))
    scale = math.ldexp(1.0, min(-math.frexp(top)[1], 1023)) if top > 0.0 else 1.0
    return float(np.linalg.norm(entries * scale)) / scale


@given(symbols(), disc_lambdas.filter(lambda z: abs(z) < 1.0))
@example(FourierSymbol({0: 1.874e-162}), 0j)  # its square is subnormal
@settings(max_examples=40, deadline=None)
def test_frobenius_norm_grows_to_the_closed_form_property(phi, lam):
    spec = LambdaToeplitzSpec(lam, phi)
    norms = [_dense_frobenius(truncate(spec, n).entries) for n in range(1, 25)]
    # each truncation holds the previous one, so only rounding can lower the norm
    assert all(b >= a * (1.0 - 1e-14) for a, b in zip(norms, norms[1:]))
    assert norms[-1] <= hs_norm_closed_form(spec) * (1.0 + 1e-12)


class TestNormConvergence:
    def test_tridiagonal_oracle(self):
        # 2 + 2cos(theta) at lambda=1: eigenvalues 2 + 2cos(k pi/(N+1))
        spec = _spec(1.0, {0: 2.0, 1: 1.0, -1: 1.0})
        for n, got in norm_convergence_study(spec, (32, 128)):
            oracle = 2.0 + 2.0 * math.cos(math.pi / (n + 1))
            assert abs(got - oracle) < 1e-10
        study = norm_convergence_study(spec, (16, 64, 256))
        values = [v for _, v in study]
        assert values == sorted(values)
        assert values[-1] < 4.0

    def test_constant_symbol_all_norms_one(self):
        spec = _spec(1.0, {0: 1.0})
        assert all(abs(v - 1.0) <= 1e-13 for _, v in norm_convergence_study(spec, (4, 16, 64)))

    def test_rejects_interior_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            norm_convergence_study(_spec(0.5, {0: 1.0}), (8,))


class TestTopSingularValue:
    def test_zero_truncation_gives_zero(self):
        # the only band, d = 5, lies outside the 4 x 4 truncation
        assert top_singular_value(_spec(1.0, {5: 1.0}), 4) == 0.0

    def test_single_entry(self):
        got = top_singular_value(_spec(0.5, {0: 2.0 - 1.0j, 3: 1.0}), 1)
        assert abs(got - math.sqrt(5.0)) <= 1e-15 * math.sqrt(5.0)

    def test_clustered_tridiagonal_top(self):
        # 2 + 2cos(theta) at lambda = 1: the top two singular values differ
        # by about 3e-5, so the Krylov space must grow to most of C^N
        got = top_singular_value(_spec(1.0, {0: 2.0, 1: 1.0, -1: 1.0}), 1024)
        assert abs(got - (2.0 + 2.0 * math.cos(math.pi / 1025))) <= 1e-10

    @pytest.mark.parametrize("size", [0, -3])
    def test_rejects_empty_truncation(self, size):
        with pytest.raises(ValueError, match="truncation size must be >= 1"):
            top_singular_value(_spec(0.5, {0: 1.0}), size)

    def test_basis_is_charged_against_the_budget(self, monkeypatch):
        spec = LambdaToeplitzSpec(-1.0, sawtooth(1024))
        unbudgeted = top_singular_value(spec, 1024)
        # one step of two length-1024 complex vectors needs 32 KiB
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "0.01")
        with pytest.raises(MemoryBudgetExceeded, match=r"N=1024.*k=1\b"):
            top_singular_value(spec, 1024)
        monkeypatch.setenv("LT_MEM_BUDGET_MB", "4")
        assert top_singular_value(spec, 1024) == unbudgeted


@given(symbols(max_index=8), disc_lambdas, st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_top_singular_value_matches_dense_svd(phi, lam, n):
    spec = LambdaToeplitzSpec(lam, phi)
    dense = float(np.linalg.svd(truncate(spec, n).entries, compute_uv=False)[0])
    # subnormal entries lose their digits in any product, dense or FFT
    assume(dense == 0.0 or dense > 1e-150)
    assert abs(top_singular_value(spec, n) - dense) <= 1e-12 * dense


class TestCompactnessSurrogates:
    def test_unimodular_norms_bounded_below_by_coefficients(self):
        # |lambda| = 1: every entry on a band has modulus |a_d|, so sigma_1
        # never decays below the largest coefficient at any truncation size
        phi = FourierSymbol({2: 0.7, -1: 1.2j, 0: -0.4})
        spec = LambdaToeplitzSpec(cmath.exp(0.4j), phi)
        floor = max(abs(v) for _, v in phi.items())
        for n in (4, 16, 64):
            assert operator_norm(truncate(spec, n)) >= floor - 1e-12

    def test_interior_lambda_tail_blocks_decay(self):
        # the tail block starting at row/column m is lambda^m times a smaller
        # truncation, so its norm is at most |lambda|^m * sigma_1
        spec = random_spec(RNG, radius=0.75)
        entries = truncate(spec, 64).entries
        sigma_1 = float(np.linalg.svd(entries, compute_uv=False)[0])
        for m in (1, 4, 10, 25):
            tail = np.linalg.svd(entries[m:, m:], compute_uv=False)[0]
            assert tail <= abs(spec.lam) ** m * sigma_1 + 1e-12 * sigma_1


class TestUnitaryFactorNormEquality:
    def test_operator_norm_matches_twisted_toeplitz(self):
        from ltoeplitz import build_toeplitz

        for phase in (0.0, 1.1, 3.7):
            lam = cmath.exp(1j * phase)
            phi = FourierSymbol({1: 1.0, -2: 0.5j, 0: 0.3})
            spec = LambdaToeplitzSpec(lam, phi)
            lhs = operator_norm(truncate(spec, 48))
            rhs = operator_norm(build_toeplitz(phi.twist_plus(lam), 48))
            assert math.isclose(lhs, rhs, rel_tol=1e-12)


class TestSawtoothGrowth:
    def test_norms_grow_with_size(self):
        study = sawtooth_growth_study((16, 64, 128))
        values = [v for _, v in study]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_matches_direct_svd(self):
        from ltoeplitz import sawtooth

        (n, got), = sawtooth_growth_study((16,))
        direct = operator_norm(truncate(LambdaToeplitzSpec(-1.0, sawtooth(16)), 16))
        assert abs(got - direct) <= 1e-13 * direct


class TestTraceNormBound:
    def test_zero_lambda_rank_two_bound(self):
        report = analyze(truncate(_spec(0.0, {1: 1.0, -1: 2.0}), 16), 0.0)
        result = trace_norm_bound_check(report, 0.0)
        assert result.passed
        assert report.trace_norm <= 3.0 * report.operator_norm + 1e-9

    def test_geometric_series_case(self):
        report = analyze(truncate(_spec(0.5, {0: 1.0}), 32), 0.5)
        assert math.isclose(report.trace_norm, 2.0 - 0.5**31, rel_tol=1e-12)
        result = trace_norm_bound_check(report, 0.5)
        assert result.passed
        # majorant sigma_1 * (1 + 2/(1 - 1/2)) = 5
        assert report.trace_norm <= 5.0

    @pytest.mark.parametrize("radius", [0.3, 0.9])
    def test_random_specs_pass(self, radius):
        for _ in range(2):
            spec = random_spec(RNG, radius=radius)
            report = analyze(truncate(spec, 257), spec.lam)
            assert trace_norm_bound_check(report, spec.lam).passed

    def test_rejects_circle_lambda(self):
        report = analyze(truncate(_spec(0.5, {0: 1.0}), 8), 0.5)
        with pytest.raises(ValueError):
            trace_norm_bound_check(report, 1.0)


class TestWcoSpectrum:
    def test_zero_constant_weight_nilpotent_diagonal(self):
        w = WeightedCompositionSpec(FourierSymbol({1: 1.0}), 0.5)
        result = wco_spectrum_check(w, 8)
        assert result.passed
        assert result.residual == 0.0

    def test_geometric_eigenvalues(self):
        w = WeightedCompositionSpec(FourierSymbol({0: 2.0, 1: 1.0}), 0.5)
        result = wco_spectrum_check(w, 4)
        assert result.passed
        # independent eigensolver oracle on the triangular truncation
        from ltoeplitz import build_weighted_comp

        eig = np.sort_complex(np.linalg.eigvals(build_weighted_comp(w, 4).entries))
        assert np.max(np.abs(eig - np.sort_complex(np.array([2, 1, 0.5, 0.25])))) < 1e-12

    def test_unimodular_multiplier_circle(self):
        w = WeightedCompositionSpec(FourierSymbol({0: 3.0}), cmath.exp(1.3j))
        from ltoeplitz import build_weighted_comp

        diag = np.diagonal(build_weighted_comp(w, 16).entries)
        assert np.max(np.abs(np.abs(diag) - 3.0)) < 1e-12
        assert wco_spectrum_check(w, 16).passed

    def test_distinctness_enforced(self):
        w = WeightedCompositionSpec(FourierSymbol({0: 1.5, 2: 1j}), 0.3 + 0.2j)
        assert wco_spectrum_check(w, 16).passed

    def test_powers_below_the_normal_range_pass(self):
        # powers() sets 0.8^m to 0.0 from m = 3175 on, where it leaves the
        # normal range, so the tail of predicted points is no longer distinct
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0, 1: 0.5}), 0.8)
        result = wco_spectrum_check(w, 3400)
        assert result.residual == 0.0
        assert result.passed

    @staticmethod
    def _patch_diagonal(monkeypatch, m, change):
        """Let the check read band 0 with its entry m replaced by change(entry)."""
        bands = spectral._bands

        def patched(*args):
            for d, band in bands(*args):
                if d == 0:
                    band = band.copy()
                    band[m] = change(band[m])
                yield d, band

        monkeypatch.setattr(spectral, "_bands", patched)

    def test_perturbed_diagonal_still_fails(self, monkeypatch):
        self._patch_diagonal(monkeypatch, 100, lambda entry: entry + 1e-12)
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0, 1: 0.5}), 0.8)
        result = wco_spectrum_check(w, 3400)
        assert result.residual > result.tolerance
        assert not result.passed

    def test_error_in_a_tiny_entry_fails(self, monkeypatch):
        # 0.8^200 is about 4e-20: doubling it moves the entry far less than 1e-14
        self._patch_diagonal(monkeypatch, 200, lambda entry: 2 * entry)
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0, 1: 0.5}), 0.8)
        result = wco_spectrum_check(w, 400)
        assert result.residual == 1.0
        assert not result.passed


class TestFiniteRankStudy:
    def test_zero_lambda_rank_two_at_all_sizes(self):
        spec = _spec(0.0, {1: 1.0, -1: 1.0})
        assert finite_rank_study(spec, (4, 16, 64)) == [(4, 2), (16, 2), (64, 2)]

    def test_zero_symbol_rank_zero(self):
        spec = LambdaToeplitzSpec(0.5, FourierSymbol())
        assert finite_rank_study(spec, (4, 8)) == [(4, 0), (8, 0)]

    def test_analytic_shift_gives_corank_two(self):
        spec = _spec(0.5, {2: 1.0})
        study = finite_rank_study(spec, (8, 32), rank_tol=1e-10)
        assert study == [(8, 6), (32, 30)]

    def test_coanalytic_shift_gives_corank_two(self):
        spec = _spec(0.5, {-2: 1.0})
        study = finite_rank_study(spec, (8, 32), rank_tol=1e-10)
        assert study == [(8, 6), (32, 30)]

    def test_two_sided_symbol_rank_grows(self):
        spec = _spec(0.5, {1: 1.0, -1: 1.0})
        ranks = [r for _, r in finite_rank_study(spec, (8, 16, 32, 64), rank_tol=1e-10)]
        assert all(a < b for a, b in zip(ranks, ranks[1:]))

    @pytest.mark.parametrize("lam", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-8, 1e-6])
    def test_triangular_exact_rank_sweep(self, lam, rank_tol):
        spec = _spec(lam, {2: 1.0})
        (n, rank), = finite_rank_study(spec, (8,), rank_tol=rank_tol)
        assert rank == n - 2


class TestReportSerialization:
    def test_json_keys(self):
        spec = random_spec(RNG)
        data = analyze(truncate(spec, 8), spec.lam).to_json_dict()
        assert set(data) == {
            "N",
            "singular_values",
            "operator_norm",
            "frobenius_norm",
            "trace_norm",
            "numerical_rank",
            "decay_margins",
        }
        assert len(data["singular_values"]) == 8

    def test_singular_value_rows_one_based(self):
        spec = random_spec(RNG)
        rows = analyze(truncate(spec, 5), spec.lam).singular_value_rows()
        assert [k for k, _ in rows] == [1, 2, 3, 4, 5]
