import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings

from ltoeplitz import (
    FourierSymbol,
    LambdaToeplitzSpec,
    WeightedCompositionSpec,
    analyze,
    finite_rank_study,
    hs_norm_closed_form,
    norm_convergence_study,
    operator_norm,
    sawtooth_growth_study,
    trace_norm_bound_check,
    truncate,
    wco_spectrum_check,
)
from ltoeplitz.spectral import SpectralDecompositionError

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


@given(symbols(), disc_lambdas.filter(lambda z: abs(z) < 1.0))
@settings(max_examples=40, deadline=None)
def test_frobenius_norm_grows_to_the_closed_form_property(phi, lam):
    spec = LambdaToeplitzSpec(lam, phi)
    norms = [float(np.linalg.norm(truncate(spec, n).entries)) for n in range(1, 25)]
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
        assert all(v == 1.0 for _, v in norm_convergence_study(spec, (4, 16, 64)))

    def test_rejects_interior_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            norm_convergence_study(_spec(0.5, {0: 1.0}), (8,))


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
        assert got == direct


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
