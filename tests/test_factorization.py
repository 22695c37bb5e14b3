import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings

from ltoeplitz import (
    FourierSymbol,
    LambdaToeplitzSpec,
    WeightedCompositionSpec,
    build_diag_unitary,
    build_kernel_grid,
    build_kernel_grid_sampled_tau,
    build_toeplitz,
    build_wco_kernel_grid,
    build_weighted_comp,
    entry,
    kernel_grid_l2_norm,
    kernel_hs_norm,
    quadrature_apply,
    truncate,
    verify_toeplitz_comp_factorization,
    verify_unitary_factorization,
    verify_wco_sum,
    wco_hs_norm_closed_form,
)

from conftest import disc_lambdas, random_spec, random_symbol, symbols

RNG = np.random.default_rng(4321)


class TestDiagUnitary:
    def test_identity_at_one(self):
        assert np.array_equal(build_diag_unitary(1.0, 5).entries, np.eye(5))

    def test_powers_of_i(self):
        got = np.diagonal(build_diag_unitary(1j, 4).entries)
        assert np.array_equal(got, np.array([1, 1j, -1, -1j]))

    def test_unitarity_on_circle(self):
        for phase in (0.3, 1.7, 4.0):
            u = build_diag_unitary(cmath.exp(1j * phase), 32).entries
            assert np.max(np.abs(u @ u.conj().T - np.eye(32))) < 1e-14

    def test_flagged_when_not_unimodular(self):
        assert "non-unitary" in build_diag_unitary(0.5, 4).provenance


class TestBuildToeplitz:
    def test_constant_symbol_gives_identity(self):
        assert np.array_equal(build_toeplitz(FourierSymbol({0: 1.0}), 4).entries, np.eye(4))

    def test_shift_matrix(self):
        t = build_toeplitz(FourierSymbol({1: 1.0}), 4).entries
        assert np.array_equal(t, np.diag(np.ones(3), -1))

    def test_matches_unit_lambda_truncation(self):
        phi = random_symbol(RNG)
        lhs = build_toeplitz(phi, 10).entries
        rhs = truncate(LambdaToeplitzSpec(1.0, phi), 10).entries
        assert np.max(np.abs(lhs - rhs)) == 0.0


class TestBuildWeightedComp:
    def test_weightless_case_is_composition_operator(self):
        lam = 0.4 + 0.5j
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0}), lam)
        got = build_weighted_comp(w, 6).entries
        assert np.array_equal(got, np.diag([lam**m for m in range(6)]))

    def test_monomial_weight(self):
        lam = 0.5 - 0.25j
        w = WeightedCompositionSpec(FourierSymbol({1: 1.0}), lam.conjugate())
        got = build_weighted_comp(w, 5).entries
        expected = np.zeros((5, 5), dtype=complex)
        for m in range(4):
            expected[m + 1, m] = lam.conjugate() ** m
        assert np.max(np.abs(got - expected)) < 1e-15

    def test_zero_multiplier_structure(self):
        psi = FourierSymbol({0: 2.0, 1: 3.0, 4: -1j})
        got = build_weighted_comp(WeightedCompositionSpec(psi, 0.0), 6).entries
        expected = np.zeros((6, 6), dtype=complex)
        expected[:, 0] = [psi.coefficient(n) for n in range(6)]
        assert np.array_equal(got, expected)

    def test_rejects_coanalytic_weight(self):
        with pytest.raises(ValueError, match="analytic"):
            WeightedCompositionSpec(FourierSymbol({-1: 1.0}), 0.5)

    def test_rejects_large_multiplier(self):
        with pytest.raises(ValueError, match="disc"):
            WeightedCompositionSpec(FourierSymbol({0: 1.0}), 1.5)

    def test_composition_semigroup(self):
        for lam, mu in ((0.5, 0.3j), (0.9, -0.7), (0.2 + 0.1j, 0.4 - 0.4j)):
            one = FourierSymbol({0: 1.0})
            product = (
                build_weighted_comp(WeightedCompositionSpec(one, lam), 8).entries
                @ build_weighted_comp(WeightedCompositionSpec(one, mu), 8).entries
            )
            combined = build_weighted_comp(WeightedCompositionSpec(one, lam * mu), 8).entries
            assert np.max(np.abs(product - combined)) < 1e-12


# Re(lambda) < 0, so a product 0j * lambda^m off the stored bands would give -0.0.
LAM_LEFT = -0.6 + 0.3j
# bands 9 and -8 lie outside every tested N
PHI = FourierSymbol(
    {-8: 1.0, -3: 0.5 - 1j, -1: 2.0, 0: 1.5j, 1: -0.7, 2: 0.25 + 0.5j, 5: 1j, 9: -2.0}
)


def _a(d):
    return PHI.coefficient(d)


BUILDER_CASES = {
    "truncate": (
        lambda n: truncate(LambdaToeplitzSpec(LAM_LEFT, PHI), n),
        lambda i, j: entry(LambdaToeplitzSpec(LAM_LEFT, PHI), i, j),
    ),
    "toeplitz-twist_plus": (
        lambda n: build_toeplitz(PHI.twist_plus(LAM_LEFT), n),
        lambda i, j: LAM_LEFT.conjugate() ** (i - j) * _a(i - j) if i >= j else _a(i - j),
    ),
    "toeplitz-conjugate": (
        lambda n: build_toeplitz(PHI.conjugate(), n),
        lambda i, j: _a(j - i).conjugate(),
    ),
    "toeplitz-conjugate_flip": (
        lambda n: build_toeplitz(PHI.coanalytic_part().conjugate_flip(), n),
        lambda i, j: _a(j - i).conjugate() if i > j else 0j,
    ),
    "wco-analytic": (
        lambda n: build_weighted_comp(WeightedCompositionSpec(PHI.analytic_part(), LAM_LEFT), n),
        lambda i, j: LAM_LEFT**j * _a(i - j) if i >= j else 0j,
    ),
    "wco-flipped": (
        lambda n: build_weighted_comp(
            WeightedCompositionSpec(PHI.coanalytic_part().conjugate_flip(), LAM_LEFT.conjugate()), n
        ),
        lambda i, j: LAM_LEFT.conjugate() ** j * _a(j - i).conjugate() if i > j else 0j,
    ),
}


@pytest.mark.parametrize("size", [1, 2, 7])
@pytest.mark.parametrize("case", sorted(BUILDER_CASES))
def test_builder_matches_scalar_closed_form(case, size):
    """Every builder against a Python loop of coefficient() * power.

    The verify_* checks compare outputs of one band builder with each other,
    so this is what ties that builder to the closed forms.
    """
    build, closed_form = BUILDER_CASES[case]
    got = build(size).entries
    expected = np.array(
        [[closed_form(i, j) for j in range(size)] for i in range(size)], dtype=complex
    )
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
    off_band = expected == 0
    assert not np.any(np.signbit(got.real[off_band]) | np.signbit(got.imag[off_band]))


class TestUnitaryFactorization:
    def test_unit_lambda_is_plain_toeplitz(self):
        spec = LambdaToeplitzSpec(1.0, FourierSymbol({1: 2.0, -2: 1j}))
        result = verify_unitary_factorization(spec, 16)
        assert result.passed
        assert result.residual == 0.0

    def test_two_cos_with_lambda_i(self):
        spec = LambdaToeplitzSpec(1j, FourierSymbol({1: 1.0, -1: 1.0}))
        result = verify_unitary_factorization(spec, 64)
        assert result.residual < 1e-13

    def test_entrywise_oracle_small(self):
        # independent reconstruction: lambda^n * twistplus-coefficient vs
        # lambda^min(n,m) * a_{n-m}, evaluated with scalar powers
        lam = cmath.exp(0.9j)
        phi = random_symbol(RNG, max_index=3)
        spec = LambdaToeplitzSpec(lam, phi)
        n_size = 6
        for n in range(n_size):
            for m in range(n_size):
                b = phi.twist_plus(lam).coefficient(n - m)
                lhs = lam**n * b
                rhs = lam ** min(n, m) * phi.coefficient(n - m)
                assert abs(lhs - rhs) < 1e-13
        assert verify_unitary_factorization(spec, n_size).passed

    @pytest.mark.parametrize("phase", [0.0, 0.5, 2.2, 3.9, 5.6])
    def test_random_circle_specs_pass(self, phase):
        spec = LambdaToeplitzSpec(cmath.exp(1j * phase), random_symbol(RNG))
        assert verify_unitary_factorization(spec, 48).passed

    def test_rejects_interior_lambda(self):
        spec = LambdaToeplitzSpec(0.5, FourierSymbol({0: 1.0}))
        with pytest.raises(ValueError, match="lambda"):
            verify_unitary_factorization(spec, 8)


class TestWcoSum:
    def test_analytic_symbol_is_single_weighted_comp(self):
        phi = FourierSymbol({0: 1.0, 2: -1j, 5: 0.3})
        lam = 0.6 + 0.2j
        spec = LambdaToeplitzSpec(lam, phi)
        w = build_weighted_comp(WeightedCompositionSpec(phi, lam), 12).entries
        assert np.max(np.abs(truncate(spec, 12).entries - w)) < 1e-15
        assert verify_wco_sum(spec, 12).residual < 1e-15

    def test_single_superdiagonal(self):
        spec = LambdaToeplitzSpec(0.5, FourierSymbol({-1: 1.0}))
        result = verify_wco_sum(spec, 8)
        assert result.residual < 1e-15
        entries = truncate(spec, 8).entries
        for n in range(7):
            assert entries[n, n + 1] == 0.5**n

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.9j])
    def test_random_symbols_pass(self, lam):
        for _ in range(3):
            spec = LambdaToeplitzSpec(lam, random_symbol(RNG))
            result = verify_wco_sum(spec, 24)
            assert result.passed and result.residual < 1e-14

    @given(symbols(max_terms=4), disc_lambdas)
    @settings(max_examples=30, deadline=None)
    def test_exact_for_all_disc_lambdas(self, phi, lam):
        spec = LambdaToeplitzSpec(lam, phi)
        assert verify_wco_sum(spec, 9).residual < 1e-14


class TestToeplitzCompFactorization:
    def test_analytic_symbol_both_variants_exact(self):
        spec = LambdaToeplitzSpec(0.7, FourierSymbol({0: 1.0, 3: 2.0}))
        stated, corrected = verify_toeplitz_comp_factorization(spec, 10)
        assert stated.residual == 0.0
        assert corrected.residual == 0.0

    def test_counterexample_single_coanalytic_mode(self):
        spec = LambdaToeplitzSpec(0.5, FourierSymbol({-1: 1.0}))
        stated, corrected = verify_toeplitz_comp_factorization(spec, 4)
        assert stated.variant == "as-stated"
        assert stated.residual == pytest.approx(0.75, abs=1e-12)
        assert not stated.passed
        assert corrected.variant == "corrected"
        assert corrected.residual < 1e-15
        assert corrected.passed

    def test_random_coanalytic_symbols_corrected_variant(self):
        for _ in range(5):
            phi = random_symbol(RNG, max_index=4)
            spec = LambdaToeplitzSpec(0.6, phi)
            _, corrected = verify_toeplitz_comp_factorization(spec, 12)
            assert corrected.residual < 1e-12

    @pytest.mark.parametrize("lam", [0.5 + 0.1j, 1.0, 0.0, -0.5])
    def test_rejects_lambda_outside_open_real_interval(self, lam):
        spec = LambdaToeplitzSpec(lam, FourierSymbol({0: 1.0}))
        with pytest.raises(ValueError, match="real lambda"):
            verify_toeplitz_comp_factorization(spec, 4)


class TestKernelGrids:
    def test_zero_lambda_kernel_splits(self):
        phi = FourierSymbol({1: 2.0, -1: 3.0, 0: 1.0})
        spec = LambdaToeplitzSpec(0.0, phi)
        grid = build_kernel_grid(spec, 32)
        plus = phi.analytic_part().evaluate_on_grid(32)
        minus = phi.coanalytic_part().evaluate_on_grid(32)
        assert np.max(np.abs(grid.values - (plus[:, None] + minus[None, :]))) < 1e-15

    def test_constant_symbol_plugin_values(self):
        spec = LambdaToeplitzSpec(0.5, FourierSymbol({0: 1.0}))
        grid = build_kernel_grid(spec, 16)
        theta = 2.0 * np.pi * np.arange(16) / 16
        for j, k in ((0, 0), (3, 5), (15, 2)):
            expected = 1.0 / (1.0 - 0.5 * np.exp(1j * theta[j]) * np.exp(-1j * theta[k]))
            assert abs(grid.values[j, k] - expected) < 1e-14

    def test_quadrature_apply_matches_naive_columns(self):
        rng = np.random.default_rng(5)
        phi = FourierSymbol(
            {n: complex(rng.standard_normal(), rng.standard_normal())
             for n in (-2, -1, 0, 1, 3)}
        )
        spec = LambdaToeplitzSpec(0.6, phi)
        m_grid = 512
        grid = build_kernel_grid(spec, m_grid)
        theta = 2.0 * np.pi * np.arange(m_grid) / m_grid
        for m in (0, 5):
            applied = quadrature_apply(grid, np.exp(1j * m * theta))
            n_col = m + 4  # column support ends at m + max positive index
            column = truncate(spec, n_col + 1).entries[:, m]
            synthesized = sum(
                column[n] * np.exp(1j * n * theta) for n in range(n_col + 1)
            )
            assert np.max(np.abs(applied - synthesized)) < 1e-8

    def test_rejects_boundary_lambda(self):
        spec = LambdaToeplitzSpec(1.0, FourierSymbol({0: 1.0}))
        with pytest.raises(ValueError, match="lambda"):
            build_kernel_grid(spec, 8)

    def test_wco_kernel_rejects_boundary_multiplier(self):
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0}), 1.0)
        with pytest.raises(ValueError, match="multiplier"):
            build_wco_kernel_grid(w, 8)

    def test_sampled_tau_rejects_boundary(self):
        with pytest.raises(ValueError):
            build_kernel_grid_sampled_tau(FourierSymbol({0: 1.0}), np.ones(8))


class TestKernelHsNorm:
    def test_identity_weight_no_composition(self):
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0}), 0.0)
        assert kernel_hs_norm(w, 64) == pytest.approx(1.0, abs=1e-14)

    def test_half_multiplier_closed_form(self):
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0}), 0.5)
        target = math.sqrt(4.0 / 3.0)
        assert abs(kernel_hs_norm(w, 1024) - target) < 1e-9
        # Frobenius oracle: diag((1/2)^m) has squared norm sum 4^-m
        frob = math.sqrt(sum(0.25**m for m in range(512)))
        assert abs(frob - target) < 1e-12

    def test_three_way_agreement(self):
        for _ in range(2):
            psi = random_symbol(RNG, analytic=True)
            w = WeightedCompositionSpec(psi, 0.8)
            closed = wco_hs_norm_closed_form(w)
            quadrature = kernel_hs_norm(w, 1024)
            frob = float(np.linalg.norm(build_weighted_comp(w, 512).entries))
            assert abs(quadrature - closed) < 1e-6
            assert abs(frob - closed) < 1e-6

    def test_frobenius_monotone_to_kernel_value(self):
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0, 2: 0.5}), 0.5)
        closed = wco_hs_norm_closed_form(w)
        norms = [
            float(np.linalg.norm(build_weighted_comp(w, n).entries))
            for n in (8, 16, 32, 64)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= closed + 1e-12
        assert abs(norms[-1] - closed) < 1e-12

    @pytest.mark.parametrize("grid_size", [1, 7, 64, 1000])
    def test_blocked_sum_matches_full_grid(self, grid_size):
        rng = np.random.default_rng(grid_size)
        w = WeightedCompositionSpec(random_symbol(rng, analytic=True), 0.7 * cmath.exp(0.3j))
        full = kernel_grid_l2_norm(build_wco_kernel_grid(w, grid_size))
        assert kernel_hs_norm(w, grid_size) == pytest.approx(full, rel=1e-13, abs=0.0)

    def test_rejects_empty_grid(self):
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0}), 0.5)
        with pytest.raises(ValueError, match="nonempty"):
            kernel_hs_norm(w, 0)

    def test_general_tau_via_sampling(self):
        psi = FourierSymbol({0: 1.0, 1: -0.5j})
        m_grid = 512
        theta = 2.0 * np.pi * np.arange(m_grid) / m_grid
        tau = 0.8 * np.exp(2j * theta)  # tau(z) = 0.8 z^2 sampled on the grid
        grid = build_kernel_grid_sampled_tau(psi, tau)
        closed = psi.l2_norm() / math.sqrt(1.0 - 0.64)
        assert abs(kernel_grid_l2_norm(grid) - closed) < 1e-9

    def test_closed_form_rejects_boundary(self):
        w = WeightedCompositionSpec(FourierSymbol({0: 1.0}), 1.0)
        with pytest.raises(ValueError):
            wco_hs_norm_closed_form(w)


class TestFrobeniusInvariance:
    def test_unimodular_twist_preserves_frobenius(self):
        for phase in (0.9, 2.5):
            lam = cmath.exp(1j * phase)
            phi = random_symbol(RNG)
            spec = LambdaToeplitzSpec(lam, phi)
            lhs = float(np.linalg.norm(truncate(spec, 20).entries))
            rhs = float(np.linalg.norm(build_toeplitz(phi.twist_plus(lam), 20).entries))
            assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_verification_result_json_schema():
    spec = LambdaToeplitzSpec(0.5, FourierSymbol({-1: 1.0}))
    result = verify_wco_sum(spec, 4)
    data = result.to_json_dict()
    assert set(data) == {"identity", "N", "residual", "tolerance", "pass", "variant"}
    assert data["pass"] is True
    assert data["variant"] is None
